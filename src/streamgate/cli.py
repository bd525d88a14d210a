"""Command-line entry points.

    streamgate auth      --config g.cfg --provision secret.hex
    streamgate stream    --config g.cfg --provision secret.hex --frames 70
    streamgate subscribe --topic camera/stream --frames 70 --sink out/
    streamgate broker    --host 127.0.0.1 --port 1883
    streamgate bench     --seed 0 --report bench.txt

Exit codes, all decided in :func:`main`:

    0    success; ``auth``: the key is authorized
    1    the key is refused; nothing was published
    2    bad input: an option value out of range; a config, credentials
         or provisioning file that is missing, unreadable, a directory,
         not UTF-8 or breaks its rule; a ``camera.source`` that is not a
         directory or holds no files; a ``subscribe --sink`` that is a
         file; a ``bench --report`` that cannot be written; a ``broker
         --port`` already bound; a broker that cannot be reached or
         refuses the session; a stream aborted midway
    130  interrupted (Ctrl-C) before the command could finish

Each override flag of ``auth`` and ``stream`` sets one config key (the
table ``_OVERRIDES``) and takes that key's rule, so ``--credentials ''``
is bad input, as an empty ``credentials.path`` is.

A Ctrl-C in the middle of ``stream``, ``subscribe`` or ``broker`` ends
it cleanly: it prints its stats and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
import time
from functools import partial
from pathlib import Path

from . import bench as bench_mod
from . import broker as broker_mod
from . import driver, keystore, mqtt, pipeline, subscriber
from .client import ClientError
from .enclave import AuthEnclave, LatencyModel, ProvisioningError
from .keystore import ConfigError, CredentialsError, GatewayConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

# What main reports as one ``error:`` line and exit 2.
_BAD_INPUT = (ConfigError, CredentialsError, ProvisioningError, pipeline.SourceError,
              ClientError, OSError)

# Override flag -> the config key it sets. A value flag takes its key's
# rule; --pipelined and --no-pipelined set their key to true and false.
_OVERRIDES = {
    "--credentials": "credentials.path",
    "--pipelined": "enclave.pipelined",
    "--no-pipelined": "enclave.pipelined",
    "--host": "mqtt.host",
    "--port": "mqtt.port",
    "--topic": "mqtt.topic",
    "--fps": "camera.fps",
}


def _flag(rule):
    """An argparse ``type=`` that applies a keystore rule; its ValueError is the usage error."""

    def convert(raw: str):
        try:
            return rule(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_HOST = _flag(keystore.RULES["mqtt.host"])
_BIND_PORT = _flag(lambda raw: 0 if raw == "0" else keystore.RULES["mqtt.port"](raw))
_FRAMES = _flag(keystore.checked(int, lambda v: v >= 0, "a whole number >= 0"))
_BENCH_FRAMES = _flag(keystore.checked(int, lambda v: v >= 2, "a whole number >= 2"))
_SECONDS = _flag(keystore.checked(float, lambda v: v >= 0, "a number of seconds >= 0"))
_TOPIC_FILTER = _flag(partial(keystore.nonempty, validate=mqtt.validate_filter))


def _load(path: str, parse, error):
    """``parse`` of a file's UTF-8 text; any failure raises ``error`` led by the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 (byte {exc.start}: {exc.reason})") from None
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # the parser's ConfigError or CredentialsError
        raise error(f"{path}: {exc}") from None


def _load_config(args) -> GatewayConfig:
    """The config file, or the defaults, with the override flags given applied."""
    config = GatewayConfig()
    if args.config is not None:
        config = _load(args.config, keystore.parse_config, ConfigError)
    for key in _OVERRIDES.values():
        value = getattr(args, key, None)  # None: not given, or not a flag of this command
        if value is not None:
            config.set(key, value)
    return config


def _load_enclave(config: GatewayConfig, provision: str) -> AuthEnclave:
    image = _load(provision, keystore.parse_provisioning, CredentialsError)
    model = LatencyModel.pipelined() if config.enclave_pipelined else LatencyModel.unpipelined()
    return AuthEnclave(image, model)


def _load_candidate(config: GatewayConfig) -> bytes:
    return _load(config.credentials_path, keystore.parse_credentials, CredentialsError)


def cmd_auth(args) -> int:
    config = _load_config(args)
    enclave = _load_enclave(config, args.provision)
    candidate = _load_candidate(config)
    verdict = driver.authenticate(enclave, candidate)
    status = "authorized" if verdict.authorized else "refused"
    print(
        f"{status}: cycles={verdict.cycles} elapsed_ns={verdict.elapsed_ns} "
        f"words_written={verdict.words_written}"
    )
    return EXIT_OK if verdict.authorized else EXIT_REFUSED


def cmd_stream(args) -> int:
    config = _load_config(args)
    enclave = _load_enclave(config, args.provision)
    candidate = _load_candidate(config)
    frames = args.frames
    duration = args.duration
    if frames is None and duration is None:
        duration = 5.0
    result = pipeline.publish_stream(
        config, enclave, candidate, max_frames=frames, duration_s=duration
    )
    if not result.authorized:
        print("refused: candidate key rejected, nothing published", file=sys.stderr)
        return EXIT_REFUSED
    assert result.stats is not None
    _print_stats(result.stats)
    return EXIT_OK


def _print_stats(stats: pipeline.ThrottleStats) -> None:
    print(
        f"frames_sent: {stats.frames_sent}\n"
        f"window_duration: {stats.window_duration:.3f}\n"
        f"measured_fps: {pipeline.rate_text(stats.measured_fps)}\n"
        f"target_fps: {stats.target_fps:g}"
    )


def cmd_subscribe(args) -> int:
    frames = args.frames
    duration = args.duration
    if frames is None and duration is None:
        duration = 5.0
    report = subscriber.subscribe_and_collect(
        args.host,
        args.port,
        args.topic,
        max_frames=frames,
        duration_s=duration,
        sink_dir=args.sink,
    )
    print(
        f"frames_received: {report.frames_received}\n"
        f"measured_fps: {pipeline.rate_text(report.measured_fps)}\n"
        f"out_of_order: {report.out_of_order_count}\n"
        f"decode_failures: {report.decode_failure_count}\n"
        f"write_drops: {report.write_drop_count}"
    )
    return EXIT_OK


def cmd_broker(args) -> int:
    handle = broker_mod.serve(args.host, args.port)  # logs "broker listening on ..."
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        handle.stop()
        for key, value in handle.stats.snapshot().items():
            print(f"{key}: {value}")
    return EXIT_OK


def cmd_bench(args) -> int:
    # Opened first, so a report path that cannot be written fails before the runs.
    with open(args.report, "w") if args.report else contextlib.nullcontext() as out:
        text = bench_mod.run_bench(seed=args.seed, frames_per_target=args.frames).to_text()
        if out is not None:
            out.write(text)
    if args.report:
        print(f"report written to {args.report}", file=sys.stderr)
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamgate",
        description="Authenticated MQTT frame streaming behind an emulated key enclave",
    )
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *overrides):
        p.add_argument("--config", help="gateway config file")
        p.add_argument("--provision", required=True, help="provisioning image file (64 hex digits)")
        switches = p.add_mutually_exclusive_group()
        for flag in ("--credentials", "--pipelined", "--no-pipelined", *overrides):
            key = _OVERRIDES[flag]  # the dest, so _load_config finds the value by key
            if key == "enclave.pipelined":
                const = flag == "--pipelined"
                switches.add_argument(flag, dest=key, action="store_const", const=const)
            else:
                p.add_argument(flag, dest=key, type=_flag(keystore.RULES[key]))

    p_auth = sub.add_parser("auth", help="run one authentication and print the verdict")
    add_common(p_auth)
    p_auth.set_defaults(func=cmd_auth)

    p_stream = sub.add_parser("stream", help="publish an authenticated frame stream")
    add_common(p_stream, "--host", "--port", "--topic", "--fps")
    p_stream.add_argument("--frames", type=_FRAMES)
    p_stream.add_argument("--duration", type=_SECONDS)
    p_stream.set_defaults(func=cmd_stream)

    p_sub = sub.add_parser("subscribe", help="collect frames from a topic")
    config = GatewayConfig()  # the broker and topic that stream publishes to by default
    p_sub.add_argument("--host", type=_HOST, default=config.mqtt_host)
    p_sub.add_argument("--port", type=_flag(keystore.RULES["mqtt.port"]), default=config.mqtt_port)
    p_sub.add_argument("--topic", type=_TOPIC_FILTER, default=config.mqtt_topic)
    p_sub.add_argument("--frames", type=_FRAMES)
    p_sub.add_argument("--duration", type=_SECONDS)
    p_sub.add_argument("--sink", help="directory for received frames")
    p_sub.set_defaults(func=cmd_subscribe)

    p_broker = sub.add_parser("broker", help="run the embedded broker")
    p_broker.add_argument("--host", type=_HOST, default="127.0.0.1")
    p_broker.add_argument(
        "--port", type=_BIND_PORT, default=broker_mod.DEFAULT_PORT, help="0 binds any free port"
    )
    p_broker.set_defaults(func=cmd_broker)

    p_bench = sub.add_parser("bench", help="run the benchmark suite")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--frames", type=_BENCH_FRAMES, help="frames per fps run (default: 5 seconds worth)"
    )
    p_bench.add_argument("--report", help="also write the report to this path")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except pipeline.StreamAborted as exc:
        print(f"stream aborted: {exc}", file=sys.stderr)
        _print_stats(exc.stats)
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
    except KeyboardInterrupt:  # one the command did not handle itself
        print(f"{args.command} interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
