"""Benchmark harness and command-line entry points."""

import dataclasses
import logging
import random
import re
import socket
import threading
import time
from pathlib import Path

import pytest

from streamgate import bench, cli, pipeline
from streamgate.broker import Broker
from streamgate.client import ClientError, MqttConnection
from streamgate.enclave import AuthEnclave, LatencyModel
from streamgate.subscriber import subscribe_and_collect

SECRET_HEX = "8d969eef6ecad3c29a3a629280e686cf0c3f5d5a86aff3ca12020c923adc6cb2"
SECRET = bytes.fromhex(SECRET_HEX)


# -- suite generation --------------------------------------------------------


def test_generated_suite_matches_table_layout():
    rng = random.Random(0)
    secret = bench.generate_secret(rng)
    suite = bench.generate_suite(secret, rng)
    by_label = {}
    for label, _candidate in suite:
        by_label[label] = by_label.get(label, 0) + 1
    assert by_label == bench.TABLE_SUITE_COUNTS
    assert len(suite) == 32


def test_generated_candidates_have_required_shapes():
    rng = random.Random(3)
    secret = bench.generate_secret(rng)
    for label, candidate in bench.generate_suite(secret, rng):
        if label == "correct":
            assert candidate == secret
        elif label == "invalid":
            diff = [a ^ b for a, b in zip(candidate, secret)]
            assert sum(bin(d).count("1") for d in diff) == 1
        elif label == "incomplete":
            assert 1 <= len(candidate) <= 31
            assert candidate == secret[: len(candidate)]
        elif label == "empty":
            assert candidate == b""
        elif label == "wrong":
            assert len(candidate) == 32 and candidate != secret


def test_generated_secret_tail_is_nonzero():
    for seed in range(50):
        assert bench.generate_secret(random.Random(seed))[-1] != 0


def test_suite_replication_many_seeds():
    # The exact 10/22 split must hold whatever the seed.
    for seed in range(20):
        rng = random.Random(seed)
        secret = bench.generate_secret(rng)
        suite = bench.generate_suite(secret, rng)
        _, successes, failures = bench.tally_suite(AuthEnclave(secret), suite)
        assert (successes, failures) == (10, 22)


# -- latency ------------------------------------------------------------------


def test_latency_pipelined(monkeypatch):
    monkeypatch.setattr(bench, "LATENCY_SAMPLES", 100)
    result = bench.measure_latency(LatencyModel.pipelined())
    assert result.mode == "pipelined"
    assert result.cycles == 34
    assert result.elapsed_ns == 340
    assert result.cycle_variance == 0.0


def test_latency_unpipelined(monkeypatch):
    monkeypatch.setattr(bench, "LATENCY_SAMPLES", 100)
    result = bench.measure_latency(LatencyModel.unpipelined())
    assert result.mode == "unpipelined"
    assert result.cycles == 64
    assert result.elapsed_ns == 640
    assert result.cycle_variance == 0.0


# -- loopback and report ---------------------------------------------------------


@pytest.fixture
def small_frames(monkeypatch):
    monkeypatch.setattr(bench, "WIDTH", 64)
    monkeypatch.setattr(bench, "HEIGHT", 64)


def test_loopback_run_small(small_frames):
    run = bench.run_loopback(25.0, 20, seed=5)
    assert run.frames_sent == 20
    assert run.frames_received == 20
    assert run.hashes_match
    assert run.indices_increasing
    assert run.within_tolerance


def test_loopback_raises_the_subscribers_own_error_at_once(small_frames, monkeypatch):
    # It waited 5 s for a subscriber that had already failed, then said
    # only that it did not register in time.
    def refused(*args, **kwargs):
        raise ClientError("broker refused connection: return code 5")

    monkeypatch.setattr(bench.subscriber, "subscribe_and_collect", refused)
    start = time.monotonic()
    with pytest.raises(ClientError, match="return code 5"):
        bench.run_loopback(25.0, 20, seed=5)
    assert time.monotonic() - start < 1.0


def test_bench_report_deterministic_fields(monkeypatch):
    monkeypatch.setattr(bench, "FPS_TARGETS", ())
    a = bench.run_bench(seed=9, frames_per_target=None)
    b = bench.run_bench(seed=9, frames_per_target=None)
    assert a.suite_counts == b.suite_counts == bench.TABLE_SUITE_COUNTS
    assert (a.successes, a.failures) == (b.successes, b.failures) == (10, 22)
    assert a.latency == b.latency
    a_lines = [l for l in a.to_text().splitlines() if not l.startswith("note")]
    b_lines = [l for l in b.to_text().splitlines() if not l.startswith("note")]
    assert a_lines == b_lines


def test_bench_report_text_format(monkeypatch, small_frames):
    monkeypatch.setattr(bench, "FPS_TARGETS", (50.0,))
    report = bench.run_bench(seed=1, frames_per_target=10)
    text = report.to_text()
    assert "auth_suite.successes: 10" in text
    assert "auth_suite.failures: 22" in text
    assert "latency.pipelined.cycles: 34" in text
    assert "latency.pipelined.elapsed_ns: 340" in text
    assert "latency.unpipelined.cycles: 64" in text
    assert "latency.unpipelined.elapsed_ns: 640" in text
    assert "fps.target_50.frames_received: 10" in text
    # Line-oriented key: value, no blank lines
    for line in text.strip().splitlines():
        assert ": " in line


ONE_FRAME_RUN = bench.FpsRun(
    target_fps=14.0,
    frames_requested=2,
    frames_sent=1,
    frames_received=1,
    publisher_fps=None,
    subscriber_fps=None,
    hashes_match=True,
    indices_increasing=True,
    within_tolerance=False,
)


def report_text(*fps_runs):
    return bench.BenchReport(
        seed=0, suite_counts={}, successes=0, failures=0, latency=[], fps_runs=list(fps_runs)
    ).to_text()


def test_bench_report_prints_missing_rates_as_n_a():
    text = report_text(ONE_FRAME_RUN)
    assert "fps.target_14.publisher_fps: n/a\n" in text
    assert "fps.target_14.subscriber_fps: n/a\n" in text


def test_bench_report_prints_whether_indices_increased():
    # FpsRun computed it, but the report never printed it.
    backwards = dataclasses.replace(ONE_FRAME_RUN, frames_sent=2, indices_increasing=False)
    text = report_text(backwards)
    assert text.endswith(
        "fps.target_14.within_tolerance: false\n"
        "fps.target_14.indices_increasing: false\n"
    )


# -- CLI ---------------------------------------------------------------------------


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "gateway.cfg").write_text(
        "camera.width = 64\ncamera.height = 64\ncamera.fps = 100\n"
        f"credentials.path = {tmp_path / 'creds.txt'}\n"
    )
    (tmp_path / "secret.hex").write_text(SECRET_HEX + "\n")
    (tmp_path / "creds.txt").write_text(SECRET_HEX + "\n")
    (tmp_path / "wrong.txt").write_text("00" * 32 + "\n")
    return tmp_path


def test_cmd_auth_matching_credentials(workdir, capsys):
    code = cli.main(
        [
            "auth",
            "--config", str(workdir / "gateway.cfg"),
            "--provision", str(workdir / "secret.hex"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "authorized" in out
    assert "cycles=34" in out


def test_cmd_auth_wrong_credentials(workdir, capsys):
    code = cli.main(
        [
            "auth",
            "--config", str(workdir / "gateway.cfg"),
            "--provision", str(workdir / "secret.hex"),
            "--credentials", str(workdir / "wrong.txt"),
        ]
    )
    assert code == 1
    assert "refused" in capsys.readouterr().out


def test_cmd_auth_unpipelined_cycles(workdir, capsys):
    code = cli.main(
        [
            "auth",
            "--config", str(workdir / "gateway.cfg"),
            "--provision", str(workdir / "secret.hex"),
            "--no-pipelined",
        ]
    )
    assert code == 0
    assert "cycles=64" in capsys.readouterr().out


def test_cmd_auth_missing_config(workdir):
    code = cli.main(
        [
            "auth",
            "--config", str(workdir / "missing.cfg"),
            "--provision", str(workdir / "secret.hex"),
        ]
    )
    assert code == 2


def test_cmd_auth_bad_config(workdir):
    (workdir / "bad.cfg").write_text("camera.fps = 0\n")
    code = cli.main(
        [
            "auth",
            "--config", str(workdir / "bad.cfg"),
            "--provision", str(workdir / "secret.hex"),
        ]
    )
    assert code == 2


def test_cmd_auth_bad_provisioning(workdir):
    (workdir / "short.hex").write_text("abcd\n")
    code = cli.main(
        [
            "auth",
            "--config", str(workdir / "gateway.cfg"),
            "--provision", str(workdir / "short.hex"),
        ]
    )
    assert code == 2


def test_cmd_stream_refused_before_any_connect(workdir):
    # Deliberately point at a dead port: refusal must win because the
    # gate runs before any connection attempt.
    code = cli.main(
        [
            "stream",
            "--config", str(workdir / "gateway.cfg"),
            "--provision", str(workdir / "secret.hex"),
            "--credentials", str(workdir / "wrong.txt"),
            "--host", "127.0.0.1",
            "--port", "9",
            "--frames", "3",
        ]
    )
    assert code == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--fps", "-5"),  # streamed unpaced
        ("--fps", "0"),  # fell back to the config's rate
        ("--fps", "nan"),
        ("--frames", "-1"),  # a ValueError traceback, exit 1
        ("--duration", "-1"),
        ("--port", "0"),
        ("--port", "65536"),
    ],
)
def test_cmd_stream_out_of_range_override_is_bad_input(workdir, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            [
                "stream",
                "--config", str(workdir / "gateway.cfg"),
                "--provision", str(workdir / "secret.hex"),
                flag, value,
            ]
        )
    assert exit_info.value.code == cli.EXIT_BAD_INPUT
    assert f"{flag}: must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["subscribe", "--frames", "-1"],
        ["subscribe", "--duration", "-0.5"],
        ["subscribe", "--port", "0"],
        ["broker", "--port", "-1"],
    ],
)
def test_out_of_range_options_are_bad_input(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == cli.EXIT_BAD_INPUT
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("command, topic", [("stream", "cam/#"), ("subscribe", "a/#/b")])
def test_bad_topic_option_is_bad_input_before_any_connect(workdir, capsys, command, topic):
    with Broker("127.0.0.1", 0) as broker:
        argv = [command, "--host", "127.0.0.1", "--port", str(broker.port), "--topic", topic]
        if command == "stream":
            argv += ["--config", str(workdir / "gateway.cfg")]
            argv += ["--provision", str(workdir / "secret.hex")]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv + ["--frames", "1"])
        assert broker.stats.connections_accepted == 0
    assert exit_info.value.code == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "argument --topic:" in err
    assert "Traceback" not in err


def test_cmd_stream_nul_topic_in_config_is_bad_input(workdir, capsys):
    config = workdir / "nul.cfg"
    config.write_text((workdir / "gateway.cfg").read_text() + "mqtt.topic = a\x00b\n")
    with Broker("127.0.0.1", 0) as broker:
        code = cli.main(
            [
                "stream",
                "--config", str(config),
                "--provision", str(workdir / "secret.hex"),
                "--host", "127.0.0.1",
                "--port", str(broker.port),
                "--frames", "1",
            ]
        )
        assert broker.stats.connections_accepted == 0
    assert code == cli.EXIT_BAD_INPUT
    assert "mqtt.topic" in capsys.readouterr().err


@pytest.mark.parametrize("client_id", ["a\x00b", "c" * 70_000], ids=["nul", "over-65535-bytes"])
def test_cmd_stream_bad_client_id_in_config_is_bad_input(workdir, capsys, client_id):
    config = workdir / "id.cfg"
    config.write_text((workdir / "gateway.cfg").read_text() + f"mqtt.client_id = {client_id}\n")
    with Broker("127.0.0.1", 0) as broker:
        code = cli.main(
            [
                "stream",
                "--config", str(config),
                "--provision", str(workdir / "secret.hex"),
                "--host", "127.0.0.1",
                "--port", str(broker.port),
                "--frames", "1",
            ]
        )
        assert broker.stats.connections_accepted == 0
    assert code == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "mqtt.client_id" in err
    assert "Traceback" not in err


def test_cmd_stream_empty_host_is_bad_input(workdir, capsys):
    # It used to fall back to the config's host.
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            [
                "stream",
                "--config", str(workdir / "gateway.cfg"),
                "--provision", str(workdir / "secret.hex"),
                "--host", "",
                "--frames", "1",
            ]
        )
    assert exit_info.value.code == cli.EXIT_BAD_INPUT
    assert "argument --host: must" in capsys.readouterr().err


def test_cmd_stream_and_subscribe_loopback(workdir, capsys):
    with Broker("127.0.0.1", 0) as broker:
        box = {}

        def _collect():
            box["report"] = subscribe_and_collect(
                "127.0.0.1", broker.port, "camera/stream",
                max_frames=8, duration_s=10.0,
            )

        collector = threading.Thread(target=_collect, daemon=True)
        collector.start()
        deadline = time.monotonic() + 3.0
        while broker.table.filter_count() == 0 and time.monotonic() < deadline:
            time.sleep(0.01)

        code = cli.main(
            [
                "stream",
                "--config", str(workdir / "gateway.cfg"),
                "--provision", str(workdir / "secret.hex"),
                "--host", "127.0.0.1",
                "--port", str(broker.port),
                "--frames", "8",
                "--fps", "100",
            ]
        )
        collector.join(timeout=10.0)
        assert code == 0
        assert broker.stats.publishes_received == 8
    assert box["report"].frames_received == 8
    assert "frames_sent: 8" in capsys.readouterr().out


def test_cmd_stream_one_frame_reports_no_rate(workdir, capsys, caplog):
    # It printed 0.000, where subscribe prints n/a for the same case.
    caplog.set_level(logging.INFO, logger="streamgate.pipeline")
    with Broker("127.0.0.1", 0) as broker:
        code = cli.main(
            [
                "stream",
                "--config", str(workdir / "gateway.cfg"),
                "--provision", str(workdir / "secret.hex"),
                "--host", "127.0.0.1",
                "--port", str(broker.port),
                "--frames", "1",
            ]
        )
    assert code == 0
    out = capsys.readouterr().out
    assert "frames_sent: 1\n" in out
    assert "measured_fps: n/a\n" in out
    assert "stream complete: 1 frames at n/a fps" in caplog.text


def test_cmd_subscribe_empty_topic(workdir, capsys):
    with Broker("127.0.0.1", 0) as broker:
        code = cli.main(
            [
                "subscribe",
                "--host", "127.0.0.1",
                "--port", str(broker.port),
                "--topic", "quiet/topic",
                "--duration", "0.5",
            ]
        )
    assert code == 0
    assert "frames_received: 0" in capsys.readouterr().out


# -- failures main maps to exit codes ---------------------------------------------------
#
# Bad input exits 2 with one line, never 1 with a traceback: a script reads
# exit 1 as a refused key.


def assert_one_error_line(code, err):
    assert code == cli.EXIT_BAD_INPUT
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error: ")]) == 1


def _a_directory(workdir):
    path = workdir / "a-directory"
    path.mkdir()
    return path


def _not_utf8(workdir):
    path = workdir / "not-utf8.hex"
    path.write_bytes(b"\xff\xfe")
    return path


def _not_hex(workdir):
    path = workdir / "not-hex.txt"
    path.write_text("zz\n")
    return path


def _bad_client_id(workdir):
    path = workdir / "bad-client-id.cfg"
    path.write_text("mqtt.client_id = a\x00b\n")
    return path


@pytest.mark.parametrize(
    "flag, make",
    [
        ("--provision", _a_directory),
        ("--config", _a_directory),
        ("--provision", _not_utf8),
        ("--config", _not_utf8),
        ("--credentials", _not_utf8),
        ("--provision", _not_hex),
        ("--credentials", _not_hex),
        ("--config", _bad_client_id),
    ],
    ids=[
        "provision-is-a-directory",
        "config-is-a-directory",
        "provision-not-utf8",
        "config-not-utf8",
        "credentials-not-utf8",
        "provision-not-hex",
        "credentials-not-hex",
        "config-bad-client-id",
    ],
)
def test_cmd_auth_unreadable_file_is_bad_input(workdir, capsys, flag, make):
    files = {"--config": workdir / "gateway.cfg", "--provision": workdir / "secret.hex"}
    files[flag] = make(workdir)
    argv = ["auth"]
    for name, path in files.items():
        argv += [name, str(path)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    # A bad provisioning and a bad credentials file printed the same
    # "error: line 1: non-hex character in key"; now the line says which.
    [line] = [line for line in err.splitlines() if line.startswith("error: ")]
    assert line.startswith(f"error: {files[flag]}: ")


@pytest.mark.parametrize("command", ["auth", "stream"])
def test_empty_credentials_flag_is_bad_input_before_any_file_is_read(
    workdir, capsys, monkeypatch, command
):
    # It fell back to the config's credentials.path, and auth exited 0.
    reads = []
    real_read_text = Path.read_text

    def spy_read_text(path, *args, **kwargs):
        reads.append(path)
        return real_read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", spy_read_text)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            [
                command,
                "--config", str(workdir / "gateway.cfg"),
                "--provision", str(workdir / "secret.hex"),
                "--credentials", "",
            ]
        )
    assert exit_info.value.code == cli.EXIT_BAD_INPUT
    assert reads == []
    assert "argument --credentials: must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["absent", "empty"])
def test_cmd_stream_unusable_camera_source_is_bad_input(workdir, capsys, source):
    (workdir / "empty").mkdir()
    config = workdir / "source.cfg"
    config.write_text(
        (workdir / "gateway.cfg").read_text() + f"camera.source = {workdir / source}\n"
    )
    with Broker("127.0.0.1", 0) as broker:
        code = cli.main(
            [
                "stream",
                "--config", str(config),
                "--provision", str(workdir / "secret.hex"),
                "--host", "127.0.0.1",
                "--port", str(broker.port),
                "--frames", "1",
            ]
        )
        assert broker.stats.connections_accepted == 0
    assert_one_error_line(code, capsys.readouterr().err)


def test_cmd_subscribe_sink_that_is_a_file_is_bad_input(workdir, capsys):
    with Broker("127.0.0.1", 0) as broker:
        code = cli.main(
            [
                "subscribe",
                "--host", "127.0.0.1",
                "--port", str(broker.port),
                "--frames", "1",
                "--sink", str(workdir / "creds.txt"),
            ]
        )
        assert broker.stats.connections_accepted == 0
    assert_one_error_line(code, capsys.readouterr().err)


def test_cmd_broker_port_in_use_is_bad_input(capsys):
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        code = cli.main(["broker", "--host", "127.0.0.1", "--port", str(holder.getsockname()[1])])
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert "cannot bind broker" in err


def test_cmd_broker_empty_host_is_bad_input(capsys, monkeypatch):
    # It bound every interface without a word.
    served = []

    def spy_serve(*args):
        served.append(args)
        raise KeyboardInterrupt  # as if stopped at once, rather than serve

    monkeypatch.setattr(cli.broker_mod, "serve", spy_serve)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["broker", "--host", "", "--port", "0"])
    assert exit_info.value.code == cli.EXIT_BAD_INPUT
    assert served == []
    assert "argument --host: must not be empty" in capsys.readouterr().err


def test_cmd_stream_unreachable_broker_is_bad_input(workdir, capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]  # nothing listens there once it closes
    code = cli.main(
        [
            "stream",
            "--config", str(workdir / "gateway.cfg"),
            "--provision", str(workdir / "secret.hex"),
            "--host", "127.0.0.1",
            "--port", str(port),
            "--frames", "1",
        ]
    )
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert f"error: cannot reach broker at 127.0.0.1:{port}" in err


def test_cmd_auth_interrupt_exits_130(workdir, capsys, monkeypatch):
    # An interrupt must never read as authorized (0) or refused (1).
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.driver, "authenticate", interrupted)
    argv = ["auth", "--config", str(workdir / "gateway.cfg")]
    try:
        code = cli.main(argv + ["--provision", str(workdir / "secret.hex")])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped cli.main")
    assert code == 130
    assert capsys.readouterr().err == "auth interrupted\n"


def test_cmd_stream_interrupted_midway_exits_0_with_stats(workdir, capsys, monkeypatch):
    class InterruptedSource(pipeline.SyntheticFrameSource):
        def next_frame(self):
            if self._index == 4:
                raise KeyboardInterrupt
            return super().next_frame()

    monkeypatch.setattr(
        pipeline, "source_from_config", lambda config: InterruptedSource(64, 64, frame_bytes=64)
    )
    with Broker("127.0.0.1", 0) as broker:
        code = cli.main(
            [
                "stream",
                "--config", str(workdir / "gateway.cfg"),
                "--provision", str(workdir / "secret.hex"),
                "--host", "127.0.0.1",
                "--port", str(broker.port),
                "--frames", "10",
            ]
        )
    assert code == cli.EXIT_OK
    assert "frames_sent: 4\n" in capsys.readouterr().out


def test_cmd_stream_session_ended_midway_exits_2_with_partial_stats(
    workdir, capsys, monkeypatch
):
    # A second client with the gateway's client id supersedes its session
    # after 3 frames; the broker closes the gateway's connection.
    class SupersededSource(pipeline.SyntheticFrameSource):
        def next_frame(self):
            if self._index == 3:
                intruder = MqttConnection("127.0.0.1", broker.port, "edge-gateway")
                intruder.connect()
                intruder.subscribe("elsewhere")  # the old session is closed by its SUBACK
                intruders.append(intruder)
            return super().next_frame()

    intruders = []
    monkeypatch.setattr(
        pipeline, "source_from_config", lambda config: SupersededSource(64, 64, frame_bytes=64)
    )
    with Broker("127.0.0.1", 0) as broker:
        code = cli.main(
            [
                "stream",
                "--config", str(workdir / "gateway.cfg"),
                "--provision", str(workdir / "secret.hex"),
                "--host", "127.0.0.1",
                "--port", str(broker.port),
                "--frames", "50",
            ]
        )
        intruders[0].disconnect()
    assert code == cli.EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert "stream aborted:" in err
    assert 3 <= int(re.search(r"^frames_sent: (\d+)$", out, re.M).group(1)) < 50


def test_cmd_subscribe_interrupted_midway_exits_0_with_report(capsys, monkeypatch):
    def interrupted(self, timeout=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(MqttConnection, "recv_packet", interrupted)
    with Broker("127.0.0.1", 0) as broker:
        code = cli.main(
            ["subscribe", "--host", "127.0.0.1", "--port", str(broker.port), "--frames", "3"]
        )
    assert code == cli.EXIT_OK
    assert "frames_received: 0\n" in capsys.readouterr().out


def test_cmd_bench_writes_report(workdir, capsys):
    report_path = workdir / "bench.txt"
    code = cli.main(
        ["bench", "--seed", "4", "--frames", "5", "--report", str(report_path)]
    )
    assert code == 0
    text = report_path.read_text()
    assert "auth_suite.successes: 10" in text
    assert "auth_suite.failures: 22" in text
    assert "latency.pipelined.cycles: 34" in text
    assert capsys.readouterr().out.startswith("seed: 4")


def test_cmd_bench_report_that_is_a_directory_fails_before_any_run(
    workdir, capsys, monkeypatch
):
    # It ran the whole bench, about 15 s, before failing to write.
    runs = []

    def spy_run_bench(*args, **kwargs):
        runs.append(kwargs)
        return bench.BenchReport(
            seed=0, suite_counts={}, successes=0, failures=0, latency=[], fps_runs=[]
        )

    monkeypatch.setattr(bench, "run_bench", spy_run_bench)
    code = cli.main(["bench", "--report", str(_a_directory(workdir))])
    assert_one_error_line(code, capsys.readouterr().err)
    assert runs == []


@pytest.mark.parametrize("frames", ["0", "-1", "1"])
def test_cmd_bench_needs_two_frames_per_run(capsys, frames):
    # 0 and -1 ran for about 15 s and exited 0; 1 frame has no rate to check.
    start = time.monotonic()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["bench", "--frames", frames])
    assert time.monotonic() - start < 2.0
    assert exit_info.value.code == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "argument --frames: must be a whole number >= 2" in err
    assert "Traceback" not in err
