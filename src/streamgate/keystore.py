"""Gateway configuration and on-device credential files.

Two small line-oriented formats live here, both documented in the
README so they can be written by hand on a device:

* the gateway config: ``key = value`` pairs, one per line, ``#`` starts
  a comment line, unknown keys are hard errors (a misspelled
  security-relevant key must not be silently ignored);
* the credentials file: the first non-blank, non-comment line is the
  key as hex text. 64 hex digits is a full 256-bit key, a shorter
  even-length string is an incomplete key, an empty file is an empty
  key. Hex was chosen over a binary blob because it is auditable in
  any editor and has no byte-order ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from . import mqtt
from .enclave import KEY_BYTES

__all__ = [
    "ConfigError",
    "CredentialsError",
    "GatewayConfig",
    "parse_config",
    "parse_credentials",
    "parse_provisioning",
]


class ConfigError(ValueError):
    """Config text rejected; message names the offending line."""


class CredentialsError(ValueError):
    """Credentials text rejected."""


@dataclass
class GatewayConfig:
    """Gateway settings: camera shape, MQTT endpoint, credential path.

    Field defaults are the documented fallbacks for keys missing from
    the config file.
    """

    camera_source: str = "synthetic"
    camera_width: int = 1920
    camera_height: int = 1080
    camera_fps: float = 14.0
    mqtt_host: str = "localhost"
    mqtt_port: int = 1883
    mqtt_topic: str = "camera/stream"
    mqtt_client_id: str = "edge-gateway"
    credentials_path: str = "credentials.txt"
    enclave_pipelined: bool = True


def _parse_int(raw: str, lineno: int, key: str, lo: int, hi: int) -> int:
    try:
        value = int(raw, 10)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be an integer, got {raw!r}") from None
    if not lo <= value <= hi:
        raise ConfigError(f"line {lineno}: {key} must be in [{lo}, {hi}], got {value}")
    return value


def _parse_fps(raw: str, lineno: int, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be a number, got {raw!r}") from None
    if not value > 0:
        raise ConfigError(f"line {lineno}: {key} must be positive, got {value}")
    return value


def _parse_bool(raw: str, lineno: int, key: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ConfigError(f"line {lineno}: {key} must be true or false, got {raw!r}")


def _nonempty(raw: str, lineno: int, key: str) -> str:
    if not raw:
        raise ConfigError(f"line {lineno}: {key} must not be empty")
    return raw


def _check_topic(raw: str, lineno: int, key: str) -> str:
    try:
        mqtt.validate_publish_topic(raw)  # the rule publish_header applies
    except mqtt.FilterError as exc:
        raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return raw


# Dotted config key -> (GatewayConfig attribute, parser(raw, lineno, key)).
_CONFIG_KEYS = {
    "camera.source": ("camera_source", _nonempty),
    "camera.width": ("camera_width", partial(_parse_int, lo=1, hi=1 << 16)),
    "camera.height": ("camera_height", partial(_parse_int, lo=1, hi=1 << 16)),
    "camera.fps": ("camera_fps", _parse_fps),
    "mqtt.host": ("mqtt_host", _nonempty),
    "mqtt.port": ("mqtt_port", partial(_parse_int, lo=1, hi=65535)),
    "mqtt.topic": ("mqtt_topic", _check_topic),
    "mqtt.client_id": ("mqtt_client_id", _nonempty),
    "credentials.path": ("credentials_path", _nonempty),
    "enclave.pipelined": ("enclave_pipelined", _parse_bool),
}


def parse_config(text: str) -> GatewayConfig:
    """Parse gateway config text; missing keys fall back to defaults."""
    config = GatewayConfig()
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parse = _CONFIG_KEYS[key]
        setattr(config, attr, parse(raw_value.strip(), lineno, key))
    return config


def _first_payload_line(text: str) -> tuple[Optional[str], int]:
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if line and not line.startswith("#"):
            return line, lineno
    return None, 0


def _decode_hex_key(line: str, lineno: int) -> bytes:
    if len(line) % 2 != 0:
        raise CredentialsError(f"line {lineno}: odd-length hex key ({len(line)} digits)")
    if len(line) > 2 * KEY_BYTES:
        raise CredentialsError(
            f"line {lineno}: key longer than {KEY_BYTES} bytes ({len(line) // 2})"
        )
    try:
        return bytes.fromhex(line)
    except ValueError:
        raise CredentialsError(f"line {lineno}: non-hex character in key") from None


def parse_credentials(text: str) -> bytes:
    """Parse a credentials file into the raw bytes of a candidate key.

    Empty file (or comments only) yields the empty key; fewer than 64
    hex digits yields an incomplete key.
    """
    line, lineno = _first_payload_line(text)
    if line is None:
        return b""
    return _decode_hex_key(line, lineno)


def parse_provisioning(text: str) -> bytes:
    """Parse a provisioning image file: exactly 64 hex digits.

    This is the secret that gets sealed into the enclave, so unlike a
    candidate credential it must be full length.
    """
    line, lineno = _first_payload_line(text)
    if line is None:
        raise CredentialsError("provisioning file has no key line")
    image = _decode_hex_key(line, lineno)
    if len(image) != KEY_BYTES:
        raise CredentialsError(
            f"line {lineno}: provisioning image must be exactly "
            f"{KEY_BYTES} bytes, got {len(image)}"
        )
    return image
