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

import string
from dataclasses import dataclass
from functools import partial
from typing import Optional

from . import mqtt
from .enclave import KEY_BYTES

__all__ = [
    "ConfigError",
    "CredentialsError",
    "GatewayConfig",
    "RULES",
    "checked",
    "nonempty",
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

    Field ``a_b`` holds config key ``a.b``. Field defaults are the
    documented fallbacks for keys missing from the config file.
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

    def set(self, key: str, value) -> None:
        """Set config key ``key`` to a value its rule returned."""
        setattr(self, key.replace(".", "_"), value)


def checked(parse, ok, what: str):
    """A rule: ``parse`` the raw text, then require ``ok(value)``.

    A rule takes a setting's raw text and returns its value, or raises
    ``ValueError`` saying what the value must be.
    """

    def rule(raw: str):
        try:
            value = parse(raw)
            if ok(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"must be {what}, got {raw!r}")

    return rule


def nonempty(raw: str, validate=None) -> str:
    """The rule for a string: not empty, and passing ``validate``, an ``mqtt`` validator."""
    if not raw:
        raise ValueError("must not be empty")
    if validate is not None:
        validate(raw)  # a FilterError is a ValueError
    return raw


def _boolean(raw: str) -> bool:
    lowered = raw.lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"must be true or false, got {raw!r}")
    return lowered == "true"


_DIMENSION = checked(int, lambda v: 1 <= v <= 1 << 16, "an integer in [1, 65536]")

# Dotted config key -> the rule for its value. Key ``a.b`` sets GatewayConfig.a_b.
RULES = {
    "camera.source": nonempty,
    "camera.width": _DIMENSION,
    "camera.height": _DIMENSION,
    "camera.fps": checked(float, lambda v: v > 0, "a positive number"),
    "mqtt.host": nonempty,
    "mqtt.port": checked(int, lambda v: 1 <= v <= 65535, "an integer in [1, 65535]"),
    "mqtt.topic": partial(nonempty, validate=mqtt.validate_publish_topic),
    "mqtt.client_id": partial(nonempty, validate=mqtt.validate_client_id),
    "credentials.path": nonempty,
    "enclave.pipelined": _boolean,
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
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in RULES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            value = RULES[key](raw_value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
        config.set(key, value)
    return config


def _first_payload_line(text: str) -> tuple[Optional[str], int]:
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if line and not line.startswith("#"):
            return line, lineno
    return None, 0


def _decode_hex_key(line: str, lineno: int) -> bytes:
    if line.strip(string.hexdigits):  # what is left is no hex digit; fromhex skips spaces
        raise CredentialsError(f"line {lineno}: non-hex character in key")
    if len(line) % 2 != 0:
        raise CredentialsError(f"line {lineno}: odd-length hex key ({len(line)} digits)")
    if len(line) > 2 * KEY_BYTES:
        raise CredentialsError(
            f"line {lineno}: key longer than {KEY_BYTES} bytes ({len(line) // 2})"
        )
    return bytes.fromhex(line)


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
