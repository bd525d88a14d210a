"""Config and credentials parsing tests."""

import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamgate import mqtt
from streamgate.keystore import (
    ConfigError,
    CredentialsError,
    GatewayConfig,
    parse_config,
    parse_credentials,
    parse_provisioning,
)


# -- config ------------------------------------------------------------------


def test_parse_port():
    assert parse_config("mqtt.port = 1883").mqtt_port == 1883


def test_parse_camera_geometry():
    config = parse_config("camera.width = 1920\ncamera.height = 1080")
    assert (config.camera_width, config.camera_height) == (1920, 1080)


def test_defaults_for_missing_keys():
    config = parse_config("")
    assert config.mqtt_host == "localhost"
    assert config.mqtt_port == 1883
    assert config.camera_width == 1920
    assert config.camera_height == 1080
    assert config.camera_fps == 14.0
    assert config.enclave_pipelined is True
    assert config.mqtt_topic == "camera/stream"


def test_comments_and_blank_lines_skipped():
    text = "# gateway settings\n\n   # indented comment\nmqtt.port = 2000\n"
    assert parse_config(text).mqtt_port == 2000


def test_full_config_round():
    text = (
        "camera.source = synthetic\n"
        "camera.width = 640\n"
        "camera.height = 480\n"
        "camera.fps = 30\n"
        "mqtt.host = broker.local\n"
        "mqtt.port = 1884\n"
        "mqtt.topic = camera/alt\n"
        "mqtt.client_id = cam-7\n"
        "credentials.path = /etc/gateway/creds.txt\n"
        "enclave.pipelined = false\n"
    )
    config = parse_config(text)
    assert config.camera_fps == 30.0
    assert config.enclave_pipelined is False
    assert config.mqtt_client_id == "cam-7"


@pytest.mark.parametrize(
    "text,needle",
    [
        ("camera.fps = 0", "line 1"),
        ("camera.fps = -3", "line 1"),
        ("camera.fps = fast", "line 1"),
        ("camera.width = 0", "line 1"),
        ("mqtt.port = 0", "line 1"),
        ("mqtt.port = 65536", "line 1"),
        ("mqtt.port = 18.83", "line 1"),
        ("mqtt.topic = cam/+", "line 1"),
        ("mqtt.topic = cam/#", "line 1"),
        ("mqtt.topic =", "line 1"),
        ("mqtt.topic = a\x00b", "line 1"),
        pytest.param("mqtt.topic = " + "t" * 65_536, "line 1", id="topic-over-65535-bytes"),
        ("enclave.pipelined = maybe", "line 1"),
        ("frame.rate = 10", "unknown key"),
        ("no equals sign here", "key = value"),
        ("mqtt.port = 1883\nmqtt.port = 1884", "line 2"),
    ],
)
def test_config_errors_name_the_line(text, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert needle in str(err.value)


@settings(max_examples=300, deadline=None)
@given(topic=st.text(max_size=40))
@example(topic="a\x00b")
@example(topic="t" * 65_536)
def test_property_every_config_topic_is_publishable(topic):
    try:
        config = parse_config(f"mqtt.topic = {topic}")
    except ConfigError:
        return
    mqtt.publish_header(config.mqtt_topic, 0)


@settings(max_examples=300, deadline=None)
@given(client_id=st.text(max_size=40))
@example(client_id="a\x00b")
@example(client_id="c" * 70_000)
def test_property_every_config_client_id_can_connect(client_id):
    try:
        config = parse_config(f"mqtt.client_id = {client_id}")
    except ConfigError:
        return
    mqtt.encode_packet(mqtt.Connect(client_id=config.mqtt_client_id))


@pytest.mark.parametrize("raw, value", [("TRUE", True), ("False", False), ("tRuE", True)])
def test_booleans_ignore_case(raw, value):
    assert parse_config(f"enclave.pipelined = {raw}").enclave_pipelined is value


def test_error_on_third_line():
    text = "mqtt.port = 1883\ncamera.width = 640\ncamera.fps = no\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(text)


def random_config(rng: random.Random) -> GatewayConfig:
    word = lambda: "".join(rng.choices(string.ascii_lowercase, k=rng.randrange(1, 9)))
    return GatewayConfig(
        camera_source=rng.choice(["synthetic", f"/var/frames/{word()}"]),
        camera_width=rng.randrange(1, 4096),
        camera_height=rng.randrange(1, 4096),
        camera_fps=rng.choice([6.0, 14.0, 30.0, rng.uniform(0.5, 120.0)]),
        mqtt_host=word(),
        mqtt_port=rng.randrange(1, 65536),
        mqtt_topic="/".join(word() for _ in range(rng.randrange(1, 4))),
        mqtt_client_id=word(),
        credentials_path=f"{word()}.txt",
        enclave_pipelined=rng.random() < 0.5,
    )


def config_text(config: GatewayConfig) -> str:
    return "".join(
        f"{key} = {str(value).lower() if isinstance(value, bool) else value}\n"
        for key, value in [
            ("camera.source", config.camera_source),
            ("camera.width", config.camera_width),
            ("camera.height", config.camera_height),
            ("camera.fps", config.camera_fps),
            ("mqtt.host", config.mqtt_host),
            ("mqtt.port", config.mqtt_port),
            ("mqtt.topic", config.mqtt_topic),
            ("mqtt.client_id", config.mqtt_client_id),
            ("credentials.path", config.credentials_path),
            ("enclave.pipelined", config.enclave_pipelined),
        ]
    )


def test_serialize_parse_round_trip():
    rng = random.Random(31337)
    for _ in range(300):
        config = random_config(rng)
        assert parse_config(config_text(config)) == config


def test_serialized_defaults_parse_back():
    assert parse_config(config_text(GatewayConfig())) == GatewayConfig()


# -- credentials ---------------------------------------------------------------


def independent_hex_decode(text: str) -> bytes:
    # Nibble-assembly oracle, deliberately not bytes.fromhex.
    digits = "0123456789abcdef"
    out = bytearray()
    for i in range(0, len(text), 2):
        hi = digits.index(text[i].lower())
        lo = digits.index(text[i + 1].lower())
        out.append((hi << 4) | lo)
    return bytes(out)


def test_full_length_credentials():
    hex_text = "00112233445566778899aabbccddeeff" * 2
    key = parse_credentials(hex_text)
    assert key == independent_hex_decode(hex_text)
    assert len(key) == 32


def test_incomplete_credentials():
    hex_text = "a1b2c3d4e5f60718293a4b5c6d7e8f90"
    key = parse_credentials(hex_text)
    assert key == independent_hex_decode(hex_text)
    assert len(key) == 16


def test_uppercase_hex_accepted():
    assert parse_credentials("DEADBEEF") == bytes.fromhex("deadbeef")


def test_empty_file_is_empty_key():
    assert parse_credentials("") == b""


def test_comment_only_file_is_empty_key():
    assert parse_credentials("# no key issued yet\n") == b""


def test_key_line_after_comments():
    assert parse_credentials("# issued 2024\n\nc0ffee00\n") == bytes.fromhex("c0ffee00")


@pytest.mark.parametrize("text", ["0xZZ", "abc", "xyz", "gg", "a" * 66])
def test_bad_credentials_rejected(text):
    with pytest.raises(CredentialsError):
        parse_credentials(text)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_credentials, "ab  cd"),
        (parse_credentials, "ab\tcd"),
        (parse_provisioning, " ".join(["ab"] * 32)),
    ],
    ids=["spaces", "tab", "provisioning-byte-pairs"],
)
def test_whitespace_inside_a_key_line_is_a_non_hex_character(parse, text):
    # bytes.fromhex skips spaces between byte pairs, so "ab  cd" read as 2 bytes.
    with pytest.raises(CredentialsError, match="^line 1: non-hex character in key$"):
        parse(text)


def test_random_credentials_never_exceed_32_bytes():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(0, 33)
        text = rng.randbytes(n).hex()
        key = parse_credentials(text)
        assert len(key) <= 32
        assert key == independent_hex_decode(text)


def test_candidate_key_rejects_oversize():
    with pytest.raises(CredentialsError, match="longer than 32 bytes"):
        parse_credentials(bytes(33).hex())


# -- provisioning ----------------------------------------------------------------


def test_provisioning_requires_full_length():
    image = parse_provisioning("ff" * 32)
    assert image == b"\xff" * 32
    with pytest.raises(CredentialsError):
        parse_provisioning("ff" * 31)
    with pytest.raises(CredentialsError):
        parse_provisioning("")
