"""Tests for the host-side authentication driver."""

import random
import statistics

import pytest

from streamgate import bench, driver
from streamgate.enclave import (
    CTRL_OFFSET,
    CTRL_START_BIT,
    AuthEnclave,
    DeviceBusyError,
    LatencyModel,
)
from streamgate.keystore import parse_credentials

SECRET = bytes(range(1, 33))


def test_correct_key_authorizes_in_34_cycles():
    enclave = AuthEnclave(SECRET)
    verdict = driver.authenticate(enclave, SECRET)
    assert verdict.authorized
    assert verdict.cycles == 34
    assert verdict.elapsed_ns == 340
    assert verdict.words_written == 8


def test_final_byte_mismatch_refused_same_latency():
    enclave = AuthEnclave(SECRET)
    wrong = SECRET[:31] + bytes([SECRET[31] ^ 1])
    verdict = driver.authenticate(enclave, wrong)
    assert not verdict.authorized
    assert verdict.cycles == 34


def test_empty_candidate_refused():
    enclave = AuthEnclave(SECRET)
    verdict = driver.authenticate(enclave, b"")
    assert not verdict.authorized
    assert verdict.words_written == 0


def test_unpipelined_mode_takes_64_cycles():
    enclave = AuthEnclave(SECRET, LatencyModel.unpipelined())
    verdict = driver.authenticate(enclave, SECRET)
    assert verdict.authorized
    assert verdict.cycles == 64
    assert verdict.elapsed_ns == 640


@pytest.mark.parametrize(
    "length,expected_words",
    [(0, 0), (1, 1), (4, 1), (5, 2), (31, 8), (32, 8)],
)
def test_words_written_counts_padded_partial(length, expected_words):
    enclave = AuthEnclave(SECRET)
    verdict = driver.authenticate(enclave, bytes(length))
    assert verdict.words_written == expected_words


def test_partial_word_zero_padded():
    # 5-byte candidate occupies two words, the second zero-padded; it
    # matches a secret shaped the same way.
    secret = b"\x11\x22\x33\x44\x55" + bytes(27)
    enclave = AuthEnclave(secret)
    verdict = driver.authenticate(enclave, b"\x11\x22\x33\x44\x55")
    assert verdict.authorized
    assert verdict.words_written == 2


def test_candidate_key_object_accepted():
    # What the credentials parser returns is what the driver takes.
    enclave = AuthEnclave(SECRET)
    assert driver.authenticate(enclave, parse_credentials(SECRET.hex())).authorized


def test_oversized_candidate_is_driver_fault():
    enclave = AuthEnclave(SECRET)
    with pytest.raises(driver.DriverFault):
        driver.authenticate(enclave, bytes(33))


def test_non_bytes_candidate_is_driver_fault():
    enclave = AuthEnclave(SECRET)
    with pytest.raises(driver.DriverFault):
        driver.authenticate(enclave, "deadbeef")


def test_busy_enclave_propagates_device_busy():
    enclave = AuthEnclave(SECRET)
    enclave.write_word(CTRL_OFFSET, CTRL_START_BIT)
    with pytest.raises(DeviceBusyError):
        driver.authenticate(enclave, SECRET)


def test_back_to_back_transactions_reuse_enclave():
    enclave = AuthEnclave(SECRET)
    assert driver.authenticate(enclave, SECRET).authorized
    assert not driver.authenticate(enclave, bytes(32)).authorized
    assert driver.authenticate(enclave, SECRET).authorized


# -- correctness across the candidate space ----------------------------------


def test_exhaustive_at_8_bit_width_via_driver():
    image = bytes([0xA7]) + bytes(31)
    enclave = AuthEnclave(image, _compare_bits=8)
    authorized = [
        c for c in range(256) if driver.authenticate(enclave, bytes([c])).authorized
    ]
    assert authorized == [0xA7]


def test_statistical_rejection_at_full_width():
    rng = random.Random(2024)
    secret = rng.randbytes(32)
    enclave = AuthEnclave(secret)
    assert driver.authenticate(enclave, secret).authorized
    for _ in range(10_000):
        candidate = rng.randbytes(32)
        if candidate == secret:
            continue
        assert not driver.authenticate(enclave, candidate).authorized


def test_verdict_timing_has_zero_variance():
    rng = random.Random(7)
    enclave = AuthEnclave(rng.randbytes(32))
    cycles = [
        driver.authenticate(enclave, rng.randbytes(rng.randrange(0, 33))).cycles
        for _ in range(200)
    ]
    assert statistics.pstdev(cycles) == 0.0


# -- attempt suites, tallied by bench through driver.authenticate --------------


def test_suite_counts_paper_layout():
    enclave = AuthEnclave(SECRET)
    suite = (
        [("correct", SECRET)] * 10
        + [("invalid", bytes([SECRET[0] ^ 4]) + SECRET[1:])] * 5
        + [("incomplete", SECRET[:k]) for k in (1, 3, 8, 15, 16, 24, 31)]
        + [("empty", b"")] * 4
        + [("wrong", bytes(reversed(SECRET)))] * 6
    )
    label_counts, successes, failures = bench.tally_suite(enclave, suite)
    assert successes == 10
    assert failures == 22
    assert successes + failures == 32
    assert label_counts == {
        "correct": 10,
        "invalid": 5,
        "incomplete": 7,
        "empty": 4,
        "wrong": 6,
    }


def test_empty_suite():
    enclave = AuthEnclave(SECRET)
    _, successes, failures = bench.tally_suite(enclave, [])
    assert successes == 0
    assert failures == 0


def test_correct_only_suite():
    enclave = AuthEnclave(SECRET)
    _, successes, failures = bench.tally_suite(enclave, [("correct", SECRET)] * 3)
    assert successes == 3
    assert failures == 0


def test_suite_totals_match_length():
    rng = random.Random(11)
    enclave = AuthEnclave(SECRET)
    labels = ["correct", "invalid", "incomplete", "empty", "wrong"]
    suite = [
        (rng.choice(labels), rng.randbytes(rng.randrange(0, 33))) for _ in range(64)
    ]
    _, successes, failures = bench.tally_suite(enclave, suite)
    assert successes + failures == len(suite)
