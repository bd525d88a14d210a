"""Host-side authentication service for the enclave.

Performs the full register transaction a host would: load the candidate
key into the key ports four bytes at a time, raise START, step the
clock one cycle at a time until DONE, then read the one-bit verdict
from the result port. The driver never sees key material coming back;
all it gets is handshake bits and the final boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enclave import (
    CTRL_DONE_BIT,
    CTRL_OFFSET,
    CTRL_START_BIT,
    KEY_BYTES,
    KEY_WORD_OFFSETS,
    RESULT_OFFSET,
    AuthEnclave,
    BusError,
    key_bytes_to_words,
)

__all__ = ["AuthVerdict", "DriverFault", "authenticate"]


class DriverFault(Exception):
    """A register transaction failed underneath the driver."""


@dataclass(frozen=True)
class AuthVerdict:
    """Outcome of one authentication transaction.

    ``cycles`` is the START-to-DONE distance observed by polling, which
    equals the enclave's fixed latency for every candidate; ``elapsed_ns``
    is that count times the clock period.
    """

    authorized: bool
    cycles: int
    elapsed_ns: int
    words_written: int


def _candidate_bytes(candidate) -> bytes:
    if not isinstance(candidate, (bytes, bytearray)):
        raise DriverFault(f"candidate must be bytes, got {type(candidate).__name__}")
    if len(candidate) > KEY_BYTES:
        raise DriverFault(f"candidate longer than {KEY_BYTES} bytes: {len(candidate)}")
    return bytes(candidate)


def authenticate(enclave: AuthEnclave, candidate) -> AuthVerdict:
    """Run one full authentication transaction against the enclave.

    The candidate may be 0 to 32 bytes; only the words it covers are
    written (a trailing partial word is zero-padded), so a short key is
    compared against the secret with the unwritten registers at their
    reset value of zero.
    """
    data = _candidate_bytes(candidate)
    words = key_bytes_to_words(data)
    try:
        for i, word in enumerate(words):
            enclave.write_word(KEY_WORD_OFFSETS[i], word)
        enclave.write_word(CTRL_OFFSET, CTRL_START_BIT)
        cycles = 0
        while not enclave.read_word(CTRL_OFFSET) & CTRL_DONE_BIT:
            enclave.step(1)
            cycles += 1
        result = enclave.read_word(RESULT_OFFSET)
    except BusError as exc:
        raise DriverFault(f"bus fault during transaction: {exc}") from exc
    return AuthVerdict(
        authorized=bool(result & 1),
        cycles=cycles,
        elapsed_ns=cycles * enclave.model.CLOCK_PERIOD_NS,
        words_written=len(words),
    )

