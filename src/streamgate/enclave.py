"""Cycle-stepped emulation of the authentication IP core.

The enclave models a register-mapped hardware block holding a 256-bit
secret. The host talks to it exactly the way a processing system talks
to a memory-mapped core: 32-bit word reads and writes at fixed offsets,
a block-level START/DONE/IDLE handshake in the control word, and a
clock that only advances when :meth:`AuthEnclave.step` is called.

Register map (word-aligned offsets):

    0x000   CTRL    write: bit0 = START (begins a comparison while IDLE)
                    read:  bit1 = DONE, bit2 = IDLE
    0x080 - 0x09C   KEY[0..7]   write-only candidate key words,
                    little-endian 4-byte chunks of the 32-byte key
    0x100   RESULT  read-only; bit0 = authentication valid, meaningful
                    only while DONE is set; reading it while DONE
                    completes the transaction (read-to-clear) and
                    zeroes the key words

Everything else is unmapped and raises :class:`BusError`. The key words
are write-only: reading them is a bus error, one leg of the guarantee
that no key material ever crosses the register boundary. The other leg
is that the provisioned secret is reduced at construction time to a
salted SHA-256 digest held in the comparison closure; neither the
secret's bytes nor its integer value are kept, so no attribute walk,
closure walk or repr can reach it.

The comparison itself takes a fixed number of clock cycles, identical
for every candidate (the loop is fully pipelined in the modeled core,
or not, per :class:`LatencyModel`), so completion time carries no
information about how much of the key matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "AuthEnclave",
    "BusError",
    "DeviceBusyError",
    "EnclaveError",
    "LatencyModel",
    "ProvisioningError",
    "CTRL_OFFSET",
    "KEY_WORD_OFFSETS",
    "RESULT_OFFSET",
    "KEY_BYTES",
    "KEY_WORDS",
    "key_bytes_to_words",
]

KEY_BYTES = 32
KEY_WORDS = 8
WORD_MASK = 0xFFFFFFFF

CTRL_OFFSET = 0x000
KEY_BASE_OFFSET = 0x080
KEY_WORD_OFFSETS = tuple(KEY_BASE_OFFSET + 4 * i for i in range(KEY_WORDS))
RESULT_OFFSET = 0x100

CTRL_START_BIT = 1 << 0
CTRL_DONE_BIT = 1 << 1
CTRL_IDLE_BIT = 1 << 2


class EnclaveError(Exception):
    """Base class for enclave faults."""


class ProvisioningError(EnclaveError):
    """The provisioning image is not a valid 32-byte secret."""


class BusError(EnclaveError):
    """Access to an unmapped, write-only, or read-only offset."""


class DeviceBusyError(EnclaveError):
    """Register write attempted while a transaction is outstanding."""


@dataclass(frozen=True)
class LatencyModel:
    """Fixed comparison latency of the modeled core.

    ``latency_cycles`` is identical for every candidate key: the compare
    loop runs to the end regardless of where (or whether) a mismatch
    occurs. The pipelined core overlaps loop iterations and finishes in
    34 cycles; without pipelining it takes 64.

    Synthesis estimates the core's clock at 2.88 ns +/- 1.25 ns, but all
    elapsed-time arithmetic uses the 10 ns target clock, which is what
    the 0.34 us pipelined figure is quoted against.
    """

    mode: str
    latency_cycles: int

    CLOCK_PERIOD_NS = 10
    PIPELINED_CYCLES = 34
    UNPIPELINED_CYCLES = 64

    @classmethod
    def pipelined(cls) -> "LatencyModel":
        return cls(mode="pipelined", latency_cycles=cls.PIPELINED_CYCLES)

    @classmethod
    def unpipelined(cls) -> "LatencyModel":
        return cls(mode="unpipelined", latency_cycles=cls.UNPIPELINED_CYCLES)


def key_bytes_to_words(data: bytes) -> list[int]:
    """Pack up to 32 key bytes into little-endian 32-bit words.

    A trailing partial word is zero-padded. Only the words actually
    covered by ``data`` are returned; unwritten registers keep their
    reset value of zero, which is what an incomplete key compares as.
    """
    if len(data) > KEY_BYTES:
        raise ValueError(f"key material longer than {KEY_BYTES} bytes: {len(data)}")
    words = []
    for i in range(0, len(data), 4):
        chunk = data[i : i + 4]
        words.append(int.from_bytes(chunk.ljust(4, b"\x00"), "little"))
    return words


def _make_comparator(image: bytes, compare_bits: int) -> Callable[[list[int]], bool]:
    # Only a salted digest of the masked secret is kept: neither the
    # secret's bytes nor its integer value stay reachable from the
    # closure, so no attribute, closure-cell or referent walk finds them.
    # The hash modules are imported here because a broker process
    # imports this package without ever provisioning an enclave, and
    # loading them (OpenSSL's libcrypto) adds about 10 ms to its start.
    import hashlib
    import hmac
    import secrets

    mask = (1 << compare_bits) - 1
    salt = secrets.token_bytes(32)

    def digest(value: int) -> bytes:
        return hashlib.sha256(salt + (value & mask).to_bytes(KEY_BYTES, "little")).digest()

    expected = digest(int.from_bytes(image, "little"))

    def compare(words: list[int]) -> bool:
        candidate = 0
        for i, w in enumerate(words):
            candidate |= (w & WORD_MASK) << (32 * i)
        # Full-width digest compared in constant time: no early exit on
        # the first mismatching word.
        return hmac.compare_digest(digest(candidate), expected)

    return compare


class AuthEnclave:
    """Register-level model of the authentication core.

    The constructor provisions the device: the 32-byte secret image is
    folded into a salted digest inside a comparison closure and
    discarded. After that, the only observable outputs are the
    handshake bits and the single result bit.

    ``_compare_bits`` is a test hook that narrows the comparison to the
    low N bits of key word 0 (the production width is the full 256).
    It exists so an exhaustive oracle can sweep the whole candidate
    space; shipped callers must not pass it.
    """

    def __init__(
        self,
        image: bytes,
        model: Optional[LatencyModel] = None,
        *,
        _compare_bits: int = 8 * KEY_BYTES,
    ):
        if not isinstance(image, (bytes, bytearray)):
            raise ProvisioningError("secret image must be bytes")
        if len(image) != KEY_BYTES:
            raise ProvisioningError(
                f"secret image must be exactly {KEY_BYTES} bytes, got {len(image)}"
            )
        if not 1 <= _compare_bits <= 8 * KEY_BYTES:
            raise ProvisioningError(f"bad comparison width: {_compare_bits}")
        self.model = model if model is not None else LatencyModel.pipelined()
        self._compare = _make_comparator(bytes(image), _compare_bits)
        self.cycle_counter = 0
        self.busy_until: Optional[int] = None
        self._key_words = [0] * KEY_WORDS
        self._done = False
        self._result = 0

    # -- handshake state ---------------------------------------------------

    @property
    def idle(self) -> bool:
        return self.busy_until is None and not self._done

    # -- register access ---------------------------------------------------

    def write_word(self, addr: int, value: int) -> None:
        """32-bit register write.

        Only the control word and the key words are writable, and only
        while the device is IDLE: a write during an in-flight comparison
        or before a completed result has been read is a device-busy
        fault, which is how externally unserialized access shows up.
        """
        if not 0 <= value <= WORD_MASK:
            raise ValueError(f"register value out of 32-bit range: {value:#x}")
        if addr == RESULT_OFFSET:
            raise BusError(f"offset {addr:#05x} is read-only")
        if addr != CTRL_OFFSET and addr not in KEY_WORD_OFFSETS:
            raise BusError(f"offset {addr:#05x} is unmapped")
        if not self.idle:
            raise DeviceBusyError("write while transaction outstanding")
        if addr == CTRL_OFFSET:
            if value & CTRL_START_BIT:
                self._result = 0
                self.busy_until = self.cycle_counter + self.model.latency_cycles
        else:
            self._key_words[(addr - KEY_BASE_OFFSET) // 4] = value

    def read_word(self, addr: int) -> int:
        """32-bit register read.

        Reading RESULT while DONE is set completes the transaction:
        DONE clears, the key words reset to zero, and the device returns
        to IDLE. Key word offsets are write-only and always bus-error.
        """
        if addr == CTRL_OFFSET:
            word = 0
            if self._done:
                word |= CTRL_DONE_BIT
            if self.idle:
                word |= CTRL_IDLE_BIT
            return word
        if addr == RESULT_OFFSET:
            value = self._result
            if self._done:
                self._done = False
                self._result = 0
                self._key_words = [0] * KEY_WORDS
            return value
        if addr in KEY_WORD_OFFSETS:
            raise BusError(f"key port {addr:#05x} is write-only")
        raise BusError(f"offset {addr:#05x} is unmapped")

    # -- clock -------------------------------------------------------------

    def step(self, cycles: int = 1) -> None:
        """Advance the clock; complete the comparison when it is due."""
        if cycles < 0:
            raise ValueError("cannot step a negative cycle count")
        self.cycle_counter += cycles
        if self.busy_until is not None and self.cycle_counter >= self.busy_until:
            self._result = 1 if self._compare(self._key_words) else 0
            self.busy_until = None
            self._done = True

    def __repr__(self) -> str:
        state = "busy" if self.busy_until is not None else ("done" if self._done else "idle")
        return (
            f"AuthEnclave(mode={self.model.mode!r}, state={state!r}, "
            f"cycles={self.cycle_counter})"
        )

