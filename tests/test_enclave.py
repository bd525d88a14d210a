"""Register-level tests of the authentication enclave."""

import gc
import random
import re
import types

import pytest

from streamgate.enclave import (
    CTRL_DONE_BIT,
    CTRL_IDLE_BIT,
    CTRL_OFFSET,
    CTRL_START_BIT,
    KEY_WORD_OFFSETS,
    RESULT_OFFSET,
    AuthEnclave,
    BusError,
    DeviceBusyError,
    LatencyModel,
    ProvisioningError,
    key_bytes_to_words,
)

SECRET = bytes(range(32))


def start(enclave):
    enclave.write_word(CTRL_OFFSET, CTRL_START_BIT)


def load_candidate(enclave, candidate: bytes):
    for i, word in enumerate(key_bytes_to_words(candidate)):
        enclave.write_word(KEY_WORD_OFFSETS[i], word)


def run_transaction(enclave, candidate: bytes) -> int:
    load_candidate(enclave, candidate)
    start(enclave)
    enclave.step(enclave.model.latency_cycles)
    return enclave.read_word(RESULT_OFFSET)


# -- provisioning -----------------------------------------------------------


def test_provision_pipelined_latency():
    enclave = AuthEnclave(SECRET, LatencyModel.pipelined())
    assert enclave.model.latency_cycles == 34
    assert enclave.read_word(CTRL_OFFSET) & CTRL_IDLE_BIT


def test_provision_unpipelined_latency():
    enclave = AuthEnclave(SECRET, LatencyModel.unpipelined())
    assert enclave.model.latency_cycles == 64


def test_provision_defaults_to_pipelined():
    assert AuthEnclave(SECRET).model.mode == "pipelined"


def test_provision_rejects_short_image():
    with pytest.raises(ProvisioningError):
        AuthEnclave(bytes(31))


def test_provision_rejects_long_image():
    with pytest.raises(ProvisioningError):
        AuthEnclave(bytes(33))


def test_provision_rejects_non_bytes():
    with pytest.raises(ProvisioningError):
        AuthEnclave("not bytes")  # type: ignore[arg-type]


# -- register map -----------------------------------------------------------


def test_ctrl_reads_idle_after_reset():
    enclave = AuthEnclave(SECRET)
    word = enclave.read_word(CTRL_OFFSET)
    assert word & CTRL_IDLE_BIT
    assert not word & CTRL_DONE_BIT


def test_start_clears_idle_and_done():
    enclave = AuthEnclave(SECRET)
    start(enclave)
    word = enclave.read_word(CTRL_OFFSET)
    assert not word & CTRL_IDLE_BIT
    assert not word & CTRL_DONE_BIT


def test_repr_names_the_handshake_state():
    enclave = AuthEnclave(SECRET)
    states = [repr(enclave)]
    start(enclave)
    states.append(repr(enclave))
    enclave.step(enclave.model.latency_cycles)
    states.append(repr(enclave))
    enclave.read_word(RESULT_OFFSET)
    states.append(repr(enclave))
    names = [re.search(r"state='(\w+)'", text).group(1) for text in states]
    assert names == ["idle", "busy", "done", "idle"]


def test_result_register_is_read_only():
    enclave = AuthEnclave(SECRET)
    with pytest.raises(BusError):
        enclave.write_word(RESULT_OFFSET, 1)


def test_key_ports_are_write_only():
    enclave = AuthEnclave(SECRET)
    with pytest.raises(BusError):
        enclave.read_word(KEY_WORD_OFFSETS[1])


@pytest.mark.parametrize("addr", [0x004, 0x07C, 0x0A0, 0x104, 0x081, 0xFFFF])
def test_unmapped_offsets_bus_error(addr):
    enclave = AuthEnclave(SECRET)
    with pytest.raises(BusError):
        enclave.write_word(addr, 0)
    with pytest.raises(BusError):
        enclave.read_word(addr)


def test_write_value_must_fit_32_bits():
    enclave = AuthEnclave(SECRET)
    with pytest.raises(ValueError):
        enclave.write_word(KEY_WORD_OFFSETS[0], 1 << 32)
    with pytest.raises(ValueError):
        enclave.write_word(KEY_WORD_OFFSETS[0], -1)


def test_write_while_busy_is_device_busy():
    enclave = AuthEnclave(SECRET)
    start(enclave)
    with pytest.raises(DeviceBusyError):
        enclave.write_word(KEY_WORD_OFFSETS[0], 7)
    with pytest.raises(DeviceBusyError):
        enclave.write_word(CTRL_OFFSET, CTRL_START_BIT)


def test_write_while_done_unread_is_device_busy():
    enclave = AuthEnclave(SECRET)
    start(enclave)
    enclave.step(enclave.model.latency_cycles)
    with pytest.raises(DeviceBusyError):
        enclave.write_word(KEY_WORD_OFFSETS[0], 7)


# -- handshake timing -------------------------------------------------------


def test_done_not_set_one_cycle_early():
    enclave = AuthEnclave(SECRET)
    start(enclave)
    enclave.step(33)
    assert not enclave.read_word(CTRL_OFFSET) & CTRL_DONE_BIT
    enclave.step(1)
    assert enclave.read_word(CTRL_OFFSET) & CTRL_DONE_BIT


def test_unpipelined_takes_64_cycles():
    enclave = AuthEnclave(SECRET, LatencyModel.unpipelined())
    start(enclave)
    enclave.step(63)
    assert not enclave.read_word(CTRL_OFFSET) & CTRL_DONE_BIT
    enclave.step(1)
    assert enclave.read_word(CTRL_OFFSET) & CTRL_DONE_BIT


def test_step_zero_changes_nothing():
    enclave = AuthEnclave(SECRET)
    start(enclave)
    def state():
        return (
            enclave.cycle_counter,
            enclave.busy_until,
            enclave.read_word(CTRL_OFFSET),  # the DONE and IDLE bits
        )

    before = state()
    enclave.step(0)
    assert state() == before


def test_step_rejects_negative():
    enclave = AuthEnclave(SECRET)
    with pytest.raises(ValueError):
        enclave.step(-1)


# -- comparison semantics ---------------------------------------------------


def test_matching_candidate_authorizes():
    enclave = AuthEnclave(SECRET)
    assert run_transaction(enclave, SECRET) & 1 == 1


def test_mismatching_candidate_refused():
    enclave = AuthEnclave(SECRET)
    wrong = bytes([SECRET[0] ^ 1]) + SECRET[1:]
    assert run_transaction(enclave, wrong) & 1 == 0


def test_mismatch_in_final_byte_refused():
    enclave = AuthEnclave(SECRET)
    wrong = SECRET[:31] + bytes([SECRET[31] ^ 0x80])
    assert run_transaction(enclave, wrong) & 1 == 0


def test_key_words_little_endian_layout():
    # Verified behaviorally: word i must hold bytes 4i..4i+3 of the key,
    # least significant byte first.
    enclave = AuthEnclave(SECRET)
    for i in range(8):
        expected = int.from_bytes(SECRET[4 * i : 4 * i + 4], "little")
        enclave.write_word(KEY_WORD_OFFSETS[i], expected)
    start(enclave)
    enclave.step(34)
    assert enclave.read_word(RESULT_OFFSET) & 1 == 1


def test_result_read_resets_to_idle_and_clears_keys():
    enclave = AuthEnclave(SECRET)
    assert run_transaction(enclave, SECRET) & 1 == 1
    word = enclave.read_word(CTRL_OFFSET)
    assert word & CTRL_IDLE_BIT and not word & CTRL_DONE_BIT
    # Key words were zeroed: an immediate re-run without reloading them
    # compares all-zero against a nonzero secret.
    start(enclave)
    enclave.step(34)
    assert enclave.read_word(RESULT_OFFSET) & 1 == 0


def test_result_reads_zero_once_consumed():
    enclave = AuthEnclave(SECRET)
    assert run_transaction(enclave, SECRET) & 1 == 1
    assert enclave.read_word(RESULT_OFFSET) == 0


def test_unwritten_words_compare_as_zero():
    # A partial key authenticates only against a secret with a zero tail.
    secret = b"\xaa\xbb\xcc\xdd" + bytes(28)
    enclave = AuthEnclave(secret)
    load_candidate(enclave, b"\xaa\xbb\xcc\xdd")
    start(enclave)
    enclave.step(34)
    assert enclave.read_word(RESULT_OFFSET) & 1 == 1


# -- constant latency -------------------------------------------------------


def cycles_to_done(enclave, candidate: bytes) -> int:
    load_candidate(enclave, candidate)
    start(enclave)
    cycles = 0
    while not enclave.read_word(CTRL_OFFSET) & CTRL_DONE_BIT:
        enclave.step(1)
        cycles += 1
    enclave.read_word(RESULT_OFFSET)
    return cycles


def test_latency_is_candidate_independent():
    rng = random.Random(0xC0FFEE)
    secret = rng.randbytes(32)
    enclave = AuthEnclave(secret)
    mismatch_word0 = bytes([secret[0] ^ 0xFF]) + secret[1:]
    mismatch_word7 = secret[:28] + bytes(b ^ 0xFF for b in secret[28:])
    candidates = [secret, mismatch_word0, mismatch_word7]
    candidates += [rng.randbytes(32) for _ in range(1000)]
    observed = {cycles_to_done(enclave, c) for c in candidates}
    assert observed == {34}


# -- exhaustive oracle at reduced width --------------------------------------


def test_reduced_width_brute_force_exact_hit():
    # 8-bit hook here for speed; the 16-bit sweep runs in the acceptance
    # suite. Oracle: plain enumeration of the whole candidate space.
    true_key = 0x5A
    image = bytes([true_key]) + bytes(31)
    enclave = AuthEnclave(image, _compare_bits=8)
    hits = []
    for candidate in range(256):
        enclave.write_word(KEY_WORD_OFFSETS[0], candidate)
        start(enclave)
        enclave.step(34)
        if enclave.read_word(RESULT_OFFSET) & 1:
            hits.append(candidate)
    assert hits == [true_key]


def test_compare_bits_hook_bounds():
    with pytest.raises(ProvisioningError):
        AuthEnclave(SECRET, _compare_bits=0)
    with pytest.raises(ProvisioningError):
        AuthEnclave(SECRET, _compare_bits=257)


# -- secret opacity ----------------------------------------------------------


def secret_windows(secret: bytes):
    return [secret[i : i + 4] for i in range(len(secret) - 3)]


def test_no_secret_bytes_escape_randomized_transactions():
    rng = random.Random(0xDEAD)
    for _ in range(50):
        secret = rng.randbytes(32)
        enclave = AuthEnclave(secret)
        observed = bytearray()
        candidates = []
        for _ in range(rng.randrange(3, 12)):
            candidate = rng.randbytes(rng.randrange(0, 33))
            candidates.append(candidate)
            load_candidate(enclave, candidate)
            observed += enclave.read_word(CTRL_OFFSET).to_bytes(4, "little")
            start(enclave)
            steps = rng.randrange(0, 10)
            enclave.step(steps)
            observed += enclave.read_word(CTRL_OFFSET).to_bytes(4, "little")
            enclave.step(enclave.model.latency_cycles - steps)
            observed += enclave.read_word(RESULT_OFFSET).to_bytes(4, "little")
        repr_text = repr(enclave)
        blob = bytes(observed) + repr_text.encode()
        for window in secret_windows(secret):
            if any(window in c for c in candidates):  # measure-zero carve-out
                continue
            assert window not in blob
            assert window.hex() not in repr_text


def test_instance_dict_holds_no_secret():
    enclave = AuthEnclave(SECRET)
    state = repr(vars(enclave))
    for window in secret_windows(SECRET):
        assert window.hex() not in state


def reachable_objects(*roots):
    """Objects reachable from ``roots`` through referents, closure cells
    and instance dicts; module globals, modules and classes are not
    followed, since from there everything in the interpreter is."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (types.ModuleType, type)):
            continue
        seen.add(id(obj))
        found.append(obj)
        refs = list(gc.get_referents(obj))
        if isinstance(obj, types.FunctionType):
            refs += [cell.cell_contents for cell in obj.__closure__ or ()]
            skip = {id(obj.__globals__), id(obj.__builtins__)}
            refs = [r for r in refs if id(r) not in skip]
        if hasattr(obj, "__dict__"):
            refs.append(vars(obj))
        stack.extend(refs)
    return found


def test_secret_unreachable_from_enclave_object_graph():
    secret = random.Random(0x5EC).randbytes(32)
    enclave = AuthEnclave(secret)
    assert run_transaction(enclave, secret) == 1
    value = int.from_bytes(secret, "little")
    objects = reachable_objects(enclave, enclave._compare)
    assert any(isinstance(o, types.CellType) for o in objects)  # closures were walked
    for obj in objects:
        if isinstance(obj, int):
            assert obj != value
        elif isinstance(obj, (bytes, bytearray)):
            for i in range(len(secret) - 7):
                assert secret[i : i + 8] not in obj
