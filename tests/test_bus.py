"""The bus protocol, property by property.

Each test runs one small script through the every-edge reference and
through the simulator, asserts that their traces and state agree, and
asserts the property on the reference's trace and memory.
"""

import random

import pytest

from regforge import build_sim
from regforge.sim import (
    CONFIG_CHANGED,
    READY_CHANGED,
    VALUE_SAMPLED,
    VIOLATION,
    WRITE_ACCEPTED,
    WRITE_ISSUED,
    BusyWindow,
    ProgramScript,
    ScriptWrite,
)
from regforge.spec import address_map

from bus_oracle import EdgeReference
from conftest import make_spec
from test_sim import CFG, fold_oracle, random_script
from test_sim_reference import assert_agrees


def run_script(spec, script, until, **options):
    """The reference after ``script``, once the simulator has agreed with it."""
    ref = EdgeReference(spec, **options).run(script, until)
    assert_agrees(build_sim(spec, **options).run(script, until), ref)
    return ref


def run(spec, until, writes=(), windows=(), **options):
    script = ProgramScript(tuple(ScriptWrite(*w) for w in writes), tuple(windows))
    return run_script(spec, script, until, **options)


def events(ref, kind):
    return [(e.time_ps, e.slave, e.addr, e.data) for e in ref.trace if e.kind == kind]


# Every slave leaves reset at the first configuration edge (10,000 ps, cycle
# 0) with ready high, so a write due at cycle 1 or later is accepted on the
# edge it is issued, at (cycle + 1) * CFG.


def test_decode_inside_range():
    ref = run(make_spec(n_slaves=3, regs_per_slave=4), 4 * CFG, [(1, 9, 5)])
    # slave2's base is 8, so address 9 is its offset 1
    assert events(ref, WRITE_ISSUED) == events(ref, WRITE_ACCEPTED) == [(2 * CFG, "slave2", 9, 5)]
    assert ref.mem[2] == {0: 0, 1: 5, 2: 0, 3: 0}


def test_decode_above_all_ranges():
    ref = run(make_spec(n_slaves=3, regs_per_slave=4), 4 * CFG, [(1, 200, 1)])
    assert [(e.kind, e.slave, e.addr, e.detail) for e in ref.trace if e.time_ps == 2 * CFG] == [
        (WRITE_ISSUED, "", 200, ""), (VIOLATION, "", 200, "decode_no_match")]
    assert events(ref, WRITE_ACCEPTED) == []
    assert ref.mem == [{0: 0, 1: 0, 2: 0, 3: 0}] * 3


def test_no_match_is_logged_not_raised():
    # the miss uses its edge; the next write is issued on the one after
    ref = run(make_spec(n_slaves=1, regs_per_slave=2), 5 * CFG, [(1, 99, 1), (1, 1, 2)])
    assert [e.detail for e in ref.trace if e.kind == VIOLATION] == ["decode_no_match"]
    assert events(ref, WRITE_ACCEPTED) == [(3 * CFG, "slave0", 1, 2)]
    assert ref.mem == [{0: 0, 1: 2}]


def test_decode_bijection_over_address_map():
    spec = make_spec(n_slaves=4, regs_per_slave=8)
    entries = address_map(spec)
    writes = [(n, e.address, n) for n, e in enumerate(entries, 1)]
    ref = run(spec, (len(entries) + 3) * CFG, writes)
    landed = {(sidx, offset): value
              for sidx, words in enumerate(ref.mem) for offset, value in words.items()}
    assert sorted(landed.values()) == list(range(1, len(entries) + 1))
    for n, e in enumerate(entries, 1):
        sidx = ref.names.index(e.slave)
        assert landed[(sidx, e.address - spec.slaves[sidx].base_addr)] == n


def test_ready_at_issue_accepts_same_cycle():
    ref = run(make_spec(n_slaves=2, regs_per_slave=4), 5 * CFG, [(2, 1, 7)])
    assert events(ref, READY_CHANGED)[0] == (CFG, "slave0", None, 1)
    assert events(ref, WRITE_ISSUED) == events(ref, WRITE_ACCEPTED) == [(3 * CFG, "slave0", 1, 7)]


# slave0 is busy from 20,000 to 70,000 ps, so through its 2-stage chain its
# ready falls at the edge at 40,000 ps and rises at the one at 90,000 ps.  A
# write due at cycle 4 (50,000 ps) is held on the five edges that see ready
# low, the one at 90,000 ps included.
HELD = dict(writes=[(4, 1, 0x5A)], windows=[BusyWindow("slave0", 2 * CFG, 7 * CFG)])


def test_ready_low_five_cycles_then_high():
    ref = run(make_spec(n_slaves=2, regs_per_slave=4), 12 * CFG, **HELD)
    assert [(t, data) for t, slave, _, data in events(ref, READY_CHANGED)
            if slave == "slave0"] == [(CFG, 1), (4 * CFG, 0), (9 * CFG, 1)]
    assert events(ref, WRITE_ISSUED) == [(5 * CFG, "slave0", 1, 0x5A)]
    assert events(ref, WRITE_ACCEPTED) == [(10 * CFG, "slave0", 1, 0x5A)]


def test_write_while_gate_closed_leaves_memory():
    spec = make_spec(n_slaves=2, regs_per_slave=4)
    for edge in range(5, 10):
        ref = run(spec, edge * CFG, **HELD)
        assert ref.current == (1, 0x5A, 0) and ref.mem[0][1] == 0
    assert {data for *_, data in events(ref, VALUE_SAMPLED)} == {0}
    assert run(spec, 10 * CFG, **HELD).mem[0] == {0: 0, 1: 0x5A, 2: 0, 3: 0}


def test_queued_writes_accept_in_issue_order():
    # the first write is held on slave0's closed gate, and the three behind
    # it, though due, wait for it
    spec = make_spec(n_slaves=2, regs_per_slave=4)
    writes = [(3, 0, 1), (3, 4, 2), (3, 1, 3), (3, 5, 4)]
    ref = run(spec, 12 * CFG, writes, [BusyWindow("slave0", CFG, 4 * CFG)])
    accepted = events(ref, WRITE_ACCEPTED)
    assert [(t, addr, data) for t, _, addr, data in accepted] == [
        (7 * CFG, 0, 1), (8 * CFG, 4, 2), (9 * CFG, 1, 3), (10 * CFG, 5, 4)]
    assert [(addr, data) for _, _, addr, data in events(ref, WRITE_ISSUED)] == [
        (addr, data) for _, addr, data in writes]


def test_timeout_drops_transaction():
    # slave0 is busy throughout: its ready is high only from the edge at
    # 10,000 ps to the one at 30,000 ps, and the write due at 40,000 ps is
    # held until it times out
    spec = make_spec(n_slaves=1, regs_per_slave=2)
    ref = run(spec, 10 * CFG, [(3, 0, 9)], [BusyWindow("slave0", 0, 100 * CFG)],
              timeout_cycles=3)
    assert [(e.time_ps, e.detail) for e in ref.trace if e.kind == VIOLATION] == [
        (7 * CFG, "timeout")]
    assert ref.timed_out and ref.current is None
    assert events(ref, WRITE_ACCEPTED) == []
    assert ref.mem == [{0: 0, 1: 0}]


def test_write_while_gate_open_updates_one_word():
    ref = run(make_spec(n_slaves=2, regs_per_slave=2), 4 * CFG, [(1, 1, 0xDEAD)])
    assert ref.mem == [{0: 0, 1: 0xDEAD}, {0: 0, 1: 0}]


def test_data_truncated_to_register_width():
    ref = run(make_spec(n_slaves=1, regs_per_slave=1, width=8), 4 * CFG, [(1, 0, 0x1FF)])
    assert events(ref, WRITE_ACCEPTED) == [(2 * CFG, "slave0", 0, 0x1FF)]
    assert events(ref, CONFIG_CHANGED) == [(2 * CFG, "slave0", 0, 0xFF)]
    assert ref.mem == [{0: 0xFF}]


@pytest.mark.parametrize("sync_length", [1, 2, 3, 4])
def test_ready_falls_sync_length_edges_after_busy(sync_length):
    # ready falls L configuration edges after the first edge that sees
    # busy, and rises L edges after the first that sees it gone
    spec = make_spec(n_slaves=1, regs_per_slave=1, sync_length=sync_length)
    lag = sync_length * CFG
    ref = run(spec, 200_000 + lag, windows=[BusyWindow("slave0", 50_000, 150_000)])
    assert [(t, data) for t, *_, data in events(ref, READY_CHANGED)] == [
        (CFG, 1), (50_000 + lag, 0), (150_000 + lag, 1)]


def test_random_steps_match_reference_fold():
    spec = make_spec(n_slaves=3, regs_per_slave=3, width=12)
    script, until = random_script(spec, random.Random(99), 200, n_windows=6)
    ref = run_script(spec, script, until)
    issued, accepted = events(ref, WRITE_ISSUED), events(ref, WRITE_ACCEPTED)
    assert len(accepted) == 200
    assert any(a[0] > i[0] for i, a in zip(issued, accepted))  # some writes were held
    mem = {(name, s.base_addr + offset): value
           for name, s, words in zip(ref.names, spec.slaves, ref.mem)
           for offset, value in words.items()}
    assert mem == fold_oracle(spec, ref.trace)
