"""Golden trace and state hashes for a fixed simulation corpus.

Each case builds a simulation, runs one or more scripts through it and
records the sha256 of its trace CSV, the sha256 of its violation details
(which the CSV does not carry) and its ``state_hash()``.  The recorded
values in ``golden/sim_hashes.json`` pin the simulator's observable
behaviour: any change to event order, timing or final state fails here.
The same traces pin ``check_coherence``: its violations must equal, in
order, those of the attribute-reading scan it replaced, kept below.

Regenerate (only when a change is meant to alter simulator output) with

    PYTHONPATH=src python tests/test_sim_golden.py
"""

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from regforge import build_sim, parse_spec
from regforge.sim import (
    CONFIG_CHANGED,
    READY_CHANGED,
    VALUE_SAMPLED,
    BusyWindow,
    CoherenceViolation,
    ProgramScript,
    ScriptWrite,
    SwapRequest,
    check_coherence,
    trace_to_csv,
)
from regforge.spec import SettingSpec, address_map

from conftest import make_spec, make_spec_doc
from test_sim import random_script

GOLDEN = Path(__file__).parent / "golden" / "sim_hashes.json"
CFG = 10_000

C06_SPECS = (
    dict(n_slaves=2, regs_per_slave=8, periods=(10_000, 7_000)),
    dict(n_slaves=3, regs_per_slave=4, periods=(10_000, 7_000, 3_000)),
    dict(n_slaves=4, regs_per_slave=8, periods=(10_000, 4_000)),
)


def _spread_spec(sync_length=2):
    """Slaves spread over all three domains, including the config domain."""
    doc = make_spec_doc(n_slaves=4, regs_per_slave=3, periods=(10_000, 7_000, 3_000),
                        sync_length=sync_length)
    for k, slave in enumerate(doc["slaves"]):
        slave["clock_domain"] = f"clk{k % 3}"
    return parse_spec(json.dumps(doc))


def _regs(n, width=16, reset=0):
    return tuple(SettingSpec(f"n{j}", j, width, reset_value=reset + j) for j in range(n))


def _c06(i):
    rng = random.Random(0xC0FFEE + i)
    spec = make_spec(**C06_SPECS[i % len(C06_SPECS)])
    script, until = random_script(spec, rng, rng.randrange(20, 400),
                                  n_windows=rng.randrange(0, 6))
    return build_sim(spec).run(script, until)


def _global(topology, i):
    rng = random.Random(0x610 + i)
    spec = make_spec(n_slaves=3, regs_per_slave=4, topology=topology, global_depth=16,
                     global_width=32, periods=(10_000, 7_000))
    script, until = random_script(spec, rng, 150, n_windows=4)
    script = ProgramScript(script.writes, script.busy_windows,
                           (SwapRequest(until // 2 + 1, "slave1", _regs(2)),))
    return build_sim(spec).run(script, until)


def _global_sparse(topology):
    spec = make_spec(n_slaves=3, regs_per_slave=4, topology=topology, global_depth=16,
                     global_width=32, periods=(10_000, 7_000, 3_000))
    script = ProgramScript(
        writes=(ScriptWrite(3, 1, 0xAB), ScriptWrite(9_000, 6, 0xCD),
                ScriptWrite(9_000, 9, 0xEF), ScriptWrite(40_000, 2, 7)),
        busy_windows=(BusyWindow("slave0", 50_000, 250_000),
                      BusyWindow("slave2", 90_000_001, 90_123_457)),
    )
    return build_sim(spec).run(script, 50_000 * CFG)


def _fault(i):
    rng = random.Random(0xFA117 + i)
    spec = make_spec(n_slaves=2, regs_per_slave=4, periods=(10_000, 3_000))
    w0 = rng.randrange(3, 40)
    span = rng.randrange(8, 20)
    slave = spec.slaves[i % 2]
    writes = [ScriptWrite(w0 + 4 + rng.randrange(0, span - 6), slave.base_addr,
                          rng.getrandbits(32))]
    for _ in range(rng.randrange(0, 6)):
        writes.append(ScriptWrite(rng.randrange(0, 60), slave.base_addr + 1,
                                  rng.getrandbits(32)))
    script = ProgramScript(
        writes=tuple(writes),
        busy_windows=(BusyWindow(slave.name, w0 * CFG, (w0 + span) * CFG),
                      BusyWindow(spec.slaves[0].name, 200 * CFG + 1, 230 * CFG - 1)),
    )
    return build_sim(spec, fault_mode=True).run(script, (w0 + span + 300) * CFG)


def _fault_random():
    rng = random.Random(0xFA)
    spec = make_spec(n_slaves=3, regs_per_slave=4, periods=(10_000, 7_000, 3_000))
    script, until = random_script(spec, rng, 300, n_windows=6)
    return build_sim(spec, fault_mode=True).run(script, until)


def _scripted_swaps():
    spec = _spread_spec()
    script = ProgramScript(
        writes=(ScriptWrite(2, 0, 11), ScriptWrite(30, 3, 12), ScriptWrite(60, 4, 13),
                ScriptWrite(61, 6, 14), ScriptWrite(200, 9, 15), ScriptWrite(201, 10, 16)),
        busy_windows=(BusyWindow("slave1", 40 * CFG, 90 * CFG + 3_333),
                      BusyWindow("slave2", 55 * CFG, 70 * CFG),
                      BusyWindow("slave3", 150 * CFG, 180 * CFG)),
        swaps=(
            SwapRequest(15 * CFG + 1_234, "slave0", _regs(3, reset=5)),    # performed
            SwapRequest(60 * CFG, "slave1", _regs(2)),                     # not_ready
            SwapRequest(72 * CFG + 5_000, "slave2", _regs(2)),             # write queued
            SwapRequest(93 * CFG + 5_000, "slave1", _regs(2)),             # in_flight
            SwapRequest(100 * CFG, "slave2", (SettingSpec("x", 0, 64),)),  # bad_fragment
            SwapRequest(120 * CFG + 77, "slave3", ()),                     # empty slave
            SwapRequest(400 * CFG - 1, "slave1", _regs(1, width=8)),       # off edge, at end
            SwapRequest(900 * CFG, "slave2", _regs(1)),                    # after until
        ),
    )
    return build_sim(spec).run(script, 400 * CFG)


def _swap_between_runs():
    spec = make_spec(n_slaves=3, regs_per_slave=4, periods=(10_000, 7_000, 3_000))
    sim = build_sim(spec)
    sim.run(ProgramScript(writes=(ScriptWrite(0, 0, 1234), ScriptWrite(5, 5, 99)),
                          busy_windows=(BusyWindow("slave1", 0, 8 * CFG),)), 35 * CFG + 5)
    sim.swap_module("slave0", _regs(3, reset=9))
    sim.swap_module("slave1", _regs(2))
    sim.run(ProgramScript(writes=(ScriptWrite(0, 0, 100), ScriptWrite(0, 1, 200),
                                  ScriptWrite(0, 3, 5), ScriptWrite(50, 2, 300)),
                          busy_windows=(BusyWindow("slave0", 40 * CFG, 60 * CFG),)),
            120 * CFG)
    sim.run(ProgramScript(), 100 * CFG)  # horizon already passed: a no-op
    sim.run(ProgramScript(writes=(ScriptWrite(0, 8, 42),)), 5_000 * CFG)
    return sim


def _held_across_runs():
    spec = make_spec(n_slaves=2, regs_per_slave=4, periods=(10_000, 7_000))
    sim = build_sim(spec)
    sim.run(ProgramScript(writes=(ScriptWrite(10, 4, 77),),
                          busy_windows=(BusyWindow("slave1", 0, 500 * CFG),)), 40 * CFG)
    # the new script drops the busy window: the held write completes
    sim.run(ProgramScript(busy_windows=(BusyWindow("slave0", 45 * CFG, 47 * CFG),)),
            3_000 * CFG)
    return sim


def _timeout():
    spec = make_spec(n_slaves=2, regs_per_slave=2)
    script = ProgramScript(
        writes=(ScriptWrite(5, 0, 1), ScriptWrite(6, 2, 2), ScriptWrite(9_000, 3, 3)),
        busy_windows=(BusyWindow("slave0", 0, 10_000 * CFG),),
    )
    return build_sim(spec, timeout_cycles=16).run(script, 20_000 * CFG)


def _decode_miss():
    spec = make_spec(n_slaves=2, regs_per_slave=4)
    script = ProgramScript(
        writes=(ScriptWrite(0, 500, 1), ScriptWrite(3, 1, 2), ScriptWrite(800, 200, 3),
                ScriptWrite(801, 5, 4)),
        busy_windows=(BusyWindow("slave1", 300 * CFG, 320 * CFG),),
    )
    return build_sim(spec).run(script, 2_000 * CFG)


def _off_edge_windows(sync_length):
    spec = _spread_spec(sync_length)
    script = ProgramScript(
        writes=(ScriptWrite(1, 0, 5), ScriptWrite(14, 3, 6), ScriptWrite(15, 4, 7),
                ScriptWrite(33, 7, 8)),
        busy_windows=(
            BusyWindow("slave0", 123_457, 456_789),
            BusyWindow("slave1", 12_500, 13_500),      # between every edge
            BusyWindow("slave2", 60_000, 60_000),      # empty
            BusyWindow("slave2", 99_999, 100_001),
            BusyWindow("slave3", 100_000, 170_001),
            BusyWindow("slave3", 170_001, 200_000),    # touching: merged
            BusyWindow("slave3", 150_000, 180_000),    # overlapping
        ),
    )
    return build_sim(spec).run(script, 1_000 * CFG + 4_321)


def _single_domain():
    rng = random.Random(0x51)
    spec = make_spec(n_slaves=3, regs_per_slave=4, periods=(10_000,))
    script, until = random_script(spec, rng, 120, n_windows=3)
    return build_sim(spec).run(script, until * 4)


def _long_window(topology, fault_mode):
    """A 20,000-cycle busy window on slave0.  Without fault mode a write
    to slave0 is held inside the window until ready rises again; in fault
    mode it lands at once, torn on the distributed design."""
    spec = make_spec(n_slaves=2, regs_per_slave=2, topology=topology, global_depth=16,
                     global_width=32)
    script = ProgramScript(
        writes=(ScriptWrite(5, 2, 0xA5), ScriptWrite(10_000, 3, 0x5A),
                ScriptWrite(15_000, 1, 0xC3), ScriptWrite(30_000, 0, 0x3C)),
        busy_windows=(BusyWindow("slave0", 10 * CFG + 2_500, 20_010 * CFG + 2_500),),
    )
    return build_sim(spec, fault_mode=fault_mode).run(script, 40_000 * CFG)


def _sparse(cycles, topology="distributed"):
    rng = random.Random(cycles)
    spec = make_spec(n_slaves=4, regs_per_slave=4, topology=topology, global_depth=16,
                     global_width=32, periods=(10_000, 7_000, 3_000))
    addrs = [e.address for e in address_map(spec)]
    writes = tuple(ScriptWrite(rng.randrange(cycles), rng.choice(addrs), rng.getrandbits(32))
                   for _ in range(5))
    windows = []
    for _ in range(3):
        start = rng.randrange(cycles * CFG)
        windows.append(BusyWindow(rng.choice(spec.slaves).name, start,
                                  start + rng.randrange(1, 60) * 7_000 + 11))
    swaps = (SwapRequest(rng.randrange(cycles * CFG), "slave2", _regs(2)),)
    return build_sim(spec).run(ProgramScript(writes, tuple(windows), swaps), cycles * CFG)


CASES = {
    **{f"c06_{i:02d}": (lambda i=i: _c06(i)) for i in range(24)},
    **{f"{t}_{i}": (lambda t=t, i=i: _global(t, i))
       for t in ("global", "global_registered", "global_cdc_dest") for i in range(2)},
    "global_sparse": lambda: _global_sparse("global"),
    "global_cdc_dest_sparse": lambda: _global_sparse("global_cdc_dest"),
    **{f"fault_{i}": (lambda i=i: _fault(i)) for i in range(6)},
    "fault_random": _fault_random,
    "scripted_swaps": _scripted_swaps,
    "swap_between_runs": _swap_between_runs,
    "held_across_runs": _held_across_runs,
    "timeout": _timeout,
    "decode_miss": _decode_miss,
    "off_edge_windows_L2": lambda: _off_edge_windows(2),
    "off_edge_windows_L3": lambda: _off_edge_windows(3),
    "single_domain": _single_domain,
    **{f"long_window_{t}{'_fault' * f}": (lambda t=t, f=f: _long_window(t, f))
       for t in ("distributed", "global_cdc_dest") for f in (False, True)},
    "sparse_1e5": lambda: _sparse(100_000),
    "sparse_1e6": lambda: _sparse(1_000_000),
    "sparse_1e5_global_cdc_dest": lambda: _sparse(100_000, "global_cdc_dest"),
}


@functools.cache
def simulated(name):
    """The corpus case ``name``, run once for every test that reads it."""
    return CASES[name]()


def digest(sim) -> dict:
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    return {
        "trace": sha(trace_to_csv(sim.trace)),
        "details": sha("\n".join(e.detail for e in sim.trace)),
        "state": sim.state_hash(),
        "events": len(sim.trace),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_matches_recorded_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_and_state_hashes_match(golden, name):
    assert digest(simulated(name)) == golden[name]


def reference_check_coherence(trace, reset_values=None):
    """The coherence scan as it read each event's fields by name, kept
    as the reference for the one-pass scan that replaced it."""
    resets = reset_values or {}
    ready = {}
    valid = {}
    found = []
    for e in trace:
        kind = e.kind
        if kind == READY_CHANGED:
            ready[e.slave] = bool(e.data)
        elif kind == CONFIG_CHANGED:
            if not ready.get(e.slave, False):
                found.append(("busy_write", e))
            key = (e.slave, e.addr)
            valid.setdefault(key, {resets.get(key, 0)}).add(e.data)
        elif kind == VALUE_SAMPLED:
            key = (e.slave, e.addr)
            if e.data not in valid.setdefault(key, {resets.get(key, 0)}):
                found.append(("torn_word", e))
    return [
        CoherenceViolation(kind, e.time_ps, e.slave, e.addr, e.data)
        for kind, e in found
        if kind == "torn_word" or e.slave in ready
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_coherence_scan_matches_reference(name):
    sim = simulated(name)
    for resets in (sim.initial_resets, None):
        assert check_coherence(sim.trace, resets) == reference_check_coherence(sim.trace, resets)


def test_coherence_corpus_has_every_violation_kind():
    kinds = {v.kind for name in CASES for v in simulated(name).check_coherence()}
    assert kinds == {"busy_write", "torn_word"}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: digest(simulated(name)) for name in sorted(CASES)},
                                 indent=1, sort_keys=True) + "\n")
