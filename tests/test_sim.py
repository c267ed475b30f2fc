import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regforge import (
    InvalidSpecError,
    SimError,
    SpecError,
    build_sim,
    check_coherence,
    parse_script,
    parse_spec,
)
from regforge.sim import (
    BusyWindow,
    ProgramScript,
    ScriptWrite,
    SwapRequest,
    TraceEvent,
    trace_to_csv,
)
from regforge.spec import TOPOLOGIES, SettingSpec, address_map, validate

from conftest import make_spec, make_spec_doc
from test_spec import spec_docs

CFG = 10_000  # canonical configuration-clock period in the fixtures


def fold_oracle(spec, trace):
    """Final memory = accepted-write map fold over the reset state."""
    mem = {
        (s.name, s.base_addr + r.offset): r.reset_value
        for s in spec.slaves
        for r in s.registers
    }
    for e in trace:
        if e.kind == "config_changed" and (e.slave, e.addr) in mem:
            mem[(e.slave, e.addr)] = e.data
    return mem


def assert_matches_fold(spec, sim):
    mem = fold_oracle(spec, sim.trace)
    for s in spec.slaves:
        for r in s.registers:
            assert sim.backdoor_read(s.name, r.offset) == mem[(s.name, s.base_addr + r.offset)]


def random_script(spec, rng, n_writes, n_windows=0, window_span=40):
    addrs = [e.address for e in address_map(spec)]
    writes = []
    cycle = 0
    for _ in range(n_writes):
        cycle += rng.randrange(0, 2)
        width = 32
        writes.append(ScriptWrite(cycle, rng.choice(addrs), rng.getrandbits(width)))
    windows = []
    horizon = (n_writes * 2 + 50) * CFG
    for _ in range(n_windows):
        start = rng.randrange(0, horizon)
        windows.append(
            BusyWindow(
                rng.choice(spec.slaves).name,
                start,
                start + rng.randrange(1, window_span) * CFG,
            )
        )
    until = horizon + n_windows * window_span * CFG + 60 * CFG
    return ProgramScript(tuple(writes), tuple(windows)), until


# ---------------------------------------------------------------------------
# build_sim


def test_edge_schedule_and_tie_order():
    spec = make_spec(periods=(10_000, 7_000), n_slaves=1, regs_per_slave=2)
    sim = build_sim(spec)
    # force the slave busy around the 70,000 ps common edge and write there
    script = ProgramScript(
        writes=(ScriptWrite(6, 0, 5),),
        busy_windows=(BusyWindow("slave0", 60_001, 80_000),),
    )
    sim.run(script, 71_000)
    at_tie = [e for e in sim.trace if e.time_ps == 70_000]
    kinds = [e.kind for e in at_tie]
    # configuration-domain activity precedes the slave-domain sample at a tie
    assert "value_sampled" in kinds
    assert kinds.index("write_issued") < kinds.index("value_sampled")


def test_backdoor_read_returns_reset_before_writes():
    doc = json.loads(
        """
        {"name": "resets",
         "bus": {"data_width": 32, "addr_width": 4, "slave_select_bits": 1},
         "clock_domains": [{"name": "cfg", "period_ps": 10000}],
         "slaves": [{"name": "s", "clock_domain": "cfg", "base_addr": 0,
                     "registers": [{"name": "r", "offset": 0, "width": 8,
                                    "reset_value": 165}]}],
         "architecture": {"topology": "distributed"}}
        """
    )
    spec = parse_spec(json.dumps(doc))
    assert build_sim(spec).backdoor_read("s", 0) == 0xA5


def test_rebuild_same_inputs_same_state_hash():
    spec = make_spec()
    assert build_sim(spec).state_hash() == build_sim(spec).state_hash()


def _overlapping_global(doc):
    doc["architecture"].update(topology="global", global_depth=8, global_width=32)
    doc["slaves"][1]["base_addr"] = 2


@pytest.mark.parametrize(
    "break_doc, message",
    [
        pytest.param(
            lambda doc: doc["slaves"][0].update(clock_domain="nowhere"),
            "[unknown_clock_domain] $.slaves[0].clock_domain: slave 'slave0' references "
            "undefined clock domain 'nowhere'",
            id="unknown_clock_domain"),
        pytest.param(
            lambda doc: doc["clock_domains"][1].update(period_ps=0),
            "[domain_period] $.clock_domains[1].period_ps: period_ps must be > 0",
            id="zero_period"),
        pytest.param(
            lambda doc: doc["slaves"][1].update(base_addr=0),
            "[addr_overlap] $.slaves: slave 'slave0' words [0, 4) overlap slave 'slave1' at 0",
            id="shared_address"),
        pytest.param(
            _overlapping_global,
            "[addr_overlap] $.slaves: slave 'slave0' words [0, 4) overlap slave 'slave1' at 2",
            id="shared_global_address"),
        pytest.param(
            lambda doc: doc["architecture"].update(sync_length=0),
            "[sync_length] $.architecture.sync_length: sync_length must be >= 1",
            id="sync_length_0"),
        pytest.param(
            lambda doc: doc["architecture"].update(sync_length=-1),
            "[sync_length] $.architecture.sync_length: sync_length must be >= 1",
            id="sync_length_-1"),
        # the simulator once built these, though validate rejects each
        pytest.param(
            lambda doc: doc["bus"].update(slave_select_bits=0),
            "[bus_geometry] $.bus.slave_select_bits: 2^0 select codes cannot address 2 slaves",
            id="no_select_bits"),
        pytest.param(
            lambda doc: doc["slaves"][0]["registers"][1].update(name="r0"),
            "[dup_setting_name] $.slaves[0].registers[1]: setting 'r0' named twice in "
            "slave 'slave0'",
            id="dup_setting_name"),
        pytest.param(
            lambda doc: doc["slaves"][0]["registers"][0].update(width=4, reset_value=99),
            "[reset_range] $.slaves[0].registers[0].reset_value: reset value 99 does not "
            "fit in 4 bits",
            id="reset_too_wide"),
        pytest.param(
            lambda doc: doc["architecture"].update(
                topology="global", global_depth=1, global_width=8),
            "[global_capacity] $.architecture: global memory 1x8 holds 8 bits but settings "
            "need 256",
            id="over_capacity"),
        pytest.param(
            lambda doc: doc["architecture"].update(
                topology="global_cdc_dest", sync_length=1, global_depth=64, global_width=32),
            "[sync_length] $.architecture.sync_length: sync_length must be >= 2 when "
            "crossing clock domains",
            id="cdc_one_sync_stage"),
        pytest.param(
            lambda doc: doc["bus"].update(addr_width=2),
            "[addr_range] $.slaves[1]: slave 'slave1' range [4, 8) exceeds 2-bit address space",
            id="narrow_address"),
    ],
)
def test_build_sim_on_unvalidated_spec_raises_invalid_spec_error(break_doc, message):
    doc = make_spec_doc()
    break_doc(doc)
    spec = parse_spec(json.dumps(doc))
    with pytest.raises(InvalidSpecError) as info:
        build_sim(spec)
    assert str(info.value) == message
    assert info.value.report == validate(spec)


def test_build_sim_rejects_topology_outside_the_stage_table():
    spec = make_spec()
    bogus = dataclasses.replace(
        spec, architecture=dataclasses.replace(spec.architecture, topology="bogus")
    )
    with pytest.raises(InvalidSpecError, match=(
        r"^\[unknown_topology\] \$\.architecture\.topology: unknown topology 'bogus', "
        "expected one of global, global_registered, global_cdc_dest, distributed$"
    )):
        build_sim(bogus)


@settings(max_examples=150)
@given(spec_docs(force_valid=False), st.sampled_from(TOPOLOGIES), st.integers(0, 8),
       st.integers(0, 8), st.integers(0, 3))
def test_build_sim_builds_exactly_what_validate_passes(doc, topology, depth, width, sync_length):
    doc["architecture"].update(topology=topology, global_depth=depth, global_width=width,
                               sync_length=sync_length)
    spec = parse_spec(json.dumps(doc))
    report = validate(spec)
    if report.ok:
        build_sim(spec)
        return
    with pytest.raises(InvalidSpecError) as info:
        build_sim(spec)
    assert info.value.report == report


@settings(max_examples=60)
@given(spec_docs(), st.sampled_from(TOPOLOGIES), st.randoms(use_true_random=False))
def test_one_pass_tables_match_address_map(doc, topology, rnd):
    # slaves and registers out of address order, so the one pass over the
    # spec and the sorted address map walk the registers differently
    rnd.shuffle(doc["slaves"])
    for slave in doc["slaves"]:
        rnd.shuffle(slave["registers"])
    doc["architecture"].update(topology=topology, global_depth=64, global_width=64)
    spec = parse_spec(json.dumps(doc))
    sim = build_sim(spec)
    entries = address_map(spec)
    index = {s.name: i for i, s in enumerate(spec.slaves)}
    assert sim._decode == {
        e.address: (index[e.slave], e.address - spec.slaves[index[e.slave]].base_addr)
        for e in entries
    }
    slots = {} if topology == "distributed" else {
        e.address: slot for slot, e in enumerate(entries)
    }
    assert sim._word_of == slots


def test_unknown_slave_or_offset_raises():
    sim = build_sim(make_spec())
    with pytest.raises(SimError):
        sim.backdoor_read("ghost", 0)
    with pytest.raises(SimError):
        sim.backdoor_read("slave0", 99)


# ---------------------------------------------------------------------------
# run


def test_write_during_busy_window_waits_for_ready(distributed_spec):
    sim = build_sim(distributed_spec)
    window = BusyWindow("slave0", 20 * CFG, 30 * CFG)
    script = ProgramScript(writes=(ScriptWrite(22, 0, 7),), busy_windows=(window,))
    sim.run(script, 60 * CFG)
    accepted = [e for e in sim.trace if e.kind == "write_accepted"]
    assert len(accepted) == 1
    assert accepted[0].time_ps >= window.end_ps
    assert sim.check_coherence() == []


def test_random_writes_match_fold_oracle(distributed_spec, rng):
    sim = build_sim(distributed_spec)
    script, until = random_script(distributed_spec, rng, 2_000)
    sim.run(script, until)
    accepted = [e for e in sim.trace if e.kind == "write_accepted"]
    assert len(accepted) == 2_000
    assert_matches_fold(distributed_spec, sim)


def test_accepted_order_equals_issue_order(distributed_spec, rng):
    sim = build_sim(distributed_spec)
    script, until = random_script(distributed_spec, rng, 300, n_windows=4)
    sim.run(script, until)
    issued = [(e.addr, e.data) for e in sim.trace if e.kind == "write_issued"]
    accepted = [(e.addr, e.data) for e in sim.trace if e.kind == "write_accepted"]
    assert accepted == issued[: len(accepted)]


def test_empty_script_only_clocks(distributed_spec):
    sim = build_sim(distributed_spec)
    sim.run(ProgramScript(), 50 * CFG)
    # ready leaves reset at the first configuration edge; nothing else happens
    assert sim.trace == [
        TraceEvent(CFG, "ready_changed", s.name, data=1) for s in distributed_spec.slaves
    ]
    assert sim.cycle == 50
    for s in distributed_spec.slaves:
        for r in s.registers:
            assert sim.backdoor_read(s.name, r.offset) == r.reset_value
    assert sim.time_ps == 50 * CFG


def test_idle_cost_scales_with_events_not_cycles(distributed_spec):
    script = ProgramScript(
        writes=(ScriptWrite(10, 0, 1), ScriptWrite(400_000, 5, 2), ScriptWrite(999_000, 3, 3)),
        busy_windows=(BusyWindow("slave1", 500_000 * CFG, 500_020 * CFG),),
    )
    sim = build_sim(distributed_spec).run(script, 1_000_000 * CFG)
    assert sim.cycle == 1_000_000
    assert sum(e.kind == "write_accepted" for e in sim.trace) == 3
    assert sum(e.kind == "value_sampled" for e in sim.trace) == 29  # 20 cycles at 7,000 ps
    # the three writes and both ends of the window each step a few edges
    assert 5 <= sim.edges_stepped[0] < 100
    assert sim.edges_stepped[1] == 29


@pytest.mark.parametrize("topology,limit", [("distributed", 10), ("global_cdc_dest", 2)])
def test_long_busy_window_steps_few_config_edges(topology, limit):
    # once slave0's chain is all ones and its ready is low (at once on a
    # centralized design, which has no chains) the window's config edges
    # have nothing to do until it ends
    spec = make_spec(n_slaves=2, regs_per_slave=2, topology=topology, global_depth=16,
                     global_width=32)
    script = ProgramScript(
        writes=(ScriptWrite(3, 2, 7),),
        busy_windows=(BusyWindow("slave0", 10 * CFG, 100_010 * CFG),),
    )
    sim = build_sim(spec).run(script, 200_000 * CFG)
    assert sim.cycle == 200_000
    assert sum(e.kind == "write_accepted" for e in sim.trace) == 1
    assert sum(e.kind == "value_sampled" for e in sim.trace) == 142_857
    assert 0 < sim.edges_stepped[0] <= limit
    assert sim.edges_stepped[1] == 142_857


def test_dense_writes_step_no_idle_slave_edge(distributed_spec, rng):
    script, until = random_script(distributed_spec, rng, 300)
    sim = build_sim(distributed_spec).run(script, until)
    assert sum(e.kind == "write_accepted" for e in sim.trace) == 300
    assert sum(e.kind == "value_sampled" for e in sim.trace) == 0
    # one configuration edge per write, and the first edge, where ready rises
    assert 300 < sim.edges_stepped[0] <= 310
    assert sim.edges_stepped[1] == 0


def test_window_between_config_edges_is_sampled_on_each_edge():
    # the config domain is busy with back-to-back writes while a 3,000 ps
    # slave is busy from 21,000 to 29,000 ps, between config edges 2 and 3
    spec = make_spec(n_slaves=2, regs_per_slave=2, periods=(10_000, 3_000))
    writes = tuple(ScriptWrite(c, 2 + c % 2, c) for c in range(8))
    script = ProgramScript(writes, (BusyWindow("slave0", 21_000, 29_000),))
    sim = build_sim(spec).run(script, 100_000)
    sampled = [e.time_ps for e in sim.trace if e.kind == "value_sampled"]
    assert sampled == [21_000, 24_000, 27_000]
    assert sim.edges_stepped[1] == 3
    assert 8 <= sim.edges_stepped[0] <= 10
    assert sum(e.kind == "write_accepted" for e in sim.trace) == 8


def test_edges_stepped_add_up_over_runs(distributed_spec):
    sim = build_sim(distributed_spec)
    script = ProgramScript(busy_windows=(BusyWindow("slave0", 0, 5 * CFG),))
    sim.run(script, 10 * CFG)
    assert sim.edges_stepped[1] == 7  # 7,000 ps edges before 50,000 ps
    first = list(sim.edges_stepped)
    assert first[0] > 0
    # every slave has settled and nothing is scripted: nothing to step
    sim.run(ProgramScript(), 20 * CFG)
    assert sim.edges_stepped == first
    sim.run(ProgramScript(writes=(ScriptWrite(0, 0, 1),)), 30 * CFG)
    assert sim.edges_stepped == [first[0] + 1, first[1]]


def test_windows_before_the_run_start_unsettle_no_slave():
    spec = make_spec(n_slaves=2, regs_per_slave=2)
    script = ProgramScript(busy_windows=(BusyWindow("slave0", 2 * CFG, 5 * CFG),))
    sim = build_sim(spec).run(script, 10 * CFG)
    assert sim.edges_stepped == [7, 5]
    # the window ended before this run starts, so the run steps what an
    # empty script does: nothing, no fewer edges and no more
    sim.run(script, 20 * CFG)
    assert sim.edges_stepped == [7, 5]
    idle = build_sim(spec).run(script, 10 * CFG).run(ProgramScript(), 20 * CFG)
    assert idle.edges_stepped == sim.edges_stepped and idle.trace == sim.trace


def test_determinism_same_script_same_trace_hash(distributed_spec, rng):
    script, until = random_script(distributed_spec, rng, 500, n_windows=3)
    a = build_sim(distributed_spec).run(script, until)
    b = build_sim(distributed_spec).run(script, until)
    assert a.trace_hash() == b.trace_hash()
    assert a.state_hash() == b.state_hash()


def test_two_phase_sample_sees_pre_edge_value():
    # slave clocked at half the config period: every config edge ties with
    # a slave edge, and the tied sample must see the pre-edge word.  The
    # write lands inside the busy-synchronizer lead-in, where the gate is
    # still open but the slave is already sampling.
    spec = make_spec(periods=(10_000, 5_000), n_slaves=1, regs_per_slave=1)
    sim = build_sim(spec)
    script = ProgramScript(
        writes=(ScriptWrite(4, 0, 77),),
        busy_windows=(BusyWindow("slave0", 35_000, 200_000),),
    )
    sim.run(script, 200_000)
    accept_time = next(e.time_ps for e in sim.trace if e.kind == "write_accepted")
    tied_sample = next(
        e for e in sim.trace if e.kind == "value_sampled" and e.time_ps == accept_time
    )
    assert tied_sample.data == 0  # pre-edge (reset) value
    later = next(
        e for e in sim.trace
        if e.kind == "value_sampled" and e.time_ps > accept_time
    )
    assert later.data == 77


def test_write_data_truncated_to_width():
    spec = make_spec(width=16)
    sim = build_sim(spec)
    sim.run(ProgramScript(writes=(ScriptWrite(0, 0, 0xFFFF_FFFF),)), 20 * CFG)
    assert sim.backdoor_read("slave0", 0) == 0xFFFF


def test_unmatched_address_logs_violation(distributed_spec):
    sim = build_sim(distributed_spec)
    sim.run(ProgramScript(writes=(ScriptWrite(0, 500, 1),)), 20 * CFG)
    events = sim.violation_events()
    assert len(events) == 1 and events[0].detail == "decode_no_match"


def test_never_ready_times_out():
    spec = make_spec(n_slaves=1, regs_per_slave=2)
    sim = build_sim(spec, timeout_cycles=16)
    # issue after the gate has closed (past the synchronizer lead-in)
    script = ProgramScript(
        writes=(ScriptWrite(5, 0, 1),),
        busy_windows=(BusyWindow("slave0", 0, 10_000 * CFG),),
    )
    sim.run(script, 100 * CFG)
    assert sim.timed_out
    assert any(e.detail == "timeout" for e in sim.violation_events())
    assert not any(e.kind == "write_accepted" for e in sim.trace)


# ---------------------------------------------------------------------------
# centralized designs on the same bus


def test_global_design_simulates_without_handshake():
    spec = make_spec(n_slaves=2, regs_per_slave=4, topology="global_cdc_dest",
                     global_depth=16, global_width=32, addr_width=8)
    sim = build_sim(spec)
    sim.run(ProgramScript(writes=(ScriptWrite(0, 0, 11), ScriptWrite(1, 4, 22))), 30 * CFG)
    assert sim.backdoor_read("slave0", 0) == 11
    assert sim.backdoor_read("slave1", 0) == 22
    assert sim.check_coherence() == []


# ---------------------------------------------------------------------------
# fault injection + coherence checking


def test_fault_mode_write_in_busy_window_flags_busy_write(distributed_spec):
    sim = build_sim(distributed_spec, fault_mode=True)
    script = ProgramScript(
        writes=(ScriptWrite(25, 0, 0xFFFF_FFFF),),
        busy_windows=(BusyWindow("slave0", 20 * CFG, 40 * CFG),),
    )
    sim.run(script, 60 * CFG)
    kinds = {v.kind for v in sim.check_coherence()}
    assert "busy_write" in kinds


def test_fault_mode_exposes_torn_word():
    spec = make_spec(n_slaves=1, regs_per_slave=1, periods=(10_000, 3_000))
    sim = build_sim(spec, fault_mode=True)
    script = ProgramScript(
        writes=(ScriptWrite(25, 0, 0xFFFF_FFFF),),
        busy_windows=(BusyWindow("slave0", 20 * CFG, 40 * CFG),),
    )
    sim.run(script, 60 * CFG)
    torn = [v for v in sim.check_coherence() if v.kind == "torn_word"]
    assert torn and torn[0].data == 0x0000_FFFF


def test_gated_run_with_same_script_is_clean(distributed_spec):
    sim = build_sim(distributed_spec)
    script = ProgramScript(
        writes=(ScriptWrite(25, 0, 0xFFFF_FFFF),),
        busy_windows=(BusyWindow("slave0", 20 * CFG, 40 * CFG),),
    )
    sim.run(script, 80 * CFG)
    assert sim.check_coherence() == []


def test_check_coherence_empty_trace():
    assert check_coherence([]) == []


@st.composite
def _scripts(draw):
    writes = []
    cycle = 0
    for _ in range(draw(st.integers(0, 60))):
        cycle += draw(st.integers(0, 2))
        writes.append(ScriptWrite(cycle, draw(st.integers(0, 8)),
                                  draw(st.integers(0, 2**32 - 1))))
    windows = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, 150)) * 10_000
        span = draw(st.integers(1, 25)) * 10_000
        windows.append(BusyWindow(draw(st.sampled_from(["slave0", "slave1"])),
                                  start, start + span))
    return ProgramScript(tuple(writes), tuple(windows))


@settings(max_examples=60)
@given(_scripts())
def test_gated_simulation_is_always_coherent(script):
    spec = make_spec(n_slaves=2, regs_per_slave=4, periods=(10_000, 7_000))
    sim = build_sim(spec)
    sim.run(script, 4_000_000)
    assert sim.check_coherence() == []
    assert_matches_fold(spec, sim)


# ---------------------------------------------------------------------------
# module swap


def _swap_regs():
    return (
        SettingSpec("na", 0, 16, reset_value=9),
        SettingSpec("nb", 1, 8),
        SettingSpec("nc", 2, 32),
    )


def test_swap_then_reprogram(distributed_spec):
    sim = build_sim(distributed_spec)
    sim.run(ProgramScript(writes=(ScriptWrite(0, 0, 1234),)), 10 * CFG)
    sim.swap_module("slave0", _swap_regs())
    assert sim.backdoor_read("slave0", 0) == 9  # new reset value
    base = distributed_spec.slaves[0].base_addr
    sim.run(
        ProgramScript(
            writes=(
                ScriptWrite(0, base + 0, 100),
                ScriptWrite(0, base + 1, 200),
                ScriptWrite(0, base + 2, 300),
            )
        ),
        40 * CFG,
    )
    assert sim.backdoor_read("slave0", 0) == 100
    assert sim.backdoor_read("slave0", 1) == 200
    assert sim.backdoor_read("slave0", 2) == 300
    assert sim.check_coherence() == []


def test_swap_isolates_other_slaves(distributed_spec):
    sim = build_sim(distributed_spec)
    sim.run(ProgramScript(writes=(ScriptWrite(0, 4, 0xBEEF),)), 20 * CFG)
    before = sim.slave_state_hash("slave1")
    sim.swap_module("slave0", _swap_regs())
    assert sim.slave_state_hash("slave1") == before
    assert any(e.kind == "swap_performed" for e in sim.trace)


def test_swap_refused_while_busy(distributed_spec):
    sim = build_sim(distributed_spec)
    sim.run(
        ProgramScript(busy_windows=(BusyWindow("slave0", 0, 100 * CFG),)), 20 * CFG
    )
    sim.swap_module("slave0", _swap_regs())
    refusals = [e for e in sim.trace if e.detail.startswith("swap_refused")]
    assert refusals and "not_ready" in refusals[0].detail
    assert sim.backdoor_read("slave0", 0) == 0  # unchanged


def test_swap_refused_mid_transaction(distributed_spec):
    sim = build_sim(distributed_spec)
    # hold a write against a busy slave, then swap at a time the write is
    # still in flight
    script = ProgramScript(
        writes=(ScriptWrite(5, 0, 1),),
        busy_windows=(BusyWindow("slave0", 0, 30 * CFG),),
        swaps=(SwapRequest(20 * CFG, "slave0", _swap_regs()),),
    )
    sim.run(script, 60 * CFG)
    refusals = [e for e in sim.trace if e.detail.startswith("swap_refused")]
    assert refusals
    # the held write still completes after the window
    assert sim.backdoor_read("slave0", 0) == 1


def test_swap_refused_on_centralized_topology():
    spec = make_spec(n_slaves=1, regs_per_slave=4, topology="global",
                     global_depth=8, global_width=32, addr_width=8)
    sim = build_sim(spec)
    sim.swap_module("slave0", _swap_regs())
    assert any("topology" in e.detail for e in sim.violation_events())


def test_swap_refused_for_bad_fragment(distributed_spec):
    for bad in (
        (SettingSpec("x", 0, 64),),  # wider than the bus
        (SettingSpec("a", 0, 8), SettingSpec("a", 1, 8)),  # one name twice
    ):
        sim = build_sim(distributed_spec)
        sim.run(ProgramScript(), 10 * CFG)
        sim.swap_module("slave0", bad)
        assert [e.detail for e in sim.violation_events()] == ["swap_refused:bad_fragment"]
        assert sim.backdoor_read("slave0", 0) == 0


def _ready_sim(doc):
    """A simulation of ``doc`` run until every slave's ready is high."""
    spec = parse_spec(json.dumps(doc))
    assert validate(spec).ok
    sim = build_sim(spec)
    sim.run(ProgramScript(), 10 * CFG)
    return sim


def test_swap_may_extend_over_a_slave_without_registers():
    # bases 0, 4, 8 with slave1 empty: slave0 may grow over slave1's base
    doc = make_spec_doc(n_slaves=3, regs_per_slave=4)
    doc["slaves"][1]["registers"] = []
    sim = _ready_sim(doc)
    sim.swap_module("slave0", tuple(SettingSpec(f"n{i}", i, 8, i) for i in range(6)))
    assert sim.violation_events() == []
    assert validate(sim.spec).ok
    sim.run(ProgramScript(writes=(ScriptWrite(0, 5, 77),)), 20 * CFG)
    assert sim.backdoor_read("slave0", 5) == 77


def test_swap_refuses_a_word_of_another_slave_at_the_same_base():
    # slave1 shares slave0's base and has no registers, so its first word
    # would be slave0's address 0
    doc = make_spec_doc(n_slaves=2, regs_per_slave=4)
    doc["slaves"][1]["base_addr"] = 0
    doc["slaves"][1]["registers"] = []
    sim = _ready_sim(doc)
    sim.swap_module("slave1", (SettingSpec("x", 0, 8, 5),))
    assert [e.detail for e in sim.violation_events()] == ["swap_refused:bad_fragment"]
    sim.swap_module("slave0", _swap_regs())
    sim.run(ProgramScript(writes=(ScriptWrite(0, 0, 42),)), 30 * CFG)
    assert sim.backdoor_read("slave0", 0) == 42
    assert sim.check_coherence() == []


def test_swap_is_judged_against_the_swapped_design():
    sim = _ready_sim(make_spec_doc(n_slaves=2, regs_per_slave=4))
    sim.swap_module("slave1", ())
    sim.swap_module("slave0", tuple(SettingSpec(f"n{i}", i, 8) for i in range(6)))
    assert sim.violation_events() == []
    # slave0 now holds addresses 0..5, so slave1's old words overlap it
    sim.swap_module("slave1", (SettingSpec("r0", 0, 8),))
    assert [e.detail for e in sim.violation_events()] == ["swap_refused:bad_fragment"]
    assert [s.words for s in sim.spec.slaves] == [6, 0]


def test_swap_agrees_with_validate_on_random_fragments():
    # a swap is refused as bad_fragment exactly when validate rejects the
    # spec with the slave's registers replaced, on specs whose slaves may
    # have no registers and may share another slave's base
    rng = random.Random(3003)
    accepted = 0
    codes = set()
    for _ in range(600):
        doc = make_spec_doc(n_slaves=3, regs_per_slave=4, width=8, data_width=8, addr_width=5)
        bases = [s["base_addr"] for s in doc["slaves"]]
        for slave in doc["slaves"]:
            if rng.random() < 0.4:
                slave["registers"] = []
                slave["base_addr"] = rng.choice(bases)
        sim = _ready_sim(doc)
        spec = sim.spec
        sidx = rng.randrange(len(spec.slaves))
        fragment = []
        for _ in range(rng.randint(0, 5)):
            width = rng.randint(0, 9)
            offset = rng.randint(-1, 9) if rng.random() < 0.9 else rng.randint(20, 31)
            fragment.append(SettingSpec(
                rng.choice("abcdef"), offset, width, rng.randint(-1, 2 << width)
            ))
        slaves = list(spec.slaves)
        slaves[sidx] = dataclasses.replace(slaves[sidx], registers=tuple(fragment))
        swapped = dataclasses.replace(spec, slaves=tuple(slaves))
        report = validate(swapped)

        sim.swap_module(spec.slaves[sidx].name, tuple(fragment))
        refusals = [e.detail for e in sim.violation_events()]
        if report.ok:
            accepted += 1
            assert refusals == [], fragment
            assert sim.spec == swapped
        else:
            codes.update(d.code for d in report.diagnostics)
            assert refusals == ["swap_refused:bad_fragment"], fragment
            assert sim.spec == spec
    assert accepted >= 100
    assert codes == {"addr_overlap", "addr_range", "dup_offset", "dup_setting_name",
                     "negative_value", "reset_range", "setting_width"}


def test_swap_in_a_huge_address_space():
    sim = build_sim(make_spec(addr_width=1 << 40))
    sim.run(ProgramScript(), 10 * CFG)
    sim.swap_module("slave0", (SettingSpec("x", 4, 8),))  # slave1's first word
    sim.swap_module("slave1", _swap_regs())
    assert [e.detail for e in sim.violation_events()] == ["swap_refused:bad_fragment"]
    assert sim.backdoor_read("slave1", 0) == 9


def test_write_to_a_huge_setting():
    huge = 1 << 40
    spec = make_spec(n_slaves=1, regs_per_slave=1, width=huge, data_width=huge,
                     periods=(10_000, 3_000))
    assert validate(spec).ok
    sim = build_sim(spec)
    sim.run(ProgramScript(writes=(ScriptWrite(0, 0, 0xABCD),)), 20 * CFG)
    assert sim.backdoor_read("slave0", 0) == 0xABCD
    # a write into a busy window tears at bit huge // 2, above the whole word,
    # so the fault shows as a busy write and never as a torn word
    sim = build_sim(spec, fault_mode=True)
    script = ProgramScript(
        writes=(ScriptWrite(25, 0, 0xFFFF_FFFF),),
        busy_windows=(BusyWindow("slave0", 20 * CFG, 40 * CFG),),
    )
    sim.run(script, 60 * CFG)
    assert sim.backdoor_read("slave0", 0) == 0xFFFF_FFFF
    assert [v.kind for v in sim.check_coherence()] == ["busy_write"]


def test_negative_write_data_raises_before_running():
    huge = 1 << 40
    spec = make_spec(n_slaves=1, regs_per_slave=1, width=huge, data_width=huge)
    sim = build_sim(spec)
    with pytest.raises(SimError, match="^write of negative data -1 to address 0$"):
        sim.run(ProgramScript(writes=(ScriptWrite(0, 0, 5), ScriptWrite(3, 0, -1))), 20 * CFG)
    assert sim.trace == [] and sim.cycle == 0


def test_script_swap_applies_at_time(distributed_spec):
    script = ProgramScript(
        swaps=(SwapRequest(15 * CFG, "slave1", _swap_regs()),)
    )
    sim = build_sim(distributed_spec)
    sim.run(script, 30 * CFG)
    swap_events = [e for e in sim.trace if e.kind == "swap_performed"]
    assert swap_events and swap_events[0].time_ps == 15 * CFG
    assert sim.backdoor_read("slave1", 0) == 9


# ---------------------------------------------------------------------------
# script parsing and trace export


def test_parse_script_round_trip():
    text = json.dumps(
        {
            "writes": [{"at_cycle": 3, "addr": "0x10", "data": 255}],
            "busy_windows": [{"slave": "s0", "start_ps": 0, "end_ps": 100}],
            "swaps": [
                {
                    "at_ps": 50,
                    "slave": "s0",
                    "new_spec_fragment": {
                        "registers": [{"name": "n", "offset": 0, "width": 8}]
                    },
                }
            ],
        }
    )
    script = parse_script(text)
    assert script.writes[0].addr == 16
    assert script.swaps[0].registers[0].width == 8


@pytest.mark.parametrize(
    "doc",
    [
        {"writes": [{"at_cycle": -1, "addr": 0, "data": 0}]},
        {"busy_windows": [{"slave": "s", "start_ps": 10, "end_ps": 5}]},
        {"writes": "nope"},
        {"unexpected": []},
    ],
)
def test_parse_script_rejects_malformed(doc):
    with pytest.raises(SpecError):
        parse_script(json.dumps(doc))


# A malformed write after a well-formed one: the writes are read again by
# the checked readers, which raise at its path.
@pytest.mark.parametrize("entry, message", [
    ({"at_cycle": 1, "addr": 0, "data": True}, "$.writes[1].data: expected integer, got boolean"),
    ({"at_cycle": 1, "addr": 0.5}, "$.writes[1].addr: expected integer, got float"),
    ({"at_cycle": 1, "adr": 0}, "$.writes[1]: unknown field(s): adr"),
    (3, "$.writes[1]: expected object, got int"),
])
def test_malformed_write_after_plain_one_raises_at_its_path(entry, message):
    text = json.dumps({"writes": [{"at_cycle": 0, "addr": 1, "data": 2}, entry]})
    with pytest.raises(SpecError) as raised:
        parse_script(text)
    assert str(raised.value) == message


def test_plain_and_hex_writes_parse_alike():
    writes = [{"at_cycle": 0, "addr": 1, "data": 2}, {"at_cycle": 2}]
    plain = parse_script(json.dumps({"writes": writes}))
    writes[1]["at_cycle"] = "0x2"
    assert parse_script(json.dumps({"writes": writes})) == plain
    assert plain.writes == ((0, 1, 2), (2, 0, 0))
    assert type(plain.writes[1]) is ScriptWrite


def test_unknown_script_slave_raises(distributed_spec):
    sim = build_sim(distributed_spec)
    with pytest.raises(SimError):
        sim.run(ProgramScript(busy_windows=(BusyWindow("ghost", 0, 10),)), 10 * CFG)


def test_trace_csv_layout(distributed_spec, tmp_path):
    sim = build_sim(distributed_spec)
    sim.run(ProgramScript(writes=(ScriptWrite(0, 0, 5),)), 20 * CFG)
    text = trace_to_csv(sim.trace)
    lines = text.strip().split("\n")
    assert lines[0] == "time_ps,kind,slave,addr,data"
    assert all(line.count(",") == 4 for line in lines)
    times = [int(line.split(",")[0]) for line in lines[1:]]
    assert times == sorted(times)
    out = tmp_path / "trace.csv"
    sim.write_trace(out)
    assert out.read_text() == text
