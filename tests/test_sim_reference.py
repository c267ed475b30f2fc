"""The simulator against an every-edge reference.

``bus_oracle.EdgeReference`` steps every edge of every clock domain and
skips nothing.  ``Simulation.run`` skips idle edges and runs
configuration edges back to back between cross-domain events, so the
two must agree on every trace event (violation details included), on
the final memory, ``ready`` and synchronizer chains, and on the cycle
count, over small random designs and scripts of every kind.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from regforge import build_sim, parse_spec
from regforge.sim import (
    DEFAULT_TIMEOUT_CYCLES,
    BusyWindow,
    ProgramScript,
    ScriptWrite,
    SwapRequest,
)
from regforge.spec import TOPOLOGIES, SettingSpec, address_map, validate

from bus_oracle import EdgeReference
from conftest import make_spec_doc

CFG = 10  # configuration period (ps); the other periods are equal, multiples or coprime
SLAVE_PERIODS = (10, 5, 20, 30, 7, 3, 13, 4)
HORIZON = 40  # configuration cycles a script spans
MISS = 200  # an address no slave decodes

FRAGMENTS = (
    (),
    (SettingSpec("n0", 0, 8, 3),),
    (SettingSpec("n0", 0, 4, 1), SettingSpec("n1", 1, 12, 7)),
    (SettingSpec("x", 0, 64),),  # wider than the bus: refused
)


@st.composite
def designs(draw):
    topology = draw(st.sampled_from(("distributed", *TOPOLOGIES)))
    sync_length = draw(st.integers(2 if topology == "global_cdc_dest" else 1, 4))
    periods = (CFG, *draw(st.lists(st.sampled_from(SLAVE_PERIODS), max_size=2)))
    regs = draw(st.integers(1, 3))
    doc = make_spec_doc(n_slaves=draw(st.integers(1, 4)), regs_per_slave=regs,
                        topology=topology, data_width=16, sync_length=sync_length,
                        periods=periods, global_depth=16, global_width=16)
    for slave in doc["slaves"]:
        slave["clock_domain"] = f"clk{draw(st.integers(0, len(periods) - 1))}"
        del slave["registers"][draw(st.integers(0, regs)):]
        for reg in slave["registers"]:
            reg["width"] = draw(st.integers(1, 12))
            reg["reset_value"] = draw(st.integers(0, (1 << reg["width"]) - 1))
    spec = parse_spec(json.dumps(doc))
    assert validate(spec).ok
    return spec


def _times(draw):
    """A time in ps: on a configuration edge, or anywhere."""
    return draw(st.one_of(st.integers(0, HORIZON).map(lambda k: k * CFG),
                          st.integers(0, HORIZON * CFG)))


@st.composite
def scripts(draw, spec):
    addrs = [e.address for e in address_map(spec)] + [MISS]
    names = [s.name for s in spec.slaves]
    writes = [ScriptWrite(draw(st.integers(0, HORIZON)), draw(st.sampled_from(addrs)),
                          draw(st.integers(0, (1 << 16) - 1)))
              for _ in range(draw(st.integers(0, 12)))]
    windows = []
    for _ in range(draw(st.integers(0, 4))):
        start = _times(draw)
        windows.append(BusyWindow(draw(st.sampled_from(names)), start,
                                  start + draw(st.integers(0, 15 * CFG))))
    swaps = [SwapRequest(_times(draw), draw(st.sampled_from(names)),
                         draw(st.sampled_from(FRAGMENTS)))
             for _ in range(draw(st.integers(0, 2)))]
    return ProgramScript(tuple(writes), tuple(windows), tuple(swaps))


def assert_agrees(sim, ref):
    assert sim.trace == ref.trace
    assert sim._mem == ref.mem
    assert sim._ready == ref.ready
    assert sim._busy_sync == ref.busy_sync
    assert (sim.cycle, sim.time_ps, sim.timed_out) == (ref.cycle, ref.time_ps, ref.timed_out)
    assert sim.spec == ref.spec


@settings(max_examples=150)
@given(st.data())
def test_run_matches_every_edge_reference(data):
    spec = data.draw(designs())
    options = dict(fault_mode=data.draw(st.booleans()),
                   timeout_cycles=data.draw(st.sampled_from((DEFAULT_TIMEOUT_CYCLES, 0, 2))))
    sim, ref = build_sim(spec, **options), EdgeReference(spec, **options)
    until = data.draw(st.integers(0, (HORIZON + 20) * CFG))
    for script in (data.draw(scripts(spec)), data.draw(scripts(spec))):
        sim.run(script, until)
        ref.run(script, until)
        assert_agrees(sim, ref)
        until += data.draw(st.integers(-CFG, HORIZON * CFG))
        if data.draw(st.booleans()):
            # a swap between runs, at the time the last run ended
            slave = data.draw(st.sampled_from([s.name for s in spec.slaves]))
            fragment = data.draw(st.sampled_from(FRAGMENTS))
            sim.swap_module(slave, fragment)
            ref.swap_module(slave, fragment, ref.time_ps)
