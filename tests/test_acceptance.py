"""Acceptance suite: one test per release criterion, run at fixed tolerances.

Each test prints a single PASS line when its criterion holds (pytest
reports FAILED otherwise), so `pytest -v -s tests/test_acceptance.py`
yields one verdict line per criterion.
"""

import random

import pytest

from regforge import (
    build_sim,
    default_calibration,
    elaborate,
    emit,
    load_spec,
    structural_counts,
)
from regforge.cost import (
    DesignPoint,
    compare,
    estimate_alms,
    estimate_aluts,
    estimate_fmax,
    estimate_registers,
    fmax_from_bundle,
    widest_unregistered_bundle,
)
from regforge.sim import BusyWindow, ProgramScript, ScriptWrite
from regforge.spec import SettingSpec

from conftest import OVER_CAPACITY, check_against_oracle, make_spec
from test_sim import fold_oracle, random_script

CFG = 10_000
CAL = default_calibration()

GMAX = DesignPoint(
    "global_cdc_dest", depth=256, width=32, targets=226, target_width=32,
    sync_length=2, slaves=1,
)
GBARE = DesignPoint(
    "global", depth=256, width=32, targets=226, target_width=32, slaves=1,
)
DIST = DesignPoint(
    "distributed", targets=226, target_width=32, sync_length=2, slaves=1,
)


def _report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_output_register_delta():
    def flipflops(topology):
        spec = make_spec(n_slaves=0, regs_per_slave=0, topology=topology,
                         global_depth=128, global_width=512, addr_width=16)
        return structural_counts(elaborate(spec)).flipflops

    structural = flipflops("global_registered") - flipflops("global")
    modeled = (
        estimate_registers(DesignPoint("global_registered", depth=128, width=512), CAL)
        - estimate_registers(DesignPoint("global", depth=128, width=512), CAL)
    )
    assert structural == 65_536
    assert modeled == 65_536
    _report(1, "128x512 output-register delta = 65,536 (structural and model, exact)")


def test_criterion_02_single_constant_hits_both_global_points():
    assert CAL.c_global == 66.0
    assert estimate_registers(GMAX, CAL) == 38_146
    assert estimate_registers(GBARE, CAL) == 8_258
    _report(2, "c_global=66 reproduces 8,258 and 38,146 registers exactly")


def test_criterion_03_distributed_point():
    assert CAL.c_distributed_per_slave == 267.0
    assert estimate_registers(DIST, CAL) == 7_499
    assert estimate_alms(DIST, CAL) == pytest.approx(2_556.0, rel=0.15)
    assert estimate_aluts(DIST, CAL) == pytest.approx(1_887.0, rel=0.10)
    _report(3, "distributed 226x32: 7,499 registers exact; ALM/ALUT in tolerance")


def test_criterion_04_ratio_claim():
    report = compare(DIST, GMAX, CAL)
    assert report.register_ratio == pytest.approx(0.197, abs=0.01)
    assert report.alm_ratio == pytest.approx(0.253, abs=0.03)
    _report(4, f"ratios registers={report.register_ratio:.3f}, alms={report.alm_ratio:.3f}")


def test_criterion_05_fmax_anchors_and_ordering():
    assert estimate_fmax(GMAX, CAL) == pytest.approx(140.0, abs=0.1)
    assert estimate_fmax(DIST, CAL) == pytest.approx(210.0, abs=0.1)
    points = 0
    for targets in range(26, 225, 22):
        for slaves in (1, 2):
            glob = DesignPoint(
                "global_cdc_dest", depth=1024, width=32, targets=targets,
                target_width=32, slaves=slaves,
            )
            dist = DesignPoint(
                "distributed", targets=targets, target_width=32, slaves=slaves,
            )
            assert estimate_fmax(dist, CAL) > estimate_fmax(glob, CAL)
            points += 1
    assert points == 20
    bundle = widest_unregistered_bundle(GMAX)
    assert fmax_from_bundle(2 * bundle, CAL) < fmax_from_bundle(bundle, CAL)
    _report(5, "anchors 140/210 MHz; distributed faster at all 20 sweep points; monotone")


def test_criterion_06_protocol_oracle_equivalence():
    rng = random.Random(0xC0FFEE)
    specs = [
        make_spec(n_slaves=2, regs_per_slave=8, periods=(10_000, 7_000)),
        make_spec(n_slaves=3, regs_per_slave=4, periods=(10_000, 7_000, 3_000)),
        make_spec(n_slaves=4, regs_per_slave=8, periods=(10_000, 4_000)),
    ]
    sizes = [10_000] * 3 + [2_000] * 25 + [500] * 72
    runs = 0
    accepted_total = 0
    for i in range(1_000):
        spec = specs[i % len(specs)]
        n_writes = sizes[i % len(sizes)] if i % 10 == 0 else rng.randrange(20, 400)
        script, until = random_script(spec, rng, n_writes, n_windows=rng.randrange(0, 6))
        sim = build_sim(spec)
        sim.run(script, until)
        mem = fold_oracle(spec, sim.trace)
        for s in spec.slaves:
            for r in s.registers:
                assert sim.backdoor_read(s.name, r.offset) == mem[(s.name, s.base_addr + r.offset)]
        assert sim.check_coherence() == []
        accepted_total += sum(1 for e in sim.trace if e.kind == "write_accepted")
        runs += 1
    assert runs == 1_000
    _report(6, f"1,000 random scripts: state == accepted-write fold, 0 violations "
               f"({accepted_total} writes)")


def test_criterion_07_checker_not_vacuous_under_fault():
    rng = random.Random(0xFA117)
    spec = make_spec(n_slaves=2, regs_per_slave=4, periods=(10_000, 3_000))
    flagged = 0
    for _ in range(100):
        w0 = rng.randrange(3, 40)
        span = rng.randrange(8, 20)
        slave = rng.choice(spec.slaves)
        inside_cycle = w0 + 4 + rng.randrange(0, span - 6)
        writes = [ScriptWrite(inside_cycle, slave.base_addr, rng.getrandbits(32))]
        for _ in range(rng.randrange(0, 6)):
            writes.append(ScriptWrite(rng.randrange(0, 2), slave.base_addr + 1,
                                      rng.getrandbits(32)))
        script = ProgramScript(
            writes=tuple(sorted(writes, key=lambda w: w.at_cycle)),
            busy_windows=(BusyWindow(slave.name, w0 * CFG, (w0 + span) * CFG),),
        )
        sim = build_sim(spec, fault_mode=True)
        sim.run(script, (w0 + span + 60) * CFG)
        violations = sim.check_coherence()
        assert any(v.kind == "busy_write" for v in violations), "checker missed a hazard"
        flagged += 1
    assert flagged == 100
    _report(7, "fault mode: all 100 adversarial runs produce >= 1 violation")


def test_criterion_08_dpr_isolation():
    rng = random.Random(0xD9)
    spec = make_spec(n_slaves=3, regs_per_slave=8, stride=8)
    for scenario in range(100):
        sim = build_sim(spec)
        script, until = random_script(spec, rng, rng.randrange(10, 80))
        sim.run(script, until)
        target = rng.choice(spec.slaves)
        others = [s.name for s in spec.slaves if s.name != target.name]
        before = {name: sim.slave_state_hash(name) for name in others}
        n_new = rng.randrange(1, 8)
        new_regs = tuple(
            SettingSpec(f"n{j}", j, rng.choice([8, 16, 32]), reset_value=0)
            for j in range(n_new)
        )
        sim.swap_module(target.name, new_regs)
        assert not any("swap_refused" in e.detail for e in sim.violation_events())
        for name in others:
            assert sim.slave_state_hash(name) == before[name]
        values = {j: rng.getrandbits(new_regs[j].width) for j in range(n_new)}
        writes = tuple(
            ScriptWrite(j, target.base_addr + j, values[j]) for j in range(n_new)
        )
        sim.run(ProgramScript(writes=writes), sim.time_ps + (n_new + 30) * CFG)
        for j in range(n_new):
            assert sim.backdoor_read(target.name, j) == values[j]
        for name in others:
            assert sim.slave_state_hash(name) == before[name]
    _report(8, "100 swap scenarios: reprogram exact, bystander slaves bit-identical")


def test_criterion_09_model_elaborator_exactness():
    rng = random.Random(0x5EED)
    topologies = ["global", "global_registered", "global_cdc_dest", "distributed"]
    checked = 0
    for trial in range(500):
        topology = topologies[trial % 4]
        targets = rng.randrange(0, 64)
        width = rng.choice([1, 4, 8, 16, 32])
        slaves = rng.randrange(1, 5) if topology == "distributed" else rng.randrange(0, 4)
        point = DesignPoint(
            topology,
            depth=max(2 * max(slaves, 1) * max(targets, 1), 2),
            width=width,
            targets=targets,
            target_width=width,
            sync_length=rng.choice([2, 3, 4]),
            slaves=slaves,
        )
        assert check_against_oracle(point, CAL) is None
        checked += 1
    assert checked == 500
    for point, message in OVER_CAPACITY:
        assert check_against_oracle(point, CAL) == message
    _report(
        9,
        "500 random points: register model == structural count + overhead and "
        "bundle width == widest unregistered bundle, exact; capacity errors match",
    )


def test_criterion_10_emitter_determinism_and_goldens():
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    names = sorted(p.stem for p in (golden / "specs").glob("*.json"))
    assert len(names) == 6
    for name in names:
        spec = load_spec(golden / "specs" / f"{name}.json")
        model = elaborate(spec)
        first = emit(model, spec)
        second = emit(elaborate(spec), spec)
        assert first == second
        expected = {
            p.name: p.read_text() for p in (golden / "expected" / name).glob("*.sv")
        }
        assert first == expected
    _report(10, "6-spec golden corpus byte-identical across emissions and goldens")


def test_criterion_11_linearity():
    regs_by_targets = [
        estimate_registers(
            DesignPoint("global_cdc_dest", depth=256, width=32,
                        targets=n, target_width=32, slaves=1),
            CAL,
        )
        for n in range(26, 227, 40)
    ]
    diffs = {b - a for a, b in zip(regs_by_targets, regs_by_targets[1:])}
    assert len(diffs) == 1  # exactly affine in the target count

    regs_by_slaves = [
        estimate_registers(
            DesignPoint("distributed", targets=64, target_width=32, slaves=s),
            CAL,
        )
        for s in range(1, 7)
    ]
    slope = {b - a for a, b in zip(regs_by_slaves, regs_by_slaves[1:])}
    assert slope == {64 * 32 + 267}
    _report(11, "register sequences exactly affine in target count and slave count")
