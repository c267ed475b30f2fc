import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regforge
from regforge import (
    CalibrationError,
    CapacityError,
    SpecError,
    UncalibratedError,
    calibrate,
    default_calibration,
)
from regforge import cost
from regforge.cost import (
    DEFAULT_CORPUS,
    POINT_FIELDS,
    DesignPoint,
    Measurement,
    alm_family,
    calibration_from_json,
    calibration_to_json,
    compare,
    estimate,
    estimate_alms,
    estimate_aluts,
    estimate_fmax,
    estimate_registers,
    fmax_from_bundle,
    load_calibration,
    save_calibration,
    sweep,
    sweep_to_csv,
    widest_unregistered_bundle,
)
from regforge.spec import GLOBAL_TOPOLOGIES, validate

from conftest import OVER_CAPACITY, capacity_messages, check_against_oracle, point_to_spec

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


@pytest.fixture(scope="module")
def cal():
    return default_calibration()


def test_register_overhead_constants(cal):
    assert cal.c_global == 66.0
    assert cal.c_distributed_per_slave == 267.0
    assert all(r == 0.0 for r in cal.register_residuals["global"])
    assert all(r == 0.0 for r in cal.register_residuals["distributed"])


def test_register_model_hits_measured_points(cal):
    assert estimate_registers(GMAX, cal) == 38_146
    assert estimate_registers(GBARE, cal) == 8_258
    assert estimate_registers(DIST, cal) == 7_499


def test_output_register_delta(cal):
    with_reg = DesignPoint("global_registered", depth=128, width=512)
    without = DesignPoint("global", depth=128, width=512)
    assert estimate_registers(with_reg, cal) - estimate_registers(without, cal) == 65_536


def test_alm_estimates_within_tolerance(cal):
    assert estimate_alms(GMAX, cal) == pytest.approx(10_099.1, rel=0.15)
    assert estimate_alms(GBARE, cal) == pytest.approx(2_710.5, rel=0.15)
    assert estimate_alms(DIST, cal) == pytest.approx(2_556.0, rel=0.15)


def test_alut_estimates_within_tolerance(cal):
    assert estimate_aluts(GMAX, cal) == pytest.approx(1_925.0, rel=0.10)
    assert estimate_aluts(GBARE, cal) == pytest.approx(1_913.0, rel=0.10)
    assert estimate_aluts(DIST, cal) == pytest.approx(1_887.0, rel=0.10)


def test_memory_only_alm_family(cal):
    with_reg = DesignPoint("global_registered", depth=128, width=512, slaves=0)
    without = DesignPoint("global", depth=128, width=512, slaves=0)
    assert estimate_alms(with_reg, cal) == pytest.approx(36_024.1, rel=1e-6)
    assert estimate_alms(without, cal) == pytest.approx(25_731.5, rel=1e-6)


def test_fmax_anchors(cal):
    assert estimate_fmax(GMAX, cal) == pytest.approx(140.0, abs=0.01)
    assert estimate_fmax(DIST, cal) == pytest.approx(210.0, abs=0.01)


def test_fmax_monotone_decreasing(cal):
    bundle = widest_unregistered_bundle(GMAX)
    assert fmax_from_bundle(2 * bundle, cal) < fmax_from_bundle(bundle, cal)
    samples = [fmax_from_bundle(b, cal) for b in range(0, 20_000, 500)]
    assert all(a > b for a, b in zip(samples, samples[1:]))


def test_fmax_orders_distributed_above_centralized(cal):
    for targets in range(26, 227, 40):
        for slaves in (1, 2):
            glob = DesignPoint(
                "global_cdc_dest", depth=512, width=32, targets=targets,
                target_width=32, slaves=slaves,
            )
            dist = DesignPoint(
                "distributed", targets=targets, target_width=32, slaves=slaves,
            )
            assert estimate_fmax(dist, cal) > estimate_fmax(glob, cal)


@pytest.mark.parametrize("name", list(POINT_FIELDS))
def test_point_field_below_bound_raises(name):
    attr, low = POINT_FIELDS[name]
    with pytest.raises(SpecError, match=f"^point field {name} must be >= {low}, got {low - 1}$"):
        DesignPoint("distributed", **{attr: low - 1})
    assert getattr(DesignPoint("distributed", **{attr: low}), attr) == low


def test_unknown_topology_raises():
    message = (r"^unknown topology 'bogus', expected one of global, global_registered, "
               r"global_cdc_dest, distributed$")
    with pytest.raises(SpecError, match=message):
        DesignPoint("bogus", depth=8, width=8, targets=2, target_width=4)
    with pytest.raises(SpecError, match=message):
        DesignPoint("bogus", targets=2)


def test_cdc_point_needs_two_sync_stages():
    message = "^sync_length must be >= 2 when crossing clock domains$"
    with pytest.raises(SpecError, match=message):
        DesignPoint("global_cdc_dest", depth=256, width=32, targets=226, sync_length=1)
    # L = 1 is the lowest bound on a topology that crosses no clock domain
    for topology in ("global", "global_registered", "distributed"):
        assert DesignPoint(topology, sync_length=1).sync_length == 1
    # the POINT_FIELDS bound is reported first
    with pytest.raises(SpecError, match="^point field L must be >= 1, got 0$"):
        DesignPoint("global_cdc_dest", sync_length=0)


def test_calibration_json_rejects_unknown_topology(cal):
    doc = json.loads(calibration_to_json(cal))
    doc["corpus"][0]["point"]["topology"] = "distrbuted"
    with pytest.raises(SpecError,
                       match=r"^\$\.corpus\[0\]\.point: unknown topology 'distrbuted', "):
        calibration_from_json(json.dumps(doc))


def test_estimate_computes_each_term_once(cal, monkeypatch):
    calls = {"estimate_registers": 0, "estimate_aluts": 0}
    for name in calls:
        original = getattr(cost, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cost, name, counted)
    result = estimate(GMAX, cal)
    assert calls == {"estimate_registers": 1, "estimate_aluts": 1}
    assert result.alms == estimate_alms(GMAX, cal)


def test_point_to_spec_is_valid_and_matches_structure():
    for point in (GMAX, GBARE, DIST):
        spec = point_to_spec(point)
        assert validate(spec).ok
        assert spec.total_setting_bits == point.slaves * point.targets * point.target_width


def test_exactness_against_structural_oracle(cal):
    for point, message in OVER_CAPACITY:
        assert check_against_oracle(point, cal) == message
    rng = random.Random(4242)
    topologies = ["global", "global_registered", "global_cdc_dest", "distributed"]
    fitted = misfits = 0
    for trial in range(240):
        topology = topologies[trial % 4]
        targets = rng.randrange(0, 40)
        target_width = rng.choice([1, 3, 8, 16, 32])
        slaves = rng.randrange(0 if topology != "distributed" else 1, 5)
        words = slaves * targets
        point = DesignPoint(
            topology,
            depth=rng.choice([2 * max(words, 1), words, max(words - 1, 0)]),
            width=rng.choice([target_width, target_width + 7, target_width - 1]),
            targets=targets,
            target_width=target_width,
            sync_length=rng.choice([2, 3]),
            slaves=slaves,
        )
        if check_against_oracle(point, cal) is None:
            fitted += 1
        else:
            misfits += 1
    assert fitted >= 150 and misfits >= 20


def test_capacity_error_is_the_validate_diagnostic():
    # widest_unregistered_bundle refuses exactly the centralized points whose
    # spec validate reports as global_capacity, with the same message
    rng = random.Random(1414)
    refused = 0
    for _ in range(1000):
        point = DesignPoint(
            rng.choice(GLOBAL_TOPOLOGIES),
            depth=rng.randint(0, 12),
            width=rng.randint(0, 12),
            targets=rng.randint(0, 6),
            target_width=rng.randint(1, 12),
            sync_length=rng.randint(2, 3),
            slaves=rng.randint(0, 3),
        )
        capacity = capacity_messages(point_to_spec(point))
        try:
            widest_unregistered_bundle(point)
        except CapacityError as exc:
            assert [str(exc)] == capacity, point
            refused += 1
        else:
            assert capacity == [], point
    assert 200 <= refused <= 800


def test_affine_in_each_knob(cal):
    def regs(**kw):
        return estimate_registers(DesignPoint("global_cdc_dest", **kw), cal)

    base = dict(depth=64, width=32, targets=10, target_width=32, slaves=1)
    d1 = regs(**{**base, "targets": 11}) - regs(**base)
    d2 = regs(**{**base, "targets": 12}) - regs(**{**base, "targets": 11})
    assert d1 == d2 == 32 * 3  # w * (L + 1)

    s1 = regs(**{**base, "slaves": 2}) - regs(**base)
    s2 = regs(**{**base, "slaves": 3}) - regs(**{**base, "slaves": 2})
    assert s1 == s2

    m1 = regs(**{**base, "depth": 65}) - regs(**base)
    assert m1 == 32 * 2  # W * (1 + output stage)


def test_calibrate_rejects_empty_corpus():
    with pytest.raises(CalibrationError):
        calibrate([])


def test_calibrate_single_distributed_point():
    cal = calibrate([(DIST, Measurement(registers=7_499))])
    assert cal.c_distributed_per_slave == 267.0


def test_calibrate_global_constant_from_two_points():
    cal = calibrate(
        [
            (GMAX, Measurement(registers=38_146)),
            (GBARE, Measurement(registers=8_258)),
        ]
    )
    assert cal.c_global == 66.0
    assert cal.register_residuals["global"] == [0.0, 0.0]


def test_uncalibrated_family_raises():
    cal = calibrate([(GMAX, Measurement(registers=38_146, alms=10_099.1, aluts=1_925.0))])
    with pytest.raises(UncalibratedError):
        estimate_registers(DIST, cal)
    with pytest.raises(UncalibratedError):
        estimate_aluts(DIST, cal)
    with pytest.raises(UncalibratedError):
        estimate_fmax(GMAX, cal)


def test_sweep_rows_and_csv(cal):
    rows = sweep(cal, ["distributed"], targets=list(range(26, 227, 40)), slaves=[1])
    assert len(rows) == 6
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "topology,D,W,N_t,w,L,S,registers,alms,aluts,fmax_mhz"
    assert len(lines) == 7

    # Every topology, plus odd widths, L=3 and N_t=0 / S=0 points: the table
    # must not change by a byte.
    rows = sweep(
        cal, ["global", "global_registered", "global_cdc_dest", "distributed"],
        depths=[512], widths=[32], targets=list(range(26, 227, 40)), slaves=[1, 2],
    )
    rows += sweep(
        cal, ["distributed"], targets=[0, 4, 9], slaves=[0, 1, 3],
        target_width=7, sync_length=3,
    )
    assert len(rows) == 57
    digest = hashlib.sha256(sweep_to_csv(rows).encode()).hexdigest()
    assert digest == "2d249dbeca43d2b4a6ba4139ab4a02464bb44873b3b89d7f5f482e81af6e1be3"


def test_sweep_register_columns_affine(cal):
    rows = sweep(
        cal, ["global_cdc_dest"], depths=[256], widths=[32],
        targets=list(range(26, 227, 40)),
    )
    regs = [r.estimate.registers for r in rows]
    diffs = {b - a for a, b in zip(regs, regs[1:])}
    assert len(diffs) == 1
    assert diffs.pop() == 40 * 32 * 3

    rows = sweep(cal, ["distributed"], targets=[64], slaves=[1, 2, 3, 4])
    regs = [r.estimate.registers for r in rows]
    diffs = {b - a for a, b in zip(regs, regs[1:])}
    assert diffs == {64 * 32 + 267}


def test_compare_ratios(cal):
    report = compare(DIST, GMAX, cal)
    assert report.register_ratio == pytest.approx(0.197, abs=0.01)
    assert report.alm_ratio == pytest.approx(0.253, abs=0.03)
    text = report.as_text()
    assert "registers" in text and "0.19" in text


def test_global_grid_bilinear_in_depth_and_width(cal):
    def regs(depth, width):
        return estimate_registers(
            DesignPoint("global", depth=depth, width=width), cal
        )

    for width in (8, 16, 32):
        col = [regs(d, width) for d in (16, 32, 64, 128)]
        steps = [b - a for a, b in zip(col, col[1:])]
        assert steps == [16 * width, 32 * width, 64 * width]
    assert regs(0, 0) == 66  # overhead constant alone


def test_compare_zero_target_points_is_overhead_ratio(cal):
    glob = DesignPoint("global", depth=0, width=0, targets=0, slaves=0)
    dist = DesignPoint("distributed", targets=0, slaves=1)
    report = compare(dist, glob, cal)
    assert report.register_ratio == pytest.approx(267.0 / 66.0)


def test_compare_point_with_itself(cal):
    report = compare(DIST, DIST, cal)
    assert report.register_ratio == 1.0
    assert report.alm_ratio == 1.0
    assert report.alut_ratio == 1.0


def test_calibration_json_round_trip(cal, tmp_path):
    path = tmp_path / "cal.json"
    save_calibration(cal, path)
    loaded = load_calibration(path)
    assert loaded == cal
    assert loaded.c_global == cal.c_global
    assert loaded.alm_coeffs == cal.alm_coeffs
    assert loaded.fmax_b0 == cal.fmax_b0
    assert estimate(GMAX, loaded) == estimate(GMAX, cal)
    assert calibration_from_json(calibration_to_json(loaded)).corpus == cal.corpus


def test_calibration_json_round_trips_perturbed_corpora():
    rng = random.Random(20200)
    fitted = 0
    for _ in range(200):
        subset = [entry for entry in DEFAULT_CORPUS if rng.random() < 0.6]
        subset = subset or [rng.choice(DEFAULT_CORPUS)]
        corpus = []
        for point, measured in subset:
            scaled = {
                name: None if value is None else value * rng.uniform(0.9, 1.1)
                for name, value in vars(measured).items()
            }
            if scaled["registers"] is not None:
                scaled["registers"] = round(scaled["registers"])
            corpus.append((point, Measurement(**scaled)))
        try:
            c = calibrate(corpus)
        except CalibrationError as exc:
            # only a memory-only ALM point can miss a measurement its fit
            # needs: the centralized registers of DEFAULT_CORPUS[0] and [1]
            assert not any(m.registers is not None for p, m in corpus
                           if p.topology != "distributed")
            index = next(i for i, (p, _) in enumerate(corpus) if alm_family(p) == "global_memory")
            assert str(exc) == (
                f"corpus entry {index} measures ALMs, which are fitted on its register and "
                "ALUT estimates: no centralized register datapoints in calibration"
            )
            continue
        fitted += 1
        assert calibration_from_json(calibration_to_json(c)) == c
    assert fitted > 150


def test_default_corpus_registers_are_consistent(cal):
    for point, measured in DEFAULT_CORPUS:
        if measured.registers is not None:
            assert estimate_registers(point, cal) == measured.registers


def test_import_loads_no_numpy():
    src = pathlib.Path(regforge.__file__).resolve().parents[1]
    code = (
        "import sys, regforge, regforge.cli; regforge.default_calibration(); "
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# the exact minimum-norm least-squares fit


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _null_space(rows):
    """An exact basis of {v : rows @ v = 0} for rows of 3 rationals."""
    nonzero = [r for r in rows if any(r)]
    if not nonzero:
        return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    normal = next((c for u in nonzero for v in nonzero if any(c := _cross(u, v))), None)
    if normal is not None:  # rank 2 or 3
        return [normal] if all(_dot(r, normal) == 0 for r in rows) else []
    # rank 1: the plane orthogonal to the one row direction
    spanning = [c for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if any(c := _cross(nonzero[0], e))]
    return [spanning[0], next(v for v in spanning if any(_cross(spanning[0], v)))]


_ENTRY = st.integers(-16, 16).map(lambda k: k / 4)
# measurement-like values; tiny ones would underflow the relative bounds below
_VALUE = st.floats(-1e4, 1e4, allow_nan=False).filter(lambda v: v == 0 or abs(v) >= 1e-6)


@st.composite
def _systems(draw):
    """1-6 rows of 2-3 columns, sometimes with a repeated row or a zero column."""
    cols = draw(st.integers(2, 3))
    n = draw(st.integers(1, 6))
    rows = [[draw(_ENTRY) for _ in range(cols)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = list(rows[0])
    if draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        for row in rows:
            row[zero] = 0.0
    values = [draw(_VALUE) for _ in range(n)]
    return [tuple(r) for r in rows], values


@settings(max_examples=300)
@given(_systems())
@example(([(1.0, 2.0, 3.0)], [5.0]))  # a single row
@example(([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)], [1925.0, 1913.0]))  # repeated rows
@example(([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)], [1.0, 2.0, 2.0]))  # zero column
@example(([(0.0, 0.0), (0.0, 0.0)], [3.0, -1.0]))  # all zero
def test_lstsq_fit_is_the_min_norm_least_squares_solution(system):
    rows, values = system
    coeffs, residuals = cost._lstsq_fit(rows, values)
    assert len(coeffs) == len(rows[0]) and len(residuals) == len(rows)
    terms = [[a * x for a, x in zip(row, coeffs)] for row in rows]
    scale = [math.fsum(map(abs, t)) + abs(y) for t, y in zip(terms, values)]
    r = [math.fsum(t + [-y]) for t, y in zip(terms, values)]
    for got, want, size in zip(residuals, r, scale):
        assert abs(got - want) <= 1e-12 * size
    # least squares: A^T (A x - y) = 0
    for j in range(len(coeffs)):
        gradient = math.fsum(row[j] * ri for row, ri in zip(rows, r))
        bound = math.fsum(abs(row[j]) * size for row, size in zip(rows, scale))
        assert abs(gradient) <= 1e-12 * bound
    # minimum norm: x is orthogonal to A's null space, so it lies in the row space
    padded = [[Fraction(v) for v in row] + [Fraction(0)] * (3 - len(row)) for row in rows]
    x = list(coeffs) + [0.0] * (3 - len(coeffs))
    for n in _null_space(padded):
        n = [float(v) for v in n]
        assert abs(_dot(x, n)) <= 1e-12 * math.hypot(*x) * math.hypot(*n)


def test_shipped_global_alut_fit_splits_the_two_measurements(cal):
    # GMAX and GBARE share their ALUT features, so the fit lands on their mean
    assert cal.alut_residuals["global"] == [-6.0, 6.0]
    assert estimate_aluts(GMAX, cal) == estimate_aluts(GBARE, cal)
    assert estimate_aluts(GMAX, cal) == pytest.approx(1_919.0, rel=1e-12)


def test_shipped_underdetermined_fits_interpolate_exactly(cal):
    assert cal.alut_residuals["distributed"] == [0.0]
    assert all(r == 0.0 for family in cal.alm_residuals.values() for r in family)


def test_shipped_fmax_fit_reproduces_both_anchors(cal):
    assert estimate_fmax(GMAX, cal) == pytest.approx(140.0, rel=1e-12)
    assert estimate_fmax(DIST, cal) == pytest.approx(210.0, rel=1e-12)
    assert all(abs(r) <= 1e-12 for r in cal.fmax_residuals)
