"""Resource and speed estimation for the supported storage architectures.

The register model is closed-form and exact: it mirrors the structural
flip-flop count of the elaborated design plus a calibrated technology
overhead constant.  ALM and combinational-ALUT models are affine
least-squares fits per architecture family, because packing density
differs between a bare deep memory, a memory fanned out through routing
register stages, and distributed per-slave banks.  The speed heuristic
is a monotone-decreasing function of the widest routed bundle that is
not broken by a register stage at both ends, also in closed form and
exact against the elaborated design; it is an ordering model anchored at
measured points, not a timing analyzer.

The shipped default calibration was fitted against Cyclone V synthesis
measurements of reference designs (a 256x32 central memory feeding 226
32-bit settings, the equivalent distributed design, and a 128x512
memory-only sweep).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

from .errors import CalibrationError, CapacityError, SpecError, UncalibratedError
from .fields import (
    ROOT,
    format_path,
    load_document,
    objects,
    read_int,
    read_list,
    read_number,
    read_obj,
    read_str,
    reject_unknown,
    write_text,
)
from .spec import TOPOLOGY_FLAGS, ElaborationOptions, capacity_problem, sync_length_problem

# Short name -> (DesignPoint field, lowest value) of each numeric point
# field: the bounds spec.validate applies to memory dimensions, setting
# widths and synchronizer lengths.
POINT_FIELDS = {
    "D": ("depth", 0),
    "W": ("width", 0),
    "N_t": ("targets", 0),
    "w": ("target_width", 1),
    "L": ("sync_length", 1),
    "S": ("slaves", 0),
}


def check_point_field(name: str, value: int) -> None:
    """Raise :class:`SpecError` if ``value`` is below the bound of the
    :data:`POINT_FIELDS` entry ``name``."""
    low = POINT_FIELDS[name][1]
    if value < low:
        raise SpecError(f"point field {name} must be >= {low}, got {value}")


SWEEP_CSV_HEADER = ",".join(
    ("topology", *POINT_FIELDS, "registers", "alms", "aluts", "fmax_mhz")
)

ALM_FAMILIES = ("global_memory", "global_targets", "distributed")
ALUT_FAMILIES = ("global", "distributed")


@dataclass(frozen=True)
class DesignPoint:
    """One architecture configuration for estimation.

    ``depth``/``width`` size the central memory (unused when
    distributed); each of ``slaves`` slave blocks consumes ``targets``
    settings of ``target_width`` bits.  The topology alone picks the
    register stages.  Numeric fields below their :data:`POINT_FIELDS`
    bound raise :class:`SpecError`, as does a ``sync_length`` that
    :func:`~regforge.spec.validate` rejects for the topology.
    """

    topology: str
    depth: int = 0
    width: int = 0
    targets: int = 0
    target_width: int = 32
    sync_length: int = 2
    slaves: int = 1

    def __post_init__(self):
        ElaborationOptions.for_topology(self.topology)
        for name, (attr, _) in POINT_FIELDS.items():
            check_point_field(name, getattr(self, attr))
        problem = sync_length_problem(self.topology, self.sync_length)
        if problem is not None:
            raise SpecError(problem)


@dataclass(frozen=True)
class Measurement:
    """Synthesis results for one design point; unknown metrics are None."""

    registers: int | None = None
    alms: float | None = None
    aluts: float | None = None
    fmax_mhz: float | None = None


@dataclass(frozen=True)
class ResourceEstimate:
    registers: int
    alms: float
    aluts: float
    fmax_mhz: float


@dataclass(frozen=True)
class Calibration:
    c_global: float | None = None
    c_distributed_per_slave: float | None = None
    register_residuals: dict = field(default_factory=dict)
    alm_coeffs: dict = field(default_factory=dict)
    alm_residuals: dict = field(default_factory=dict)
    alut_coeffs: dict = field(default_factory=dict)
    alut_residuals: dict = field(default_factory=dict)
    fmax_f0: float | None = None
    fmax_b0: float | None = None
    fmax_anchors: tuple = ()
    fmax_residuals: tuple = ()
    corpus: tuple = ()


# --------------------------------------------------------------------------
# Register model


def _is_distributed(point: DesignPoint) -> bool:
    return TOPOLOGY_FLAGS[point.topology].distributed


def core_registers(point: DesignPoint) -> int:
    """Structural flip-flop count implied by the point's formula.

    Centralized: depth*width storage (doubled by the output stage) plus
    ``L + 1`` flip-flops per setting bit (synchronizer and destination
    stages) when the topology crosses clock domains.  Distributed: the
    per-slave settings bits (ready/busy-sync flip-flops are part of the
    per-slave overhead constant).
    """
    setting_bits = point.slaves * point.targets * point.target_width
    if _is_distributed(point):
        return setting_bits
    stages = ElaborationOptions.for_topology(point.topology)
    memory = point.depth * point.width * (2 if stages.output_registered else 1)
    if stages.cdc:
        return memory + setting_bits * (point.sync_length + 1)
    return memory


def register_overhead(point: DesignPoint, cal: Calibration) -> float:
    """Model registers minus elaborated structural flip-flops.

    For distributed designs the per-slave constant already covers the
    explicitly modeled ready register and busy synchronizer (1 + L
    flip-flops each), so the remaining unmodeled overhead is
    ``slaves * (c - 1 - L)``.
    """
    if _is_distributed(point):
        c = _require_c_dist(cal)
        return point.slaves * (c - 1 - point.sync_length)
    return _require_c_global(cal)


def _require_c_global(cal: Calibration) -> float:
    if cal.c_global is None:
        raise UncalibratedError("no centralized register datapoints in calibration")
    return cal.c_global


def _require_c_dist(cal: Calibration) -> float:
    if cal.c_distributed_per_slave is None:
        raise UncalibratedError("no distributed register datapoints in calibration")
    return cal.c_distributed_per_slave


def estimate_registers(point: DesignPoint, cal: Calibration) -> int:
    if _is_distributed(point):
        c = _require_c_dist(cal)
        return int(round(core_registers(point) + point.slaves * c))
    return int(round(core_registers(point) + _require_c_global(cal)))


# --------------------------------------------------------------------------
# ALUT / ALM models


def addressed_words(point: DesignPoint) -> int:
    """Words the write decoder must resolve (memory depth or bank words)."""
    if _is_distributed(point):
        return point.slaves * point.targets
    return point.depth


def _alut_family(point: DesignPoint) -> str:
    return "distributed" if _is_distributed(point) else "global"


def alm_family(point: DesignPoint) -> str:
    if _is_distributed(point):
        return "distributed"
    if point.slaves * point.targets == 0:
        return "global_memory"
    return "global_targets"


def _alut_features(point: DesignPoint) -> tuple[float, float, float]:
    return (float(addressed_words(point)), float(point.slaves * point.targets), 1.0)


def _affine(coeffs, features: tuple[float, float, float]) -> float:
    """``coeffs . features``, summed left to right, floored at zero."""
    a, b, c = coeffs
    x, y, z = features
    return max(0.0, a * x + b * y + c * z)


def estimate_aluts(point: DesignPoint, cal: Calibration) -> float:
    coeffs = cal.alut_coeffs.get(_alut_family(point))
    if coeffs is None:
        raise UncalibratedError(f"no ALUT fit for family {_alut_family(point)!r}")
    return _affine(coeffs, _alut_features(point))


def estimate_alms(point: DesignPoint, cal: Calibration) -> float:
    return _alms(point, cal, estimate_registers(point, cal), estimate_aluts(point, cal))


def _alms(point: DesignPoint, cal: Calibration, registers: int, aluts: float) -> float:
    """ALMs from the point's already estimated registers and ALUTs."""
    family = alm_family(point)
    coeffs = cal.alm_coeffs.get(family)
    if coeffs is None:
        raise UncalibratedError(f"no ALM fit for family {family!r}")
    return _affine(coeffs, (float(registers), aluts, 1.0))


# --------------------------------------------------------------------------
# Speed heuristic


def _ceil_log2(n: int) -> int:
    return max(1, (max(n, 1) - 1).bit_length())


def _select_bits(slaves: int) -> int:
    return (slaves - 1).bit_length() if slaves > 1 else 0


def widest_unregistered_bundle(point: DesignPoint) -> int:
    """Widest bundle of the point's elaborated design that is not
    registered at both ends, in closed form.

    The point's design has ``S`` slaves of ``N_t`` settings of ``w' =
    max(w, 1)`` bits each (settings are at least one bit wide), packed at
    slave strides of ``2^ceil_log2(N_t)`` words on a ``w'``-bit bus:

    * distributed: 0 when ``S*N_t == 0``, else the shared bus bundle
      ``sel + ceil_log2(N_t) + w' + 1 + S`` (address, data, write and
      one-hot select), where ``sel = bit_length(S - 1)`` for ``S > 1``
      and 0 otherwise, and ``ceil_log2`` is at least 1;
    * centralized: raises :class:`CapacityError` with the message of the
      ``global_capacity`` diagnostic that :func:`~regforge.spec.validate`
      reports for that design (:func:`~regforge.spec.capacity_problem`),
      then takes the larger of the memory word ``W`` (the bus-to-memory
      bundle, present when ``D*W > 0``) and the per-slave fan-out
      ``N_t*w'`` (present when ``S*N_t > 0``).  Every topology's fan-out
      ends at a pin mux or a synchronizer chain, so it always counts; the
      ``mem -> mem_out`` pipe is registered at both ends and never counts,
      so the stages do not change the width.

    This equals ``structural_counts(...).max_unregistered_bundle_bits`` of
    that design elaborated for the point's topology; the tests build the
    design as a spec and hold the two against each other.
    """
    width = max(point.target_width, 1)
    words = point.slaves * point.targets
    if _is_distributed(point):
        if words == 0:
            return 0
        return (
            _select_bits(point.slaves) + _ceil_log2(point.targets) + width + 1
            + point.slaves
        )
    memory_bits = point.depth * point.width
    problem = capacity_problem(
        point.depth, point.width, words * width, words, width if words > 0 else 0
    )
    if problem is not None:
        raise CapacityError(problem)
    widest = point.width if memory_bits > 0 else 0
    if words > 0:
        widest = max(widest, point.targets * width)
    return widest


def estimate_fmax(point: DesignPoint, cal: Calibration) -> float:
    """Speed from the widest routed bundle without registers at both
    ends: ``f0 / (1 + bits/b0)``, strictly decreasing in the bundle
    width.  Distributed designs route only the narrow configuration bus,
    so they rank above any centralized design whose per-slave settings
    exceed that bus width.
    """
    return fmax_from_bundle(widest_unregistered_bundle(point), cal)


def fmax_from_bundle(bundle_bits: int, cal: Calibration) -> float:
    if cal.fmax_f0 is None or cal.fmax_b0 is None:
        raise UncalibratedError("no fmax anchors in calibration")
    return cal.fmax_f0 / (1.0 + bundle_bits / cal.fmax_b0)


def estimate(point: DesignPoint, cal: Calibration) -> ResourceEstimate:
    registers = estimate_registers(point, cal)
    aluts = estimate_aluts(point, cal)
    return ResourceEstimate(
        registers=registers,
        alms=_alms(point, cal, registers, aluts),
        aluts=aluts,
        fmax_mhz=estimate_fmax(point, cal),
    )


# --------------------------------------------------------------------------
# Calibration


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _row_reduce(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of ``matrix``: its nonzero rows and the
    column index of each row's pivot.  Exact, so the rank is exact."""
    rows = list(matrix)
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(width):
        rank = len(pivots)
        lead = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if lead is None:
            continue
        rows[rank], rows[lead] = rows[lead], rows[rank]
        pivot_row = [v / rows[rank][col] for v in rows[rank]]
        rows[rank] = pivot_row
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                factor = row[col]
                rows[i] = [v - factor * p for v, p in zip(row, pivot_row)]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def _solve_gram(vectors: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve ``G w = rhs`` for the Gram matrix ``G[i][j] = vectors[i] .
    vectors[j]`` of linearly independent ``vectors``."""
    augmented = [[_dot(u, v) for v in vectors] + [b] for u, b in zip(vectors, rhs)]
    reduced, _ = _row_reduce(augmented)
    return [row[-1] for row in reduced]


def _lstsq_fit(rows: list[tuple[float, ...]], values: list[float]):
    """Minimum-norm least-squares coefficients ``x`` of ``rows @ x ~ values``
    and the residuals ``rows @ x - values``.

    The float inputs are taken exactly and solved in rational arithmetic
    through the full-rank factorization ``A = C R`` (``R`` the nonzero rows
    of A's reduced row echelon form, ``C`` A's pivot columns):
    ``x = R^T (R R^T)^-1 (C^T C)^-1 C^T y``.  Each coefficient and residual
    is rounded to float once.  A rank-deficient ``A`` (duplicated rows, a
    zero column) therefore needs no cut-off, and an under-determined
    system is interpolated exactly.
    """
    a = [[Fraction(v) for v in row] for row in rows]
    y = [Fraction(v) for v in values]
    r, pivots = _row_reduce(a)
    pivot_columns = [[row[j] for row in a] for j in pivots]
    u = _solve_gram(pivot_columns, [_dot(col, y) for col in pivot_columns])
    z = _solve_gram(r, u)
    x = [_dot(z, col) for col in zip(*r)] if r else [Fraction(0)] * len(a[0])
    residuals = [float(_dot(row, x) - target) for row, target in zip(a, y)]
    return tuple(float(c) for c in x), residuals


def calibrate(datapoints: list[tuple[DesignPoint, Measurement]]) -> Calibration:
    """Fit every model family represented in the corpus.

    Register overheads are means of measured-minus-structural residuals.
    ALUT and ALM coefficients, and the speed curve's two parameters, are
    the exact minimum-norm least-squares solution of the float inputs,
    rounded once to float (:func:`_lstsq_fit`), so under-determined
    families interpolate their datapoints exactly.  The speed curve
    needs at least two anchors with distinct bundle widths.
    """
    if not datapoints:
        raise CalibrationError("empty calibration corpus")

    c_global = None
    c_dist = None
    register_residuals: dict = {}

    global_regs = [
        (p, m) for p, m in datapoints
        if not _is_distributed(p) and m.registers is not None
    ]
    if global_regs:
        gaps = [m.registers - core_registers(p) for p, m in global_regs]
        c_global = sum(gaps) / len(gaps)
        register_residuals["global"] = [float(g - c_global) for g in gaps]

    dist_regs = [
        (p, m) for p, m in datapoints
        if _is_distributed(p) and m.registers is not None and p.slaves > 0
    ]
    if dist_regs:
        gaps = [(m.registers - core_registers(p)) / p.slaves for p, m in dist_regs]
        c_dist = sum(gaps) / len(gaps)
        register_residuals["distributed"] = [
            float((g - c_dist) * p.slaves) for g, (p, _) in zip(gaps, dist_regs)
        ]

    partial = Calibration(c_global=c_global, c_distributed_per_slave=c_dist)

    alut_coeffs: dict = {}
    alut_residuals: dict = {}
    for family in ALUT_FAMILIES:
        pts = [
            (p, m) for p, m in datapoints
            if _alut_family(p) == family and m.aluts is not None
        ]
        if pts:
            coeffs, residuals = _lstsq_fit(
                [_alut_features(p) for p, _ in pts], [m.aluts for _, m in pts]
            )
            alut_coeffs[family] = coeffs
            alut_residuals[family] = residuals

    partial = replace(partial, alut_coeffs=alut_coeffs, alut_residuals=alut_residuals)

    alm_coeffs: dict = {}
    alm_residuals: dict = {}
    for family in ALM_FAMILIES:
        pts = [
            (i, p, m) for i, (p, m) in enumerate(datapoints)
            if alm_family(p) == family and m.alms is not None
        ]
        if not pts:
            continue
        rows = []
        for i, p, _ in pts:
            try:
                registers = float(estimate_registers(p, partial))
                rows.append((registers, estimate_aluts(p, partial), 1.0))
            except UncalibratedError as exc:
                raise CalibrationError(
                    f"corpus entry {i} measures ALMs, which are fitted on its register "
                    f"and ALUT estimates: {exc}"
                ) from None
        coeffs, residuals = _lstsq_fit(rows, [m.alms for _, _, m in pts])
        alm_coeffs[family] = coeffs
        alm_residuals[family] = residuals

    fmax_pts = [(p, m) for p, m in datapoints if m.fmax_mhz is not None]
    fmax_f0 = fmax_b0 = None
    anchors: list[tuple[float, float]] = []
    fmax_residuals: list[float] = []
    if fmax_pts:
        anchors = sorted(
            (float(widest_unregistered_bundle(p)), float(m.fmax_mhz))
            for p, m in fmax_pts
        )
        bundles = [b for b, _ in anchors]
        if len(set(bundles)) >= 2:
            # 1/f is affine in the bundle width for f = f0 / (1 + B/b0)
            (alpha, beta), _ = _lstsq_fit(
                [(1.0, b) for b, _ in anchors], [1.0 / f for _, f in anchors]
            )
            if alpha <= 0 or beta <= 0:
                raise CalibrationError(
                    "fmax anchors are not decreasing in bundle width"
                )
            fmax_f0 = 1.0 / alpha
            fmax_b0 = alpha / beta
            fmax_residuals = [
                fmax_f0 / (1.0 + b / fmax_b0) - f for b, f in anchors
            ]

    return Calibration(
        c_global=c_global,
        c_distributed_per_slave=c_dist,
        register_residuals=register_residuals,
        alm_coeffs=alm_coeffs,
        alm_residuals=alm_residuals,
        alut_coeffs=alut_coeffs,
        alut_residuals=alut_residuals,
        fmax_f0=fmax_f0,
        fmax_b0=fmax_b0,
        fmax_anchors=tuple(anchors),
        fmax_residuals=tuple(fmax_residuals),
        corpus=tuple(datapoints),
    )


# --------------------------------------------------------------------------
# Shipped corpus

# Cyclone V synthesis measurements of the reference designs.  The two
# memory-only ALM figures are reconstructed from the measured sweep facts
# (adding the output stage to the 128x512 memory costs 10292.6 ALMs, an
# increase of about 40%).
DEFAULT_CORPUS: tuple[tuple[DesignPoint, Measurement], ...] = (
    (
        DesignPoint(
            "global_cdc_dest", depth=256, width=32, targets=226, target_width=32,
            sync_length=2, slaves=1,
        ),
        Measurement(registers=38146, alms=10099.1, aluts=1925.0, fmax_mhz=140.0),
    ),
    (
        DesignPoint(
            "global", depth=256, width=32, targets=226, target_width=32, slaves=1,
        ),
        Measurement(registers=8258, alms=2710.5, aluts=1913.0),
    ),
    (
        DesignPoint(
            "distributed", targets=226, target_width=32, sync_length=2, slaves=1,
        ),
        Measurement(registers=7499, alms=2556.0, aluts=1887.0, fmax_mhz=210.0),
    ),
    (
        DesignPoint("global_registered", depth=128, width=512, targets=0, slaves=0),
        Measurement(alms=36024.1),
    ),
    (
        DesignPoint("global", depth=128, width=512, targets=0, slaves=0),
        Measurement(alms=25731.5),
    ),
)


@lru_cache(maxsize=1)
def default_calibration() -> Calibration:
    return calibrate(list(DEFAULT_CORPUS))


# --------------------------------------------------------------------------
# Sweeps and comparison


@dataclass(frozen=True)
class SweepRow:
    point: DesignPoint
    estimate: ResourceEstimate


def sweep(
    cal: Calibration,
    topologies: list[str],
    depths: list[int] = (0,),
    widths: list[int] = (0,),
    targets: list[int] = (0,),
    slaves: list[int] = (1,),
    target_width: int = 32,
    sync_length: int = 2,
) -> list[SweepRow]:
    """Estimate every point of the cartesian sweep, in a stable order.

    A distributed design has no central memory, so its points take D = W
    = 0 and appear once per (N_t, S), not once per swept D and W.  All
    points are built, so checked, before the first is estimated.
    """
    memories = [(depth, width) for depth in depths for width in widths]
    points = []
    for topology in topologies:
        row = TOPOLOGY_FLAGS.get(topology)  # None raises in DesignPoint below
        grid = [(0, 0)] if memories and row is not None and row.distributed else memories
        for depth, width in grid:
            for n_targets in targets:
                for n_slaves in slaves:
                    points.append(DesignPoint(
                        topology,
                        depth=depth,
                        width=width,
                        targets=n_targets,
                        target_width=target_width,
                        sync_length=sync_length,
                        slaves=n_slaves,
                    ))
    return [SweepRow(point, estimate(point, cal)) for point in points]


_point_values = attrgetter(*(attr for attr, _ in POINT_FIELDS.values()))


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        p, e = row.point, row.estimate
        lines.append(
            f"{p.topology},{','.join(map(str, _point_values(p)))},{e.registers},"
            f"{e.alms:.1f},{e.aluts:.1f},{e.fmax_mhz:.1f}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CompareReport:
    point_a: DesignPoint
    point_b: DesignPoint
    estimate_a: ResourceEstimate
    estimate_b: ResourceEstimate
    register_ratio: float
    alm_ratio: float
    alut_ratio: float

    def as_text(self) -> str:
        lines = [
            "metric        A            B            A/B",
            f"registers     {self.estimate_a.registers:<12d} {self.estimate_b.registers:<12d} {self.register_ratio:.3f}",
            f"alms          {self.estimate_a.alms:<12.1f} {self.estimate_b.alms:<12.1f} {self.alm_ratio:.3f}",
            f"aluts         {self.estimate_a.aluts:<12.1f} {self.estimate_b.aluts:<12.1f} {self.alut_ratio:.3f}",
        ]
        return "\n".join(lines)


def compare(point_a: DesignPoint, point_b: DesignPoint, cal: Calibration) -> CompareReport:
    """Report the resource ratios of point A relative to point B."""
    est_a = estimate(point_a, cal)
    est_b = estimate(point_b, cal)

    def ratio(a: float, b: float) -> float:
        return a / b if b else math.inf

    return CompareReport(
        point_a=point_a,
        point_b=point_b,
        estimate_a=est_a,
        estimate_b=est_b,
        register_ratio=ratio(est_a.registers, est_b.registers),
        alm_ratio=ratio(est_a.alms, est_b.alms),
        alut_ratio=ratio(est_a.aluts, est_b.aluts),
    )


# --------------------------------------------------------------------------
# Persistence


def calibration_to_json(cal: Calibration) -> str:
    """The calibration's measurement corpus as a JSON document.  Every
    other field is fitted from the corpus, so only the corpus is stored
    and :func:`calibration_from_json` refits it."""
    corpus = [{"point": asdict(p), "measured": asdict(m)} for p, m in cal.corpus]
    return json.dumps({"corpus": corpus}, indent=2) + "\n"


_ENTRY_KEYS = frozenset({"point", "measured"})
# the keys calibration_to_json writes for a corpus point and its measurement
_POINT_KEYS = frozenset(asdict(DesignPoint("distributed")))
_MEASURED_KEYS = frozenset(asdict(Measurement()))


def _section(obj: dict, key: str, path, allowed: frozenset[str]):
    """The object ``obj[key]``, with no key outside ``allowed``, and its path."""
    value = read_obj(obj, key, path)
    reject_unknown(value, allowed, (path, key))
    return value, (path, key)


def _corpus_entry(entry: dict, path) -> tuple[DesignPoint, Measurement]:
    reject_unknown(entry, _ENTRY_KEYS, path)
    point, point_path = _section(entry, "point", path, _POINT_KEYS)
    measured, measured_path = _section(entry, "measured", path, _MEASURED_KEYS)
    numeric = {attr: read_int(point, attr, point_path) for attr, _ in POINT_FIELDS.values()}
    topology = read_str(point, "topology", point_path)
    try:
        design = DesignPoint(topology, **numeric)
    except SpecError as exc:
        raise SpecError(str(exc), format_path(point_path)) from None
    return (
        design,
        Measurement(**{k: read_number(measured, k, measured_path) for k in _MEASURED_KEYS}),
    )


def calibration_from_json(text: str) -> Calibration:
    """Refit the corpus of a document written by :func:`calibration_to_json`
    with :func:`calibrate`.  A malformed or unknown field raises
    :class:`SpecError` with its path, and a corpus that cannot be fitted
    raises :class:`CalibrationError`."""
    doc = load_document(text)
    reject_unknown(doc, frozenset({"corpus"}), ROOT)
    return calibrate([
        _corpus_entry(entry, path)
        for path, entry in objects(read_list(doc, "corpus", ROOT), (ROOT, "corpus"))
    ])


def save_calibration(cal: Calibration, path) -> None:
    """Write the calibration's measurement corpus to ``path``."""
    write_text(path, calibration_to_json(cal))


def load_calibration(path) -> Calibration:
    """The calibration fitted from the corpus saved at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return calibration_from_json(fh.read())
