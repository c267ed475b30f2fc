"""Command-line front-end: compile, simulate, estimate, sweep, compare.

Exit codes are stable: 0 success, 1 validation or semantic failure,
2 I/O failure, 3 simulation timeout diagnostics.  All output is
deterministic for fixed inputs, so every subcommand is CI-safe.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from . import cost, sim
from .elaborate import elaborate, structural_counts
from .emit import GENERATED_LINE, emit
from .errors import InvalidSpecError, RegforgeError, SpecError
from .fields import write_text
from .spec import load_spec, validate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_TIMEOUT = 3


def parse_point(text: str) -> cost.DesignPoint:
    """Parse ``k=v,...`` into a design point: ``topology`` and the numeric
    fields named in :data:`cost.POINT_FIELDS`.  The topology alone picks
    the register stages."""
    topology = None
    kwargs: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise SpecError(f"point field {item!r} is not k=v")
        key, value = item.split("=", 1)
        key = key.strip()
        if key == "topology":
            topology = value.strip()
        elif key in cost.POINT_FIELDS:
            kwargs[cost.POINT_FIELDS[key][0]] = int(value, 0)
        else:
            raise SpecError(f"unknown point field {key!r}")
    if topology is None:
        raise SpecError("point needs a topology field")
    return cost.DesignPoint(topology, **kwargs)


def parse_sweep_range(text: str) -> tuple[str, list[int]]:
    """Parse ``key=start:stop:step`` (stop inclusive) or ``key=a;b;c``.

    Each value is checked against its bound here, as ``cost.sweep``
    zeroes D and W for distributed points."""
    if "=" not in text:
        raise SpecError(f"sweep range {text!r} is not key=range")
    key, spec_text = text.split("=", 1)
    key = key.strip()
    if key not in ("D", "W", "N_t", "S"):
        raise SpecError(f"cannot sweep over {key!r} (one of D, W, N_t, S)")
    spec_text = spec_text.strip()
    if ":" in spec_text:
        parts = spec_text.split(":")
        if len(parts) != 3:
            raise SpecError(f"sweep range {spec_text!r} is not start:stop:step")
        start, stop, step = (int(p, 0) for p in parts)
        if step <= 0:
            raise SpecError("sweep step must be positive")
        values = list(range(start, stop + 1, step))
    else:
        values = [int(p, 0) for p in spec_text.split(";") if p.strip()]
    if not values:
        raise SpecError(f"sweep range {text!r} is empty")
    for value in values:
        cost.check_point_field(key, value)
    return key, values


def _load_calibration(path: str | None) -> cost.Calibration:
    if path is None:
        return cost.default_calibration()
    return cost.load_calibration(path)


def _load_spec(spec_path: str, arch: str | None):
    """The spec at ``spec_path``, with its topology replaced by ``arch``
    when one is given; ``validate`` judges the replacement."""
    spec = load_spec(spec_path)
    if arch is not None:
        spec = dataclasses.replace(
            spec, architecture=dataclasses.replace(spec.architecture, topology=arch)
        )
    return spec


def _remove_stale_hdl(out_dir: Path, written: dict[str, str]) -> None:
    """Remove each ``*.sv`` file in ``out_dir`` that is not in ``written``
    but that an earlier compile wrote: its line 2 is the generated banner.
    Every other file stays."""
    with os.scandir(out_dir) as entries:
        stale = [e.path for e in entries
                 if e.name.endswith(".sv") and e.name not in written and e.is_file()]
    for path in stale:
        with open(path, encoding="utf-8", errors="replace") as fh:
            fh.readline()
            second = fh.readline()
        if second.rstrip("\n") == GENERATED_LINE:
            os.remove(path)


def cmd_compile(args) -> int:
    spec = _load_spec(args.spec, args.arch)
    report = validate(spec)
    if not report.ok:
        raise InvalidSpecError(report)
    model = elaborate(spec)
    files = emit(model, spec)
    counts = structural_counts(model)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(files):
        write_text(out_dir / name, files[name])
    write_text(out_dir / "model.json", model.to_json())
    write_text(out_dir / "counts.json", json.dumps(dataclasses.asdict(counts), indent=2) + "\n")
    _remove_stale_hdl(out_dir, files)
    print(f"wrote {len(files)} HDL file(s) + model.json + counts.json to {out_dir}")
    print(
        f"flipflops={counts.flipflops} decode_terms={counts.decode_terms} "
        f"mux_bits={counts.mux_bits} "
        f"max_unregistered_bundle_bits={counts.max_unregistered_bundle_bits}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec, args.arch)
    script = sim.load_script(args.script)
    simulation = sim.build_sim(spec, fault_mode=args.fault_mode)
    simulation.run(script, args.until_ps)
    violations = simulation.violation_events()
    coherence = simulation.check_coherence()
    total = len(violations) + len(coherence)
    if args.trace:
        simulation.write_trace(args.trace)
    print(f"violations: {total}")
    for event in violations:
        print(f"  {event.time_ps} {event.detail} slave={event.slave} addr={event.addr}")
    for v in coherence:
        print(f"  {v.time_ps} {v.kind} slave={v.slave} addr={v.addr}")
    if simulation.timed_out:
        return EXIT_TIMEOUT
    if args.fault_mode:
        return EXIT_OK if total > 0 else EXIT_INVALID
    return EXIT_OK if total == 0 else EXIT_INVALID


def _points(args, count: int) -> list[cost.DesignPoint]:
    """Parse the ``--point`` arguments, which must number exactly ``count``."""
    if len(args.point) != count:
        raise SpecError(
            f"{args.command} needs exactly {count} --point argument(s), got {len(args.point)}"
        )
    return [parse_point(text) for text in args.point]


def cmd_estimate(args) -> int:
    (point,) = _points(args, 1)
    cal = _load_calibration(args.calibration)
    est = cost.estimate(point, cal)
    print(f"topology:  {point.topology}")
    print(f"registers: {est.registers}")
    print(f"alms:      {est.alms:.1f}")
    print(f"aluts:     {est.aluts:.1f}")
    print(f"fmax_mhz:  {est.fmax_mhz:.1f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    (base,) = _points(args, 1)
    cal = _load_calibration(args.calibration)
    ranges = dict(parse_sweep_range(r) for r in args.sweep or [])
    topologies = (
        [t.strip() for t in args.topologies.split(",") if t.strip()]
        if args.topologies
        else [base.topology]
    )
    rows = cost.sweep(
        cal,
        topologies,
        depths=ranges.get("D", [base.depth]),
        widths=ranges.get("W", [base.width]),
        targets=ranges.get("N_t", [base.targets]),
        slaves=ranges.get("S", [base.slaves]),
        target_width=base.target_width,
        sync_length=base.sync_length,
    )
    text = cost.sweep_to_csv(rows)
    if args.csv:
        write_text(args.csv, text)
        print(f"wrote {len(rows)} row(s) to {args.csv}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_compare(args) -> int:
    point_a, point_b = _points(args, 2)
    cal = _load_calibration(args.calibration)
    report = cost.compare(point_a, point_b, cal)
    print(report.as_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regforge",
        description="Register-map compiler, simulator, and resource estimator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="validate, elaborate, and emit HDL")
    p.add_argument("--spec", required=True, help="register map JSON document")
    p.add_argument("--arch", help="override the spec's topology")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="run a programming script")
    p.add_argument("--spec", required=True)
    p.add_argument("--arch", help="override the spec's topology")
    p.add_argument("--script", required=True, help="programming script JSON")
    p.add_argument("--until-ps", type=int, required=True, dest="until_ps")
    p.add_argument("--trace", help="write the event trace CSV here")
    p.add_argument("--fault-mode", action="store_true", dest="fault_mode",
                   help="disable ready gating (negative testing)")

    p = sub.add_parser("estimate", help="estimate resources for one point")
    p.add_argument("--point", action="append", required=True,
                   help="k=v,... e.g. topology=distributed,N_t=226,w=32")
    p.add_argument("--calibration", help="calibration JSON (default: built-in)")

    p = sub.add_parser("sweep", help="estimate over a parameter sweep")
    p.add_argument("--point", action="append", required=True, help="base point k=v,...")
    p.add_argument("--sweep", action="append",
                   help="key=start:stop:step or key=a;b;c (keys: D, W, N_t, S)")
    p.add_argument("--topologies", help="comma-separated topology set")
    p.add_argument("--csv", help="write the sweep table here")
    p.add_argument("--calibration")

    p = sub.add_parser("compare", help="resource ratios of point A over point B")
    p.add_argument("--point", action="append", required=True,
                   help="give twice: first A, then B")
    p.add_argument("--calibration")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call of the
    process; parsing leaves no state on it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, not stored in the parser, so wrappers installed on
    # the cmd_* globals after the first call (perfbench's tracer) still run.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvalidSpecError as exc:
        print(exc.report, file=sys.stderr)
        return EXIT_INVALID
    except (RegforgeError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
