"""regforge benchmark: closed-loop workloads through the real CLI.

    python3 perfbench/run.py --workload program_dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; nothing needs installing, the
program is imported from ``src/``.  The workloads, metrics and the
layer each metric belongs to are listed in BENCHMARK.json and described
in perfbench/README.md.

With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s``
(median over fresh interpreters that import regforge and build the
default calibration) and, in one fresh child process, the closed loop
of ``compile``/``simulate``/``sweep`` operations.  With ``--trace 1`` the
child also runs the same rounds with spans around every public function
of each layer and reports per-layer metrics instead.  Every operation's
output is checked by check.py.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
SETUP_CODE = "import regforge; regforge.default_calibration()"
KINDS = ("compile", "simulate", "sweep")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    return env


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import regforge and build the
    default calibration, interpreter start-up included."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return times


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "regforge").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(jobs: list[dict], samples: list[list[float]], peak_rss_mb: float,
               setup: list[float]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, samples).  Rates divide a round's work by
    the sum of each job's median time, so one slow stretch of the host
    does not carry the whole figure."""
    def pooled(kind):
        return [t for job, ts in zip(jobs, samples) if job["kind"] == kind for t in ts]

    def rate(kind, work):
        pairs = [(work(job), statistics.median(ts))
                 for job, ts in zip(jobs, samples) if job["kind"] == kind]
        return sum(w for w, _ in pairs) / sum(t for _, t in pairs)

    sims, compiles, sweeps = pooled("simulate"), pooled("compile"), pooled("sweep")
    return {
        "setup_s": (p50(setup), len(setup)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "verdict_p50_s": (p50(sims), len(sims)),
        "verdict_p90_s": (p90(sims), len(sims)),
        "sim_cycles_per_s": (rate("simulate", lambda j: j["until_ps"] // gen.CFG_PS), len(sims)),
        "compile_p50_s": (p50(compiles), len(compiles)),
        "compile_p90_s": (p90(compiles), len(compiles)),
        "estimates_per_s": (rate("sweep", lambda j: len(check.sweep_points(j))), len(sweeps)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    golden = ROOT / "tests" / "golden"
    if not (ROOT / "src" / "regforge" / "__init__.py").is_file():
        return fail(f"no regforge sources under {ROOT / 'src'}")
    if not (golden / "specs").is_dir() or not (golden / "expected").is_dir():
        return fail(f"no golden corpus under {golden}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = gen.build(args.workload, args.seed, work / "inputs",
                         sorted((golden / "specs").glob("*.json")))
        config = {
            "jobs": jobs,
            "work": str(work),
            "golden_dir": str(golden / "expected"),
            "pinned": json.loads((HERE / "pinned_traces.json").read_text(encoding="utf-8")),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "result": str(work / "result.json"),
            "spans": str(out_dir / f"{args.workload}.spans.jsonl"),
            "over_capacity": gen.OVER_CAPACITY if args.workload == "design_flow" else None,
        }
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        out_dir.mkdir(exist_ok=True)
        setup = [] if args.trace else measure_setup()
        proc = subprocess.run([sys.executable, str(HERE / "loop.py"), str(work / "config.json")],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(60.0, 3 * args.seconds + 30))
        if proc.returncode != 0:
            return fail(f"workload process exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if args.trace:
        measured = {name: (value, result["rounds"]) for name, value in result["layers"].items()}
    else:
        measured = end_to_end(jobs, result["samples"], result["peak_rss_mb"], setup)
    if set(measured) != set(units):
        return fail(f"measured {sorted(measured)} but BENCHMARK.json declares {sorted(units)}")

    attempted = sum(result["attempted"].values())
    failed = sum(result["failed"].values())
    env = environment()
    env["numpy"] = result["numpy"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  rounds {result['rounds']} (closed loop, 1 process, 1 thread)")
    print("environment " + json.dumps(env))
    for kind in KINDS:
        print(f"operations {kind:<9} attempted {result['attempted'][kind]:>5}  "
              f"failed {result['failed'][kind]}")
    if "over_capacity" in result:
        oc = result["over_capacity"]
        print(f"over-capacity slice  attempted {oc['attempted']}  failed {oc['failed']}  "
              f"(exit {oc['exit_code']}: {oc['message']})")
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")
    for name, (value, samples) in measured.items():
        print(f"metric {name:<28} {value:>16.6g} {units[name]:<6} n={samples}")
    (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "environment": env,
         "result": {k: v for k, v in result.items() if k != "samples"},
         "metrics": {n: {"value": v, "unit": units[n], "samples": s}
                     for n, (v, s) in measured.items()}}, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
