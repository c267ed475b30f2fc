"""The closed loop: one process, one thread, one operation after another.

Started by run.py in a fresh interpreter for each run, so its peak
resident memory is the workload's own.  It runs the round of jobs that
gen.py wrote until the time budget is spent, always finishing the round
it is in, times each ``regforge.cli.main`` call, checks every output with
check.py and writes its raw results as JSON.

With ``trace`` set, each round runs twice, untraced and then with the
tracer installed; per-layer metrics come from the traced rounds and the
difference in operation time between the two is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy

import check
from tracing import Tracer, layer_metrics

from regforge import cli, cost


class Loop:
    def __init__(self, config: dict):
        self.config = config
        self.jobs = config["jobs"]
        self.work = Path(config["work"])
        self.golden_dir = Path(config["golden_dir"])
        self.pinned = config["pinned"]
        self.samples: list[list[float]] = [[] for _ in self.jobs]
        self.attempted = {"compile": 0, "simulate": 0, "sweep": 0}
        self.failed = {"compile": 0, "simulate": 0, "sweep": 0}
        self.problems: list[str] = []
        self.tracer: Tracer | None = None

    @staticmethod
    def _cli(argv: list[str]) -> tuple[float, int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            start = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - start
        return elapsed, rc, out.getvalue()

    def _sweep_argv(self, job: dict, csv_path: Path) -> list[str]:
        argv = ["sweep", "--point", job["point"], "--topologies", job["topologies"]]
        for axis in job["sweep"]:
            argv += ["--sweep", axis]
        return argv + ["--csv", str(csv_path)]

    def run_job(self, index: int, job: dict) -> float:
        """Run and check one job; returns its operation time."""
        kind = job["kind"]
        if self.tracer is not None:
            self.tracer.op = sum(self.attempted.values())
        if kind == "compile":
            out_dir = self.work / f"out{index}"
            elapsed, rc, _ = self._cli(["compile", "--spec", job["spec"], "--out", str(out_dir)])
            problems = check.check_compile(job, rc, out_dir, self.golden_dir)
        elif kind == "simulate":
            csv_path = self.work / f"trace{index}.csv"
            argv = ["simulate", "--spec", job["spec"], "--script", job["script"],
                    "--until-ps", str(job["until_ps"]), "--trace", str(csv_path)]
            elapsed, rc, stdout = self._cli(argv + (["--fault-mode"] if job["fault"] else []))
            csv_text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
            problems = check.check_simulation(job, rc, stdout, csv_text, self.pinned)
        else:
            csv_path = self.work / f"sweep{index}.csv"
            elapsed, rc, _ = self._cli(self._sweep_argv(job, csv_path))
            csv_text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
            problems = check.check_sweep(job, rc, csv_text)
        self.samples[index].append(elapsed)
        self.attempted[kind] += 1
        if problems:
            self.failed[kind] += 1
            self.problems.append(f"{kind} {job['name']}: {'; '.join(problems[:3])}")
        return elapsed

    def rounds(self, count: int | None = None,
               seconds: float | None = None) -> tuple[int, float]:
        """Run whole rounds, ``count`` of them or until ``seconds`` pass.
        Returns the rounds run and the summed operation time."""
        start, done, op_time = time.perf_counter(), 0, 0.0
        while (done < count) if count is not None else (time.perf_counter() - start < seconds):
            for index, job in enumerate(self.jobs):
                op_time += self.run_job(index, job)
            done += 1
        return done, op_time

    def warm_up(self) -> None:
        """Run one job of each kind and forget it: lazy imports and the
        cached default calibration are set-up, which setup_s measures."""
        scratch = Loop(self.config)
        kinds = set()
        for index, job in enumerate(self.jobs):
            if job["kind"] not in kinds:
                kinds.add(job["kind"])
                scratch.run_job(index, job)

    def over_capacity(self, slice_job: dict) -> dict:
        """Run the over-capacity sweep slice once; each point is attempted
        and fails unless a correct row for it comes out."""
        csv_path = self.work / "over_capacity.csv"
        _, rc, output = self._cli(self._sweep_argv(slice_job, csv_path))
        csv_text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
        rows = check.sweep_rows(csv_text)
        points = check.sweep_points(slice_job)
        failed = sum(1 for p in points if check.check_sweep_point(p, rows.get(p)))
        return {"attempted": len(points), "failed": failed, "exit_code": rc,
                "message": output.strip().splitlines()[-1] if output.strip() else ""}


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    loop = Loop(config)
    seconds = config["seconds"]
    result: dict = {}
    if config["trace"]:
        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
        cost.default_calibration()
        tracer.uninstall()
        calibrate_spans, tracer.spans = tracer.spans, []
        loop.warm_up()
        # Untraced and traced rounds alternate, so drift in host speed
        # falls on both sides of the overhead.
        rounds, plain, traced, start = 0, 0.0, 0.0, time.perf_counter()
        while time.perf_counter() - start < seconds:
            plain += loop.rounds(count=1)[1]
            tracer.install()
            loop.tracer = tracer
            traced += loop.rounds(count=1)[1]
            loop.tracer = None
            tracer.uninstall()
            rounds += 1
        result["layers"] = layer_metrics(tracer.spans, calibrate_spans)
        result["layers"]["trace.overhead_s"] = traced - plain
        tracer.write(Path(config["spans"]))
    else:
        loop.warm_up()
        rounds, _ = loop.rounds(seconds=seconds)
    result.update({
        "rounds": rounds,
        "samples": loop.samples,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if config.get("over_capacity"):
        result["over_capacity"] = loop.over_capacity(config["over_capacity"])
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
