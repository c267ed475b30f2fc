"""Record the sha256 of every pinned reference trace into pinned_traces.json.

    PYTHONPATH=src python3 perfbench/pin_traces.py

Reference inputs are built from gen.REF_SEED whatever the run's seed is,
so their distributed traces must stay byte-identical across changes to
the simulator.  Rerun this only when a change is meant to alter them.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import check
import gen
from loop import Loop

HERE = Path(__file__).resolve().parent
GOLDEN = HERE.parent / "tests" / "golden"


def main() -> None:
    pinned = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in gen.WORKLOADS:
            work = Path(tmp) / workload
            jobs = gen.build(workload, 0, work, sorted((GOLDEN / "specs").glob("*.json")))
            loop = Loop({"jobs": jobs, "work": str(work), "golden_dir": str(GOLDEN / "expected"),
                         "pinned": {}})
            for index, job in enumerate(jobs):
                if job["kind"] == "simulate" and job["pinned"]:
                    loop.run_job(index, job)
                    csv = (work / f"trace{index}.csv").read_bytes()
                    pinned[job["name"]] = check.sha256(csv)
    (HERE / "pinned_traces.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                                             encoding="utf-8")
    print(f"pinned {len(pinned)} traces")


if __name__ == "__main__":
    main()
