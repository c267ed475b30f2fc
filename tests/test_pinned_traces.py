"""The benchmark's reference traces, replayed in the tier-1 suite.

``perfbench/gen.py`` builds the reference inputs from ``gen.REF_SEED``,
and ``perfbench/pinned_traces.json`` holds the sha256 of each one's trace
CSV.  This test rebuilds those inputs, runs each pinned ``simulate`` job
through ``regforge.cli.main`` exactly as the benchmark does, and checks
every trace against its pin, so a simulator change that alters them
fails here, not only in a benchmark run.  It reads ``perfbench/`` and
imports only ``gen.py``, which needs nothing beyond the standard library.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from regforge import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
GOLDEN_SPECS = sorted((ROOT / "tests" / "golden" / "specs").glob("*.json"))


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_gen()
PINNED = json.loads((PERFBENCH / "pinned_traces.json").read_text(encoding="utf-8"))


def test_reference_traces_match_their_pins(tmp_path, capsys):
    traces = {}
    for workload in gen.WORKLOADS:
        jobs = gen.build(workload, gen.REF_SEED, tmp_path / workload, GOLDEN_SPECS)
        for index, job in enumerate(jobs):
            if job["kind"] != "simulate" or not job["pinned"]:
                continue
            csv_path = tmp_path / workload / f"trace{index}.csv"
            argv = ["simulate", "--spec", job["spec"], "--script", job["script"],
                    "--until-ps", str(job["until_ps"]), "--trace", str(csv_path)]
            rc = cli.main(argv + (["--fault-mode"] if job["fault"] else []))
            assert rc == 0, (job["name"], capsys.readouterr())
            traces[job["name"]] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert traces == PINNED
