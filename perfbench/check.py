"""Output checks that do not rely on the code under test.

Each check recomputes what a correct result must be from the inputs the
benchmark generated: the ready contract over the exported trace CSV,
closed-form flip-flop and register counts, the paper's anchor numbers,
and the golden HDL corpus.  Each returns a list of problems; an empty
list means the operation passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

TRACE_HEADER = "time_ps,kind,slave,addr,data"
SWEEP_HEADER = "topology,D,W,N_t,w,L,S,registers,alms,aluts,fmax_mhz"

# Calibrated register overheads of the paper's reference designs.
C_GLOBAL = 66
C_DIST = 267
# (output register, sync chain, destination register) per centralized topology.
STAGE_FLAGS = {
    "global": (False, False, False),
    "global_registered": (True, False, False),
    "global_cdc_dest": (True, True, True),
}
# (topology, D, W, N_t, w, L, S) -> (registers, fmax_mhz or None)
PAPER_ANCHORS = {
    ("distributed", 0, 0, 226, 32, 2, 1): (7_499, 210.0),
    ("global", 256, 32, 226, 32, 2, 1): (8_258, None),
    ("global_cdc_dest", 256, 32, 226, 32, 2, 1): (38_146, 140.0),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- simulate ----------------------------------------------------------------


def check_simulation(job: dict, rc: int, stdout: str, csv_text: str,
                     pinned: dict[str, str]) -> list[str]:
    """Verdict, ready contract, write completion and (for reference
    inputs) the pinned trace hash of one ``simulate`` operation."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    reported = _reported_violations(stdout)
    found = contract_violations(csv_text, job["doc"])
    if job["fault"]:
        if not reported:
            problems.append("fault mode reported no violation")
        if not any(f.startswith("busy_write") for f in found):
            problems.append("fault mode trace shows no write while ready was low")
    else:
        if reported != 0:
            problems.append(f"{reported} violation(s) reported")
        problems += found
    accepted = [(int(r[3]), int(r[4])) for r in _rows(csv_text) if r[1] == "write_accepted"]
    expected = [(w["addr"], w["data"]) for w in job["script_doc"]["writes"]]
    if accepted != expected:
        problems.append(f"{len(accepted)} of {len(expected)} writes accepted in script order")
    if job["pinned"] and job["doc"]["architecture"]["topology"] == "distributed":
        digest = sha256(csv_text.encode("utf-8"))
        if pinned.get(job["name"]) != digest:
            problems.append(f"trace sha256 {digest[:12]} differs from the pinned hash")
    return problems


def _reported_violations(stdout: str) -> int | None:
    for line in stdout.splitlines():
        if line.startswith("violations: "):
            return int(line.split(":", 1)[1])
    return None


def _rows(csv_text: str) -> list[list[str]]:
    return [line.split(",") for line in csv_text.splitlines()[1:]]


def contract_violations(csv_text: str, doc: dict) -> list[str]:
    """The ready contract, replayed over a trace CSV.

    No ``config_changed`` while the slave's ``ready`` is low (distributed
    designs only: centralized ones have no handshake), and every
    ``value_sampled`` equals the reset value or a value written earlier.
    """
    lines = csv_text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return ["trace CSV header is wrong"]
    gated = doc["architecture"]["topology"] == "distributed"
    ready = {s["name"]: False for s in doc["slaves"]}
    valid = {(s["name"], s["base_addr"] + r["offset"]): {r.get("reset_value", 0)}
             for s in doc["slaves"] for r in s["registers"]}
    problems = []
    for row in _rows(csv_text):
        time_ps, kind, slave = row[0], row[1], row[2]
        if kind == "ready_changed":
            ready[slave] = row[4] == "1"
        elif kind == "config_changed":
            if gated and not ready[slave]:
                problems.append(f"busy_write at {time_ps} ps on {slave}")
            valid.setdefault((slave, int(row[3])), {0}).add(int(row[4]))
        elif kind == "value_sampled":
            if int(row[4]) not in valid.get((slave, int(row[3])), {0}):
                problems.append(f"torn_word at {time_ps} ps on {slave}")
        elif kind == "violation":
            problems.append(f"violation at {time_ps} ps on {slave or 'bus'}")
    return problems


# -- compile -----------------------------------------------------------------


def expected_flipflops(doc: dict) -> int:
    """Closed form: distributed is setting bits + S*(1+L); centralized is
    memory bits (doubled by an output register) + setting bits * stages."""
    arch = doc["architecture"]
    setting_bits = sum(r["width"] for s in doc["slaves"] for r in s["registers"])
    if arch["topology"] == "distributed":
        return setting_bits + len(doc["slaves"]) * (1 + arch["sync_length"])
    out_reg, cdc, dest = STAGE_FLAGS[arch["topology"]]
    memory = arch["global_depth"] * arch["global_width"] * (2 if out_reg else 1)
    stages = (arch["sync_length"] if cdc else 0) + (1 if dest else 0)
    return memory + setting_bits * stages


def check_compile(job: dict, rc: int, out_dir: Path, golden_dir: Path) -> list[str]:
    problems = [f"exit code {rc}"] if rc != 0 else []
    produced = {p.name for p in out_dir.glob("*.sv")}
    if job["golden"]:
        expected_dir = golden_dir / job["name"]
        expected = {p.name for p in expected_dir.glob("*.sv")}
        if produced != expected:
            problems.append(f"HDL files {sorted(produced)} != golden {sorted(expected)}")
        for name in sorted(produced & expected):
            if (out_dir / name).read_bytes() != (expected_dir / name).read_bytes():
                problems.append(f"{name} differs from the golden file")
        return problems
    doc = job["doc"]
    if len(produced) != len(doc["slaves"]) + 1:
        problems.append(f"{len(produced)} HDL files for {len(doc['slaves'])} slaves")
    try:
        counts = json.loads((out_dir / "counts.json").read_text(encoding="utf-8"))
        elements = json.loads((out_dir / "model.json").read_text(encoding="utf-8"))["elements"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"unreadable output: {exc}"]
    if not elements:
        problems.append("model.json lists no elements")
    want = expected_flipflops(doc)
    if counts.get("flipflops") != want:
        problems.append(f"flipflops {counts.get('flipflops')} != closed form {want}")
    return problems


# -- sweep -------------------------------------------------------------------


def _values(text: str) -> list[int]:
    if ":" in text:
        start, stop, step = (int(p) for p in text.split(":"))
        return list(range(start, stop + 1, step))
    return [int(p) for p in text.split(";")]


def sweep_points(job: dict) -> list[tuple]:
    """The (topology, D, W, N_t, w, L, S) rows a sweep must produce, in order."""
    base = dict(item.split("=", 1) for item in job["point"].split(","))
    ranges = {k: _values(v) for k, v in (s.split("=", 1) for s in job["sweep"])}
    axis = {k: ranges.get(k, [int(base.get(k, default))])
            for k, default in (("D", 0), ("W", 0), ("N_t", 0), ("S", 1))}
    w, sync = int(base.get("w", 32)), int(base.get("L", 2))
    points = []
    for topology in job["topologies"].split(","):
        dist = topology == "distributed"
        for d in axis["D"]:
            for width in axis["W"]:
                for n_t in axis["N_t"]:
                    for s in axis["S"]:
                        points.append((topology, 0 if dist else d, 0 if dist else width,
                                       n_t, w, sync, s))
    return points


def expected_registers(point: tuple) -> int:
    topology, d, width, n_t, w, sync, s = point
    setting_bits = s * n_t * w
    if topology == "distributed":
        return setting_bits + s * C_DIST
    out_reg, cdc, dest = STAGE_FLAGS[topology]
    stages = (sync if cdc else 0) + (1 if dest else 0)
    return d * width * (2 if out_reg else 1) + setting_bits * stages + C_GLOBAL


def sweep_rows(csv_text: str) -> dict[tuple, list[str]]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return {}
    rows = {}
    for line in lines[1:]:
        cols = line.split(",")
        rows[(cols[0], *map(int, cols[1:7]))] = cols
    return rows


def check_sweep_point(point: tuple, row: list[str] | None) -> str | None:
    """The register column against the closed form, plus the paper anchors."""
    if row is None:
        return f"no row for {point}"
    registers, fmax = int(row[7]), float(row[10])
    if registers != expected_registers(point):
        return f"{point}: registers {registers} != closed form {expected_registers(point)}"
    anchor = PAPER_ANCHORS.get(point)
    if anchor is not None:
        if registers != anchor[0]:
            return f"{point}: registers {registers} != paper {anchor[0]}"
        if anchor[1] is not None and abs(fmax - anchor[1]) > 0.1:
            return f"{point}: fmax {fmax} != paper {anchor[1]} MHz"
    return None


def check_sweep(job: dict, rc: int, csv_text: str) -> list[str]:
    points = sweep_points(job)
    problems = [f"exit code {rc}"] if rc != 0 else []
    rows = sweep_rows(csv_text)
    if list(rows) != points:
        problems.append(f"{len(rows)} rows for {len(points)} points, or out of order")
    problems += [p for p in (check_sweep_point(pt, rows.get(pt)) for pt in points) if p]
    return problems
