"""Seeded inputs for the regforge benchmark workloads.

Everything here is plain JSON built from a ``random.Random``; nothing
imports regforge, so the program under test only ever sees the files the
benchmark writes.  The seed varies register widths, reset values, write
addresses, data and timing.  It never varies sizes, write counts,
window lengths or horizons, so the work per operation is the same for
every seed and only its content differs.

A workload is a *round*: a fixed list of jobs that the closed loop runs
again and again.  Job kinds are ``compile``, ``simulate`` and ``sweep``;
each becomes one ``regforge`` command line.  Rounds are always run to the
end, and the jobs of a kind are counted so that, ordered by cost, the
50th and 90th percentiles fall in the middle of a block of like jobs
rather than on the boundary between two sizes (5, 15 or 1:3:1 blocks).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CFG_PS = 10_000
SLAVE_DOMAINS = (("dsp_clk", 7_000), ("adc_clk", 4_000))
SYNC_LENGTH = 2
BUS_DATA_WIDTH = 32

# Inputs built from this seed, whatever --seed is, have their distributed
# trace CSVs pinned by sha256 in pinned_traces.json.
REF_SEED = 20200323

SIM_SLAVES = (4, 32, 128)
# Compiles per round by slave count in the program workloads: blocks of
# 1:3:1 put the median inside the 32-slave block and p90 inside the
# 128-slave one.
PROGRAM_COMPILES = {4: 1, 32: 3, 128: 1}
ALL_TOPOLOGIES = "global,global_registered,global_cdc_dest,distributed"

# program_dense: writes per script, by slave count; 8 registers per slave.
DENSE_WRITES = {4: 900, 32: 600, 128: 300}
DENSE_WINDOWS = 6
DENSE_WINDOW_CYCLES = 40
# program_idle: horizon in configuration cycles, by slave count.
IDLE_HORIZON = {4: 7_000, 32: 1_800, 128: 500}
IDLE_WINDOW_CYCLES = 20
# design_flow: generated specs as (slaves, registers per slave, compiles
# per round) and (slaves, registers per slave, topology).  Ordered by
# compile time the round is 6 goldens, the 4-slave spec, the 16-slave
# spec twice, then pairs at 32, 64 and 128 slaves: the median falls on
# the 16-slave spec, clear of the goldens, and p90 in the 128-slave pair.
FLOW_DISTRIBUTED = ((4, 16, 1), (16, 32, 2), (32, 32, 1), (64, 64, 1), (128, 64, 1))
FLOW_CENTRALIZED = (
    (32, 32, "global_registered"),
    (64, 32, "global_cdc_dest"),
    (128, 64, "global_cdc_dest"),
)
SMOKE_WRITES = 24

# Over-capacity slice: points with N_t > 256 cannot fit a 256-word memory.
OVER_CAPACITY = {
    "point": "topology=global,D=256,W=32,w=32,L=2,S=1",
    "topologies": "global",
    "sweep": ["N_t=26:426:100"],
}


def spec_doc(rng: random.Random, name: str, slaves: int, regs: int,
             topology: str) -> dict:
    """A valid register map: ``slaves`` blocks of ``regs`` settings each."""
    offset_bits = max(1, (regs - 1).bit_length())
    select_bits = (slaves - 1).bit_length()
    blocks = []
    for k in range(slaves):
        registers = []
        for i in range(regs):
            width = rng.randint(1, BUS_DATA_WIDTH)
            registers.append({"name": f"set{i}", "offset": i, "width": width,
                              "reset_value": rng.getrandbits(width)})
        blocks.append({"name": f"blk{k}", "clock_domain": SLAVE_DOMAINS[k % 2][0],
                       "base_addr": k << offset_bits, "registers": registers})
    arch = {"topology": topology, "sync_length": SYNC_LENGTH}
    if topology != "distributed":
        arch["global_depth"] = 1 << max(1, (slaves * regs - 1).bit_length())
        arch["global_width"] = BUS_DATA_WIDTH
    return {
        "name": name,
        "bus": {"data_width": BUS_DATA_WIDTH, "addr_width": select_bits + offset_bits,
                "slave_select_bits": select_bits},
        "clock_domains": [{"name": "cfg_clk", "period_ps": CFG_PS}]
        + [{"name": n, "period_ps": p} for n, p in SLAVE_DOMAINS],
        "slaves": blocks,
        "architecture": arch,
    }


def _addresses(doc: dict, slave: str | None = None) -> list[int]:
    return [s["base_addr"] + r["offset"] for s in doc["slaves"]
            if slave is None or s["name"] == slave for r in s["registers"]]


def _window(slave: str, start_cycle: int, cycles: int) -> dict:
    return {"slave": slave, "start_ps": start_cycle * CFG_PS,
            "end_ps": (start_cycle + cycles) * CFG_PS}


def dense_script(rng: random.Random, doc: dict, n_writes: int,
                 n_windows: int) -> tuple[dict, int]:
    """Back-to-back writes (0-1 cycle gaps) with busy windows that hold
    them on ``ready``.  The horizon leaves room for every write to land:
    the master completes at most one write per edge, and each window can
    stall it for its length plus the ready synchronizer."""
    addrs = _addresses(doc)
    names = [s["name"] for s in doc["slaves"]]
    gaps = [1] * (n_writes // 2) + [0] * (n_writes - n_writes // 2)
    rng.shuffle(gaps)
    writes, cycle, drained = [], 0, 0
    for gap in gaps:
        cycle += gap
        drained = max(drained, cycle) + 1
        writes.append({"at_cycle": cycle, "addr": rng.choice(addrs),
                       "data": rng.getrandbits(BUS_DATA_WIDTH)})
    windows = [_window(rng.choice(names), rng.randrange(cycle), DENSE_WINDOW_CYCLES)
               for _ in range(n_windows)]
    stall = n_windows * (DENSE_WINDOW_CYCLES + SYNC_LENGTH + 2)
    return {"writes": writes, "busy_windows": windows}, (drained + stall + 64) * CFG_PS


def idle_script(rng: random.Random, doc: dict, horizon: int,
                kind: str) -> tuple[dict, int]:
    """A few writes and busy windows spread over a long horizon.

    One write lands inside a busy window and is held on ``ready``.
    ``kind`` is ``normal``, ``swap`` (one module swap at 3/4 of the
    horizon, on a slave no window touches) or ``fault`` (run in fault
    mode, which lets a write to a busy slave through).
    """
    names = [s["name"] for s in doc["slaves"]]
    quiet = rng.choice(names)
    busy = [n for n in names if n != quiet]
    half = horizon // 2
    writes = [{"at_cycle": rng.randrange(half), "addr": rng.choice(_addresses(doc)),
               "data": rng.getrandbits(BUS_DATA_WIDTH)} for _ in range(4)]
    windows = [_window(rng.choice(busy), rng.randrange(half), IDLE_WINDOW_CYCLES)
               for _ in range(2)]
    script = {"writes": writes, "busy_windows": windows}
    target = windows[0]
    # A write that lands inside a window: normal mode holds it on ready.
    writes.append({"at_cycle": target["start_ps"] // CFG_PS + 5,
                   "addr": rng.choice(_addresses(doc, target["slave"])),
                   "data": rng.getrandbits(BUS_DATA_WIDTH)})
    if kind == "fault":
        start = rng.randrange(half)
        windows.append(_window(quiet, start, 40))
        writes.append({"at_cycle": start + 10, "addr": rng.choice(_addresses(doc, quiet)),
                       "data": rng.getrandbits(BUS_DATA_WIDTH)})
    elif kind == "swap":
        block = next(s for s in doc["slaves"] if s["name"] == quiet)
        registers = []
        for reg in block["registers"]:
            width = rng.randint(1, BUS_DATA_WIDTH)
            registers.append({"name": f"swp{reg['offset']}", "offset": reg["offset"],
                              "width": width, "reset_value": rng.getrandbits(width)})
        script["swaps"] = [{"at_ps": horizon * 3 // 4 * CFG_PS, "slave": quiet,
                            "new_spec_fragment": {"registers": registers}}]
        writes.append({"at_cycle": horizon * 4 // 5,
                       "addr": rng.choice([a for n in busy for a in _addresses(doc, n)]),
                       "data": rng.getrandbits(BUS_DATA_WIDTH)})
    writes.sort(key=lambda w: w["at_cycle"])
    return script, horizon * CFG_PS


class Builder:
    """Writes input files under ``root`` and collects the round's jobs."""

    def __init__(self, root: Path):
        self.root = root
        self.jobs: list[dict] = []
        self.specs: dict[str, dict] = {}
        root.mkdir(parents=True, exist_ok=True)

    def _write(self, name: str, doc: dict) -> str:
        path = self.root / name
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return str(path)

    def spec(self, name: str, doc: dict) -> None:
        self.specs[name] = doc
        self._write(f"{name}.json", doc)

    def compile(self, name: str, *, golden: str | None = None) -> None:
        spec_path = golden or str(self.root / f"{name}.json")
        self.jobs.append({"kind": "compile", "name": name, "spec": spec_path,
                          "doc": None if golden else self.specs[name],
                          "golden": golden is not None})

    def simulate(self, spec_name: str, script_name: str, script: dict, until_ps: int,
                 *, fault: bool = False, pinned: bool = False) -> None:
        doc = self.specs[spec_name]
        self.jobs.append({
            "kind": "simulate", "name": script_name, "spec": str(self.root / f"{spec_name}.json"),
            "doc": doc, "script": self._write(f"{script_name}.json", script),
            "script_doc": script, "until_ps": until_ps, "fault": fault, "pinned": pinned,
        })

    def sweep(self, name: str, point: str, topologies: str, sweeps: list[str]) -> None:
        self.jobs.append({"kind": "sweep", "name": name, "point": point,
                          "topologies": topologies, "sweep": sweeps})


def _family_sweep(b: Builder, rng: random.Random) -> None:
    """Estimate the simulated designs' family across all four topologies,
    one sweep per slave count."""
    w = rng.choice((16, 24, 32))
    for slaves in SIM_SLAVES:
        b.sweep(f"family_s{slaves}", f"topology=distributed,D=4096,W=32,w={w},L=2,S={slaves}",
                ALL_TOPOLOGIES, ["N_t=8;16;32"])


def program_dense(b: Builder, seed: int) -> None:
    rng, ref = random.Random(seed), random.Random(REF_SEED)
    for slaves in SIM_SLAVES:
        spec = f"dense_s{slaves}"
        b.spec(spec, spec_doc(rng, spec, slaves, 8, "distributed"))
        ref_spec = f"ref_dense_s{slaves}"
        b.spec(ref_spec, spec_doc(ref, ref_spec, slaves, 8, "distributed"))
        for _ in range(PROGRAM_COMPILES[slaves]):
            b.compile(spec)
        for i in range(5):
            name = ref_spec if i == 4 else spec
            source = ref if i == 4 else rng
            script, until = dense_script(source, b.specs[name], DENSE_WRITES[slaves],
                                         DENSE_WINDOWS)
            b.simulate(name, f"{name}_p{i}", script, until, pinned=i == 4)
    _family_sweep(b, rng)


def program_idle(b: Builder, seed: int) -> None:
    rng, ref = random.Random(seed), random.Random(REF_SEED)
    ref_kind = {4: "swap", 32: "fault", 128: "normal"}
    for slaves in SIM_SLAVES:
        horizon = IDLE_HORIZON[slaves]
        dist, cent, ref_spec = f"idle_s{slaves}", f"idle_cdc_s{slaves}", f"ref_idle_s{slaves}"
        b.spec(dist, spec_doc(rng, dist, slaves, 8, "distributed"))
        b.spec(cent, spec_doc(rng, cent, slaves, 8, "global_cdc_dest"))
        b.spec(ref_spec, spec_doc(ref, ref_spec, slaves, 8, "distributed"))
        plan = [(dist, rng, "normal"), (dist, rng, "swap"), (dist, rng, "fault"),
                (cent, rng, "normal"), (ref_spec, ref, ref_kind[slaves])]
        for _ in range(PROGRAM_COMPILES[slaves]):
            b.compile(dist)
        for i, (name, source, kind) in enumerate(plan):
            script, until = idle_script(source, b.specs[name], horizon, kind)
            b.simulate(name, f"{name}_{kind}{i}", script, until,
                       fault=kind == "fault", pinned=source is ref)
    _family_sweep(b, rng)


def design_flow(b: Builder, seed: int, golden_specs: list[Path]) -> None:
    rng, ref = random.Random(seed), random.Random(REF_SEED)
    for path in golden_specs:
        b.compile(path.stem, golden=str(path))
    for slaves, regs, topology in FLOW_CENTRALIZED:
        name = f"flow_{topology}_s{slaves}"
        b.spec(name, spec_doc(rng, name, slaves, regs, topology))
        b.compile(name)
    for slaves, regs, compiles in FLOW_DISTRIBUTED:
        name, ref_name = f"flow_dist_s{slaves}", f"ref_flow_dist_s{slaves}"
        b.spec(name, spec_doc(rng, name, slaves, regs, "distributed"))
        b.spec(ref_name, spec_doc(ref, ref_name, slaves, regs, "distributed"))
        for _ in range(compiles):
            b.compile(name)
        for i, (spec, source) in enumerate(((name, rng), (name, rng), (ref_name, ref))):
            script, until = dense_script(source, b.specs[spec], SMOKE_WRITES, 1)
            b.simulate(spec, f"{spec}_smoke{i}", script, until, pinned=source is ref)
    # The anchor grid holds the paper's three register anchors and both
    # fmax anchors at N_t=226; the large grid reaches N_t=4096 and S=64.
    b.sweep("anchors", "topology=distributed,D=256,W=32,w=32,L=2,S=1", ALL_TOPOLOGIES,
            ["N_t=26:226:50"])
    for slaves in (1, 8, 64):
        b.sweep(f"large_s{slaves}", f"topology=distributed,D=262144,W=32,w=32,L=2,S={slaves}",
                ALL_TOPOLOGIES, ["N_t=256;1024;4096"])


WORKLOADS = ("program_dense", "program_idle", "design_flow")


def build(workload: str, seed: int, root: Path, golden_specs: list[Path]) -> list[dict]:
    """Write the workload's inputs under ``root`` and return its round."""
    b = Builder(root)
    if workload == "program_dense":
        program_dense(b, seed)
    elif workload == "program_idle":
        program_idle(b, seed)
    elif workload == "design_flow":
        design_flow(b, seed, golden_specs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.jobs
