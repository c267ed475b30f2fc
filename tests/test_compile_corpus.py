"""``compile`` output pinned by sha256 over a seeded corpus of valid specs.

The corpus covers all four topologies and the inputs the front end and
the emitter take different ways: names that need lowering, that collide
after lowering or that start with a digit, widths of 1 and of the full
bus, registers listed out of offset order, empty slaves, ``0x`` hex
strings for integers and an absent ``reset_value``.  A change to the
compile path that is meant to keep its output keeps every hash.

Regenerate the pin only when a change is meant to alter the output:
``PYTHONPATH=src python tests/test_compile_corpus.py``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from regforge.cli import main
from regforge.spec import TOPOLOGIES, parse_spec, validate

PIN = Path(__file__).parent / "golden" / "compile_corpus.json"
SEED = 20261020
SPECS = 24

DESIGN_NAMES = ("corpus", "Corpus Design", "9lives", "rf-top", "_x")
DOMAIN_NAMES = ("cfg_clk", "Slave Clk", "1x_clk", "slave-clk")
SLAVE_NAMES = ("core", "Core", "dsp 0", "dsp_0", "2nd", "io", "IO", "_blk", "a.b")
SETTING_NAMES = ("gain", "Gain", "shift", "rx-en", "RX EN", "rx_en", "9mode", "mode",
                 "_t", "Lo Pass", "lo_pass", "x", "en")


def _int(rng: random.Random, value: int):
    """``value`` as a JSON number, or one time in four as a hex string."""
    return hex(value) if rng.random() < 0.25 else value


def corpus_doc(rng: random.Random, index: int) -> dict:
    topology = TOPOLOGIES[index % len(TOPOLOGIES)]
    data_width = rng.choice((1, 8, 16, 32))
    n_slaves = rng.randint(1, 5)
    slave_names = rng.sample(SLAVE_NAMES, n_slaves)
    domains = rng.sample(DOMAIN_NAMES, rng.randint(1, 3))
    stride = 8
    slaves, widths = [], []
    for k, slave_name in enumerate(slave_names):
        n_regs = rng.choice((0, 1, 3, 5, 8)) if n_slaves > 1 else rng.randint(1, 8)
        offsets = rng.sample(range(stride), n_regs)  # out of order, with gaps
        registers = []
        for name, offset in zip(rng.sample(SETTING_NAMES, n_regs), offsets):
            width = rng.choice((1, data_width, rng.randint(1, data_width)))
            widths.append(width)
            reg = {"name": name, "offset": _int(rng, offset), "width": _int(rng, width)}
            if rng.random() < 0.75:
                reg["reset_value"] = _int(rng, rng.getrandbits(width))
            registers.append(reg)
        slaves.append({"name": slave_name, "clock_domain": rng.choice(domains),
                       "base_addr": _int(rng, k * stride), "registers": registers})
    select_bits = (n_slaves - 1).bit_length() + rng.randint(0, 1)
    addr_width = max((n_slaves * stride - 1).bit_length(), select_bits + 1) + rng.randint(0, 2)
    arch = {"topology": topology}
    if topology == "global_cdc_dest":
        arch["sync_length"] = rng.randint(2, 4)
    elif rng.random() < 0.5:
        arch["sync_length"] = rng.randint(1, 3)
    if topology != "distributed":
        arch["global_depth"] = _int(rng, len(widths) + rng.randint(0, 3))
        arch["global_width"] = max(widths, default=data_width) + rng.choice((0, 0, 3))
    return {
        "name": rng.choice(DESIGN_NAMES),
        "bus": {"data_width": _int(rng, data_width), "addr_width": addr_width,
                "slave_select_bits": select_bits},
        "clock_domains": [{"name": name, "period_ps": rng.choice((5000, 7000, 10000))}
                          for name in domains],
        "slaves": slaves,
        "architecture": arch,
    }


def corpus() -> dict[str, dict]:
    rng = random.Random(SEED)
    return {f"spec{i:02d}": corpus_doc(rng, i) for i in range(SPECS)}


def compile_hashes(doc: dict, work: Path) -> dict[str, str]:
    """sha256 of every file ``regforge compile`` writes for ``doc``."""
    work.mkdir(parents=True)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(doc, indent=2))
    out = work / "out"
    assert main(["compile", "--spec", str(spec_path), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


CORPUS = corpus()


def test_corpus_covers_every_topology_and_is_valid():
    assert {doc["architecture"]["topology"] for doc in CORPUS.values()} == set(TOPOLOGIES)
    for name, doc in CORPUS.items():
        assert validate(parse_spec(json.dumps(doc))).ok, name


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_compile_output_matches_pin(name, tmp_path):
    pinned = json.loads(PIN.read_text())[name]
    assert compile_hashes(CORPUS[name], tmp_path / name) == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: compile_hashes(doc, Path(tmp) / name) for name, doc in CORPUS.items()}
    PIN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, pins.values()))} files of {len(pins)} specs", file=sys.stderr)
