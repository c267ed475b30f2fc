import json
import pathlib
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regforge import (
    DesignModel,
    EmitError,
    SpecError,
    elaborate,
    emit,
    load_spec,
    structural_counts,
)
from regforge.emit import sanitize_names
from regforge.spec import TOPOLOGIES, parse_spec, validate

from conftest import make_spec, make_spec_doc
from test_spec import spec_docs

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_SPECS = sorted(p.stem for p in (GOLDEN / "specs").glob("*.json"))

PORT_SET = ("cfg_addr", "cfg_wdata", "cfg_write", "cfg_sel", "ready")


def _emit(spec):
    return emit(elaborate(spec), spec)


def test_distributed_two_slaves_three_files(distributed_spec):
    files = _emit(distributed_spec)
    assert len(files) == 3
    slave_files = [n for n in files if not n.endswith("_top.sv")]
    for name in slave_files:
        header = files[name].split(");")[0]
        for port in PORT_SET:
            assert re.search(rf"\b{port}\b", header), f"{port} missing in {name}"


def test_emission_is_deterministic(distributed_spec):
    assert _emit(distributed_spec) == _emit(distributed_spec)


@pytest.mark.parametrize("name", GOLDEN_SPECS)
def test_golden_files(name):
    spec = load_spec(GOLDEN / "specs" / f"{name}.json")
    files = _emit(spec)
    expected_dir = GOLDEN / "expected" / name
    expected = {p.name: p.read_text() for p in expected_dir.glob("*.sv")}
    assert set(files) == set(expected)
    for fname in files:
        assert files[fname] == expected[fname], f"{name}/{fname} drifted"


# ---------------------------------------------------------------------------
# flip-flops recounted from the emitted text

_DECL = re.compile(r"\blogic\s+(?:\[(\d+):0\]\s*)?(\w+)(?:\s*\[(\d+)\])?")
_NONBLOCKING = re.compile(r"(\w+)(?:\[[^\]]*\])?\s*<=")


def recount_flipflops(text):
    """Flip-flop bits of one emitted file, read off its text alone: the
    declared width times array depth of every variable that an
    ``always_ff`` block assigns with ``<=``."""
    bits = {
        name: (int(msb) + 1 if msb else 1) * (int(depth) if depth else 1)
        for msb, name, depth in _DECL.findall(text)
    }
    assigned = set()
    nesting = 0
    for line in text.splitlines():
        if nesting == 0 and not line.lstrip().startswith("always_ff"):
            continue
        assigned.update(_NONBLOCKING.findall(line))
        nesting += len(re.findall(r"\bbegin\b", line)) - len(re.findall(r"\bend\b", line))
    return sum(bits[name] for name in assigned)


@pytest.mark.parametrize("name", GOLDEN_SPECS)
def test_golden_flipflops_match_counts(name):
    spec = load_spec(GOLDEN / "specs" / f"{name}.json")
    texts = [p.read_text() for p in (GOLDEN / "expected" / name).glob("*.sv")]
    counted = sum(recount_flipflops(text) for text in texts)
    assert counted == structural_counts(elaborate(spec)).flipflops > 0


@settings(max_examples=120)
@given(spec_docs(), st.sampled_from(TOPOLOGIES), st.integers(0, 3))
def test_emitted_flipflops_match_counts(doc, topology, spare):
    """Every emitted file counts, so a module the top leaves out must hold
    no registers either.  A centralized design without settings never
    writes its memory, so its text has no register to recount; such
    designs are left out."""
    widths = [r["width"] for s in doc["slaves"] for r in s["registers"]]
    assume(topology == "distributed" or widths)
    doc["architecture"].update(
        topology=topology,
        global_depth=len(widths) + spare,
        global_width=max(widths, default=0) + spare,
    )
    spec = parse_spec(json.dumps(doc))
    assert validate(spec).ok
    model = elaborate(spec)
    counted = sum(recount_flipflops(text) for text in emit(model, spec).values())
    assert counted == structural_counts(model).flipflops


@pytest.mark.parametrize("topology", ["global", "global_registered"])
@pytest.mark.parametrize("depth, width", [(0, 0), (0, 32), (8, 0)])
def test_centralized_design_without_memory_declares_none(topology, depth, width):
    """``validate`` passes a setting-less centralized design with a zero
    memory dimension; its RTL holds no zero-size array, as its model
    holds no memory."""
    spec = make_spec(n_slaves=1, regs_per_slave=0, topology=topology,
                     global_depth=depth, global_width=width)
    assert validate(spec).ok
    model = elaborate(spec)
    files = emit(model, spec)
    top = files["testdes_top.sv"]
    assert "[0]" not in top and "mem" not in top and "always_ff" not in top
    counted = sum(recount_flipflops(text) for text in files.values())
    assert counted == structural_counts(model).flipflops == 0


def test_storage_declarations_match_bank_words():
    spec = make_spec(n_slaves=2, regs_per_slave=5, width=16)
    model = elaborate(spec)
    files = emit(model, spec)
    for slave in spec.slaves:
        (bank,) = [el for el in model.elements if el.name == f"{slave.name}.cfg"]
        words = bank.bits // 16
        text = files[f"testdes_{slave.name}.sv"]
        decls = re.findall(r"^\s*logic\s+(?:\[[^\]]+\]\s*)?\w+_q;", text, re.M)
        assert len(decls) == words == 5


def test_single_stage_synchronizer_emits_scalar():
    spec = make_spec(n_slaves=1, regs_per_slave=2, sync_length=1)
    text = _emit(spec)["testdes_slave0.sv"]
    assert "ready <= ~busy_sync;" in text
    assert "busy_sync[" not in text


def test_full_width_register_takes_whole_write_word():
    spec = make_spec(n_slaves=1, regs_per_slave=1, width=32, data_width=32)
    text = _emit(spec)["testdes_slave0.sv"]
    assert "r0_q <= cfg_wdata;" in text


def test_one_bit_bus_design_is_wellformed():
    spec = make_spec(n_slaves=1, regs_per_slave=1, width=1, data_width=1,
                     topology="global", global_depth=2, global_width=1,
                     addr_width=4)
    files = _emit(spec)
    top = files["testdes_top.sv"]
    assert "mem[0] <= cfg_wdata;" in top
    assert "[0:0]" not in top  # no part-selects on scalar nets
    slave = files["testdes_slave0.sv"]
    assert "assign cfg_r0 = settings_in;" in slave


def test_identifier_sanitation():
    mapping = sanitize_names(["Weird Name", "weird name", "9lives", "ok_name"])
    assert mapping["Weird Name"] == "weird_name"
    assert mapping["weird name"] == "weird_name_2"
    assert mapping["9lives"] == "x9lives"
    assert mapping["ok_name"] == "ok_name"


def _renamed(topology, rename):
    doc = make_spec_doc(n_slaves=2, topology=topology, global_depth=16, global_width=32)
    rename(doc)
    return parse_spec(json.dumps(doc))


def _second_slave_named_slave0(doc):
    doc["slaves"][1]["name"] = "slave0"


def _second_setting_named_r0(doc):
    doc["slaves"][1]["registers"][1]["name"] = "r0"


@pytest.mark.parametrize("topology", ["distributed", "global_cdc_dest"])
def test_duplicate_slave_name_raises(topology):
    spec = _renamed(topology, _second_slave_named_slave0)
    with pytest.raises(EmitError, match="^duplicate slave 'slave0'$"):
        _emit(spec)


@pytest.mark.parametrize("topology", ["distributed", "global_cdc_dest"])
def test_duplicate_setting_name_raises(topology):
    spec = _renamed(topology, _second_setting_named_r0)
    assert [str(d) for d in validate(spec).diagnostics] == [
        "[dup_setting_name] $.slaves[1].registers[1]: setting 'r0' named twice in slave 'slave1'"
    ]
    with pytest.raises(EmitError, match="^duplicate slave 'slave1' setting 'r0'$"):
        _emit(spec)


def test_header_embeds_name_and_model_hash(distributed_spec):
    model = elaborate(distributed_spec)
    files = emit(model, distributed_spec)
    for text in files.values():
        first = text.splitlines()[0]
        assert distributed_spec.name in first
        assert model.content_hash()[:12] in first


@pytest.mark.parametrize("topology", ["distributed", "global_cdc_dest"])
def test_emit_hashes_model_once(topology, monkeypatch):
    spec = make_spec(n_slaves=4, regs_per_slave=3, topology=topology,
                     global_depth=16, global_width=32)
    model = elaborate(spec)
    calls = []
    content_hash = DesignModel.content_hash

    def counting(self):
        calls.append(self)
        return content_hash(self)

    monkeypatch.setattr(DesignModel, "content_hash", counting)
    files = emit(model, spec)
    assert len(files) == 5
    assert calls == [model]


def test_emit_rejects_topology_outside_the_stage_table(distributed_spec):
    with pytest.raises(SpecError, match=r"^unknown topology 'bogus', expected one of "):
        emit(DesignModel((), "bogus"), distributed_spec)


@pytest.mark.parametrize("topology,same", [
    ("global", True), ("global_registered", True), ("global_cdc_dest", False),
])
def test_sync_length_changes_files_only_where_chains_use_it(topology, same):
    """sync_length builds no element without a synchronizer chain, so it
    changes no file of such a design, header hash included."""
    short, long = (
        _emit(make_spec(n_slaves=2, regs_per_slave=3, topology=topology, global_depth=8,
                        global_width=32, sync_length=length))
        for length in (2, 3)
    )
    assert (short == long) is same


@pytest.mark.parametrize("topology", ["global", "global_registered", "global_cdc_dest"])
def test_centralized_slave_without_settings_has_only_a_clock(topology):
    doc = make_spec_doc(n_slaves=2, topology=topology, global_depth=8, global_width=32)
    doc["slaves"][1]["registers"] = []
    spec = parse_spec(json.dumps(doc))
    files = _emit(spec)
    assert len(files) == 3
    assert files["testdes_slave1.sv"].splitlines()[2:] == [
        "", "module testdes_slave1 (", "    input  logic clk", ");", "", "", "endmodule",
    ]
    assert "testdes_slave1 " not in files["testdes_top.sv"]


def test_files_use_lf_and_trailing_newline(distributed_spec):
    for text in _emit(distributed_spec).values():
        assert "\r" not in text
        assert text.endswith("\n")
