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
    emit_testbench,
    load_spec,
    structural_counts,
)
from regforge.emit import sanitize_names
from regforge.sim import BusyWindow, ProgramScript, ScriptWrite, SwapRequest
from regforge.spec import TOPOLOGIES, SettingSpec, parse_spec, validate

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


@settings(max_examples=120, deadline=None)
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
    if topology == "distributed":
        with pytest.raises(EmitError, match="^duplicate slave 'slave0'$"):
            _tb(spec, ProgramScript())


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


# ---------------------------------------------------------------------------
# testbench


def _tb(spec, script):
    return emit_testbench(elaborate(spec), spec, script)


def test_testbench_single_write_single_assertion(distributed_spec):
    script = ProgramScript(writes=(ScriptWrite(0, 0, 123),))
    text = _tb(distributed_spec, script)
    checks = re.findall(r"!==", text)
    # one check per register, value literals from the simulated run
    total_regs = sum(len(s.registers) for s in distributed_spec.slaves)
    assert len(checks) == total_regs
    assert "32'd123" in text


def test_testbench_busy_window_stalls_on_ready(distributed_spec):
    script = ProgramScript(
        writes=(ScriptWrite(0, 0, 9),),
        busy_windows=(BusyWindow("slave0", 10_000, 50_000),),
    )
    text = _tb(distributed_spec, script)
    assert "while (!slave0_ready)" in text
    assert "slave0_busy = 1'b1;" in text


def test_testbench_empty_script_asserts_resets(distributed_spec):
    text = _tb(distributed_spec, ProgramScript())
    assert "'d0" in text and "$display(\"TB PASS" in text


def test_testbench_rejects_swaps(distributed_spec):
    script = ProgramScript(
        swaps=(SwapRequest(0, "slave0", (SettingSpec("r", 0, 8),)),)
    )
    with pytest.raises(EmitError):
        _tb(distributed_spec, script)


def test_testbench_deterministic(distributed_spec):
    script = ProgramScript(writes=(ScriptWrite(0, 0, 7), ScriptWrite(2, 4, 8)))
    assert _tb(distributed_spec, script) == _tb(distributed_spec, script)
