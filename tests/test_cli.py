import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regforge import cli, sim
from regforge.cli import main, parse_point, parse_sweep_range
from regforge.errors import SpecError
from regforge.spec import validate

from conftest import make_spec_doc

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(make_spec_doc(n_slaves=2, regs_per_slave=4)))
    return path


def _script_file(tmp_path, doc):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(doc))
    return path


def test_compile_writes_files(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    assert main(["compile", "--spec", str(spec_file), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "counts.json",
        "model.json",
        "testdes_slave0.sv",
        "testdes_slave1.sv",
        "testdes_top.sv",
    ]
    counts = json.loads((out / "counts.json").read_text())
    assert counts["flipflops"] == 2 * (4 * 32 + 1 + 2)
    assert "flipflops=" in capsys.readouterr().out

    from regforge import elaborate, load_spec

    spec = load_spec(spec_file)
    assert (out / "model.json").read_text() == elaborate(spec).to_json()


def test_compile_invalid_spec_exits_1(tmp_path, capsys):
    doc = make_spec_doc()
    doc["slaves"][1]["base_addr"] = 0  # overlap
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["compile", "--spec", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "addr_overlap" in capsys.readouterr().err


def test_compile_unreadable_path_exits_2(tmp_path):
    assert main(["compile", "--spec", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_compile_arch_override(tmp_path, capsys):
    doc = make_spec_doc(topology="distributed", global_depth=16, global_width=32)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["compile", "--spec", str(path), "--arch", "global", "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["topology"] == "global"


def test_simulate_conformant_script(tmp_path, spec_file, capsys):
    script = _script_file(
        tmp_path,
        {
            "writes": [{"at_cycle": 0, "addr": 0, "data": 7}],
            "busy_windows": [{"slave": "slave0", "start_ps": 300000, "end_ps": 400000}],
        },
    )
    trace = tmp_path / "trace.csv"
    code = main(
        ["simulate", "--spec", str(spec_file), "--script", str(script),
         "--until-ps", "600000", "--trace", str(trace)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "violations: 0" in out
    assert trace.read_text().startswith("time_ps,kind,slave,addr,data")


def test_simulate_fault_mode_inverts_expectation(tmp_path, spec_file, capsys):
    script = _script_file(
        tmp_path,
        {
            "writes": [{"at_cycle": 25, "addr": 0, "data": 4294967295}],
            "busy_windows": [{"slave": "slave0", "start_ps": 200000, "end_ps": 400000}],
        },
    )
    code = main(
        ["simulate", "--spec", str(spec_file), "--script", str(script),
         "--until-ps", "600000", "--fault-mode"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "violations: 0" not in out


def test_simulate_malformed_script_exits_1(tmp_path, spec_file, capsys):
    script = tmp_path / "script.json"
    script.write_text('{"writes": "zzz"}')
    assert main(["simulate", "--spec", str(spec_file), "--script", str(script),
                 "--until-ps", "1000"]) == 1


def test_simulate_timeout_exits_3(tmp_path, spec_file):
    script = _script_file(
        tmp_path,
        {
            "writes": [{"at_cycle": 5, "addr": 0, "data": 1}],
            "busy_windows": [{"slave": "slave0", "start_ps": 0, "end_ps": 10 ** 9}],
        },
    )
    code = main(["simulate", "--spec", str(spec_file), "--script", str(script),
                 "--until-ps", str(200_000_000)])
    assert code == 3


def test_estimate_register_delta(capsys):
    assert main(["estimate", "--point",
                 "topology=global_registered,D=128,W=512,N_t=0,S=0"]) == 0
    with_reg = capsys.readouterr().out
    assert main(["estimate", "--point", "topology=global,D=128,W=512,N_t=0,S=0"]) == 0
    without = capsys.readouterr().out

    def regs(text):
        return int(next(l for l in text.splitlines() if "registers" in l).split()[-1])

    assert regs(with_reg) - regs(without) == 65_536


def test_sweep_six_rows(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--point", "topology=distributed,w=32,S=1",
         "--sweep", "N_t=26:226:40", "--csv", str(csv)]
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "topology,D,W,N_t,w,L,S,registers,alms,aluts,fmax_mhz"
    assert len(lines) == 7


def test_compare_reports_ratios(capsys):
    code = main(
        ["compare",
         "--point", "topology=distributed,N_t=226,w=32,S=1",
         "--point", "topology=global_cdc_dest,D=256,W=32,N_t=226,w=32,S=1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "0.197" in out
    assert "0.253" in out


def test_compare_needs_two_points(capsys):
    assert main(["compare", "--point", "topology=distributed"]) == 1


@pytest.mark.parametrize("command, count", [("estimate", 2), ("sweep", 2), ("compare", 3)])
def test_extra_points_exit_1(command, count, capsys):
    assert main([command] + ["--point", "topology=distributed,N_t=4"] * count) == 1
    needed = 2 if command == "compare" else 1
    assert capsys.readouterr().err == (
        f"error: {command} needs exactly {needed} --point argument(s), got {count}\n"
    )


def test_estimate_with_calibration_file(tmp_path, capsys):
    from regforge.cost import default_calibration, save_calibration

    path = tmp_path / "cal.json"
    save_calibration(default_calibration(), path)
    code = main(["estimate", "--calibration", str(path),
                 "--point", "topology=distributed,N_t=226,w=32"])
    assert code == 0
    assert "7499" in capsys.readouterr().out


def test_edited_measurement_changes_the_estimate(tmp_path, capsys):
    # the file holds only the corpus, so an edited measurement is refitted
    from regforge.cost import calibration_to_json, default_calibration

    doc = json.loads(calibration_to_json(default_calibration()))
    assert doc["corpus"][2]["point"]["topology"] == "distributed"
    doc["corpus"][2]["measured"]["registers"] = 9999
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(doc))
    assert main(["estimate", "--calibration", str(path),
                 "--point", "topology=distributed,N_t=226,w=32"]) == 0
    assert "registers: 9999\n" in capsys.readouterr().out


_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "huge": 10**400}


def _malformed_calibration(case):
    """The default calibration as saved, broken in the way ``case`` names."""
    from regforge.cost import calibration_to_json, default_calibration

    cal = default_calibration()
    doc = json.loads(calibration_to_json(cal))
    if case == "fitted_sections":  # a file saved while the fit was stored beside its corpus
        doc.update(
            register_overhead={"c_global": cal.c_global,
                               "c_distributed_per_slave": cal.c_distributed_per_slave},
            alm={f: {"coeffs": list(c)} for f, c in cal.alm_coeffs.items()},
            alut={f: {"coeffs": list(c)} for f, c in cal.alut_coeffs.items()},
            fmax={"f0": cal.fmax_f0, "b0": cal.fmax_b0},
        )
    elif case == "empty_corpus":
        doc = {"corpus": []}
    elif case == "no_corpus":
        doc = {}
    elif case == "unknown_point_key":
        doc["corpus"][1]["point"]["bogus"] = 1
    elif case == "top_level_array":
        doc = [doc]
    elif case == "misspelled_topology":
        doc["corpus"][0]["point"]["topology"] = "distrbuted"
    elif case == "negative_slaves":
        doc["corpus"][0]["point"]["slaves"] = -1
    elif case == "cdc_one_sync_stage":
        assert doc["corpus"][0]["point"]["topology"] == "global_cdc_dest"
        doc["corpus"][0]["point"]["sync_length"] = 1
    elif case in _NON_FINITE:  # json.dumps writes NaN, Infinity and -Infinity
        doc["corpus"][2]["measured"]["alms"] = _NON_FINITE[case]
    else:  # a file saved while design points carried stage flags
        for entry in doc["corpus"]:
            entry["point"].update(output_registered=False, cdc=False, dest_registers=False)
    return doc


@pytest.mark.parametrize(
    "case, message",
    [
        ("fitted_sections", "$: unknown field(s): alm, alut, fmax, register_overhead"),
        ("empty_corpus", "empty calibration corpus"),
        ("no_corpus", "$: missing required field 'corpus'"),
        ("unknown_point_key", "$.corpus[1].point: unknown field(s): bogus"),
        ("top_level_array", "$: expected object, got list"),
        ("misspelled_topology",
         "$.corpus[0].point: unknown topology 'distrbuted', expected one of global, "
         "global_registered, global_cdc_dest, distributed"),
        ("negative_slaves", "$.corpus[0].point: point field S must be >= 0, got -1"),
        ("cdc_one_sync_stage",
         "$.corpus[0].point: sync_length must be >= 2 when crossing clock domains"),
        *(pytest.param(case, f"$.corpus[2].measured.alms: expected finite number, got {value!r}",
                       id=case)
          for case, value in _NON_FINITE.items()),
        ("stage_flags",
         "$.corpus[0].point: unknown field(s): cdc, dest_registers, output_registered"),
    ],
)
def test_malformed_calibration_file_exits_1(case, message, tmp_path, capsys):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(_malformed_calibration(case)))
    assert main(["estimate", "--calibration", str(path),
                 "--point", "topology=distributed,N_t=4"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["estimate", "--point", "topology=bogus,N_t=4"],
    ["sweep", "--point", "topology=global,D=256,W=32,N_t=8", "--topologies", "global,bogus"],
])
def test_unknown_topology_exits_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: unknown topology 'bogus', expected one of global, global_registered, "
        "global_cdc_dest, distributed\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_cdc_point_with_one_sync_stage_exits_1(command, capsys):
    # compile refuses such a design, so the estimator does too
    point = "topology=global_cdc_dest,D=256,W=32,N_t=226,w=32,L=1,S=1"
    assert main([command, "--point", point]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: sync_length must be >= 2 when crossing clock domains\n"
    assert captured.out == ""


def test_calibration_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["estimate", "--calibration", str(tmp_path),
                 "--point", "topology=distributed,N_t=4"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, field",
    [
        (["estimate", "--point", "topology=distributed,S=-1,N_t=4"], "S"),
        (["estimate", "--point", "topology=distributed,N_t=-3"], "N_t"),
        (["estimate", "--point", "topology=distributed,N_t=4,w=0"], "w"),
        (["estimate", "--point", "topology=distributed,N_t=4,L=0"], "L"),
        (["estimate", "--point", "topology=global,D=-1,W=8"], "D"),
        (["compare", "--point", "topology=distributed",
          "--point", "topology=global,D=8,W=-8"], "W"),
        (["sweep", "--point", "topology=global,D=256,W=32", "--sweep", "N_t=-2:2:1"], "N_t"),
        (["sweep", "--point", "topology=global,W=32", "--sweep", "D=64;-1"], "D"),
        (["sweep", "--point", "topology=distributed,N_t=4", "--sweep", "S=-1;1"], "S"),
        (["sweep", "--point", "topology=distributed,N_t=4,w=0", "--sweep", "S=1;2"], "w"),
        (["sweep", "--point", "topology=distributed,N_t=4", "--sweep", "D=-1;0"], "D"),
    ],
)
def test_out_of_range_point_field_exits_1(argv, field, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"point field {field} must be >=" in captured.err
    assert captured.out == ""


def test_parse_point_named_topology_flags():
    # the topology alone picks the register stages
    for flag in ("output_registered", "cdc", "dest_registers"):
        with pytest.raises(SpecError, match=f"^unknown point field '{flag}'$"):
            parse_point(f"topology=global,D=8,W=8,{flag}=true")


def test_parse_point_rejects_unknown_key():
    with pytest.raises(SpecError):
        parse_point("topology=global,bogus=1")
    with pytest.raises(SpecError):
        parse_point("D=4")


def test_parse_sweep_range_forms():
    assert parse_sweep_range("N_t=26:226:40") == ("N_t", [26, 66, 106, 146, 186, 226])
    assert parse_sweep_range("S=1;2;4") == ("S", [1, 2, 4])
    with pytest.raises(SpecError):
        parse_sweep_range("w=1:2:1")


def test_sweep_writes_each_distributed_row_once(tmp_path):
    csv = tmp_path / "sweep.csv"
    code = main(["sweep", "--point", "topology=distributed,N_t=4,S=1",
                 "--topologies", "distributed",
                 "--sweep", "D=0;64;512", "--sweep", "W=0;8;16",
                 "--sweep", "N_t=4;8", "--csv", str(csv)])
    assert code == 0
    rows = [r.split(",") for r in csv.read_text().strip().splitlines()[1:]]
    assert [r[:4] for r in rows] == [["distributed", "0", "0", "4"],
                                     ["distributed", "0", "0", "8"]]


SWEEPS = [
    ["sweep", "--point", "topology=global,D=256,W=32,N_t=8",
     "--topologies", "global,distributed", "--sweep", "N_t=8;16", "--sweep", "S=1;2"],
    ["sweep", "--point", "topology=distributed,N_t=4,w=8"],
]


def test_main_reuses_parser_without_leaking_state(monkeypatch, capsys):
    fresh = []
    for argv in SWEEPS:
        proc = subprocess.run([sys.executable, "-m", "regforge.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        fresh.append(proc.stdout)

    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        outputs = []
        for argv in SWEEPS + SWEEPS[::-1]:
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    assert outputs == fresh + fresh[::-1]


def test_compile_encodes_model_once(tmp_path, spec_file, monkeypatch):
    calls = []

    class CountingJson:
        @staticmethod
        def dumps(*args, **kwargs):
            calls.append(kwargs)
            return json.dumps(*args, **kwargs)

    # regforge.elaborate is also the name of a function in the package
    monkeypatch.setattr(importlib.import_module("regforge.elaborate"), "json", CountingJson)
    assert main(["compile", "--spec", str(spec_file), "--out", str(tmp_path / "out")]) == 0
    assert calls == [{"indent": 2}]


GOLDEN_SPECS = Path(__file__).parent / "golden" / "specs"


@pytest.mark.parametrize("spec_name", ["cdc_global", "duo_dist"])
def test_simulate_runs_no_elaboration(spec_name, tmp_path, monkeypatch, capsys):
    def refuse(spec):
        raise AssertionError("simulate elaborated the design")

    monkeypatch.setattr(cli, "elaborate", refuse)
    script = _script_file(tmp_path, {"writes": [{"at_cycle": 1, "addr": 0, "data": 3}]})
    assert main(["simulate", "--spec", str(GOLDEN_SPECS / f"{spec_name}.json"),
                 "--script", str(script), "--until-ps", "200000"]) == 0
    assert capsys.readouterr().out == "violations: 0\n"



def _output_args(command, tmp_path):
    """The arguments besides ``--spec`` that ``command`` needs: an output
    directory, or an empty script and a horizon."""
    if command == "compile":
        return ["--out", str(tmp_path / "out")]
    return ["--script", str(_script_file(tmp_path, {})), "--until-ps", "1000"]


@pytest.mark.parametrize("command", ["compile", "simulate"])
@pytest.mark.parametrize("edit, message", [
    # no clock domain used to end in an IndexError traceback from emit
    ({"clock_domains": [], "slaves": []},
     "[no_clock_domain] $.clock_domains: at least one clock domain is required"),
    ({"clock_domains": [], "slaves": [], "architecture": {"topology": "global"}},
     "[no_clock_domain] $.clock_domains: at least one clock domain is required"),
    # three settings in a two-word memory used to fail only at elaboration
    ({"architecture": {"topology": "global", "global_depth": 2, "global_width": 32}},
     "[global_capacity] $.architecture: settings occupy 3 words but memory depth is 2"),
])
def test_spec_that_cannot_build_fails_validation(command, edit, message, tmp_path, capsys):
    doc = make_spec_doc(n_slaves=1, regs_per_slave=3, width=8)
    doc.update(edit)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--spec", str(path), *_output_args(command, tmp_path)]) == 1
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("command", ["compile", "simulate"])
@pytest.mark.parametrize("edit, status", [({}, 0), ({"clock_domains": [], "slaves": []}, 1)])
def test_command_validates_spec_once(command, edit, status, tmp_path, monkeypatch, capsys):
    calls = []

    def counted(spec):
        calls.append(spec.name)
        return validate(spec)

    monkeypatch.setattr(cli, "validate", counted)
    monkeypatch.setattr(sim, "validate", counted)
    doc = make_spec_doc(n_slaves=1, regs_per_slave=3, width=8)
    doc.update(edit)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--spec", str(path), *_output_args(command, tmp_path)]) == status
    assert calls == ["testdes"]


@pytest.mark.parametrize("command", ["compile", "simulate"])
def test_unknown_arch_override_exits_1(command, tmp_path, spec_file, capsys):
    argv = [command, "--spec", str(spec_file), "--arch", "bogus", *_output_args(command, tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", (
        "[unknown_topology] $.architecture.topology: unknown topology 'bogus', expected one "
        "of global, global_registered, global_cdc_dest, distributed\n"
    ))
