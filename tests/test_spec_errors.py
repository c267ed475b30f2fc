"""Golden error messages for malformed register-map and script documents.

``golden/spec_errors.json`` holds two small well-formed base documents,
a register map and a programming script, and a table of mutations of
them: a field dropped, replaced by a value of the wrong type, a bad hex
string, a boolean or a negative number, an unknown or out-of-place field
added, a list element that is not an object, and random pairs of these,
at every nesting level (swap fragments included).  For each mutated
document the table records the outcome: the exact ``str(SpecError)`` and
``.path``, or, when the document parses, the text of its validation
report.  Any change to which error is found first, to a message or to a
path fails here.

Regenerate (only when a change is meant to alter error messages) with

    PYTHONPATH=src python tests/test_spec_errors.py
"""

import copy
import json
import random
from pathlib import Path

import pytest

from regforge import SpecError, parse_spec, validate
from regforge.sim import parse_script

GOLDEN = Path(__file__).parent / "golden" / "spec_errors.json"

BASES = {
    "spec": {
        "name": "duo",
        "bus": {"data_width": 16, "addr_width": 8, "slave_select_bits": 1},
        "clock_domains": [
            {"name": "cfg_clk", "period_ps": 10000},
            {"name": "dsp_clk", "period_ps": "0xFA0"},
        ],
        "slaves": [
            {
                "name": "frontend",
                "clock_domain": "dsp_clk",
                "base_addr": 0,
                "registers": [
                    {"name": "decim", "offset": 0, "width": 16, "reset_value": "0x3"},
                    {"name": "mix", "offset": 1, "width": 12},
                ],
            },
            {
                "name": "backend",
                "clock_domain": "cfg_clk",
                "base_addr": "0x80",
                "registers": [{"name": "mode", "offset": 0, "width": 4}],
            },
        ],
        "architecture": {
            "topology": "global_cdc_dest",
            "sync_length": 3,
            "global_depth": 4,
            "global_width": 16,
        },
    },
    "script": {
        "writes": [
            {"at_cycle": 2, "addr": "0x80", "data": 5},
            {"at_cycle": 9, "addr": 1, "data": "0x7F"},
        ],
        "busy_windows": [{"slave": "frontend", "start_ps": 1000, "end_ps": 90000}],
        "swaps": [
            {
                "at_ps": 120000,
                "slave": "backend",
                "new_spec_fragment": {
                    "registers": [
                        {"name": "mode", "offset": 0, "width": 4, "reset_value": 1},
                        {"name": "gain", "offset": 1, "width": 8},
                    ]
                },
            }
        ],
    },
}

# Replacement values: a boolean, bad hex, a non-numeric string, a float,
# null, the wrong container kinds, a plain and a negative integer, good
# hex with padding.
VALUES = [True, "0xZZ", "twelve", 1.5, None, [], {}, 7, -1, " 0x1f "]
NOT_OBJECTS = [7, "x", [], None]


def _nodes(doc, at=()):
    """Yield (path, node) for every object and array in ``doc``."""
    yield at, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _nodes(value, at + (key,))


def _single_mutations(base):
    keys = sorted({k for at, node in _nodes(base) if isinstance(node, dict) for k in node})
    out = [{"at": [], "value": v} for v in NOT_OBJECTS]
    for at, node in _nodes(base):
        at = list(at)
        if isinstance(node, list):
            out += [{"at": at + [0], "value": v} for v in NOT_OBJECTS]
            continue
        for key in node:
            out.append({"at": at + [key], "drop": True})
            out += [{"at": at + [key], "value": v} for v in VALUES]
        out.append({"at": at + ["bogus"], "value": 1})
        misplaced = next(k for k in keys if k not in node)
        out.append({"at": at + [misplaced], "value": 1})
    return out


def build_cases():
    rng = random.Random(20240611)
    cases = []
    for kind, base in BASES.items():
        singles = _single_mutations(base)
        cases += [{"doc": kind, "edits": [m]} for m in singles]
        for _ in range(120):
            a, b = rng.sample(singles, 2)
            cases.append({"doc": kind, "edits": [a, b]})
    return cases


def apply_edits(base, edits):
    doc = copy.deepcopy(base)
    for edit in edits:
        at = edit["at"]
        if not at:
            doc = copy.deepcopy(edit["value"])
            continue
        node = doc
        for key in at[:-1]:
            if not isinstance(node, (dict, list)) or (
                isinstance(node, list) and not isinstance(key, int)
            ):
                break
            try:
                node = node[key]
            except (KeyError, IndexError, TypeError):
                break
        else:
            key = at[-1]
            if isinstance(node, dict):
                if edit.get("drop"):
                    node.pop(key, None)
                else:
                    node[key] = copy.deepcopy(edit["value"])
            elif isinstance(node, list) and isinstance(key, int) and key < len(node):
                if edit.get("drop"):
                    del node[key]
                else:
                    node[key] = copy.deepcopy(edit["value"])
    return doc


def outcome(kind, doc):
    text = json.dumps(doc)
    try:
        parsed = parse_spec(text) if kind == "spec" else parse_script(text)
    except SpecError as exc:
        return {"error": str(exc), "path": exc.path}
    if kind == "spec":
        return {"report": str(validate(parsed))}
    return {"ok": True}


def _table():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_table_covers_every_level():
    table = _table()
    assert table["bases"] == BASES
    assert [{"doc": c["doc"], "edits": c["edits"]} for c in table["cases"]] == build_cases()
    paths = {c["outcome"].get("path") for c in table["cases"]}
    assert "$.slaves[0].registers[1].width" in paths
    assert "$.swaps[0].new_spec_fragment.registers[1].width" in paths
    assert "$.swaps[0].new_spec_fragment" in paths
    assert any(c["outcome"].get("report", "ok") != "ok" for c in table["cases"])


def test_error_messages_and_paths_match_table():
    mismatches = []
    for i, case in enumerate(_table()["cases"]):
        doc = apply_edits(BASES[case["doc"]], case["edits"])
        got = outcome(case["doc"], doc)
        if got != case["outcome"]:
            mismatches.append((i, case["edits"], case["outcome"], got))
    assert mismatches == []


def test_syntax_error_has_no_path():
    for parse in (parse_spec, parse_script):
        with pytest.raises(SpecError) as info:
            parse('{"name": ')
        assert info.value.path is None
        assert str(info.value).startswith("syntax error: ")


if __name__ == "__main__":
    cases = [
        dict(case, outcome=outcome(case["doc"], apply_edits(BASES[case["doc"]], case["edits"])))
        for case in build_cases()
    ]
    lines = ",\n".join(json.dumps(case) for case in cases)
    GOLDEN.write_text(
        f'{{"bases": {json.dumps(BASES)},\n"cases": [\n{lines}\n]}}\n', encoding="utf-8"
    )
    print(f"wrote {len(cases)} cases to {GOLDEN}")
