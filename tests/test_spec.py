import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regforge import SpecError, address_map, load_spec, parse_spec, serialize, validate
from regforge.spec import GLOBAL_TOPOLOGIES, TOPOLOGY_FLAGS, ElaborationOptions, SettingSpec

from conftest import make_spec, make_spec_doc

MINIMAL = {
    "name": "mini",
    "bus": {"data_width": 32, "addr_width": 8, "slave_select_bits": 1},
    "clock_domains": [{"name": "cfg", "period_ps": 10000}],
    "slaves": [
        {
            "name": "only",
            "clock_domain": "cfg",
            "base_addr": 0,
            "registers": [{"name": "r0", "offset": 0, "width": 32}],
        }
    ],
    "architecture": {"topology": "distributed"},
}


def test_parse_minimal_round_trip():
    spec = parse_spec(json.dumps(MINIMAL))
    assert len(spec.slaves) == 1
    assert spec.slaves[0].registers[0].reset_value == 0
    assert spec.architecture.sync_length == 2
    assert parse_spec(serialize(spec)) == spec


def test_parse_hex_integers():
    doc = dict(MINIMAL)
    doc["slaves"] = [dict(MINIMAL["slaves"][0], base_addr="0x10")]
    spec = parse_spec(json.dumps(doc))
    assert spec.slaves[0].base_addr == 16


# A malformed register after well-formed ones in the same array: the
# array is read again by the checked readers, which raise at its path.
@pytest.mark.parametrize("entry, message", [
    ({"name": "bad", "offset": 3, "width": True},
     "$.slaves[1].registers[3].width: expected integer, got boolean"),
    ({"name": "bad", "offset": 3.0, "width": 8},
     "$.slaves[1].registers[3].offset: expected integer, got float"),
    ({"name": "bad", "offset": 3, "width": 8, "resetvalue": 1},
     "$.slaves[1].registers[3]: unknown field(s): resetvalue"),
    ({"offset": 3, "width": 8}, "$.slaves[1].registers[3]: missing required field 'name'"),
    (["name", "offset"], "$.slaves[1].registers[3]: expected object, got list"),
    ({"name": "bad", "offset": 3, "width": 8, "reset_value": False},
     "$.slaves[1].registers[3].reset_value: expected integer, got boolean"),
    ({"name": 5, "offset": 3, "width": 8},
     "$.slaves[1].registers[3].name: expected string, got int"),
])
def test_malformed_register_after_plain_ones_raises_at_its_path(entry, message):
    doc = make_spec_doc(n_slaves=2, regs_per_slave=3)
    doc["slaves"][1]["registers"].append(entry)
    with pytest.raises(SpecError) as raised:
        parse_spec(json.dumps(doc))
    assert str(raised.value) == message
    assert raised.value.path == message.split(": ")[0]


def test_hex_string_register_parses_as_its_number():
    doc = make_spec_doc(n_slaves=2, regs_per_slave=3, width=8)
    plain = parse_spec(json.dumps(doc))
    doc["slaves"][1]["registers"][2]["reset_value"] = "0x1f"
    hexed = parse_spec(json.dumps(doc))
    doc["slaves"][1]["registers"][2]["reset_value"] = 31
    assert hexed == parse_spec(json.dumps(doc)) != plain
    assert hexed.slaves[1].registers[2] == SettingSpec("r2", 2, 8, 31)
    assert {type(r) for s in plain.slaves + hexed.slaves for r in s.registers} == {SettingSpec}
    del doc["slaves"][1]["registers"][2]["reset_value"]
    assert parse_spec(json.dumps(doc)) == plain


def test_undefined_clock_domain_flagged():
    doc = make_spec_doc()
    doc["slaves"][0]["clock_domain"] = "fast"
    report = validate(parse_spec(json.dumps(doc)))
    assert any(d.code == "unknown_clock_domain" for d in report.diagnostics)


def test_target_scale_spec():
    spec = make_spec(n_slaves=1, regs_per_slave=226, width=32, addr_width=8)
    assert spec.total_words == 226
    assert spec.total_setting_bits == 7232
    assert validate(spec).ok


@pytest.mark.parametrize(
    "mutate,code",
    [
        (lambda d: d["slaves"].append(dict(d["slaves"][0], name="dup")), "addr_overlap"),
        (lambda d: d["slaves"][0]["registers"].__setitem__(
            0, {"name": "wide", "offset": 0, "width": 33}), "setting_width"),
        (lambda d: d["slaves"][0]["registers"].__setitem__(
            0, {"name": "big", "offset": 0, "width": 4, "reset_value": 16}), "reset_range"),
        (lambda d: d["clock_domains"].__setitem__(0, {"name": "cfg", "period_ps": 0}),
         "domain_period"),
        (lambda d: d["slaves"].append(dict(d["slaves"][1], base_addr=4)), "dup_slave_name"),
        (lambda d: d["slaves"][0]["registers"].append(
            {"name": "again", "offset": 0, "width": 8}), "dup_offset"),
        (lambda d: d["slaves"][1]["registers"].append(
            {"name": "r0", "offset": 4, "width": 8}), "dup_setting_name"),
        (lambda d: d["bus"].__setitem__("slave_select_bits", 9), "bus_geometry"),
        (lambda d: d["slaves"][0].__setitem__("base_addr", 253), "addr_range"),
    ],
)
def test_validate_flags_violations(mutate, code):
    doc = make_spec_doc()
    mutate(doc)
    report = validate(parse_spec(json.dumps(doc)))
    assert any(d.code == code for d in report.diagnostics), str(report)


HUGE = 1 << 40


@pytest.mark.parametrize(
    "mutate,codes",
    [
        (lambda d: d["bus"].update(slave_select_bits=HUGE), ["bus_geometry"]),
        (lambda d: d["bus"].update(addr_width=HUGE), []),
        (lambda d: (d["bus"].update(data_width=HUGE),
                    d["slaves"][0]["registers"][0].update(width=HUGE)), []),
    ],
)
def test_validate_checks_oversized_fields(mutate, codes):
    doc = make_spec_doc()
    mutate(doc)
    report = validate(parse_spec(json.dumps(doc)))
    assert [d.code for d in report.diagnostics] == codes


# sha256 of serialize() per golden spec: pins key order and layout.
SERIALIZED_SHA256 = {
    "cdc_global": "2f40d14420c2daf125214824fe7aebb503ba460ecef2b3880d35050fb6e1a796",
    "duo_dist": "483524a37fce7bd1250e16da29e097f28b405c546d4fa553b012ba1db4cc3dfc",
    "mini_dist": "bea3fc1411aa42944308dbf3955ca8d736dacf67f3bdc53148bda85d6103fd77",
    "mini_global": "f7648fe0ca8f6352aab4ca05da5b650b78bef6c811e08216624df5e02cd2d572",
    "quad_dist": "7ed7c64918c7413a538b6f2a813e584f968aea1faba0a0a83412d4baa3683435",
    "reg_global": "f125abecf64ad036d581edbaf73d2ff48488b79b5401f3dbacd32bb0f0874198",
}


@pytest.mark.parametrize("name", sorted(SERIALIZED_SHA256))
def test_serialize_golden_spec_bytes(name):
    path = pathlib.Path(__file__).parent / "golden" / "specs" / f"{name}.json"
    text = serialize(load_spec(path))
    assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZED_SHA256[name]


def test_serialize_writes_each_setting_as_an_object():
    doc = json.loads(serialize(make_spec(n_slaves=3, regs_per_slave=2)))
    settings = [reg for slave in doc["slaves"] for reg in slave["registers"]]
    assert len(settings) == 6
    for reg in settings:
        assert list(reg) == ["name", "offset", "width", "reset_value"]


def test_setting_by_keyword_equals_setting_by_position():
    assert SettingSpec(name="r", offset=3, width=8, reset_value=5) == SettingSpec("r", 3, 8, 5)
    assert SettingSpec(name="r", offset=3, width=8) == SettingSpec("r", 3, 8, 0)


def test_validate_clean_four_slave_spec():
    spec = make_spec(n_slaves=4, regs_per_slave=8, addr_width=8)
    report = validate(spec)
    assert report.ok
    # independent pairwise range scan
    ranges = [(s.base_addr, s.base_addr + s.words) for s in spec.slaves]
    for i, (lo_a, hi_a) in enumerate(ranges):
        for lo_b, hi_b in ranges[i + 1:]:
            assert hi_a <= lo_b or hi_b <= lo_a


def test_global_capacity_diagnostic():
    doc = make_spec_doc(topology="global", global_depth=4, global_width=32)
    report = validate(parse_spec(json.dumps(doc)))
    assert any(d.code == "global_capacity" for d in report.diagnostics)


def test_topology_rows_are_pairwise_distinct():
    # a row that equals another would make two names one design
    assert len(set(TOPOLOGY_FLAGS.values())) == len(TOPOLOGY_FLAGS)
    assert ElaborationOptions(True, False) == TOPOLOGY_FLAGS["global_registered"]
    assert GLOBAL_TOPOLOGIES == ("global", "global_registered", "global_cdc_dest")


def test_sync_length_required_for_cdc_topology():
    doc = make_spec_doc(topology="global_cdc_dest", sync_length=1,
                        global_depth=64, global_width=32)
    report = validate(parse_spec(json.dumps(doc)))
    assert any(d.code == "sync_length" for d in report.diagnostics)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{not json", "syntax error"),
        (json.dumps({**MINIMAL, "extra": 1}), "unknown field"),
        (json.dumps({**MINIMAL, "bus": {"data_width": "x", "addr_width": 8,
                                        "slave_select_bits": 1}}), "not an integer"),
        (json.dumps({**MINIMAL, "slaves": [{"name": "a"}]}), "missing required"),
        (json.dumps({**MINIMAL, "architecture": {"topology": "ring"}}), "unknown topology"),
        (json.dumps({**MINIMAL, "clock_domains": {}}), "expected array"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert fragment in str(err.value)


def test_address_map_base_plus_offset():
    spec = make_spec(n_slaves=1, regs_per_slave=3, stride=8, addr_width=12)
    doc = json.loads(serialize(spec))
    doc["slaves"][0]["base_addr"] = 0x100
    entries = address_map(parse_spec(json.dumps(doc)))
    assert [e.address for e in entries] == [0x100, 0x101, 0x102]


def test_address_map_unique_and_sorted():
    spec = make_spec(n_slaves=4, regs_per_slave=8)
    entries = address_map(spec)
    addrs = [e.address for e in entries]
    assert len(addrs) == 32
    assert len(set(addrs)) == 32
    assert addrs == sorted(addrs)


def test_address_map_empty():
    spec = make_spec(n_slaves=0, regs_per_slave=0)
    assert address_map(spec) == []


# ---------------------------------------------------------------------------
# Property tests

_names = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)


@st.composite
def spec_docs(draw, force_valid=True):
    n_domains = draw(st.integers(1, 3))
    domains = [
        {"name": f"clk{i}", "period_ps": draw(st.integers(1, 50_000))}
        for i in range(n_domains)
    ]
    data_width = draw(st.integers(1, 64))
    n_slaves = draw(st.integers(0, 4))
    slaves = []
    base = 0
    for k in range(n_slaves):
        n_regs = draw(st.integers(0, 6))
        regs = []
        for i in range(n_regs):
            width = draw(st.integers(1, data_width))
            regs.append(
                {
                    "name": f"r{i}",
                    "offset": i,
                    "width": width,
                    "reset_value": draw(st.integers(0, (1 << width) - 1)),
                }
            )
        base += draw(st.integers(0, 4))
        slaves.append(
            {
                "name": f"s{k}",
                "clock_domain": domains[draw(st.integers(0, n_domains - 1))]["name"],
                "base_addr": base,
                "registers": regs,
            }
        )
        base += max(n_regs, 0)
    # wide enough for the last word and for one select code per slave
    addr_width = max(base.bit_length(), (n_slaves - 1).bit_length(), 1) + 1
    select_bits = min((max(n_slaves - 1, 0)).bit_length(), addr_width - 1)
    doc = {
        "name": draw(_names),
        "bus": {
            "data_width": data_width,
            "addr_width": addr_width,
            "slave_select_bits": select_bits,
        },
        "clock_domains": domains,
        "slaves": slaves,
        "architecture": {
            "topology": "distributed",
            "sync_length": draw(st.integers(2, 4)),
        },
    }
    if not force_valid and draw(st.booleans()):
        doc = _break_doc(draw, doc)
    return doc


def _break_doc(draw, doc):
    choice = draw(st.integers(0, 5))
    if choice == 0 and doc["slaves"]:
        doc["slaves"][0]["clock_domain"] = "nonexistent"
    elif choice == 1 and doc["slaves"] and doc["slaves"][0]["registers"]:
        doc["slaves"][0]["registers"][0]["width"] = doc["bus"]["data_width"] + 1
    elif choice == 2 and len(doc["slaves"]) >= 2:
        doc["slaves"][1]["base_addr"] = doc["slaves"][0]["base_addr"]
    elif choice == 3 and doc["slaves"] and doc["slaves"][0]["registers"]:
        regs = doc["slaves"][0]["registers"]
        regs.append(dict(regs[0], name="clone"))
    elif choice == 4 and doc["slaves"] and len(doc["slaves"][-1]["registers"]) >= 2:
        regs = doc["slaves"][-1]["registers"]
        regs[-1]["name"] = regs[0]["name"]
    else:
        doc["clock_domains"][0]["period_ps"] = 0
    return doc


@settings(max_examples=80)
@given(spec_docs())
def test_parse_serialize_round_trip(doc):
    spec = parse_spec(json.dumps(doc))
    assert parse_spec(serialize(spec)) == spec
    # serialization is canonical: a second pass is byte-identical
    assert serialize(parse_spec(serialize(spec))) == serialize(spec)


@settings(max_examples=80)
@given(spec_docs())
def test_address_map_addresses_distinct(doc):
    spec = parse_spec(json.dumps(doc))
    assert validate(spec).ok
    addrs = [e.address for e in address_map(spec)]
    assert len(addrs) == len(set(addrs))


@settings(max_examples=150)
@given(spec_docs())
def test_force_valid_docs_validate(doc):
    assert validate(parse_spec(json.dumps(doc))).ok, doc


def _brute_force_ok(doc):
    """Independent validity check, straight off the document."""
    bus = doc["bus"]
    if bus["data_width"] < 1 or bus["addr_width"] < 1:
        return False
    if not (0 <= bus["slave_select_bits"] < bus["addr_width"]):
        return False
    if doc["slaves"] and (1 << bus["slave_select_bits"]) < len(doc["slaves"]):
        return False
    domain_names = [d["name"] for d in doc["clock_domains"]]
    if len(set(domain_names)) != len(domain_names):
        return False
    if any(d["period_ps"] <= 0 for d in doc["clock_domains"]):
        return False
    slave_names = [s["name"] for s in doc["slaves"]]
    if len(set(slave_names)) != len(slave_names):
        return False
    spans = []
    for s in doc["slaves"]:
        if s["clock_domain"] not in domain_names:
            return False
        if s["base_addr"] < 0:
            return False
        offsets = [r["offset"] for r in s["registers"]]
        if len(set(offsets)) != len(offsets):
            return False
        names = [r["name"] for r in s["registers"]]
        if len(set(names)) != len(names):
            return False
        for r in s["registers"]:
            if r["offset"] < 0:
                return False
            if not (1 <= r["width"] <= bus["data_width"]):
                return False
            if not (0 <= r.get("reset_value", 0) < (1 << r["width"])):
                return False
        words = max(offsets) + 1 if offsets else 0
        if s["base_addr"] + words > (1 << bus["addr_width"]):
            return False
        if words:
            spans.append((s["base_addr"], s["base_addr"] + words))
    spans.sort()
    for (lo_a, hi_a), (lo_b, _) in zip(spans, spans[1:]):
        if hi_a > lo_b:
            return False
    if doc["architecture"].get("sync_length", 2) < 1:
        return False
    return True


@settings(max_examples=150)
@given(spec_docs(force_valid=False))
def test_validate_matches_brute_force(doc):
    spec = parse_spec(json.dumps(doc))
    assert validate(spec).ok == _brute_force_ok(doc)
