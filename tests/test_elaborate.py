import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regforge import (
    CapacityError,
    SpecError,
    build_sim,
    elaborate,
    elaborate_distributed,
    elaborate_global,
    emit,
    structural_counts,
)
from regforge.spec import (
    TOPOLOGIES,
    RegisterMapSpec,
    address_map,
    global_word_map,
    parse_spec,
    validate,
)

from conftest import make_spec
from test_spec import spec_docs

def _mem_only(depth, width, registered):
    spec = make_spec(n_slaves=0, regs_per_slave=0,
                     topology="global_registered" if registered else "global",
                     global_depth=depth, global_width=width, addr_width=16)
    return elaborate_global(spec)


def test_output_register_delta_is_memory_size():
    with_reg = structural_counts(_mem_only(128, 512, True)).flipflops
    without = structural_counts(_mem_only(128, 512, False)).flipflops
    assert with_reg - without == 65_536


def test_full_routing_stage_flipflop_count():
    spec = make_spec(n_slaves=1, regs_per_slave=226, width=32, topology="global_cdc_dest",
                     global_depth=256, global_width=32, addr_width=8)
    model = elaborate_global(spec)
    counts = structural_counts(model)
    # 256*32 storage + 256*32 output stage + 226*32*(2 sync + 1 dest)
    assert counts.flipflops == 256 * 32 * 2 + 226 * 32 * 3 == 38_080


def test_no_targets_reduces_to_memory_and_decode():
    model = _mem_only(64, 32, False)
    kinds = sorted(el.kind for el in model.elements)
    assert kinds == ["decoder", "flipflop_bank", "wire_bundle"]


def test_distributed_local_bank_bits():
    spec = make_spec(n_slaves=1, regs_per_slave=226, width=32, addr_width=8)
    model = elaborate_distributed(spec)
    counts = structural_counts(model)
    (bank,) = [el for el in model.elements if el.name == "slave0.cfg"]
    assert bank.bits == 7_232
    # bank + ready + 2-deep busy synchronizer
    assert counts.flipflops == 7_232 + 1 + 2


def test_distributed_scales_linearly_with_slaves():
    single = structural_counts(elaborate_distributed(
        make_spec(n_slaves=1, regs_per_slave=8, addr_width=8)))
    quad = structural_counts(elaborate_distributed(
        make_spec(n_slaves=4, regs_per_slave=8, addr_width=8)))
    assert quad.flipflops == 4 * single.flipflops
    assert quad.decode_terms == 4 * single.decode_terms


def test_distributed_empty_slave_keeps_handshake():
    spec = make_spec(n_slaves=1, regs_per_slave=0, sync_length=3)
    counts = structural_counts(elaborate_distributed(spec))
    assert counts.flipflops == 1 + 3  # ready + busy synchronizer only


def test_global_fanout_is_widest_unregistered_bundle():
    spec = make_spec(n_slaves=1, regs_per_slave=226, width=32, topology="global",
                     global_depth=256, global_width=32, addr_width=8)
    model = elaborate_global(spec)
    assert structural_counts(model).max_unregistered_bundle_bits == 7_232


def test_registered_stages_keep_fanout_unregistered_at_sync():
    spec = make_spec(n_slaves=1, regs_per_slave=226, width=32, topology="global_cdc_dest",
                     global_depth=256, global_width=32, addr_width=8)
    model = elaborate_global(spec)
    assert structural_counts(model).max_unregistered_bundle_bits == 7_232


def test_distributed_bundle_is_bus_width():
    spec = make_spec(n_slaves=2, regs_per_slave=4, addr_width=8, data_width=32)
    counts = structural_counts(elaborate_distributed(spec))
    # addr + data + write + one select per slave
    assert counts.max_unregistered_bundle_bits == 8 + 32 + 1 + 2


def test_empty_spec_all_counts_zero():
    spec = make_spec(n_slaves=0, regs_per_slave=0)
    counts = structural_counts(elaborate_distributed(spec))
    assert counts == type(counts)(0, 0, 0, 0)


def test_dest_registers_add_exactly_target_bits():
    """global_cdc_dest puts an L-deep synchronizer chain and a destination
    register behind each setting bit of global_registered."""
    def spec(topology):
        return make_spec(n_slaves=2, regs_per_slave=16, width=32, topology=topology,
                         global_depth=64, global_width=32, addr_width=8, sync_length=3)

    delta = (
        structural_counts(elaborate_global(spec("global_cdc_dest"))).flipflops
        - structural_counts(elaborate_global(spec("global_registered"))).flipflops
    )
    assert delta == spec("global_cdc_dest").total_setting_bits * (3 + 1) == 2 * 16 * 32 * 4


def test_elaboration_deterministic():
    spec = make_spec(n_slaves=3, regs_per_slave=5)
    a = elaborate(spec)
    b = elaborate(spec)
    assert a.to_json() == b.to_json()
    assert a.content_hash() == b.content_hash()


def test_canonical_dump_sorted_by_kind_then_name():
    spec = make_spec(n_slaves=2, regs_per_slave=2)
    model = elaborate(spec)
    import json

    doc = json.loads(model.to_json())
    keys = [(e["kind"], e["name"]) for e in doc["elements"]]
    assert keys == sorted(keys)


def test_wire_endpoints_exist():
    for spec in (
        make_spec(n_slaves=3, regs_per_slave=4),
        make_spec(n_slaves=2, regs_per_slave=4, topology="global_cdc_dest",
                  global_depth=16, global_width=32, addr_width=8),
    ):
        model = elaborate(spec)
        names = {el.name for el in model.elements}
        for el in model.elements:
            if el.kind == "wire_bundle":
                assert el.source in names and el.sink in names


def test_conservation_each_setting_has_one_storage_slot():
    spec = make_spec(n_slaves=2, regs_per_slave=4, topology="global",
                     global_depth=16, global_width=32, addr_width=8)
    entries = address_map(spec)
    word_of = global_word_map(entry.address for entry in entries)
    assert len(word_of) == len(entries)
    assert sorted(word_of.values()) == list(range(len(entries)))


@settings(max_examples=50)
@given(spec_docs())
def test_distributed_structure_matches_closed_form(doc):
    spec = parse_spec(json.dumps(doc))
    assert validate(spec).ok
    model = elaborate_distributed(spec)
    counts = structural_counts(model)
    expected = spec.total_setting_bits + len(spec.slaves) * (
        1 + spec.architecture.sync_length
    )
    assert counts.flipflops == expected
    assert counts.decode_terms == spec.total_words
    assert model.to_json() == elaborate_distributed(spec).to_json()


@pytest.mark.parametrize(
    "reg_width,depth,mem_width,message",
    [
        (8, 4, 32, "words"),
        (32, 256, 16, "width"),
        (32, 1, 8, "bits"),
    ],
)
def test_capacity_errors(reg_width, depth, mem_width, message):
    spec = make_spec(n_slaves=1, regs_per_slave=8, width=reg_width, topology="global",
                     global_depth=depth, global_width=mem_width, addr_width=8)
    with pytest.raises(CapacityError) as err:
        elaborate_global(spec)
    assert message in str(err.value)


@settings(max_examples=200)
@given(spec_docs(), st.sampled_from(TOPOLOGIES), st.integers(0, 8), st.integers(0, 40))
def test_a_spec_that_validates_compiles_and_simulates(doc, topology, depth, width):
    doc["architecture"].update(topology=topology, global_depth=depth, global_width=width)
    spec = parse_spec(json.dumps(doc))
    report = validate(spec)
    try:
        model = elaborate(spec)
    except CapacityError:
        assert "global_capacity" in {d.code for d in report.diagnostics}
        return
    if report.ok:
        emit(model, spec)
        build_sim(spec)


def test_elaborate_rejects_topology_outside_the_stage_table():
    spec = make_spec(n_slaves=1, regs_per_slave=2)
    bogus = dataclasses.replace(
        spec, architecture=dataclasses.replace(spec.architecture, topology="bogus")
    )
    with pytest.raises(SpecError, match="^unknown topology 'bogus', expected one of global, "
                                        "global_registered, global_cdc_dest, distributed$"):
        elaborate(bogus)


@pytest.mark.parametrize("topology", ["distributed", "global_cdc_dest"])
def test_elaborate_sums_total_words_once(topology, monkeypatch):
    spec = make_spec(n_slaves=16, regs_per_slave=2, topology=topology, addr_width=8,
                     global_depth=32, global_width=32)
    calls = []
    total_words = RegisterMapSpec.total_words.fget

    def counting(self):
        calls.append(self)
        return total_words(self)

    monkeypatch.setattr(RegisterMapSpec, "total_words", property(counting))
    elaborate(spec)
    assert calls == [spec]
