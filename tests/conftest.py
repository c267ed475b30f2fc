import json
import random

import pytest
from hypothesis import settings

from regforge import CapacityError, elaborate, parse_spec, structural_counts, validate
from regforge.cost import (
    DesignPoint,
    estimate_registers,
    register_overhead,
    widest_unregistered_bundle,
)
from regforge.spec import (
    ArchChoice,
    BusGeometry,
    ClockDomain,
    RegisterMapSpec,
    SettingSpec,
    SlaveSpec,
)


# Every property test draws the same examples on every run, as the
# toolchain it checks is deterministic; no example has a deadline.
settings.register_profile("regforge", derandomize=True, deadline=None)
settings.load_profile("regforge")


def make_spec_doc(
    n_slaves=2,
    regs_per_slave=4,
    width=32,
    topology="distributed",
    data_width=32,
    addr_width=8,
    stride=None,
    global_depth=0,
    global_width=0,
    sync_length=2,
    periods=(10_000, 7_000),
):
    """Build a well-formed spec document as a plain dict."""
    stride = stride if stride is not None else max(regs_per_slave, 1)
    domains = [{"name": f"clk{i}", "period_ps": p} for i, p in enumerate(periods)]
    slaves = []
    for k in range(n_slaves):
        slaves.append(
            {
                "name": f"slave{k}",
                "clock_domain": domains[min(1, len(domains) - 1)]["name"],
                "base_addr": k * stride,
                "registers": [
                    {"name": f"r{i}", "offset": i, "width": width, "reset_value": 0}
                    for i in range(regs_per_slave)
                ],
            }
        )
    return {
        "name": "testdes",
        "bus": {
            "data_width": data_width,
            "addr_width": addr_width,
            "slave_select_bits": max((n_slaves - 1).bit_length(), 0),
        },
        "clock_domains": domains,
        "slaves": slaves,
        "architecture": {
            "topology": topology,
            "sync_length": sync_length,
            "global_depth": global_depth,
            "global_width": global_width,
        },
    }


def make_spec(**kwargs):
    return parse_spec(json.dumps(make_spec_doc(**kwargs)))


_CFG_PERIOD_PS = 10_000
_SLAVE_PERIOD_PS = 7_000


def point_to_spec(point):
    """Materialize a design point as a register-map spec.

    Uses a canonical two-domain clocking scheme and packed slave bases;
    the resulting spec is what the estimator's closed forms
    (``estimate_registers``, ``widest_unregistered_bundle``) are exact
    against.
    """
    width = max(point.target_width, 1)
    offset_bits = max(1, (max(point.targets, 1) - 1).bit_length())
    select_bits = (point.slaves - 1).bit_length() if point.slaves > 1 else 0
    registers = tuple(
        SettingSpec(name=f"r{i}", offset=i, width=width) for i in range(point.targets)
    )
    slaves = tuple(
        SlaveSpec(
            name=f"slave{k}",
            clock_domain="slave_clk",
            base_addr=k << offset_bits,
            registers=registers,
        )
        for k in range(point.slaves)
    )
    return RegisterMapSpec(
        name="point",
        bus=BusGeometry(
            data_width=width,
            addr_width=select_bits + offset_bits,
            slave_select_bits=select_bits,
        ),
        clock_domains=(
            ClockDomain("cfg_clk", _CFG_PERIOD_PS),
            ClockDomain("slave_clk", _SLAVE_PERIOD_PS),
        ),
        slaves=slaves,
        architecture=ArchChoice(
            topology=point.topology,
            sync_length=point.sync_length,
            global_depth=point.depth,
            global_width=point.width,
        ),
    )


def capacity_messages(spec):
    """The messages of the spec's ``global_capacity`` diagnostics."""
    return [d.message for d in validate(spec).diagnostics if d.code == "global_capacity"]


def check_against_oracle(point, cal):
    """Assert the register model and the bundle width equal the structural
    counts of the point's elaborated spec.  For a point whose settings do
    not fit its memory, assert the estimator and the elaborator both raise
    the message of the spec's one ``global_capacity`` diagnostic and return
    that message; return None for a point that fits, whose spec has no
    such diagnostic."""
    spec = point_to_spec(point)
    capacity = capacity_messages(spec)
    try:
        counts = structural_counts(elaborate(spec))
    except CapacityError as exc:
        with pytest.raises(CapacityError) as raised:
            widest_unregistered_bundle(point)
        assert [str(raised.value)] == [str(exc)] == capacity
        return str(exc)
    assert capacity == []
    assert estimate_registers(point, cal) - register_overhead(point, cal) == counts.flipflops
    assert widest_unregistered_bundle(point) == counts.max_unregistered_bundle_bits
    return None


# One point per capacity rule, in the order spec.capacity_problem checks
# them, with its message.
OVER_CAPACITY = (
    (
        DesignPoint("global", depth=4, width=8, targets=8, target_width=8),
        "global memory 4x8 holds 32 bits but settings need 64",
    ),
    (
        DesignPoint("global_registered", depth=4, width=32, targets=8,
                    target_width=1),
        "settings occupy 8 words but memory depth is 4",
    ),
    (
        DesignPoint("global_cdc_dest", depth=16, width=4, targets=2,
                    target_width=8, slaves=2),
        "setting width 8 exceeds memory word width 4",
    ),
)


@pytest.fixture
def distributed_spec():
    return make_spec()


@pytest.fixture
def rng():
    return random.Random(20240809)
