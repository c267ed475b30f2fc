import json
import random

import pytest

from regforge import CapacityError, elaborate, parse_spec, structural_counts
from regforge.cost import (
    DesignPoint,
    estimate_registers,
    point_to_spec,
    register_overhead,
    widest_unregistered_bundle,
)


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


def oracle_model(point):
    """Elaborate a design point through the spec bridge: the structural
    oracle for the estimator's closed forms."""
    return elaborate(point_to_spec(point))


def check_against_oracle(point, cal):
    """Assert the register model and the bundle width equal the oracle's
    structural counts.  For a point whose settings do not fit its memory,
    assert the estimator raises the elaborator's CapacityError message and
    return that message; return None for a point that fits."""
    try:
        counts = structural_counts(oracle_model(point))
    except CapacityError as exc:
        with pytest.raises(CapacityError) as raised:
            widest_unregistered_bundle(point)
        assert str(raised.value) == str(exc)
        return str(exc)
    assert estimate_registers(point, cal) - register_overhead(point, cal) == counts.flipflops
    assert widest_unregistered_bundle(point) == counts.max_unregistered_bundle_bits
    return None


# One point per capacity check, in the elaborator's order, with its message.
OVER_CAPACITY = (
    (
        DesignPoint("global", depth=4, width=8, targets=8, target_width=8),
        "settings need 64 bits but memory is 4x8",
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
