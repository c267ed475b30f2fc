"""regforge: settings-register map compiler and verification workbench.

Pipeline: parse and validate a register-map document, elaborate it into
a structural model for a centralized or distributed configuration
architecture, simulate host programming over the configuration bus
(including clock-domain handshakes and partial-reconfiguration swaps),
emit SystemVerilog, and estimate the FPGA resource cost.

Each public name below is imported from its home module on first use,
so ``import regforge`` loads, and compiles, only the modules a caller
touches.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys((
        "Calibration",
        "DesignPoint",
        "Measurement",
        "ResourceEstimate",
        "calibrate",
        "compare",
        "default_calibration",
        "estimate",
        "estimate_alms",
        "estimate_aluts",
        "estimate_fmax",
        "estimate_registers",
        "load_calibration",
        "register_overhead",
        "save_calibration",
        "sweep",
        "sweep_to_csv",
    ), "cost"),
    **dict.fromkeys((
        "DesignModel",
        "StructuralCounts",
        "elaborate",
        "elaborate_distributed",
        "elaborate_global",
        "structural_counts",
    ), "elaborate"),
    "emit": "emit",
    **dict.fromkeys((
        "CalibrationError",
        "CapacityError",
        "EmitError",
        "InvalidSpecError",
        "RegforgeError",
        "SimError",
        "SpecError",
        "UncalibratedError",
    ), "errors"),
    **dict.fromkeys((
        "ProgramScript",
        "Simulation",
        "build_sim",
        "check_coherence",
        "parse_script",
        "trace_to_csv",
    ), "sim"),
    **dict.fromkeys((
        "AddressEntry",
        "ArchChoice",
        "BusGeometry",
        "ClockDomain",
        "ElaborationOptions",
        "RegisterMapSpec",
        "SettingSpec",
        "SlaveSpec",
        "ValidationReport",
        "address_map",
        "load_spec",
        "parse_spec",
        "serialize",
        "validate",
    ), "spec"),
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package module.  Importing a submodule binds it as an attribute
    of its package; for ``elaborate`` and ``emit`` that attribute is the
    function of the same name, so the binding is not made."""

    def __setattr__(self, name, value):
        if not (name in _HOMES and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
