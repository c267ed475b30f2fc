"""regforge: settings-register map compiler and verification workbench.

Pipeline: parse and validate a register-map document, elaborate it into
a structural model for a centralized or distributed configuration
architecture, simulate host programming over the configuration bus
(including clock-domain handshakes and partial-reconfiguration swaps),
emit SystemVerilog, and estimate the FPGA resource cost.
"""

from .cost import (
    Calibration,
    DesignPoint,
    Measurement,
    ResourceEstimate,
    calibrate,
    compare,
    default_calibration,
    estimate,
    estimate_alms,
    estimate_aluts,
    estimate_fmax,
    estimate_registers,
    load_calibration,
    register_overhead,
    save_calibration,
    sweep,
    sweep_to_csv,
)
from .elaborate import (
    DesignModel,
    StructuralCounts,
    elaborate,
    elaborate_distributed,
    elaborate_global,
    structural_counts,
)
from .emit import emit
from .errors import (
    CalibrationError,
    CapacityError,
    EmitError,
    InvalidSpecError,
    RegforgeError,
    SimError,
    SpecError,
    UncalibratedError,
)
from .sim import (
    ProgramScript,
    Simulation,
    build_sim,
    check_coherence,
    parse_script,
    trace_to_csv,
)
from .spec import (
    AddressEntry,
    ArchChoice,
    BusGeometry,
    ClockDomain,
    ElaborationOptions,
    RegisterMapSpec,
    SettingSpec,
    SlaveSpec,
    ValidationReport,
    address_map,
    load_spec,
    parse_spec,
    serialize,
    validate,
)

__version__ = "0.1.0"
