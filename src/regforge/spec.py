"""Declarative register-map specification: parsing, validation, addressing.

A register map is described by a JSON document naming the bus geometry,
the clock domains, the slave blocks with their settings registers, and
the storage architecture to compile to.  This module turns that document
into an immutable :class:`RegisterMapSpec`, checks every structural
invariant, and derives the flat address map that the decoder, simulator,
and HDL emitter all share.

Integers in the document may be plain JSON numbers or ``"0x"``-prefixed
hex strings.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import SpecError

TOPOLOGIES = ("global", "global_registered", "global_cdc_dest", "distributed")
GLOBAL_TOPOLOGIES = ("global", "global_registered", "global_cdc_dest")


@dataclass(frozen=True)
class BusGeometry:
    data_width: int
    addr_width: int
    slave_select_bits: int


@dataclass(frozen=True)
class ClockDomain:
    name: str
    period_ps: int


@dataclass(frozen=True)
class SettingSpec:
    name: str
    offset: int
    width: int
    reset_value: int = 0


@dataclass(frozen=True)
class SlaveSpec:
    name: str
    clock_domain: str
    base_addr: int
    registers: tuple[SettingSpec, ...] = ()

    @property
    def words(self) -> int:
        """Number of addressed words this slave occupies (0 if empty)."""
        if not self.registers:
            return 0
        return max(r.offset for r in self.registers) + 1

    @property
    def setting_bits(self) -> int:
        return sum(r.width for r in self.registers)


@dataclass(frozen=True)
class ArchChoice:
    topology: str
    sync_length: int = 2
    global_depth: int = 0
    global_width: int = 0


@dataclass(frozen=True)
class RegisterMapSpec:
    name: str
    bus: BusGeometry
    clock_domains: tuple[ClockDomain, ...]
    slaves: tuple[SlaveSpec, ...]
    architecture: ArchChoice

    @property
    def total_setting_bits(self) -> int:
        return sum(s.setting_bits for s in self.slaves)

    @property
    def total_words(self) -> int:
        return sum(len(s.registers) for s in self.slaves)

    def slave(self, name: str) -> SlaveSpec:
        for s in self.slaves:
            if s.name == name:
                return s
        raise KeyError(name)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.path}: {self.message}"


@dataclass
class ValidationReport:
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def add(self, code: str, path: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(code, path, message))

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(d) for d in self.diagnostics)


@dataclass(frozen=True)
class AddressEntry:
    slave: str
    setting: str
    address: int


# --------------------------------------------------------------------------
# Parsing


def _parse_int(value, path: str) -> int:
    if isinstance(value, bool):
        raise SpecError("expected integer, got boolean", path)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            if text.lower().startswith(("0x", "-0x")):
                return int(text, 16)
            return int(text, 10)
        except ValueError:
            raise SpecError(f"not an integer: {value!r}", path) from None
    raise SpecError(f"expected integer, got {type(value).__name__}", path)


def _parse_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SpecError(f"expected string, got {type(value).__name__}", path)
    return value


def _parse_obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"expected object, got {type(value).__name__}", path)
    return value


def _parse_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SpecError(f"expected array, got {type(value).__name__}", path)
    return value


def _reject_unknown(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise SpecError(f"unknown field(s): {', '.join(unknown)}", path)


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SpecError(f"missing required field '{key}'", path)
    return obj[key]


def _parse_setting(obj, path: str) -> SettingSpec:
    obj = _parse_obj(obj, path)
    _reject_unknown(obj, ("name", "offset", "width", "reset_value"), path)
    return SettingSpec(
        name=_parse_str(_require(obj, "name", path), f"{path}.name"),
        offset=_parse_int(_require(obj, "offset", path), f"{path}.offset"),
        width=_parse_int(_require(obj, "width", path), f"{path}.width"),
        reset_value=_parse_int(obj.get("reset_value", 0), f"{path}.reset_value"),
    )


def _parse_slave(obj, path: str) -> SlaveSpec:
    obj = _parse_obj(obj, path)
    _reject_unknown(obj, ("name", "clock_domain", "base_addr", "registers"), path)
    regs = _parse_list(_require(obj, "registers", path), f"{path}.registers")
    return SlaveSpec(
        name=_parse_str(_require(obj, "name", path), f"{path}.name"),
        clock_domain=_parse_str(
            _require(obj, "clock_domain", path), f"{path}.clock_domain"
        ),
        base_addr=_parse_int(_require(obj, "base_addr", path), f"{path}.base_addr"),
        registers=tuple(
            _parse_setting(r, f"{path}.registers[{i}]") for i, r in enumerate(regs)
        ),
    )


def parse_spec(text: str) -> RegisterMapSpec:
    """Parse a register-map JSON document into a :class:`RegisterMapSpec`.

    Raises :class:`SpecError` with a field path on malformed input; use
    :func:`validate` afterwards for semantic checks.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"syntax error: {exc.msg} (line {exc.lineno})") from None
    doc = _parse_obj(doc, "$")
    _reject_unknown(doc, ("name", "bus", "clock_domains", "slaves", "architecture"), "$")

    bus_obj = _parse_obj(_require(doc, "bus", "$"), "$.bus")
    _reject_unknown(bus_obj, ("data_width", "addr_width", "slave_select_bits"), "$.bus")
    bus = BusGeometry(
        data_width=_parse_int(_require(bus_obj, "data_width", "$.bus"), "$.bus.data_width"),
        addr_width=_parse_int(_require(bus_obj, "addr_width", "$.bus"), "$.bus.addr_width"),
        slave_select_bits=_parse_int(
            _require(bus_obj, "slave_select_bits", "$.bus"), "$.bus.slave_select_bits"
        ),
    )

    domains = []
    for i, obj in enumerate(_parse_list(_require(doc, "clock_domains", "$"), "$.clock_domains")):
        path = f"$.clock_domains[{i}]"
        obj = _parse_obj(obj, path)
        _reject_unknown(obj, ("name", "period_ps"), path)
        domains.append(
            ClockDomain(
                name=_parse_str(_require(obj, "name", path), f"{path}.name"),
                period_ps=_parse_int(_require(obj, "period_ps", path), f"{path}.period_ps"),
            )
        )

    slaves = tuple(
        _parse_slave(obj, f"$.slaves[{i}]")
        for i, obj in enumerate(_parse_list(_require(doc, "slaves", "$"), "$.slaves"))
    )

    arch_obj = _parse_obj(_require(doc, "architecture", "$"), "$.architecture")
    _reject_unknown(
        arch_obj, ("topology", "sync_length", "global_depth", "global_width"), "$.architecture"
    )
    topology = _parse_str(_require(arch_obj, "topology", "$.architecture"), "$.architecture.topology")
    if topology not in TOPOLOGIES:
        raise SpecError(
            f"unknown topology {topology!r}, expected one of {', '.join(TOPOLOGIES)}",
            "$.architecture.topology",
        )
    arch = ArchChoice(
        topology=topology,
        sync_length=_parse_int(arch_obj.get("sync_length", 2), "$.architecture.sync_length"),
        global_depth=_parse_int(arch_obj.get("global_depth", 0), "$.architecture.global_depth"),
        global_width=_parse_int(arch_obj.get("global_width", 0), "$.architecture.global_width"),
    )

    return RegisterMapSpec(
        name=_parse_str(_require(doc, "name", "$"), "$.name"),
        bus=bus,
        clock_domains=tuple(domains),
        slaves=slaves,
        architecture=arch,
    )


def serialize(spec: RegisterMapSpec) -> str:
    """Render a spec back to its canonical JSON form.

    Canonical form uses schema key order, decimal integers, and two-space
    indentation; ``parse_spec(serialize(s)) == s`` for any valid spec.
    """
    doc = {
        "name": spec.name,
        "bus": {
            "data_width": spec.bus.data_width,
            "addr_width": spec.bus.addr_width,
            "slave_select_bits": spec.bus.slave_select_bits,
        },
        "clock_domains": [
            {"name": d.name, "period_ps": d.period_ps} for d in spec.clock_domains
        ],
        "slaves": [
            {
                "name": s.name,
                "clock_domain": s.clock_domain,
                "base_addr": s.base_addr,
                "registers": [
                    {
                        "name": r.name,
                        "offset": r.offset,
                        "width": r.width,
                        "reset_value": r.reset_value,
                    }
                    for r in s.registers
                ],
            }
            for s in spec.slaves
        ],
        "architecture": {
            "topology": spec.architecture.topology,
            "sync_length": spec.architecture.sync_length,
            "global_depth": spec.architecture.global_depth,
            "global_width": spec.architecture.global_width,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def load_spec(path) -> RegisterMapSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


# --------------------------------------------------------------------------
# Validation


def validate(spec: RegisterMapSpec) -> ValidationReport:
    """Check every structural invariant; violations are data, not errors.

    The report is empty exactly when the spec is well-formed.  Codes are
    stable identifiers suitable for scripting against.
    """
    report = ValidationReport()
    bus = spec.bus

    if bus.data_width < 1:
        report.add("bus_geometry", "$.bus.data_width", "data_width must be >= 1")
    if bus.addr_width < 1:
        report.add("bus_geometry", "$.bus.addr_width", "addr_width must be >= 1")
    if bus.slave_select_bits < 0:
        report.add("bus_geometry", "$.bus.slave_select_bits", "slave_select_bits must be >= 0")
    elif bus.slave_select_bits >= bus.addr_width:
        report.add(
            "bus_geometry",
            "$.bus.slave_select_bits",
            f"slave_select_bits ({bus.slave_select_bits}) must be < addr_width ({bus.addr_width})",
        )
    if spec.slaves and bus.slave_select_bits >= 0 and (1 << max(bus.slave_select_bits, 0)) < len(spec.slaves):
        report.add(
            "bus_geometry",
            "$.bus.slave_select_bits",
            f"2^{bus.slave_select_bits} select codes cannot address {len(spec.slaves)} slaves",
        )

    seen_domains = set()
    for i, dom in enumerate(spec.clock_domains):
        path = f"$.clock_domains[{i}]"
        if dom.name in seen_domains:
            report.add("dup_domain_name", path, f"duplicate clock domain {dom.name!r}")
        seen_domains.add(dom.name)
        if dom.period_ps <= 0:
            report.add("domain_period", f"{path}.period_ps", "period_ps must be > 0")

    seen_slaves = set()
    for i, slave in enumerate(spec.slaves):
        path = f"$.slaves[{i}]"
        if slave.name in seen_slaves:
            report.add("dup_slave_name", path, f"duplicate slave {slave.name!r}")
        seen_slaves.add(slave.name)
        if slave.clock_domain not in seen_domains:
            report.add(
                "unknown_clock_domain",
                f"{path}.clock_domain",
                f"slave {slave.name!r} references undefined clock domain {slave.clock_domain!r}",
            )
        if slave.base_addr < 0:
            report.add("negative_value", f"{path}.base_addr", "base_addr must be >= 0")

        seen_offsets = set()
        for j, reg in enumerate(slave.registers):
            rpath = f"{path}.registers[{j}]"
            if reg.offset < 0:
                report.add("negative_value", f"{rpath}.offset", "offset must be >= 0")
            if reg.offset in seen_offsets:
                report.add(
                    "dup_offset", rpath, f"offset {reg.offset} used twice in slave {slave.name!r}"
                )
            seen_offsets.add(reg.offset)
            if reg.width < 1 or (bus.data_width >= 1 and reg.width > bus.data_width):
                report.add(
                    "setting_width",
                    f"{rpath}.width",
                    f"width {reg.width} outside 1..{bus.data_width}",
                )
            if reg.reset_value < 0 or (reg.width >= 1 and reg.reset_value >= (1 << reg.width)):
                report.add(
                    "reset_range",
                    f"{rpath}.reset_value",
                    f"reset value {reg.reset_value} does not fit in {reg.width} bits",
                )

        if slave.base_addr >= 0 and bus.addr_width >= 1:
            end = slave.base_addr + slave.words
            if end > (1 << bus.addr_width):
                report.add(
                    "addr_range",
                    path,
                    f"slave {slave.name!r} range [{slave.base_addr}, {end}) exceeds "
                    f"{bus.addr_width}-bit address space",
                )

    ordered = sorted(
        (s for s in spec.slaves if s.base_addr >= 0 and s.words > 0),
        key=lambda s: (s.base_addr, s.name),
    )
    for a, b in zip(ordered, ordered[1:]):
        if a.base_addr + a.words > b.base_addr:
            report.add(
                "addr_overlap",
                "$.slaves",
                f"slave {a.name!r} words [{a.base_addr}, {a.base_addr + a.words}) "
                f"overlap slave {b.name!r} at {b.base_addr}",
            )

    arch = spec.architecture
    if arch.sync_length < 1:
        report.add("sync_length", "$.architecture.sync_length", "sync_length must be >= 1")
    elif arch.topology == "global_cdc_dest" and arch.sync_length < 2:
        report.add(
            "sync_length",
            "$.architecture.sync_length",
            "sync_length must be >= 2 when crossing clock domains",
        )
    if arch.topology in GLOBAL_TOPOLOGIES:
        if arch.global_depth < 0 or arch.global_width < 0:
            report.add("negative_value", "$.architecture", "global memory dimensions must be >= 0")
        capacity = max(arch.global_depth, 0) * max(arch.global_width, 0)
        if capacity < spec.total_setting_bits:
            report.add(
                "global_capacity",
                "$.architecture",
                f"global memory {arch.global_depth}x{arch.global_width} holds {capacity} bits "
                f"but settings need {spec.total_setting_bits}",
            )

    return report


# --------------------------------------------------------------------------
# Addressing


def address_map(spec: RegisterMapSpec) -> list[AddressEntry]:
    """Flatten the spec into (slave, setting, absolute address) entries.

    Entries are sorted by absolute address; assumes ``validate(spec)`` is
    clean, so addresses are pairwise distinct.
    """
    entries = [
        AddressEntry(slave.name, reg.name, slave.base_addr + reg.offset)
        for slave in spec.slaves
        for reg in slave.registers
    ]
    entries.sort(key=lambda e: e.address)
    return entries
