"""Declarative register-map specification: parsing, validation, addressing.

A register map is described by a JSON document naming the bus geometry,
the clock domains, the slave blocks with their settings registers, and
the storage architecture to compile to.  This module turns that document
into an immutable :class:`RegisterMapSpec`, checks every structural
invariant, and derives the flat address map that the HDL emitter
reads and the central-memory word slots it shares with the simulator.

Integers in the document may be plain JSON numbers or ``"0x"``-prefixed
hex strings.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import NamedTuple

from .errors import SpecError
from .fields import (
    ROOT,
    load_document,
    objects,
    read_int,
    read_list,
    read_obj,
    read_str,
    reject_unknown,
)


@dataclass(frozen=True)
class ElaborationOptions:
    output_registered: bool = False
    cdc: bool = False

    @staticmethod
    def for_topology(topology: str, path: str | None = None) -> "ElaborationOptions":
        """The stages of ``topology``; :class:`SpecError` at ``path`` with
        :func:`topology_problem`'s message if it has none."""
        options = TOPOLOGY_FLAGS.get(topology)
        if options is None:
            raise SpecError(topology_problem(topology), path)
        return options


# Each topology's register stages: the one table that names the topologies
# and maps each to its stages.  cdc adds a synchronizer chain and a
# destination register behind every setting bit.
TOPOLOGY_FLAGS = {
    "global": ElaborationOptions(False, False),
    "global_registered": ElaborationOptions(True, False),
    "global_cdc_dest": ElaborationOptions(True, True),
    "distributed": ElaborationOptions(False, False),
}
TOPOLOGIES = tuple(TOPOLOGY_FLAGS)
GLOBAL_TOPOLOGIES = tuple(t for t in TOPOLOGIES if t != "distributed")


@dataclass(frozen=True)
class BusGeometry:
    data_width: int
    addr_width: int
    slave_select_bits: int


@dataclass(frozen=True)
class ClockDomain:
    name: str
    period_ps: int


class SettingSpec(NamedTuple):
    """One settings register.  A tuple, not a dataclass, because parsing
    builds one per register of the document."""

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

    @property
    def setting_widths(self) -> list[int]:
        """The width of each setting, in spec order."""
        # by index: reading a NamedTuple field by name is slower
        return [r[2] for s in self.slaves for r in s.registers]

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


class AddressEntry(NamedTuple):
    """One addressed setting.  A tuple, not a dataclass, because the
    address map builds one per register for every decoder and simulator."""

    slave: str
    setting: str
    address: int


# --------------------------------------------------------------------------
# Parsing

_SPEC_KEYS = frozenset(("name", "bus", "clock_domains", "slaves", "architecture"))
_BUS_KEYS = frozenset(("data_width", "addr_width", "slave_select_bits"))
_DOMAIN_KEYS = frozenset(("name", "period_ps"))
_SLAVE_KEYS = frozenset(("name", "clock_domain", "base_addr", "registers"))
_SETTING_KEYS = frozenset(("name", "offset", "width", "reset_value"))
_ARCH_KEYS = frozenset(("topology", "sync_length", "global_depth", "global_width"))
_FRAGMENT_KEYS = frozenset(("registers",))


def _parse_settings(items: list, path) -> tuple[SettingSpec, ...]:
    settings = []
    for reg_path, obj in objects(items, path):
        reject_unknown(obj, _SETTING_KEYS, reg_path)
        settings.append(SettingSpec(
            read_str(obj, "name", reg_path),
            read_int(obj, "offset", reg_path),
            read_int(obj, "width", reg_path),
            read_int(obj, "reset_value", reg_path, 0),
        ))
    return tuple(settings)


def _parse_slave(obj: dict, path) -> SlaveSpec:
    reject_unknown(obj, _SLAVE_KEYS, path)
    regs = read_list(obj, "registers", path)
    return SlaveSpec(
        name=read_str(obj, "name", path),
        clock_domain=read_str(obj, "clock_domain", path),
        base_addr=read_int(obj, "base_addr", path),
        registers=_parse_settings(regs, (path, "registers")),
    )


def parse_fragment(obj: dict, path) -> tuple[SettingSpec, ...]:
    """Read a spec fragment, the register list that replaces a slave's in
    a module swap; ``path`` is the fragment's, as :mod:`regforge.fields`
    builds it."""
    reject_unknown(obj, _FRAGMENT_KEYS, path)
    return _parse_settings(read_list(obj, "registers", path, []), (path, "registers"))


def parse_spec(text: str) -> RegisterMapSpec:
    """Parse a register-map JSON document into a :class:`RegisterMapSpec`.

    Raises :class:`SpecError` with a field path on malformed input; use
    :func:`validate` afterwards for semantic checks.
    """
    doc = load_document(text)
    reject_unknown(doc, _SPEC_KEYS, ROOT)

    bus_path = (ROOT, "bus")
    bus_obj = read_obj(doc, "bus", ROOT)
    reject_unknown(bus_obj, _BUS_KEYS, bus_path)
    bus = BusGeometry(
        data_width=read_int(bus_obj, "data_width", bus_path),
        addr_width=read_int(bus_obj, "addr_width", bus_path),
        slave_select_bits=read_int(bus_obj, "slave_select_bits", bus_path),
    )

    domains = []
    for path, obj in objects(read_list(doc, "clock_domains", ROOT), (ROOT, "clock_domains")):
        reject_unknown(obj, _DOMAIN_KEYS, path)
        domains.append(
            ClockDomain(name=read_str(obj, "name", path), period_ps=read_int(obj, "period_ps", path))
        )

    slaves = tuple(
        _parse_slave(obj, path)
        for path, obj in objects(read_list(doc, "slaves", ROOT), (ROOT, "slaves"))
    )

    arch_path = (ROOT, "architecture")
    arch_obj = read_obj(doc, "architecture", ROOT)
    reject_unknown(arch_obj, _ARCH_KEYS, arch_path)
    topology = read_str(arch_obj, "topology", arch_path)
    ElaborationOptions.for_topology(topology, "$.architecture.topology")
    arch = ArchChoice(
        topology=topology,
        sync_length=read_int(arch_obj, "sync_length", arch_path, 2),
        global_depth=read_int(arch_obj, "global_depth", arch_path, 0),
        global_width=read_int(arch_obj, "global_width", arch_path, 0),
    )

    return RegisterMapSpec(
        name=read_str(doc, "name", ROOT),
        bus=bus,
        clock_domains=tuple(domains),
        slaves=slaves,
        architecture=arch,
    )


def serialize(spec: RegisterMapSpec) -> str:
    """Render a spec back to its canonical JSON form.

    Canonical form uses schema key order (the field order of each record),
    decimal integers, and two-space indentation;
    ``parse_spec(serialize(s)) == s`` for any valid spec.
    """
    doc = asdict(spec)
    # asdict leaves a NamedTuple a tuple, which json writes as an array
    for slave in doc["slaves"]:
        slave["registers"] = [reg._asdict() for reg in slave["registers"]]
    return json.dumps(doc, indent=2) + "\n"


def load_spec(path) -> RegisterMapSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


# --------------------------------------------------------------------------
# Validation rules
#
# Each rule that a caller besides validate applies lives here once, in
# validate's wording: ElaborationOptions.for_topology raises
# topology_problem, elaborate and the estimator raise capacity_problem,
# a design point raises sync_length_problem, and a module swap refuses a
# fragment that register_problems finds fault with.


def topology_problem(topology: str) -> str | None:
    """Why ``topology`` names no design, or None when it is in the stage
    table."""
    if topology in TOPOLOGY_FLAGS:
        return None
    return f"unknown topology {topology!r}, expected one of {', '.join(TOPOLOGIES)}"


def register_problems(slave: str, registers: Iterable[SettingSpec], data_width: int):
    """Yield ``(index, code, field, message)`` for each per-register rule
    that the settings ``registers`` of slave ``slave`` break, in register
    order: offsets are >= 0 and distinct, names are distinct, a width is
    in 1..``data_width`` and the reset value fits it.  ``field`` is the
    suffix of the register's path that the message names, ``""`` for the
    register itself."""
    seen_offsets = set()
    seen_names = set()
    for j, (setting, offset, width, reset) in enumerate(registers):
        if offset < 0:
            yield j, "negative_value", ".offset", "offset must be >= 0"
        if offset in seen_offsets:
            yield j, "dup_offset", "", f"offset {offset} used twice in slave {slave!r}"
        seen_offsets.add(offset)
        if setting in seen_names:
            yield j, "dup_setting_name", "", f"setting {setting!r} named twice in slave {slave!r}"
        seen_names.add(setting)
        # no 1 << width: a width can be too large to shift by
        if width < 1 or (data_width >= 1 and width > data_width):
            yield j, "setting_width", ".width", f"width {width} outside 1..{data_width}"
        if reset < 0 or (width >= 1 and reset.bit_length() > width):
            yield (j, "reset_range", ".reset_value",
                   f"reset value {reset} does not fit in {width} bits")


def sync_length_problem(topology: str, sync_length: int) -> str | None:
    """The synchronizer-length rule that ``sync_length`` breaks under
    ``topology``, or None: every chain has a stage, and a topology that
    crosses clock domains needs two."""
    if sync_length < 1:
        return "sync_length must be >= 1"
    stages = TOPOLOGY_FLAGS.get(topology)
    if sync_length < 2 and stages is not None and stages.cdc:
        return "sync_length must be >= 2 when crossing clock domains"
    return None


def capacity_problem(depth: int, width: int, total_bits: int, words: int,
                     widest: int) -> str | None:
    """The first capacity rule that ``words`` settings of ``total_bits``
    bits in all, the widest ``widest`` bits (0 when there are none), break
    in a ``depth`` x ``width`` central memory, or None when they fit.  The
    total bits must fit, each setting takes one memory word, and no
    setting may be wider than the word.  A negative dimension holds
    nothing; the message names it as given."""
    depth_words, word_bits = max(depth, 0), max(width, 0)
    capacity = depth_words * word_bits
    if capacity < total_bits:
        return (f"global memory {depth}x{width} holds {capacity} bits "
                f"but settings need {total_bits}")
    if words > depth_words:
        return f"settings occupy {words} words but memory depth is {depth}"
    if widest > word_bits:
        return f"setting width {widest} exceeds memory word width {width}"
    return None


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
    # Sizes are compared by bit_length, never by building 1 << width: a
    # width from the document can be too large to shift by.
    if spec.slaves and 0 <= bus.slave_select_bits < (len(spec.slaves) - 1).bit_length():
        report.add(
            "bus_geometry",
            "$.bus.slave_select_bits",
            f"2^{bus.slave_select_bits} select codes cannot address {len(spec.slaves)} slaves",
        )

    if not spec.clock_domains:
        report.add("no_clock_domain", "$.clock_domains", "at least one clock domain is required")
    seen_domains = set()
    for i, dom in enumerate(spec.clock_domains):
        if dom.name in seen_domains:
            report.add(
                "dup_domain_name", f"$.clock_domains[{i}]", f"duplicate clock domain {dom.name!r}"
            )
        seen_domains.add(dom.name)
        if dom.period_ps <= 0:
            report.add("domain_period", f"$.clock_domains[{i}].period_ps", "period_ps must be > 0")

    # Paths are formatted only for the diagnostics that are reported.
    words = [s.words for s in spec.slaves]
    seen_slaves = set()
    for i, slave in enumerate(spec.slaves):
        if slave.name in seen_slaves:
            report.add("dup_slave_name", f"$.slaves[{i}]", f"duplicate slave {slave.name!r}")
        seen_slaves.add(slave.name)
        if slave.clock_domain not in seen_domains:
            report.add(
                "unknown_clock_domain",
                f"$.slaves[{i}].clock_domain",
                f"slave {slave.name!r} references undefined clock domain {slave.clock_domain!r}",
            )
        if slave.base_addr < 0:
            report.add("negative_value", f"$.slaves[{i}].base_addr", "base_addr must be >= 0")
        for j, code, where, message in register_problems(
            slave.name, slave.registers, bus.data_width
        ):
            report.add(code, f"$.slaves[{i}].registers[{j}]{where}", message)

        if slave.base_addr >= 0 and bus.addr_width >= 1:
            end = slave.base_addr + words[i]
            if end > 0 and (end - 1).bit_length() > bus.addr_width:
                report.add(
                    "addr_range",
                    f"$.slaves[{i}]",
                    f"slave {slave.name!r} range [{slave.base_addr}, {end}) exceeds "
                    f"{bus.addr_width}-bit address space",
                )

    ordered = sorted(
        (
            (slave.base_addr, slave.name, n)
            for slave, n in zip(spec.slaves, words)
            if slave.base_addr >= 0 and n > 0
        ),
        key=lambda e: (e[0], e[1]),
    )
    for (a_base, a_name, a_words), (b_base, b_name, _) in zip(ordered, ordered[1:]):
        if a_base + a_words > b_base:
            report.add(
                "addr_overlap",
                "$.slaves",
                f"slave {a_name!r} words [{a_base}, {a_base + a_words}) "
                f"overlap slave {b_name!r} at {b_base}",
            )

    arch = spec.architecture
    problem = topology_problem(arch.topology)
    if problem is not None:
        report.add("unknown_topology", "$.architecture.topology", problem)
    problem = sync_length_problem(arch.topology, arch.sync_length)
    if problem is not None:
        report.add("sync_length", "$.architecture.sync_length", problem)
    if arch.topology in GLOBAL_TOPOLOGIES:
        if arch.global_depth < 0 or arch.global_width < 0:
            report.add("negative_value", "$.architecture", "global memory dimensions must be >= 0")
        widths = spec.setting_widths
        problem = capacity_problem(
            arch.global_depth, arch.global_width, sum(widths), spec.total_words,
            max(widths, default=0),
        )
        if problem is not None:
            report.add("global_capacity", "$.architecture", problem)

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
    entries.sort(key=attrgetter("address"))
    return entries


def global_word_map(addresses: Iterable[int]) -> dict[int, int]:
    """The central-memory word slot of each of the spec's distinct setting
    ``addresses``, given in any order.  Slots follow ascending address, the
    order of :func:`address_map`, so the emitter and the simulator allocate
    alike.  Words past the last slot are plain storage, not on the bus."""
    return {addr: slot for slot, addr in enumerate(sorted(addresses))}
