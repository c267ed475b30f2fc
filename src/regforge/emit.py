"""SystemVerilog emission for elaborated designs.

Output is plain IEEE 1800 source text, synthesizable clocked RTL only,
one top-level file plus one file per slave, treated strictly as a text
artifact: nothing here invokes a synthesizer.  Emission is deterministic;
identical inputs produce byte-identical files, which the golden tests pin
down.

Distributed slaves expose the configuration-bus port set
(``cfg_addr``/``cfg_wdata``/``cfg_write``/``cfg_sel``/``ready``) plus a
``busy`` input from the functional logic.  Centralized designs expose
wide per-slave setting buses from the memory stage, with optional
synchronizer and destination register stages inside each slave.
Each construct several files share has one writer below, and every
identifier comes from one :func:`_names` record per emission.
"""

from __future__ import annotations

import re
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from .elaborate import DesignModel
from .errors import EmitError
from .spec import (
    ElaborationOptions,
    RegisterMapSpec,
    global_word_map,
)

_INDENT = "    "
_NON_IDENT = re.compile(r"[^a-z0-9_]")
# identifiers, one a line: names that lowering leaves as they are
_IDENT_LINES = re.compile(r"[a-z_][a-z0-9_]*(?:\n[a-z_][a-z0-9_]*)*")


def sanitize_names(names: list[str], kind: str = "name") -> dict[str, str]:
    """Lower names to [a-z0-9_], deduplicating collisions with suffixes.

    Raises :class:`EmitError` if a name repeats: its two owners would
    share one identifier, port or module file.  ``kind`` names what the
    names belong to in that message.
    """
    return dict(zip(names, _lowered(names, kind)))


def _lowered(names: list[str], kind: str) -> list[str]:
    """The identifier of each of ``names``, in their order, as
    :func:`sanitize_names` maps them."""
    # Distinct names that are identifiers already are their own: one match
    # over the names joined by newlines decides, and a name that holds a
    # newline itself fails the count.
    joined = "\n".join(names)
    if (_IDENT_LINES.fullmatch(joined) and joined.count("\n") == len(names) - 1
            and len(set(names)) == len(names)):
        return names
    seen: set[str] = set()
    used: set[str] = set()
    out = []
    for name in names:
        if name in seen:
            raise EmitError(f"duplicate {kind} {name!r}")
        seen.add(name)
        ident = _NON_IDENT.sub("_", name.lower())
        if not ident or ident[0].isdigit():
            ident = "x" + ident
        candidate = ident
        serial = 2
        while candidate in used:
            candidate = f"{ident}_{serial}"
            serial += 1
        used.add(candidate)
        out.append(candidate)
    return out


def _range(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


# Line 2 of every emitted file: what marks a file as regforge's to replace.
GENERATED_LINE = "// generated by regforge; do not edit"


def _header(spec: RegisterMapSpec, model: DesignModel) -> str:
    """File banner; hashes the whole model, so build it once per emission."""
    return (
        f"// {spec.name} | topology {model.topology} | model {model.content_hash()[:12]}\n"
        f"{GENERATED_LINE}\n"
    )


class _Slave(NamedTuple):
    ident: str
    module: str
    # per setting in offset order: identifier, width, its _range text,
    # reset value and address
    rows: list[tuple[str, int, str, int, int]]


class _Names(NamedTuple):
    """Every identifier of one emission, sanitized once by :func:`_names`."""

    design: str
    top: str
    domains: dict[str, str]
    cfg_clk: str
    ranges: dict[int, str]  # the _range text of each setting width
    slaves: dict[str, _Slave]


def _names(spec: RegisterMapSpec) -> _Names:
    (design,) = _lowered([spec.name], "name")
    domains = sanitize_names([d.name for d in spec.clock_domains], "clock domain")
    idents = _lowered([s.name for s in spec.slaves], "slave")
    ranges = {width: _range(width) for width in set(spec.setting_widths)}
    slaves = {}
    for slave, ident in zip(spec.slaves, idents):
        # by index: reading a NamedTuple field by name is slower
        regs = sorted(slave.registers, key=itemgetter(1))
        reg_idents = _lowered([r[0] for r in regs], f"slave {slave.name!r} setting")
        base = slave.base_addr
        slaves[slave.name] = _Slave(ident, f"{design}_{ident}", [
            (reg, width, ranges[width], reset, base + offset)
            for reg, (_, offset, width, reset) in zip(reg_idents, regs)
        ])
    cfg_clk = domains[spec.clock_domains[0].name]
    return _Names(design, f"{design}_top", domains, cfg_clk, ranges, slaves)


def _module(header: str, name: str, ports: list[str]) -> list[str]:
    """Banner, module name, one port per line, then a blank line."""
    return [header, f"module {name} (", _INDENT + f",\n{_INDENT}".join(ports), ");", ""]


def _endmodule(lines: list[str]) -> str:
    lines += ("endmodule", "")
    return "\n".join(lines)


def _instance(module: str, name: str, conns: list[str]) -> list[str]:
    """A named-port instance followed by a blank line."""
    pad = _INDENT * 2
    return [f"{_INDENT}{module} {name} (", pad + f",\n{pad}".join(conns), f"{_INDENT});", ""]


def _slave_instance(slave: _Slave, conns: list[str]) -> list[str]:
    """A slave's instance in a top: ``conns``, then one per setting."""
    ident = slave.ident
    conns = conns + [f".cfg_{reg}({ident}_cfg_{reg})" for reg, _, _, _, _ in slave.rows]
    return _instance(slave.module, f"u_{ident}", conns)


def _slice(net: str, whole: bool, width: int, lsb: int = 0) -> str:
    """``net`` itself when ``whole``, else its ``width`` bits from ``lsb``."""
    if whole:
        return net
    if width > 1:
        return f"{net}[{lsb + width - 1}:{lsb}]"
    return f"{net}[{lsb}]"


def _bus_ports(spec: RegisterMapSpec) -> list[str]:
    """The host-bus inputs of the tops and the distributed slaves."""
    bus = spec.bus
    return [
        "input  logic cfg_rst_n",
        f"input  logic {_range(bus.addr_width)}cfg_addr",
        f"input  logic {_range(bus.data_width)}cfg_wdata",
        "input  logic cfg_write",
    ]


def _setting_ports(slave: _Slave, prefix: str) -> list[str]:
    return [f"output logic {rng}{prefix}cfg_{reg}" for reg, _, rng, _, _ in slave.rows]


def _top_ports(spec: RegisterMapSpec, names: _Names, handshake: bool) -> list[str]:
    """Clocks, the host bus, then per slave its ``busy``/``ready`` pair
    (distributed only) and its settings."""
    ports = [f"input  logic {names.domains[d.name]}" for d in spec.clock_domains]
    ports += _bus_ports(spec)
    for slave in spec.slaves:
        s = names.slaves[slave.name]
        if handshake:
            ports += [f"input  logic {s.ident}_busy", f"output logic {s.ident}_ready"]
        ports += _setting_ports(s, f"{s.ident}_")
    return ports


def _distributed_slave(spec: RegisterMapSpec, header: str, ids: _Slave,
                       wdata: dict[int, str]) -> str:
    """A distributed slave; ``wdata`` holds the part of ``cfg_wdata`` that
    a setting of each width takes."""
    bus = spec.bus
    sync_len = spec.architecture.sync_length
    rows = ids.rows

    ports = ["input  logic cfg_clk", *_bus_ports(spec), "input  logic cfg_sel",
             "output logic ready", "input  logic busy", *_setting_ports(ids, "")]
    lines = _module(header, ids.module, ports)
    lines += [f"{_INDENT}logic {rng}{reg}_q;" for reg, _, rng, _, _ in rows]
    lines.append(f"{_INDENT}logic {_range(sync_len)}busy_sync;")
    lines.append("")
    lines.append(f"{_INDENT}always_ff @(posedge cfg_clk or negedge cfg_rst_n) begin")
    lines.append(f"{_INDENT * 2}if (!cfg_rst_n) begin")
    pad = _INDENT * 3
    lines += [f"{pad}{reg}_q <= {width}'d{reset};" for reg, width, _, reset, _ in rows]
    lines.append(f"{_INDENT * 3}busy_sync <= '0;")
    lines.append(f"{_INDENT * 3}ready <= 1'b0;")
    lines.append(f"{_INDENT * 2}end else begin")
    if sync_len > 1:
        lines.append(f"{_INDENT * 3}busy_sync <= {{busy_sync[{sync_len - 2}:0], busy}};")
        lines.append(f"{_INDENT * 3}ready <= ~busy_sync[{sync_len - 1}];")
    else:
        lines.append(f"{_INDENT * 3}busy_sync <= busy;")
        lines.append(f"{_INDENT * 3}ready <= ~busy_sync;")
    if rows:
        lines.append(f"{_INDENT * 3}if (cfg_write && cfg_sel && ready) begin")
        lines.append(f"{_INDENT * 4}case (cfg_addr)")
        label = f"{_INDENT * 5}{bus.addr_width}'d"
        lines += [f"{label}{addr}: {reg}_q <= {wdata[width]};" for reg, width, _, _, addr in rows]
        lines.append(f"{_INDENT * 5}default: ;")
        lines.append(f"{_INDENT * 4}endcase")
        lines.append(f"{_INDENT * 3}end")
    lines.append(f"{_INDENT * 2}end")
    lines.append(f"{_INDENT}end")
    lines.append("")
    lines += [f"{_INDENT}assign cfg_{reg} = {reg}_q;" for reg, _, _, _, _ in rows]
    lines.append("")
    return _endmodule(lines)


def _global_slave(spec: RegisterMapSpec, stages: ElaborationOptions, header: str,
                  ids: _Slave) -> str:
    """A centralized slave: its settings bus, behind a synchronizer chain
    and a destination register under ``cdc``.  A slave without settings
    keeps its module and file but has only a clock."""
    widths = [row[1] for row in ids.rows]
    bits = sum(widths)
    sync_len = spec.architecture.sync_length

    ports = ["input  logic clk"]
    if bits:
        ports.append(f"input  logic {_range(bits)}settings_in")
    lines = _module(header, ids.module, ports + _setting_ports(ids, ""))
    source = "settings_in"
    if bits and stages.cdc:
        for stage in range(sync_len):
            lines.append(f"{_INDENT}logic {_range(bits)}sync_{stage};")
        lines.append("")
        lines.append(f"{_INDENT}always_ff @(posedge clk) begin")
        lines.append(f"{_INDENT * 2}sync_0 <= settings_in;")
        for stage in range(1, sync_len):
            lines.append(f"{_INDENT * 2}sync_{stage} <= sync_{stage - 1};")
        lines.append(f"{_INDENT}end")
        lines.append("")
        lines.append(f"{_INDENT}logic {_range(bits)}dest_q;")
        lines.append("")
        lines.append(f"{_INDENT}always_ff @(posedge clk) begin")
        lines.append(f"{_INDENT * 2}dest_q <= sync_{sync_len - 1};")
        lines.append(f"{_INDENT}end")
        lines.append("")
        source = "dest_q"
    lsbs = accumulate(widths, initial=0)
    lines += [f"{_INDENT}assign cfg_{reg} = {_slice(source, bits == 1, width, lsb)};"
              for (reg, width, _, _, _), lsb in zip(ids.rows, lsbs)]
    lines.append("")
    return _endmodule(lines)


def _distributed_top(spec: RegisterMapSpec, header: str, names: _Names) -> str:
    aw = spec.bus.addr_width
    lines = _module(header, names.top, _top_ports(spec, names, handshake=True))
    for slave in spec.slaves:
        s = names.slaves[slave.name]
        ident, lo = s.ident, slave.base_addr
        hi = s.rows[-1][4] + 1 if s.rows else lo  # past the highest offset's word
        lines.append(f"{_INDENT}logic {ident}_sel;")
        lines.append(
            f"{_INDENT}assign {ident}_sel = (cfg_addr >= {aw}'d{lo}) && (cfg_addr < {aw}'d{hi});"
        )
    lines.append("")
    for s in names.slaves.values():
        lines += _slave_instance(s, [
            f".cfg_clk({names.cfg_clk})",
            ".cfg_rst_n(cfg_rst_n)",
            ".cfg_addr(cfg_addr)",
            ".cfg_wdata(cfg_wdata)",
            ".cfg_write(cfg_write)",
            f".cfg_sel({s.ident}_sel)",
            f".ready({s.ident}_ready)",
            f".busy({s.ident}_busy)",
        ])
    return _endmodule(lines)


def _global_memory(spec: RegisterMapSpec, stages: ElaborationOptions, names: _Names,
                   word_of: dict[int, int]) -> list[str]:
    """The centralized memory ``mem`` (and ``mem_out`` when the output is
    registered): its reset values and its write decoder."""
    bus = spec.bus
    cfg_clk = names.cfg_clk
    depth, width = spec.architecture.global_depth, spec.architecture.global_width
    lines = [f"{_INDENT}logic {_range(width)}mem [{depth}];", ""]
    lines.append(f"{_INDENT}initial begin")
    lines.append(f"{_INDENT * 2}for (int i = 0; i < {depth}; i++) mem[i] = '0;")
    resets = {addr: reset for s in names.slaves.values()
              for _, _, _, reset, addr in s.rows if reset}
    pad = _INDENT * 2
    lines += [f"{pad}mem[{word_of[addr]}] = {width}'d{resets[addr]};" for addr in sorted(resets)]
    lines.append(f"{_INDENT}end")
    lines.append("")
    wdata = "cfg_wdata" if width == bus.data_width else f"{width}'(cfg_wdata)"
    lines.append(f"{_INDENT}always_ff @(posedge {cfg_clk}) begin")
    lines.append(f"{_INDENT * 2}if (cfg_write) begin")
    lines.append(f"{_INDENT * 3}case (cfg_addr)")
    label = f"{_INDENT * 4}{bus.addr_width}'d"
    lines += [f"{label}{addr}: mem[{word}] <= {wdata};" for addr, word in sorted(word_of.items())]
    lines.append(f"{_INDENT * 4}default: ;")
    lines.append(f"{_INDENT * 3}endcase")
    lines.append(f"{_INDENT * 2}end")
    lines.append(f"{_INDENT}end")
    lines.append("")
    if stages.output_registered:
        lines.append(f"{_INDENT}logic {_range(width)}mem_out [{depth}];")
        lines.append(f"{_INDENT}always_ff @(posedge {cfg_clk}) begin")
        lines.append(f"{_INDENT * 2}for (int i = 0; i < {depth}; i++) mem_out[i] <= mem[i];")
        lines.append(f"{_INDENT}end")
        lines.append("")
    return lines


def _global_top(spec: RegisterMapSpec, stages: ElaborationOptions, header: str,
                names: _Names) -> str:
    arch = spec.architecture
    width = arch.global_width
    word_of = global_word_map(row[4] for s in names.slaves.values() for row in s.rows)

    lines = _module(header, names.top, _top_ports(spec, names, handshake=False))
    if arch.global_depth > 0 and width > 0:  # else no memory, as in elaborate_global
        lines += _global_memory(spec, stages, names, word_of)
    stage = "mem_out" if stages.output_registered else "mem"
    # the part of a memory word that a setting of each width takes
    part = {w: _slice("", w == width, w) for w in names.ranges}

    # Per-slave fan-out bundles, one concatenated settings bus each.
    for slave in spec.slaves:
        s = names.slaves[slave.name]
        if not s.rows:
            continue
        parts = [f"{stage}[{word_of[addr]}]{part[w]}" for _, w, _, _, addr in reversed(s.rows)]
        lines.append(f"{_INDENT}logic {_range(slave.setting_bits)}{s.ident}_bundle;")
        lines.append(f"{_INDENT}assign {s.ident}_bundle = {{{', '.join(parts)}}};")
        lines.append("")
    for slave in spec.slaves:
        s = names.slaves[slave.name]
        if not s.rows:
            continue
        clk = names.domains[slave.clock_domain]
        lines += _slave_instance(s, [f".clk({clk})", f".settings_in({s.ident}_bundle)"])
    return _endmodule(lines)


def emit(model: DesignModel, spec: RegisterMapSpec) -> dict[str, str]:
    """Emit the design as named SystemVerilog files (top + one per slave).

    The family and the stages come from the ``TOPOLOGY_FLAGS`` row of the
    model's topology (:class:`SpecError` for a topology outside it); of
    the model, only the header's hash reads the elements.
    """
    stages = ElaborationOptions.for_topology(model.topology)
    names = _names(spec)
    header = _header(spec, model)
    files: dict[str, str] = {}
    if stages.distributed:
        files[f"{names.top}.sv"] = _distributed_top(spec, header, names)
        data_width = spec.bus.data_width
        wdata = {w: _slice("cfg_wdata", w == data_width, w) for w in names.ranges}
        for s in names.slaves.values():
            files[f"{s.module}.sv"] = _distributed_slave(spec, header, s, wdata)
    else:
        files[f"{names.top}.sv"] = _global_top(spec, stages, header, names)
        for s in names.slaves.values():
            files[f"{s.module}.sv"] = _global_slave(spec, stages, header, s)
    return files
