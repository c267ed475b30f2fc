"""SystemVerilog emission for elaborated designs.

Output is plain IEEE 1800 source text, one top-level file plus one file
per slave, treated strictly as a text artifact: nothing here invokes a
synthesizer.  Emission is deterministic; identical inputs produce
byte-identical files, which the golden tests pin down.

Distributed slaves expose the configuration-bus port set
(``cfg_addr``/``cfg_wdata``/``cfg_write``/``cfg_sel``/``ready``) plus a
``busy`` input from the functional logic.  Centralized designs expose
wide per-slave setting buses from the memory stage, with optional
synchronizer and destination register stages inside each slave.
"""

from __future__ import annotations

import re

from .elaborate import DesignModel, global_word_map
from .errors import EmitError
from .sim import ProgramScript, Simulation
from .spec import GLOBAL_TOPOLOGIES, RegisterMapSpec, SettingSpec, SlaveSpec, address_map

_INDENT = "    "


def sanitize_names(names: list[str]) -> dict[str, str]:
    """Lower names to [a-z0-9_], deduplicating collisions with suffixes."""
    out: dict[str, str] = {}
    used: set[str] = set()
    for name in names:
        ident = re.sub(r"[^a-z0-9_]", "_", name.lower())
        if not ident or ident[0].isdigit():
            ident = "x" + ident
        candidate = ident
        serial = 2
        while candidate in used:
            candidate = f"{ident}_{serial}"
            serial += 1
        used.add(candidate)
        out[name] = candidate
    return out


def _range(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def _header(spec: RegisterMapSpec, model: DesignModel) -> str:
    """File banner; hashes the whole model, so build it once per emission."""
    return (
        f"// {spec.name} | topology {model.topology} | model {model.content_hash()[:12]}\n"
        "// generated by regforge; do not edit\n"
    )


# Per slave: its settings in offset order and their sanitized identifiers.
_SlaveRegs = dict[str, tuple[list[SettingSpec], dict[str, str]]]


def _slave_regs(spec: RegisterMapSpec) -> _SlaveRegs:
    out: _SlaveRegs = {}
    for slave in spec.slaves:
        regs = sorted(slave.registers, key=lambda r: r.offset)
        out[slave.name] = (regs, sanitize_names([r.name for r in regs]))
    return out


def _distributed_slave(spec: RegisterMapSpec, header: str, slave: SlaveSpec,
                       module_name: str, regs: list[SettingSpec],
                       idents: dict[str, str]) -> str:
    bus = spec.bus
    sync_len = spec.architecture.sync_length

    ports = [
        "input  logic cfg_clk",
        "input  logic cfg_rst_n",
        f"input  logic {_range(bus.addr_width)}cfg_addr",
        f"input  logic {_range(bus.data_width)}cfg_wdata",
        "input  logic cfg_write",
        "input  logic cfg_sel",
        "output logic ready",
        "input  logic busy",
    ]
    ports += [f"output logic {_range(r.width)}cfg_{idents[r.name]}" for r in regs]

    lines = [header]
    lines.append(f"module {module_name} (")
    lines.append(",\n".join(_INDENT + p for p in ports))
    lines.append(");")
    lines.append("")
    for r in regs:
        lines.append(f"{_INDENT}logic {_range(r.width)}{idents[r.name]}_q;")
    lines.append(f"{_INDENT}logic {_range(sync_len)}busy_sync;")
    lines.append("")
    lines.append(f"{_INDENT}always_ff @(posedge cfg_clk or negedge cfg_rst_n) begin")
    lines.append(f"{_INDENT * 2}if (!cfg_rst_n) begin")
    for r in regs:
        lines.append(f"{_INDENT * 3}{idents[r.name]}_q <= {r.width}'d{r.reset_value};")
    lines.append(f"{_INDENT * 3}busy_sync <= '0;")
    lines.append(f"{_INDENT * 3}ready <= 1'b0;")
    lines.append(f"{_INDENT * 2}end else begin")
    if sync_len > 1:
        lines.append(f"{_INDENT * 3}busy_sync <= {{busy_sync[{sync_len - 2}:0], busy}};")
        lines.append(f"{_INDENT * 3}ready <= ~busy_sync[{sync_len - 1}];")
    else:
        lines.append(f"{_INDENT * 3}busy_sync <= busy;")
        lines.append(f"{_INDENT * 3}ready <= ~busy_sync;")
    if regs:
        lines.append(f"{_INDENT * 3}if (cfg_write && cfg_sel && ready) begin")
        lines.append(f"{_INDENT * 4}case (cfg_addr)")
        for r in regs:
            addr = slave.base_addr + r.offset
            if r.width == bus.data_width:
                wdata = "cfg_wdata"
            elif r.width > 1:
                wdata = f"cfg_wdata[{r.width - 1}:0]"
            else:
                wdata = "cfg_wdata[0]"
            lines.append(
                f"{_INDENT * 5}{bus.addr_width}'d{addr}: "
                f"{idents[r.name]}_q <= {wdata};"
            )
        lines.append(f"{_INDENT * 5}default: ;")
        lines.append(f"{_INDENT * 4}endcase")
        lines.append(f"{_INDENT * 3}end")
    lines.append(f"{_INDENT * 2}end")
    lines.append(f"{_INDENT}end")
    lines.append("")
    for r in regs:
        lines.append(f"{_INDENT}assign cfg_{idents[r.name]} = {idents[r.name]}_q;")
    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _global_slave(spec: RegisterMapSpec, model: DesignModel, header: str,
                  slave: SlaveSpec, module_name: str, regs: list[SettingSpec],
                  idents: dict[str, str]) -> str:
    bits = slave.setting_bits
    opts = model.options
    sync_len = spec.architecture.sync_length

    ports = ["input  logic clk", f"input  logic {_range(bits)}settings_in"]
    ports += [f"output logic {_range(r.width)}cfg_{idents[r.name]}" for r in regs]

    lines = [header]
    lines.append(f"module {module_name} (")
    lines.append(",\n".join(_INDENT + p for p in ports))
    lines.append(");")
    lines.append("")
    source = "settings_in"
    scalar_bus = bits == 1
    if opts.cdc:
        for stage in range(sync_len):
            lines.append(f"{_INDENT}logic {_range(bits)}sync_{stage};")
        lines.append("")
        lines.append(f"{_INDENT}always_ff @(posedge clk) begin")
        lines.append(f"{_INDENT * 2}sync_0 <= settings_in;")
        for stage in range(1, sync_len):
            lines.append(f"{_INDENT * 2}sync_{stage} <= sync_{stage - 1};")
        lines.append(f"{_INDENT}end")
        lines.append("")
        source = f"sync_{sync_len - 1}"
    if opts.dest_registers:
        lines.append(f"{_INDENT}logic {_range(bits)}dest_q;")
        lines.append("")
        lines.append(f"{_INDENT}always_ff @(posedge clk) begin")
        lines.append(f"{_INDENT * 2}dest_q <= {source};")
        lines.append(f"{_INDENT}end")
        lines.append("")
        source = "dest_q"
    lsb = 0
    for r in regs:
        if scalar_bus:
            slice_expr = source
        elif r.width > 1:
            slice_expr = f"{source}[{lsb + r.width - 1}:{lsb}]"
        else:
            slice_expr = f"{source}[{lsb}]"
        lines.append(f"{_INDENT}assign cfg_{idents[r.name]} = {slice_expr};")
        lsb += r.width
    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _distributed_top(spec: RegisterMapSpec, header: str, top_name: str,
                     slave_modules: dict[str, str], slave_idents: dict[str, str],
                     slave_regs: _SlaveRegs) -> str:
    bus = spec.bus
    domains = sanitize_names([d.name for d in spec.clock_domains])

    ports = [f"input  logic {domains[d.name]}" for d in spec.clock_domains]
    ports += [
        "input  logic cfg_rst_n",
        f"input  logic {_range(bus.addr_width)}cfg_addr",
        f"input  logic {_range(bus.data_width)}cfg_wdata",
        "input  logic cfg_write",
    ]
    for slave in spec.slaves:
        ident = slave_idents[slave.name]
        ports.append(f"input  logic {ident}_busy")
        ports.append(f"output logic {ident}_ready")
        regs, reg_idents = slave_regs[slave.name]
        ports += [
            f"output logic {_range(r.width)}{ident}_cfg_{reg_idents[r.name]}" for r in regs
        ]

    cfg_clk = domains[spec.clock_domains[0].name]
    lines = [header]
    lines.append(f"module {top_name} (")
    lines.append(",\n".join(_INDENT + p for p in ports))
    lines.append(");")
    lines.append("")
    for slave in spec.slaves:
        ident = slave_idents[slave.name]
        lo = slave.base_addr
        hi = slave.base_addr + slave.words
        lines.append(f"{_INDENT}logic {ident}_sel;")
        lines.append(
            f"{_INDENT}assign {ident}_sel = (cfg_addr >= {bus.addr_width}'d{lo}) && "
            f"(cfg_addr < {bus.addr_width}'d{hi});"
        )
    lines.append("")
    for slave in spec.slaves:
        ident = slave_idents[slave.name]
        regs, reg_idents = slave_regs[slave.name]
        lines.append(f"{_INDENT}{slave_modules[slave.name]} u_{ident} (")
        conns = [
            f".cfg_clk({cfg_clk})",
            ".cfg_rst_n(cfg_rst_n)",
            ".cfg_addr(cfg_addr)",
            ".cfg_wdata(cfg_wdata)",
            ".cfg_write(cfg_write)",
            f".cfg_sel({ident}_sel)",
            f".ready({ident}_ready)",
            f".busy({ident}_busy)",
        ]
        conns += [
            f".cfg_{reg_idents[r.name]}({ident}_cfg_{reg_idents[r.name]})" for r in regs
        ]
        lines.append(",\n".join(_INDENT * 2 + c for c in conns))
        lines.append(f"{_INDENT});")
        lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _global_top(spec: RegisterMapSpec, model: DesignModel, header: str, top_name: str,
                slave_modules: dict[str, str], slave_idents: dict[str, str],
                slave_regs: _SlaveRegs) -> str:
    bus = spec.bus
    arch = spec.architecture
    opts = model.options
    depth, width = arch.global_depth, arch.global_width
    domains = sanitize_names([d.name for d in spec.clock_domains])
    cfg_clk = domains[spec.clock_domains[0].name]
    word_of = global_word_map(address_map(spec))

    ports = [f"input  logic {domains[d.name]}" for d in spec.clock_domains]
    ports += [
        "input  logic cfg_rst_n",
        f"input  logic {_range(bus.addr_width)}cfg_addr",
        f"input  logic {_range(bus.data_width)}cfg_wdata",
        "input  logic cfg_write",
    ]
    for slave in spec.slaves:
        ident = slave_idents[slave.name]
        regs, reg_idents = slave_regs[slave.name]
        ports += [
            f"output logic {_range(r.width)}{ident}_cfg_{reg_idents[r.name]}" for r in regs
        ]

    lines = [header]
    lines.append(f"module {top_name} (")
    lines.append(",\n".join(_INDENT + p for p in ports))
    lines.append(");")
    lines.append("")
    lines.append(f"{_INDENT}logic {_range(width)}mem [{depth}];")
    stage = "mem"
    lines.append("")
    lines.append(f"{_INDENT}initial begin")
    lines.append(f"{_INDENT * 2}for (int i = 0; i < {depth}; i++) mem[i] = '0;")
    resets = {
        slave.base_addr + r.offset: r.reset_value
        for slave in spec.slaves
        for r in slave.registers
        if r.reset_value
    }
    for addr in sorted(resets):
        lines.append(f"{_INDENT * 2}mem[{word_of[addr]}] = {width}'d{resets[addr]};")
    lines.append(f"{_INDENT}end")
    lines.append("")
    wdata = "cfg_wdata" if width == bus.data_width else f"{width}'(cfg_wdata)"
    lines.append(f"{_INDENT}always_ff @(posedge {cfg_clk}) begin")
    lines.append(f"{_INDENT * 2}if (cfg_write) begin")
    lines.append(f"{_INDENT * 3}case (cfg_addr)")
    for addr in sorted(word_of):
        lines.append(
            f"{_INDENT * 4}{bus.addr_width}'d{addr}: "
            f"mem[{word_of[addr]}] <= {wdata};"
        )
    lines.append(f"{_INDENT * 4}default: ;")
    lines.append(f"{_INDENT * 3}endcase")
    lines.append(f"{_INDENT * 2}end")
    lines.append(f"{_INDENT}end")
    lines.append("")
    if opts.output_registered:
        lines.append(f"{_INDENT}logic {_range(width)}mem_out [{depth}];")
        lines.append(f"{_INDENT}always_ff @(posedge {cfg_clk}) begin")
        lines.append(f"{_INDENT * 2}for (int i = 0; i < {depth}; i++) mem_out[i] <= mem[i];")
        lines.append(f"{_INDENT}end")
        lines.append("")
        stage = "mem_out"

    # Per-slave fan-out bundles, one concatenated settings bus each.
    for slave in spec.slaves:
        if not slave.registers:
            continue
        ident = slave_idents[slave.name]
        regs = slave_regs[slave.name][0]
        parts = []
        for r in reversed(regs):
            word = word_of[slave.base_addr + r.offset]
            if r.width == width:
                parts.append(f"{stage}[{word}]")
            elif r.width > 1:
                parts.append(f"{stage}[{word}][{r.width - 1}:0]")
            else:
                parts.append(f"{stage}[{word}][0]")
        lines.append(f"{_INDENT}logic {_range(slave.setting_bits)}{ident}_bundle;")
        lines.append(f"{_INDENT}assign {ident}_bundle = {{{', '.join(parts)}}};")
        lines.append("")
    for slave in spec.slaves:
        if not slave.registers:
            continue
        ident = slave_idents[slave.name]
        regs, reg_idents = slave_regs[slave.name]
        clk = domains[slave.clock_domain]
        lines.append(f"{_INDENT}{slave_modules[slave.name]} u_{ident} (")
        conns = [f".clk({clk})", f".settings_in({ident}_bundle)"]
        conns += [
            f".cfg_{reg_idents[r.name]}({ident}_cfg_{reg_idents[r.name]})" for r in regs
        ]
        lines.append(",\n".join(_INDENT * 2 + c for c in conns))
        lines.append(f"{_INDENT});")
        lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def emit(model: DesignModel, spec: RegisterMapSpec) -> dict[str, str]:
    """Emit the design as named SystemVerilog files (top + one per slave)."""
    topology = model.topology
    if topology not in ("distributed",) + GLOBAL_TOPOLOGIES:
        raise EmitError(f"unsupported topology {topology!r}")

    design = sanitize_names([spec.name])[spec.name]
    slave_idents = sanitize_names([s.name for s in spec.slaves])
    slave_modules = {
        name: f"{design}_{ident}" for name, ident in slave_idents.items()
    }
    top_name = f"{design}_top"
    header = _header(spec, model)
    slave_regs = _slave_regs(spec)

    files: dict[str, str] = {}
    if topology == "distributed":
        files[f"{top_name}.sv"] = _distributed_top(
            spec, header, top_name, slave_modules, slave_idents, slave_regs
        )
        for slave in spec.slaves:
            files[f"{slave_modules[slave.name]}.sv"] = _distributed_slave(
                spec, header, slave, slave_modules[slave.name], *slave_regs[slave.name]
            )
    else:
        files[f"{top_name}.sv"] = _global_top(
            spec, model, header, top_name, slave_modules, slave_idents, slave_regs
        )
        for slave in spec.slaves:
            files[f"{slave_modules[slave.name]}.sv"] = _global_slave(
                spec, model, header, slave, slave_modules[slave.name],
                *slave_regs[slave.name]
            )
    return files


def emit_testbench(model: DesignModel, spec: RegisterMapSpec, script: ProgramScript) -> str:
    """Emit a self-checking testbench for one programming script.

    Expected final register values come from running the cycle simulator
    on the same script and are embedded as literals.  Scripts with swaps
    cannot be expressed in a static testbench.
    """
    if script.swaps:
        raise EmitError("testbenches cannot express module swaps")
    if model.topology != "distributed":
        raise EmitError("testbenches are only emitted for distributed designs")

    bus = spec.bus
    cfg_period = spec.clock_domains[0].period_ps
    horizon = cfg_period * (
        max((w.at_cycle for w in script.writes), default=0) + len(script.writes) + 64
    )
    horizon = max(horizon, max((w.end_ps for w in script.busy_windows), default=0))
    horizon += 8 * cfg_period

    sim = Simulation(model, spec)
    sim.run(script, horizon)

    design = sanitize_names([spec.name])[spec.name]
    slave_idents = sanitize_names([s.name for s in spec.slaves])
    domains = sanitize_names([d.name for d in spec.clock_domains])

    lines = [_header(spec, model)]
    lines.append("`timescale 1ps/1ps")
    lines.append("")
    lines.append(f"module {design}_tb;")
    for d in spec.clock_domains:
        lines.append(f"{_INDENT}logic {domains[d.name]} = 1'b0;")
        lines.append(
            f"{_INDENT}always #({d.period_ps // 2}) {domains[d.name]} = ~{domains[d.name]};"
        )
    cfg_clk = domains[spec.clock_domains[0].name]
    lines.append(f"{_INDENT}logic cfg_rst_n = 1'b0;")
    lines.append(f"{_INDENT}logic {_range(bus.addr_width)}cfg_addr = '0;")
    lines.append(f"{_INDENT}logic {_range(bus.data_width)}cfg_wdata = '0;")
    lines.append(f"{_INDENT}logic cfg_write = 1'b0;")
    for slave in spec.slaves:
        ident = slave_idents[slave.name]
        lines.append(f"{_INDENT}logic {ident}_busy = 1'b0;")
        lines.append(f"{_INDENT}logic {ident}_ready;")
    lines.append("")
    lines.append(f"{_INDENT}{design}_top dut (")
    conns = [f".{domains[d.name]}({domains[d.name]})" for d in spec.clock_domains]
    conns += [
        ".cfg_rst_n(cfg_rst_n)",
        ".cfg_addr(cfg_addr)",
        ".cfg_wdata(cfg_wdata)",
        ".cfg_write(cfg_write)",
    ]
    for slave in spec.slaves:
        ident = slave_idents[slave.name]
        conns.append(f".{ident}_busy({ident}_busy)")
        conns.append(f".{ident}_ready({ident}_ready)")
    lines.append(",\n".join(_INDENT * 2 + c for c in conns))
    lines.append(f"{_INDENT});")
    lines.append("")

    for i, window in enumerate(script.busy_windows):
        ident = slave_idents[window.slave]
        lines.append(f"{_INDENT}initial begin : busy_window_{i}")
        lines.append(f"{_INDENT * 2}#{window.start_ps} {ident}_busy = 1'b1;")
        lines.append(f"{_INDENT * 2}#{window.end_ps - window.start_ps} {ident}_busy = 1'b0;")
        lines.append(f"{_INDENT}end")
        lines.append("")

    decode = {}
    for slave in spec.slaves:
        for r in slave.registers:
            decode[slave.base_addr + r.offset] = slave.name

    lines.append(f"{_INDENT}initial begin")
    lines.append(f"{_INDENT * 2}repeat (2) @(posedge {cfg_clk});")
    lines.append(f"{_INDENT * 2}cfg_rst_n = 1'b1;")
    last_cycle = 0
    for write in sorted(script.writes, key=lambda w: w.at_cycle):
        gap = write.at_cycle - last_cycle
        if gap > 0:
            lines.append(f"{_INDENT * 2}repeat ({gap}) @(posedge {cfg_clk});")
        last_cycle = write.at_cycle
        target = decode.get(write.addr)
        lines.append(f"{_INDENT * 2}cfg_addr = {bus.addr_width}'d{write.addr};")
        lines.append(f"{_INDENT * 2}cfg_wdata = {bus.data_width}'d{write.data};")
        lines.append(f"{_INDENT * 2}cfg_write = 1'b1;")
        if target is not None:
            ready = f"{slave_idents[target]}_ready"
            lines.append(f"{_INDENT * 2}@(posedge {cfg_clk});")
            lines.append(f"{_INDENT * 2}while (!{ready}) @(posedge {cfg_clk});")
        else:
            lines.append(f"{_INDENT * 2}@(posedge {cfg_clk});")
        lines.append(f"{_INDENT * 2}cfg_write = 1'b0;")
    lines.append(f"{_INDENT * 2}#{horizon};")
    checks = 0
    slave_regs = _slave_regs(spec)
    for slave in spec.slaves:
        ident = slave_idents[slave.name]
        regs, reg_idents = slave_regs[slave.name]
        for r in regs:
            expected = sim.backdoor_read(slave.name, r.offset)
            path = f"dut.u_{ident}.{reg_idents[r.name]}_q"
            lines.append(
                f"{_INDENT * 2}if ({path} !== {r.width}'d{expected}) "
                f'$fatal(1, "mismatch: {path}");'
            )
            checks += 1
    lines.append(f'{_INDENT * 2}$display("TB PASS ({checks} checks)");')
    lines.append(f"{_INDENT * 2}$finish;")
    lines.append(f"{_INDENT}end")
    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
