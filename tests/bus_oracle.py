"""Configuration-bus signal set, write lifecycle, and ready-gated writes.

The bus is write-only and single-master.  A write is held on the bus
until the addressed slave's registered ``ready`` output is observed high
at a configuration-clock edge; it completes on the first edge where
``write & sel & ready`` holds.  Each slave gates its local settings
memory with that same ``ready``, which is the registered inverse of the
(synchronized) busy indication from its functional logic, so settings
never change while the logic that samples them is running.

The functions here are pure ``(state, inputs) -> state`` steps meant as
the reference semantics; the cycle simulator implements the same rules
in-place for speed and is tested against these.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from regforge.sim import DEFAULT_TIMEOUT_CYCLES
from regforge.spec import AddressEntry, RegisterMapSpec

PENDING = "pending"
HELD = "held"
ACCEPTED = "accepted"


@dataclass(frozen=True)
class BusSignals:
    """One configuration-clock cycle of master-driven bus state."""

    addr: int = 0
    wdata: int = 0
    write: bool = False
    sel: tuple[bool, ...] = ()
    ready: tuple[bool, ...] = ()


@dataclass
class WriteTransaction:
    addr: int
    data: int
    state: str = PENDING
    issue_cycle: int | None = None
    accept_cycle: int | None = None


@dataclass(frozen=True)
class SlaveConfigBlock:
    """Per-slave local settings memory plus its ready register."""

    widths: dict[int, int] = field(default_factory=dict)
    local_memory: dict[int, int] = field(default_factory=dict)
    ready_state: bool = False
    busy_input: bool = False


def build_decode_table(entries: list[AddressEntry], spec: RegisterMapSpec) -> dict[int, tuple[int, int]]:
    """Map absolute address -> (slave index, local word offset)."""
    index = {s.name: i for i, s in enumerate(spec.slaves)}
    table = {}
    for entry in entries:
        slave = spec.slave(entry.slave)
        reg = next(r for r in slave.registers if r.name == entry.setting)
        table[entry.address] = (index[entry.slave], reg.offset)
    return table


def decode(addr: int, table: dict[int, tuple[int, int]]) -> tuple[int, int] | None:
    """Resolve an absolute address, or None when nothing matches."""
    return table.get(addr)


@dataclass
class MasterState:
    """In-order single-outstanding write master."""

    num_slaves: int
    decode_table: dict[int, tuple[int, int]]
    timeout_cycles: int = DEFAULT_TIMEOUT_CYCLES
    current: WriteTransaction | None = None
    current_slave: int | None = None
    held_cycles: int = 0
    cycle: int = 0
    timed_out: list[WriteTransaction] = field(default_factory=list)
    no_match: list[WriteTransaction] = field(default_factory=list)


def master_step(
    master: MasterState,
    pending: list[WriteTransaction],
    ready: tuple[bool, ...],
) -> tuple[BusSignals, list[WriteTransaction]]:
    """Advance the master by one configuration-clock edge.

    ``pending`` is consumed in order; the returned signals are what the
    master drives during this cycle, and the completed list holds any
    transaction accepted at this edge.  Signals stay stable for as long
    as a transaction is held.
    """
    completed: list[WriteTransaction] = []

    if master.current is None and pending:
        txn = pending.pop(0)
        txn.state = HELD
        txn.issue_cycle = master.cycle
        master.current = txn
        master.held_cycles = 0
        match = decode(txn.addr, master.decode_table)
        if match is None:
            master.no_match.append(txn)
            master.current = None
            master.current_slave = None
        else:
            master.current_slave = match[0]

    txn = master.current
    if txn is None:
        signals = BusSignals(sel=(False,) * master.num_slaves, ready=ready)
        master.cycle += 1
        return signals, completed

    sel = tuple(i == master.current_slave for i in range(master.num_slaves))
    signals = BusSignals(addr=txn.addr, wdata=txn.data, write=True, sel=sel, ready=ready)

    if ready[master.current_slave]:
        txn.state = ACCEPTED
        txn.accept_cycle = master.cycle
        completed.append(txn)
        master.current = None
        master.current_slave = None
        master.held_cycles = 0
    else:
        master.held_cycles += 1
        if master.held_cycles > master.timeout_cycles:
            master.timed_out.append(txn)
            master.current = None
            master.current_slave = None
            master.held_cycles = 0

    master.cycle += 1
    return signals, completed


def slave_step(block: SlaveConfigBlock, bus: BusSignals, slave_index: int, offset: int | None) -> SlaveConfigBlock:
    """Advance one slave's config block by one configuration-clock edge.

    The write lands only when ``write & sel & ready_state`` holds with
    the pre-edge ready value; data is truncated to the target register
    width.  The new ready value is the registered inverse of
    ``busy_input`` and takes effect from the next edge.
    """
    memory = block.local_memory
    selected = slave_index < len(bus.sel) and bus.sel[slave_index]
    if bus.write and selected and block.ready_state and offset is not None and offset in block.widths:
        memory = dict(memory)
        memory[offset] = bus.wdata & ((1 << block.widths[offset]) - 1)
    return replace(block, local_memory=memory, ready_state=not block.busy_input)
