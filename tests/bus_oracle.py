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
in-place for speed and is tested against these.  ``EdgeReference``
replays a whole simulation run (clock domains, the ready synchronizer,
fault-mode tears, timeouts and swaps) one edge at a time, as the
reference the simulator's event-driven loop must match event for event.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from regforge.sim import (
    CONFIG_CHANGED,
    DEFAULT_TIMEOUT_CYCLES,
    READY_CHANGED,
    SWAP_PERFORMED,
    VALUE_SAMPLED,
    VIOLATION,
    WRITE_ACCEPTED,
    WRITE_ISSUED,
    ProgramScript,
    ScriptWrite,
    TraceEvent,
)
from regforge.spec import AddressEntry, RegisterMapSpec, validate

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


# ---------------------------------------------------------------------------
# Every-edge reference of a whole simulation run


class EdgeReference:
    """The simulator's semantics, stepping every edge and skipping nothing.

    ``run`` steps every edge of every clock domain in ``(time, domain
    index)`` order.  Before the edges at time ``t`` it performs the
    script's swaps due at or before ``t``.  At ``t``, the configuration
    edge drives the master first: it issues the next due write (a
    decode miss is logged and uses the edge), accepts the held write
    when the gate is open, or counts a held cycle and drops the write
    after ``timeout_cycles`` of them.  Then each domain with an edge at
    ``t``, the configuration domain first, samples its busy slaves,
    each the next word in offset order, reading the pre-edge memory.
    Last the configuration edge commits: the accepted write lands, and
    every distributed slave's chain shifts as ``_distributed_slave``
    emits it (``busy_sync <= {busy_sync[L-2:0], busy}; ready <=
    ~busy_sync[L-1]``).  A slave is busy at ``t`` when ``start <= t <
    end`` for one of its windows.  In fault mode the gate never closes,
    and a write landing on a busy distributed slave shows, to samples
    strictly inside the next configuration period, its new low half
    over the old high half.
    """

    def __init__(self, spec: RegisterMapSpec, *, fault_mode: bool = False,
                 timeout_cycles: int = DEFAULT_TIMEOUT_CYCLES):
        self.spec = spec
        self.fault_mode = fault_mode
        self.timeout_cycles = timeout_cycles
        self.distributed = spec.architecture.topology == "distributed"
        domain = {d.name: i for i, d in enumerate(spec.clock_domains)}
        self.periods = [d.period_ps for d in spec.clock_domains]
        self.names = [s.name for s in spec.slaves]
        self.domain_of = [domain[s.clock_domain] for s in spec.slaves]
        self.mem = [{r.offset: r.reset_value for r in s.registers} for s in spec.slaves]
        self.ready = [False] * len(spec.slaves)
        self.busy_sync = [[0] * spec.architecture.sync_length for _ in spec.slaves]
        self.rotation = [0] * len(spec.slaves)
        self.tears: dict[tuple[int, int], tuple[int, int, int]] = {}
        self.current: tuple[int, int, int] | None = None  # (addr, data, slave)
        self.held = 0
        self.cycle = 0
        self.time_ps = 0
        self.timed_out = False
        self.trace: list[TraceEvent] = []

    def _emit(self, *fields) -> None:
        self.trace.append(TraceEvent(*fields))

    def _decode(self) -> dict[int, tuple[int, int]]:
        return {s.base_addr + r.offset: (i, r.offset)
                for i, s in enumerate(self.spec.slaves) for r in s.registers}

    def swap_module(self, slave: str, registers, time_ps: int) -> None:
        sidx = self.names.index(slave)
        slaves = list(self.spec.slaves)
        slaves[sidx] = replace(slaves[sidx], registers=tuple(registers))
        swapped = replace(self.spec, slaves=tuple(slaves))
        if not self.distributed:
            reason = "topology"
        elif not self.ready[sidx]:
            reason = "not_ready"
        elif self.current is not None and self.current[2] == sidx:
            reason = "in_flight"
        elif not validate(swapped).ok:
            reason = "bad_fragment"
        else:
            self.spec = swapped
            self.mem[sidx] = {r.offset: r.reset_value for r in registers}
            self.rotation[sidx] = 0
            base = swapped.slaves[sidx].base_addr
            self._emit(time_ps, SWAP_PERFORMED, slave)
            for r in sorted(registers, key=lambda r: r.offset):
                self._emit(time_ps, CONFIG_CHANGED, slave, base + r.offset, r.reset_value)
            return
        self._emit(time_ps, VIOLATION, slave, None, None, f"swap_refused:{reason}")

    def _master(self, t: int, queue: list[ScriptWrite], busy) -> tuple[int, int, int] | None:
        """One configuration edge of the write master; the write it
        accepts as ``(slave, offset, value)``."""
        if self.current is None and queue and queue[0].at_cycle <= self.cycle:
            write = queue.pop(0)
            match = self._decode().get(write.addr)
            if match is None:
                self._emit(t, WRITE_ISSUED, "", write.addr, write.data)
                self._emit(t, VIOLATION, "", write.addr, write.data, "decode_no_match")
            else:
                self._emit(t, WRITE_ISSUED, self.names[match[0]], write.addr, write.data)
                self.current = (write.addr, write.data, match[0])
                self.held = 0
        if self.current is None:
            return None
        addr, data, sidx = self.current
        name = self.names[sidx]
        if self.distributed and not self.ready[sidx] and not self.fault_mode:
            self.held += 1
            if self.held > self.timeout_cycles:
                self._emit(t, VIOLATION, name, addr, data, "timeout")
                self.timed_out = True
                self.current = None
            return None
        offset = addr - self.spec.slaves[sidx].base_addr
        width = next(r.width for r in self.spec.slaves[sidx].registers if r.offset == offset)
        value = data & ((1 << width) - 1)
        self._emit(t, WRITE_ACCEPTED, name, addr, data)
        self._emit(t, CONFIG_CHANGED, name, addr, value)
        if self.fault_mode and self.distributed and busy(sidx, t):
            half = width // 2
            old = self.mem[sidx][offset]
            torn = (old >> half << half) | (value & ((1 << half) - 1))
            self.tears[(sidx, offset)] = (t, t + self.periods[0], torn)
        self.current = None
        return sidx, offset, value

    def _sample(self, d: int, t: int, busy) -> None:
        for sidx, name in enumerate(self.names):
            offsets = sorted(self.mem[sidx])
            if self.domain_of[sidx] != d or not busy(sidx, t) or not offsets:
                continue
            offset = offsets[self.rotation[sidx] % len(offsets)]
            self.rotation[sidx] += 1
            value = self.mem[sidx][offset]
            tear = self.tears.get((sidx, offset))
            if tear is not None and tear[0] < t < tear[1]:
                value = tear[2]
            base = self.spec.slaves[sidx].base_addr
            self._emit(t, VALUE_SAMPLED, name, base + offset, value)

    def _commit(self, t: int, write: tuple[int, int, int] | None, busy) -> None:
        if write is not None:
            sidx, offset, value = write
            self.mem[sidx][offset] = value
        if self.distributed:
            for sidx, chain in enumerate(self.busy_sync):
                synced = chain[-1]
                chain[:] = [int(busy(sidx, t))] + chain[:-1]
                if self.ready[sidx] != (not synced):
                    self.ready[sidx] = not synced
                    self._emit(t, READY_CHANGED, self.names[sidx], None, int(not synced))
        self.cycle += 1

    def run(self, script: ProgramScript, until_ps: int) -> "EdgeReference":
        windows = [(self.names.index(w.slave), w.start_ps, w.end_ps)
                   for w in script.busy_windows]

        def busy(sidx, t):
            return any(s == sidx and start <= t < end for s, start, end in windows)

        queue = sorted(script.writes, key=lambda w: w.at_cycle)
        swaps = sorted(script.swaps, key=lambda s: s.at_ps)
        times = sorted({t for period in self.periods
                        for t in range((self.time_ps // period + 1) * period, until_ps + 1,
                                       period)})
        for t in times:
            while swaps and swaps[0].at_ps <= t:
                req = swaps.pop(0)
                self.swap_module(req.slave, req.registers, req.at_ps)
            config_edge = t % self.periods[0] == 0
            write = self._master(t, queue, busy) if config_edge else None
            for d, period in enumerate(self.periods):
                if t % period == 0:
                    self._sample(d, t, busy)
            if config_edge:
                self._commit(t, write, busy)
        while swaps and swaps[0].at_ps <= until_ps:
            req = swaps.pop(0)
            self.swap_module(req.slave, req.registers, req.at_ps)
        self.time_ps = max(self.time_ps, until_ps)
        return self
