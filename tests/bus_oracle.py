"""The every-edge reference semantics of a simulation run.

The bus is write-only and single-master.  A write is held on the bus
until the addressed slave's registered ``ready`` is seen high at a
configuration-clock edge, and it completes on the first edge where
``write & sel & ready`` holds.  Each distributed slave passes its busy
indication through an L-stage synchronizer into the configuration
domain, and its ``ready`` is the registered inverse of the chain's last
stage, as ``_distributed_slave`` emits it.  So ``ready`` falls L
configuration edges after the first edge that sees ``busy``, and
settings never change while the logic that samples them is running.

``EdgeReference`` replays a whole run one edge at a time (clock domains,
the ready synchronizer, fault-mode tears, timeouts and swaps) and skips
nothing.  The simulator's event-driven loop must match it event for
event; ``test_bus.py`` and ``test_sim_reference.py`` check that.
"""

from __future__ import annotations

from dataclasses import replace

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
from regforge.spec import TOPOLOGY_FLAGS, RegisterMapSpec, validate


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
    over the old high half.  An accepted swap resets the slave's words
    and drops its tears.
    """

    def __init__(self, spec: RegisterMapSpec, *, fault_mode: bool = False,
                 timeout_cycles: int = DEFAULT_TIMEOUT_CYCLES):
        self.spec = spec
        self.fault_mode = fault_mode
        self.timeout_cycles = timeout_cycles
        self.distributed = TOPOLOGY_FLAGS[spec.architecture.topology].distributed
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
            for key in [key for key in self.tears if key[0] == sidx]:
                del self.tears[key]
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
