"""Deterministic multi-clock simulation of a register-map spec.

The simulator executes a host programming script against the design the
spec's topology, sync length and addresses describe: configuration-clock
edges run the write master, address decoder, and per-slave config
blocks; each slave's own clock samples its settings while the script
marks it busy.  All state updates are two-phase (next values computed
from pre-edge state, then committed), simultaneous edges resolve by
clock-domain index, and there is no internal randomness, so a given
(spec, script) pair always produces the same trace.

Distributed designs honor the ready handshake: a write is only accepted
while the addressed slave's registered ready output is high, and ready
is the registered inverse of the slave's busy indication synchronized
into the configuration domain.  Centralized designs have no handshake;
writes to the central memory are accepted unconditionally.

Fault mode disables the ready gating (master and slaves accept writes
regardless of ready) and models the resulting hazard: a write landing
while the slave is busy is visible as a half-updated word for one
configuration period.  This exists to prove the coherence checker can
detect the hazard the handshake prevents.

Time advances from event to event rather than edge by edge.  ``run``
cuts the run at the times the whole-domain view changes: a busy window
starts or ends, or a swap falls due.  A swap changes no domain's work,
so it is applied at its own time, before any edge at or after it.
Between two such times the busy slaves are fixed, and one loop runs the
configuration edges back to back.  The domains that sample are the ones
with a busy slave, since a domain's edge only samples its busy slaves;
their edges between two configuration edges are merged in (time,
domain index) order in one pass per configuration period, and the other
domains are not stepped at all.  The configuration edge has work while
a write is due or held, while a slave of its own domain is busy, or
while a distributed slave is unsettled: its next edge would change its
sync chain or its ready.  A slave settles once its chain holds only its
busy bit and its ready is the inverse of that bit, and it becomes
unsettled when a busy window of it starts or ends, or when a new script
drops the window it was still busy in.  Otherwise the loop jumps to the
next scripted write falling due, or to the next change of view, and the
skipped edges are added to ``cycle``, so a long busy window steps only
the few configuration edges at each end.  On the edges it does step,
only unsettled slaves shift their chains, in slave-index order, and
``edges_stepped`` counts the stepped edges of each domain.  The trace
and final state are the same as stepping every edge, which
``tests/test_sim_reference.py`` checks against an every-edge reference.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import InvalidSpecError, SimError, SpecError
from .fields import (
    ROOT,
    load_document,
    objects,
    read_int,
    read_list,
    read_obj,
    read_str,
    reject_unknown,
    write_text,
)
from .spec import (
    TOPOLOGY_FLAGS,
    RegisterMapSpec,
    SettingSpec,
    global_word_map,
    parse_fragment,
    validate,
)

DEFAULT_TIMEOUT_CYCLES = 10_000

WRITE_ISSUED = "write_issued"
WRITE_ACCEPTED = "write_accepted"
CONFIG_CHANGED = "config_changed"
VALUE_SAMPLED = "value_sampled"
READY_CHANGED = "ready_changed"
SWAP_PERFORMED = "swap_performed"
VIOLATION = "violation"

TRACE_COLUMNS = ("time_ps", "kind", "slave", "addr", "data")


class TraceEvent(NamedTuple):
    time_ps: int
    kind: str
    slave: str = ""
    addr: int | None = None
    data: int | None = None
    detail: str = ""


class ScriptWrite(NamedTuple):
    at_cycle: int
    addr: int
    data: int


@dataclass(frozen=True)
class BusyWindow:
    slave: str
    start_ps: int
    end_ps: int


@dataclass(frozen=True)
class SwapRequest:
    at_ps: int
    slave: str
    registers: tuple[SettingSpec, ...]


@dataclass(frozen=True)
class ProgramScript:
    writes: tuple[ScriptWrite, ...] = ()
    busy_windows: tuple[BusyWindow, ...] = ()
    swaps: tuple[SwapRequest, ...] = ()


@dataclass(frozen=True)
class CoherenceViolation:
    kind: str  # "busy_write" or "torn_word"
    time_ps: int
    slave: str
    addr: int | None
    data: int | None


_SCRIPT_KEYS = frozenset(("writes", "busy_windows", "swaps"))
_WRITE_KEYS = frozenset(("at_cycle", "addr", "data"))
_WINDOW_KEYS = frozenset(("slave", "start_ps", "end_ps"))
_SWAP_KEYS = frozenset(("at_ps", "slave", "new_spec_fragment"))


def _plain_writes(items: list) -> list[ScriptWrite] | None:
    """The writes of ``items`` when every entry is a dict of known keys
    whose fields are ``int`` (not ``bool``) or absent.  None when one is
    not, for the checked readers to judge.  Checked a column at a time,
    which beats one entry at a time on scripts of hundreds of writes."""
    if not ({*map(type, items)} <= {dict} and all(map(_WRITE_KEYS.issuperset, items))):
        return None
    cycles = [obj.get("at_cycle", 0) for obj in items]
    addrs = [obj.get("addr", 0) for obj in items]
    data = [obj.get("data", 0) for obj in items]
    if not {*map(type, cycles), *map(type, addrs), *map(type, data)} <= {int}:
        return None
    # tuple.__new__ skips the Python-level __new__ that NamedTuple defines
    return list(map(tuple.__new__, [ScriptWrite] * len(items), zip(cycles, addrs, data)))


def parse_script(text: str) -> ProgramScript:
    """Parse a programming-script JSON document."""
    doc = load_document(text)
    reject_unknown(doc, _SCRIPT_KEYS, ROOT)

    items = read_list(doc, "writes", ROOT, [])
    writes = _plain_writes(items)
    if writes is None:
        writes = []
        for path, obj in objects(items, (ROOT, "writes")):
            reject_unknown(obj, _WRITE_KEYS, path)
            writes.append(ScriptWrite(
                read_int(obj, "at_cycle", path, 0),
                read_int(obj, "addr", path, 0),
                read_int(obj, "data", path, 0),
            ))

    windows = []
    for path, obj in objects(read_list(doc, "busy_windows", ROOT, []), (ROOT, "busy_windows")):
        reject_unknown(obj, _WINDOW_KEYS, path)
        windows.append(
            BusyWindow(
                slave=read_str(obj, "slave", path, ""),
                start_ps=read_int(obj, "start_ps", path, 0),
                end_ps=read_int(obj, "end_ps", path, 0),
            )
        )

    swaps = []
    for path, obj in objects(read_list(doc, "swaps", ROOT, []), (ROOT, "swaps")):
        reject_unknown(obj, _SWAP_KEYS, path)
        regs = parse_fragment(
            read_obj(obj, "new_spec_fragment", path, {}), (path, "new_spec_fragment")
        )
        swaps.append(
            SwapRequest(
                at_ps=read_int(obj, "at_ps", path, 0),
                slave=read_str(obj, "slave", path, ""),
                registers=regs,
            )
        )

    for w in writes:
        if w.at_cycle < 0:
            raise SpecError("write times must be non-negative", "$.writes")
    for w in windows:
        if w.start_ps < 0 or w.end_ps < w.start_ps:
            raise SpecError("busy windows must be non-negative and ordered", "$.busy_windows")
    for s in swaps:
        if s.at_ps < 0:
            raise SpecError("swap times must be non-negative", "$.swaps")

    return ProgramScript(tuple(writes), tuple(windows), tuple(swaps))


def load_script(path) -> ProgramScript:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_script(fh.read())


class Simulation:
    """Mutable simulation state for the design one spec describes."""

    def __init__(
        self,
        spec: RegisterMapSpec,
        *,
        fault_mode: bool = False,
        timeout_cycles: int = DEFAULT_TIMEOUT_CYCLES,
    ):
        report = validate(spec)
        if not report.ok:
            raise InvalidSpecError(report)
        arch = spec.architecture
        self.spec = spec
        self.fault_mode = fault_mode
        self.timeout_cycles = timeout_cycles
        self.distributed = TOPOLOGY_FLAGS[arch.topology].distributed
        self.sync_length = arch.sync_length
        domain_index = {d.name: i for i, d in enumerate(spec.clock_domains)}

        self.domains = [(d.name, d.period_ps) for d in spec.clock_domains]
        self._periods = [d.period_ps for d in spec.clock_domains]
        self.time_ps = 0
        self.cycle = 0  # index of the next configuration-clock edge
        self.edges_stepped = [0] * len(self.domains)  # per domain, edges run rather than skipped

        self.slave_names = [s.name for s in spec.slaves]
        self._slave_idx = {s.name: i for i, s in enumerate(spec.slaves)}
        self._base = [s.base_addr for s in spec.slaves]
        self._domain_of = [domain_index[s.clock_domain] for s in spec.slaves]

        # every per-register table in one pass over the registers
        self._widths: list[dict[int, int]] = []
        self._mem: list[dict[int, int]] = []  # per slave, offset -> value
        decode = self._decode = {}  # address -> (slave, offset)
        initial = self.initial_resets = {}  # (slave name, address) -> reset value
        for sidx, s in enumerate(spec.slaves):
            base, name = s.base_addr, s.name
            widths, mem = {}, {}
            for _setting, offset, width, reset in s.registers:
                widths[offset] = width
                mem[offset] = reset
                addr = base + offset
                decode[addr] = (sidx, offset)
                initial[(name, addr)] = reset
            self._widths.append(widths)
            self._mem.append(mem)
        self._offsets = [sorted(w) for w in self._widths]
        self._ready = [False] * len(spec.slaves)
        self._busy_sync = [[0] * self.sync_length for _ in spec.slaves]
        # distributed slaves whose next config edge changes their chain or
        # ready: a slave is settled once its chain is all ones and its ready
        # low while it is busy, or all zeros and high while it is not
        self._unsettled = set(range(len(spec.slaves))) if self.distributed else set()
        self._rotation = [0] * len(spec.slaves)

        # memory word slots; a centralized design refuses swaps, so they stay
        self._word_of = {} if self.distributed else global_word_map(decode)

        # master
        self._queue: list[ScriptWrite] = []
        self._queue_pos = 0
        self._current: tuple[int, int, int, int] | None = None  # (addr, data, slave, offset)
        self._held = 0
        self.timed_out = False

        # script bindings (set by run)
        self._windows: list[tuple[int, int, int]] = []  # (start, end, slave), start-sorted
        self._win_pos = 0  # windows before this one have started
        self._busy_end: dict[int, int] = {}  # busy slave -> end of its window
        self._busy_in: list[list[int]] = [[] for _ in self.domains]  # per domain, ascending
        self._busy_change: float = math.inf  # next window start or end
        self._swaps: list[SwapRequest] = []
        self._swap_pos = 0

        # fault-mode tear bookkeeping: (slave, offset) -> (start, end, torn)
        self._tears: dict[tuple[int, int], tuple[int, int, int]] = {}

        self.trace: list[TraceEvent] = []

    # -- helpers ----------------------------------------------------------

    def _bind_script(self, script: ProgramScript) -> None:
        for w in script.writes:
            if w.data < 0:
                # masking it to the setting width would build a word that wide
                raise SimError(f"write of negative data {w.data} to address {w.addr}")
        for w in script.busy_windows:
            if w.slave not in self._slave_idx:
                raise SimError(f"busy window names unknown slave {w.slave!r}")
        for s in script.swaps:
            if s.slave not in self._slave_idx:
                raise SimError(f"swap targets unknown slave {s.slave!r}")

        self._queue = sorted(script.writes, key=lambda w: w.at_cycle)
        self._queue_pos = 0

        per_slave: list[list[tuple[int, int]]] = [[] for _ in self.slave_names]
        first = self.time_ps + 1  # the first edge this run can step
        for w in script.busy_windows:
            if w.end_ps > w.start_ps and w.end_ps > first:
                per_slave[self._slave_idx[w.slave]].append((w.start_ps, w.end_ps))
        merged: list[tuple[int, int, int]] = []
        for sidx, windows in enumerate(per_slave):
            windows.sort()
            out: list[tuple[int, int]] = []
            for start, end in windows:
                if out and start <= out[-1][1]:
                    out[-1] = (out[-1][0], max(out[-1][1], end))
                else:
                    out.append((start, end))
            merged += [(start, end, sidx) for start, end in out]
        merged.sort()
        self._windows = merged
        self._win_pos = 0
        if self.distributed:
            # a slave still busy when the last run ended is not busy now
            self._unsettled.update(self._busy_end)
        self._busy_end = {}
        self._busy_in = [[] for _ in self.domains]
        self._busy_change = merged[0][0] if merged else math.inf

        self._swaps = sorted(script.swaps, key=lambda s: s.at_ps)
        self._swap_pos = 0

    def _update_busy(self, t: int) -> None:
        """Bring the busy sets up to time ``t`` (called when a window starts or ends)."""
        windows, pos, busy_end = self._windows, self._win_pos, self._busy_end
        changed = []
        while pos < len(windows) and windows[pos][0] <= t:
            _start, end, sidx = windows[pos]
            busy_end[sidx] = end  # a slave's earlier window has ended by now
            changed.append(sidx)
            pos += 1
        self._win_pos = pos
        for sidx in [s for s, end in busy_end.items() if end <= t]:
            del busy_end[sidx]
            changed.append(sidx)
        if self.distributed:
            self._unsettled.update(changed)
        busy_in: list[list[int]] = [[] for _ in self.domains]
        for sidx in sorted(busy_end):
            busy_in[self._domain_of[sidx]].append(sidx)
        self._busy_in = busy_in
        next_start = windows[pos][0] if pos < len(windows) else math.inf
        self._busy_change = min([next_start, *busy_end.values()])

    def _apply_swaps_until(self, t: int) -> None:
        while self._swap_pos < len(self._swaps) and self._swaps[self._swap_pos].at_ps <= t:
            req = self._swaps[self._swap_pos]
            self._swap_pos += 1
            self.swap_module(req.slave, req.registers, time_ps=req.at_ps)

    # -- public operations -------------------------------------------------

    def run(self, script: ProgramScript, until_ps: int) -> "Simulation":
        """Execute the script up to and including time ``until_ps``."""
        self._bind_script(script)
        append, new, event = self.trace.append, tuple.__new__, TraceEvent
        names, base, decode = self.slave_names, self._base, self._decode
        widths, mem, offsets, rotation = self._widths, self._mem, self._offsets, self._rotation
        ready, chains, tears = self._ready, self._busy_sync, self._tears
        unsettled, busy_end = self._unsettled, self._busy_end
        periods, stepped = self._periods, self.edges_stepped
        gated = self.distributed and not self.fault_mode  # a write can be held on ready
        tearing = self.distributed and self.fault_mode  # a write to a busy slave tears
        timeout, swaps, period = self.timeout_cycles, self._swaps, periods[0]
        queue = [*self._queue, (math.inf, 0, 0)]  # the last entry never falls due
        qpos, current, held, cycle = self._queue_pos, self._current, self._held, self.cycle
        t0 = (cycle + 1) * period  # the next configuration edge
        end = until_ps + 1
        start = self.time_ps + 1  # every edge before this has run

        def sample_until(lim):
            """Step the sampling domains' edges before ``lim`` in (time, domain
            index) order, and return the time of the next one."""
            while True:
                entry = min(sampling) if len(sampling) > 1 else sampling[0]
                t = entry[0]
                if t >= lim:
                    return t
                entry[0] = t + entry[2]
                for sidx in entry[3]:
                    offs = offsets[sidx]
                    if offs:
                        n = rotation[sidx]
                        rotation[sidx] = n + 1
                        offset = offs[n % len(offs)]
                        value = mem[sidx][offset]
                        if tears:
                            tear = tears.get((sidx, offset))
                            if tear is not None and tear[0] < t < tear[1]:
                                value = tear[2]
                        append(new(event, (t, VALUE_SAMPLED, names[sidx], base[sidx] + offset,
                                           value, "")))

        while start < end:
            # the whole-domain view changes only here: windows start or end
            # and swaps apply, each before the first edge at or after its time
            if self._busy_change <= start:
                self._update_busy(start)
            if self._swap_pos < len(swaps) and swaps[self._swap_pos].at_ps <= start:
                self._queue_pos, self._current, self._held, self.cycle = qpos, current, held, cycle
                self._apply_swaps_until(start)
            stop = min(self._busy_change, end)
            if self._swap_pos < len(swaps):
                stop = min(stop, swaps[self._swap_pos].at_ps)
            busy0 = self._busy_in[0]
            # [next edge, domain, period, busy slaves] of each domain that
            # samples; the configuration domain's slaves sample on its edges
            sampling = [[-(-start // step) * step, d, step, slaves]
                        for d, (step, slaves) in enumerate(zip(periods, self._busy_in)) if slaves]
            first = [entry[0] for entry in sampling]
            nxt = min(first) if sampling else math.inf
            cycle0, skipped = cycle, 0

            # configuration edges back to back until ``stop``, with the
            # sampling domains' edges between them
            while True:
                if current is None:
                    due = queue[qpos][0]
                    if due > cycle and not unsettled and not busy0:
                        # nothing to do before the next write falls due
                        t = -(-min((due + 1) * period, stop) // period) * period
                        if t > t0:
                            skip = (t - t0) // period
                            skipped += skip
                            cycle += skip
                            t0 = t
                lim = t0 if t0 < stop else stop
                if nxt < lim:
                    nxt = sample_until(lim)
                if t0 >= stop:
                    break
                # the master: the write on the bus is the held one, or the
                # next one if it is due and decodes
                on_bus = current is not None
                if on_bus:
                    addr, data, sidx, offset = current
                elif due <= cycle:
                    _at, addr, data = queue[qpos]
                    qpos += 1
                    match = decode.get(addr)
                    if match is None:
                        append(new(event, (t0, WRITE_ISSUED, "", addr, data, "")))
                        append(new(event, (t0, VIOLATION, "", addr, data, "decode_no_match")))
                    else:
                        sidx, offset = match
                        append(new(event, (t0, WRITE_ISSUED, names[sidx], addr, data, "")))
                        held = 0
                        on_bus = True
                if on_bus:
                    if ready[sidx] or not gated:
                        width = widths[sidx][offset]
                        # mask only data wider than the setting: a width can be
                        # too large to build 1 << width
                        value = data if data >> width == 0 else data & ((1 << width) - 1)
                        name = names[sidx]
                        append(new(event, (t0, WRITE_ACCEPTED, name, addr, data, "")))
                        append(new(event, (t0, CONFIG_CHANGED, name, addr, value, "")))
                        if tearing and sidx in busy_end:
                            old = mem[sidx][offset]
                            # old's bits from `half` up over value's low `half`
                            # bits, by shifts sized by the values, not the width
                            half = width // 2
                            low = value - ((value >> half) << half)
                            tears[(sidx, offset)] = (t0, t0 + period,
                                                     ((old >> half) << half) | low)
                        # two-phase: the samples at t0 see the word before the write
                        if nxt <= t0:
                            nxt = sample_until(t0 + 1)
                        mem[sidx][offset] = value
                        current = None
                    else:
                        held += 1
                        if held > timeout:
                            append(new(event, (t0, VIOLATION, names[sidx], addr, data,
                                               "timeout")))
                            self.timed_out = True
                            current = None
                        else:
                            current = (addr, data, sidx, offset)
                if nxt <= t0:
                    nxt = sample_until(t0 + 1)
                if unsettled:
                    # a settled slave shifts its busy bit into a chain that
                    # already holds only that bit and keeps its ready
                    for sidx in sorted(unsettled):
                        chain = chains[sidx]
                        synced = chain.pop()
                        busy = sidx in busy_end
                        chain.insert(0, 1 if busy else 0)
                        if synced == ready[sidx]:
                            ready[sidx] = not synced
                            append(new(event, (t0, READY_CHANGED, names[sidx], None,
                                               1 - synced, "")))
                        if synced == busy and (all(chain) if busy else not any(chain)):
                            unsettled.discard(sidx)
                cycle += 1
                t0 += period

            stepped[0] += cycle - cycle0 - skipped
            for (t, d, step, _slaves), t_first in zip(sampling, first):
                if d:
                    stepped[d] += (t - t_first) // step
            start = stop

        self._queue_pos, self._current, self._held, self.cycle = qpos, current, held, cycle
        self._apply_swaps_until(until_ps)
        self.time_ps = max(self.time_ps, until_ps)
        return self

    def backdoor_read(self, slave: str, offset: int) -> int:
        """Read a stored settings word without touching simulation state."""
        sidx = self._slave_idx.get(slave)
        if sidx is None:
            raise SimError(f"unknown slave {slave!r}")
        if offset not in self._mem[sidx]:
            raise SimError(f"unknown offset {offset} in slave {slave!r}")
        return self._mem[sidx][offset]

    def swap_module(
        self,
        slave: str,
        registers: tuple[SettingSpec, ...],
        *,
        time_ps: int | None = None,
    ) -> "Simulation":
        """Replace one slave's register set, as a partial reconfiguration.

        Refused (with a ``swap_refused`` violation event) unless the
        design is distributed, the slave's ready is high, no in-flight
        write addresses it, and :func:`~regforge.spec.validate` passes
        the spec with the slave's registers replaced.  An accepted swap
        makes that spec :attr:`spec`, so the next swap is judged against
        the current design.
        """
        t = self.time_ps if time_ps is None else time_ps
        sidx = self._slave_idx.get(slave)
        if sidx is None:
            raise SimError(f"unknown slave {slave!r}")

        def refuse(reason: str) -> "Simulation":
            self.trace.append(TraceEvent(t, VIOLATION, slave, detail=f"swap_refused:{reason}"))
            return self

        if not self.distributed:
            return refuse("topology")
        if not self._ready[sidx]:
            return refuse("not_ready")
        if self._current is not None and self._current[2] == sidx:
            return refuse("in_flight")

        slaves = self.spec.slaves
        swapped = replace(self.spec, slaves=(
            *slaves[:sidx], replace(slaves[sidx], registers=tuple(registers)), *slaves[sidx + 1:]
        ))
        if not validate(swapped).ok:
            return refuse("bad_fragment")
        self.spec = swapped

        base = self._base[sidx]
        for offset in self._widths[sidx]:
            del self._decode[base + offset]
        self._widths[sidx] = {r.offset: r.width for r in registers}
        self._offsets[sidx] = sorted(self._widths[sidx])
        self._mem[sidx] = {r.offset: r.reset_value for r in registers}
        self._rotation[sidx] = 0
        for key in [key for key in self._tears if key[0] == sidx]:
            del self._tears[key]  # run reads the dict it holds
        for offset in self._widths[sidx]:
            self._decode[base + offset] = (sidx, offset)

        self.trace.append(TraceEvent(t, SWAP_PERFORMED, slave))
        self.trace += [TraceEvent(t, CONFIG_CHANGED, slave, base + reg.offset, reg.reset_value)
                       for reg in sorted(registers, key=lambda r: r.offset)]
        return self

    def check_coherence(self) -> list[CoherenceViolation]:
        return check_coherence(self.trace, self.initial_resets)

    # -- hashing & export ---------------------------------------------------

    def slave_state_hash(self, slave: str) -> str:
        sidx = self._slave_idx.get(slave)
        if sidx is None:
            raise SimError(f"unknown slave {slave!r}")
        blob = repr(
            (
                sorted(self._mem[sidx].items()),
                sorted(self._widths[sidx].items()),
                self._ready[sidx],
                tuple(self._busy_sync[sidx]),
            )
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def state_hash(self) -> str:
        decode = self._decode
        words = sorted((slot, self._mem[decode[addr][0]][decode[addr][1]])
                       for addr, slot in self._word_of.items())
        blob = repr(
            (
                self.time_ps,
                self.cycle,
                [sorted(m.items()) for m in self._mem],
                words,
                list(self._ready),
                [tuple(c) for c in self._busy_sync],
            )
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def trace_hash(self) -> str:
        return hashlib.sha256(trace_to_csv(self.trace).encode()).hexdigest()

    def write_trace(self, path) -> None:
        write_text(path, trace_to_csv(self.trace))

    def violation_events(self) -> list[TraceEvent]:
        return [e for e in self.trace if e.kind == VIOLATION]


def build_sim(
    spec: RegisterMapSpec,
    *,
    fault_mode: bool = False,
    timeout_cycles: int = DEFAULT_TIMEOUT_CYCLES,
) -> Simulation:
    """Construct a reset simulation of the design ``spec`` describes.  A
    spec builds exactly when :func:`~regforge.spec.validate` passes it;
    otherwise :class:`~regforge.errors.InvalidSpecError` carries the
    report."""
    return Simulation(spec, fault_mode=fault_mode, timeout_cycles=timeout_cycles)


def trace_to_csv(trace: list[TraceEvent]) -> str:
    """Render a trace as CSV with the stable five-column layout."""
    lines = [",".join(TRACE_COLUMNS)]
    for time_ps, kind, slave, addr, data, _detail in trace:
        addr = "" if addr is None else str(addr)
        data = "" if data is None else str(data)
        lines.append(f"{time_ps},{kind},{slave},{addr},{data}")
    return "\n".join(lines) + "\n"


def check_coherence(
    trace: list[TraceEvent],
    reset_values: dict[tuple[str, int], int] | None = None,
) -> list[CoherenceViolation]:
    """Scan a completed trace for ready-contract breaches.

    Reports (a) any settings change accepted while the slave's sampled
    busy view had closed the gate (ready low), and (b) any sampled word
    that matches neither a reset value nor a completed write to that
    address (a torn word).  Slaves that never export ready (centralized
    designs) are exempt from (a).  Words with no reset information are
    assumed to reset to zero.
    """
    resets = reset_values or {}
    # ready of each slave that has changed it; whether a slave never does,
    # and so is exempt from (a), is known only once the scan ends
    ready: dict[str, bool] = {}
    valid: defaultdict[str, dict[int, set[int]]] = defaultdict(dict)  # slave -> addr -> values
    found: list[tuple[str, TraceEvent]] = []
    # one pass, reading each field by index: a NamedTuple's attributes and
    # unpacking both cost more
    for e in trace:
        kind = e[1]
        if kind == VALUE_SAMPLED:
            words, addr = valid[e[2]], e[3]
            values = words.get(addr)
            if values is None:
                values = words[addr] = {resets.get((e[2], addr), 0)}
            if e[4] not in values:
                found.append(("torn_word", e))
        elif kind == CONFIG_CHANGED:
            slave, addr = e[2], e[3]
            if not ready.get(slave, False):
                found.append(("busy_write", e))
            words = valid[slave]
            values = words.get(addr)
            if values is None:
                words[addr] = {resets.get((slave, addr), 0), e[4]}
            else:
                values.add(e[4])
        elif kind == READY_CHANGED:
            ready[e[2]] = bool(e[4])
    return [
        CoherenceViolation(kind, e[0], e[2], e[3], e[4])
        for kind, e in found
        if kind == "torn_word" or e[2] in ready
    ]
