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

Time advances from event to event rather than edge by edge: a clock
domain steps an edge only when that edge can do something, and otherwise
jumps straight to its first edge at or after the earliest time it next
can, or past the end of the run.  A slave domain's edge only samples the
domain's busy slaves, so while none of them is busy the domain waits for
the next busy-window start or end.  The configuration edge has work
while a write is due or held, while a slave of its own domain is busy,
or while a distributed slave is unsettled: its next edge would change
its sync chain or its ready.  A slave settles once its chain holds only
its busy bit and its ready is the inverse of that bit, and it becomes
unsettled when a busy window of it starts or ends, or when a new script
drops the window it was still busy in.  Otherwise the configuration edge
waits for the next scripted write to fall due or the next busy-window
start or end, and the skipped edges are added to ``cycle``, so a long
busy window steps only the few edges at each end.  On the edges it does
step, only busy slaves sample and only unsettled slaves shift their
chains, in slave-index order.  A swap changes no domain's work, so it is
applied before the first edge stepped at or after its time.  The trace
and final state are the same as stepping every edge.
"""

from __future__ import annotations

import hashlib
import math
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
        self.distributed = arch.topology == "distributed"
        self.sync_length = arch.sync_length
        domain_index = {d.name: i for i, d in enumerate(spec.clock_domains)}

        self.domains = [(d.name, d.period_ps) for d in spec.clock_domains]
        self._periods = [d.period_ps for d in spec.clock_domains]
        self._next_edge = [d.period_ps for d in spec.clock_domains]
        self.time_ps = 0
        self.cycle = 0  # index of the next configuration-clock edge

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
        self._current: tuple[int, int, int, int] | None = None  # (addr, data, slave, issue)
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

    def _emit(self, time_ps, kind, slave="", addr=None, data=None, detail=""):
        self.trace.append(TraceEvent(time_ps, kind, slave, addr, data, detail))

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
        for w in script.busy_windows:
            if w.end_ps > w.start_ps:
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

    def _wake_time(self, d: int, t: int, end: int) -> int:
        """Earliest time domain ``d``'s edge at ``t`` or later can do
        anything: ``t`` or earlier when that edge has work, else a busy
        window starting or ending, a write falling due, or ``end``."""
        if d:
            # a slave domain's edge only samples its busy slaves
            return t if self._busy_in[d] else min(self._busy_change, end)
        if self._current is not None or self._unsettled or self._busy_in[0]:
            return t
        wake = min(self._busy_change, end)
        if self._queue_pos < len(self._queue):
            due = self._queue[self._queue_pos].at_cycle
            wake = min(wake, t + (due - self.cycle) * self._periods[0])
        return wake

    def _skip_to(self, d: int, wake: int) -> None:
        """Pass over domain ``d``'s edges before ``wake`` without stepping them."""
        period = self._periods[d]
        skipped = (wake - self._next_edge[d] - 1) // period + 1
        self._next_edge[d] += skipped * period
        if d == 0:
            self.cycle += skipped

    # -- clock edges ------------------------------------------------------

    def _config_edge(self, t: int, commits: list) -> None:
        cycle = self.cycle
        queue = self._queue

        if self._current is None and self._queue_pos < len(queue):
            head = queue[self._queue_pos]
            if head.at_cycle <= cycle:
                self._queue_pos += 1
                match = self._decode.get(head.addr)
                if match is None:
                    self._emit(t, WRITE_ISSUED, "", head.addr, head.data)
                    self._emit(
                        t, VIOLATION, "", head.addr, head.data, detail="decode_no_match"
                    )
                else:
                    self._emit(
                        t, WRITE_ISSUED, self.slave_names[match[0]], head.addr, head.data
                    )
                    self._current = (head.addr, head.data, match[0], cycle)
                    self._held = 0

        if self._current is not None:
            addr, data, sidx, _issue = self._current
            gate_open = (not self.distributed) or self._ready[sidx] or self.fault_mode
            if gate_open:
                offset = addr - self._base[sidx]
                width = self._widths[sidx][offset]
                # mask only data wider than the setting: a width can be too
                # large to build 1 << width
                value = data if data >> width == 0 else data & ((1 << width) - 1)
                name = self.slave_names[sidx]
                self._emit(t, WRITE_ACCEPTED, name, addr, data)
                self._emit(t, CONFIG_CHANGED, name, addr, value)
                commits.append((sidx, offset, value))
                if self.fault_mode and self.distributed and sidx in self._busy_end:
                    old = self._mem[sidx][offset]
                    # old's bits from `half` up over value's low `half` bits,
                    # by shifts sized by the values, not by the width
                    half = width // 2
                    low = value - ((value >> half) << half)
                    torn = ((old >> half) << half) | low
                    self._tears[(sidx, offset)] = (t, t + self._periods[0], torn)
                self._current = None
                self._held = 0
            else:
                self._held += 1
                if self._held > self.timeout_cycles:
                    self._emit(t, VIOLATION, self.slave_names[sidx], addr, data,
                               detail="timeout")
                    self.timed_out = True
                    self._current = None
                    self._held = 0

    def _sample_edge(self, domain: int, t: int) -> None:
        for sidx in self._busy_in[domain]:
            offsets = self._offsets[sidx]
            if not offsets:
                continue
            offset = offsets[self._rotation[sidx] % len(offsets)]
            self._rotation[sidx] += 1
            value = self._visible(sidx, offset, t)
            self._emit(
                t, VALUE_SAMPLED, self.slave_names[sidx], self._base[sidx] + offset, value
            )

    def _visible(self, sidx: int, offset: int, t: int) -> int:
        tear = self._tears.get((sidx, offset))
        if tear is not None and tear[0] < t < tear[1]:
            return tear[2]
        return self._mem[sidx][offset]

    def _commit_config_edge(self, t: int, commits: list) -> None:
        for sidx, offset, value in commits:
            self._mem[sidx][offset] = value
        # a settled slave shifts its busy bit into a chain that already
        # holds only that bit and keeps its ready, so only the others are
        # visited
        unsettled, busy_end = self._unsettled, self._busy_end
        for sidx in sorted(unsettled):
            chain = self._busy_sync[sidx]
            synced = chain.pop()
            busy = sidx in busy_end
            chain.insert(0, 1 if busy else 0)
            new_ready = not synced
            if new_ready != self._ready[sidx]:
                self._ready[sidx] = new_ready
                self._emit(t, READY_CHANGED, self.slave_names[sidx], data=int(new_ready))
            if new_ready != busy and (all(chain) if busy else not any(chain)):
                unsettled.discard(sidx)
        self.cycle += 1

    def _apply_swaps_until(self, t: int) -> None:
        while self._swap_pos < len(self._swaps) and self._swaps[self._swap_pos].at_ps <= t:
            req = self._swaps[self._swap_pos]
            self._swap_pos += 1
            self.swap_module(req.slave, req.registers, time_ps=req.at_ps)

    # -- public operations -------------------------------------------------

    def run(self, script: ProgramScript, until_ps: int) -> "Simulation":
        """Execute the script up to and including time ``until_ps``."""
        self._bind_script(script)
        next_edge, periods = self._next_edge, self._periods
        domains = range(len(periods))
        end = until_ps + 1
        while True:
            t = min(next_edge)
            if t > until_ps:
                break
            if t >= self._busy_change:
                self._update_busy(t)
            self._apply_swaps_until(t)
            commits = None
            for d in domains:
                if next_edge[d] != t:
                    continue
                wake = self._wake_time(d, t, end)
                if wake > t:
                    self._skip_to(d, wake)
                    continue
                if d == 0:
                    commits = []
                    self._config_edge(t, commits)
                if self._busy_in[d]:
                    self._sample_edge(d, t)
                next_edge[d] += periods[d]
            if commits is not None:
                self._commit_config_edge(t, commits)
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
            self._emit(t, VIOLATION, slave, detail=f"swap_refused:{reason}")
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
        for offset in self._widths[sidx]:
            self._decode[base + offset] = (sidx, offset)

        self._emit(t, SWAP_PERFORMED, slave)
        for reg in sorted(registers, key=lambda r: r.offset):
            self._emit(t, CONFIG_CHANGED, slave, base + reg.offset, reg.reset_value)
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
    valid: dict[tuple[str, int], set[int]] = {}
    found: list[tuple[str, TraceEvent]] = []

    for e in trace:
        kind = e.kind
        if kind == READY_CHANGED:
            ready[e.slave] = bool(e.data)
        elif kind == CONFIG_CHANGED:
            if not ready.get(e.slave, False):
                found.append(("busy_write", e))
            key = (e.slave, e.addr)
            valid.setdefault(key, {resets.get(key, 0)}).add(e.data)
        elif kind == VALUE_SAMPLED:
            key = (e.slave, e.addr)
            if e.data not in valid.setdefault(key, {resets.get(key, 0)}):
                found.append(("torn_word", e))
    return [
        CoherenceViolation(kind, e.time_ps, e.slave, e.addr, e.data)
        for kind, e in found
        if kind == "torn_word" or e.slave in ready
    ]
