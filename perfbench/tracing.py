"""Spans around regforge's public functions, installed from outside.

The tracer replaces every public function and method that the layer
modules ``spec``, ``elaborate``, ``sim``, ``emit``, ``cost`` and ``cli``
define with a wrapper that records a span: name, layer, start, end,
parent span and operation id.  Because the modules import names from
each other (``cli`` calls ``elaborate`` through its own global), every
module namespace that holds the original object is patched, and methods
are patched on their class.  Spans stay in memory until the run ends.

A few wrappers also record work counts where the work happens, such as
the elements an elaboration produced or the cycles a simulation ran.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = ("spec", "elaborate", "sim", "emit", "cost", "cli")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "child_time", "info")

    def __init__(self, name, layer, start, parent, op):
        self.name, self.layer, self.start, self.parent, self.op = name, layer, start, parent, op
        self.end = start
        self.child_time = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _simulation_run_info(sim, until, before):
    """Work of one ``Simulation.run``: cycles, simulated edges, events,
    accepted writes and cycles writes were held waiting for ``ready``."""
    cycle0, n0, t0 = before
    cfg_period = sim.domains[0][1]
    accepted, held, issued_at = 0, 0, None
    for e in sim.trace[n0:]:
        if e.kind == "write_issued":
            issued_at = e.time_ps
        elif e.kind == "write_accepted":
            accepted += 1
            held += (e.time_ps - issued_at) // cfg_period
    return {
        "cycles": sim.cycle - cycle0,
        "edges": sum(until // p - t0 // p for _, p in sim.domains),
        "events": len(sim.trace) - n0,
        "slaves": len(sim.slave_names),
        "accepted": accepted,
        "held": held,
    }


# qualified name -> (state taken before the call, info computed after it)
_COUNTERS = {
    "sim.Simulation.run": (
        lambda args: (args[0].cycle, len(args[0].trace), args[0].time_ps),
        lambda args, result, before: _simulation_run_info(args[0], args[2], before),
    ),
    "elaborate.elaborate": (
        lambda args: None,
        lambda args, result, before: {"elements": len(result.elements)},
    ),
    "emit.emit": (
        lambda args: None,
        lambda args, result, before: {"bytes": sum(len(t.encode()) for t in result.values())},
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, qualname: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = _COUNTERS.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            before = counter[0](args) if counter else None
            span = Span(qualname, layer, clock(), parent, tracer.op)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
                spans.append(span)
            if counter:
                span.info = counter[1](args, result, before)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"regforge.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, attr, self._wrap(layer, f"{layer}.{name}.{attr}",
                                                              member))
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
        # Rebind every module global that refers to a wrapped function.
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, name, entry[1])

    def _patch(self, owner, name, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, parents by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "op": s.op,
                    "parent": index.get(id(s.parent)), "info": s.info,
                }) + "\n")


# -- per-layer metrics ------------------------------------------------------

_PARSE = {"spec.load_spec", "spec.parse_spec"}
_SCRIPT_PARSE = {"sim.load_script", "sim.parse_script"}
_ELABORATE = {"elaborate.elaborate", "elaborate.elaborate_global",
              "elaborate.elaborate_distributed"}
_COHERENCE = {"sim.Simulation.check_coherence", "sim.check_coherence"}


def _ancestors(span: Span):
    parent = span.parent
    while parent is not None:
        yield parent
        parent = parent.parent


def _outermost(spans: list[Span], names: set[str], *, outside_layer: str | None = None):
    """Spans named in ``names`` with no ancestor also in ``names`` (and, if
    given, none in ``outside_layer``), so nested calls count once."""
    for s in spans:
        if s.name not in names:
            continue
        ancestors = list(_ancestors(s))
        if any(a.name in names for a in ancestors):
            continue
        if outside_layer and any(a.layer == outside_layer for a in ancestors):
            continue
        yield s


def _total(spans) -> float:
    return sum(s.duration for s in spans)


def layer_metrics(spans: list[Span], calibrate_spans: list[Span]) -> dict[str, float]:
    """Per-layer times (s) and work counts from the spans of one traced run."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    runs = [s for s in named("sim.Simulation.run") if s.info]
    emit_s = _total(named("emit.emit"))
    header = _total(s for s in named("elaborate.DesignModel.content_hash")
                    if any(a.name == "emit.emit" for a in _ancestors(s)))
    estimate_s = _total(_outermost(spans, {"cost.estimate"}))
    bundle_s = _total(_outermost(spans, {"cost.widest_unregistered_bundle"}))
    run_s = _total(runs)
    edges = sum(s.info["edges"] for s in runs)
    events = sum(s.info["events"] for s in runs)
    elaborations = list(_outermost(spans, _ELABORATE, outside_layer="cost"))

    metrics = {
        "spec.parse_s": _total(_outermost(spans, _PARSE)),
        "spec.validate_s": _total(_outermost(spans, {"spec.validate"})),
        "spec.script_parse_s": _total(_outermost(spans, _SCRIPT_PARSE)),
        "elaborate.s": _total(elaborations),
        "elaborate.elements": sum(s.info["elements"] for s in elaborations
                                  if s.info and "elements" in s.info),
        "emit.s": emit_s,
        "emit.bytes": sum(s.info["bytes"] for s in named("emit.emit") if s.info),
        "emit.header_hash_s": header,
        "emit.header_hash_share": header / emit_s if emit_s else 0.0,
        "sim.build_s": _total(named("sim.build_sim")),
        "sim.run_s": run_s,
        "sim.cfg_cycles": sum(s.info["cycles"] for s in runs),
        "sim.edges": edges,
        "sim.events": events,
        "sim.run_ns_per_edge": 1e9 * run_s / edges if edges else 0.0,
        "sim.events_per_edge": events / edges if edges else 0.0,
    }
    for slaves in (4, 32, 128):
        group = [s for s in runs if s.info["slaves"] == slaves]
        group_edges = sum(s.info["edges"] for s in group)
        metrics[f"sim.run_ns_per_edge.S{slaves}"] = (
            1e9 * _total(group) / group_edges if group_edges else 0.0)
    metrics.update({
        "sim.writes_accepted": sum(s.info["accepted"] for s in runs),
        "sim.held_cycles": sum(s.info["held"] for s in runs),
        "sim.coherence_s": _total(_outermost(spans, _COHERENCE)),
        "sim.trace_csv_s": _total(named("sim.Simulation.write_trace")),
        "cost.estimate_s": estimate_s,
        "cost.estimates": len(list(_outermost(spans, {"cost.estimate"}))),
        "cost.bundle_s": bundle_s,
        "cost.bundle_share": bundle_s / estimate_s if estimate_s else 0.0,
        "cost.calibrate_s": _total(_outermost(calibrate_spans, {"cost.calibrate"})),
        "cli.self_s": sum(s.self_time for s in spans if s.layer == "cli"),
    })
    return metrics
