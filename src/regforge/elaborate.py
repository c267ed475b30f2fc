"""Expand a register-map spec into a structural model of storage and routing.

The model is a flat list of typed elements: flip-flop banks, decoders,
muxes, synchronizer chains, and the wire bundles that connect them.  Two
families are supported:

* centralized storage, where every setting lives in one deep memory and
  is fanned out to its consumers on wide bundles; the topology name picks
  whether an output register stage follows the memory and whether each
  consumer gets a synchronizer chain and local destination registers;
* distributed storage, where each slave keeps its own settings bank and
  is written over a shared narrow configuration bus through a decoder,
  exporting a registered ``ready`` back to the bus master.

Elaboration is deterministic: the same spec always yields the same model
and the same canonical JSON dump, which golden tests and the resource
model rely on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Union

from .errors import CapacityError
# ElaborationOptions and TOPOLOGY_FLAGS live in spec, which names the
# topologies; they stay importable from here.
from .spec import TOPOLOGY_FLAGS, ElaborationOptions, RegisterMapSpec, capacity_problem

@dataclass(frozen=True)
class FlipFlopBank:
    kind: ClassVar[str] = "flipflop_bank"
    name: str
    bits: int
    clock_domain: str


@dataclass(frozen=True)
class Decoder:
    kind: ClassVar[str] = "decoder"
    name: str
    inputs: int
    terms: int


@dataclass(frozen=True)
class Mux:
    kind: ClassVar[str] = "mux"
    name: str
    width: int


@dataclass(frozen=True)
class SyncChain:
    kind: ClassVar[str] = "sync_chain"
    name: str
    bits: int
    length: int


@dataclass(frozen=True)
class WireBundle:
    kind: ClassVar[str] = "wire_bundle"
    name: str
    bits: int
    source: str
    sink: str


Element = Union[FlipFlopBank, Decoder, Mux, SyncChain, WireBundle]


@dataclass(frozen=True)
class StructuralCounts:
    flipflops: int
    decode_terms: int
    mux_bits: int
    max_unregistered_bundle_bits: int


@dataclass(frozen=True)
class DesignModel:
    """A design's structure: its elements and its topology, nothing that
    either already gives (the stages are ``TOPOLOGY_FLAGS[topology]``)."""

    elements: tuple[Element, ...]
    topology: str

    def to_json(self) -> str:
        """Canonical dump: elements sorted by (kind, name), stable fields.

        The model is immutable, so the text is built on the first call and
        kept on the instance: the emitted header hash and ``model.json``
        share one encoding.
        """
        return self._json

    @cached_property
    def _json(self) -> str:
        # An element's instance dict holds exactly its dataclass fields, in
        # declaration (and so emitted key) order, and reads faster than fields().
        items = [
            {"kind": el.kind, **vars(el)}
            for el in sorted(self.elements, key=lambda e: (e.kind, e.name))
        ]
        doc = {"topology": self.topology, "elements": items}
        return json.dumps(doc, indent=2) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def elaborate_global(spec: RegisterMapSpec) -> DesignModel:
    """Build the centralized-memory model with the stages of the spec's topology.

    Raises :class:`SpecError` for a topology not in :data:`TOPOLOGY_FLAGS`
    and :class:`CapacityError` with the message of the ``global_capacity``
    diagnostic that :func:`~regforge.spec.validate` reports when the
    settings do not fit the memory (:func:`~regforge.spec.capacity_problem`).
    """
    options = ElaborationOptions.for_topology(spec.architecture.topology)
    arch = spec.architecture
    depth, width = arch.global_depth, arch.global_width
    widths = spec.setting_widths
    problem = capacity_problem(
        depth, width, sum(widths), spec.total_words, max(widths, default=0)
    )
    if problem is not None:
        raise CapacityError(problem)

    cfg_domain = spec.clock_domains[0].name if spec.clock_domains else "cfg"
    elements: list[Element] = []

    stage = None
    if depth > 0 and width > 0:  # a negative dimension holds nothing, as in validate
        stage = "mem_out" if options.output_registered else "mem"
        elements += [
            Decoder("cfg_decode", inputs=spec.bus.addr_width, terms=depth),
            FlipFlopBank("mem", bits=depth * width, clock_domain=cfg_domain),
            WireBundle("bus_mem", bits=width, source="cfg_decode", sink="mem"),
        ]
        if options.output_registered:
            elements += [
                FlipFlopBank("mem_out", bits=depth * width, clock_domain=cfg_domain),
                WireBundle("pipe_mem_out", bits=depth * width, source="mem", sink="mem_out"),
            ]

    for slave in spec.slaves:
        bits = slave.setting_bits
        name = slave.name
        if bits == 0:
            continue
        if options.cdc:
            elements += [
                SyncChain(f"{name}.sync", bits=bits, length=arch.sync_length),
                WireBundle(f"{name}.fanout", bits=bits, source=stage, sink=f"{name}.sync"),
                FlipFlopBank(f"{name}.dest", bits=bits, clock_domain=slave.clock_domain),
                WireBundle(f"{name}.pipe_dest", bits=bits, source=f"{name}.sync",
                           sink=f"{name}.dest"),
            ]
        else:
            elements += [
                Mux(f"{name}.pins", width=bits),
                WireBundle(f"{name}.fanout", bits=bits, source=stage, sink=f"{name}.pins"),
            ]

    return DesignModel(tuple(elements), arch.topology)


def elaborate_distributed(spec: RegisterMapSpec) -> DesignModel:
    """Build the distributed model: one local settings bank per slave.

    Every slave additionally carries one ready register and one busy
    synchronizer chain in the configuration domain; the shared bus bundle
    (address + data + write + one-hot select) runs from the decoder to
    each slave.
    """
    arch = spec.architecture
    cfg_domain = spec.clock_domains[0].name if spec.clock_domains else "cfg"
    bus_bits = spec.bus.addr_width + spec.bus.data_width + 1 + len(spec.slaves)
    total_words = spec.total_words
    elements: list[Element] = []

    if total_words > 0:
        elements.append(Decoder("cfg_decode", inputs=spec.bus.addr_width, terms=total_words))

    for slave in spec.slaves:
        name = slave.name
        bits = slave.setting_bits
        if bits > 0:
            elements.append(FlipFlopBank(f"{name}.cfg", bits=bits, clock_domain=cfg_domain))
        elements += [
            FlipFlopBank(f"{name}.ready", bits=1, clock_domain=cfg_domain),
            SyncChain(f"{name}.busy_sync", bits=1, length=arch.sync_length),
        ]
        if total_words > 0:
            elements.append(WireBundle(
                f"{name}.bus", bits=bus_bits, source="cfg_decode",
                sink=f"{name}.cfg" if bits > 0 else f"{name}.ready",
            ))

    return DesignModel(tuple(elements), "distributed")


def elaborate(spec: RegisterMapSpec) -> DesignModel:
    """Elaborate using the architecture named in the spec."""
    if spec.architecture.topology == "distributed":
        return elaborate_distributed(spec)
    return elaborate_global(spec)


def structural_counts(model: DesignModel) -> StructuralCounts:
    """Exact element tallies for one model.

    ``flipflops`` sums flip-flop bank bits plus synchronizer bits times
    chain length.  ``max_unregistered_bundle_bits`` is the widest bundle
    whose endpoints are not both flip-flop banks, i.e. the widest routed
    net not broken by a register stage at both ends.
    """
    kinds = {el.name: el.kind for el in model.elements}
    flipflops = 0
    decode_terms = 0
    mux_bits = 0
    widest = 0
    for el in model.elements:
        if isinstance(el, FlipFlopBank):
            flipflops += el.bits
        elif isinstance(el, SyncChain):
            flipflops += el.bits * el.length
        elif isinstance(el, Decoder):
            decode_terms += el.terms
        elif isinstance(el, Mux):
            mux_bits += el.width
        elif isinstance(el, WireBundle):
            registered = (
                kinds.get(el.source) == "flipflop_bank"
                and kinds.get(el.sink) == "flipflop_bank"
            )
            if not registered:
                widest = max(widest, el.bits)
    return StructuralCounts(
        flipflops=flipflops,
        decode_terms=decode_terms,
        mux_bits=mux_bits,
        max_unregistered_bundle_bits=widest,
    )
