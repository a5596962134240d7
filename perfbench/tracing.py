"""Span tracing of the program's layers, from the benchmark's side.

The tracer wraps public entry points of each layer (class methods and
module functions) for the duration of a traced run and restores them
afterwards; nothing under ``src/`` changes. Each wrapped call records a
span (layer, start, end, parent span, trace id of ``(node, round)``) and
folds it online into per-layer *self* CPU time: the span's duration minus
the durations of the spans it directly contains. CPU time comes from
``time.thread_time_ns`` (the run is one thread), so ``other`` -- the
traced phase's process CPU minus every layer's self time -- makes the
layers sum to the total.

Spans are kept in memory (up to :data:`MAX_SPANS`) and written to one
file per traced run when it ends. Wrappers are installed before the
cluster is built (components bind some collaborators' methods at
construction) but record only while the tracer is armed, so set-up is
not traced.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List

import repro.lazy.process as lazy_process_mod
import repro.lazy.protocol as lazy_protocol_mod
import repro.runtime.codec as codec_mod
import repro.runtime.udp as udp_mod
from repro.auth.authenticator import HmacAuthenticator
from repro.core.dissemination import DisseminationComponent
from repro.core.event import BallEntry, Event
from repro.core.ordering import OrderingComponent
from repro.lazy.process import LazyEpToProcess
from repro.lazy.pull import PullManager
from repro.lazy.store import PayloadStore
from repro.metrics.collector import DeliveryCollector
from repro.pss.uniform import UniformViewPss
from repro.runtime import batchio
from repro.runtime.udp import UdpNetwork
from repro.service.demux import TopicDemux
from repro.service.service import BroadcastService
from repro.sim.engine import Simulator
from repro.sim.flat import FlatEngine
from repro.sim.network import SimNetwork
from repro.storage.journal import DeliveryJournal
from repro.storage.log import DeliveryLog
from repro.sync.manager import SyncManager

#: Spans kept for the trace file; the fold covers every span regardless.
MAX_SPANS = 200_000

_cpu_ns = time.thread_time_ns
_NO_TRACE = (-1, -1)


def _node_round(args):
    owner = args[0]
    return (owner.node_id, owner.stats.rounds)


def _lazy_node_round(args):
    owner = args[0]
    return (owner.node_id, owner._round_no)


def _network_node(args):
    # send/_deliver(src, dst, ...) run for dst; send_many(src, dsts, ...) for src.
    dst = args[2]
    return (dst if isinstance(dst, int) else args[1], -1)


def _host(args):
    return (args[0].host_id, -1)


#: Traced entry points: (span bucket, owner, attribute names, trace id).
#: A bucket is a layer, or a layer plus ``.encode``-style part where the
#: layer's metrics are split (codec, auth).
ENTRY_POINTS = (
    ("core.dissemination", DisseminationComponent,
     ("broadcast", "receive_ball", "round_tick"), _node_round),
    ("core.ordering", OrderingComponent,
     ("order_events", "deliver_external", "_mark_delivered"), None),
    ("pss", UniformViewPss, ("sample",), None),
    ("sim.engine", Simulator, ("run", "schedule", "schedule_at"), None),
    ("sim.network", SimNetwork, ("send", "send_many", "_deliver"), _network_node),
    ("sim.flat", FlatEngine, ("run",), None),
    ("metrics.collector", DeliveryCollector, ("record_delivery", "record_broadcast"), None),
    ("lazy.protocol", lazy_process_mod, ("ball_to_id_ball", "id_ball_to_meta_ball"), None),
    ("lazy.protocol", lazy_protocol_mod, ("ball_to_id_ball", "id_ball_to_meta_ball"), None),
    ("lazy.process", LazyEpToProcess,
     ("broadcast", "on_ball", "on_round", "on_lazy_message", "on_id_ball",
      "on_payload_request", "on_payload_response", "_gate_deliver"), _lazy_node_round),
    ("lazy.process", lazy_process_mod._MetadataTransport, ("send_many",), None),
    ("lazy.pull", PullManager,
     ("want", "note_advertiser", "satisfy", "reject", "acknowledge", "collect"), None),
    ("lazy.store", PayloadStore, ("put", "get", "serve", "gc", "__contains__"), None),
    ("runtime.codec.encode", codec_mod, ("encode", "encode_into"), None),
    ("runtime.codec.encode", udp_mod, ("encode_into",), None),
    ("runtime.codec.decode", codec_mod, ("decode",), None),
    ("runtime.codec.decode", udp_mod, ("decode",), None),
    ("runtime.udp", UdpNetwork, ("send", "send_many", "send_bundle", "_on_datagram"), None),
    ("runtime.udp", udp_mod._RawEndpoint,
     ("_on_readable", "send_batch", "send_fanout", "sendto"), None),
    ("runtime.udp", batchio.BatchSender, ("send_batch", "send_fanout", "send_one"), None),
    ("runtime.udp", batchio.BatchReceiver, ("receive",), None),
    ("service.demux", TopicDemux, ("enqueue", "flush", "_on_message"), _host),
    ("service.service", BroadcastService, ("_tick_topics",), _host),
    ("storage.journal", DeliveryJournal, ("record_delivery", "record_broadcast"), None),
    ("storage.journal", DeliveryLog, ("append", "sync"), None),
    ("sync.manager", SyncManager, ("on_round", "on_message"), None),
    ("auth.sign", HmacAuthenticator, ("sign",), None),
    ("auth.verify", HmacAuthenticator, ("verify",), None),
)

#: Object constructions counted (no span) for ``core.event``.
COUNTED_INITS = (("core.event", Event), ("core.event", BallEntry))


def layer_of(bucket: str) -> str:
    """The layer a span bucket belongs to (``runtime.codec.encode`` ->
    ``runtime.codec``)."""
    for suffix in (".encode", ".decode", ".sign", ".verify"):
        if bucket.endswith(suffix):
            return bucket[: -len(suffix)]
    return bucket


class Tracer:
    """Wraps entry points, folds spans to self time, keeps spans."""

    def __init__(self) -> None:
        self.buckets: List[str] = []
        self._index: Dict[str, int] = {}
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        self.counts: Counter = Counter()
        self.armed = False
        self.stack: List[list] = []
        self.span_count = 0
        self._span = array("q")
        self._parent = array("q")
        self._bucket = array("i")
        self._start = array("q")
        self._end = array("q")
        self._node = array("q")
        self._round = array("q")
        self._patches: List[tuple] = []
        #: Protocol clock in ms (simulated ticks or loop time).
        self.clock: Callable[[], float] = lambda: 0.0
        self.waits: Dict[str, List[float]] = {
            "dissemination": [], "ordering": [], "gate": [], "pull": [], "round_lag": [],
        }
        self._broadcast_at: Dict[tuple, float] = {}
        self._first_seen: Dict[tuple, float] = {}
        self._gate_in: Dict[tuple, float] = {}
        self._pull_at: Dict[tuple, float] = {}
        self._last_tick: Dict[int, float] = {}
        self.round_interval_ms = 0.0
        #: Process CPU and wall time of the armed (traced) phase.
        self.cpu_ns = 0
        self.wall_s = 0.0

    # -- installation -------------------------------------------------------

    def _bucket_id(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = len(self.buckets)
            self._index[name] = index
            self.buckets.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return index

    def install(self) -> None:
        hooks = self._hooks()
        for bucket, owner, names, trace in ENTRY_POINTS:
            for name in names:
                self._wrap(owner, name, bucket, trace, *hooks.get((owner, name), (None, None)))
        for key, cls in COUNTED_INITS:
            self._count_calls(cls, "__init__", key)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, owner, name, bucket, trace, on_call, on_return) -> None:
        original = owner.__dict__[name]
        index = self._bucket_id(bucket)
        tracer = self

        # This runs for every traced call; its own cost lands in the
        # parents' self time, so it stays lean.
        stack = tracer.stack
        self_ns = tracer.self_ns
        calls = tracer.calls
        keep = tracer._keep

        def wrapper(*args, **kwargs):
            if not tracer.armed:
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            if stack:
                parent = stack[-1]
                ident = parent[4] if trace is None else trace(args)
                parent_span = parent[3]
            else:
                ident = _NO_TRACE if trace is None else trace(args)
                parent_span = -1
            span = tracer.span_count
            tracer.span_count = span + 1
            frame = [index, 0, 0, span, ident, parent_span]
            stack.append(frame)
            frame[1] = start = _cpu_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _cpu_ns()
                stack.pop()
                duration = end - start
                self_ns[index] += duration - frame[2]
                calls[index] += 1
                if stack:
                    stack[-1][2] += duration
                if span < MAX_SPANS:
                    keep(frame, end)
            if on_return is not None:
                on_return(args, result)
            return result

        functools.update_wrapper(wrapper, original)
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def _count_calls(self, owner, name, key) -> None:
        original = owner.__dict__[name]
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.armed:
                counts[key] += 1
            return original(*args, **kwargs)

        functools.update_wrapper(wrapper, original)
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def _keep(self, frame, end) -> None:
        self._span.append(frame[3])
        self._parent.append(frame[5])
        self._bucket.append(frame[0])
        self._start.append(frame[1])
        self._end.append(end)
        node, rnd = frame[4]
        self._node.append(node)
        self._round.append(rnd)

    # -- waiting-time hooks --------------------------------------------------
    #
    # Events are keyed by (id, ts): ids repeat across service topics,
    # and lazy metadata events carry no payload, so the pair is what
    # every copy of one event shares. A node "receives" an event at the
    # first ordering round whose ball holds it.

    def _hooks(self):
        def broadcast_done(args, event):
            self._broadcast_at[(event.id, event.ts)] = self.clock()

        def order_events(args):
            ordering, ball = args[0], args[1]
            if not ball:
                return
            now = self.clock()
            owner = id(ordering)
            first = self._first_seen
            waits = self.waits["dissemination"]
            sent_at = self._broadcast_at
            counts = self.counts
            counts["ordering.entries"] += len(ball)
            for entry in ball:
                event = entry.event
                key = (owner, event.id, event.ts)
                if key not in first:
                    first[key] = now
                    counts["ordering.new"] += 1
                    origin = sent_at.get((event.id, event.ts))
                    if origin is not None:
                        waits.append(now - origin)

        def delivered(args):
            ordering, event = args[0], args[1]
            seen = self._first_seen.get((id(ordering), event.id, event.ts))
            if seen is not None:
                self.waits["ordering"].append(self.clock() - seen)

        def gate_in(args):
            self._gate_in[(args[0].node_id, args[1].id)] = self.clock()

        def collector_delivery(args):
            held = self._gate_in.pop((args[1], args[2].id), None)
            if held is not None:
                self.waits["gate"].append(args[3] - held)

        def want_done(args, created):
            if created:
                self._pull_at[(id(args[0]), args[1])] = self.clock()

        def satisfy_done(args, pending):
            asked = self._pull_at.pop((id(args[0]), args[1]), None)
            if pending and asked is not None:
                self.waits["pull"].append(self.clock() - asked)

        def tick(args):
            host = args[0].host_id
            now = self.clock()
            last = self._last_tick.get(host)
            if last is not None:
                self.waits["round_lag"].append(now - last - self.round_interval_ms)
            self._last_tick[host] = now

        return {
            (DisseminationComponent, "broadcast"): (None, broadcast_done),
            (OrderingComponent, "order_events"): (order_events, None),
            (LazyEpToProcess, "_gate_deliver"): (gate_in, None),
            (DeliveryCollector, "record_delivery"): (collector_delivery, None),
            (PullManager, "want"): (None, want_done),
            (PullManager, "satisfy"): (None, satisfy_done),
            (BroadcastService, "_tick_topics"): (tick, None),
            (OrderingComponent, "_mark_delivered"): (delivered, None),
        }

    # -- read-out -------------------------------------------------------------

    def self_us(self) -> Dict[str, float]:
        """Self CPU microseconds per span bucket."""
        return {b: ns / 1000.0 for b, ns in zip(self.buckets, self.self_ns)}

    def layer_self_us(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for bucket, us in self.self_us().items():
            layer = layer_of(bucket)
            out[layer] = out.get(layer, 0.0) + us
        return out

    def layer_calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for bucket, calls in zip(self.buckets, self.calls):
            layer = layer_of(bucket)
            out[layer] = out.get(layer, 0) + calls
        return out

    def export(self, path: Path) -> int:
        """Write the kept spans as tab-separated text; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        kept = len(self._start)
        with path.open("w") as out:
            out.write(f"# spans={self.span_count} kept={kept}\n")
            out.write("span\tparent\tlayer\tstart_ns\tend_ns\tnode\tround\n")
            buckets = self.buckets
            for i in range(kept):
                out.write(
                    f"{self._span[i]}\t{self._parent[i]}\t{buckets[self._bucket[i]]}\t"
                    f"{self._start[i]}\t{self._end[i]}\t{self._node[i]}\t{self._round[i]}\n"
                )
        return kept
