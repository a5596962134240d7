"""Topic demultiplexing over one shared transport endpoint.

One host of the multi-topic broadcast service owns exactly one inbox on
the underlying fabric (one UDP socket on
:class:`~repro.runtime.udp.UdpNetwork`, one handler on the in-memory
:class:`~repro.runtime.transport.AsyncNetwork`). The
:class:`TopicDemux` registered there splits that single endpoint into
any number of :class:`TopicChannel` objects, each exposing the familiar
``register`` / ``unregister`` / ``send`` / ``send_many`` network
surface — so a per-topic :class:`~repro.runtime.node.AsyncEpToNode`
(and its Cyclon or anti-entropy traffic) runs over a shared socket
without knowing it.

Cross-topic batching: outgoing frames are not shipped one by one.
``send`` enqueues ``(topic, sender, dst, message)`` and schedules one
flush per event-loop tick (``call_soon``); the flush groups every
pending frame by destination host and packs each group into as few
:class:`~repro.runtime.codec.TopicEnvelope` datagrams as fit the
:data:`~repro.runtime.codec.MAX_DATAGRAM` cap. Because the service
ticks all of a host's topics from one round task, a round's balls for
*every* topic to the same peer coalesce into one datagram — and the
whole per-tick bundle goes to the fabric through
:meth:`~repro.runtime.udp.UdpNetwork.send_bundle`, one ``sendmmsg``
when the platform has it. ``BENCH_core.json``'s ``service_bench``
records the resulting datagram/byte/syscall reduction against
independent single-topic clusters.

Per-topic fault surface: a channel can be partitioned or put under a
loss burst *independently of other topics on the same socket* — the
scenario ``scenarios/multi_topic_drill.json`` partitions one topic's
publisher while a second topic on the very same hosts stays clean.
Checks run at enqueue time (sender side), mirroring the fabric-level
fault semantics.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import MembershipError
from ..runtime import codec
from ..runtime.codec import CodecError, MAX_DATAGRAM, TopicEnvelope
from ..runtime.transport import LossBurstNetwork

#: Inbox callback: ``handler(src, message)`` — what a channel delivers
#: to its registered node, identical to the fabric-level contract.
ChannelHandler = Callable[[int, Any], None]

_ENVELOPE_OVERHEAD = 16  # outer header
_FRAME_OVERHEAD = 8  # topic u32 + inner_len u32


@dataclass(slots=True)
class DemuxStats:
    """Counters for one host's demux layer.

    ``frames_sent`` against ``envelopes_sent`` is the cross-topic
    batching factor; ``dropped_unknown_topic`` counts well-formed
    frames for topics this host has not opened (or has closed) —
    expected during staggered topic rollout, never an error.
    """

    frames_sent: int = 0
    envelopes_sent: int = 0
    frames_delivered: int = 0
    envelopes_received: int = 0
    dropped_unknown_topic: int = 0
    dropped_partition: int = 0
    dropped_burst: int = 0
    dropped_unencodable: int = 0
    dropped_closed: int = 0
    non_envelope_received: int = 0


class TopicChannel(LossBurstNetwork):
    """One topic's view of the shared endpoint.

    Implements the network surface :class:`~repro.runtime.node.AsyncEpToNode`
    consumes (``register`` / ``unregister`` / ``is_registered`` /
    ``send`` / ``send_many``), routing everything through the owning
    :class:`TopicDemux`. At most one node — the hosting process — may
    register; the node id must be the demux's host id, since the topic
    engine *is* the host's presence on that topic.

    The inherited partition and loss-burst surface is per topic: frames
    crossing this topic's partition groups, or lost to its burst, are
    dropped at enqueue while every other topic's traffic between the
    same hosts keeps flowing.
    """

    def __init__(self, demux: "TopicDemux", topic: int) -> None:
        super().__init__()
        self.topic = topic
        self._demux = demux
        self.handler: Optional[ChannelHandler] = None
        self._handler_id: Optional[int] = None

    # -- network surface -------------------------------------------------

    def register(self, node_id: int, handler: ChannelHandler) -> None:
        if node_id != self._demux.host_id:
            raise MembershipError(
                f"channel for topic {self.topic} belongs to host "
                f"{self._demux.host_id}, not node {node_id}"
            )
        if self.handler is not None:
            raise MembershipError(
                f"topic {self.topic} already has a registered engine"
            )
        self.handler = handler
        self._handler_id = node_id

    def unregister(self, node_id: int) -> None:
        if node_id == self._handler_id:
            self.handler = None
            self._handler_id = None

    def is_registered(self, node_id: int) -> bool:
        return node_id == self._handler_id and self.handler is not None

    def send(self, src: int, dst: int, message: Any) -> None:
        self._demux.enqueue(self, src, dst, message)

    def send_many(self, src: int, dsts, message: Any) -> None:
        # The same message object is enqueued for every destination, so
        # the flush's size cache encodes it once per tick, preserving
        # the encode-once fan-out economics through the demux.
        for dst in dsts:
            self._demux.enqueue(self, src, dst, message)


class TopicDemux:
    """One host's frame router over a shared fabric endpoint.

    Args:
        network: Any fabric with the ``register`` / ``unregister`` /
            ``send`` surface; :meth:`~repro.runtime.udp.UdpNetwork.send_bundle`
            is used when present so a tick's whole bundle ships in one
            batched syscall.
        host_id: This host's fabric node id — the id envelopes are
            sent from and received at.
        seed: Seed for the per-topic fault randomness.
    """

    def __init__(self, network: Any, host_id: int, seed: int = 0) -> None:
        self.network = network
        self.host_id = host_id
        self.stats = DemuxStats()
        self.channels: Dict[int, TopicChannel] = {}
        self._pending: Dict[int, List[Tuple[int, int, Any]]] = {}
        self._flush_scheduled = False
        self._attached = False
        self._closed = False
        self._rng = random.Random(f"{seed}:demux:{host_id}")
        self.attach()

    # -- lifecycle -------------------------------------------------------

    def attach(self) -> None:
        """Register this host's inbox with the fabric (idempotent)."""
        if not self._attached:
            self.network.register(self.host_id, self._on_message)
            self._attached = True
            self._closed = False

    def detach(self) -> None:
        """Drop the fabric inbox (host crash or shutdown); pending
        unflushed frames are discarded like bytes in a dead socket."""
        if self._attached:
            self.network.unregister(self.host_id)
            self._attached = False
        self._closed = True
        self._pending.clear()

    def channel(self, topic: int) -> TopicChannel:
        """The channel for *topic*, created on first use."""
        if not 0 <= topic <= codec.MAX_TOPIC_ID:
            raise MembershipError(
                f"topic id {topic} is outside the u32 wire range"
            )
        existing = self.channels.get(topic)
        if existing is None:
            existing = self.channels[topic] = TopicChannel(self, topic)
        return existing

    def close_topic(self, topic: int) -> None:
        """Forget *topic*; later frames for it count as unknown."""
        self.channels.pop(topic, None)

    # -- outbound --------------------------------------------------------

    def enqueue(
        self, channel: TopicChannel, src: int, dst: int, message: Any
    ) -> None:
        """Queue one frame for the next flush, applying the topic's
        fault surface sender-side."""
        if self._closed:
            self.stats.dropped_closed += 1
            return
        self.stats.frames_sent += 1
        if channel._crosses_partition(src, dst):
            self.stats.dropped_partition += 1
            return
        loop = asyncio.get_running_loop()
        if channel._burst_drops(loop.time(), self._rng):
            self.stats.dropped_burst += 1
            return
        self._pending.setdefault(dst, []).append((channel.topic, src, message))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self.flush)

    def flush(self) -> None:
        """Pack every pending frame into per-destination envelopes and
        hand the bundle to the fabric.

        Packing is exact, not estimated: each distinct message is
        trial-encoded once per flush (cached by object identity, so a
        K-peer fan-out of one ball measures it once) and frames are
        packed greedily until the next one would push the envelope past
        the datagram cap, at which point the envelope is cut and a new
        one begun. A message that cannot encode at all (non-JSON
        payload, oversized on its own) is dropped here and counted,
        exactly as the fabric would have counted ``dropped_encode``.
        """
        self._flush_scheduled = False
        if self._closed or not self._pending:
            self._pending.clear()
            return
        pending, self._pending = self._pending, {}
        size_cache: Dict[int, int] = {}
        bundle: List[Tuple[int, TopicEnvelope]] = []
        for dst, frames in pending.items():
            group: List[Tuple[int, int, Any]] = []
            size = _ENVELOPE_OVERHEAD
            for frame in frames:
                _, sender, message = frame
                key = id(message)
                inner = size_cache.get(key)
                if inner is None:
                    try:
                        inner = len(codec.encode(sender, message))
                    except CodecError:
                        inner = -1
                    size_cache[key] = inner
                if inner < 0:
                    self.stats.dropped_unencodable += 1
                    continue
                frame_size = _FRAME_OVERHEAD + inner
                if group and size + frame_size > MAX_DATAGRAM:
                    bundle.append((dst, TopicEnvelope(frames=tuple(group))))
                    group = []
                    size = _ENVELOPE_OVERHEAD
                group.append(frame)
                size += frame_size
            if group:
                bundle.append((dst, TopicEnvelope(frames=tuple(group))))
        if not bundle:
            return
        self.stats.envelopes_sent += len(bundle)
        send_bundle = getattr(self.network, "send_bundle", None)
        if send_bundle is not None:
            send_bundle(self.host_id, bundle)
        else:
            for dst, envelope in bundle:
                self.network.send(self.host_id, dst, envelope)

    # -- inbound ---------------------------------------------------------

    def _on_message(self, src: int, message: Any) -> None:
        if not isinstance(message, TopicEnvelope):
            # A single-topic peer (or stray traffic) on a service
            # fabric: counted, never delivered — topic identity is what
            # keeps streams independent.
            self.stats.non_envelope_received += 1
            return
        self.stats.envelopes_received += 1
        for topic, sender, inner in message.frames:
            channel = self.channels.get(topic)
            if channel is None or channel.handler is None:
                self.stats.dropped_unknown_topic += 1
                continue
            self.stats.frames_delivered += 1
            channel.handler(sender, inner)
