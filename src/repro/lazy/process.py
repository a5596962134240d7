"""A lazy-push EpTO process: unchanged core, metadata on the wire.

:class:`LazyEpToProcess` hosts the *unmodified* dissemination and
ordering components (via an inner :class:`~repro.core.process.EpToProcess`)
and changes only what crosses the network:

* outgoing balls are stripped to :class:`~repro.lazy.protocol.IdBall`
  metadata by a transport adapter — the dissemination component never
  notices;
* incoming id-balls go to the dissemination component's metadata
  ingress (:meth:`~repro.core.dissemination.DisseminationComponent.receive_entries`),
  which merges the ``(ts, source, seq, ttl)`` tuples into ``nextBall``
  exactly as ``receive_ball`` would merge payload-less events, but
  builds an event only for ids new to the round. The ordering component
  then orders metadata exactly as it would order full events (the order
  key is ``(ts, source_id, seq)``; payloads never influence it);
* payloads travel exactly once per node through the
  :class:`~repro.lazy.pull.PullManager` /
  :class:`~repro.lazy.store.PayloadStore` pair;
* a FIFO delivery gate holds the ordering component's deliveries until
  the payload has arrived, then releases them *in order* — total order
  is preserved event-for-event against eager mode, only the delivery
  instant may lag by the pull round-trip.

The class satisfies the hosting runtimes' ``GossipProcess`` surface
(``broadcast`` / ``on_ball`` / ``on_round`` / ``resume_sequence``) plus
one extra entry point, :meth:`on_lazy_message`, which the runtimes call
for the three lazy wire kinds (they carry the sender, which ``on_ball``
does not).
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass
from typing import Any, Callable, Deque, List

from ..core.clock import StabilityOracle
from ..core.config import EpToConfig
from ..core.dissemination import payload_nbytes
from ..core.errors import ConfigurationError
from ..core.event import Ball, Event
from ..core.interfaces import PeerSampler, Transport
from ..core.process import EpToProcess
from .protocol import (
    IdBall,
    PayloadRequest,
    PayloadResponse,
    ball_to_id_ball,
    id_ball_to_meta_ball,  # noqa: F401 - perfbench/tracing.py wraps it here
)
from .pull import PullManager
from .store import PayloadStore

# Wire-size estimates mirroring the codec's version-4 layouts (kept
# local: the codec imports this package's protocol module, so importing
# the codec from here would be circular). One datagram header, one
# id-ball entry (ts i64 + source i64 + seq i64 + ttl i32), one event id
# (source i64 + seq i64), the request head (req_id u32) and the
# response head (req_id u32 + missing_count u32).
HEADER_BYTES = 16
ID_ENTRY_BYTES = 28
EVENT_ID_BYTES = 16
REQUEST_HEAD_BYTES = 4
RESPONSE_HEAD_BYTES = 8
RESPONSE_EVENT_BYTES = 28  # ts i64 + source i64 + seq i64 + payload_len u32

#: Default payload retention, in rounds, as a multiple of the TTL. The
#: ordering window is ~2*TTL (dissemination plus stabilization); twice
#: that again absorbs pull retries under loss and the latency tail.
RETENTION_TTL_FACTOR = 4
RETENTION_SLACK_ROUNDS = 16


@dataclass(slots=True)
class LazyStats:
    """Counters specific to the lazy-push leg of one process.

    The pull life-cycle counters (issued/retried/served/failed) live on
    :attr:`LazyEpToProcess.pull` (:class:`~repro.lazy.pull.PullStats`)
    and the retention counters on :attr:`LazyEpToProcess.store`;
    :meth:`LazyEpToProcess.stats_snapshot` merges all three.
    """

    id_balls_sent: int = 0
    id_balls_received: int = 0
    requests_received: int = 0
    responses_sent: int = 0
    payloads_served: int = 0
    payloads_missing: int = 0
    #: deliveries that had to wait in the gate for their payload.
    deliveries_held: int = 0
    #: estimated wire bytes of metadata shipped (id-balls, request and
    #: response framing) — the codec's fixed layouts, like
    #: :class:`~repro.core.dissemination.DisseminationStats`.
    metadata_bytes: int = 0
    #: estimated wire bytes of serialized payloads shipped (responses).
    payload_bytes: int = 0


class _MetadataTransport:
    """Transport adapter: outgoing balls leave as id-balls."""

    __slots__ = ("_owner",)

    def __init__(self, owner: "LazyEpToProcess") -> None:
        self._owner = owner

    def send(self, src: int, dst: int, ball: Ball) -> None:
        self.send_many(src, (dst,), ball)

    def send_many(self, src: int, dsts, ball: Ball) -> None:
        owner = self._owner
        id_ball = ball_to_id_ball(ball)
        fan = len(dsts)
        owner.lazy_stats.id_balls_sent += fan
        owner.lazy_stats.metadata_bytes += fan * (
            HEADER_BYTES + ID_ENTRY_BYTES * len(id_ball.entries)
        )
        transport = owner._transport
        send_many = getattr(transport, "send_many", None)
        if send_many is not None:
            send_many(src, dsts, id_ball)
        else:
            for dst in dsts:
                transport.send(src, dst, id_ball)


class LazyEpToProcess:
    """One lazy-mode EpTO participant.

    Accepts the same keyword surface as
    :class:`~repro.core.process.EpToProcess` (so the hosting runtimes
    can build either from one call site) plus the lazy knobs.

    Args:
        retention_rounds: Payload retention window; defaults to
            ``RETENTION_TTL_FACTOR * ttl + RETENTION_SLACK_ROUNDS``.
        pull_timeout_rounds: Rounds before an unanswered pull request
            is retried at the next advertiser.
    """

    def __init__(
        self,
        node_id: int,
        config: EpToConfig,
        peer_sampler: PeerSampler,
        transport: Transport,
        on_deliver: Callable[[Event], None],
        on_out_of_order: Callable[[Event], None] | None = None,
        time_source: Callable[[], int] | None = None,
        rng: random.Random | None = None,
        oracle: StabilityOracle | None = None,
        system_size_hint: int | None = None,
        retention_rounds: int | None = None,
        pull_timeout_rounds: int = 2,
    ) -> None:
        if config.tagged_delivery:
            raise ConfigurationError(
                "tagged_delivery is not supported in lazy mode (the gate "
                "would reorder the out-of-order stream)"
            )
        self.node_id = node_id
        self.config = config
        self._transport = transport
        self._user_deliver = on_deliver
        if retention_rounds is None:
            retention_rounds = (
                RETENTION_TTL_FACTOR * config.ttl + RETENTION_SLACK_ROUNDS
            )
        self.store = PayloadStore(retention_rounds)
        self.pull = PullManager(
            node_id, timeout_rounds=pull_timeout_rounds, rng=rng
        )
        self.lazy_stats = LazyStats()
        self._held: Deque[Event] = collections.deque()
        self._round_no = 0
        self.process = EpToProcess(
            node_id=node_id,
            config=config,
            peer_sampler=peer_sampler,
            transport=_MetadataTransport(self),
            on_deliver=self._gate_deliver,
            on_out_of_order=on_out_of_order,
            time_source=time_source,
            rng=rng,
            oracle=oracle,
            system_size_hint=system_size_hint,
        )

    # ------------------------------------------------------------------
    # GossipProcess surface
    # ------------------------------------------------------------------

    def broadcast(self, payload: Any = None) -> Event:
        """EpTO-broadcast *payload*; the full event enters the store so
        this node can serve pulls (and deliver its own event ungated)."""
        event = self.process.broadcast(payload)
        self.store.put(event, self._round_no)
        return event

    def on_ball(self, ball: Ball) -> None:
        """Full eager ball (mixed-mode peer or external repair): the
        payloads are right there, so store them and proceed eagerly."""
        for entry in ball:
            self.store.put(entry.event, self._round_no)
        self.process.on_ball(ball)
        self._release()

    def on_round(self) -> None:
        """One round: dissemination/ordering tick (ships the id-ball),
        store GC, then the pull schedule."""
        self._round_no += 1
        self.process.on_round()
        self.store.gc(self._round_no)
        for dst, request in self.pull.collect(self._round_no):
            self.lazy_stats.metadata_bytes += (
                HEADER_BYTES
                + REQUEST_HEAD_BYTES
                + EVENT_ID_BYTES * len(request.ids)
            )
            self._transport.send(self.node_id, dst, request)

    def resume_sequence(self, next_seq: int) -> None:
        """Fast-forward the event-id sequence (same-identity restart)."""
        self.process.resume_sequence(next_seq)

    # ------------------------------------------------------------------
    # Lazy wire entry points
    # ------------------------------------------------------------------

    def on_lazy_message(self, src: int, message: Any) -> None:
        """Dispatch one of the three lazy wire kinds from *src*."""
        if isinstance(message, IdBall):
            self.on_id_ball(src, message)
        elif isinstance(message, PayloadRequest):
            self.on_payload_request(src, message)
        elif isinstance(message, PayloadResponse):
            self.on_payload_response(src, message)
        else:  # pragma: no cover - defensive
            raise TypeError(f"not a lazy wire message: {type(message).__name__}")

    def on_id_ball(self, src: int, id_ball: IdBall) -> None:
        """Metadata ball from *src*: register wants, order metadata."""
        self.lazy_stats.id_balls_received += 1
        ttl_bound = self.config.ttl
        store = self.store
        for ts, source, seq, ttl in id_ball.entries:
            if ttl >= ttl_bound:
                # The dissemination component drops expired entries
                # entirely (they never reach ordering), so pulling
                # their payloads would be wasted traffic.
                continue
            event_id = (source, seq)
            if event_id not in store:
                # The relayer advertises first; the source is the
                # fallback of last resort (it always held the payload).
                self.pull.want(event_id, advertisers=(src, source))
        self.process.dissemination.receive_entries(id_ball.entries)

    def on_payload_request(self, src: int, request: PayloadRequest) -> None:
        """Serve a pull: full events for held ids, ``missing`` for the
        rest (the requester retries elsewhere immediately)."""
        self.lazy_stats.requests_received += 1
        events: List[Event] = []
        missing: List = []
        for event_id in request.ids:
            event = self.store.serve(event_id)
            if event is None:
                missing.append(event_id)
            else:
                events.append(event)
        self.lazy_stats.payloads_served += len(events)
        self.lazy_stats.payloads_missing += len(missing)
        self.lazy_stats.responses_sent += 1
        self.lazy_stats.metadata_bytes += (
            HEADER_BYTES
            + RESPONSE_HEAD_BYTES
            + RESPONSE_EVENT_BYTES * len(events)
            + EVENT_ID_BYTES * len(missing)
        )
        self.lazy_stats.payload_bytes += sum(
            payload_nbytes(event.payload) for event in events
        )
        self._transport.send(
            self.node_id,
            src,
            PayloadResponse(
                req_id=request.req_id,
                events=tuple(events),
                missing=tuple(missing),
            ),
        )

    def on_payload_response(self, src: int, response: PayloadResponse) -> None:
        """A pull answered: store the payloads, release the gate."""
        for event in response.events:
            self.pull.satisfy(event.id)
            self.store.put(event, self._round_no)
        for event_id in response.missing:
            self.pull.reject(event_id, src)
        self.pull.acknowledge(response.req_id)
        self._release()

    # ------------------------------------------------------------------
    # Delivery gate
    # ------------------------------------------------------------------

    def _gate_deliver(self, meta_event: Event) -> None:
        """Ordering component delivery callback: release when the
        payload is here, hold (in order) when it is not."""
        if not self._held:
            full = self.store.get(meta_event.id)
            if full is not None:
                self._user_deliver(full)
                return
        self.lazy_stats.deliveries_held += 1
        self._held.append(meta_event)
        # Normally registered at metadata arrival; this covers events
        # reaching ordering through paths that bypassed on_id_ball.
        self.pull.want(meta_event.id, advertisers=(meta_event.source_id,))

    def _release(self) -> None:
        held = self._held
        while held:
            full = self.store.get(held[0].id)
            if full is None:
                return
            held.popleft()
            self._user_deliver(full)

    # ------------------------------------------------------------------
    # Introspection (cluster/runtime compatibility surface)
    # ------------------------------------------------------------------

    @property
    def dissemination(self):
        """The inner dissemination component (crash/respawn hooks)."""
        return self.process.dissemination

    @property
    def pending_count(self) -> int:
        """Received-but-undelivered events (including gate-held ones)."""
        return self.process.pending_count + len(self._held)

    @property
    def held_count(self) -> int:
        """Deliveries currently blocked on payload arrival."""
        return len(self._held)

    @property
    def delivered_count(self) -> int:
        """Events released to the application in total order."""
        return self.process.delivered_count - len(self._held)

    def peek(self):
        """§8.4 stability estimates (delegates to the inner process)."""
        return self.process.peek()

    def stats_snapshot(self) -> dict:
        """All lazy counters in one flat dict (benchmarks, drills)."""
        snapshot = {
            "id_balls_sent": self.lazy_stats.id_balls_sent,
            "id_balls_received": self.lazy_stats.id_balls_received,
            "requests_received": self.lazy_stats.requests_received,
            "responses_sent": self.lazy_stats.responses_sent,
            "payloads_served": self.lazy_stats.payloads_served,
            "payloads_missing": self.lazy_stats.payloads_missing,
            "deliveries_held": self.lazy_stats.deliveries_held,
            "metadata_bytes": self.lazy_stats.metadata_bytes,
            "payload_bytes": self.lazy_stats.payload_bytes,
            "pulls_issued": self.pull.stats.pulls_issued,
            "pulls_retried": self.pull.stats.pulls_retried,
            "pulls_served": self.pull.stats.pulls_served,
            "pulls_failed": self.pull.stats.pulls_failed,
            "requests_sent": self.pull.stats.requests_sent,
            "store_stored": self.store.stats.stored,
            "store_served": self.store.stats.served,
            "store_evicted": self.store.stats.evicted,
            "store_misses": self.store.stats.misses,
        }
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LazyEpToProcess(id={self.node_id}, held={len(self._held)}, "
            f"pending_pulls={self.pull.pending_count})"
        )
