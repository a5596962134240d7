"""Simulated network: latency, loss and partitions (paper §6).

Routes opaque messages between registered nodes. Each send:

1. may be dropped with probability ``loss_rate`` (paper §5.4 / Fig. 10);
2. may be dropped because the destination is not registered — the
   simulated equivalent of gossiping to a failed process under churn
   (paper §6: stale PSS views "imply there will be less balls in the
   system");
3. may be dropped by a configured partition;
4. may additionally be *duplicated* with probability
   ``duplicate_rate`` — a second copy ships with an independent
   latency, modelling retransmitting middleboxes and multipath
   anomalies (EpTO's integrity property must absorb duplicates);
5. otherwise is delivered at ``now() + latency`` with the latency drawn
   from the configured :class:`~repro.sim.latency.LatencyModel`
   (paper §6: "balls sent are delivered at processes at time
   now() + networkLatency").

Destination liveness is checked at *delivery* time too: a message in
flight to a process that dies before it lands is lost, exactly as in a
real network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..auth.guard import BallGuard
from ..core.errors import MembershipError
from ..core.interfaces import FaultableNetwork
from .engine import Simulator
from .latency import FixedLatency, LatencyModel

#: Message handler: ``handler(src, message)``.
MessageHandler = Callable[[int, Any], None]


@dataclass(slots=True)
class NetworkStats:
    """Counters describing everything the network did.

    The ``dropped_bad_signature`` / ``dropped_unknown_key`` /
    ``dropped_unsigned`` counters are per *ball entry*, not per
    message: an authenticating fabric admits the verified sub-ball and
    counts the forged remainder, mirroring
    :class:`repro.runtime.udp.UdpStats`.
    """

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_dead: int = 0
    dropped_partition: int = 0
    dropped_bad_signature: int = 0
    dropped_unknown_key: int = 0
    dropped_unsigned: int = 0
    duplicated: int = 0

    @property
    def dropped(self) -> int:
        """Total messages that never reached a handler."""
        return self.dropped_loss + self.dropped_dead + self.dropped_partition

    @property
    def delivery_ratio(self) -> float:
        """Fraction of sent messages that were delivered."""
        return self.delivered / self.sent if self.sent else 1.0


class SimNetwork(FaultableNetwork):
    """Message router over a :class:`~repro.sim.engine.Simulator`.

    Args:
        sim: Host simulator (supplies time, scheduling and the base
            random seed).
        latency: Latency model for message transit times; defaults to a
            fixed 1-tick latency.
        loss_rate: Probability that any given message is silently lost.
        duplicate_rate: Probability that a surviving message is
            delivered twice (independent latencies).
        authenticator: Optional
            :class:`~repro.auth.authenticator.HmacAuthenticator`. When
            set, balls are sealed at send time and verified at delivery
            through a fabric-shared :class:`~repro.auth.guard.BallGuard`
            (the object-fabric equivalent of the UDP signed-ball path:
            signatures travel in the guard's cache instead of the
            message). Forged or unsigned entries never reach a handler.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        authenticator=None,
    ) -> None:
        super().__init__()
        self.sim = sim
        self.latency = latency if latency is not None else FixedLatency(1)
        self.loss_rate = float(loss_rate)
        self.duplicate_rate = float(duplicate_rate)
        self.stats = NetworkStats()
        self._guard = BallGuard(authenticator) if authenticator else None
        self._handlers: Dict[int, MessageHandler] = {}
        self._loss_rng = sim.fork_rng("network.loss")
        self._latency_rng = sim.fork_rng("network.latency")

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def register(self, node_id: int, handler: MessageHandler) -> None:
        """Attach *handler* as the inbox of *node_id*."""
        if node_id in self._handlers:
            raise MembershipError(f"node {node_id} is already registered")
        self._handlers[node_id] = handler

    def unregister(self, node_id: int) -> None:
        """Detach *node_id*; in-flight messages to it will be lost."""
        if node_id not in self._handlers:
            raise MembershipError(f"node {node_id} is not registered")
        del self._handlers[node_id]
        self._partition.pop(node_id, None)

    def is_registered(self, node_id: int) -> bool:
        """Whether *node_id* currently has an inbox."""
        return node_id in self._handlers

    @property
    def registered_count(self) -> int:
        """Number of attached nodes."""
        return len(self._handlers)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, message: Any) -> None:
        """Best-effort send; never raises on loss or dead destinations."""
        message = self._outbound(src, dst, message)
        self.stats.sent += 1
        if self._crosses_partition(src, dst):
            self.stats.dropped_partition += 1
            return
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            self.stats.dropped_loss += 1
            return
        if dst not in self._handlers:
            self.stats.dropped_dead += 1
            return
        delay = self.latency.sample(self._latency_rng, src, dst)
        self.sim.schedule(delay, lambda: self._deliver(src, dst, message))
        if self.duplicate_rate > 0.0 and self._loss_rng.random() < self.duplicate_rate:
            self.stats.duplicated += 1
            extra = self.latency.sample(self._latency_rng, src, dst)
            self.sim.schedule(extra, lambda: self._deliver(src, dst, message))

    def send_many(self, src: int, dsts, message: Any) -> None:
        """Fan one message out to every id in *dsts*.

        Loss, partition and duplication decisions stay independent per
        destination (identical randomness consumption to *dsts*
        sequential :meth:`send` calls, keeping seeded runs bit-stable);
        the message object itself is shared, never copied.
        """
        for dst in dsts:
            self.send(src, dst, message)

    def _outbound(self, src: int, dst: int, message: Any) -> Any:
        """Seal and (for hostile senders) transform an outgoing ball.

        Sealing runs on the genuine ball *before* any adversary
        transform, so the guard's signature cache always pins the
        original canonical bytes — a mutated relay copy under the same
        event id fails verification at delivery.
        """
        if not isinstance(message, tuple):
            return message
        ball = message
        if self._guard is not None:
            self._guard.seal(src, ball)
        if self._adversary is not None and self._adversary.is_hostile(src):
            ball = self._adversary.transform(src, dst, ball)
        return ball

    def _deliver(self, src: int, dst: int, message: Any) -> None:
        handler = self._handlers.get(dst)
        if handler is None:
            # Destination died while the message was in flight.
            self.stats.dropped_dead += 1
            return
        if self._crosses_partition(src, dst):
            self.stats.dropped_partition += 1
            return
        if self._guard is not None and isinstance(message, tuple):
            message, counts = self._guard.admit_ball(message)
            self.stats.dropped_bad_signature += counts.bad_signature
            self.stats.dropped_unknown_key += counts.unknown_key
            self.stats.dropped_unsigned += counts.unsigned
        self.stats.delivered += 1
        handler(src, message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimNetwork(nodes={len(self._handlers)}, loss={self.loss_rate}, "
            f"sent={self.stats.sent}, delivered={self.stats.delivered})"
        )
