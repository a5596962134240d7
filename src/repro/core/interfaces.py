"""Minimal protocols the EpTO core needs from its runtime environment,
plus :class:`FaultableNetwork`, the link-fault base of every fabric.

The algorithm in :mod:`repro.core` is runtime-agnostic: it never
schedules timers, opens sockets, or samples randomness directly.
Instead the embedding runtime (the discrete-event simulator in
:mod:`repro.sim`, or the asyncio runtime in :mod:`repro.runtime`)
provides these two capabilities and drives the process by calling
``on_round`` periodically and ``on_ball`` on message receipt.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Optional, Protocol, Sequence, runtime_checkable

from .errors import MembershipError
from .event import Ball


@runtime_checkable
class Transport(Protocol):
    """Unreliable, unordered, one-way message channel.

    EpTO needs nothing stronger: no acknowledgments, retransmissions or
    connections (paper §1.1). ``send`` must not raise on loss — losing
    messages is the network model's job, not an error.
    """

    def send(self, src: int, dst: int, ball: Ball) -> None:
        """Best-effort delivery of *ball* from *src* to *dst*."""
        ...


@runtime_checkable
class FanoutTransport(Protocol):
    """A transport that can ship one ball to many peers at once.

    EpTO's round tick sends the *same* immutable ball to ``K`` peers.
    A transport that serializes (or otherwise prepares) messages can
    amortize that work across the fan-out — e.g. the UDP fabric encodes
    the datagram once and ``sendto``s the same bytes to every
    destination. The dissemination component uses this surface when the
    transport offers it and falls back to ``K`` individual
    :meth:`Transport.send` calls otherwise, so plain transports (and
    test doubles) keep working unchanged.
    """

    def send(self, src: int, dst: int, ball: Ball) -> None:
        """Best-effort delivery of *ball* from *src* to *dst*."""
        ...

    def send_many(self, src: int, dsts: Sequence[int], ball: Ball) -> None:
        """Best-effort delivery of one *ball* to every id in *dsts*.

        Semantically identical to calling :meth:`send` once per
        destination (per-destination loss, partitions and fault
        injection still apply individually); implementations may share
        the encoded representation across destinations.
        """
        ...


class FaultableNetwork:
    """Link-fault state every network fabric inherits: partition
    groups and the adversary slot (a
    :class:`repro.faults.byzantine.ByzantineRouter` or ``None``).

    Send paths read ``_partitioned`` / ``_partition`` / ``_adversary``
    as plain attributes, so the shared state costs nothing per message.
    """

    __slots__ = ("_partition", "_partitioned", "_adversary")

    #: Why this fabric refuses hostile-behavior routers; ``None`` when
    #: it accepts them.
    adversary_refusal: ClassVar[Optional[str]] = None

    def __init__(self) -> None:
        # Mutated in place, never rebound: the flat engine holds a
        # reference to this dict across a whole run() call.
        self._partition: Dict[int, object] = {}
        self._partitioned = False
        self._adversary = None

    def set_partition(self, groups: Dict[int, object]) -> None:
        """Partition the network: only same-group nodes can talk.

        Args:
            groups: Mapping from node id to an arbitrary group label.
                Nodes absent from the mapping share the implicit
                ``None`` group.
        """
        labels = dict(groups)
        self._partition.clear()
        self._partition.update(labels)
        self._partitioned = True

    def heal_partition(self) -> None:
        """Remove any partition; full connectivity is restored."""
        self._partition.clear()
        self._partitioned = False

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if not self._partitioned:
            return False
        return self._partition.get(src) != self._partition.get(dst)

    def set_adversary(self, router) -> None:
        """Install a hostile-behavior router (see
        :class:`repro.faults.byzantine.ByzantineRouter`): balls sent by
        its hostile nodes are transformed per destination."""
        if self.adversary_refusal is not None:
            raise MembershipError(self.adversary_refusal)
        self._adversary = router


@runtime_checkable
class PeerSampler(Protocol):
    """Peer sampling service view (paper §2, [17]).

    Supplies a uniformly random sample of processes deemed correct.
    Inaccuracies (stale entries pointing at failed processes) are
    tolerated by EpTO and behave like message loss.
    """

    def sample(self, k: int) -> Sequence[int]:
        """Return up to *k* peer ids drawn uniformly at random.

        May return fewer than *k* ids if the view is small; never
        returns the sampling process's own id.
        """
        ...
