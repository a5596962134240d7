"""Event model for EpTO (paper §3).

An *event* is the unit of information broadcast through the system. The
paper's pseudocode attaches three pieces of metadata to each event: a
unique identifier, a timestamp ``ts`` assigned by the broadcaster's
clock, and the broadcaster identifier ``sourceId`` used to break
timestamp ties. The pseudocode also mutates a ``ttl`` field in place;
we instead keep :class:`Event` immutable and carry the TTL alongside it
(in :class:`BallEntry` on the wire and in per-process records locally),
which matches message-passing semantics — every process owns its own
ageing counters and a relayed ball cannot alias another process's
state.

Ordering
--------

Events are totally ordered by :attr:`Event.order_key`, the tuple
``(ts, source_id, seq)``. The paper orders by ``(ts, srcId)`` only;
we append the per-source sequence number so that two events broadcast
by the same process within the same clock tick (possible with the
global clock, impossible with the logical clock which increments on
every broadcast) still have distinct, deterministically comparable
keys. The extra component is generated by the source, so every process
computes the same order. See DESIGN.md, *Faithfulness notes*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

#: Globally unique event identifier: ``(source_id, per-source sequence)``.
EventId = tuple[int, int]

#: Total-order sort key: ``(timestamp, source_id, per-source sequence)``.
OrderKey = tuple[int, int, int]

#: One ball entry as bare metadata: ``(ts, source_id, seq, ttl)`` — what
#: lazy mode ships instead of a :class:`BallEntry`.
IdEntry = tuple[int, int, int, int]


@dataclass(frozen=True, slots=True)
class Event:
    """An immutable application event flowing through EpTO.

    Attributes:
        id: Unique identifier, ``(source_id, seq)`` where ``seq`` is a
            per-source monotonically increasing counter.
        ts: Timestamp assigned by the broadcaster's clock when the
            event was EpTO-broadcast (global time or Lamport scalar).
        source_id: Identifier of the broadcasting process. Used to
            break timestamp ties deterministically.
        payload: Opaque application data carried by the event.
    """

    id: EventId
    ts: int
    source_id: int
    payload: Any = None

    def __post_init__(self) -> None:
        if self.id[0] != self.source_id:
            raise ValueError(
                f"event id {self.id!r} does not match source_id {self.source_id!r}"
            )

    @property
    def seq(self) -> int:
        """Per-source sequence number (second component of :attr:`id`)."""
        return self.id[1]

    @property
    def order_key(self) -> OrderKey:
        """Deterministic total-order key: ``(ts, source_id, seq)``."""
        return (self.ts, self.source_id, self.id[1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event(id={self.id}, ts={self.ts}, src={self.source_id}, "
            f"payload={self.payload!r})"
        )


@dataclass(frozen=True, slots=True)
class BallEntry:
    """One event plus its relay TTL as shipped inside a ball.

    The TTL counts how many rounds the event has been relayed so far
    (paper Algorithm 1). Entries are immutable: receivers copy the TTL
    into their own mutable records.
    """

    event: Event
    ttl: int

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise ValueError(f"negative ttl {self.ttl} for event {self.event.id}")


#: A ball is the batch of events a process relays in one round
#: (paper §4.2: "each process groups all the received events per round
#: in the same ball"). Immutable so one ball object can be shared among
#: the K receivers without aliasing.
Ball = tuple[BallEntry, ...]


def make_ball(entries: Iterable[BallEntry]) -> Ball:
    """Freeze an iterable of entries into an immutable ball."""
    return tuple(entries)


def ball_event_ids(ball: Ball) -> Iterator[EventId]:
    """Iterate over the event ids contained in *ball*."""
    for entry in ball:
        yield entry.event.id


@dataclass(slots=True)
class EventRecord:
    """Mutable per-process bookkeeping for a known event.

    Used both by the dissemination component (``nextBall``) and the
    ordering component (``received``). The paper mutates ``event.ttl``
    directly; we keep the event immutable and age this record instead.

    Aging comes in two flavours:

    * **Eager** (:meth:`age`): ``ttl += 1`` per round, exactly the
      paper's pseudocode. Fine for ``nextBall`` records, which live a
      single round.
    * **Lazy**: the record remembers the round at which ``ttl`` was
      last materialized (:attr:`received_round`) and derives the
      current value as ``ttl + (current_round - received_round)``
      (:meth:`ttl_at`). The ordering component holds records for many
      rounds; deriving the TTL on demand turns the per-round
      "age everything" sweep into O(1) bookkeeping — the hot-path
      optimisation described in docs/PERFORMANCE.md.
    """

    event: Event
    ttl: int
    received_round: int = 0

    def age(self) -> None:
        """Advance the record by one round (paper: ``ttl += 1``)."""
        self.ttl += 1

    def ttl_at(self, current_round: int) -> int:
        """TTL the paper's eager aging would show at *current_round*.

        The record ages by one per round since ``received_round``, so
        the value is derived instead of stored — no per-round sweep.
        """
        return self.ttl + (current_round - self.received_round)

    def rebase(self, current_round: int) -> None:
        """Materialize the lazily derived TTL as of *current_round*."""
        self.ttl = self.ttl_at(current_round)
        self.received_round = current_round

    def merge_ttl(self, other_ttl: int) -> None:
        """Keep the largest TTL of two sightings of the same event.

        Paper Algorithm 1 lines 14–16 and Algorithm 2 lines 10–12:
        when an event is seen twice, the occurrence that has been
        relayed the longest wins, avoiding both excessive
        retransmission and understating stability.
        """
        if other_ttl > self.ttl:
            self.ttl = other_ttl

    def merge_ttl_at(self, other_ttl: int, current_round: int) -> None:
        """Max-merge a fresh sighting against the lazily aged TTL."""
        self.rebase(current_round)
        if other_ttl > self.ttl:
            self.ttl = other_ttl

    def to_entry(self) -> BallEntry:
        """Snapshot this record as an immutable ball entry."""
        return BallEntry(self.event, self.ttl)


@dataclass(slots=True)
class EventIdGenerator:
    """Produces per-source sequential event ids.

    Each EpTO process owns one generator; ids are ``(source_id, seq)``
    with ``seq`` starting at 0 and incrementing on every broadcast.
    """

    source_id: int
    _next_seq: int = field(default=0)

    def next_id(self) -> EventId:
        """Return a fresh id and advance the sequence counter."""
        event_id = (self.source_id, self._next_seq)
        self._next_seq += 1
        return event_id

    def resume(self, next_seq: int) -> None:
        """Fast-forward the counter to at least *next_seq*.

        Used when a process restarts under the same identity after a
        crash: reissuing an already-used ``(source, seq)`` pair would
        violate event-id uniqueness (and thus integrity), so the
        replacement process resumes the sequence where its predecessor
        stopped. Never rewinds.
        """
        self._next_seq = max(self._next_seq, int(next_seq))

    @property
    def issued(self) -> int:
        """Number of ids issued so far."""
        return self._next_seq
