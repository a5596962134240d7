"""Wire messages of the lazy-push protocol (codec kinds 9–11).

Three message types, mirroring the IHAVE/pull shape of lazy epidemic
dissemination:

* :class:`IdBall` — the metadata twin of an EpTO ball: one
  ``(ts, source, seq, ttl)`` tuple per event, no payloads. Shipped to
  ``K`` peers per round exactly like an eager ball; its sender
  implicitly advertises the payloads (it either holds them or is
  pulling them itself).
* :class:`PayloadRequest` — a pull: "send me the payloads of these
  event ids". Batched per advertiser per round by the
  :class:`~repro.lazy.pull.PullManager`.
* :class:`PayloadResponse` — the answer: full events for the ids the
  responder holds, plus an explicit ``missing`` list for the ids it
  does not (yet) — the requester falls over to an alternate advertiser
  immediately instead of waiting out a timeout.

All three are frozen dataclasses so they can be shared among receivers
without aliasing, like balls. On object fabrics (the simulator, the
in-process async network) they travel as-is; on the UDP fabric the
codec serializes them as header-version-4 kinds 9/10/11
(:mod:`repro.runtime.codec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.event import Ball, BallEntry, Event, EventId, IdEntry, make_ball


@dataclass(frozen=True, slots=True)
class IdBall:
    """A ball carrying event metadata only (lazy-push eager leg)."""

    entries: Tuple[IdEntry, ...]


@dataclass(frozen=True, slots=True)
class PayloadRequest:
    """Pull request for the payloads of ``ids``."""

    req_id: int
    ids: Tuple[EventId, ...]


@dataclass(frozen=True, slots=True)
class PayloadResponse:
    """Pull answer: the full events held, the ids not held."""

    req_id: int
    events: Tuple[Event, ...]
    missing: Tuple[EventId, ...] = ()


#: Dispatch tuple for hosting runtimes (mirrors ``SYNC_MESSAGE_TYPES``).
LAZY_MESSAGE_TYPES = (IdBall, PayloadRequest, PayloadResponse)


def ball_to_id_ball(ball: Ball) -> IdBall:
    """Strip a ball to its metadata twin (what lazy mode ships)."""
    return IdBall(
        entries=tuple(
            (entry.event.ts, entry.event.source_id, entry.event.seq, entry.ttl)
            for entry in ball
        )
    )


def id_ball_to_meta_ball(id_ball: IdBall) -> Ball:
    """Inflate metadata entries into a payload-less ball.

    The resulting events carry ``payload=None``; the ordering component
    orders them by ``(ts, source_id, seq)`` exactly as it would the full
    events, which is why metadata alone drives ordering.

    The receive path does not use this: it hands the tuples straight to
    :meth:`~repro.core.dissemination.DisseminationComponent.receive_entries`,
    which builds an event only for ids new to the round. This function
    is the reference that path is tested against.
    """
    return make_ball(
        BallEntry(
            Event(id=(source, seq), ts=ts, source_id=source, payload=None),
            ttl=ttl,
        )
        for ts, source, seq, ttl in id_ball.entries
    )
