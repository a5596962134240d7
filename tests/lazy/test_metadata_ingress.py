"""Differential property tests for the metadata ingress.

:meth:`DisseminationComponent.receive_entries` merges lazy mode's
``(ts, source, seq, ttl)`` tuples into ``nextBall`` without inflating
them. Its contract is to be indistinguishable from the reference path,
``receive_ball(id_ball_to_meta_ball(id_ball))``. Two processes get the
same random schedule of broadcasts, id-balls and round ticks, one
through each path. After every step their ``nextBall`` contents,
dissemination stats and logical clock must match. After every round
their relayed balls, deliveries and ordering stats must match too.

The generated id-balls repeat ids within and across balls, include
expired TTLs (``ttl >= TTL``) and give one id several timestamps (an
equivocating source). Both clock types are covered.
"""

from __future__ import annotations

import dataclasses
from typing import List

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import EpToConfig
from repro.core.dissemination import DisseminationComponent
from repro.core.event import Event
from repro.core.process import EpToProcess
from repro.lazy.protocol import IdBall, id_ball_to_meta_ball

from ..conftest import ManualOracle, RecordingTransport, StaticPeerSampler

TTL = 4

#: (ts, source, seq, ttl) with a narrow id space so duplicates abound,
#: ts independent of the id (equivocation) and ttl reaching past TTL.
id_entries = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=TTL + 2),
)

actions = st.lists(
    st.one_of(
        st.just(("round", None)),
        st.just(("broadcast", None)),
        st.tuples(st.just("id_ball"), st.lists(id_entries, max_size=8)),
    ),
    max_size=40,
)


class _Node:
    """One EpTO process plus everything it delivered and relayed."""

    def __init__(self, clock: str) -> None:
        self.now = 0
        self.delivered: List[Event] = []
        self.transport = RecordingTransport()
        self.process = EpToProcess(
            node_id=0,
            config=EpToConfig(fanout=2, ttl=TTL, clock=clock),
            peer_sampler=StaticPeerSampler([7, 8]),
            transport=self.transport,
            on_deliver=self.delivered.append,
            time_source=lambda: self.now,
        )

    def snapshot(self) -> dict:
        dissemination = self.process.dissemination
        return {
            "next_ball": {
                event_id: (record.event, record.ttl)
                for event_id, record in dissemination._next_ball.items()
            },
            "stats": dataclasses.asdict(dissemination.stats),
            "clock": getattr(self.process.oracle, "logical_clock", None),
        }


def _run_pair(clock: str, schedule) -> None:
    fast, reference = _Node(clock), _Node(clock)
    for kind, entries in schedule:
        if kind == "round":
            for node in (fast, reference):
                node.now += 1
                node.process.on_round()
            assert fast.delivered == reference.delivered
            assert fast.transport.sent == reference.transport.sent
            assert dataclasses.asdict(fast.process.ordering.stats) == (
                dataclasses.asdict(reference.process.ordering.stats)
            )
        elif kind == "broadcast":
            for node in (fast, reference):
                node.process.broadcast(f"payload-{node.now}")
        else:
            id_ball = IdBall(entries=tuple(entries))
            fast.process.dissemination.receive_entries(id_ball.entries)
            reference.process.on_ball(id_ball_to_meta_ball(id_ball))
        assert fast.snapshot() == reference.snapshot()


@pytest.mark.parametrize("clock", ["global", "logical"])
@settings(max_examples=150, deadline=None)
@given(schedule=actions)
# One id with three timestamps and TTLs, then expired copies: the first
# copy's event stays queued with the largest TTL.
@example(
    schedule=[
        ("id_ball", [(5, 1, 0, 1), (9, 1, 0, 3), (2, 1, 0, 0)]),
        ("id_ball", [(7, 1, 0, TTL), (3, 2, 0, TTL + 1)]),
        ("round", None),
    ]
)
def test_tuple_ingress_matches_inflated_ball(clock, schedule):
    _run_pair(clock, schedule)


def _component() -> DisseminationComponent:
    return DisseminationComponent(
        node_id=0,
        config=EpToConfig(fanout=2, ttl=TTL, clock="logical"),
        oracle=ManualOracle(ttl=TTL),
        peer_sampler=StaticPeerSampler([7, 8]),
        transport=RecordingTransport(),
        order_events=lambda ball: None,
    )


def test_negative_ttl_raises_on_both_paths():
    id_ball = IdBall(entries=((1, 1, 0, 0), (2, 2, 0, -1)))
    with pytest.raises(ValueError):
        _component().receive_entries(id_ball.entries)
    with pytest.raises(ValueError):
        _component().receive_ball(id_ball_to_meta_ball(id_ball))


def test_new_ids_enter_next_ball_as_payload_less_events():
    component = _component()
    component.receive_entries(((3, 1, 0, 1), (4, 1, 0, 2), (6, 2, 5, TTL)))
    (record,) = component._next_ball.values()
    assert record.event == Event(id=(1, 0), ts=3, source_id=1, payload=None)
    assert record.ttl == 2
    assert component.stats.entries_received == 3
    assert component.stats.entries_expired == 1
    assert component.oracle.updates == [3, 4, 6]
