"""Allocation guard for lazy mode's metadata ingress.

A lazy process hears each live id about ``K`` times per round, once from
every peer that relays it, but only the first copy is new to its
``nextBall``. The ingress must build an ``Event`` only for that first
copy and no ``BallEntry`` on receive (``BallEntry`` objects are built
once per shipped ball entry, in ``round_tick``). Inflating every
received tuple, as ``id_ball_to_meta_ball`` does, costs one ``Event``
per received entry.

Measured on the seeded run below (n=32, K=8, TTL=8, 20 events):
``Event`` and ``BallEntry`` constructions are each 0.125 x
``entries_received`` (1/K; 3174 of 25392). Inflating every entry gives
1.00 for ``Event`` and 1.125 for ``BallEntry``.
"""

from __future__ import annotations

from collections import Counter

from repro.core import EpToConfig
from repro.core.event import BallEntry, Event
from repro.sim import ClusterConfig, FixedLatency, SimCluster, SimNetwork, Simulator

N, FANOUT, TTL, EVENTS = 32, 8, 8, 20


def _count_inits(monkeypatch, counts: Counter) -> None:
    for cls in (Event, BallEntry):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)


def test_ingress_builds_events_only_for_new_ids(monkeypatch):
    sim = Simulator(seed=5)
    network = SimNetwork(sim, latency=FixedLatency(5))
    config = ClusterConfig(
        epto=EpToConfig(fanout=FANOUT, ttl=TTL, round_interval=100, mode="lazy"),
        pss="uniform",
        expected_size=N,
    )
    cluster = SimCluster(sim, network, config)
    cluster.add_nodes(N)
    for i in range(EVENTS):
        sim.schedule_at(50 + i * 37, lambda node=i % N: cluster.broadcast_from(node, "x" * 32))

    counts: Counter = Counter()
    _count_inits(monkeypatch, counts)
    sim.run(until=50 + EVENTS * 37 + 4 * TTL * 100)

    assert cluster.collector.delivery_count == N * EVENTS
    received = sum(
        cluster.node(node).dissemination.stats.entries_received
        for node in cluster.alive_ids()
    )
    assert received > 0
    assert counts["Event"] <= 0.2 * received
    assert counts["BallEntry"] <= 0.2 * received
