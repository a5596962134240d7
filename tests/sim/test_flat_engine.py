"""Unit tests for the flat engine and its recording modes.

Equivalence with the object engine lives in
``tests/sim/test_flat_equivalence.py``; this file pins down the flat
stack's own contracts — calendar semantics, the explicit feature
restrictions, the two recording modes, and ``as_collector`` parity
with the metrics checkers.
"""

from __future__ import annotations

import pytest

from repro.core.config import EpToConfig
from repro.core.errors import MembershipError, SimulationError
from repro.metrics import check_run
from repro.sim import ClusterConfig, FixedLatency, NoDrift, UniformDrift
from repro.sim.flat import FlatCluster, FlatEngine, FlatNetwork


def _config(
    fanout: int = 4,
    ttl: int = 8,
    interval: int = 20,
    clock: str = "global",
    **kwargs,
) -> ClusterConfig:
    return ClusterConfig(
        epto=EpToConfig(
            fanout=fanout, ttl=ttl, round_interval=interval, clock=clock
        ),
        drift=kwargs.pop("drift", NoDrift()),
        **kwargs,
    )


# ----------------------------------------------------------------------
# FlatEngine calendar semantics
# ----------------------------------------------------------------------


def test_engine_runs_actions_in_time_then_fifo_order():
    sim = FlatEngine(seed=1)
    trace = []
    sim.schedule(5, lambda: trace.append("b"))
    sim.schedule(2, lambda: trace.append("a"))
    sim.schedule(5, lambda: trace.append("c"))  # same tick: FIFO
    sim.run()
    assert trace == ["a", "b", "c"]


def test_engine_same_tick_reentrant_schedule_runs_this_tick():
    """An action scheduling at delay 0 runs within the same tick."""
    sim = FlatEngine(seed=1)
    trace = []
    sim.schedule(3, lambda: (trace.append("outer"), sim.schedule(0, lambda: trace.append("inner"))))
    sim.run()
    assert trace == ["outer", "inner"]
    assert sim.now() == 3


def test_engine_cancel_and_past_scheduling():
    sim = FlatEngine(seed=1)
    trace = []
    handle = sim.schedule(4, lambda: trace.append("cancelled"))
    sim.schedule(6, lambda: trace.append("kept"))
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert trace == ["kept"]
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(2, lambda: None)  # now is already 6


def test_engine_run_until_advances_clock_even_when_drained():
    sim = FlatEngine(seed=1)
    sim.schedule(3, lambda: None)
    sim.run(until=50)
    assert sim.now() == 50
    assert sim.executed_count == 1


def test_engine_fork_rng_is_deterministic_per_label():
    a = FlatEngine(seed=7).fork_rng("node:3")
    b = FlatEngine(seed=7).fork_rng("node:3")
    c = FlatEngine(seed=7).fork_rng("node:4")
    draws = [a.random() for _ in range(5)]
    assert draws == [b.random() for _ in range(5)]
    assert draws != [c.random() for _ in range(5)]


# ----------------------------------------------------------------------
# Restrictions: unsupported features raise instead of diverging
# ----------------------------------------------------------------------


def test_cluster_rejects_cyclon_pss():
    sim = FlatEngine(seed=1)
    net = FlatNetwork(sim)
    with pytest.raises(MembershipError):
        FlatCluster(sim, net, _config(pss="cyclon"))


def test_cluster_rejects_tagged_delivery_and_stability():
    for override in ({"tagged_delivery": True}, {"expose_stability": True}):
        sim = FlatEngine(seed=1)
        net = FlatNetwork(sim)
        config = ClusterConfig(
            epto=EpToConfig(fanout=4, ttl=8, round_interval=20, **override),
            drift=NoDrift(),
        )
        with pytest.raises(MembershipError):
            FlatCluster(sim, net, config)


def test_cluster_rejects_unknown_record_mode():
    sim = FlatEngine(seed=1)
    net = FlatNetwork(sim)
    with pytest.raises(MembershipError):
        FlatCluster(sim, net, _config(), record="everything")


def test_engine_refuses_second_cluster():
    sim = FlatEngine(seed=1)
    net = FlatNetwork(sim)
    FlatCluster(sim, net, _config())
    with pytest.raises(SimulationError):
        FlatCluster(sim, net, _config())


def test_network_rejects_adversary():
    sim = FlatEngine(seed=1)
    net = FlatNetwork(sim)
    with pytest.raises(MembershipError):
        net.set_adversary(object())


# ----------------------------------------------------------------------
# Recording modes
# ----------------------------------------------------------------------


def _run_flat(record: str, seed: int = 11, n: int = 24, rounds: int = 36):
    config = _config(drift=UniformDrift(0.01))
    sim = FlatEngine(seed=seed)
    net = FlatNetwork(sim, latency=FixedLatency(3))
    cluster = FlatCluster(sim, net, config, record=record)
    cluster.add_nodes(n)
    interval = config.epto.round_interval
    for r in range(1, 7):
        node = r % n
        sim.schedule_at(r * interval, lambda nd=node: cluster.broadcast_from(nd))
    sim.run(until=rounds * interval)
    return cluster


def test_stats_mode_matches_sequences_mode_aggregates():
    full = _run_flat("sequences")
    stats = _run_flat("stats")
    assert stats.delivery_counts() == full.delivery_counts()
    assert stats.sequence_hashes() == full.sequence_hashes()
    assert sorted(stats.delivery_delays()) == sorted(full.delivery_delays())
    assert stats.delivered_total == full.delivered_total
    assert stats.broadcast_count() == full.broadcast_count()


def test_stats_mode_refuses_sequence_surfaces():
    stats = _run_flat("stats", rounds=4)
    for accessor in (stats.sequences, stats.deliveries, stats.as_collector):
        with pytest.raises(SimulationError):
            accessor()


def test_identical_hashes_iff_identical_sequences():
    cluster = _run_flat("sequences")
    sequences = cluster.sequences()
    hashes = cluster.sequence_hashes()
    by_hash = {}
    for node, seq in sequences.items():
        by_hash.setdefault((len(seq), hashes[node]), set()).add(seq)
    for key, distinct in by_hash.items():
        assert len(distinct) == 1, f"hash collision across sequences: {key}"


def test_as_collector_passes_table1_checks():
    """A flat run feeds the existing metrics pipeline unchanged."""
    cluster = _run_flat("sequences")
    collector = cluster.as_collector()
    assert collector.sequences() == cluster.sequences()
    report = check_run(collector)
    assert report.safety_ok, report.summary()

