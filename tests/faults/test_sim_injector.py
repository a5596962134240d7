"""Tests for the simulator fault-schedule interpreter.

The headline test runs the shared ``standard_drill`` scenario — crash
20% of the cluster, partition and heal, recover, loss burst — under the
discrete-event simulator and checks the Table 1 guarantees on the
continuous survivors. Its twin in ``test_runtime_injector.py`` runs the
*same* schedule against the asyncio runtime.
"""

from __future__ import annotations

import pytest

from repro.core import EpToConfig
from repro.core.errors import FaultInjectionError
from repro.faults import (
    CorruptDatagrams,
    CrashNodes,
    FaultSchedule,
    HealPartition,
    LatencySpike,
    LossBurst,
    PartitionNetwork,
    SimFaultInjector,
)
from repro.metrics import check_run
from repro.sim import ClusterConfig, SimCluster, SimNetwork, Simulator


ROUND = 10  # ticks per EpTO round in these tests


def build_cluster(n=10, seed=7, **epto_overrides):
    epto = dict(fanout=5, ttl=8, round_interval=ROUND, clock="logical")
    epto.update(epto_overrides)
    sim = Simulator(seed=seed)
    network = SimNetwork(sim)
    cluster = SimCluster(sim, network, ClusterConfig(epto=EpToConfig(**epto)))
    cluster.add_nodes(n)
    return sim, network, cluster


class TestStandardDrill:
    def test_shared_scenario_survives_with_total_order(self):
        """Acceptance scenario, simulator half: the standard drill runs
        to completion and the spec checker passes on survivors."""
        sim, network, cluster = build_cluster(n=10, seed=11)
        schedule = FaultSchedule.standard_drill()
        injector = SimFaultInjector(sim, cluster, schedule)
        injector.install()

        # A first wave before anything goes wrong...
        for node_id in cluster.alive_ids()[:3]:
            cluster.broadcast_from(node_id, f"pre-{node_id}")

        # ...and a second wave after the dust settles (recovery lands at
        # round 16, the loss burst ends at round 21).
        def late_wave() -> None:
            for node_id in sorted(injector.continuous_survivors())[:2]:
                cluster.broadcast_from(node_id, f"post-{node_id}")

        sim.schedule_at(24 * ROUND, late_wave)
        sim.run(until=60 * ROUND)

        assert injector.stats.crashes == 2  # ceil(0.2 * 10)
        assert injector.stats.recoveries == 2
        assert injector.stats.partitions == 1
        assert injector.stats.heals == 1
        assert injector.stats.loss_bursts == 1

        survivors = injector.continuous_survivors()
        assert len(survivors) == 8
        assert survivors == {0, 1, 2, 3, 4, 5, 6, 7, 8, 9} - injector.crashed_ids

        report = check_run(cluster.collector, correct_nodes=survivors)
        assert report.safety_ok, report.summary()
        assert report.agreement_ok, report.summary()
        # Every survivor delivered both waves.
        sequences = cluster.collector.sequences()
        for node_id in survivors:
            assert len(sequences[node_id]) == 5

    def test_log_is_chronological_and_complete(self):
        sim, network, cluster = build_cluster(n=10, seed=3)
        injector = SimFaultInjector(sim, cluster, FaultSchedule.standard_drill())
        injector.install()
        sim.run(until=40 * ROUND)
        ticks = [tick for tick, _ in injector.log]
        assert ticks == sorted(ticks)
        joined = " | ".join(message for _, message in injector.log)
        for needle in ("crashed", "partitioned", "healed", "recovered", "loss burst"):
            assert needle in joined


class TestIndividualActions:
    def test_explicit_victims_and_groups(self):
        sim, network, cluster = build_cluster(n=6, seed=5)
        schedule = FaultSchedule(
            [
                CrashNodes(at_round=1.0, nodes=(0, 4)),
                PartitionNetwork(at_round=2.0, groups={1: "a", 2: "a", 3: "b", 5: "b"}),
                HealPartition(at_round=4.0),
            ]
        )
        injector = SimFaultInjector(sim, cluster, schedule)
        injector.install()
        sim.run(until=6 * ROUND)
        assert injector.crashed_ids == {0, 4}
        assert set(cluster.alive_ids()) == {1, 2, 3, 5}
        assert injector.stats.partitions == 1
        assert injector.stats.heals == 1
        assert not network._partitioned

    def test_loss_burst_raises_then_restores_loss(self):
        sim, network, cluster = build_cluster(n=4, seed=2)
        schedule = FaultSchedule([LossBurst(at_round=2.0, rate=0.6, duration=3.0)])
        injector = SimFaultInjector(sim, cluster, schedule)
        injector.install()
        sim.run(until=3 * ROUND)
        assert network.loss_rate == 0.6
        sim.run(until=8 * ROUND)
        assert network.loss_rate == 0.0

    def test_latency_spike_wraps_and_restores_model(self):
        sim, network, cluster = build_cluster(n=4, seed=2)
        base_model = network.latency
        schedule = FaultSchedule([LatencySpike(at_round=1.0, factor=4.0, duration=2.0)])
        injector = SimFaultInjector(sim, cluster, schedule)
        injector.install()
        sim.run(until=2 * ROUND)
        assert network.latency is not base_model
        assert network.latency.sample(sim.fork_rng("probe"), 0, 1) >= 4
        sim.run(until=5 * ROUND)
        assert network.latency is base_model
        assert injector.stats.latency_spikes == 1

    def test_corruption_degrades_to_loss_with_log_note(self):
        sim, network, cluster = build_cluster(n=4, seed=2)
        schedule = FaultSchedule(
            [CorruptDatagrams(at_round=1.0, rate=0.5, duration=2.0)]
        )
        injector = SimFaultInjector(sim, cluster, schedule)
        injector.install()
        sim.run(until=2 * ROUND)
        assert network.loss_rate == 0.5
        assert injector.stats.corruption_windows == 1
        assert any("approximated as loss" in msg for _, msg in injector.log)
        sim.run(until=5 * ROUND)
        assert network.loss_rate == 0.0

    def test_recoveries_join_as_fresh_processes(self):
        sim, network, cluster = build_cluster(n=5, seed=9)
        schedule = FaultSchedule(
            [CrashNodes(at_round=1.0, nodes=(1, 2), recover_after=2.0)]
        )
        injector = SimFaultInjector(sim, cluster, schedule)
        injector.install()
        sim.run(until=6 * ROUND)
        assert injector.stats.recoveries == 2
        # SimCluster assigns ids monotonically: replacements are 5 and 6.
        assert set(cluster.alive_ids()) == {0, 3, 4, 5, 6}
        assert injector.continuous_survivors() == {0, 3, 4}


class TestOverlappingWindows:
    def test_strongest_open_window_applies_until_the_last_closes(self):
        """A short strong window inside a long weak one: the strong one
        applies while open, the weak one resumes after it, and the
        baseline only returns when the long window closes."""
        sim, network, cluster = build_cluster(n=4, seed=3)
        base_model = network.latency
        schedule = FaultSchedule(
            [
                LossBurst(at_round=2.0, rate=0.5, duration=10.0),
                LossBurst(at_round=4.0, rate=0.9, duration=2.0),
                LatencySpike(at_round=2.0, factor=3.0, duration=10.0),
                LatencySpike(at_round=4.0, factor=2.0, duration=2.0),
            ]
        )
        injector = SimFaultInjector(sim, cluster, schedule)
        injector.install()
        probe = sim.fork_rng("probe")

        sim.run(until=5 * ROUND)
        assert network.loss_rate == 0.9
        assert network.latency.sample(probe, 0, 1) == 3
        sim.run(until=8 * ROUND)
        assert network.loss_rate == 0.5
        assert network.latency.sample(probe, 0, 1) == 3
        sim.run(until=13 * ROUND)
        assert network.loss_rate == 0.0
        assert network.latency is base_model
        assert injector.stats.loss_bursts == 2
        assert injector.stats.latency_spikes == 2


class TestInstallGuards:
    def test_double_install_rejected(self):
        sim, network, cluster = build_cluster(n=3)
        injector = SimFaultInjector(sim, cluster, FaultSchedule([]))
        injector.install()
        with pytest.raises(FaultInjectionError):
            injector.install()
