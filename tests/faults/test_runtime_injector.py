"""Tests for the asyncio fault-schedule interpreter.

Runs the *same* ``standard_drill`` scenario as
``test_sim_injector.py``, but against a live
:class:`~repro.runtime.cluster.AsyncCluster` on real wall-clock timers
— the cross-runtime portability the fault layer exists for.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import EpToConfig
from repro.core.errors import FaultInjectionError
from repro.faults import (
    AsyncFaultInjector,
    ByzantineNodes,
    CorruptDatagrams,
    CrashNodes,
    FaultSchedule,
    LatencySpike,
    LossBurst,
    PartitionNetwork,
    SimFaultInjector,
    check_survivors,
)
from repro.runtime import AsyncCluster
from repro.sim import ClusterConfig, SimCluster, SimNetwork, Simulator


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides):
    defaults = dict(fanout=4, ttl=6, round_interval=15, clock="logical")
    defaults.update(overrides)
    return EpToConfig(**defaults)


class TestStandardDrill:
    def test_shared_scenario_survives_with_total_order(self):
        """Acceptance scenario, asyncio half: the same standard drill
        completes on real timers and ``check_survivors`` passes —
        including the crashed-and-respawned nodes' post-restart
        suffixes."""

        async def scenario():
            cluster = AsyncCluster(small_config(), seed=13)
            cluster.add_nodes(10)
            cluster.start_all()
            injector = AsyncFaultInjector(
                cluster, FaultSchedule.standard_drill(), seed=13
            )
            for node_id in (0, 1, 2):
                cluster.nodes[node_id].broadcast(f"pre-{node_id}")
            await injector.run()  # returns once the last action fired
            # Let the loss burst window (3 rounds) expire, then a
            # post-drill wave from continuous survivors.
            await asyncio.sleep(4 * cluster.config.round_interval / 1000.0)
            survivors = injector.continuous_survivors()
            for node_id in sorted(survivors)[:2]:
                cluster.nodes[node_id].broadcast(f"post-{node_id}")

            def post_wave_reached(nid: int) -> bool:
                # The suffix assertion below needs the respawned nodes
                # to have delivered the whole post-drill wave; without
                # waiting for them, stop_all() can win the race on a
                # loaded machine and truncate their suffixes.
                marks = cluster.restart_indices[nid]
                start = marks[-1] if marks else 0
                payloads = (
                    str(e.payload) for e in cluster.deliveries[nid][start:]
                )
                return (
                    sum(1 for p in payloads if p.startswith("post-")) >= 2
                )

            def done() -> bool:
                return all(
                    len(cluster.deliveries[nid]) >= 5 for nid in survivors
                ) and all(
                    post_wave_reached(nid) for nid in injector.crashed_ids
                )

            ok = await cluster.wait_until(done, timeout=10.0)
            await cluster.stop_all()
            report = check_survivors(
                cluster.deliveries,
                survivors=survivors,
                recovered=injector.crashed_ids,
                restart_indices=cluster.restart_indices,
            )
            return ok, injector, survivors, report, cluster

        ok, injector, survivors, report, cluster = run(scenario())
        assert ok
        assert injector.stats.crashes == 2
        assert injector.stats.recoveries == 2
        assert injector.stats.partitions == 1
        assert injector.stats.heals == 1
        assert injector.stats.loss_bursts == 1
        assert len(survivors) == 8
        assert report.ok, report.summary()
        # The respawned nodes kept their identities and delivered the
        # post-drill wave in the same order as everyone else.
        for node_id in injector.crashed_ids:
            assert cluster.restart_indices[node_id]
            suffix = [
                e.payload
                for e in cluster.deliveries[node_id][
                    cluster.restart_indices[node_id][-1] :
                ]
            ]
            assert [p for p in suffix if str(p).startswith("post-")] == [
                f"post-{nid}" for nid in sorted(survivors)[:2]
            ]

    def test_respawned_node_resumes_its_sequence(self):
        """A recovered node must not reuse ``(source, seq)`` event ids:
        its replacement process resumes the predecessor's counter."""

        async def scenario():
            cluster = AsyncCluster(small_config(), seed=4)
            cluster.add_nodes(5)
            cluster.start_all()
            first = cluster.nodes[0].broadcast("first-life")
            schedule = FaultSchedule(
                [CrashNodes(at_round=2.0, nodes=(0,), recover_after=3.0)]
            )
            injector = AsyncFaultInjector(cluster, schedule, seed=4)
            await injector.run()
            second = cluster.nodes[0].broadcast("second-life")
            ok = await cluster.wait_until(
                lambda: all(
                    len(cluster.deliveries[nid]) >= 2
                    for nid in cluster.live_ids()
                ),
                timeout=10.0,
            )
            await cluster.stop_all()
            return ok, first, second, cluster

        ok, first, second, cluster = run(scenario())
        assert ok
        assert first.id[0] == second.id[0] == 0
        assert second.id[1] > first.id[1]
        # No id collision: both lives' events live side by side in the
        # survivors' journals.
        for node_id in (1, 2, 3, 4):
            ids = [e.id for e in cluster.deliveries[node_id]]
            assert len(ids) == len(set(ids))


class TestByzantineWindow:
    def test_byzantine_action_interpreted_like_the_sim_injector(self):
        """Cross-runtime parity: the asyncio interpreter installs the
        same :class:`ByzantineRouter` on its fabric, scopes it to the
        action window, and restores honesty afterwards."""

        async def scenario():
            cluster = AsyncCluster(small_config(), seed=13)
            cluster.add_nodes(8)
            cluster.start_all()
            schedule = FaultSchedule(
                [
                    ByzantineNodes(
                        at_round=1.0,
                        behavior="equivocate",
                        nodes=(1,),
                        duration=6.0,
                    )
                ]
            )
            injector = AsyncFaultInjector(cluster, schedule, seed=13)
            for node_id in (2, 3, 4):
                cluster.nodes[node_id].broadcast(f"pre-{node_id}")
            await injector.run()
            router = injector._router
            hostile_after = router.is_hostile(1)
            await cluster.stop_all()
            return injector, router, hostile_after

        injector, router, hostile_after = run(scenario())
        assert injector.stats.byzantine_windows == 1
        assert injector.byzantine_ids == {1}
        # The hostile relay really mutated foreign entries mid-window...
        assert router.stats.equivocated > 0
        # ...and the window closed: the node is honest again.
        assert not hostile_after
        assert any("byzantine equivocate on [1]" in msg for _, msg in injector.log)
        assert any("byzantine equivocate off" in msg for _, msg in injector.log)


class TestFabricChecks:
    class _BareFabric:
        """Minimal register/unregister/send fabric with no fault surface."""

        def register(self, node_id, handler):
            pass

        def unregister(self, node_id):
            pass

        def send(self, src, dst, message):
            pass

    def test_unsupported_action_rejected_before_running(self):
        async def scenario():
            cluster = AsyncCluster(small_config(), network=self._BareFabric())
            cluster.add_nodes(3)
            schedule = FaultSchedule([PartitionNetwork(at_round=1.0)])
            injector = AsyncFaultInjector(cluster, schedule)
            with pytest.raises(FaultInjectionError):
                await injector.run()
            assert injector.log == []

        run(scenario())

    def test_corruption_degrades_to_loss_on_codecless_fabric(self):
        """The in-memory fabric has no wire bytes; corruption becomes a
        loss burst with an explicit note in the log."""

        async def scenario():
            cluster = AsyncCluster(small_config(round_interval=10), seed=6)
            cluster.add_nodes(3)
            cluster.start_all()
            schedule = FaultSchedule(
                [CorruptDatagrams(at_round=1.0, rate=0.5, duration=1.0)]
            )
            injector = AsyncFaultInjector(cluster, schedule, seed=6)
            await injector.run()
            await cluster.stop_all()
            return injector

        injector = run(scenario())
        assert injector.stats.corruption_windows == 1
        assert any("approximated as loss" in msg for _, msg in injector.log)

    def test_latency_spike_applied_to_fabric(self):
        async def scenario():
            cluster = AsyncCluster(small_config(round_interval=10), seed=6)
            cluster.add_nodes(3)
            cluster.start_all()
            schedule = FaultSchedule(
                [LatencySpike(at_round=1.0, factor=5.0, duration=2.0)]
            )
            injector = AsyncFaultInjector(cluster, schedule, seed=6)
            await injector.run()
            factor = cluster.network._spike_factor
            await cluster.stop_all()
            return injector, factor

        injector, factor = run(scenario())
        assert injector.stats.latency_spikes == 1
        assert factor == 5.0


class TestOverlappingWindows:
    def test_shorter_later_window_does_not_cut_a_longer_one_short(self):
        """Bursts 0.5@2+10 and 0.9@4+2, spikes x3@2+10 and x2@4+2: at
        round 8 only the long windows are open, and they must still
        apply on the fabric."""

        async def scenario():
            config = small_config(round_interval=50)
            cluster = AsyncCluster(config, seed=6)
            cluster.add_nodes(3)
            cluster.start_all()
            schedule = FaultSchedule(
                [
                    LossBurst(at_round=2.0, rate=0.5, duration=10.0),
                    LossBurst(at_round=4.0, rate=0.9, duration=2.0),
                    LatencySpike(at_round=2.0, factor=3.0, duration=10.0),
                    LatencySpike(at_round=4.0, factor=2.0, duration=2.0),
                ]
            )
            injector = AsyncFaultInjector(cluster, schedule, seed=6)
            task = asyncio.ensure_future(injector.run())
            await asyncio.sleep(8 * config.round_interval / 1000.0)
            network = cluster.network
            now = asyncio.get_running_loop().time()
            state = (
                network._burst_rate,
                now < network._burst_until,
                network._spike_factor,
                now < network._spike_until,
            )
            await task
            await cluster.stop_all()
            return injector, state

        injector, state = run(scenario())
        assert state == (0.5, True, 3.0, True)
        closes = [message for _, message in injector.log if "window" in message]
        assert closes == [
            "loss window still open at 0.5",
            "spike window still open at 3.0",
            "loss window closed",
        ]


class TestContinuousSurvivors:
    def test_same_definition_in_both_runtimes(self):
        """A same-id crash-and-recover schedule yields the same
        continuous survivors from both adapters: a recovered node is
        live again but never a *continuous* survivor."""
        schedule = FaultSchedule(
            [CrashNodes(at_round=1.0, nodes=(1, 2), recover_after=2.0)]
        )

        sim = Simulator(seed=4)
        sim_cluster = SimCluster(
            sim,
            SimNetwork(sim),
            ClusterConfig(epto=small_config(round_interval=10)),
        )
        sim_cluster.add_nodes(5)
        sim_injector = SimFaultInjector(sim, sim_cluster, schedule, recovery="same_id")
        sim_injector.install()
        sim.run(until=6 * 10)
        assert set(sim_cluster.alive_ids()) == {0, 1, 2, 3, 4}

        async def scenario():
            cluster = AsyncCluster(small_config(round_interval=10), seed=4)
            cluster.add_nodes(5)
            cluster.start_all()
            injector = AsyncFaultInjector(cluster, schedule, seed=4)
            await injector.run()
            live = set(cluster.live_ids())
            survivors = injector.continuous_survivors()
            await cluster.stop_all()
            return live, survivors

        live, async_survivors = run(scenario())
        assert live == {0, 1, 2, 3, 4}
        assert sim_injector.continuous_survivors() == {0, 3, 4}
        assert async_survivors == {0, 3, 4}
