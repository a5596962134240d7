"""Differential harness: object engine vs. flat engine, bit for bit.

The flat engine (:mod:`repro.sim.flat`) exists to run the paper's
Figure 7b sizes; its correctness argument is not a proof but a
*differential test*: for any scenario — seed, size, EpTO parameters,
latency model, loss/duplication, churn, fault schedule — the object
engine (:class:`~repro.sim.cluster.SimCluster`) and the flat engine
must produce **identical** per-node delivery sequences, identical
delivery (node, event, time) logs and identical network counters.
This module is the reusable core of that harness: it builds both
stacks from one declarative :class:`DifferentialScenario` with an
identical setup call order (so every named RNG stream is consumed in
the same sequence) and reports the first divergence in a form small
enough to paste into a regression test.

``tests/sim/test_flat_equivalence.py`` drives this across a seed
matrix and hypothesis-generated scenarios; hypothesis shrinking then
minimizes any diverging scenario automatically because the scenario
is a flat value object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.config import EpToConfig
from ..faults.schedule import (
    CrashNodes,
    FaultSchedule,
    LatencySpike,
    LossBurst,
    PartitionNetwork,
)
from ..faults.injector import SimFaultInjector
from ..sim.churn import ChurnDriver
from ..sim.cluster import ClusterConfig, SimCluster
from ..sim.drift import NoDrift, UniformDrift
from ..sim.engine import Simulator
from ..sim.flat import FlatCluster, FlatEngine, FlatNetwork
from ..sim.latency import (
    FixedLatency,
    LatencyModel,
    PlanetLabLatency,
    UniformLatency,
)
from ..sim.network import SimNetwork
from ..workloads.broadcast import ProbabilisticWorkload

__all__ = [
    "DifferentialScenario",
    "EngineRun",
    "FAULT_KINDS",
    "assert_engines_equivalent",
    "compare_runs",
    "run_differential",
    "run_flat_engine",
    "run_object_engine",
]

#: Fault-schedule presets a scenario can name. Rounds are multiples of
#: the round interval, small enough to land inside every test horizon.
FAULT_KINDS = ("none", "loss_burst", "crash", "partition", "mixed")


@dataclass(frozen=True)
class DifferentialScenario:
    """One seeded configuration both engines must agree on.

    Attributes mirror the knobs of a simulated deployment; the
    defaults describe a small but non-trivial run (24 nodes, lossy
    uniform-latency network, 1% drift) that finishes in well under a
    second per engine.
    """

    seed: int
    n: int = 24
    fanout: int = 4
    ttl: int = 8
    round_interval: int = 20
    clock: str = "global"
    round_phase: str = "synchronized"
    drift_fraction: float = 0.01
    #: ("fixed", delay) | ("uniform", lo, hi) | ("planetlab",)
    latency: Tuple = ("uniform", 1, 15)
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    broadcast_rate: float = 0.08
    broadcast_rounds: int = 8
    churn_rate: float = 0.0
    faults: str = "none"
    recovery: str = "fresh"
    #: Simulated rounds to run; ``None`` = 3*TTL + broadcast window + 8.
    run_rounds: Optional[int] = None

    def horizon(self) -> int:
        """Absolute tick both engines run until."""
        rounds = self.run_rounds
        if rounds is None:
            rounds = 3 * self.ttl + self.broadcast_rounds + 8
        return rounds * self.round_interval

    def describe(self) -> str:
        """Compact one-line reproducer, pasteable into a test."""
        return (
            f"DifferentialScenario(seed={self.seed}, n={self.n}, "
            f"fanout={self.fanout}, ttl={self.ttl}, "
            f"round_interval={self.round_interval}, clock={self.clock!r}, "
            f"round_phase={self.round_phase!r}, "
            f"drift_fraction={self.drift_fraction}, latency={self.latency!r}, "
            f"loss_rate={self.loss_rate}, duplicate_rate={self.duplicate_rate}, "
            f"broadcast_rate={self.broadcast_rate}, "
            f"broadcast_rounds={self.broadcast_rounds}, "
            f"churn_rate={self.churn_rate}, faults={self.faults!r}, "
            f"recovery={self.recovery!r})"
        )


@dataclass(frozen=True)
class EngineRun:
    """Everything one engine produced that the other must reproduce."""

    sequences: Dict[int, Tuple]
    deliveries: Tuple[tuple, ...]
    network: Tuple[int, ...]
    broadcasts: int


def _make_latency(spec: Tuple) -> LatencyModel:
    kind = spec[0]
    if kind == "fixed":
        return FixedLatency(spec[1])
    if kind == "uniform":
        return UniformLatency(spec[1], spec[2])
    if kind == "planetlab":
        return PlanetLabLatency()
    raise ValueError(f"unknown latency spec {spec!r}")


def _make_schedule(scenario: DifferentialScenario) -> Optional[FaultSchedule]:
    kind = scenario.faults
    if kind == "none":
        return None
    if kind == "loss_burst":
        return FaultSchedule([LossBurst(at_round=3, rate=0.5, duration=4)])
    if kind == "crash":
        return FaultSchedule(
            [CrashNodes(at_round=4, fraction=0.2, recover_after=4)]
        )
    if kind == "partition":
        return FaultSchedule(
            [PartitionNetwork(at_round=5, fraction=0.5, heal_after=4)]
        )
    if kind == "mixed":
        return FaultSchedule(
            [
                LossBurst(at_round=3, rate=0.4, duration=3),
                CrashNodes(at_round=5, fraction=0.15, recover_after=4),
                PartitionNetwork(at_round=9, fraction=0.5, heal_after=3),
                LatencySpike(at_round=13, factor=3.0, duration=2),
            ]
        )
    raise ValueError(f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")


def _cluster_config(scenario: DifferentialScenario) -> ClusterConfig:
    # Built fresh per engine run: drift models may hold per-node RNG
    # state, and sharing one instance across runs would itself diverge.
    drift = (
        NoDrift()
        if scenario.drift_fraction == 0.0
        else UniformDrift(scenario.drift_fraction)
    )
    return ClusterConfig(
        epto=EpToConfig(
            fanout=scenario.fanout,
            ttl=scenario.ttl,
            round_interval=scenario.round_interval,
            clock=scenario.clock,
        ),
        drift=drift,
        round_phase=scenario.round_phase,
    )


def _drive(sim, cluster, scenario: DifferentialScenario) -> None:
    """Identical setup + run sequence for both stacks.

    The call order here *is* the equivalence argument for the driver
    layer: every component forks its RNG stream and schedules its
    first action in the same sequence on either engine.
    """
    cluster.add_nodes(scenario.n)
    schedule = _make_schedule(scenario)
    if schedule is not None:
        SimFaultInjector(
            sim, cluster, schedule, recovery=scenario.recovery
        ).install()
    if scenario.churn_rate > 0.0:
        ChurnDriver(
            sim,
            cluster,
            rate=scenario.churn_rate,
            start=scenario.round_interval * 2,
        )
    ProbabilisticWorkload(
        sim,
        cluster,
        rate=scenario.broadcast_rate,
        start=scenario.round_interval,
        rounds=scenario.broadcast_rounds,
    )
    sim.run(until=scenario.horizon())


def _network_fingerprint(stats) -> Tuple[int, ...]:
    return (
        stats.sent,
        stats.delivered,
        stats.dropped_loss,
        stats.dropped_dead,
        stats.dropped_partition,
        stats.duplicated,
    )


def run_object_engine(scenario: DifferentialScenario) -> EngineRun:
    """Run *scenario* on the reference object engine."""
    sim = Simulator(seed=scenario.seed)
    network = SimNetwork(
        sim,
        latency=_make_latency(scenario.latency),
        loss_rate=scenario.loss_rate,
        duplicate_rate=scenario.duplicate_rate,
    )
    cluster = SimCluster(sim, network, _cluster_config(scenario))
    _drive(sim, cluster, scenario)
    deliveries = tuple(
        (record.node_id, record.event_id, record.time)
        for record in cluster.collector.deliveries()
    )
    return EngineRun(
        sequences=cluster.collector.sequences(),
        deliveries=deliveries,
        network=_network_fingerprint(network.stats),
        broadcasts=len(cluster.collector.broadcasts()),
    )


def run_flat_engine(scenario: DifferentialScenario) -> EngineRun:
    """Run *scenario* on the flat engine."""
    sim = FlatEngine(seed=scenario.seed)
    network = FlatNetwork(
        sim,
        latency=_make_latency(scenario.latency),
        loss_rate=scenario.loss_rate,
        duplicate_rate=scenario.duplicate_rate,
    )
    cluster = FlatCluster(sim, network, _cluster_config(scenario))
    _drive(sim, cluster, scenario)
    return EngineRun(
        sequences=cluster.sequences(),
        deliveries=cluster.deliveries(),
        network=_network_fingerprint(network.stats),
        broadcasts=cluster.broadcast_count(),
    )


def compare_runs(reference: EngineRun, candidate: EngineRun) -> List[str]:
    """Describe every way *candidate* diverges from *reference*.

    Empty list means bit-identical. The first entry always pinpoints
    the smallest mismatch found (node id + first diverging index) so a
    hypothesis-shrunk failure reads as a direct reproducer.
    """
    problems: List[str] = []
    if reference.broadcasts != candidate.broadcasts:
        problems.append(
            f"broadcast counts differ: object={reference.broadcasts} "
            f"flat={candidate.broadcasts}"
        )
    ref_nodes = set(reference.sequences)
    cand_nodes = set(candidate.sequences)
    if ref_nodes != cand_nodes:
        problems.append(
            "delivering node sets differ: "
            f"object-only={sorted(ref_nodes - cand_nodes)} "
            f"flat-only={sorted(cand_nodes - ref_nodes)}"
        )
    for node in sorted(ref_nodes & cand_nodes):
        ref_seq = reference.sequences[node]
        cand_seq = candidate.sequences[node]
        if ref_seq == cand_seq:
            continue
        index = next(
            (
                i
                for i, (a, b) in enumerate(zip(ref_seq, cand_seq))
                if a != b
            ),
            min(len(ref_seq), len(cand_seq)),
        )
        problems.append(
            f"node {node} diverges at delivery #{index}: "
            f"object={ref_seq[index] if index < len(ref_seq) else '<end>'} "
            f"flat={cand_seq[index] if index < len(cand_seq) else '<end>'} "
            f"(lengths {len(ref_seq)} vs {len(cand_seq)})"
        )
    if reference.deliveries != candidate.deliveries:
        index = next(
            (
                i
                for i, (a, b) in enumerate(
                    zip(reference.deliveries, candidate.deliveries)
                )
                if a != b
            ),
            min(len(reference.deliveries), len(candidate.deliveries)),
        )
        problems.append(
            f"global delivery logs diverge at #{index} "
            f"(lengths {len(reference.deliveries)} vs "
            f"{len(candidate.deliveries)})"
        )
    if reference.network != candidate.network:
        problems.append(
            "network counters differ "
            "(sent, delivered, dropped_loss, dropped_dead, "
            f"dropped_partition, duplicated): object={reference.network} "
            f"flat={candidate.network}"
        )
    return problems


def run_differential(scenario: DifferentialScenario) -> List[str]:
    """Run both engines on *scenario*; return divergence descriptions."""
    return compare_runs(run_object_engine(scenario), run_flat_engine(scenario))


def assert_engines_equivalent(scenario: DifferentialScenario) -> None:
    """Raise ``AssertionError`` with a pasteable reproducer on divergence."""
    problems = run_differential(scenario)
    if problems:
        detail = "\n  ".join(problems)
        raise AssertionError(
            f"engines diverge on {scenario.describe()}:\n  {detail}"
        )
