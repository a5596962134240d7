"""Parity pins for the simulator fault-schedule interpreter.

The flat-vs-object differential cannot catch a change in how a
schedule is interpreted, because both engines run the same injector.
These pins can: each seeded sim run below records the injector's exact
log and a digest of every node's delivered sequence, and both must stay
byte-identical across refactors of the interpreter. Any change to RNG
draw order, scheduling order (tick ties are broken by scheduling
sequence) or handler semantics moves at least one pin.

To re-record after an *intended* behavior change::

    PYTHONPATH=src python tests/faults/test_injector_parity.py
"""

from __future__ import annotations

import hashlib
import tempfile

import pytest

from repro.core import EpToConfig
from repro.faults import (
    CrashNodes,
    FaultSchedule,
    LatencySpike,
    LossBurst,
    PartitionNetwork,
    SimFaultInjector,
)
from repro.sim import ClusterConfig, SimCluster, SimNetwork, Simulator
from repro.sim.drift import UniformDrift
from repro.sim.latency import UniformLatency
from repro.workloads.broadcast import ProbabilisticWorkload

ROUND = 20  # ticks per EpTO round

#: The schedules under pin. ``mixed`` is the differential harness's
#: preset of the same name (repro.analysis.differential).
SCHEDULES = {
    "standard_drill": FaultSchedule.standard_drill,
    "self_stab": FaultSchedule.self_stab,
    "byzantine_drill": FaultSchedule.byzantine_drill,
    "mixed": lambda: FaultSchedule(
        [
            LossBurst(at_round=3, rate=0.4, duration=3),
            CrashNodes(at_round=5, fraction=0.15, recover_after=4),
            PartitionNetwork(at_round=9, fraction=0.5, heal_after=3),
            LatencySpike(at_round=13, factor=3.0, duration=2),
        ]
    ),
}


def run_pinned(name: str, recovery: str, storage_dir: str):
    """One seeded journaled run; returns ``(injector.log, digest)``."""
    schedule = SCHEDULES[name]()
    sim = Simulator(seed=29)
    network = SimNetwork(sim, latency=UniformLatency(1, 15), loss_rate=0.01)
    cluster = SimCluster(
        sim,
        network,
        ClusterConfig(
            epto=EpToConfig(
                fanout=4, ttl=8, round_interval=ROUND, clock="logical"
            ),
            drift=UniformDrift(0.01),
        ),
        storage_dir=storage_dir,
    )
    cluster.add_nodes(24)
    injector = SimFaultInjector(sim, cluster, schedule, recovery=recovery)
    injector.install()
    active = int(schedule.horizon_rounds) + 4
    ProbabilisticWorkload(sim, cluster, rate=0.08, rounds=active, start=ROUND)
    sim.run(until=(active + 30) * ROUND)
    sequences = sorted(cluster.collector.sequences().items())
    digest = hashlib.sha256(repr(sequences).encode()).hexdigest()[:16]
    return injector.log, digest


#: (schedule, recovery) -> (exact injector log, sequence digest),
#: recorded before the sim and asyncio interpreters were merged.
PINS = {
    ('standard_drill', 'fresh'): (
        [
            (80, 'crashed [1, 11, 16, 19, 20]'),
            (160, 'partitioned into groups of sizes [9, 10]'),
            (280, 'healed partition'),
            (320, 'recovered 5 processes as fresh ids [24, 25, 26, 27, 28]'),
            (360, 'loss burst rate=0.3'),
            (420, 'loss restored to 0.01'),
        ],
        'ffc9ad3d4e56b862',
    ),
    ('standard_drill', 'same_id'): (
        [
            (80, 'crashed [1, 11, 16, 19, 20]'),
            (160, 'partitioned into groups of sizes [9, 10]'),
            (280, 'healed partition'),
            (320, 'recovered [1, 11, 16, 19, 20] under their own ids'),
            (360, 'loss burst rate=0.3'),
            (420, 'loss restored to 0.01'),
        ],
        '85bf5d503334264f',
    ),
    ('self_stab', 'fresh'): (
        [
            (120, 'scramble 1: sprayed 3 forged events impersonating [0, 2, 3]'),
            (120, 'scramble 1: appended garbage tail to seg-00000000.log'),
            (120, 'scrambled [1]'),
            (280, 'scrambled nodes [1] respawned'),
        ],
        '167d81ec0d5e6027',
    ),
    ('self_stab', 'same_id'): (
        [
            (120, 'scramble 1: sprayed 3 forged events impersonating [0, 2, 3]'),
            (120, 'scramble 1: appended garbage tail to seg-00000000.log'),
            (120, 'scrambled [1]'),
            (280, 'scrambled nodes [1] respawned'),
        ],
        '167d81ec0d5e6027',
    ),
    ('byzantine_drill', 'fresh'): (
        [
            (60, 'byzantine equivocate on [1, 2] rate=1.0'),
            (100, 'byzantine garble_relay on [1, 2] rate=0.5'),
            (140, 'byzantine replay on [1, 2] rate=0.5'),
            (180, 'byzantine ttl_inflate on [1, 2] rate=0.5'),
            (340, 'byzantine equivocate off for [1, 2]'),
            (340, 'byzantine garble_relay off for [1, 2]'),
            (340, 'byzantine replay off for [1, 2]'),
            (340, 'byzantine ttl_inflate off for [1, 2]'),
        ],
        '44897ee0fad4e250',
    ),
    ('byzantine_drill', 'same_id'): (
        [
            (60, 'byzantine equivocate on [1, 2] rate=1.0'),
            (100, 'byzantine garble_relay on [1, 2] rate=0.5'),
            (140, 'byzantine replay on [1, 2] rate=0.5'),
            (180, 'byzantine ttl_inflate on [1, 2] rate=0.5'),
            (340, 'byzantine equivocate off for [1, 2]'),
            (340, 'byzantine garble_relay off for [1, 2]'),
            (340, 'byzantine replay off for [1, 2]'),
            (340, 'byzantine ttl_inflate off for [1, 2]'),
        ],
        '44897ee0fad4e250',
    ),
    ('mixed', 'fresh'): (
        [
            (60, 'loss burst rate=0.4'),
            (100, 'crashed [1, 11, 16, 19]'),
            (120, 'loss restored to 0.01'),
            (180, 'partitioned into groups of sizes [10, 10]'),
            (180, 'recovered 4 processes as fresh ids [24, 25, 26, 27]'),
            (240, 'healed partition'),
            (260, 'latency spike x3.0'),
            (300, 'latency restored'),
        ],
        '40cbc4f301292766',
    ),
    ('mixed', 'same_id'): (
        [
            (60, 'loss burst rate=0.4'),
            (100, 'crashed [1, 11, 16, 19]'),
            (120, 'loss restored to 0.01'),
            (180, 'partitioned into groups of sizes [10, 10]'),
            (180, 'recovered [1, 11, 16, 19] under their own ids'),
            (240, 'healed partition'),
            (260, 'latency spike x3.0'),
            (300, 'latency restored'),
        ],
        'e8dfd03a81fbee64',
    ),
}


@pytest.mark.parametrize("name,recovery", sorted(PINS))
def test_interpreter_output_is_pinned(name, recovery, tmp_path):
    log, digest = run_pinned(name, recovery, str(tmp_path))
    expected_log, expected_digest = PINS[(name, recovery)]
    assert log == expected_log
    assert digest == expected_digest


def test_every_schedule_is_pinned_in_both_recovery_modes():
    assert set(PINS) == {
        (name, recovery)
        for name in SCHEDULES
        for recovery in ("fresh", "same_id")
    }


if __name__ == "__main__":  # re-record the pins
    for name in SCHEDULES:
        for recovery in ("fresh", "same_id"):
            with tempfile.TemporaryDirectory() as root:
                log, digest = run_pinned(name, recovery, root)
            print(f"    ({name!r}, {recovery!r}): (\n        [")
            for entry in log:
                print(f"            {entry!r},")
            print(f"        ],\n        {digest!r},\n    ),")
