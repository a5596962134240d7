"""Tests of the benchmark itself.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SIMS = ("sim-eager", "sim-lazy", "sim-flat")


def count_metrics(m: wl.Measurement) -> dict:
    """The metrics of a sim run that are counts, not timings."""
    e2e = wl.end_to_end(m)
    return {
        "counters": m.counters,
        "delays": m.delays,
        **{
            name: e2e[name][0]
            for name in (
                "delay_p50_ticks", "delay_p99_ticks", "wire_bytes_per_delivery",
                "msgs_per_delivery", "delivered_ratio", "within_limit_ratio",
            )
        },
    }


@pytest.mark.parametrize("workload", SIMS)
def test_same_seed_gives_identical_counts(workload):
    first = wl.measure_sim(workload, seed=7, seconds=0, units=1)
    second = wl.measure_sim(workload, seed=7, seconds=0, units=1)
    assert not first.errors and not second.errors
    assert first.deliveries == first.expected > 0
    assert count_metrics(first) == count_metrics(second)


def test_other_seed_gives_other_inputs():
    assert wl.sim_inputs(7) != wl.sim_inputs(8)
    assert wl.flat_inputs(7) != wl.flat_inputs(8)
    assert wl.udp_inputs(7, 1.0) != wl.udp_inputs(8, 1.0)


def test_tracing_observes_without_steering():
    base, traced, tracer = run.traced_measure("sim-eager", seed=7, seconds=0)
    assert not base.errors and not traced.errors
    assert count_metrics(base) == count_metrics(traced)
    assert tracer.span_count > 0
    # Layer self times plus "other" add up to the traced CPU.
    layers = run.per_layer(base, traced, tracer)
    summed = sum(
        value for name, (value, _) in layers.items()
        if name.endswith(run.SELF_SUFFIX) and not name.startswith("bench.")
    )
    total = layers["bench.traced_cpu_us_per_delivery"][0]
    assert summed == pytest.approx(total, rel=1e-9)
    assert run.exercise_errors("sim-eager", tracer) == []


def test_udp_parts_offer_every_publish_once():
    inputs = wl.udp_inputs(seed=3, seconds=2.0)
    parts = wl.split_parts(inputs, wl.UDP_PARTS)
    assert len(parts) == wl.UDP_PARTS
    assert [row[1:] for part in parts for row in part] == [row[1:] for row in inputs]
    for part in parts:
        assert part[0][0] == 0.0
        assert max(row[0] for row in part) < 2.0 / wl.UDP_PARTS


class _StallingCluster:
    """Stands in for the service: every tenth publish blocks the loop."""

    def __init__(self, stall_s: float) -> None:
        self.hosts = {}
        self.stall_s = stall_s
        self.published = 0

    async def publish(self, topic, host, payload, *, wait=True):
        self.published += 1
        if self.published % 10 == 0:
            time.sleep(self.stall_s)
        return SimpleNamespace(id=(host, self.published))

    async def wait_until(self, predicate, timeout):
        return predicate()


def test_open_loop_offers_rate_times_duration_despite_stalls():
    seconds = 0.5
    inputs = wl.udp_inputs(seed=3, seconds=seconds)
    assert len(inputs) == int(wl.UDP_RATE * seconds)
    cluster = _StallingCluster(stall_s=0.05)
    udp_run = wl.UdpRun(cluster, inputs)
    asyncio.run(udp_run.run())
    assert cluster.published == len(inputs)
    assert len(udp_run.accepted) == len(inputs)
    # A stall delays the next publish, due one interval later, by the rest.
    assert max(udp_run.lateness) >= (0.05 - 1 / wl.UDP_RATE) * 1000 * 0.9
