"""End-to-end UDP network benchmark (ROADMAP: wire-speed hot path).

Everything else in ``benchmarks/perf`` measures the ordering logic or
serialization in isolation; this experiment measures the actual wire
path — real loopback datagrams, real event-loop wakeups, the batched
syscall layer of :mod:`repro.runtime.batchio` — in two parts:

1. **Fan-out throughput**: node 0 blasts encode-once ``send_many``
   rounds at K peers, batched (best platform tier, one ``sendmmsg``
   per round) vs. unbatched (forced ``sendto``, K syscalls per round).
   The ratio is the direct payoff of syscall batching on the EpTO
   dissemination pattern; on a ``sendmmsg`` platform it must clear
   1.5x (pinned by the committed BENCH_core.json and the CI
   regression check).
2. **Cluster scenarios**: full EpTO clusters over
   :class:`~repro.runtime.udp.UdpNetwork` at several sizes drive a
   broadcast workload to delivery completion — once clean and once
   under a :class:`~repro.faults.schedule.FaultSchedule` (the CLI's
   ``--fault-scenario``, e.g. ``scenarios/standard_drill.json``) —
   recording throughput, syscalls per round, bytes on wire, and the
   paper-style delivery-delay CDF (Figures 5–8 are exactly such CDFs,
   there under PlanetLab latency, here under loopback + injected
   faults).

CLI::

    epto-experiment net-bench
    epto-experiment net-bench --fault-scenario scenarios/standard_drill.json

The delivery verdict (every event delivered everywhere, total order
intact) gates the exit code; timing numbers never do — wall-clock
assertions belong in the committed benchmark JSON, not in CI.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import EpToConfig
from ..faults.schedule import FaultSchedule
from ..metrics.cdf import DelaySummary, cdf_points
from ..runtime import batchio
from ..runtime.cluster import AsyncCluster
from ..runtime.fastloop import ensure_uvloop
from ..runtime.udp import UdpNetwork
from .scale import ScalePreset, get_scale

#: Event payloads per fan-out blast datagram are tiny; what matters is
#: the syscall count, so the blast uses a single-entry ball per round.
_BLAST_FANOUT = 16


@dataclass(slots=True)
class FanoutThroughput:
    """Batched vs unbatched ``send_many`` blast, same bytes, same peers."""

    datagrams: int
    batched_tier: str
    batched_seconds: float
    batched_syscalls: int
    unbatched_seconds: float
    unbatched_syscalls: int
    bytes_per_datagram: int

    @property
    def batched_rate(self) -> float:
        """Datagrams per second through the batched send path."""
        return self.datagrams / self.batched_seconds

    @property
    def unbatched_rate(self) -> float:
        """Datagrams per second through the forced-``sendto`` path."""
        return self.datagrams / self.unbatched_seconds

    @property
    def speedup(self) -> float:
        """Batched over unbatched throughput."""
        return self.unbatched_seconds / self.batched_seconds


@dataclass(slots=True)
class ClusterRun:
    """One EpTO cluster driven to delivery completion over real UDP."""

    n: int
    scenario: str
    events: int
    delivered: bool
    ordered: bool
    seconds: float
    rounds: float
    datagrams_sent: int
    datagrams_delivered: int
    syscalls_send: int
    syscalls_recv: int
    bytes_sent: int
    bytes_received: int
    delays_ms: List[float] = field(repr=False)

    @property
    def events_per_second(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0

    @property
    def syscalls_per_round(self) -> float:
        """Send syscalls per node-round — the batching headline: K
        datagrams per round cost ~1 syscall batched, K unbatched."""
        node_rounds = self.rounds * self.n
        return self.syscalls_send / node_rounds if node_rounds else 0.0

    @property
    def delay_summary(self) -> Optional[DelaySummary]:
        if not self.delays_ms:
            return None
        return DelaySummary.from_samples(self.delays_ms)

    def delay_cdf(self) -> List[Tuple[float, float]]:
        """Delivery-delay CDF (ms, cumulative %) — the Figures 5–8 curve."""
        return cdf_points(self.delays_ms)


@dataclass(slots=True)
class NetBenchResult:
    """Everything ``epto-experiment net-bench`` reports."""

    fanout: FanoutThroughput
    runs: List[ClusterRun]
    uvloop_active: bool

    @property
    def exit_ok(self) -> bool:
        """Delivery and ordering must hold; timing never gates."""
        return all(run.delivered and run.ordered for run in self.runs)

    def render(self) -> str:
        f = self.fanout
        lines = [
            f"fan-out blast: {f.datagrams} datagrams x "
            f"{f.bytes_per_datagram} B to {_BLAST_FANOUT} peers",
            f"  batched ({f.batched_tier}): "
            f"{f.batched_rate:,.0f} dgram/s, {f.batched_syscalls} syscalls",
            f"  unbatched (asyncio): "
            f"{f.unbatched_rate:,.0f} dgram/s, {f.unbatched_syscalls} syscalls",
            f"  speedup: {f.speedup:.2f}x   uvloop: "
            f"{'on' if self.uvloop_active else 'off'}",
        ]
        for run in self.runs:
            lines.append(
                f"n={run.n} [{run.scenario}] events={run.events} "
                f"delivered={'yes' if run.delivered else 'NO'} "
                f"ordered={'yes' if run.ordered else 'NO'} "
                f"{run.seconds:.2f}s ({run.events_per_second:.1f} ev/s)"
            )
            lines.append(
                f"  wire: {run.datagrams_sent} dgrams out, "
                f"{run.bytes_sent} B sent / {run.bytes_received} B recv, "
                f"{run.syscalls_send} send + {run.syscalls_recv} recv "
                f"syscalls ({run.syscalls_per_round:.2f} send "
                f"syscalls/node-round)"
            )
            summary = run.delay_summary
            if summary is not None:
                lines.append(
                    f"  delay ms: p50={summary.p50:.1f} "
                    f"p95={summary.p95:.1f} p99={summary.p99:.1f} "
                    f"max={summary.maximum:.1f} ({summary.count} samples)"
                )
        verdict = "OK" if self.exit_ok else "FAILED"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Part 1: fan-out throughput
# ----------------------------------------------------------------------


async def _open_blast_net(batch, seed: int):
    """One fabric with node 0 and :data:`_BLAST_FANOUT` warm peers."""
    from repro.core.event import BallEntry, Event, make_ball

    network = UdpNetwork(seed=seed, batch=batch)
    peers = list(range(1, _BLAST_FANOUT + 1))
    for nid in [0] + peers:
        network.register(nid, lambda src, msg: None)
    await network.open_all()
    ball = make_ball(
        [BallEntry(Event(id=(0, 0), ts=1, source_id=0, payload="blast-x"), 4)]
    )
    # Warm up codec buffers and sockaddr caches outside the clock.
    network.send_many(0, peers, ball)
    return network, peers, ball


#: Rounds per timing chunk in the fan-out blast. The two transports
#: alternate in chunks this small so host noise lands on both sides
#: equally -- on a shared box, back-to-back single-shot timings of each
#: side can differ 20% on machine noise alone.
_BLAST_CHUNK = 25

#: Paired passes per blast; each side keeps its best pass. A pass is a
#: full alternating sweep of the round budget, so "best" still compares
#: like with like -- it discards whole noisy sweeps, not lucky chunks.
_BLAST_PASSES = 3


async def _fanout_throughput(rounds: int, seed: int) -> FanoutThroughput:
    """Batched transport vs. the pre-change asyncio-endpoint transport
    (``batch=False``) -- the speedup this layer actually delivers.

    Both fabrics run live at once and the timed send loops alternate in
    :data:`_BLAST_CHUNK`-round chunks (a paired measurement): a load
    spike on the host slows both sides, not whichever happened to be on
    the clock. The whole sweep repeats :data:`_BLAST_PASSES` times with
    a receive-queue drain between passes (a saturated loopback receive
    buffer puts the *sender* in the kernel's drop path, which is ~5x
    slower) and each side reports its best pass. Receive completion is
    otherwise irrelevant here -- the sender is the side on the clock.
    """
    batched_tier = batchio.best_send_tier()
    b_net, b_peers, b_ball = await _open_blast_net("auto", seed)
    u_net, u_peers, u_ball = await _open_blast_net(False, seed)
    reps = max(1, rounds // _BLAST_CHUNK)
    b_elapsed = u_elapsed = float("inf")
    b_syscalls = u_syscalls = dgram_bytes = 0
    datagrams = reps * _BLAST_CHUNK * _BLAST_FANOUT
    for _ in range(_BLAST_PASSES):
        b_sys0 = b_net.stats.syscalls_send
        u_sys0 = u_net.stats.syscalls_send
        b_bytes0 = b_net.stats.bytes_sent
        b_pass = u_pass = 0.0
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(_BLAST_CHUNK):
                b_net.send_many(0, b_peers, b_ball)
            b_pass += time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(_BLAST_CHUNK):
                u_net.send_many(0, u_peers, u_ball)
            u_pass += time.perf_counter() - start
        b_elapsed = min(b_elapsed, b_pass)
        u_elapsed = min(u_elapsed, u_pass)
        # Per-pass counts are deterministic; record one pass's worth so
        # the reported syscalls line up with the reported datagrams.
        b_syscalls = b_net.stats.syscalls_send - b_sys0
        u_syscalls = u_net.stats.syscalls_send - u_sys0
        dgram_bytes = (b_net.stats.bytes_sent - b_bytes0) // max(1, datagrams)
        # Drain both fabrics' receive queues before the next pass.
        for _ in range(30):
            await asyncio.sleep(0.004)
    await b_net.close()
    await u_net.close()
    return FanoutThroughput(
        datagrams=datagrams,
        batched_tier=batched_tier,
        batched_seconds=b_elapsed,
        batched_syscalls=b_syscalls,
        unbatched_seconds=u_elapsed,
        unbatched_syscalls=u_syscalls,
        bytes_per_datagram=dgram_bytes,
    )


# ----------------------------------------------------------------------
# Part 2: cluster scenarios
# ----------------------------------------------------------------------


def _cluster_config(n: int) -> EpToConfig:
    """Miniature-but-honest EpTO parameters for a loopback cluster."""
    fanout = max(3, min(6, n // 3))
    return EpToConfig(
        fanout=fanout, ttl=2 * fanout, round_interval=20, clock="logical"
    )


async def _cluster_run(
    n: int,
    events: int,
    seed: int,
    schedule: Optional[FaultSchedule],
    scenario: str,
    timeout: float = 30.0,
) -> ClusterRun:
    config = _cluster_config(n)
    network = UdpNetwork(seed=seed)
    cluster = AsyncCluster(config, network=network, seed=seed)
    loop = asyncio.get_running_loop()
    broadcast_at: Dict[object, float] = {}
    delays_ms: List[float] = []

    def on_deliver(event) -> None:
        origin = broadcast_at.get(event.payload)
        if origin is not None:
            delays_ms.append((loop.time() - origin) * 1000.0)

    for _ in range(n):
        cluster.add_node(on_deliver=on_deliver)
    await network.open_all()
    cluster.start_all()

    injector_task = None
    if schedule is not None:
        from ..faults.injector import AsyncFaultInjector

        injector = AsyncFaultInjector(cluster, schedule, seed=seed)
        injector_task = asyncio.create_task(injector.run())

    start = time.perf_counter()
    interval_s = config.round_interval / 1000.0
    for i in range(events):
        payload = f"net-bench-{i}"
        broadcast_at[payload] = loop.time()
        cluster.nodes[i % n].broadcast(payload)
        # Spread the workload over rounds like a real broadcast source.
        await asyncio.sleep(interval_s / 2)
    delivered = await cluster.wait_for_deliveries(events, timeout=timeout)
    seconds = time.perf_counter() - start
    if injector_task is not None:
        await injector_task
    # Let in-flight timers and the last balls settle before teardown.
    await asyncio.sleep(2 * interval_s)
    sequences = cluster.delivery_payload_sequences()
    await cluster.stop_all()
    await network.close()

    live_orders = {
        tuple(seq) for node_id, seq in sequences.items() if len(seq) >= events
    }
    stats = network.stats
    return ClusterRun(
        n=n,
        scenario=scenario,
        events=events,
        delivered=delivered,
        ordered=len(live_orders) == 1,
        seconds=seconds,
        rounds=seconds / interval_s,
        datagrams_sent=stats.sent,
        datagrams_delivered=stats.delivered,
        syscalls_send=stats.syscalls_send,
        syscalls_recv=stats.syscalls_recv,
        bytes_sent=stats.bytes_sent,
        bytes_received=stats.bytes_received,
        delays_ms=delays_ms,
    )


def run_net_bench(
    scale: ScalePreset | str | None = None,
    seed: int = 23,
    schedule: Optional[FaultSchedule] = None,
    sizes: Optional[Sequence[int]] = None,
    events: Optional[int] = None,
    blast_rounds: int = 400,
) -> NetBenchResult:
    """Run the ``udp_e2e`` benchmark family end to end.

    Args:
        scale: Size preset; governs cluster sizes and workload volume.
        seed: Base seed for fabric faults and node randomness.
        schedule: Optional fault scenario driven against **every**
            cluster size *in addition to* the clean runs (the CLI's
            ``--fault-scenario``).
        sizes: Override the preset's cluster sizes.
        events: Override the preset's broadcasts per run.
        blast_rounds: Fan-out rounds in the throughput blast.
    """
    preset = get_scale(scale) if not isinstance(scale, ScalePreset) else scale
    sizes = tuple(sizes if sizes is not None else preset.net_bench_sizes)
    events = int(events if events is not None else preset.net_bench_events)
    uvloop_active = ensure_uvloop()

    async def go() -> NetBenchResult:
        fanout = await _fanout_throughput(blast_rounds, seed)
        runs: List[ClusterRun] = []
        for n in sizes:
            runs.append(
                await _cluster_run(n, events, seed, None, scenario="clean")
            )
            if schedule is not None:
                runs.append(
                    await _cluster_run(n, events, seed, schedule, scenario="faults")
                )
        return NetBenchResult(fanout=fanout, runs=runs, uvloop_active=uvloop_active)

    return asyncio.run(go())
