"""Run the EpTO benchmark.

    python3 perfbench/run.py --workload sim-eager --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 1

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs
the workload once untraced and once traced with the same seed, reports the
per-layer metrics, checks that tracing did not change any count, and checks
the layer exercise claims in ``perfbench/claims.json``. Each run prints a
table of its metrics (name, value, unit, samples) and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. A failed
output check exits with status 1. ``--workload all`` runs every workload
in its own process and, traced, prints the layer-by-workload CPU matrix.

The metric names, units and bounds live in ``BENCHMARK.json`` at the root
of the checkout; the program under test is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

CLAIMS = json.loads((Path(__file__).resolve().parent / "claims.json").read_text())
#: Per-layer metrics with this suffix are CPU self time; with ``other``
#: they add up to ``bench.traced_cpu_us_per_delivery``.
SELF_SUFFIX = "_us_per_delivery"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _armed(tracer: Tracer, clock, round_interval_ms: float = 0.0):
    tracer.clock = clock
    tracer.round_interval_ms = round_interval_ms
    cpu0 = time.process_time_ns()
    wall0 = time.perf_counter()
    tracer.armed = True
    try:
        yield
    finally:
        tracer.armed = False
        tracer.cpu_ns = time.process_time_ns() - cpu0
        tracer.wall_s = time.perf_counter() - wall0


def traced_measure(workload: str, seed: int, seconds: float):
    """Untraced then traced measurement of one workload, same seed.

    Returns ``(untraced, traced, tracer)``. The sims run their first unit
    in each phase; the UDP service runs one part of the end-to-end run's
    length in each."""
    if workload == "udp-service":
        part_s = seconds / (wl.UDP_PASSES * wl.UDP_PARTS)
        # A hook turns off the gauge, so both phases' CPU is raw.
        base = wl.measure_udp_part(seed, part_s, hook=lambda run: contextlib.nullcontext())
        with Tracer() as tracer:

            def hook(run):
                loop = asyncio.get_running_loop()
                return _armed(tracer, lambda: loop.time() * 1000.0, wl.UDP_ROUND_MS)

            traced = wl.measure_udp_part(seed, part_s, hook=hook)
        return base, traced, tracer
    # Both phases run their unit once, in one piece and unscaled, so the
    # traced-over-untraced CPU ratio compares like with like.
    base = wl.measure_sim(
        workload, seed, seconds, units=1, repeats=1,
        hook=lambda unit: contextlib.nullcontext(),
    )
    with Tracer() as tracer:
        traced = wl.measure_sim(
            workload, seed, seconds, units=1, repeats=1,
            hook=lambda unit: _armed(tracer, unit.sim.now),
        )
    if traced.counters != base.counters:
        traced.errors.append(f"{workload}: traced run's counters differ from the untraced run's")
    return base, traced, tracer


def per_layer(base: wl.Measurement, m: wl.Measurement, tracer: Tracer) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    d = max(1, m.deliveries)
    c = m.counters
    get = c.get
    layer_us = tracer.layer_self_us()
    bucket_us = tracer.self_us()
    calls = tracer.layer_calls()
    total_us = tracer.cpu_ns / 1000.0
    waits = tracer.waits
    p50 = lambda xs: wl.percentile(xs, 0.50)  # noqa: E731
    p99 = lambda xs: wl.percentile(xs, 0.99)  # noqa: E731

    def ratio(a, b):
        return a / b if b else 0.0

    def self_us(layer):
        return (ratio(layer_us.get(layer, 0.0), d), "us")

    base_wall = base.rep_wall[0]
    base_cpu_per = ratio(base.rep_cpu[0], max(1, base.deliveries))
    entries = tracer.counts["ordering.entries"]
    out = {
        "core.dissemination.self_us_per_delivery": self_us("core.dissemination"),
        "core.dissemination.balls_per_delivery": (ratio(get("dissemination.balls_sent", 0), d), "count"),
        "core.dissemination.entries_per_ball": (
            ratio(get("dissemination.entries_received", 0), get("dissemination.balls_received", 0)), "count"),
        "core.dissemination.wait_p50_ms": (p50(waits["dissemination"]), "ms"),
        "core.ordering.self_us_per_delivery": self_us("core.ordering"),
        "core.ordering.new_entry_ratio": (ratio(tracer.counts["ordering.new"], entries), "ratio"),
        "core.ordering.discarded_late": (get("ordering.discarded_late", 0), "count"),
        "core.ordering.wait_p50_ms": (p50(waits["ordering"]), "ms"),
        "core.event.constructions_per_delivery": (ratio(tracer.counts["core.event"], d), "count"),
        "pss.samples_per_delivery": (ratio(calls.get("pss", 0), d), "count"),
        "pss.self_us_per_delivery": self_us("pss"),
        "sim.engine.events_per_delivery": (ratio(get("engine.executed", 0), d), "count"),
        "sim.engine.self_us_per_delivery": self_us("sim.engine"),
        "sim.network.self_us_per_delivery": self_us("sim.network"),
        "sim.network.dropped_ratio": (ratio(get("network.dropped", 0), get("network.sent", 0)), "ratio"),
        "sim.flat.self_us_per_delivery": self_us("sim.flat"),
        "sim.flat.node_rounds_per_s": (ratio(get("flat.node_rounds", 0), base_wall), "1/s"),
        "sim.flat.msgs_per_s": (ratio(get("flat.msgs", 0), base_wall), "1/s"),
        "sim.flat.executed_per_delivery": (ratio(get("flat.executed", 0), d), "count"),
        "metrics.collector.self_us_per_delivery": self_us("metrics.collector"),
        "lazy.protocol.self_us_per_delivery": self_us("lazy.protocol"),
        "lazy.process.self_us_per_delivery": self_us("lazy.process"),
        "lazy.process.gate_wait_p50_ms": (p50(waits["gate"]), "ms"),
        "lazy.pull.requests_per_delivery": (ratio(get("lazy.requests_sent", 0), d), "count"),
        "lazy.pull.retried": (get("lazy.pulls_retried", 0), "count"),
        "lazy.pull.failed": (get("lazy.pulls_failed", 0), "count"),
        # Pull attempts (first requests and retries) that got their payload.
        # PullStats.responses_used is not used: satisfy() retires a fully
        # answered request before acknowledge() can count it.
        "lazy.pull.useful_ratio": (
            ratio(get("lazy.pulls_served", 0),
                  get("lazy.pulls_issued", 0) + get("lazy.pulls_retried", 0)), "ratio"),
        "lazy.pull.wait_p50_ms": (p50(waits["pull"]), "ms"),
        "lazy.pull.self_us_per_delivery": self_us("lazy.pull"),
        "lazy.store.hit_ratio": (
            ratio(get("lazy.store_served", 0),
                  get("lazy.store_served", 0) + get("lazy.store_misses", 0)), "ratio"),
        "lazy.store.evicted": (get("lazy.store_evicted", 0), "count"),
        "lazy.store.self_us_per_delivery": self_us("lazy.store"),
        "runtime.codec.encode_us_per_delivery": (
            ratio(bucket_us.get("runtime.codec.encode", 0.0), d), "us"),
        "runtime.codec.decode_us_per_delivery": (
            ratio(bucket_us.get("runtime.codec.decode", 0.0), d), "us"),
        "runtime.codec.bytes_per_datagram": (ratio(get("udp.bytes_sent", 0), get("udp.sent", 0)), "B"),
        "runtime.codec.metadata_bytes_per_delivery": (ratio(get("udp.metadata_bytes_sent", 0), d), "B"),
        "runtime.codec.payload_bytes_per_delivery": (ratio(get("udp.payload_bytes_sent", 0), d), "B"),
        "runtime.udp.self_us_per_delivery": self_us("runtime.udp"),
        "runtime.udp.datagrams_per_delivery": (ratio(get("udp.sent", 0), d), "count"),
        "runtime.udp.send_syscalls_per_delivery": (ratio(get("udp.syscalls_send", 0), d), "count"),
        "runtime.udp.recv_syscalls_per_delivery": (ratio(get("udp.syscalls_recv", 0), d), "count"),
        "runtime.udp.dropped": (get("udp.dropped", 0), "count"),
        "runtime.udp.transport_errors": (get("udp.transport_errors", 0), "count"),
        "service.demux.frames_per_datagram": (
            ratio(get("demux.frames_sent", 0), get("demux.envelopes_sent", 0)), "count"),
        "service.demux.self_us_per_delivery": self_us("service.demux"),
        "service.service.self_us_per_delivery": self_us("service.service"),
        "service.service.publish_refused": (m.refused, "count"),
        "service.service.subscriber_lagged": (get("service.subscriber_lagged", 0), "count"),
        "service.service.round_lag_p99_ms": (p99(waits["round_lag"]), "ms"),
        "storage.journal.append_us_per_delivery": self_us("storage.journal"),
        "storage.journal.fsyncs": (get("journal.fsyncs", 0), "count"),
        "storage.journal.bytes_written_per_delivery": (ratio(get("journal.bytes_written", 0), d), "B"),
        "sync.manager.self_us_per_delivery": self_us("sync.manager"),
        "sync.manager.probes_per_s": (ratio(get("sync.probes_sent", 0), tracer.wall_s), "1/s"),
        "sync.manager.retries": (get("sync.retries", 0), "count"),
        "sync.manager.chunks_received": (get("sync.chunks_received", 0), "count"),
        "sync.manager.checksum_failures": (get("sync.checksum_failures", 0), "count"),
        "auth.sign_us_per_delivery": (ratio(bucket_us.get("auth.sign", 0.0), d), "us"),
        "auth.verify_us_per_delivery": (ratio(bucket_us.get("auth.verify", 0.0), d), "us"),
        "auth.rejected": (get("udp.rejected", 0), "count"),
        "loop.busy_ratio": (ratio(base.rep_cpu[0], base_wall), "ratio"),
        "other.self_us_per_delivery": (ratio(total_us - sum(layer_us.values()), d), "us"),
        "bench.traced_cpu_us_per_delivery": (ratio(total_us, d), "us"),
        "bench.gen_late_p99_ms": (p99(base.gen_late_ms), "ms"),
        # Traced over untraced CPU per delivery, not wall over wall: the
        # UDP run's wall time is fixed by the open-loop schedule.
        "bench.trace_overhead_ratio": (ratio(ratio(m.rep_cpu[0], d), base_cpu_per), "ratio"),
    }
    return out


def exercise_errors(workload: str, tracer: Tracer) -> list:
    """Claims in claims.json that this workload's traced run breaks."""
    calls = tracer.layer_calls()
    errors = []
    for layer, claim in CLAIMS["layers"].items():
        ran = calls.get(layer, 0) > 0
        if workload in claim["exercised_by"] and not ran:
            errors.append(f"{workload} no longer exercises {layer}")
        only = claim["only_on"]
        if only is not None and ran and workload not in only:
            errors.append(f"{layer} runs on {workload}, claimed only on {', '.join(only)}")
    return errors


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def emit(metrics: dict, samples: dict, correct: bool, attempted: int, failed: int,
         errors: list) -> int:
    print(f"{'metric':48s} {'value':>16s}  {'unit':6s} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6g}  {unit:6s} {samples.get(name, '')}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _match_spec(metrics: dict, specs: list, errors: list) -> None:
    want = {s["name"]: s["unit"] for s in specs}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        errors.append(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    if trace:
        base, m, tracer = traced_measure(workload, seed, seconds)
        metrics = per_layer(base, m, tracer)
        errors = base.errors + m.errors + exercise_errors(workload, tracer)
        _match_spec(metrics, spec["per_layer"], errors)
        kept = tracer.export(
            wl.WORK_DIR / "traces" / f"{workload}-seed{seed}.tsv"
        )
        print(f"trace: {tracer.span_count} spans, {kept} written")
        samples = {}
    else:
        if workload == "udp-service":
            m = wl.measure_udp(seed, seconds)
        else:
            m = wl.measure_sim(workload, seed, seconds)
        full = wl.end_to_end(m)
        metrics = {name: (value, unit) for name, (value, unit, _) in full.items()}
        samples = {name: n for name, (_, _, n) in full.items()}
        errors = list(m.errors)
        _match_spec(metrics, spec["end_to_end"], errors)
    failed = max(0, m.expected - m.deliveries)
    return emit(metrics, samples, not errors, max(1, m.expected), failed, errors)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process (so peak RSS is per workload)."""
    status = 0
    shares = {}
    for workload in wl.WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=str(ROOT),
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if trace and proc.stdout.strip():
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            total = metrics["bench.traced_cpu_us_per_delivery"]["value"] or 1.0
            shares[workload] = {
                name[: -len(SELF_SUFFIX)]: value["value"] / total
                for name, value in metrics.items()
                if name.endswith(SELF_SUFFIX) and not name.startswith("bench.")
            }
    if trace:
        print_matrix(shares)
    return status


def print_matrix(shares: dict) -> None:
    workloads = list(shares)
    rows = sorted({row for col in shares.values() for row in col})
    print("\nCPU share by layer (self time / traced CPU), per workload:")
    print(f"{'layer':34s}" + "".join(f"{w:>13s}" for w in workloads))
    for row in rows:
        print(f"{row:34s}" + "".join(f"{shares[w].get(row, 0.0):13.1%}" for w in workloads))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
