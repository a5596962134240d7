"""The fault-schedule interpreter, with one adapter per runtime.

:class:`FaultInjector` applies the steps of
:meth:`~repro.faults.schedule.FaultSchedule.timeline` and holds what
both runtimes share: stats, log, crashed / byzantine / scrambled ids,
victim and partition sampling, the hostile-behavior router, scramble
spray and journal damage, recovery bookkeeping and the open fault
windows. :class:`SimFaultInjector` (simulator ticks, synchronous crash
and respawn, windows mutate ``loss_rate`` and wrap the latency model)
and :class:`AsyncFaultInjector` (loop seconds, awaited respawns,
windows through the fabric's setters) supply only what differs.

Overlapping windows of one kind compose: while any are open, the
strongest (highest rate, largest factor) applies, and the baseline
comes back only when the last one closes. Every applied step is logged
as ``(time, description)`` — ticks in the simulator, seconds since
:meth:`AsyncFaultInjector.run` started in the asyncio runtime.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.errors import FaultInjectionError
from ..runtime.transport import WindowedNetwork
from .byzantine import ByzantineRouter, forged_events, garbage_ball, scramble_journal
from .schedule import (
    ByzantineNodes,
    CorruptDatagrams,
    CrashNodes,
    FaultAction,
    FaultSchedule,
    HealPartition,
    LatencySpike,
    LossBurst,
    PartitionNetwork,
    ScrambleState,
    TimelineStep,
)


@dataclass(slots=True)
class FaultStats:
    """What an injector actually did."""

    crashes: int = 0
    recoveries: int = 0
    partitions: int = 0
    heals: int = 0
    loss_bursts: int = 0
    latency_spikes: int = 0
    corruption_windows: int = 0
    byzantine_windows: int = 0
    scrambles: int = 0


def _strength(action: FaultAction) -> float:
    return action.factor if isinstance(action, LatencySpike) else action.rate


class FaultInjector:
    """Runtime-independent half of the interpreter.

    Subclasses provide the clock (:meth:`_now`), the live population
    (:meth:`_live_ids`), crash and respawn (:meth:`_kill`,
    :meth:`_respawn`), the router's random stream (:meth:`_router_rng`),
    the forged-event timestamp (:meth:`_forged_ts`) and how a window
    channel is applied (:meth:`_channel`, :meth:`_set_window`).
    """

    #: Log line of an opening loss burst.
    _LOSS_BURST = "loss burst rate={rate}"
    #: What the corruption-as-loss log note says cannot be mangled.
    _NO_WIRE = "this fabric"
    #: Log notes for a scrambled node that has no journal to damage.
    _NO_JOURNAL: Tuple[str, ...] = ()

    def __init__(self, cluster, schedule: FaultSchedule, rng: random.Random) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.network = cluster.network
        self.stats = FaultStats()
        #: (time, human-readable description) per applied step.
        self.log: List[Tuple[float, str]] = []
        #: Ids crashed (or scrambled) by this injector, whether or not
        #: they were later recovered.
        self.crashed_ids: Set[int] = set()
        #: Ids that were ever made hostile by a ByzantineNodes action.
        #: Hostile nodes are excluded from agreement checking — a
        #: Byzantine process's own deliveries carry no guarantees.
        self.byzantine_ids: Set[int] = set()
        #: Ids whose state a ScrambleState action corrupted.
        self.scrambled_ids: Set[int] = set()
        self._rng = rng
        self._router: ByzantineRouter | None = None
        self._initial_population: Set[int] = set()
        # Victims per crash/scramble action (keyed by action identity),
        # recorded when it fires for the matching recovery step.
        self._victims: Dict[int, List[int]] = {}
        # Open windows per channel, in opening order.
        self._windows: Dict[str, List[FaultAction]] = {}

    def continuous_survivors(self) -> Set[int]:
        """Ids live now, live when the schedule started, and never
        crashed in between — the population agreement is evaluated on."""
        return self._initial_population & (set(self._live_ids()) - self.crashed_ids)

    def _apply(self, step: TimelineStep):
        """Run one timeline step; returns the handler's result (a
        coroutine for the asyncio adapter's respawns)."""
        return getattr(self, f"_{step.step}")(step.action)

    def _log(self, message: str) -> None:
        self.log.append((self._now(), message))

    # ------------------------------------------------------------------
    # Step handlers
    # ------------------------------------------------------------------

    def _crash(self, action: CrashNodes) -> None:
        alive = self._live_ids()
        if action.nodes is not None:
            victims = [nid for nid in action.nodes if nid in set(alive)]
        else:
            count = min(len(alive), math.ceil(action.fraction * len(alive)))
            victims = self._rng.sample(alive, count)
        for node_id in victims:
            self._kill(node_id)
            self.crashed_ids.add(node_id)
            self.stats.crashes += 1
        self._victims[id(action)] = list(victims)
        self._log(f"crashed {sorted(victims)}")

    def _recover(self, action: CrashNodes):
        return self._respawn(
            self._victims.get(id(action), []), "recovered {} under their own ids"
        )

    def _partition(self, action: PartitionNetwork) -> None:
        if action.groups is not None:
            groups = dict(action.groups)
        else:
            alive = self._live_ids()
            minority_size = max(1, math.ceil(action.fraction * len(alive)))
            minority = set(self._rng.sample(alive, min(minority_size, len(alive))))
            groups = {nid: (1 if nid in minority else 0) for nid in alive}
        self.network.set_partition(groups)
        self.stats.partitions += 1
        sizes = sorted(
            [list(groups.values()).count(g) for g in set(groups.values())]
        )
        self._log(f"partitioned into groups of sizes {sizes}")

    def _heal(self, action: PartitionNetwork | HealPartition) -> None:
        self.network.heal_partition()
        self.stats.heals += 1
        self._log("healed partition")

    def _window(self, action: LossBurst | LatencySpike | CorruptDatagrams) -> None:
        channel = self._channel(action)
        self._windows.setdefault(channel, []).append(action)
        self._set_window(channel)
        if isinstance(action, LatencySpike):
            self.stats.latency_spikes += 1
            self._log(f"latency spike x{action.factor}")
        elif isinstance(action, LossBurst):
            self.stats.loss_bursts += 1
            self._log(
                self._LOSS_BURST.format(rate=action.rate, duration=action.duration)
            )
        else:
            self.stats.corruption_windows += 1
            self._log(
                f"corrupting datagrams rate={action.rate}"
                if channel == "corrupt"
                else f"corruption window rate={action.rate} (approximated as "
                f"loss — {self._NO_WIRE} has no wire bytes to mangle)"
            )

    def _window_end(self, action: LossBurst | LatencySpike | CorruptDatagrams) -> None:
        channel = self._channel(action)
        self._windows[channel].remove(action)
        self._set_window(channel)
        self._log(self._window_closed_message(channel))

    def _strongest(self, channel: str) -> FaultAction | None:
        """The open window that applies on *channel*, if any."""
        return max(self._windows.get(channel, ()), key=_strength, default=None)

    def _window_closed_message(self, channel: str) -> str:
        strongest = self._strongest(channel)
        if strongest is not None:
            return f"{channel} window still open at {_strength(strongest)}"
        return "latency restored" if channel == "spike" else f"{channel} window closed"

    def _byzantine(self, action: ByzantineNodes) -> None:
        if self._router is None:
            self._router = ByzantineRouter(rng=self._router_rng())
            self.network.set_adversary(self._router)
        self._router.enable(action.nodes, action.behavior, action.rate)
        self.byzantine_ids.update(action.nodes)
        self.stats.byzantine_windows += 1
        self._log(
            f"byzantine {action.behavior} on {sorted(action.nodes)} "
            f"rate={action.rate}"
        )

    def _byzantine_end(self, action: ByzantineNodes) -> None:
        if self._router is not None:
            self._router.disable(action.nodes, action.behavior)
            self._log(f"byzantine {action.behavior} off for {sorted(action.nodes)}")

    def _scramble(self, action: ScrambleState) -> None:
        alive = set(self._live_ids())
        victims = [nid for nid in action.nodes if nid in alive]
        storage_dir = getattr(self.cluster, "storage_dir", None)
        for node_id in victims:
            # 1. The corrupted ordering state and clock made visible:
            # the victim sprays a ball of events forged under *other*
            # live identities, with near-future timestamps and fresh
            # TTLs. Under auth these are unsigned-at-source and die at
            # admission; without auth they poison correct nodes.
            impersonate = sorted(alive - {node_id} - set(victims))[:3]
            if action.garbage_events > 0 and impersonate:
                events = forged_events(
                    impersonate, action.garbage_events, ts=self._forged_ts(node_id)
                )
                targets = [nid for nid in alive if nid != node_id]
                self.network.send_many(node_id, targets, garbage_ball(events))
                self._log(
                    f"scramble {node_id}: sprayed {len(events)} forged "
                    f"events impersonating {impersonate}"
                )
            # 2. Kill the process mid-flight.
            self.cluster.crash_node(node_id)
            self.crashed_ids.add(node_id)
            self.scrambled_ids.add(node_id)
            self.stats.scrambles += 1
            # 3. Corrupt whatever it had on disk.
            if storage_dir is not None:
                notes = scramble_journal(
                    self.cluster.node_storage_dir(node_id), self._rng
                )
            else:
                notes = self._NO_JOURNAL
            for note in notes:
                self._log(f"scramble {node_id}: {note}")
        self._log(f"scrambled {sorted(victims)}")
        self._victims[id(action)] = list(victims)

    def _unscramble(self, action: ScrambleState):
        return self._respawn(
            self._victims.get(id(action), []), "scrambled nodes {} respawned"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(actions={len(self.schedule)}, "
            f"applied={len(self.log)})"
        )


class _ScaledLatency:
    """Latency model wrapper multiplying every sample (latency spike)."""

    def __init__(self, base, factor: float) -> None:
        self._base = base
        self._factor = factor

    def sample(self, rng: random.Random, src: int, dst: int) -> int:
        return max(1, round(self._base.sample(rng, src, dst) * self._factor))


class SimFaultInjector(FaultInjector):
    """Drives one fault schedule against a simulated cluster.

    Args:
        sim: Host simulator (supplies scheduling and forked randomness).
        cluster: Cluster whose membership the crashes mutate.
        schedule: The declarative scenario; times in rounds are
            converted to ticks with the cluster's EpTO round interval.
        recovery: What ``recover_after`` means. ``"fresh"`` (default,
            the paper's churn model) replaces each crashed process with
            a brand-new identity; ``"same_id"`` respawns the *same*
            node ids with their broadcast sequences resumed, mirroring
            the asyncio runtime's
            :meth:`~repro.runtime.cluster.AsyncCluster.respawn_node`
            semantics so crash-recovery scenarios are comparable across
            both runtimes.

    Call :meth:`install` once before ``sim.run(...)``; size the run
    past ``schedule.horizon_rounds * round_interval`` ticks so every
    action lands.
    """

    _NO_WIRE = "the simulator"

    def __init__(
        self, sim, cluster, schedule: FaultSchedule, recovery: str = "fresh"
    ) -> None:
        if recovery not in ("fresh", "same_id"):
            raise FaultInjectionError(
                f"unknown recovery mode {recovery!r}; use 'fresh' or 'same_id'"
            )
        super().__init__(cluster, schedule, sim.fork_rng("faults"))
        self.sim = sim
        self.recovery = recovery
        self._interval = cluster.config.epto.round_interval
        self._installed = False
        # Per window channel, the network value the first open window
        # displaced (restored when the last one closes).
        self._baselines: Dict[str, object] = {}

    def install(self) -> None:
        """Schedule every step on the simulator (once).

        Start steps and window ends are scheduled now, in schedule
        order; recoveries are scheduled when their crash or scramble
        fires (simulator ties break by scheduling order).
        """
        if self._installed:
            raise FaultInjectionError("injector is already installed")
        self._installed = True
        self._initial_population = set(self.cluster.alive_ids())
        base = self.sim.now()
        order = {id(action): index for index, action in enumerate(self.schedule)}
        for step in sorted(self.schedule.timeline(), key=lambda s: order[id(s.action)]):
            if step.step in ("recover", "unscramble"):
                continue
            self.sim.schedule_at(
                base + max(0, round(step.at_round * self._interval)),
                lambda s=step: self._apply(s),
            )

    def _after(self, rounds: float, handler, action: FaultAction) -> None:
        delay = max(1, round(rounds * self._interval))
        self.sim.schedule(delay, lambda: handler(action))

    def _now(self) -> int:
        return self.sim.now()

    def _live_ids(self) -> List[int]:
        return list(self.cluster.alive_ids())

    def _kill(self, node_id: int) -> None:
        if self.recovery == "same_id":
            self.cluster.crash_node(node_id)
        else:
            self.cluster.remove_node(node_id)

    def _router_rng(self) -> random.Random:
        return self.sim.fork_rng("byzantine")

    def _forged_ts(self, node_id: int) -> int:
        return self.sim.now() + self._interval

    def _crash(self, action: CrashNodes) -> None:
        super()._crash(action)
        if action.recover_after is not None and self._victims[id(action)]:
            self._after(action.recover_after, self._recover, action)

    def _recover(self, action: CrashNodes) -> None:
        if self.recovery == "same_id":
            return super()._recover(action)
        count = len(self._victims.get(id(action), []))
        joined = [self.cluster.add_node() for _ in range(count)]
        self.stats.recoveries += count
        self._log(f"recovered {count} processes as fresh ids {joined}")

    def _scramble(self, action: ScrambleState) -> None:
        super()._scramble(action)
        self._after(action.recover_after, self._unscramble, action)

    def _respawn(self, victims: List[int], message: str) -> None:
        recovered: List[int] = []
        for node_id in victims:
            if node_id not in self.cluster.crashed_ids():
                continue  # already respawned by an earlier action
            self.cluster.respawn_node(node_id)
            self.stats.recoveries += 1
            recovered.append(node_id)
        self._log(message.format(sorted(recovered)))

    def _channel(self, action: FaultAction) -> str:
        return "spike" if isinstance(action, LatencySpike) else "loss"

    def _set_window(self, channel: str) -> None:
        strongest = self._strongest(channel)
        network = self.network
        if channel == "spike":
            base = self._baselines.setdefault(channel, network.latency)
            network.latency = (
                base if strongest is None else _ScaledLatency(base, strongest.factor)
            )
        else:
            base = self._baselines.setdefault(channel, network.loss_rate)
            network.loss_rate = (
                base if strongest is None else max(base, strongest.rate)
            )
        if strongest is None:
            del self._baselines[channel]

    def _window_closed_message(self, channel: str) -> str:
        if channel == "loss":
            return f"loss restored to {self.network.loss_rate}"
        return super()._window_closed_message(channel)


#: Fabric setter behind each asyncio window channel.
_WINDOW_SETTERS = {
    "loss": "set_loss_burst",
    "corrupt": "set_corruption",
    "spike": "set_latency_spike",
}


class AsyncFaultInjector(FaultInjector):
    """Drives one fault schedule against a live asyncio cluster.

    Args:
        cluster: The running cluster (``start_all()`` before or after
            creating the injector; actions fire relative to
            :meth:`run`'s start).
        schedule: Declarative scenario; round times become
            ``round_interval`` milliseconds each.
        seed: Seed for victim/partition sampling and hostile behavior.

    Usage::

        injector = AsyncFaultInjector(cluster, FaultSchedule.standard_drill())
        await injector.run()          # returns when the last step fired
    """

    _LOSS_BURST = "loss burst rate={rate} for {duration} rounds"
    _NO_JOURNAL = ("no storage_dir — journal corruption skipped",)

    def __init__(self, cluster, schedule: FaultSchedule, seed: int = 0) -> None:
        super().__init__(cluster, schedule, random.Random(f"{seed}:async-faults"))
        self._round_s = cluster.config.round_interval / 1000.0
        self._started_at = 0.0

    async def run(self) -> None:
        """Apply the whole schedule, sleeping between steps.

        Returns once the final step (including recoveries, heals and
        window ends) has been applied. Raises
        :class:`~repro.core.errors.FaultInjectionError` before applying
        anything if the fabric cannot express an action.
        """
        link_faults = [
            action.kind
            for action in self.schedule
            if not isinstance(action, (CrashNodes, ScrambleState))
        ]
        if link_faults and not isinstance(self.network, WindowedNetwork):
            raise FaultInjectionError(
                f"{type(self.network).__name__} has no link-fault surface "
                f"(WindowedNetwork) for {sorted(set(link_faults))}"
            )
        self._started_at = asyncio.get_running_loop().time()
        self._initial_population = set(self.cluster.live_ids())
        for step in self.schedule.timeline():
            delay = step.at_round * self._round_s - self._now()
            if delay > 0:
                await asyncio.sleep(delay)
            result = self._apply(step)
            if asyncio.iscoroutine(result):
                await result

    def _now(self) -> float:
        return asyncio.get_running_loop().time() - self._started_at

    def _live_ids(self) -> List[int]:
        return self.cluster.live_ids()

    def _kill(self, node_id: int) -> None:
        self.cluster.crash_node(node_id)

    def _router_rng(self) -> random.Random:
        return self._rng

    def _forged_ts(self, node_id: int) -> int:
        # One past the victim's own logical clock: a plausible
        # near-future timestamp.
        node = self.cluster.nodes.get(node_id)
        ts = getattr(getattr(node, "clock", None), "now", lambda: 0)()
        return int(ts) + 1

    async def _respawn(self, victims: List[int], message: str) -> None:
        recovered: List[int] = []
        for node_id in victims:
            node = self.cluster.nodes.get(node_id)
            if node is None or not node.crashed:
                continue  # a supervisor beat us to it, or it was removed
            replacement = await self.cluster.respawn_node(node_id)
            replacement.start()
            self.stats.recoveries += 1
            recovered.append(node_id)
        self._log(message.format(sorted(recovered)))

    def _channel(self, action: FaultAction) -> str:
        if isinstance(action, LatencySpike):
            return "spike"
        if isinstance(action, CorruptDatagrams) and hasattr(
            self.network, "set_corruption"
        ):
            return "corrupt"
        return "loss"

    def _set_window(self, channel: str) -> None:
        # The fabric window is set to run until the last open window on
        # the channel ends, so it never lapses between two steps; each
        # window end re-applies the strongest survivor, and once none
        # is left the fabric window has expired on its own.
        strongest = self._strongest(channel)
        if strongest is None:
            return
        until = max(a.at_round + a.duration for a in self._windows[channel])
        seconds = max(0.0, until * self._round_s - self._now())
        setter = _WINDOW_SETTERS[channel]
        getattr(self.network, setter)(_strength(strongest), seconds)
