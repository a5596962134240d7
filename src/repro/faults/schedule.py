"""Declarative fault schedules, portable across runtimes.

A :class:`FaultSchedule` is a runtime-agnostic description of *what
goes wrong when*: crashes (with optional recovery), network partitions
(with optional healing), loss bursts, latency spikes and datagram
corruption windows. Times are expressed in **rounds** — multiples of
the deployment's EpTO round interval ``delta`` — so the very same
scenario drives the discrete-event simulator (where a round is
``round_interval`` ticks, via
:class:`repro.faults.injector.SimFaultInjector`) and the asyncio
runtime (where it is ``round_interval`` milliseconds, via
:class:`repro.faults.injector.AsyncFaultInjector`). Both read the
schedule through :meth:`FaultSchedule.timeline`, the one expansion of
actions into interpreter steps.

Schedules are plain data: build them programmatically, or load them
from dicts/JSON (:meth:`FaultSchedule.from_dict` /
:meth:`FaultSchedule.from_json`) so scenario files can live next to
experiment configurations. Validation happens eagerly at construction
(:class:`repro.core.errors.FaultInjectionError`), never mid-run.

The motivation is the paper's central claim — deterministic safety
under probabilistic, failure-prone dissemination — plus the
recovery-after-transient-fault concern of self-stabilizing total-order
broadcast (Lundström et al., 2022) and tolerance of corrupted (not
just dropped) payloads (Malkhi et al., *On Diffusing Updates in a
Byzantine Environment*).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Tuple, Union
from typing import NamedTuple

from ..core.errors import FaultInjectionError


#: An action's interpreter steps (see :meth:`FaultSchedule.timeline`):
#: start step, follow-up step, and the field holding the follow-up's
#: delay in rounds (no follow-up when that field is ``None``).
_Steps = Tuple[str, Optional[str], Optional[str]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FaultInjectionError(message)


@dataclass(frozen=True, slots=True)
class CrashNodes:
    """Kill processes abruptly at ``at_round``.

    Exactly one of *fraction* (of the then-current live population,
    sampled uniformly by the interpreter) or *nodes* (explicit ids)
    must be given. With *recover_after*, the interpreter brings
    replacements back ``recover_after`` rounds later — the same ids
    restarted in the asyncio runtime, fresh joiners in the simulator
    (whose cluster assigns ids monotonically, matching the paper's
    churn model).
    """

    at_round: float
    fraction: Optional[float] = None
    nodes: Optional[Tuple[int, ...]] = None
    recover_after: Optional[float] = None

    kind: ClassVar[str] = "crash"
    steps: ClassVar[_Steps] = ("crash", "recover", "recover_after")

    def __post_init__(self) -> None:
        _require(self.at_round >= 0, f"at_round must be >= 0, got {self.at_round}")
        _require(
            (self.fraction is None) != (self.nodes is None),
            "crash needs exactly one of fraction= or nodes=",
        )
        if self.fraction is not None:
            _require(
                0.0 < self.fraction <= 1.0,
                f"crash fraction must be in (0, 1], got {self.fraction}",
            )
        if self.nodes is not None:
            object.__setattr__(self, "nodes", tuple(self.nodes))
            _require(len(self.nodes) > 0, "crash nodes= must not be empty")
        if self.recover_after is not None:
            _require(
                self.recover_after > 0,
                f"recover_after must be > 0 rounds, got {self.recover_after}",
            )


@dataclass(frozen=True, slots=True)
class PartitionNetwork:
    """Split the network into two groups at ``at_round``.

    Either *groups* maps node ids to explicit group labels, or
    *fraction* of the live population (interpreter-sampled) is moved to
    a minority group. With *heal_after*, connectivity is restored that
    many rounds later.
    """

    at_round: float
    fraction: Optional[float] = 0.5
    groups: Optional[Dict[int, Any]] = None
    heal_after: Optional[float] = None

    kind: ClassVar[str] = "partition"
    steps: ClassVar[_Steps] = ("partition", "heal", "heal_after")

    def __post_init__(self) -> None:
        _require(self.at_round >= 0, f"at_round must be >= 0, got {self.at_round}")
        if self.groups is not None:
            object.__setattr__(self, "fraction", None)
            _require(len(self.groups) > 0, "partition groups= must not be empty")
        else:
            _require(
                self.fraction is not None and 0.0 < self.fraction < 1.0,
                f"partition fraction must be in (0, 1), got {self.fraction}",
            )
        if self.heal_after is not None:
            _require(
                self.heal_after > 0,
                f"heal_after must be > 0 rounds, got {self.heal_after}",
            )


@dataclass(frozen=True, slots=True)
class HealPartition:
    """Restore full connectivity at ``at_round``."""

    at_round: float

    kind: ClassVar[str] = "heal"
    steps: ClassVar[_Steps] = ("heal", None, None)

    def __post_init__(self) -> None:
        _require(self.at_round >= 0, f"at_round must be >= 0, got {self.at_round}")


@dataclass(frozen=True, slots=True)
class LossBurst:
    """Raise the message loss probability to *rate* for *duration* rounds."""

    at_round: float
    rate: float
    duration: float

    kind: ClassVar[str] = "loss_burst"
    steps: ClassVar[_Steps] = ("window", "window_end", "duration")

    def __post_init__(self) -> None:
        _require(self.at_round >= 0, f"at_round must be >= 0, got {self.at_round}")
        _require(0.0 < self.rate <= 1.0, f"loss rate must be in (0, 1], got {self.rate}")
        _require(self.duration > 0, f"duration must be > 0 rounds, got {self.duration}")


@dataclass(frozen=True, slots=True)
class LatencySpike:
    """Multiply the mean network latency by *factor* for *duration* rounds."""

    at_round: float
    factor: float
    duration: float

    kind: ClassVar[str] = "latency_spike"
    steps: ClassVar[_Steps] = ("window", "window_end", "duration")

    def __post_init__(self) -> None:
        _require(self.at_round >= 0, f"at_round must be >= 0, got {self.at_round}")
        _require(self.factor > 1.0, f"spike factor must be > 1, got {self.factor}")
        _require(self.duration > 0, f"duration must be > 0 rounds, got {self.duration}")


@dataclass(frozen=True, slots=True)
class CorruptDatagrams:
    """Corrupt in-transit messages with probability *rate* for
    *duration* rounds.

    On the UDP fabric this mangles real datagram bytes, exercising the
    receiver's codec defence (``UdpStats.dropped_malformed``). Fabrics
    without a wire format (the simulator, the in-memory asyncio fabric)
    degrade it to an equivalent loss burst — a corrupted message can
    never be parsed, so to the application the two are
    indistinguishable; interpreters record the approximation in their
    log.
    """

    at_round: float
    rate: float
    duration: float

    kind: ClassVar[str] = "corrupt"
    steps: ClassVar[_Steps] = ("window", "window_end", "duration")

    def __post_init__(self) -> None:
        _require(self.at_round >= 0, f"at_round must be >= 0, got {self.at_round}")
        _require(
            0.0 < self.rate <= 1.0, f"corrupt rate must be in (0, 1], got {self.rate}"
        )
        _require(self.duration > 0, f"duration must be > 0 rounds, got {self.duration}")


#: Hostile relay behaviors a :class:`ByzantineNodes` action can turn on
#: (interpreted by :class:`repro.faults.byzantine.ByzantineRouter`):
#:
#: * ``equivocate`` — relay the same ``(source, seq)`` with divergent
#:   payloads to different destinations;
#: * ``garble_relay`` — mutate relayed entries (payload garbage plus a
#:   timestamp shift, diverging the order key);
#: * ``ttl_inflate`` — resurrect entries that already left the TTL
#:   window by re-relaying them with a rewound TTL;
#: * ``replay`` — re-send previously relayed entries verbatim.
BYZANTINE_BEHAVIORS = ("equivocate", "garble_relay", "ttl_inflate", "replay")


@dataclass(frozen=True, slots=True)
class ByzantineNodes:
    """Turn explicit nodes hostile at ``at_round``.

    The nodes keep running the protocol but their *relayed* balls pass
    through the hostile *behavior* (one of
    :data:`BYZANTINE_BEHAVIORS`). With *duration*, the behavior is
    switched off that many rounds later (a transiently compromised
    node); without it, the nodes stay hostile for the rest of the run.
    *rate* is the per-send probability that the transform fires, so a
    stealthy adversary (low rate) and a firehose (1.0) use one action.
    """

    at_round: float
    behavior: str
    nodes: Tuple[int, ...] = ()
    rate: float = 1.0
    duration: Optional[float] = None

    kind: ClassVar[str] = "byzantine"
    steps: ClassVar[_Steps] = ("byzantine", "byzantine_end", "duration")

    def __post_init__(self) -> None:
        _require(self.at_round >= 0, f"at_round must be >= 0, got {self.at_round}")
        _require(
            self.behavior in BYZANTINE_BEHAVIORS,
            f"behavior must be one of {BYZANTINE_BEHAVIORS}, got {self.behavior!r}",
        )
        object.__setattr__(self, "nodes", tuple(self.nodes))
        _require(len(self.nodes) > 0, "byzantine nodes= must not be empty")
        _require(
            0.0 < self.rate <= 1.0,
            f"byzantine rate must be in (0, 1], got {self.rate}",
        )
        if self.duration is not None:
            _require(
                self.duration > 0,
                f"duration must be > 0 rounds, got {self.duration}",
            )


@dataclass(frozen=True, slots=True)
class ScrambleState:
    """Corrupt a node's entire state at ``at_round`` — the
    self-stabilization drill (Lundström et al.).

    The interpreter sprays a ball of fabricated events from the victim
    (*garbage_events* forged under other nodes' identities — clock and
    ordering-state corruption made observable), crashes it, corrupts
    its on-disk journal (bit flips plus a torn tail), and restarts it
    ``recover_after`` rounds later. The restarted node recovers from
    whatever survives of its journal and must re-converge with the
    correct nodes — bit-identically when anti-entropy is on.
    """

    at_round: float
    nodes: Tuple[int, ...] = ()
    recover_after: float = 6.0
    garbage_events: int = 3

    kind: ClassVar[str] = "scramble"
    steps: ClassVar[_Steps] = ("scramble", "unscramble", "recover_after")

    def __post_init__(self) -> None:
        _require(self.at_round >= 0, f"at_round must be >= 0, got {self.at_round}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        _require(len(self.nodes) > 0, "scramble nodes= must not be empty")
        _require(
            self.recover_after > 0,
            f"recover_after must be > 0 rounds, got {self.recover_after}",
        )
        _require(
            self.garbage_events >= 0,
            f"garbage_events must be >= 0, got {self.garbage_events}",
        )


#: Every concrete action type.
FaultAction = Union[
    CrashNodes,
    PartitionNetwork,
    HealPartition,
    LossBurst,
    LatencySpike,
    CorruptDatagrams,
    ByzantineNodes,
    ScrambleState,
]

_ACTION_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        CrashNodes,
        PartitionNetwork,
        HealPartition,
        LossBurst,
        LatencySpike,
        CorruptDatagrams,
        ByzantineNodes,
        ScrambleState,
    )
}

class TimelineStep(NamedTuple):
    """One interpreter step: apply *step* for *action* at *at_round*."""

    at_round: float
    step: str
    action: FaultAction


class FaultSchedule:
    """An ordered list of fault actions over one run.

    Args:
        actions: Fault actions in any order; stored sorted by
            ``at_round`` (ties keep the given order).
    """

    def __init__(self, actions: Iterable[FaultAction]) -> None:
        actions = list(actions)
        for action in actions:
            _require(
                type(action) in _ACTION_TYPES.values(),
                f"not a fault action: {action!r}",
            )
        self.actions: Tuple[FaultAction, ...] = tuple(
            sorted(actions, key=lambda a: a.at_round)
        )

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def timeline(self) -> List[TimelineStep]:
        """Expand every action into its interpreter steps, sorted by round.

        Each action contributes its start step plus, when configured,
        one follow-up: ``recover`` after a crash, ``heal`` after a
        partition, ``window_end`` after a loss burst, latency spike or
        corruption window, ``byzantine_end`` after a hostile window and
        ``unscramble`` after a state scramble. Ties keep schedule order,
        with each start ahead of its own follow-up.
        """
        steps: List[TimelineStep] = []
        for action in self.actions:
            start, follow_up, delay_field = action.steps
            steps.append(TimelineStep(action.at_round, start, action))
            delay = getattr(action, delay_field) if delay_field else None
            if delay is not None:
                steps.append(
                    TimelineStep(action.at_round + delay, follow_up, action)
                )
        steps.sort(key=lambda step: step.at_round)
        return steps

    @property
    def horizon_rounds(self) -> float:
        """Last round at which the schedule still has an effect pending
        (including recoveries, heals and window ends). Size runs past
        this so every action lands and the system can quiesce after."""
        return max([0.0] + [step.at_round for step in self.timeline()])

    # ------------------------------------------------------------------
    # (De)serialization — scenario files
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form, JSON-ready."""
        serialized: List[Dict[str, Any]] = []
        for action in self.actions:
            entry: Dict[str, Any] = {"kind": action.kind}
            for spec in fields(action):
                value = getattr(action, spec.name)
                if value is None:
                    continue
                if spec.name == "nodes":
                    value = list(value)
                entry[spec.name] = value
            serialized.append(entry)
        return {"actions": serialized}

    def to_json(self, **dumps_kwargs: Any) -> str:
        """JSON scenario-file form."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        """Parse a scenario mapping (see :meth:`to_dict` for the shape).

        Raises:
            FaultInjectionError: On unknown kinds, unknown fields, or
                out-of-range values. Every message names the offending
                action's index (and kind, once known), so a typo in a
                hand-edited scenario JSON points straight at the entry.
        """
        _require(isinstance(data, dict), f"scenario must be a mapping, got {type(data)}")
        raw_actions = data.get("actions")
        _require(
            isinstance(raw_actions, list),
            "scenario must have an 'actions' list",
        )
        actions: List[FaultAction] = []
        for index, raw in enumerate(raw_actions):
            _require(
                isinstance(raw, dict),
                f"action #{index} must be a mapping, got {raw!r}",
            )
            kind = raw.get("kind")
            action_type = _ACTION_TYPES.get(kind)
            _require(
                action_type is not None,
                f"action #{index}: unknown fault kind {kind!r} "
                f"(known: {sorted(_ACTION_TYPES)})",
            )
            kwargs = {k: v for k, v in raw.items() if k != "kind"}
            known = {spec.name for spec in fields(action_type)}
            unknown = set(kwargs) - known
            _require(
                not unknown,
                f"action #{index} ({kind!r}): unknown fields {sorted(unknown)}",
            )
            if "nodes" in kwargs and kwargs["nodes"] is not None:
                kwargs["nodes"] = tuple(kwargs["nodes"])
            try:
                actions.append(action_type(**kwargs))
            except TypeError as exc:
                raise FaultInjectionError(
                    f"action #{index} ({kind!r}): {exc}"
                ) from exc
            except FaultInjectionError as exc:
                raise FaultInjectionError(
                    f"action #{index} ({kind!r}): {exc}"
                ) from exc
        return cls(actions)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse a JSON scenario file's contents."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultInjectionError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Canned scenarios
    # ------------------------------------------------------------------

    @classmethod
    def standard_drill(
        cls,
        crash_fraction: float = 0.2,
        crash_at: float = 4.0,
        recover_after: float = 12.0,
        partition_at: float = 8.0,
        heal_after: float = 6.0,
        loss_burst_at: float = 18.0,
        loss_burst_rate: float = 0.3,
        loss_burst_duration: float = 3.0,
    ) -> "FaultSchedule":
        """The reference drill: crash a fifth of the cluster, split the
        network and heal it, recover the crashed processes, and throw
        in a loss burst — the scenario every runtime must survive with
        total order intact on the survivors."""
        return cls(
            [
                CrashNodes(
                    at_round=crash_at,
                    fraction=crash_fraction,
                    recover_after=recover_after,
                ),
                PartitionNetwork(
                    at_round=partition_at, fraction=0.5, heal_after=heal_after
                ),
                LossBurst(
                    at_round=loss_burst_at,
                    rate=loss_burst_rate,
                    duration=loss_burst_duration,
                ),
            ]
        )

    @classmethod
    def long_outage(
        cls,
        nodes: Tuple[int, ...] = (1,),
        crash_at: float = 4.0,
        outage_rounds: float = 40.0,
    ) -> "FaultSchedule":
        """One node down far longer than the TTL window.

        Every event broadcast during the outage finishes its epidemic
        dissemination (TTL + stability wait, ~13 rounds at drill scale)
        while the node is dead, so on recovery nothing in the live
        traffic can ever fill the gap: without anti-entropy
        (docs/SYNC.md) the node has *permanently* diverged from the
        survivors; with ``--sync`` it must converge bit-identically.
        Mirrors ``scenarios/long_outage.json``.
        """
        return cls(
            [
                CrashNodes(
                    at_round=crash_at,
                    nodes=nodes,
                    recover_after=outage_rounds,
                )
            ]
        )

    @classmethod
    def byzantine_drill(
        cls,
        hostile: Tuple[int, ...] = (1, 2),
        start_at: float = 3.0,
        duration: float = 14.0,
    ) -> "FaultSchedule":
        """Two compromised relays cycling through every hostile
        behavior: equivocation and garbled relays (MAC-breaking — with
        auth the correct nodes must deliver zero of them), plus replay
        and TTL inflation (valid MACs — the ordering layer's dedupe
        must absorb them). Mirrors ``scenarios/byzantine_drill.json``.
        """
        return cls(
            [
                ByzantineNodes(
                    at_round=start_at,
                    behavior="equivocate",
                    nodes=hostile,
                    duration=duration,
                ),
                ByzantineNodes(
                    at_round=start_at + 2.0,
                    behavior="garble_relay",
                    nodes=hostile,
                    rate=0.5,
                    duration=duration - 2.0,
                ),
                ByzantineNodes(
                    at_round=start_at + 4.0,
                    behavior="replay",
                    nodes=hostile,
                    rate=0.5,
                    duration=duration - 4.0,
                ),
                ByzantineNodes(
                    at_round=start_at + 6.0,
                    behavior="ttl_inflate",
                    nodes=hostile,
                    rate=0.5,
                    duration=duration - 6.0,
                ),
            ]
        )

    @classmethod
    def self_stab(
        cls,
        nodes: Tuple[int, ...] = (1,),
        scramble_at: float = 6.0,
        recover_after: float = 8.0,
        garbage_events: int = 3,
    ) -> "FaultSchedule":
        """The self-stabilization drill: scramble a node's state to an
        arbitrary corrupted configuration (sprayed forged events,
        crash, journal corruption) and require it to re-converge with
        the correct nodes after restart. Mirrors
        ``scenarios/self_stab.json``."""
        return cls(
            [
                ScrambleState(
                    at_round=scramble_at,
                    nodes=nodes,
                    recover_after=recover_after,
                    garbage_events=garbage_events,
                )
            ]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(a.kind for a in self.actions)
        return f"FaultSchedule([{kinds}], horizon={self.horizon_rounds})"
