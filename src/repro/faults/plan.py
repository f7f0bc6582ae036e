"""Seeded fault schedules.

A :class:`FaultPlan` is a deterministic, replayable schedule of live
faults against one network: which resources fail, when (as a fraction of
the soak's time budget), and when they recover.  Plans are drawn from a
seed by :func:`generate_plan` and round-trip through JSON, so a failing
soak is reproducible from ``(network, seed)`` alone and CI can pin a
standard schedule.

Event kinds
-----------
``link_fail`` / ``link_recover``
    A fiber cut: both directions of the ``{tail, head}`` fiber lose every
    wavelength channel (matching :mod:`repro.wdm.restoration` semantics).
``channel_fail`` / ``channel_recover``
    One directed ``(tail, head, wavelength)`` channel drops.
``converter_fail`` / ``converter_recover``
    The converter bank at ``node`` dies — the node falls back to
    wavelength continuity (:class:`~repro.core.conversion.NoConversion`).
``latency``
    The next backend call of the routing service sleeps ``amount``
    seconds before answering (slow backend).
``exception``
    The next ``amount`` routing calls raise
    :class:`~repro.exceptions.InjectedFaultError` (crashing backend —
    exercises retry, breaker, and degraded serving).
``member_join`` / ``member_leave``
    Multicast group-membership churn: ``node`` joins or leaves the group
    indexed by ``amount`` (reusing the existing numeric field keeps the
    event schema — and therefore every seeded v1 plan — byte-stable).
    These events never touch network state; the injector records them
    and forwards them to an optional ``membership_hook``.  They are
    drawn by :func:`generate_member_churn`, not :func:`generate_plan`,
    so existing seeded plans are unchanged.

Every ``*_fail`` drawn by :func:`generate_plan` gets a matching
``*_recover`` before the end of the plan, so a completed soak ends on the
pristine network and can assert byte-identical re-convergence.

Serialized schedules carry ``"format": 2`` (format 1 documents — written
before membership events existed — omit the field).  The decoder accepts
both, and takes an ``on_unknown`` policy so old readers can either reject
or drop event kinds introduced after they shipped.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "generate_plan",
    "generate_member_churn",
    "FAULT_KINDS",
    "MEMBER_KINDS",
    "SCHEDULE_FORMAT",
]

NodeId = Hashable

#: Serialization format written by :meth:`FaultPlan.to_json`.  Format 1
#: (implicit — no ``format`` field) predates membership events; format 2
#: added the ``member_join``/``member_leave`` kinds without changing the
#: event schema.
SCHEDULE_FORMAT = 2

#: Failure kinds a generated plan can draw from (recoveries are implied).
#: The cycling draw order in :func:`generate_plan` indexes into this
#: tuple, so changing it reshuffles every plan drawn with the default
#: kinds; plans drawn with explicit kinds are unaffected.
FAULT_KINDS = (
    "link",
    "channel",
    "converter",
    "latency",
    "exception",
)

#: Multicast membership event kinds (format 2), drawn only by
#: :func:`generate_member_churn`.
MEMBER_KINDS = ("member_join", "member_leave")

#: Event kinds that target a network resource and therefore pair with a
#: recovery event.
_RESOURCE_KINDS = ("link", "channel", "converter")

#: Every concrete event kind a format-2 document may contain.
_KNOWN_EVENT_KINDS = frozenset(
    [f"{k}_fail" for k in _RESOURCE_KINDS]
    + [f"{k}_recover" for k in _RESOURCE_KINDS]
    + ["latency", "exception"]
    + list(MEMBER_KINDS)
)


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault (or recovery).

    ``at`` is a fraction of the soak budget in ``[0, 1]``; ordering is by
    ``(at, kind, ...)`` so a sorted plan replays deterministically.
    """

    at: float
    kind: str
    tail: NodeId | None = None
    head: NodeId | None = None
    wavelength: int | None = None
    node: NodeId | None = None
    amount: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.at <= 1.0:
            raise ValueError(f"event time must be in [0, 1], got {self.at!r}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"at": self.at, "kind": self.kind}
        for key in ("tail", "head", "wavelength", "node", "amount"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @staticmethod
    def from_dict(document: dict[str, Any]) -> "FaultEvent":
        return FaultEvent(
            at=float(document["at"]),
            kind=str(document["kind"]),
            tail=document.get("tail"),
            head=document.get("head"),
            wavelength=document.get("wavelength"),
            node=document.get("node"),
            amount=document.get("amount"),
        )

    def describe(self) -> str:
        if self.kind.startswith("link"):
            return f"{self.kind} {self.tail!r}<->{self.head!r}"
        if self.kind.startswith("channel"):
            return (
                f"{self.kind} {self.tail!r}->{self.head!r} λ{self.wavelength}"
            )
        if self.kind.startswith("converter"):
            return f"{self.kind} at {self.node!r}"
        if self.amount is not None:
            return f"{self.kind} ({self.amount:g})"
        return self.kind


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, replayable schedule of :class:`FaultEvent`\\ s."""

    events: tuple[FaultEvent, ...] = ()
    seed: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events))
        object.__setattr__(self, "events", ordered)

    @property
    def num_failures(self) -> int:
        """Injected faults, recoveries excluded."""
        return sum(1 for e in self.events if not e.kind.endswith("_recover"))

    def kinds(self) -> dict[str, int]:
        """Event counts by kind."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def due(self, start: float, stop: float) -> list[FaultEvent]:
        """Events scheduled in the half-open virtual-time window
        ``(start, stop]``."""
        return [e for e in self.events if start < e.at <= stop]

    def to_json(self, indent: int | None = None) -> str:
        document = {
            "format": SCHEDULE_FORMAT,
            "seed": self.seed,
            "description": self.description,
            "events": [e.to_dict() for e in self.events],
        }
        return json.dumps(document, indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str, on_unknown: str = "error") -> "FaultPlan":
        """Decode a serialized schedule.

        Format-1 documents (no ``format`` field, written before
        membership events existed) decode unchanged.  *on_unknown*
        controls what happens to event kinds this reader does not know:
        ``"error"`` (default) raises ``ValueError`` naming them;
        ``"drop"`` silently skips them, so an old consumer can replay
        the fault subset of a newer schedule.
        """
        if on_unknown not in ("error", "drop"):
            raise ValueError(
                f"on_unknown must be 'error' or 'drop', got {on_unknown!r}"
            )
        document = json.loads(text)
        fmt = document.get("format", 1)
        if not isinstance(fmt, int) or fmt < 1:
            raise ValueError(f"bad schedule format marker: {fmt!r}")
        events = []
        unknown: list[str] = []
        for raw in document.get("events", ()):
            event = FaultEvent.from_dict(raw)
            if event.kind not in _KNOWN_EVENT_KINDS:
                unknown.append(event.kind)
                continue
            events.append(event)
        if unknown and on_unknown == "error":
            raise ValueError(
                f"schedule (format {fmt}) contains unknown event kinds "
                f"{sorted(set(unknown))!r}; pass on_unknown='drop' to skip them"
            )
        return FaultPlan(
            events=tuple(events),
            seed=document.get("seed"),
            description=document.get("description", ""),
        )

    def __repr__(self) -> str:
        return (
            f"FaultPlan(events={len(self.events)}, "
            f"failures={self.num_failures}, seed={self.seed!r})"
        )


def _fibers(network: "WDMNetwork") -> list[tuple[NodeId, NodeId]]:
    seen: set[frozenset] = set()
    fibers: list[tuple[NodeId, NodeId]] = []
    for link in network.links():
        key = frozenset((link.tail, link.head))
        if key not in seen:
            seen.add(key)
            fibers.append((link.tail, link.head))
    return fibers


def generate_plan(
    network: "WDMNetwork",
    seed: int = 0,
    num_faults: int = 20,
    kinds: Sequence[str] = FAULT_KINDS,
    fail_window: tuple[float, float] = (0.05, 0.70),
    min_outage: float = 0.05,
) -> FaultPlan:
    """Draw a seeded fault schedule against *network*.

    At least one fault of every requested kind is drawn (resource kinds
    permitting — a one-node network has no links to cut), then the
    remaining budget cycles through the kinds.  Resource faults target
    distinct resources so outages never overlap on the same link/channel/
    node, and each gets a recovery between ``at + min_outage`` and
    ``0.95`` — a finished plan always ends on the pristine network.
    """
    unknown = [k for k in kinds if k not in FAULT_KINDS]
    if unknown:
        raise ValueError(f"unknown fault kinds: {unknown}; known: {FAULT_KINDS}")
    if num_faults < 1:
        raise ValueError("num_faults must be >= 1")
    rng = random.Random(seed)
    lo, hi = fail_window

    fibers = _fibers(network)
    rng.shuffle(fibers)
    channels = [
        (link.tail, link.head, w)
        for link in network.links()
        for w in sorted(link.costs)
    ]
    rng.shuffle(channels)
    nodes = list(network.nodes())
    rng.shuffle(nodes)

    events: list[FaultEvent] = []
    drawn = 0
    cursor = 0
    while drawn < num_faults:
        kind = kinds[cursor % len(kinds)]
        cursor += 1
        if cursor > num_faults * (len(kinds) + 1):
            break  # resource kinds exhausted and only they remain
        at = rng.uniform(lo, hi)
        if kind == "link":
            if not fibers:
                continue
            tail, head = fibers.pop()
            events.append(FaultEvent(at, "link_fail", tail=tail, head=head))
            events.append(
                FaultEvent(
                    rng.uniform(min(at + min_outage, 0.95), 0.95),
                    "link_recover",
                    tail=tail,
                    head=head,
                )
            )
        elif kind == "channel":
            if not channels:
                continue
            tail, head, wavelength = channels.pop()
            events.append(
                FaultEvent(
                    at, "channel_fail", tail=tail, head=head, wavelength=wavelength
                )
            )
            events.append(
                FaultEvent(
                    rng.uniform(min(at + min_outage, 0.95), 0.95),
                    "channel_recover",
                    tail=tail,
                    head=head,
                    wavelength=wavelength,
                )
            )
        elif kind == "converter":
            if not nodes:
                continue
            node = nodes.pop()
            events.append(FaultEvent(at, "converter_fail", node=node))
            events.append(
                FaultEvent(
                    rng.uniform(min(at + min_outage, 0.95), 0.95),
                    "converter_recover",
                    node=node,
                )
            )
        elif kind == "latency":
            events.append(
                FaultEvent(at, "latency", amount=rng.uniform(0.005, 0.03))
            )
        else:  # exception
            events.append(
                FaultEvent(at, "exception", amount=float(rng.randint(1, 3)))
            )
        drawn += 1

    return FaultPlan(
        events=tuple(events),
        seed=seed,
        description=(
            f"{drawn} fault(s) over {network!r} "
            f"(kinds={','.join(kinds)}, seed={seed})"
        ),
    )


def generate_member_churn(
    network: "WDMNetwork",
    seed: int = 0,
    num_groups: int = 2,
    num_events: int = 10,
    window: tuple[float, float] = (0.05, 0.95),
) -> FaultPlan:
    """Draw a seeded multicast membership schedule against *network*.

    Each event toggles one node in or out of a group; ``amount`` carries
    the group index (see the module docstring for why the field is
    reused).  Joins and leaves are drawn against a tracked membership
    model so a leave always targets a current member and a join a
    non-member — every event is meaningful when replayed in order.
    Merge with a :func:`generate_plan` schedule by concatenating event
    tuples; :class:`FaultPlan` re-sorts by time.
    """
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")
    if num_events < 0:
        raise ValueError("num_events must be >= 0")
    rng = random.Random(seed)
    lo, hi = window
    nodes = sorted(network.nodes(), key=repr)
    members: list[set[NodeId]] = [set() for _ in range(num_groups)]

    events: list[FaultEvent] = []
    for _ in range(num_events):
        gid = rng.randrange(num_groups)
        current = members[gid]
        outside = [n for n in nodes if n not in current]
        leave = current and (not outside or rng.random() < 0.5)
        if leave:
            node = rng.choice(sorted(current, key=repr))
            current.remove(node)
            kind = "member_leave"
        elif outside:
            node = rng.choice(outside)
            current.add(node)
            kind = "member_join"
        else:
            continue  # empty network
        events.append(
            FaultEvent(
                rng.uniform(lo, hi), kind, node=node, amount=float(gid)
            )
        )

    return FaultPlan(
        events=tuple(events),
        seed=seed,
        description=(
            f"{len(events)} membership event(s) across {num_groups} "
            f"group(s) over {network!r} (seed={seed})"
        ),
    )
