"""Declarative fault schedules: what breaks, when, and how.

A :class:`FaultSpec` is one timed fault; a :class:`FaultSchedule` is a
validated, time-sorted sequence of them. Both are frozen, picklable pure
data — they travel through :class:`~repro.bench.runner.CellSpec` into
sweep workers and hash cleanly into the content-addressed result cache.

Schedules load from plain dicts (and therefore YAML/JSON chaos files),
read by :func:`repro.schema.build` like every other spec object; each
fault names its target with a ``thread:``, ``node:``, or ``link:`` key
matching its kind family, e.g.

.. code-block:: yaml

    faults:
      - {kind: thread_crash,   at: 12.0, thread: target_detect2}
      - {kind: thread_restart, at: 20.0, thread: target_detect2}
      - {kind: link_degrade,   at: 28.0, link: node0->node3, factor: 20}
      - {kind: message_drop,   at: 40.0, link: node2->node3,
         probability: 0.5, duration: 4.0}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import FaultError
from repro.schema import as_object, build, check_keys

#: Catalog of fault kinds: {kind: (target family, {parameter: required},
#: description)}. A parameter a kind does not list must keep its default.
FAULT_KINDS: Dict[str, Tuple[str, Dict[str, bool], str]] = {
    "thread_crash": (
        "thread", {},
        "kill a task thread (ProcessKilled at its current yield point)"),
    "thread_stall": (
        "thread", {"duration": True},
        "freeze a thread without killing it — the livelock case"),
    "thread_restart": (
        "thread", {},
        "respawn a thread cold: fresh generator, new connections, "
        "reset ARU state"),
    "node_crash": (
        "node", {},
        "crash a node: every resident thread dies (storage survives)"),
    "node_restart": (
        "node", {},
        "bring a node back up, respawning its dead threads"),
    "link_degrade": (
        "link", {"factor": True, "duration": False},
        "inflate a link's transfer times by factor"),
    "link_partition": (
        "link", {"mode": False, "duration": False},
        "cut a link: transfers raise LinkDown (fail) or park (block)"),
    "link_restore": (
        "link", {},
        "clear every fault on a link (degrade, partition, drop)"),
    "message_drop": (
        "link", {"probability": True, "duration": False, "seed": False},
        "lose each transfer on a link with probability (seeded RNG)"),
}

#: Every optional parameter: (default, valid-value test, what is valid).
#: ``duration`` bounds a window: the fault clears itself after it.
_PARAMS: Dict[str, Tuple[Any, Callable[[Any], bool], str]] = {
    "duration": (None, lambda v: v > 0, "> 0 (s)"),
    "factor": (None, lambda v: v > 1.0, "> 1"),
    "probability": (None, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "mode": ("fail", lambda v: v in ("fail", "block"), "fail/block"),
    "seed": (0, lambda v: True, "(int)"),
}

#: Kinds whose injection *is* a recovery action, and which earlier fault
#: kinds (same target) they resolve.
RECOVERY_KINDS: Dict[str, Tuple[str, ...]] = {
    "thread_restart": ("thread_crash", "thread_stall"),
    "node_restart": ("node_crash",),
    "link_restore": ("link_degrade", "link_partition", "message_drop"),
}


@dataclass(frozen=True)
class FaultSpec:
    """One timed fault. Pure data; validated on construction."""

    kind: str
    at: float
    #: Thread name, node name, or ``"src->dst"`` link, per the kind family.
    target: str
    #: Fault window in seconds (window kinds only; None = until restored).
    duration: Optional[float] = None
    #: Transfer-time inflation (link_degrade only).
    factor: Optional[float] = None
    #: Per-transfer loss probability (message_drop only).
    probability: Optional[float] = None
    #: Partition behaviour: ``"fail"`` or ``"block"`` (link_partition only).
    mode: str = "fail"
    #: Extra RNG-stream salt (message_drop only).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise FaultError(f"{self.kind}: injection time must be >= 0, "
                             f"got {self.at}")
        if not self.target or not isinstance(self.target, str):
            raise FaultError(f"{self.kind}: target must be a non-empty string")
        family, params, _ = FAULT_KINDS[self.kind]
        if family == "link":
            if "->" not in self.target:
                raise FaultError(
                    f"{self.kind}: link target must be 'src->dst', "
                    f"got {self.target!r}"
                )
        elif "->" in self.target:
            raise FaultError(
                f"{self.kind}: target {self.target!r} looks like a link; "
                f"this kind targets a {family}"
            )
        for name, (default, valid, rule) in _PARAMS.items():
            value = getattr(self, name)
            if name not in params:
                if value != default:
                    raise FaultError(f"{self.kind} takes no {name}")
            elif (value == default and params[name]) or (
                    value != default and not valid(value)):
                raise FaultError(f"{self.kind} requires a {name} {rule}, "
                                 f"got {value!r}")

    # ------------------------------------------------------------------
    @property
    def link_endpoints(self) -> Tuple[str, str]:
        """``(src, dst)`` of a link target (link kinds only)."""
        src, _, dst = self.target.partition("->")
        return src.strip(), dst.strip()

    def with_(self, **changes) -> "FaultSpec":
        return replace(self, **changes)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultSpec":
        """Build from a chaos-file entry: the fields, with the target
        under its family's key (``thread``/``node``/``link``) or as
        ``target``."""
        if isinstance(d, FaultSpec):
            return d
        d = dict(as_object(d, "fault spec", FaultError))
        kind = d.get("kind")
        target_keys = [k for k in ("thread", "node", "link", "target") if k in d]
        if len(target_keys) != 1:
            raise FaultError(
                f"fault {kind!r} needs exactly one of thread/node/link, "
                f"got {target_keys or 'none'}"
            )
        key = target_keys[0]
        family = FAULT_KINDS.get(kind, (None,))[0]
        if key != "target" and family is not None and key != family:
            raise FaultError(
                f"fault {kind!r} targets a {family}, but the spec used "
                f"{key!r}"
            )
        d["target"] = str(d.pop(key))
        return build(cls, d, f"fault {kind!r}" if kind else "fault spec",
                     error=FaultError)

    def to_dict(self) -> Dict[str, Any]:
        family, params, _ = FAULT_KINDS[self.kind]
        out: Dict[str, Any] = {"kind": self.kind, "at": self.at,
                               family: self.target}
        for name in params:
            if getattr(self, name) != _PARAMS[name][0]:
                out[name] = getattr(self, name)
        return out


class FaultSchedule:
    """A validated sequence of faults, stably sorted by injection time."""

    def __init__(self, faults: Sequence[FaultSpec] = ()) -> None:
        faults = tuple(faults)
        for f in faults:
            if not isinstance(f, FaultSpec):
                raise FaultError(f"schedule entries must be FaultSpec, got {f!r}")
        #: Sorted by ``at``; schedule order breaks ties (stable sort).
        self.faults: Tuple[FaultSpec, ...] = tuple(
            sorted(faults, key=lambda f: f.at)
        )

    @classmethod
    def from_dicts(cls, entries: Sequence[Dict[str, Any]]) -> "FaultSchedule":
        return cls(tuple(FaultSpec.from_dict(e) for e in entries))

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [f.to_dict() for f in self.faults]

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultSchedule {len(self.faults)} faults>"


# -- chaos files ------------------------------------------------------------

_DETECTOR_KEYS = {"interval", "stall_timeout", "degrade_ratio"}


def chaos_from_dict(data: Dict[str, Any]):
    """Split a chaos-file dict into its three parts.

    Returns ``(experiment_spec, schedule, detector_kwargs)`` where
    ``experiment_spec`` feeds :meth:`repro.experiment.ExperimentSpec.from_dict`
    (which validates it), ``schedule`` is the :class:`FaultSchedule`, and
    ``detector_kwargs`` configure the :class:`~repro.faults.injector.FaultInjector`.
    """
    if not isinstance(data, dict):
        raise FaultError("chaos spec must be a dict")
    data = dict(data)
    schedule = FaultSchedule.from_dicts(data.pop("faults", []))
    detector = dict(data.pop("detector", {}) or {})
    check_keys(detector, _DETECTOR_KEYS, "detector", FaultError)
    experiment = data.pop("experiment", None)
    if experiment is None:
        # flat layout: remaining top-level keys are the experiment
        experiment = data
    elif data:
        raise FaultError(
            f"unexpected top-level key(s) next to 'experiment': {sorted(data)}"
        )
    elif isinstance(experiment, dict) and "faults" in experiment:
        raise FaultError("'faults' goes at the top level of a chaos file, "
                         "not inside 'experiment'")
    return experiment, schedule, detector


def load_chaos_file(path) -> Tuple[Dict[str, Any], FaultSchedule, Dict[str, Any]]:
    """Load a YAML or JSON chaos file (YAML needs the optional pyyaml)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - pyyaml present in dev env
            raise FaultError(
                f"{path}: reading YAML requires pyyaml; use a .json schedule"
            ) from None
        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
    return chaos_from_dict(data)


def list_faults_text() -> str:
    """The ``repro chaos --list-faults`` catalog."""
    lines = ["fault kinds (targets: thread name, node name, or src->dst link):",
             ""]
    width = max(len(k) for k in FAULT_KINDS)
    for kind, (family, params, desc) in FAULT_KINDS.items():
        lines.append(f"  {kind:<{width}}  [{family}] {desc}")
        if params:
            text = "; ".join(
                f"{name} {_PARAMS[name][2]}"
                f"{', required' if required else ''}"
                for name, required in params.items())
            lines.append(f"  {'':<{width}}  params: {text}")
    lines += [
        "",
        "every fault: kind, at (s), and its target key; windowed kinds",
        "accept duration (s) after which the fault clears itself.",
    ]
    return "\n".join(lines)
