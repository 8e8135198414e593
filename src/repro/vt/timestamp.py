"""Virtual-time timestamps.

Stampede associates every data item with an integer *timestamp*: an index
into the application's virtual time (e.g. the frame number emitted by a
digitizer). Timestamps order items within a channel, let consumers request
"the latest item newer than what I last saw", and let garbage collectors
reason about which items can never be requested again.

This module provides:

* :class:`Timestamp` — a total-ordered integer wrapper with provenance
  metadata kept deliberately tiny (slots, interning of small values).
* :data:`LATEST` / :data:`EARLIEST` — request sentinels for get operations.
* :class:`TsRange` — half-open timestamp intervals used by GC guarantees.
* :func:`corresponds` — the paper's "corresponding timestamps" predicate
  (equal, or within a threshold) used by multi-input stages such as stereo
  modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, Union


@total_ordering
class Timestamp:
    """An integer point in application virtual time.

    Timestamps are immutable, hashable, and interoperate with plain ``int``
    in comparisons and arithmetic, so application code may use either.
    """

    __slots__ = ("value",)

    def __init__(self, value: Union[int, "Timestamp"]) -> None:
        if isinstance(value, Timestamp):
            value = value.value
        if not isinstance(value, int):
            raise TypeError(f"timestamp value must be int, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"timestamps are non-negative, got {value}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("Timestamp is immutable")

    # -- ordering / equality (interops with int) -------------------------
    @staticmethod
    def _coerce(other) -> int:
        if isinstance(other, Timestamp):
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        val = self._coerce(other)
        if val is NotImplemented:
            return NotImplemented
        return self.value == val

    def __lt__(self, other) -> bool:
        val = self._coerce(other)
        if val is NotImplemented:
            return NotImplemented
        return self.value < val

    def __hash__(self) -> int:
        return hash(self.value)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, delta: int) -> "Timestamp":
        return Timestamp(self.value + int(delta))

    def __sub__(self, other: Union[int, "Timestamp"]) -> int:
        return self.value - self._coerce(other)

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def next(self) -> "Timestamp":
        """The immediately following virtual-time point."""
        return Timestamp(self.value + 1)

    def __repr__(self) -> str:
        return f"ts({self.value})"


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Get-request sentinel: "the newest item strictly newer than my last get".
LATEST = _Sentinel("LATEST")
#: Get-request sentinel: "the oldest item still present".
EARLIEST = _Sentinel("EARLIEST")


@dataclass(frozen=True)
class TsRange:
    """A half-open interval ``[lo, hi)`` of virtual time.

    Used by GC algorithms to express guarantees of the form "this consumer
    will never request a timestamp in [0, t)".
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty-inverted range [{self.lo}, {self.hi})")

    def __contains__(self, ts: Union[int, Timestamp]) -> bool:
        val = int(ts)
        return self.lo <= val < self.hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self) -> Iterator[Timestamp]:
        return (Timestamp(v) for v in range(self.lo, self.hi))

    @property
    def empty(self) -> bool:
        return self.lo >= self.hi


def corresponds(a: Union[int, Timestamp], b: Union[int, Timestamp],
                threshold: int = 0) -> bool:
    """The paper's "corresponding timestamps" predicate.

    Two timestamps correspond when equal, or when within ``threshold``
    virtual-time units of each other (footnote 1 of the paper: "timestamps
    with the same value or with values close enough within a pre-defined
    threshold").
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    return abs(int(a) - int(b)) <= threshold
