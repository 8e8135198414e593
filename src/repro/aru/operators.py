"""Compression operators for the backwardSTP vector (paper §3.3.2).

A node receiving summary-STP values from several downstream connections
must *compress* them into a single value before combining with its own
current-STP:

* ``min`` — the **default, conservative** operator: sustain the *fastest*
  consumer. Safe with any data-dependency structure; never hurts the
  current node's throughput (fig. 3: min{337,139,273,544,420} = 139).
* ``max`` — the **aggressive** operator: slow production to the *slowest*
  consumer. Correct only when downstream consumers are fully
  data-dependent (fig. 4: a single eventual consumer G dictates pipeline
  throughput), in exchange for maximal waste elimination.
* ``kth`` / ``mean`` / ``median`` — user-defined middle grounds the paper's
  §6 suggests exploring ("find the right balance between wasted resource
  usage and application performance").

Operators are callables ``op(values: Sequence[float]) -> float`` over a
non-empty sequence; :func:`resolve` maps config strings to callables.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

from repro.errors import ConfigError

Operator = Callable[[Sequence[float]], float]


def _check_nonempty(values: Sequence[float]) -> None:
    if not values:
        raise ValueError("compression operator applied to an empty vector")


def min_op(values: Sequence[float]) -> float:
    """Conservative default: match the fastest consumer (paper fig. 3)."""
    _check_nonempty(values)
    return min(values)


def max_op(values: Sequence[float]) -> float:
    """Aggressive: match the slowest consumer (paper fig. 4)."""
    _check_nonempty(values)
    return max(values)


def mean_op(values: Sequence[float]) -> float:
    """Average of consumer summaries — an intermediate aggressiveness."""
    _check_nonempty(values)
    return sum(values) / len(values)


def median_op(values: Sequence[float]) -> float:
    """Median of consumer summaries — robust intermediate choice."""
    _check_nonempty(values)
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class KthOperator:
    """The ``k``-th smallest summary (0-based), as a picklable callable.

    A plain closure here would break experiment specs: sweep workers
    receive their cell specs by pickling, and closures don't pickle.
    """

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ConfigError(f"kth operator needs k >= 0, got {k}")
        self.k = int(k)

    def __call__(self, values: Sequence[float]) -> float:
        _check_nonempty(values)
        ordered = sorted(values)
        return ordered[min(self.k, len(ordered) - 1)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KthOperator) and other.k == self.k

    def __hash__(self) -> int:
        return hash((KthOperator, self.k))

    def __repr__(self) -> str:
        return f"KthOperator({self.k})"

    @property
    def __name__(self) -> str:
        return f"kth_{self.k}"


def kth_op(k: int) -> Operator:
    """Factory: the ``k``-th smallest summary (0-based).

    ``kth_op(0)`` is :func:`min_op`; ``kth_op(len-1)`` is :func:`max_op`;
    values of ``k`` beyond the vector length clamp to the maximum.
    """
    return KthOperator(k)


def pooled_min_op(values: Sequence[float]) -> float:
    """User-defined operator for work-*sharing* consumers.

    Channel semantics deliver every item to every consumer, so min/max
    reason about the slowest/fastest *reader*. A FIFO queue feeding a
    worker pool is different: ``k`` workers each with period ``p`` drain
    the queue at aggregate period ``p/k``. The paper's framework supports
    exactly this kind of user-supplied dependency-encoded operator; this
    one divides the fastest worker's period by the pool size.
    """
    _check_nonempty(values)
    return min(values) / len(values)


_NAMED: dict = {
    "min": min_op,
    "max": max_op,
    "mean": mean_op,
    "median": median_op,
    "pooled": pooled_min_op,
}

#: Aliases exported for config convenience.
MIN_OPERATOR = min_op
MAX_OPERATOR = max_op


def resolve(op: Union[str, Operator, None]) -> Operator:
    """Turn a config value (name string, callable, or None) into an operator.

    ``None`` resolves to the paper's default, :func:`min_op`.
    """
    if op is None:
        return min_op
    if callable(op):
        return op
    if isinstance(op, str):
        key = op.lower()
        if key in _NAMED:
            return _NAMED[key]
        if key.startswith("kth:"):
            try:
                return kth_op(int(key[4:]))
            except ValueError:
                raise ConfigError(
                    f"operator {op!r}: k must be an integer") from None
        raise ConfigError(
            f"unknown operator {op!r}; expected one of {sorted(_NAMED)} or 'kth:<k>'"
        )
    raise ConfigError(f"operator must be a name or callable, got {type(op).__name__}")


def operator_name(op: Operator) -> str:
    """Human-readable name for reports."""
    return getattr(op, "__name__", repr(op)).replace("_op", "")
