"""Scale policies: deciding a replicated stage's worker count online.

The rate-policy layer (:mod:`repro.control.policy`) modulates the
*period* of a fixed thread set; this module adds the orthogonal control
dimension — the *parallelism* N of a replicated stage (see
:mod:`repro.runtime.replicated`). The split mirrors the rest of the
control plane:

* a **sensor** (:class:`StageSensor`) turns the stage's observable
  state — arrival rate into the partition queue, measured worker
  service STP, queue depth — into immutable :class:`StageSignals`;
* a **policy** (:class:`ErlangScalePolicy`) maps signals to a desired
  replica count, with no access to the runtime;
* the **controller** (:class:`StageScaleController`) runs as one DES
  process per stage, applies hysteresis/cooldown, and actuates through
  :meth:`~repro.runtime.runtime.Runtime.scale_out` /
  :meth:`~repro.runtime.runtime.Runtime.scale_in`, which charge each
  spawn against the node's CPU budget.

:class:`ErlangScalePolicy` is the DRS-style predictor
(*Dynamic Resource Scheduling for Real-Time Analytics over Fast
Streams*): model the stage as an M/M/N queue, compute the offered load
``a = λ·s`` erlangs from the observed arrival rate λ and mean service
time s, and size N so utilisation stays under a target — optionally
refined with the Erlang-C waiting-time formula when a queueing-delay
budget is configured. See ``docs/control-plane.md`` for the derivation.

Determinism: scaling is off with ``scale=None`` (the registered
``no-scale`` resolves to it), and such a runtime registers **no**
controller process — zero added engine events — so its runs are
bit-identical to pre-elastic ones (the same zero-cost-when-off pattern
as the fault injector's empty schedule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime


@dataclass(frozen=True)
class StageSignals:
    """One sensor snapshot of a replicated stage's observable state.

    Attributes
    ----------
    now:
        Clock reading at snapshot time.
    arrival_rate:
        Items/second admitted into the partition queue since the last
        snapshot (λ of the queueing model).
    service_time:
        Mean of the active workers' current-STP readings — the measured
        per-item service time s, ``None`` until a worker completes its
        first iteration.
    queue_depth:
        Items waiting (unstarted) in the partition queue.
    replicas:
        Workers currently alive.
    min_replicas / max_replicas:
        The stage's declared scaling bounds.
    """

    now: float
    arrival_rate: float
    service_time: Optional[float]
    queue_depth: int
    replicas: int
    min_replicas: int
    max_replicas: int


@dataclass(frozen=True)
class ScaleConfig:
    """Declarative description of one run's elastic-scaling stack.

    Picklable pure data, like :class:`~repro.aru.config.AruConfig`:
    sweep cells and spec files carry it by value (or by registered
    name via :func:`repro.control.registry.resolve_scale_policy`).
    Every config runs the :class:`ErlangScalePolicy`; scaling off is no
    config at all (``None``).

    Attributes
    ----------
    interval:
        Controller poll period in seconds.
    target_utilization:
        Keep per-worker utilisation ``ρ = λ·s/N`` at or under this.
    wait_budget:
        Optional mean queueing-wait budget in seconds; when set, N is
        raised until the Erlang-C predicted wait fits the budget.
    drain_window:
        Backlog already queued is treated as extra arrival rate spread
        over this many seconds, so a standing queue forces scale-out
        even when the instantaneous λ alone would not.
    cooldown:
        Minimum seconds between scale actions on one stage.
    hysteresis:
        Scale in only when the desired count undershoots the current
        one by at least this many replicas.
    patience:
        Consecutive undershooting polls required before scaling in
        (scale-out reacts on the first poll; scale-in is deliberate).
    name:
        Label for reports and registries.
    """

    interval: float = 0.5
    target_utilization: float = 0.7
    wait_budget: Optional[float] = None
    drain_window: float = 2.0
    cooldown: float = 2.0
    hysteresis: int = 2
    patience: int = 2
    name: str = "erlang"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigError(f"interval must be positive, got {self.interval}")
        if not (0 < self.target_utilization < 1):
            raise ConfigError(
                f"target_utilization must be in (0, 1), got "
                f"{self.target_utilization}"
            )
        if self.wait_budget is not None and self.wait_budget <= 0:
            raise ConfigError(
                f"wait_budget must be positive, got {self.wait_budget}"
            )
        if self.drain_window <= 0:
            raise ConfigError(
                f"drain_window must be positive, got {self.drain_window}"
            )
        if self.cooldown < 0:
            raise ConfigError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.hysteresis < 1:
            raise ConfigError(f"hysteresis must be >= 1, got {self.hysteresis}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


# -- presets (the registry's factories) -----------------------------------
def scale_erlang() -> ScaleConfig:
    """The default DRS-style Erlang utilisation predictor."""
    return ScaleConfig(name="erlang")


def scale_erlang_latency() -> ScaleConfig:
    """Erlang predictor with an explicit queueing-wait budget."""
    return ScaleConfig(wait_budget=0.05, name="erlang-latency")


# -- queueing model --------------------------------------------------------
def erlang_c(n: int, a: float) -> float:
    """Erlang's C formula: P(wait > 0) for an M/M/n queue at ``a`` erlangs.

    Computed with the numerically stable iterative form of the Erlang-B
    recurrence (``B(0)=1; B(k) = aB/(k+aB)``) and the standard
    conversion ``C = B / (1 - ρ(1-B))``. Returns 1.0 for an overloaded
    pool (``a >= n``): every arrival waits.
    """
    if n < 1:
        raise ConfigError(f"erlang_c needs n >= 1, got {n}")
    if a < 0:
        raise ConfigError(f"offered load must be >= 0, got {a}")
    if a == 0:
        return 0.0
    if a >= n:
        return 1.0
    b = 1.0
    for k in range(1, n + 1):
        b = a * b / (k + a * b)
    rho = a / n
    return b / (1.0 - rho * (1.0 - b))


def erlang_wait(n: int, a: float, service_time: float) -> float:
    """Mean queueing wait Wq of an M/M/n queue (seconds; inf if a >= n)."""
    if a >= n:
        return float("inf")
    return erlang_c(n, a) * service_time / (n - a)


def required_replicas(
    arrival_rate: float,
    service_time: float,
    target_utilization: float,
    wait_budget: Optional[float] = None,
    max_replicas: int = 64,
) -> int:
    """The smallest N that meets the utilisation (and wait) targets.

    ``N >= ceil(a / target_utilization)`` keeps per-worker utilisation
    under the target; with a ``wait_budget`` the count is raised until
    the Erlang-C mean wait fits it (capped at ``max_replicas``).
    """
    a = max(0.0, arrival_rate) * max(0.0, service_time)
    if a == 0:
        return 1
    n = max(1, math.ceil(a / target_utilization - 1e-9))
    if wait_budget is not None:
        while n < max_replicas and erlang_wait(n, a, service_time) > wait_budget:
            n += 1
    return n


# -- policy -----------------------------------------------------------------
class ErlangScalePolicy:
    """DRS-style M/M/N sizing from observed arrival and service rates.

    Sizing: offered load ``a = λ_eff · s`` erlangs, where the effective
    arrival rate folds the standing backlog in over ``drain_window``
    seconds (``λ_eff = λ + depth/drain_window``) so a queue built up
    during a burst forces capacity to drain it. Desired
    ``N = ceil(a / target_utilization)``, optionally raised until the
    Erlang-C mean wait fits ``wait_budget``.

    ``decide`` is a pure function of the signals — ``None`` for "no
    opinion" (no service-time measurement yet); the controller owns
    hysteresis, cooldown and bound clamping.
    """

    def __init__(self, config: ScaleConfig) -> None:
        self.config = config

    def decide(self, signals: StageSignals) -> Optional[int]:
        s = signals.service_time
        if s is None or s <= 0:
            return None
        cfg = self.config
        lam = signals.arrival_rate + signals.queue_depth / cfg.drain_window
        n = required_replicas(
            lam,
            s,
            cfg.target_utilization,
            wait_budget=cfg.wait_budget,
            max_replicas=signals.max_replicas,
        )
        return max(signals.min_replicas, min(signals.max_replicas, n))


# -- sensor -----------------------------------------------------------------
class StageSensor:
    """Measurement layer for one replicated stage.

    Reads the partition queue's put counter (arrival rate over the poll
    window), the alive workers' current-STP means (service time), and
    the queue depth. Reads never mutate runtime state beyond the
    sensor's own previous-counter memory.
    """

    def __init__(self, runtime: "Runtime", stage: str) -> None:
        self.runtime = runtime
        self.stage = stage
        spec = runtime.graph.stage_spec(stage)
        self.partition = runtime.buffers[spec["input"]]
        self._min = spec["min_replicas"]
        self._max = spec["max_replicas"]
        self._prev_puts = self.partition.total_puts
        self._prev_t = runtime.engine.now

    def read(self) -> StageSignals:
        runtime = self.runtime
        now = runtime.engine.now
        puts = self.partition.total_puts
        dt = now - self._prev_t
        rate = (puts - self._prev_puts) / dt if dt > 0 else 0.0
        self._prev_puts = puts
        self._prev_t = now
        stps: List[float] = []
        alive = 0
        for name in runtime.graph.replicas_of(self.stage):
            if not runtime.thread_alive(name):
                continue
            alive += 1
            stp = runtime.drivers[name].meter.current_stp
            if stp is not None and stp > 0:
                stps.append(stp)
        return StageSignals(
            now=now,
            arrival_rate=rate,
            service_time=sum(stps) / len(stps) if stps else None,
            queue_depth=len(self.partition),
            replicas=alive,
            min_replicas=self._min,
            max_replicas=self._max,
        )


# -- controller -------------------------------------------------------------
class StageScaleController:
    """One DES process sizing one replicated stage.

    Each poll: reap dead replicas (crashed workers whose slots would
    otherwise gate the merge frontier forever — the "ghost consumer"
    hazard), read the sensor, ask the policy for a desired N, apply
    hysteresis/cooldown, and actuate the delta. Scale-out may be
    partially denied by node CPU-budget admission; the shortfall is
    simply retried at later polls while the signals persist.
    """

    def __init__(self, runtime: "Runtime", stage: str, config: ScaleConfig) -> None:
        self.runtime = runtime
        self.stage = stage
        self.config = config
        self.policy = ErlangScalePolicy(config)
        self.sensor = StageSensor(runtime, stage)
        self._last_action_t = -math.inf
        self._undershoot_polls = 0
        #: ``(t, replicas, desired, applied)`` rows for diagnostics.
        self.decisions: List[Tuple[float, int, int, int]] = []
        #: Scale-out replicas wanted but not delivered — node admission
        #: or (under arbitration) tenant-budget denials. The signal that
        #: the stage is throttled by its grant, not by its policy.
        self.denied_total = 0

    def run(self) -> Generator:
        """The controller's DES process body."""
        engine = self.runtime.engine
        while True:
            yield engine.timeout(self.config.interval)
            self.step()

    def step(self) -> int:
        """One control decision; returns the replica delta applied."""
        runtime = self.runtime
        runtime.reap_dead_replicas(self.stage)
        signals = self.sensor.read()
        desired = self.policy.decide(signals)
        if desired is None:
            return 0
        desired = max(signals.min_replicas,
                      min(signals.max_replicas, desired))
        current = signals.replicas
        cfg = self.config
        applied = 0
        attempted_out = 0
        if desired > current:
            self._undershoot_polls = 0
            if signals.now - self._last_action_t >= cfg.cooldown:
                attempted_out = desired - current
                applied = self._apply(
                    attempted_out,
                    reason=f"erlang: lambda={signals.arrival_rate:.1f}/s "
                           f"desired={desired}",
                )
        elif current - desired >= cfg.hysteresis:
            self._undershoot_polls += 1
            if (self._undershoot_polls >= cfg.patience
                    and signals.now - self._last_action_t >= cfg.cooldown):
                applied = self._apply(
                    desired - current,
                    reason=f"erlang: lambda={signals.arrival_rate:.1f}/s "
                           f"desired={desired}",
                )
        else:
            self._undershoot_polls = 0
        if applied:
            self._last_action_t = signals.now
            self._undershoot_polls = 0
        if attempted_out and applied < attempted_out:
            self.denied_total += attempted_out - applied
        self.decisions.append((signals.now, current, desired, applied))
        return applied

    def _apply(self, delta: int, reason: str) -> int:
        """Add (``delta > 0``) or retire (``delta < 0``) replicas one at
        a time, stopping early when the runtime refuses (max/min bound
        hit, or node CPU admission denied); returns the signed count
        actually applied, so a partial grant shows as a smaller value."""
        runtime, stage = self.runtime, self.stage
        step = runtime.scale_out if delta > 0 else runtime.scale_in
        applied = 0
        for _ in range(abs(delta)):
            if step(stage, reason=reason) is None:
                break
            applied += 1
        return applied if delta > 0 else -applied
