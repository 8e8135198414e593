#!/usr/bin/env python
"""Failure injection: crash the pipeline's middle, watch ARU recover.

Runs the tracker under ``aru-min`` with summary-slot staleness eviction
through three phases, driven by a declarative
:class:`~repro.faults.FaultSchedule`:

* **healthy** — every consumer advertises its period, so the digitizer
  throttles down to the slowest stage's pace;
* **crashed** — all four middle stages die at once. Without staleness
  eviction the digitizer would stay throttled to a ghost's advertised
  period forever; with a TTL the stale summary slots evict and the
  digitizer un-throttles back toward its intrinsic frame rate;
* **restarted** — the stages come back cold, re-propagate their
  summaries, and the digitizer re-throttles to its pre-fault period.

Run:  python examples/failure_injection.py
"""

from repro.apps import build_tracker
from repro.aru import aru_min
from repro.cluster import config1_spec
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    mean_period,
    resilience_report,
)
from repro.metrics import gantt
from repro.runtime import Runtime, RuntimeConfig

MID_STAGES = ("change_detection", "histogram", "target_detect1",
              "target_detect2")
T_CRASH = 20.0
T_RESTART = 35.0
HORIZON = 55.0
TTL = 2.0


def main() -> dict:
    runtime = Runtime(
        build_tracker(),
        RuntimeConfig(
            cluster=config1_spec(),
            aru=aru_min().with_(staleness_ttl=TTL),
            seed=0,
        ),
    )
    schedule = FaultSchedule(
        [FaultSpec(kind="thread_crash", at=T_CRASH, target=name)
         for name in MID_STAGES]
        + [FaultSpec(kind="thread_restart", at=T_RESTART, target=name)
           for name in MID_STAGES]
    )
    injector = FaultInjector(runtime, schedule).install()
    trace = runtime.run(until=HORIZON)

    # Digitizer period in each phase. Ghost-slot eviction is two-stage
    # (channel slot, then the thread's own slot), so the un-throttled
    # window starts ~2*TTL after the crash.
    pre = mean_period(trace, "digitizer", T_CRASH - 8.0, T_CRASH)
    ghost = mean_period(trace, "digitizer", T_CRASH + 2 * TTL + 3.0, T_RESTART)
    final = mean_period(trace, "digitizer", HORIZON - 8.0, HORIZON)

    print(gantt(trace, width=72, fault_log=injector.log))
    print()
    print(resilience_report(injector.log, trace, sources=("digitizer",)))
    print()
    print(f"digitizer mean period (staleness TTL {TTL:.0f}s):")
    print(f"  healthy   [{T_CRASH - 8:.0f}s..{T_CRASH:.0f}s] : "
          f"{pre * 1e3:6.1f} ms  (throttled to the slowest consumer)")
    print(f"  crashed   [{T_CRASH + 2 * TTL + 3:.0f}s..{T_RESTART:.0f}s] : "
          f"{ghost * 1e3:6.1f} ms  (stale slots evicted -> un-throttled)")
    print(f"  restarted [{HORIZON - 8:.0f}s..{HORIZON:.0f}s] : "
          f"{final * 1e3:6.1f} ms  (summaries re-propagated -> re-throttled)")
    print()
    print("The crash leaves the digitizer with no live consumers. Its")
    print("summary slots go stale, the TTL evicts them, and min-compression")
    print("stops throttling to a ghost — the period falls back toward the")
    print("intrinsic frame rate. The restarts re-advertise periods and the")
    print("feedback loop pulls the digitizer back to its pre-fault pace.")
    return {"pre": pre, "ghost": ghost, "final": final,
            "log": injector.log}


if __name__ == "__main__":
    main()
