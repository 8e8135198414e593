#!/usr/bin/env python
"""Extending the control plane: custom presets and custom policies.

A registered preset and the rate loop's library layer, demonstrated end
to end (docs/control-plane.md is the prose version):

1. a custom *preset* — a named ``AruConfig`` registered with
   ``register_policy``, usable everywhere a policy name is accepted
   (CLI ``--policy``, spec files, ``ExperimentSpec(policy="...")`` and
   so a sweep cell, ``CellSpec(policy="...")``);
2. the library layer — the shipped ``SummaryStpPolicy`` and
   ``PidPolicy`` driven offline through a ``ThreadController``.

Run:  python examples/custom_policy.py
"""

from repro.aru import AruConfig, BackwardStpVector
from repro.aru.filters import NoFilter
from repro.aru.stp import StpMeter
from repro.bench import CellSpec, SweepRunner
from repro.control import (
    PidPolicy,
    StpSensor,
    SummaryStpPolicy,
    ThreadController,
    register_policy,
)

HORIZON = 60.0


# --- 1. a custom preset: the PI policy + headroom, as a named policy ---

register_policy(
    "aru-pid-soft",
    lambda: AruConfig(policy="pid", summary_filter="ewma:0.3",
                      headroom=1.05, name="aru-pid-soft"),
    help="PI policy over smoothed feedback + 5% headroom for noisy nodes",
)


def compare_presets() -> None:
    cells = [
        CellSpec(config="config1", policy=name, seed=0, horizon=HORIZON)
        for name in ("no-aru", "aru-min", "aru-pid", "aru-pid-soft")
    ]
    print(f"tracker on config 1, horizon {HORIZON:.0f}s:\n")
    print(f"{'policy':<14} {'throughput':>11} {'mem (MU_mu)':>12} "
          f"{'wasted mem':>11}")
    for result in SweepRunner(workers=1).run_metrics(cells):
        m = result.metrics
        print(f"{m.policy:<14} {m.throughput:>8.2f}fps "
              f"{m.mem_mean / 1e6:>10.1f}MB {m.wasted_memory:>10.1%}")


# --- 2. the two shipped policies, offline, through a ThreadController ---

def drive_policies() -> None:
    """Feed one noisy measurement sequence through both shipped policies:
    the paper's policy actuates each value raw, the PI policy steps
    towards it."""

    class Clock:
        t = 0.0

        def now(self):
            return self.t

    def controller(policy_cls) -> ThreadController:
        clock = Clock()
        sensor = StpSensor(StpMeter(clock, stp_filter=NoFilter()), clock.now)
        return ThreadController(sensor, policy_cls(BackwardStpVector("min")),
                                throttled=True)

    paper, pid = controller(SummaryStpPolicy), controller(PidPolicy)
    # downstream summary wobbles ±8% around 100ms, then genuinely doubles
    feedback = [0.100, 0.104, 0.097, 0.092, 0.108, 0.200, 0.205, 0.196]
    print("\nthe same noisy measurement through both policies "
          "(target period):")
    print(f"  {'measured':>9} {'summary-stp':>12} {'pid':>8}")
    for value in feedback:
        targets = []
        for ctl in (paper, pid):
            ctl.on_feedback("conn0", value)
            targets.append(ctl.plan_throttle()[0])
        print(f"  {value * 1e3:>7.0f}ms {targets[0] * 1e3:>10.0f}ms "
              f"{targets[1] * 1e3:>6.0f}ms")


def main() -> None:
    compare_presets()
    drive_policies()


if __name__ == "__main__":
    main()
