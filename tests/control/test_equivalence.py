"""Differential guarantees of the control-plane refactor.

Three contracts, all enforced on real tracker cells:

* the default summary-STP stack is **bit-identical** to the
  pre-refactor ARU (golden fingerprints captured on the seed revision —
  ``benchmarks/check_control_identity.py`` runs the full 74-cell grid,
  this suite pins a 6-cell cross-section in-tree);
* ARU off is one run however it is spelled — ``None``, ``"no-aru"``
  or ``aru_disabled()``;
* parallel sweep execution is bit-identical to serial execution.
"""

import pytest

from repro.aru import aru_disabled, aru_max, aru_min
from repro.bench import CellSpec, SweepRunner, metrics_fingerprint

HORIZON = 25.0

#: Captured with metrics_fingerprint() on the pre-refactor revision
#: (PR 3 head); the control-plane refactor must never change them.
GOLDEN = {
    ("config1", "No ARU"):
        "dc74f371cd143bd0ddf192cd227974ca232c667e31beba56a825c28b842d802f",
    ("config1", "ARU-min"):
        "ff43ff2c3e94af8349abc4d2de438cac3922d2ed6907f87debd4681740cf4fd9",
    ("config1", "ARU-max"):
        "adc6845396525ee08f4765b9814e18c3c6f316cbbff75b1922331900fb3dc4d4",
    ("config2", "No ARU"):
        "e9a7f4ac81648993d8d505907ca3f54675a283ed446145d1f5a562017711b8e1",
    ("config2", "ARU-min"):
        "70eb5d01905b28ccee0e9f00b760b653727f8abc3a2a91f68307fc7e153ba6b4",
    ("config2", "ARU-max"):
        "0b4f6db0bdc205d1802e5fda29d598e6f22ed872e4db9583a6108524f92de68f",
}


def grid_specs():
    policies = (("No ARU", aru_disabled), ("ARU-min", aru_min),
                ("ARU-max", aru_max))
    return [
        CellSpec(config=config, policy=factory(), label=label, seed=0,
                 horizon=HORIZON)
        for config in ("config1", "config2")
        for label, factory in policies
    ]


@pytest.fixture(scope="module")
def serial_results():
    return SweepRunner(workers=1).run_metrics(grid_specs())


class TestGoldenFingerprints:
    def test_default_stack_is_bit_identical_to_seed(self, serial_results):
        got = {
            (r.spec.config, r.spec.policy_label): metrics_fingerprint(r)
            for r in serial_results
        }
        assert got == GOLDEN


class TestNullPolicyEquivalence:
    def test_null_equals_disabled_bit_for_bit(self):
        specs = [
            CellSpec(config="config1", policy=policy, seed=0, horizon=HORIZON)
            for policy in (None, "no-aru", aru_disabled())
        ]
        results = SweepRunner(workers=1).run_metrics(specs)
        assert len({metrics_fingerprint(r) for r in results}) == 1


class TestParallelEquivalence:
    def test_workers4_matches_serial(self, serial_results):
        parallel = SweepRunner(workers=4).run_metrics(grid_specs())
        serial_fp = [metrics_fingerprint(r) for r in serial_results]
        parallel_fp = [metrics_fingerprint(r) for r in parallel]
        assert parallel_fp == serial_fp

    def test_string_policy_specs_match_config_specs(self):
        by_name = CellSpec(config="config1", policy="aru-min", seed=0,
                           horizon=HORIZON)
        by_config = CellSpec(config="config1", policy=aru_min(), seed=0,
                             horizon=HORIZON)
        r_name, r_config = SweepRunner(workers=1).run_metrics(
            [by_name, by_config])
        assert metrics_fingerprint(r_name) == metrics_fingerprint(r_config)
