"""What forking the ``proc`` workers rests on (DESIGN.md "Workers are forks").

A forked worker inherits every module of the launcher, including any
lock some other launcher thread held at the instant of the fork; such a
lock stays held in the child forever. ``repro`` keeps no lock at module
level, so the worker session only ever takes locks it created itself.
The worker's standard streams are rebound, not inherited: stdout goes
to ``/dev/null``, stderr to the per-worker file the launcher quotes in
its errors.
"""

import importlib
import os
import pkgutil
import sys
import threading

import pytest

import repro
from repro.control import register_policy
from repro.errors import DistError
from repro.experiment import ExperimentSpec, run_experiment

LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()),
              threading.Condition, threading.Event, threading.Semaphore)


def test_no_module_level_lock_in_repro():
    held = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        held += [f"{info.name}.{name}"
                 for name, value in vars(module).items()
                 if isinstance(value, LOCK_TYPES)]
    assert held == []


def _speaks_and_exits():
    print("stdout of the worker", flush=True)
    print("stderr of the worker", file=sys.stderr)
    os._exit(3)


@pytest.mark.slow
def test_worker_stderr_reaches_the_error_and_nothing_else(capfd):
    # The policy is resolved inside the worker, before READY.
    register_policy("speaks-and-exits", _speaks_and_exits)
    with pytest.raises(DistError, match="died before READY") as info:
        run_experiment(ExperimentSpec(
            config="config2", policy="speaks-and-exits", horizon=30.0,
            backend="proc",
        ))
    assert "--- worker stderr ---\nstderr of the worker" in str(info.value)
    assert "stdout of the worker" not in str(info.value)
    out, err = capfd.readouterr()
    assert "of the worker" not in out + err
