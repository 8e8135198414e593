"""``Engine.run`` pauses the interpreter's cyclic collector — and may.

Two halves of one contract:

* the pause itself: ``gc.isenabled()`` after ``Engine.run`` equals its
  value before, on every way out of the call;
* what makes the pause sound: the dispatch path leaves **no** reference
  cycles behind, so a collection after the run finds nothing. The kill
  path used to be the exception (a defused ``ProcessKilled`` stored with
  its traceback pinned the dead frames); it now drops the traceback.

(The interpreter's cyclic collector is Python's ``gc`` module —
``repro.gc`` is the simulated dead-timestamp collector, a different
thing.)
"""

import gc
import pickle

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.experiment import ExperimentSpec, run_experiment
from repro.sim import Engine
from repro.sim.engine import paused_collector


@pytest.fixture
def collector_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    # Restore exactly what was found: a test may leave it either way.
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def ticker(eng, period=1.0):
    while True:
        yield eng.timeout(period)


def raises_value_error(eng):
    yield eng.timeout(1.0)
    raise ValueError("boom")


# -- the pause restores what it found ------------------------------------------


class TestPauseRestoresCollectorState:
    def test_paused_inside_restored_on_return(self, collector_enabled):
        eng = Engine()
        seen = []

        def proc(eng):
            yield eng.timeout(1.0)
            seen.append(gc.isenabled())

        eng.process(proc(eng))
        eng.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_with_until(self, collector_enabled):
        eng = Engine()
        eng.process(ticker(eng))
        eng.run(until=5.0)
        assert gc.isenabled()

    def test_restored_when_task_error_surfaces(self, collector_enabled):
        eng = Engine()

        eng.process(raises_value_error(eng))
        with pytest.raises(ValueError):
            eng.run()
        assert gc.isenabled()
        eng.run()  # engine and collector both usable afterwards
        assert gc.isenabled()

    def test_past_until_never_touches_collector(self, collector_enabled):
        eng = Engine(start=5.0)
        with pytest.raises(SimulationError, match="past"):
            eng.run(until=1.0)
        assert gc.isenabled()

    def test_reentrant_run_never_touches_collector(self, collector_enabled):
        eng = Engine()
        seen = []

        def nested(eng):
            yield eng.timeout(1.0)
            with pytest.raises(SimulationError, match="reentrant"):
                eng.run()
            # The refused inner call must not have re-enabled it.
            seen.append(gc.isenabled())

        eng.process(nested(eng))
        eng.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, collector_enabled):
        gc.disable()
        eng = Engine()
        eng.process(ticker(eng))
        eng.run(until=3.0)
        assert not gc.isenabled()

        eng.process(raises_value_error(eng))
        with pytest.raises(ValueError):
            eng.run()
        assert not gc.isenabled()

    def test_step_and_run_until_event_do_not_pause(self, collector_enabled):
        eng = Engine()
        seen = []

        def proc(eng):
            yield eng.timeout(1.0)
            seen.append(gc.isenabled())

        done = eng.process(proc(eng))
        eng.run_until_event(done)
        assert seen == [True]


class TestPausedCollector:
    def test_restores_enabled_on_error(self, collector_enabled):
        with pytest.raises(ValueError):
            with paused_collector():
                assert not gc.isenabled()
                raise ValueError("boom")
        assert gc.isenabled()

    def test_nested_pause_leaves_outer_paused(self, collector_enabled):
        with paused_collector():
            with paused_collector():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, collector_enabled):
        gc.disable()
        with paused_collector():
            pass
        assert not gc.isenabled()


# -- the kill path stores no traceback -------------------------------------------


def _waits_forever(eng):
    yield eng.timeout(100.0)


def _reraises_from_cleanup(eng):
    try:
        yield eng.timeout(100.0)
    finally:
        yield eng.timeout(0.5)
        raise ProcessKilled("re-raised from cleanup")


def _dies_on_first_resume(eng):
    raise ProcessKilled("self-inflicted")
    yield


def _drive(eng, scalar):
    if scalar:
        while eng.peek() <= 50.0:
            eng.step()
    else:
        eng.run(until=50.0)


class TestKilledProcessDropsTraceback:
    # One body per ``except ProcessKilled`` site: ``Process._throw`` (the
    # kill is thrown in and propagates), ``Process._send`` (raised by a
    # generator resumed through an event callback), and the copy of
    # ``_send`` inlined in ``Engine.run`` (raised on a ``_Resume`` entry;
    # the scalar ``step`` loop reaches ``_send`` for the same body).
    @pytest.mark.parametrize("scalar", [False, True], ids=["run", "step"])
    @pytest.mark.parametrize(
        "body", [_waits_forever, _reraises_from_cleanup, _dies_on_first_resume])
    def test_stored_without_traceback(self, body, scalar):
        eng = Engine()
        victim = eng.process(body(eng))

        def killer(eng):
            yield eng.timeout(1.0)
            victim.kill("test")

        eng.process(killer(eng))
        _drive(eng, scalar)
        assert not victim.is_alive
        assert isinstance(victim._value, ProcessKilled)
        assert victim._value.__traceback__ is None

    def test_real_task_error_keeps_its_traceback(self):
        eng = Engine()

        proc = eng.process(raises_value_error(eng))
        with pytest.raises(ValueError) as info:
            eng.run()
        assert proc._value is info.value
        assert proc._value.__traceback__ is not None
        frames = []
        tb = proc._value.__traceback__
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert "raises_value_error" in frames

    def test_kills_leave_nothing_for_the_collector(self, unreachable_after):
        def churn(n):
            eng = Engine()
            victims = [eng.process(ticker(eng), name=f"v{i}")
                       for i in range(n)]

            def killer(eng):
                for victim in victims:
                    yield eng.timeout(0.5)
                    victim.kill()

            eng.process(killer(eng))
            eng.run()
            return eng

        churn(2)  # warm any lazily created interpreter state
        few, _ = unreachable_after(lambda: churn(5))
        many, _ = unreachable_after(lambda: churn(50))
        assert (few, many) == (0, 0)


# -- a whole tracker cell is cycle-free at any horizon ----------------------------


@pytest.mark.parametrize("policy", ["no-aru", "aru-max"])
def test_tracker_cell_leaves_no_cycles(policy, unreachable_after):
    def cell(horizon):
        return run_experiment(ExperimentSpec(policy=policy, seed=1,
                                             horizon=horizon))

    cell(1.0)  # lazy imports build (collectable) class cycles once
    short, res_short = unreachable_after(lambda: cell(4.0))
    long, res_long = unreachable_after(lambda: cell(16.0))
    events = [r.stats["engine"]["events_processed"]
              for r in (res_short, res_long)]
    assert events[1] > 3 * events[0]  # the long run really did 4x the work
    assert (short, long) == (0, 0)


def test_collecting_a_finished_run_leaves_its_trace_alone():
    # The run's threads still hold items; destroying them releases those
    # at the horizon, which must not reach the sealed trace.
    trace = run_experiment(ExperimentSpec(policy="aru-min", seed=0,
                                          horizon=6.0)).trace
    before = pickle.dumps(trace)
    gc.collect()
    assert pickle.dumps(trace) == before
