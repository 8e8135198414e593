"""A serial sweep reclaims each finished cell before starting the next.

A finished ``Runtime`` is one big reference cycle holding the whole
trace, and ``Engine.run`` pauses the interpreter's cyclic collector, so
without ``run_cell``'s explicit collection the previous cell's trace
would still be resident while the next one is built on top of it — peak
memory of a serial sweep would be two cells (or more), not one.
"""

import weakref

import repro.experiment
from repro.bench import SweepRunner, grid_specs


def test_previous_cell_trace_is_dead_before_the_next_starts(monkeypatch):
    real = repro.experiment.run_experiment
    traces = []          # weak references, in cell order
    alive_at_entry = []  # per call: how many earlier traces were alive

    def spying(spec):
        alive_at_entry.append(sum(ref() is not None for ref in traces))
        result = real(spec)
        traces.append(weakref.ref(result.trace))
        return result

    monkeypatch.setattr(repro.experiment, "run_experiment", spying)
    specs = grid_specs(seeds=(0,), horizon=5.0)[:4]
    results = SweepRunner(workers=1).run(specs)

    assert [r.ok for r in results] == [True] * 4
    assert len(traces) == 4
    assert alive_at_entry == [0, 0, 0, 0]
    assert all(ref() is None for ref in traces)  # the last one too
