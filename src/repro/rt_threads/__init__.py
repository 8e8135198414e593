"""Real-threads executor: the same task graphs on ``threading``.

The supported entry point is
``repro.run_experiment(ExperimentSpec(backend="threads"))`` (or
``resolve_backend("threads")``), which adds spec validation and result
packaging. The executor itself is
:class:`repro.rt_threads.executor.ThreadedRuntime` (``repro.dist``
subclasses it); this package exports the thread-safe channel.
"""

from repro.rt_threads.channel import ThreadChannel

__all__ = ["ThreadChannel"]
