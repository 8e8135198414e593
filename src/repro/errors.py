"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause while still
being able to discriminate on the specific subclass.

:func:`unknown_name_error` is the shared did-you-mean builder: every
:class:`~repro.registry.Registry` raises it for an unknown name, and so
does the one closed enum outside one (admission modes).
Config typos must never silently run a default, and every name should
be complained about in the same voice.
"""

from __future__ import annotations

import difflib
from typing import Iterable


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class DuplicateTimestamp(SimulationError):
    """A put carried a timestamp the channel already stores. The wire
    client matches on this class to recognise a re-sent PUT that had
    already landed."""


class ProcessKilled(ReproError):
    """Raised *inside* a simulated process when it is forcibly interrupted."""


class ItemDropped(ReproError):
    """A get() request can never be satisfied (item already skipped/freed)."""


class LinkDown(ReproError):
    """A transfer was attempted over a partitioned network link."""


class MessageDropped(ReproError):
    """A transfer completed on the wire but the message was lost (fault
    injection: lossy-link mode). The sender may retry."""


class FaultError(ReproError):
    """A fault-injection schedule or operation is invalid."""


class GraphError(ReproError):
    """The application task graph is malformed (cycles, dangling nodes...)."""


class ConfigError(ReproError):
    """An experiment or runtime configuration value is invalid."""


class TraceError(ReproError):
    """The metrics trace is inconsistent (e.g. free before alloc)."""


class DistError(ReproError):
    """The distributed (multi-process) backend hit a transport or
    protocol failure: malformed frames, dropped connections, a worker
    process dying or missing its deadline."""


class FrameError(DistError):
    """A wire frame is malformed (unknown kind, oversized, truncated
    header)."""


class TelemetryError(ReproError):
    """The telemetry subsystem was misused (metric type clash, bad label
    set, export of an unbound hub...)."""


def unknown_name_error(kind: str, name: object,
                       available: Iterable[str]) -> ConfigError:
    """A :class:`ConfigError` for an unknown registry name.

    Builds the uniform ``unknown <kind> <name>; did you mean ...?
    (available: ...)`` message with :mod:`difflib` close-match
    suggestions. Callers ``raise`` the returned exception, keeping the
    traceback anchored at the resolution site.
    """
    names = sorted(available)
    close = difflib.get_close_matches(str(name), names, n=3, cutoff=0.4)
    hint = f"; did you mean {' or '.join(map(repr, close))}?" if close else ""
    return ConfigError(
        f"unknown {kind} {name!r}{hint} (available: {', '.join(names)})"
    )
