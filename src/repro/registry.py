"""One registry class for every named choice a spec or a flag can make.

Rate and scale policies, backends, placements, arbiters, collectors,
filters, operators, probes, apps, workloads and clusters are all
*names* in a spec file, a sweep cell or on the command line, and each
resolves through a :class:`Registry`: one lookup, one did-you-mean
error (via :func:`~repro.errors.unknown_name_error`), one catalog
format for the CLI's ``--list-*`` flags. What a domain accepts besides a name — an
explicit config, an instance, ``None`` for its default — is handled by
that domain's resolve function in front of :meth:`Registry.get`.
"""

from __future__ import annotations

from typing import Dict, Generic, List, Tuple, TypeVar

from repro.errors import ConfigError, unknown_name_error

T = TypeVar("T")


class Registry(Generic[T]):
    """Names -> values, each with a one-line help text.

    ``kind`` is the singular noun errors and catalogs use ("policy",
    "scale policy"); a taken name cannot be registered again.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.plural = kind[:-1] + "ies" if kind.endswith("y") else kind + "s"
        self._entries: Dict[str, Tuple[T, str]] = {}

    def register(self, name: str, value: T, help: str = "") -> None:
        """Add ``name``; an empty or taken name is a :class:`ConfigError`."""
        if not isinstance(name, str) or not name:
            raise ConfigError(
                f"{self.kind} name must be a non-empty string, got {name!r}")
        if name in self._entries:
            raise ConfigError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = (value, help)

    def get(self, name: str) -> T:
        """The value registered under ``name``, or a :class:`ConfigError`
        with did-you-mean suggestions."""
        if not isinstance(name, str):
            raise ConfigError(
                f"{self.kind} must be a registered name, got {name!r}")
        entry = self._entries.get(name)
        if entry is None:
            raise unknown_name_error(self.kind, name, self._entries)
        return entry[0]

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._entries)

    def help_text(self) -> str:
        """One line per name: the CLI's ``--list-*`` catalog."""
        names = self.names()
        width = max(map(len, names), default=0)
        return "\n".join([f"registered {self.plural}:"] + [
            f"  {name:<{width}}  {self._entries[name][1]}" for name in names])

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._entries
