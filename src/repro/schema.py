"""One reader for every spec file: a JSON object is a call to its dataclass.

Experiment, tenancy, tenant, demand, arbiter, load and fault specs are
frozen dataclasses, and the cluster shapes are factory functions. A spec
file spells one as an object whose keys are the keyword parameters, and
:func:`build` is the one place such an object is read:

* an unknown key, or a missing required one, fails loudly and names
  where it sat (``tenants[2].demand``): config typos must never silently
  run a default;
* a scalar parameter is checked against its annotation (``int``,
  ``float``, ``bool``, ``str``, each optionally ``Optional``), so a
  value that does not convert is an error at its key, not a bare
  ``ValueError`` from deep inside a run;
* a unit alias spells a parameter in another unit (:data:`UNITS`):
  ``mem_mb`` for ``mem_bytes``, ``bandwidth_mbps`` for
  ``bandwidth_bps``; giving both is an error;
* a parameter whose value is itself a spec (an app config, a demand,
  faults) is read by the function the caller names for it in ``parse``;
  ``null`` for a parameter whose default is ``None`` stays ``None``.

Names (policies, placements, clusters, collectors...) are not checked
here: they resolve through their :class:`~repro.registry.Registry` where
a spec built in Python resolves them too, so a file and a constructor
call fail the same way.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Mapping, Optional, Type

from repro.errors import ConfigError

#: Unit alias suffix -> (parameter suffix, factor to the parameter's unit).
UNITS = {"_mb": ("_bytes", 2**20), "_mbps": ("_bps", 10**6)}

_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}


def as_object(raw: Any, where: str,
              error: Type[Exception] = ConfigError) -> Mapping[str, Any]:
    """``raw`` if it is a JSON object, else an error naming ``where``."""
    if not isinstance(raw, Mapping):
        raise error(f"{where} must be an object, got {raw!r}")
    return raw


def check_keys(raw: Mapping[str, Any], allowed, where: str,
               error: Type[Exception] = ConfigError) -> None:
    """Fail on any key of ``raw`` outside ``allowed``."""
    unknown = set(raw) - set(allowed)
    if unknown:
        raise error(f"unknown key(s) in {where}: {sorted(unknown)}")


def build(target: Callable, raw: Any, where: str,
          parse: Optional[Mapping[str, Callable[[Any], Any]]] = None,
          error: Type[Exception] = ConfigError):
    """Call ``target`` with the keyword arguments the object ``raw`` spells.

    An instance of ``target`` (when it is a class) passes through.
    ``parse`` maps a parameter to the function that reads its value.
    """
    if isinstance(target, type) and isinstance(raw, target):
        return raw
    raw = as_object(raw, where, error)
    params = {name: p for name, p in inspect.signature(target).parameters.items()
              if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
    parse = parse or {}
    kwargs: Dict[str, Any] = {}
    unknown = []
    for key, value in raw.items():
        name = key
        if key not in params:
            name, factor = _unit_alias(key, params)
            if name is None:
                unknown.append(key)
                continue
            if name in raw:
                raise error(f"{where}: give {name} or {key}, not both")
            value = _scalar(value, "float", f"{key!r} in {where}",
                            error) * factor
        if value is None and params[name].default is None:
            kwargs[name] = None
        elif name in parse:
            kwargs[name] = parse[name](value)
        else:
            kwargs[name] = _scalar(value, params[name].annotation,
                                   f"{key!r} in {where}", error)
    if unknown:
        raise error(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = [name for name, p in params.items()
               if p.default is p.empty and name not in kwargs]
    if missing:
        raise error(f"{where}: missing {', '.join(map(repr, missing))}")
    return target(**kwargs)


def _unit_alias(key: str, params):
    """``(parameter, factor)`` that the unit alias ``key`` spells, or
    ``(None, None)``."""
    for alias, (unit, factor) in UNITS.items():
        if key.endswith(alias) and key[:-len(alias)] + unit in params:
            return key[:-len(alias)] + unit, factor
    return None, None


def _scalar(value: Any, annotation: Any, where: str,
            error: Type[Exception]) -> Any:
    """``value`` converted to a scalar annotation; anything else as is."""
    text = (annotation if isinstance(annotation, str)
            else getattr(annotation, "__name__", ""))
    optional = text.startswith("Optional[") or text.endswith(" | None")
    if text.startswith("Optional["):
        text = text[len("Optional["):-1]
    kind = _SCALARS.get(text.removesuffix(" | None"))
    if kind is None or (optional and value is None):
        return value
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    if kind in (int, float) and not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise error(f"{where} must be {'null or ' if optional else ''}"
                f"{kind.__name__}, got {value!r}")
