"""Garbage collectors for Stampede channel storage.

Live collectors: ``null``, ``ref``, ``tgc``, ``dgc`` (see
:mod:`repro.gc.base` for the taxonomy), registered by name in
:data:`COLLECTORS`. The ideal bound (``igc``) is a postmortem analysis,
not a live collector — see :mod:`repro.gc.igc`.
"""

from typing import Any, Dict, Union

from repro.gc.base import GarbageCollector, NullGC
from repro.gc.dgc import DeadTimestampGC
from repro.gc.igc import IgcResult, ideal_gc_analysis
from repro.gc.refgc import RefCountGC
from repro.gc.tgc import TransparentGC
from repro.registry import Registry
from repro.schema import build

COLLECTORS = Registry("collector")  # name -> GarbageCollector class
COLLECTORS.register(
    "null", NullGC, help="never frees — upper-bound baseline for micro-tests")
COLLECTORS.register(
    "ref", RefCountGC,
    help="free once every consumer consumed the item; skipped items stay")
COLLECTORS.register(
    "tgc", TransparentGC,
    help="transparent GC: free below the application-wide virtual-time "
         "low-water mark")
COLLECTORS.register(
    "dgc", DeadTimestampGC,
    help="dead-timestamp GC: free once every consumer's get cursor passed "
         "the item (default)")


def make_gc(spec: Union[str, Dict[str, Any], GarbageCollector, None]
            ) -> GarbageCollector:
    """Build a collector from a config value: ``None`` is DGC — the
    collector all paper experiments run on — an instance passes through,
    a name is matched case-insensitively, and ``{"kind": name, **args}``
    passes ``args`` to the named collector (``{"kind": "dgc",
    "interval": 0.5}``); an argument it does not take is a
    :class:`~repro.errors.ConfigError`."""
    if spec is None:
        return DeadTimestampGC()
    if isinstance(spec, GarbageCollector):
        return spec
    args: Dict[str, Any] = {}
    if isinstance(spec, dict):
        args = dict(spec)
        spec = args.pop("kind", None)
    if isinstance(spec, str):
        spec = spec.lower()
    collector = COLLECTORS.get(spec)
    return build(collector, args, f"gc {spec!r}") if args else collector()


__all__ = [
    "COLLECTORS",
    "GarbageCollector",
    "NullGC",
    "RefCountGC",
    "TransparentGC",
    "DeadTimestampGC",
    "IgcResult",
    "ideal_gc_analysis",
    "make_gc",
]
