"""Garbage collectors for Stampede channel storage.

Live collectors: ``null``, ``ref``, ``tgc``, ``dgc`` (see
:mod:`repro.gc.base` for the taxonomy), registered by name in
:data:`COLLECTORS`. The ideal bound (``igc``) is a postmortem analysis,
not a live collector — see :mod:`repro.gc.igc`.
"""

from typing import Union

from repro.gc.base import GarbageCollector, NullGC
from repro.gc.dgc import DeadTimestampGC
from repro.gc.igc import IgcResult, ideal_gc_analysis
from repro.gc.refgc import RefCountGC
from repro.gc.tgc import TransparentGC
from repro.registry import Registry

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


def make_gc(spec: Union[str, GarbageCollector, None]) -> GarbageCollector:
    """Build a collector from a config value: ``None`` is DGC — the
    collector all paper experiments run on — an instance passes through,
    and a name is matched case-insensitively."""
    if spec is None:
        return DeadTimestampGC()
    if isinstance(spec, GarbageCollector):
        return spec
    if isinstance(spec, str):
        spec = spec.lower()
    return COLLECTORS.get(spec)()


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
