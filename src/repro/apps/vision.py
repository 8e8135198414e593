"""Synthetic vision kernels and stage cost models.

The paper's tracker runs CRL vision code (background subtraction, color
histogramming, histogram-based target detection) on live camera frames.
ARU never looks at pixel content — only at *when* items are produced and
consumed and *how large* they are — so the reproduction needs (a) faithful
item sizes, (b) faithful relative stage speeds with data-dependent
variation, and optionally (c) real array computations for the live-threads
executor. This module provides all three:

* :class:`StageCost` — lognormal service-time model with a slow sinusoidal
  "scene activity" modulation (the execution time of a vision kernel
  depends on what is in the frame — §3.1: "computation is data-dependent");
* genuine numpy kernels (:func:`make_frame`, :func:`background_subtract`,
  :func:`color_histogram`, :func:`detect_target`) used when payload
  synthesis is enabled and by the real-threads examples; each imports
  numpy when called, so a run that synthesizes nothing never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.rng import lognormal_with_mean

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class StageCost:
    """Service-time model for one pipeline stage.

    ``sample(rng, ts)`` draws the execution time of the iteration
    processing virtual time ``ts``:

    ``base = mean * (1 + activity_amp * sin(2*pi*ts / activity_period))``
    then a lognormal draw with that mean and coefficient of variation
    ``cv``. The sinusoid models slow scene-activity drift (a person moving
    through the field of view); the lognormal models per-frame jitter.
    """

    mean: float
    cv: float = 0.0
    activity_amp: float = 0.0
    activity_period: float = 150.0

    def __post_init__(self) -> None:
        if self.mean < 0:
            raise ConfigError(f"negative mean cost: {self.mean}")
        if self.cv < 0:
            raise ConfigError(f"negative cv: {self.cv}")
        if not 0 <= self.activity_amp < 1:
            raise ConfigError("activity_amp must be in [0, 1)")
        if self.activity_period <= 0:
            raise ConfigError("activity_period must be positive")

    def base_mean(self, ts: int) -> float:
        """The activity-modulated mean for virtual time ``ts``."""
        if self.activity_amp == 0.0:
            return self.mean
        phase = 2.0 * math.pi * ts / self.activity_period
        return self.mean * (1.0 + self.activity_amp * math.sin(phase))

    def sample(self, rng: np.random.Generator, ts: int) -> float:
        """Draw one service time for the iteration at virtual time ``ts``."""
        base = self.base_mean(ts)
        if base <= 0:
            return 0.0
        return lognormal_with_mean(rng, base, self.cv)


# ---------------------------------------------------------------------------
# Real numpy kernels (payload synthesis / live-threads executor)
# ---------------------------------------------------------------------------

#: Default frame geometry: 480 x 512 x 3 bytes = 737,280 B — the paper's
#: "Digitizer 738 kB" item size.
DEFAULT_FRAME_SHAPE: Tuple[int, int, int] = (480, 512, 3)


def make_frame(rng: np.random.Generator, ts: int,
               shape: Tuple[int, int, int] = DEFAULT_FRAME_SHAPE) -> np.ndarray:
    """Synthesize a camera frame: static background + a moving blob.

    The blob orbits the frame as a function of ``ts``, so downstream
    kernels see genuinely time-varying content.
    """
    import numpy as np

    h, w, _ = shape
    frame = np.full(shape, 96, dtype=np.uint8)
    cy = int(h / 2 + (h / 3) * math.sin(ts / 23.0))
    cx = int(w / 2 + (w / 3) * math.cos(ts / 31.0))
    r = max(4, h // 16)
    y0, y1 = max(0, cy - r), min(h, cy + r)
    x0, x1 = max(0, cx - r), min(w, cx + r)
    frame[y0:y1, x0:x1, 0] = 200  # a red-ish person
    frame[y0:y1, x0:x1, 1] = 64
    noise = rng.integers(0, 12, size=shape, dtype=np.uint8)
    return frame + noise


def background_subtract(frame: np.ndarray, background: Optional[np.ndarray] = None,
                        threshold: int = 30) -> np.ndarray:
    """Motion mask: pixels differing from the background beyond a threshold.

    Returns a ``uint8`` mask (0/255) of shape ``frame.shape[:2]``.
    """
    import numpy as np

    if background is None:
        background = np.full_like(frame, 96)
    diff = np.abs(frame.astype(np.int16) - background.astype(np.int16)).max(axis=2)
    return ((diff > threshold) * 255).astype(np.uint8)


def color_histogram(frame: np.ndarray, bins: int = 32) -> np.ndarray:
    """Per-channel color histogram, normalized to sum to 1 per channel."""
    import numpy as np

    if frame.ndim != 3:
        raise ValueError("expected an H x W x C frame")
    channels = []
    for c in range(frame.shape[2]):
        hist, _ = np.histogram(frame[:, :, c], bins=bins, range=(0, 256))
        total = hist.sum()
        channels.append(hist / total if total else hist.astype(float))
    return np.stack(channels)


def detect_target(frame: np.ndarray, mask: np.ndarray,
                  model_hist: np.ndarray, patch: int = 32) -> Tuple[int, int, float]:
    """Histogram-intersection target detection over masked patches.

    Scans a coarse grid of patches, scores each by histogram intersection
    with the color model, weighted by motion-mask coverage; returns
    ``(row, col, score)`` of the best patch — the 68-byte "location record".
    """
    import numpy as np

    h, w = mask.shape
    best = (0, 0, -1.0)
    for y in range(0, h - patch + 1, patch):
        for x in range(0, w - patch + 1, patch):
            coverage = mask[y:y + patch, x:x + patch].mean() / 255.0
            if coverage < 0.05:
                continue
            hist = color_histogram(frame[y:y + patch, x:x + patch],
                                   bins=model_hist.shape[1])
            score = float(np.minimum(hist, model_hist).sum()) * coverage
            if score > best[2]:
                best = (y, x, score)
    return best
