"""Applications: the people tracker, gesture/stereo pipelines, the elastic
pipeline, and generic workload generators.

The builtin apps a spec can name (``ExperimentSpec(app=...)``, spec
files, ``repro dot``) are registered in :data:`APPS` as
``(build, config class)`` pairs; ``build(None)`` uses the defaults.
"""

from repro.apps.gesture import GestureConfig, build_gesture
from repro.apps.stereo import StereoConfig, build_stereo
from repro.apps.tracker import (
    CHANNELS,
    FRAME_BYTES,
    HIST_BYTES,
    LOCATION_BYTES,
    MASK_BYTES,
    THREADS,
    TrackerConfig,
    build_tracker,
    tracker_placement,
)
from repro.apps.vision import (
    DEFAULT_FRAME_SHAPE,
    StageCost,
    background_subtract,
    color_histogram,
    detect_target,
    make_frame,
)
from repro.apps.elastic import (
    ElasticConfig,
    elastic_pipeline,
    make_draining_sink,
    make_pool_worker,
    make_swing_source,
)
from repro.apps.workloads import (
    fan_in,
    fan_out,
    linear_pipeline,
    make_sink,
    make_source,
    make_worker,
    work_queue_pool,
)
from repro.registry import Registry
from repro.schema import build

APPS = Registry("app")
APPS.register("tracker", (build_tracker, TrackerConfig),
              help="the color-based people tracker the paper evaluates (§5)")
APPS.register("gesture", (build_gesture, GestureConfig),
              help="sliding-window recognizer pinning a window of features")
APPS.register("stereo", (build_stereo, StereoConfig),
              help="two cameras matched by corresponding timestamps")
APPS.register("elastic", (elastic_pipeline, ElasticConfig),
              help="source -> replicated worker stage -> sink, with a rate swing")


def app_config_from_dict(app, raw, where: str):
    """A spec file's ``app_config`` object -> the config of app ``app``."""
    return build(APPS.get(app)[1], raw, f"{where} (app is {app!r})")


__all__ = [
    "APPS",
    "app_config_from_dict",
    "TrackerConfig",
    "build_tracker",
    "GestureConfig",
    "build_gesture",
    "StereoConfig",
    "build_stereo",
    "tracker_placement",
    "THREADS",
    "CHANNELS",
    "FRAME_BYTES",
    "MASK_BYTES",
    "HIST_BYTES",
    "LOCATION_BYTES",
    "StageCost",
    "make_frame",
    "background_subtract",
    "color_histogram",
    "detect_target",
    "DEFAULT_FRAME_SHAPE",
    "linear_pipeline",
    "fan_out",
    "fan_in",
    "work_queue_pool",
    "make_source",
    "make_worker",
    "make_sink",
    "ElasticConfig",
    "elastic_pipeline",
    "make_swing_source",
    "make_pool_worker",
    "make_draining_sink",
]
