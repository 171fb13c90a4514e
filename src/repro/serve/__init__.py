"""``repro.serve`` — online trajectory-recovery serving subsystem.

Turns the offline RNTrajRec reproduction into a service: raw low-sample
GPS traces in, recovered ε_ρ map-matched trajectories out, with a
length-aware decode scheduler (earliest solo finish first over a slot
table that parks preempted decodes; see :mod:`repro.serve.batching` and
:mod:`repro.serve.engine`), a hot-swappable model registry,
request-level caching and telemetry.  See
:class:`RecoveryService` for the facade and ``scripts/serve.py`` /
``examples/serve_demo.py`` for runnable entries.
"""

from .batching import ContinuousScheduler
from .cache import LRUCache, quantize_key
from .engine import (
    ContinuousEngine,
    DecodeJob,
    DecodeResult,
    EngineError,
    build_job,
)
from .registry import ModelRegistry, bundle_paths, save_model_bundle
from .request import (
    IngestConfig,
    RecoveryRequest,
    RecoveryResponse,
    RequestError,
    assemble_sample,
    grid_alignment,
    validate_append_times,
)
from .service import RecoveryService, ServeConfig
from .telemetry import ServingTelemetry

__all__ = [
    "ContinuousEngine",
    "ContinuousScheduler",
    "DecodeJob",
    "DecodeResult",
    "EngineError",
    "build_job",
    "LRUCache",
    "quantize_key",
    "ModelRegistry",
    "bundle_paths",
    "save_model_bundle",
    "IngestConfig",
    "RecoveryRequest",
    "RecoveryResponse",
    "RequestError",
    "assemble_sample",
    "grid_alignment",
    "validate_append_times",
    "RecoveryService",
    "ServeConfig",
    "ServingTelemetry",
]
