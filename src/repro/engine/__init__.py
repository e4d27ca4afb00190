"""The unified query-engine subsystem.

One entry point — :class:`QueryEngine` — owns the paper's keyword-query
pipeline as explicit, pluggable stages (``SegmentStage → GenerateStage →
RankStage → ExecuteStage``), carries a per-query :class:`EngineContext`
(backend, config, stage timings, cache counters) and hosts the storage-layer
optimizations: persisted inverted-index postings (SQLite side tables) and the
cross-session :class:`ResultCache`.  See ``docs/architecture.md`` for the
pipeline diagram and the stage/backend plug-in guide.
"""

from repro.engine.cache import CacheStatistics, ResultCache
from repro.engine.context import EngineConfig, EngineContext
from repro.engine.engine import QueryEngine, resolve_generator_and_model
from repro.engine.stages import (
    DEFAULT_STAGES,
    ExecuteStage,
    GenerateStage,
    RankStage,
    SegmentStage,
    Stage,
)

__all__ = [
    "CacheStatistics",
    "DEFAULT_STAGES",
    "EngineConfig",
    "EngineContext",
    "ExecuteStage",
    "GenerateStage",
    "QueryEngine",
    "RankStage",
    "ResultCache",
    "SegmentStage",
    "Stage",
    "resolve_generator_and_model",
]
