"""The unified query engine.

:class:`QueryEngine` owns the paper's full keyword-query pipeline —
``SegmentStage → GenerateStage → RankStage → ExecuteStage`` — over one
storage backend.  It is the single entry point the CLI, the experiment
harnesses, the construction sessions and the benchmarks build on, replacing
their hand-wired generator/model/executor assembly, and it is the seam the
storage-layer optimizations (persisted index postings, the process-level
result cache) plug into.

Typical use::

    engine = QueryEngine.for_dataset("imdb")
    context = engine.run("hanks 2001", k=5)        # full pipeline
    for result in context.results: ...

    engine.rank(query)                             # ranking only
    engine.with_model(UniformModel())              # same space, other model
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.generator import GeneratorConfig, InterpretationGenerator
from repro.core.interpretation import Interpretation
from repro.core.keywords import KeywordQuery
from repro.core.probability import ATFModel, ProbabilityModel, TemplateCatalog
from repro.core.templates import QueryTemplate
from repro.core.topk import TopKResult
from repro.db.backends.base import StorageBackend
from repro.engine.cache import ResultCache
from repro.engine.context import EngineConfig, EngineContext
from repro.engine.memo import InterpretationMemo
from repro.engine.stages import DEFAULT_STAGES, Stage

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

#: Builds a model once the engine's generator/index/catalog exist — the hook
#: for models whose construction needs those parts (e.g. ``DivQModel``).
ModelFactory = Callable[["QueryEngine"], ProbabilityModel]


class QueryEngine:
    """The pipeline facade over one storage backend."""

    def __init__(
        self,
        backend: StorageBackend,
        *,
        model: ProbabilityModel | None = None,
        model_factory: ModelFactory | None = None,
        generator: InterpretationGenerator | None = None,
        templates: Sequence[QueryTemplate] | None = None,
        generator_config: GeneratorConfig | None = None,
        max_template_joins: int = 4,
        config: EngineConfig | None = None,
        stages: Sequence[Stage] | None = None,
        cache: ResultCache | None = None,
    ):
        if model is not None and model_factory is not None:
            raise ValueError("pass either model or model_factory, not both")
        self.backend = backend
        self.config = config or EngineConfig()
        # None keeps the backend's default pool size; backends without
        # supports_read_pool (memory) ignore the call entirely.
        backend.configure_read_pool(self.config.read_pool_size)
        self.index = backend.require_index()
        self.generator = generator or InterpretationGenerator(
            backend,
            templates=templates,
            config=generator_config or GeneratorConfig(),
            max_template_joins=max_template_joins,
        )
        self.catalog = TemplateCatalog(self.generator.templates)
        if model_factory is not None:
            self.model = model_factory(self)
        else:
            self.model = model or ATFModel(self.index, self.catalog)
        if cache is not None:
            self.cache: ResultCache | None = cache
        elif self.config.cache_results:
            self.cache = ResultCache(backend, capacity=self.config.result_cache_size)
        else:
            self.cache = None
        #: Ranked spaces of queries already answered.  Rides on the result
        #: cache's switch (``cache_results``): a cache-free engine recomputes.
        self.memo = InterpretationMemo() if self.cache is not None else None
        self.stages: list[Stage] = list(stages or DEFAULT_STAGES)

    # -- construction helpers ----------------------------------------------

    @classmethod
    def for_dataset(
        cls,
        dataset: str,
        *,
        backend: str | StorageBackend = "memory",
        db_path: "str | Path | None" = None,
        shards: int | None = None,
        **kwargs,
    ) -> "QueryEngine":
        """Engine over one bundled synthetic dataset (``imdb`` / ``lyrics``).

        ``backend``/``db_path``/``shards`` select the storage engine exactly
        like the dataset builders (``shards`` is the partition count of
        sharding backends); remaining keyword arguments starting with
        ``dataset_`` are forwarded to the builder (e.g. ``dataset_seed=19``),
        the rest go to :class:`QueryEngine`.
        """
        from repro.datasets.imdb import build_imdb
        from repro.datasets.lyrics import build_lyrics

        builders = {"imdb": build_imdb, "lyrics": build_lyrics}
        try:
            builder = builders[dataset]
        except KeyError:
            raise ValueError(
                f"unknown dataset {dataset!r} (use {' or '.join(sorted(builders))})"
            ) from None
        dataset_kwargs = {
            key[len("dataset_"):]: kwargs.pop(key)
            for key in list(kwargs)
            if key.startswith("dataset_")
        }
        db = builder(backend=backend, db_path=db_path, shards=shards, **dataset_kwargs)
        return cls(db, **kwargs)

    def with_model(
        self, model: ProbabilityModel | ModelFactory
    ) -> "QueryEngine":
        """A sibling engine sharing this one's generator, backend and cache.

        The cheap way to sweep probability estimates over one interpretation
        space (Fig. 3.5's three models, the TF-IDF ablation): nothing is
        rebuilt, only the model differs.
        """
        factory = model if callable(model) and not _is_model(model) else None
        return QueryEngine(
            self.backend,
            model=None if factory else model,  # type: ignore[arg-type]
            model_factory=factory,
            generator=self.generator,
            config=self.config,
            stages=self.stages,
            cache=self.cache,
        )

    def memo_token(self) -> tuple:
        """Everything a memoised ranked space depends on besides its keywords."""
        catalog = getattr(self.model, "catalog", None) or self.catalog
        return (self.backend.content_fingerprint(), catalog.version, self.model, self.generator)

    # -- the pipeline -------------------------------------------------------

    def run(
        self,
        query: str | KeywordQuery,
        k: int | None = None,
        explain: bool = False,
    ) -> EngineContext:
        """Send one keyword query through every stage; return the context."""
        context = EngineContext(
            backend=self.backend,
            config=self.config,
            query_text=str(query),
            k=self.config.k if k is None else k,
            explain=explain,
        )
        if isinstance(query, KeywordQuery):
            context.query = query
        for stage in self.stages:
            started = time.perf_counter()
            stage.run(self, context)
            context.stage_timings[stage.name] = time.perf_counter() - started
        return context

    # -- single-step conveniences -------------------------------------------

    def search(self, query: str | KeywordQuery, k: int | None = None) -> list[TopKResult]:
        """Top-k result rows (the full pipeline, results only)."""
        return self.run(query, k=k).results

    def rank(self, query: str | KeywordQuery) -> list[tuple[Interpretation, float]]:
        """The ranked interpretation space of ``query`` (no execution)."""
        if not isinstance(query, KeywordQuery):
            query = KeywordQuery.parse(query)
        from repro.core.probability import rank_interpretations

        return rank_interpretations(self.generator.interpretations(query), self.model)

    def interpretations(self, query: str | KeywordQuery) -> list[Interpretation]:
        """The (capped) interpretation space of ``query``."""
        if not isinstance(query, KeywordQuery):
            query = KeywordQuery.parse(query)
        return self.generator.interpretations(query)


def _is_model(candidate: object) -> bool:
    """Distinguish a model instance from a model factory in ``with_model``."""
    return hasattr(candidate, "interpretation_weight")


def resolve_generator_and_model(
    engine: "QueryEngine | InterpretationGenerator",
    model: ProbabilityModel | None = None,
) -> tuple[InterpretationGenerator, ProbabilityModel]:
    """``(generator, model)`` from an engine or a bare generator + model.

    The one unwrap shared by every pipeline consumer that predates the
    engine (``ConstructionSession``, ``Ranker``): passing a ``QueryEngine``
    supplies both parts (``model`` still overrides, for model sweeps over one
    interpretation space); the historical bare-generator spelling requires an
    explicit model.
    """
    if isinstance(engine, QueryEngine):
        return engine.generator, model if model is not None else engine.model
    if model is None:
        raise ValueError("model is required when passing a bare generator")
    return engine, model
