"""Chapter 4 experiments: DivQ diversification.

Harnesses (one per table/figure of Section 4.6):

* :func:`table_4_1` — example top-k ranking vs diversification for one query.
* :func:`fig_4_1`   — max/average probability ratio ``PR_i`` per rank.
* :func:`fig_4_2`   — α-nDCG-W of ranking vs diversification (α sweep).
* :func:`fig_4_3`   — WS-recall of ranking vs diversification.
* :func:`fig_4_4`   — relevance vs novelty as λ varies.

Pipeline per query: build the interpretation space with the DivQ model,
rank by relevance, simulate graded assessments (the user-study substitute),
materialize result keys, then compare the relevance ranking against the
diversified re-ranking with the adapted metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.generator import GeneratorConfig
from repro.core.interpretation import Interpretation
from repro.datasets.workload import WorkloadQuery, imdb_workload, lyrics_workload
from repro.divq.analysis import max_and_average_ratio_profile, query_ambiguity_entropy
from repro.divq.assessors import AssessorPool, simulate_assessments
from repro.divq.diversify import diversify, divq_model, relevance_pool
from repro.divq.metrics import alpha_ndcg_w, subtopic_relevance, ws_recall
from repro.engine import QueryEngine
from repro.experiments.reporting import format_table


@dataclass
class JudgedQuery:
    """One evaluation topic: interpretations, probabilities, judgments, results."""

    item: WorkloadQuery
    interpretations: list[Interpretation]
    probabilities: list[float]
    relevance: list[float]  # graded assessor scores, aligned
    result_keys: list[frozenset]  # per interpretation
    entropy: float

    def entries(self, order: list[int]) -> list[tuple[float, frozenset]]:
        return [(self.relevance[i], self.result_keys[i]) for i in order]


@dataclass
class Chapter4Setup:
    dataset: str
    engine: QueryEngine
    judged: list[JudgedQuery] = field(default_factory=list)

    @property
    def database(self):
        return self.engine.backend

    @property
    def generator(self):
        return self.engine.generator


def build_setup(
    dataset: str = "imdb",
    n_queries: int = 24,
    top_k_pool: int = 25,
    result_limit: int = 200,
    seed: int = 7,
) -> Chapter4Setup:
    """Prepare judged topics: the §4.6.1/§4.6.2 pipeline on synthetic data."""
    workload_fns = {"imdb": imdb_workload, "lyrics": lyrics_workload}
    if dataset not in workload_fns:
        raise ValueError(f"unknown dataset {dataset!r}")
    engine = QueryEngine.for_dataset(
        dataset,
        dataset_seed=seed,
        generator_config=GeneratorConfig(),
        model_factory=divq_model,
    )
    db = engine.backend
    workload = workload_fns[dataset](db, n_queries=n_queries * 2)
    pool = AssessorPool()
    judged: list[JudgedQuery] = []
    for item in workload:
        ranked = relevance_pool(engine.rank(item.query), top_k_pool)
        if len(ranked) < 3:
            continue
        interps = [i for i, _p in ranked]
        probs = [p for _i, p in ranked]
        intended_index = next(
            (idx for idx, i in enumerate(interps) if item.intended.matches(i)), None
        )
        relevance = simulate_assessments(probs, intended_index, pool)
        keys = [frozenset(i.result_keys(db, limit=result_limit)) for i in interps]
        judged.append(
            JudgedQuery(
                item=item,
                interpretations=interps,
                probabilities=probs,
                relevance=relevance,
                result_keys=keys,
                entropy=query_ambiguity_entropy(probs),
            )
        )
    # Ambiguity-driven selection (§4.6.1): keep the highest-entropy topics.
    judged.sort(key=lambda j: -j.entropy)
    return Chapter4Setup(dataset=dataset, engine=engine, judged=judged[:n_queries])


def _diversified_order(judged: JudgedQuery, tradeoff: float, k: int) -> list[int]:
    """Indices (into the judged lists) in diversified order."""
    ranked_pairs = list(zip(range(len(judged.interpretations)), judged.probabilities))
    result = diversify(
        ranked_pairs,
        k=k,
        tradeoff=tradeoff,
        similarity=lambda a, b: _interp_similarity(judged, a, b),
    )
    return [idx for idx in result.selected]


def _interp_similarity(judged: JudgedQuery, a: int, b: int) -> float:
    from repro.divq.similarity import jaccard_similarity

    return jaccard_similarity(judged.interpretations[a], judged.interpretations[b])


# -- Table 4.1 ------------------------------------------------------------------


def table_4_1(setup: Chapter4Setup | None = None, k: int = 3) -> str:
    """Example: top-k by ranking vs by diversification for the most ambiguous query."""
    setup = setup or build_setup()
    if not setup.judged:
        return "Table 4.1: no ambiguous queries available"
    judged = setup.judged[0]
    rank_order = list(range(min(k, len(judged.interpretations))))
    div_order = _diversified_order(judged, tradeoff=0.1, k=k)
    rows = []
    for position in range(min(k, len(rank_order))):
        r = rank_order[position]
        d = div_order[position] if position < len(div_order) else r
        rows.append(
            [
                round(judged.relevance[r], 2),
                judged.interpretations[r].to_structured_query().algebra()[:48],
                round(judged.relevance[d], 2),
                judged.interpretations[d].to_structured_query().algebra()[:48],
            ]
        )
    return (
        f"Table 4.1: keyword query {str(judged.item.query)!r}\n"
        + format_table(["rel", "top-k ranking", "rel", "top-k diversification"], rows)
    )


# -- Fig. 4.1 -------------------------------------------------------------------


def fig_4_1(
    setup: Chapter4Setup | None = None, max_rank: int = 25
) -> tuple[list[float], list[float]]:
    """Max and average probability ratio ``PR_i`` per rank (ranks 2..max)."""
    setup = setup or build_setup()
    profiles = [j.probabilities for j in setup.judged]
    return max_and_average_ratio_profile(profiles, max_rank=max_rank)


def fig_4_1_report(dataset: str = "imdb", setup: Chapter4Setup | None = None) -> str:
    setup = setup or build_setup(dataset)
    max_pr, avg_pr = fig_4_1(setup)
    rows = [
        [rank + 2, max_pr[rank], avg_pr[rank]]
        for rank in range(len(max_pr))
        if max_pr[rank] > 0 or rank < 10
    ]
    return f"Fig. 4.1 ({setup.dataset}): probability ratio by rank\n" + format_table(
        ["rank", "max PR", "avg PR"], rows
    )


# -- Fig. 4.2 / 4.3 -----------------------------------------------------------------


def fig_4_2(
    setup: Chapter4Setup | None = None,
    alphas: tuple[float, ...] = (0.0, 0.5, 0.99),
    ks: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    tradeoff: float = 0.1,
) -> dict[tuple[float, str, str], list[float]]:
    """α-nDCG-W series.

    Returns ``{(alpha, system, kind): [value@k for k in ks]}`` with systems
    ``rank``/``div`` and query kinds ``sc``/``mc``, averaged over topics.
    """
    setup = setup or build_setup()
    out: dict[tuple[float, str, str], list[float]] = {}
    for alpha in alphas:
        for kind in ("sc", "mc"):
            topics = [j for j in setup.judged if j.item.kind == kind]
            if not topics:
                continue
            rank_series: list[float] = []
            div_series: list[float] = []
            for k in ks:
                rank_vals: list[float] = []
                div_vals: list[float] = []
                for judged in topics:
                    n = len(judged.interpretations)
                    rank_entries = judged.entries(list(range(n)))
                    div_entries = judged.entries(
                        _diversified_order(judged, tradeoff, min(k, n))
                    )
                    rank_vals.append(
                        alpha_ndcg_w(rank_entries, alpha, k, ideal_entries=rank_entries)
                    )
                    div_vals.append(
                        alpha_ndcg_w(div_entries, alpha, k, ideal_entries=rank_entries)
                    )
                rank_series.append(sum(rank_vals) / len(rank_vals))
                div_series.append(sum(div_vals) / len(div_vals))
            out[(alpha, "rank", kind)] = rank_series
            out[(alpha, "div", kind)] = div_series
    return out


def fig_4_3(
    setup: Chapter4Setup | None = None,
    ks: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    tradeoff: float = 0.1,
) -> dict[tuple[str, str], list[float]]:
    """WS-recall series: ``{(system, kind): [value@k]}``."""
    setup = setup or build_setup()
    out: dict[tuple[str, str], list[float]] = {}
    for kind in ("sc", "mc"):
        topics = [j for j in setup.judged if j.item.kind == kind]
        if not topics:
            continue
        rank_series: list[float] = []
        div_series: list[float] = []
        for k in ks:
            rank_vals: list[float] = []
            div_vals: list[float] = []
            for judged in topics:
                n = len(judged.interpretations)
                universe = subtopic_relevance(judged.entries(list(range(n))))
                rank_vals.append(ws_recall(judged.entries(list(range(n))), k, universe))
                div_order = _diversified_order(judged, tradeoff, min(k, n))
                div_vals.append(ws_recall(judged.entries(div_order), k, universe))
            rank_series.append(sum(rank_vals) / len(rank_vals))
            div_series.append(sum(div_vals) / len(div_vals))
        out[("rank", kind)] = rank_series
        out[("div", kind)] = div_series
    return out


def fig_4_2_report(dataset: str = "imdb", setup: Chapter4Setup | None = None) -> str:
    setup = setup or build_setup(dataset)
    data = fig_4_2(setup)
    rows = []
    for (alpha, system, kind), series in sorted(data.items()):
        rows.append([alpha, system, kind, *[round(v, 3) for v in series[:6]]])
    return f"Fig. 4.2 ({setup.dataset}): alpha-nDCG-W\n" + format_table(
        ["alpha", "system", "kind", "k=1", "k=2", "k=3", "k=4", "k=5", "k=6"], rows
    )


def fig_4_3_report(dataset: str = "imdb", setup: Chapter4Setup | None = None) -> str:
    setup = setup or build_setup(dataset)
    data = fig_4_3(setup)
    rows = []
    for (system, kind), series in sorted(data.items()):
        rows.append([system, kind, *[round(v, 3) for v in series[:6]]])
    return f"Fig. 4.3 ({setup.dataset}): WS-recall\n" + format_table(
        ["system", "kind", "k=1", "k=2", "k=3", "k=4", "k=5", "k=6"], rows
    )


# -- Fig. 4.4 -------------------------------------------------------------------


def fig_4_4(
    setup: Chapter4Setup | None = None,
    tradeoffs: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
    k: int = 10,
) -> list[tuple[float, float, float]]:
    """Relevance vs novelty as λ varies: (λ, mean relevance, mean novelty).

    Novelty at λ is measured as the fraction of *new* subtopics each selected
    interpretation contributes, averaged over the top-k and the topics.
    """
    setup = setup or build_setup()
    rows: list[tuple[float, float, float]] = []
    for tradeoff in tradeoffs:
        rel_vals: list[float] = []
        nov_vals: list[float] = []
        for judged in setup.judged:
            n = len(judged.interpretations)
            order = _diversified_order(judged, tradeoff, min(k, n))
            if not order:
                continue
            rel_vals.append(sum(judged.relevance[i] for i in order) / len(order))
            seen: set = set()
            novelty_parts: list[float] = []
            for i in order:
                keys = judged.result_keys[i]
                if keys:
                    novelty_parts.append(len(keys - seen) / len(keys))
                    seen |= keys
                else:
                    novelty_parts.append(0.0)
            nov_vals.append(sum(novelty_parts) / len(novelty_parts))
        if rel_vals:
            rows.append(
                (
                    tradeoff,
                    sum(rel_vals) / len(rel_vals),
                    sum(nov_vals) / len(nov_vals),
                )
            )
    return rows


def fig_4_4_report(dataset: str = "imdb", setup: Chapter4Setup | None = None) -> str:
    setup = setup or build_setup(dataset)
    rows = fig_4_4(setup)
    return f"Fig. 4.4 ({setup.dataset}): relevance vs novelty\n" + format_table(
        ["lambda", "mean relevance", "mean novelty"], [list(r) for r in rows]
    )


def main() -> None:  # pragma: no cover - manual driver
    for dataset in ("imdb", "lyrics"):
        setup = build_setup(dataset)
        print(table_4_1(setup))
        print()
        print(fig_4_1_report(dataset, setup))
        print()
        print(fig_4_2_report(dataset, setup))
        print()
        print(fig_4_3_report(dataset, setup))
        print()
        print(fig_4_4_report(dataset, setup))
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
