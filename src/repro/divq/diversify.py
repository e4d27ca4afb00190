"""The DivQ diversification algorithm (Section 4.4.4–4.4.5, Alg. 4.1).

Input: the top-k query interpretations ranked by relevance ``P(Q | K)``.
Output: a re-ranked list balancing relevance against novelty:

    Score(Q) = lambda * P(Q | K)  -  (1 - lambda) * avgSim(Q, selected)

Relevance and similarity are normalized to equal means before the
λ-weighting (Section 4.4.4).  The greedy selection uses the upper-bound
pruning of Alg. 4.1: while scanning the relevance-sorted remainder, stop as
soon as ``best_score > lambda * P(L[j])`` — no later candidate can win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from repro.core.interpretation import Interpretation
from repro.core.probability import DivQModel
from repro.divq.similarity import jaccard_similarity

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import QueryEngine

Q = TypeVar("Q")


def divq_model(engine: "QueryEngine") -> DivQModel:
    """Model factory: DivQ's Eq. 4.2 over ``engine``, empty interpretations at 0."""
    return DivQModel(engine.index, engine.catalog, database=engine.backend, check_nonempty=True)


def relevance_pool(ranked: Sequence[tuple[Q, float]], size: int = 25) -> list[tuple[Q, float]]:
    """The ``size`` most relevant items with ``P > 0``: Alg. 4.1's input."""
    return [(item, p) for item, p in ranked if p > 0.0][:size]


@dataclass
class DiversificationResult:
    """Re-ranked interpretations plus instrumentation counters."""

    selected: list  # items in diversified order
    relevance: list[float]  # normalized relevance, aligned with ``selected``
    #: Number of pairwise similarity evaluations performed (the efficiency
    #: measure behind Alg. 4.1's upper-bound pruning).
    similarity_computations: int = 0
    #: Candidates inspected across all selection rounds.
    candidates_scanned: int = 0


def diversify(
    ranked: Sequence[tuple[Q, float]],
    k: int,
    tradeoff: float = 0.5,
    similarity: Callable[[Q, Q], float] | None = None,
) -> DiversificationResult:
    """Select the top-``k`` relevant-and-diverse items from ``ranked``.

    Parameters
    ----------
    ranked:
        ``(item, relevance)`` pairs sorted by decreasing relevance — the
        output of the relevance ranking step.
    k:
        Number of items to output (``r`` in Alg. 4.1).
    tradeoff:
        The λ of Eq. 4.4: 1.0 is pure relevance, 0.0 pure novelty.
    similarity:
        Pairwise similarity in [0, 1].  Defaults to Jaccard similarity of
        interpretation atoms (Eq. 4.3).
    """
    if not 0.0 <= tradeoff <= 1.0:
        raise ValueError("tradeoff (lambda) must be in [0, 1]")
    if k < 0:
        raise ValueError("k must be non-negative")
    sim = similarity or _default_similarity
    items = [item for item, _rel in ranked]
    relevance = [rel for _item, rel in ranked]
    if any(r < 0 for r in relevance):
        raise ValueError("relevance values must be non-negative")
    n = len(items)
    if n == 0 or k == 0:
        return DiversificationResult(selected=[], relevance=[])

    # Normalize relevance to mean 1 (Section 4.4.4).  Similarity is already
    # a mean-bounded quantity in [0, 1]; we scale it to mean 1 over a sample
    # of adjacent pairs so both factors weigh comparably.
    mean_rel = sum(relevance) / n
    rel_scale = 1.0 / mean_rel if mean_rel > 0 else 1.0
    norm_rel = [r * rel_scale for r in relevance]
    sample_sims = [sim(items[i], items[i + 1]) for i in range(min(n - 1, 32))]
    mean_sim = sum(sample_sims) / len(sample_sims) if sample_sims else 0.0
    sim_scale = 1.0 / mean_sim if mean_sim > 0 else 1.0

    remaining = list(range(n))  # indexes into items, relevance-ordered
    selected: list[int] = [remaining.pop(0)]  # most relevant first (Alg. 4.1)
    sim_count = 0
    scanned = 0
    lam = tradeoff
    while len(selected) < k and remaining:
        best_score = float("-inf")
        best_pos = 0
        for pos, idx in enumerate(remaining):
            scanned += 1
            # Upper bound: the best possible score of any later candidate is
            # lambda * norm_rel (similarity discount is non-negative).
            if best_score > lam * norm_rel[idx]:
                break
            avg_sim = 0.0
            for chosen in selected:
                avg_sim += sim(items[idx], items[chosen])
                sim_count += 1
            avg_sim = (avg_sim / len(selected)) * sim_scale
            score = lam * norm_rel[idx] - (1.0 - lam) * avg_sim
            if score > best_score:
                best_score = score
                best_pos = pos
        selected.append(remaining.pop(best_pos))
    return DiversificationResult(
        selected=[items[i] for i in selected],
        relevance=[relevance[i] for i in selected],
        similarity_computations=sim_count,
        candidates_scanned=scanned,
    )


def _default_similarity(first: Q, second: Q) -> float:
    if isinstance(first, Interpretation) and isinstance(second, Interpretation):
        return jaccard_similarity(first, second)
    raise TypeError(
        "provide a similarity callable for non-Interpretation items"
    )
