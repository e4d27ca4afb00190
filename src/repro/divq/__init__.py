"""DivQ: diversification of keyword-search results over structured data
(Chapter 4).

DivQ re-ranks the *query interpretations* of a keyword query — before any
results are materialized — to balance relevance and novelty (Eq. 4.4,
Alg. 4.1), and evaluates the outcome with the thesis' adapted metrics
α-nDCG-W (Eq. 4.5/4.6) and WS-recall (Eq. 4.7).
"""

from repro.divq.analysis import probability_ratios, query_ambiguity_entropy
from repro.divq.assessors import AssessorPool, simulate_assessments
from repro.divq.diversify import DiversificationResult, diversify
from repro.divq.metrics import (
    alpha_ndcg_w,
    overlap_penalty_exponent,
    subtopic_relevance,
    ws_recall,
)
from repro.divq.similarity import jaccard_similarity

__all__ = [
    "AssessorPool",
    "DiversificationResult",
    "alpha_ndcg_w",
    "diversify",
    "jaccard_similarity",
    "overlap_penalty_exponent",
    "probability_ratios",
    "query_ambiguity_entropy",
    "simulate_assessments",
    "subtopic_relevance",
    "ws_recall",
]
