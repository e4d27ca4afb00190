"""Probabilistic query-interpretation models (Sections 3.6 and 4.4.2).

Implements the thesis' decomposition of ``P(Q | K)`` (Eq. 3.5):

    P(Q | K)  propto  prod_i P(A_i : k_i | T ∩ A_i)  ×  P(T)

with three estimators:

* :class:`UniformModel` — the baseline of Fig. 3.5: every interpretation and
  option equally likely.
* :class:`ATFModel` — Attribute Term Frequency (Eq. 3.8) for value bindings,
  empirical constants for metadata bindings, template priors either uniform
  (``ATF, Tequal``) or estimated from a query log (``ATF, TLog``, Eq. 3.7).
* :class:`DivQModel` — the Chapter 4 refinement: keywords bound to the *same*
  attribute are scored by their joint cell frequency (keyword co-occurrence,
  Eq. 4.2), unbound keywords contribute the smoothing factor ``P_u``, and
  interpretations with empty results get zero probability.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from repro.core.interpretation import (
    Atom,
    Interpretation,
    OperatorAtom,
    TableAtom,
    ValueAtom,
)
from repro.core.templates import QueryTemplate

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database
    from repro.db.index import InvertedIndex


class ProbabilityModel(Protocol):
    """Anything that can weight interpretations and atoms.

    A model attached to a :class:`~repro.engine.QueryEngine` is treated as
    immutable — the engine memoises the spaces it ranked, keyed on store
    content and catalog ``version`` only.  Change parameters by attaching a
    new model with ``engine.with_model(...)``, which gets its own memo.
    """

    def atom_weight(self, atom: Atom, template: QueryTemplate) -> float:
        """Unnormalized ``P(A_i : k_i | T ∩ A_i)``."""
        ...

    def template_prior(self, template: QueryTemplate) -> float:
        """``P(T)``."""
        ...

    def interpretation_weight(self, interpretation: Interpretation) -> float:
        """Unnormalized ``P(Q | K)`` (Eq. 3.5 / 3.6)."""
        ...


def normalize(weights: Sequence[float]) -> list[float]:
    """Scale nonnegative weights to a probability distribution.

    An all-zero input maps to the uniform distribution — the probabilistic
    model must never leave the construction process without a frontier.
    """
    total = float(sum(weights))
    if total <= 0.0:
        n = len(weights)
        return [1.0 / n] * n if n else []
    return [w / total for w in weights]


def _product_weight(model: "ProbabilityModel", interpretation: Interpretation) -> float:
    """Eq. 3.5: the template prior times every bound atom's weight.

    ``assignment`` is already in canonical atom order (one atom per keyword,
    sorted by :func:`~repro.core.interpretation.atom_sort_key`), so the
    factors multiply in one fixed order and the float is reproducible.
    """
    template = interpretation.template
    weight = model.template_prior(template)
    for atom, _slot in interpretation.assignment:
        weight *= model.atom_weight(atom, template)
    return weight


def entropy(probabilities: Iterable[float]) -> float:
    """Shannon entropy in bits (used by the information-gain criterion)."""
    h = 0.0
    for p in probabilities:
        if p > 0.0:
            h -= p * math.log2(p)
    return h


@dataclass
class TemplateCatalog:
    """Template priors ``P(T)`` (Eq. 3.7).

    With a query log, ``P(T) = (#occurrences(T) + alpha) / N``; without one,
    all templates are equally probable (the ``Tequal`` configuration).
    """

    templates: list[QueryTemplate]
    alpha: float = 1.0
    _counts: Counter = field(default_factory=Counter)
    _total: int = 0
    #: Bumped by every log update; caches of ``prior()``-derived values key on it.
    version: int = field(default=0, init=False)

    def record_usage(self, template: QueryTemplate, count: int = 1) -> None:
        """Register ``count`` occurrences of ``template`` in the query log."""
        self._counts[template.identifier] += count
        self._total += count
        self.version += 1

    def record_log(self, identifiers: Iterable[str]) -> None:
        for identifier in identifiers:
            self._counts[identifier] += 1
            self._total += 1
        self.version += 1

    @property
    def has_log(self) -> bool:
        return self._total > 0

    def prior(self, template: QueryTemplate) -> float:
        if not self.templates:
            return 0.0
        if not self.has_log:
            return 1.0 / len(self.templates)
        smoothed_total = self._total + self.alpha * len(self.templates)
        return (self._counts[template.identifier] + self.alpha) / smoothed_total

    def frequency(self, template: QueryTemplate) -> float:
        """Raw log frequency of the template (0 when no log)."""
        if not self.has_log:
            return 0.0
        return self._counts[template.identifier] / self._total


@dataclass
class UniformModel:
    """Baseline of Section 3.8.2: all interpretations equally likely."""

    catalog: TemplateCatalog | None = None

    def atom_weight(self, atom: Atom, template: QueryTemplate) -> float:
        return 1.0

    def template_prior(self, template: QueryTemplate) -> float:
        return 1.0

    def interpretation_weight(self, interpretation: Interpretation) -> float:
        return 1.0


@dataclass
class ATFModel:
    """The IQP probabilistic model (Section 3.6.2).

    Value bindings are weighted by Attribute Term Frequency (Eq. 3.8); table
    name bindings by an empirical constant (the thesis uses values set by
    domain experts when no log records metadata usage).
    """

    index: "InvertedIndex"
    catalog: TemplateCatalog
    #: Empirical probability that a keyword matching a table name refers to it.
    table_match_weight: float = 0.5
    #: Empirical probability of an operator-word interpretation ("number" as
    #: COUNT of one particular table) — split across the schema's tables.
    operator_match_weight: float = 0.1

    def atom_weight(self, atom: Atom, template: QueryTemplate) -> float:
        if isinstance(atom, ValueAtom):
            return self.index.atf(atom.keyword.term, atom.table, atom.attribute)
        if isinstance(atom, TableAtom):
            return self.table_match_weight
        if isinstance(atom, OperatorAtom):
            return self.operator_match_weight
        raise TypeError(f"unknown atom type: {atom!r}")

    def template_prior(self, template: QueryTemplate) -> float:
        return self.catalog.prior(template)

    def interpretation_weight(self, interpretation: Interpretation) -> float:
        return _product_weight(self, interpretation)


@dataclass
class TFIDFModel:
    """Ablation model: TF-IDF in place of ATF for value bindings.

    Section 3.8.3 observes that TF-IDF (as used by SQAK) prefers
    *distinctive* interpretations where ATF prefers *typical* ones — and that
    typicality wins on real keyword workloads.  This model isolates exactly
    that statistic swap so the effect can be measured against ATF with
    everything else held fixed (``benchmarks/test_bench_ablations.py``).
    """

    index: "InvertedIndex"
    catalog: TemplateCatalog
    table_match_weight: float = 0.5

    def atom_weight(self, atom: Atom, template: QueryTemplate) -> float:
        if isinstance(atom, ValueAtom):
            tf = self.index.tf(atom.keyword.term, atom.table, atom.attribute)
            idf = self.index.idf(atom.keyword.term, atom.table)
            return math.sqrt(tf) * idf * idf
        if isinstance(atom, TableAtom):
            return self.table_match_weight
        if isinstance(atom, OperatorAtom):
            return 0.1
        raise TypeError(f"unknown atom type: {atom!r}")

    def template_prior(self, template: QueryTemplate) -> float:
        return self.catalog.prior(template)

    def interpretation_weight(self, interpretation: Interpretation) -> float:
        return _product_weight(self, interpretation)


@dataclass
class DivQModel:
    """The Chapter 4 model with keyword co-occurrence (Eq. 4.2).

    Keywords bound to one attribute are scored jointly via the attribute's
    cell-level co-occurrence frequency; a first+last name pair binding to the
    same ``name`` column therefore outranks split bindings.  Keywords of the
    original query left unbound contribute ``P_u`` each, and (optionally)
    interpretations with empty results are zeroed.
    """

    index: "InvertedIndex"
    catalog: TemplateCatalog
    #: Smoothing probability for keywords that match no database element.
    unmatched_probability: float = 1e-9
    table_match_weight: float = 0.5
    #: Additive smoothing on joint frequencies, keeping them positive.
    alpha: float = 1e-6
    database: "Database | None" = None
    check_nonempty: bool = False

    def atom_weight(self, atom: Atom, template: QueryTemplate) -> float:
        if isinstance(atom, ValueAtom):
            return self.index.atf(atom.keyword.term, atom.table, atom.attribute)
        return self.table_match_weight

    def template_prior(self, template: QueryTemplate) -> float:
        return self.catalog.prior(template)

    def interpretation_weight(self, interpretation: Interpretation) -> float:
        if self.check_nonempty and self.database is not None:
            if not interpretation.to_structured_query().has_results(self.database):
                return 0.0
        weight = self.template_prior(interpretation.template)
        # Group value atoms by (slot, attribute) to capture co-occurrence.
        groups: dict[tuple[int, str], list[str]] = {}
        for atom, slot in interpretation.assignment:
            if isinstance(atom, ValueAtom):
                groups.setdefault((slot, atom.attribute), []).append(atom.keyword.term)
            else:
                weight *= self.table_match_weight
        for (slot, attribute), terms in sorted(groups.items()):
            table = interpretation.template.path[slot]
            if len(terms) == 1:
                weight *= self.index.atf(terms[0], table, attribute)
            else:
                weight *= self.index.joint_cell_frequency(terms, table, attribute) + self.alpha
        unbound = len(interpretation.unbound_keywords)
        if unbound:
            weight *= self.unmatched_probability**unbound
        return weight


def rank_interpretations(
    interpretations: Sequence[Interpretation], model: ProbabilityModel
) -> list[tuple[Interpretation, float]]:
    """Rank a space by normalized ``P(Q | K)``, best first, deterministically.

    Equal probabilities are ordered by ``describe()``, which is rendered for
    the tied interpretations only.
    """
    weights = [model.interpretation_weight(i) for i in interpretations]
    probabilities = normalize(weights)
    by_probability = sorted(
        zip(interpretations, probabilities), key=lambda pair: -pair[1]
    )
    ranked: list[tuple[Interpretation, float]] = []
    for _probability, tied in groupby(by_probability, key=itemgetter(1)):
        group = list(tied)
        if len(group) > 1:
            group.sort(key=lambda pair: pair[0].describe())
        ranked.extend(group)
    return ranked
