"""The interactive query construction session (Alg. 3.2 end-to-end).

Runs the greedy information-gain construction over an incrementally expanded
query hierarchy against a simulated (or programmatic) user:

1. expand the hierarchy until its top level reaches the threshold ``T``,
2. score every candidate query construction option by information gain,
3. present the best option; the user accepts or rejects it; prune the
   frontier accordingly,
4. repeat until at most ``stop_size`` complete interpretations remain — the
   point at which the user "is able to quickly identify the intended query"
   (Section 3.8.2).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from typing import Callable, Protocol

from repro.core.generator import InterpretationGenerator
from repro.core.hierarchy import QueryHierarchy
from repro.core.interpretation import Interpretation
from repro.core.keywords import KeywordQuery
from repro.core.options import Option
from repro.core.probability import ProbabilityModel
from repro.engine import QueryEngine, resolve_generator_and_model
from repro.iqp.infogain import most_informative, splits

#: Produces the candidate QCOs at each construction step.  The default offers
#: the frontier atoms (Chapter 3); FreeQ substitutes ontology-based QCOs
#: (Chapter 5).
OptionProvider = Callable[[QueryHierarchy], list[Option]]


class ConstructionUser(Protocol):
    """Who answers the dialogue: :class:`repro.user.oracle.SimulatedUser`
    in the experiments, the person at the terminal in ``repro construct``."""

    evaluations: int
    evaluate: Callable[[Option], bool]
    picks: Callable[[Interpretation], bool]


@dataclass
class ConstructionResult:
    """Outcome of one construction session."""

    options_evaluated: int
    success: bool
    final_candidates: list[Interpretation] = field(default_factory=list)
    #: 1-based position of the intended interpretation in the final shortlist
    #: (None when construction failed).
    shortlist_rank: int | None = None
    generated_nodes: int = 0
    expansions: int = 0
    #: Wall-clock seconds spent computing each presented option.
    option_times: list[float] = field(default_factory=list)
    #: Dialogue transcript: (option description, user accepted?).
    transcript: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def mean_option_time(self) -> float:
        if not self.option_times:
            return 0.0
        return sum(self.option_times) / len(self.option_times)


class ConstructionSession:
    """One IQP construction dialogue for one keyword query."""

    def __init__(
        self,
        query: KeywordQuery,
        engine: QueryEngine | InterpretationGenerator,
        model: ProbabilityModel | None = None,
        threshold: int = 20,
        stop_size: int = 5,
        max_frontier: int = 10_000,
        max_steps: int = 500,
        option_provider: OptionProvider | None = None,
        selection_policy: str = "infogain",
        policy_seed: int = 0,
    ):
        if threshold < 1:
            raise ValueError("threshold must be positive")
        if selection_policy not in ("infogain", "random"):
            raise ValueError("selection_policy must be 'infogain' or 'random'")
        self.query = query
        self.generator, self.model = resolve_generator_and_model(engine, model)
        self.threshold = threshold
        self.stop_size = stop_size
        self.max_frontier = max_frontier
        self.max_steps = max_steps
        self.option_provider: OptionProvider = option_provider or (
            lambda hierarchy: hierarchy.frontier_atoms()
        )
        #: "infogain" is Alg. 3.2; "random" is the ablation control that
        #: presents an arbitrary splitting option at each step.
        self.selection_policy = selection_policy
        self._policy_rng = random.Random(policy_seed)

    # -- option scoring ----------------------------------------------------

    def _best_option(self, hierarchy: QueryHierarchy) -> Option | None:
        """The next option per the selection policy, if any splits the frontier."""
        frontier = hierarchy.frontier
        options = self.option_provider(hierarchy)

        def subsumes(option: Option) -> list[bool]:
            return [option.matches(node.atoms) for node in frontier]

        if self.selection_policy == "random":
            splitting = [option for option in options if splits(subsumes(option))]
            return self._policy_rng.choice(splitting) if splitting else None
        return most_informative([node.weight for node in frontier], options, subsumes)[0]

    # -- main loop -----------------------------------------------------------

    def run(self, user: ConstructionUser) -> ConstructionResult:
        hierarchy = QueryHierarchy(
            self.query, self.generator, self.model, max_frontier=self.max_frontier
        )
        expansions = 0
        option_times: list[float] = []
        transcript: list[tuple[str, bool]] = []
        steps = 0
        while steps < self.max_steps:
            steps += 1
            # Alg. 3.2: keep the top level at least threshold-sized while
            # expansion is possible.
            while hierarchy.can_expand() and len(hierarchy) < self.threshold:
                hierarchy.expand_once()
                expansions += 1
            if not hierarchy.frontier:
                return ConstructionResult(
                    options_evaluated=user.evaluations,
                    success=False,
                    generated_nodes=hierarchy.generated_nodes,
                    expansions=expansions,
                    option_times=option_times,
                    transcript=transcript,
                )
            if hierarchy.at_complete_level() and len(hierarchy) <= self.stop_size:
                break
            started = time.perf_counter()
            option = self._best_option(hierarchy)
            option_times.append(time.perf_counter() - started)
            if option is None:
                if hierarchy.can_expand():
                    hierarchy.expand_once()
                    expansions += 1
                    continue
                break  # nothing distinguishes the frontier; hand over shortlist
            accepted = user.evaluate(option)
            transcript.append((option.describe(), accepted))
            if accepted:
                hierarchy.accept(option)
            else:
                hierarchy.reject(option)

        hierarchy.expand_to_complete()
        candidates = hierarchy.complete_interpretations()
        probabilities = hierarchy.frontier_probabilities()
        order = sorted(
            range(len(candidates)),
            key=lambda i: (-probabilities[i] if i < len(probabilities) else 0.0, i),
        )
        shortlist = [candidates[i] for i in order]
        shortlist_rank = None
        for position, interp in enumerate(shortlist, start=1):
            if user.picks(interp):
                shortlist_rank = position
                break
        return ConstructionResult(
            options_evaluated=user.evaluations,
            success=shortlist_rank is not None,
            final_candidates=shortlist,
            shortlist_rank=shortlist_rank,
            generated_nodes=hierarchy.generated_nodes,
            expansions=expansions,
            option_times=option_times,
            transcript=transcript,
        )
