"""Information gain of query construction options (Section 3.7.3).

``IG(I | O) = H(I) - H(I | O)`` where ``H(I)`` is the entropy of the
(current top level of the) interpretation space and ``H(I | O)`` the
conditional entropy once the user has told us whether option ``O`` subsumes
the intended interpretation (Eqs. 3.11-3.13).  :func:`most_informative` is
the greedy choice over candidate options that every construction path makes
with it: sessions, greedy plans, the §3.8.5 simulation and FreeQ's QCO
efficiency.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.probability import entropy, normalize

T = TypeVar("T")


def conditional_entropy(
    probabilities: Sequence[float], subsumed: Sequence[bool]
) -> float:
    """``H(I | O)`` for an option with the given subsumption pattern.

    ``probabilities`` are (possibly unnormalized) weights of the top-level
    interpretations; ``subsumed[i]`` says whether the option subsumes
    interpretation ``i``.
    """
    if len(probabilities) != len(subsumed):
        raise ValueError("probabilities/subsumed arity mismatch")
    probs = normalize(list(probabilities))
    p_yes = sum(p for p, s in zip(probs, subsumed) if s)
    p_no = 1.0 - p_yes
    h = 0.0
    if p_yes > 0.0:
        yes_branch = normalize([p for p, s in zip(probs, subsumed) if s])
        h += p_yes * entropy(yes_branch)
    if p_no > 0.0:
        no_branch = normalize([p for p, s in zip(probs, subsumed) if not s])
        h += p_no * entropy(no_branch)
    return h


def information_gain(
    probabilities: Sequence[float], subsumed: Sequence[bool]
) -> float:
    """``IG(I | O)`` (Eq. 3.11).  Maximal for an even probability split."""
    probs = normalize(list(probabilities))
    return entropy(probs) - conditional_entropy(probs, subsumed)


def splits(subsumed: Sequence[bool]) -> bool:
    """Whether an option with this subsumption pattern splits the set at all."""
    return any(subsumed) and not all(subsumed)


def most_informative(
    probabilities: Sequence[float],
    options: Iterable[T],
    subsumes: Callable[[T], Sequence[bool]],
) -> tuple[T | None, float]:
    """The greedy step of Alg. 3.2: the option to ask next, with its gain.

    ``subsumes(option)`` is the option's subsumption pattern over the
    interpretations ``probabilities`` weigh.  The first option with the
    largest positive information gain wins; ``(None, 0.0)`` when none splits.
    """
    best: T | None = None
    best_gain = 0.0
    for option in options:
        subsumed = subsumes(option)
        if not splits(subsumed):
            continue  # zero information
        gain = information_gain(probabilities, subsumed)
        if gain > best_gain:
            best, best_gain = option, gain
    return best, best_gain
