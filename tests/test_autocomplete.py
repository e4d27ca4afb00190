"""Unit tests for repro.core.autocomplete."""

import pytest

from repro.core.autocomplete import AutoCompleter
from repro.datasets.imdb import build_imdb
from repro.db.backends import available_backends


class TestAutoCompleter:
    @pytest.fixture
    def completer(self, mini_db):
        return AutoCompleter(mini_db.require_index())

    def test_exact_prefix(self, completer):
        suggestions = completer.complete("han")
        assert suggestions
        assert suggestions[0].term == "hanks"
        assert not suggestions[0].fuzzy

    def test_frequency_order(self, completer):
        # "hanks" (3 occurrences) should precede rarer 'h...' terms if any.
        terms = [s.term for s in completer.complete("h")]
        assert terms[0] == "hanks"

    def test_full_term_prefix(self, completer):
        suggestions = completer.complete("london")
        assert any(s.term == "london" for s in suggestions)

    def test_fuzzy_fallback(self, completer):
        """Misspelled prefix 'hsnk' still reaches 'hanks' fuzzily."""
        suggestions = completer.complete("hsnk")
        assert suggestions
        assert any(s.term == "hanks" for s in suggestions)
        assert all(s.fuzzy for s in suggestions)

    def test_no_match(self, completer):
        assert completer.complete("qqqqq") == []

    def test_empty_prefix(self, completer):
        assert completer.complete("") == []
        assert completer.complete("   ") == []

    def test_case_insensitive(self, completer):
        assert completer.complete("HAN")[0].term == "hanks"

    def test_max_suggestions(self, mini_db):
        completer = AutoCompleter(mini_db.require_index(), max_suggestions=2)
        assert len(completer.complete("t")) <= 2


@pytest.mark.parametrize("backend", [b for b in available_backends() if b != "memory"])
def test_completions_are_identical_on_every_backend(backend):
    """Vocabulary and posting occurrences come out of the store's index alike."""
    kwargs = dict(seed=7, n_movies=40, n_actors=24, n_directors=8, n_companies=6)
    reference = AutoCompleter(build_imdb(**kwargs).require_index())
    other = AutoCompleter(build_imdb(**kwargs, backend=backend).require_index())
    prefixes = ["h", "lo", "st", "the", "20", "zzz", "lndon"]
    assert [other.complete(p) for p in prefixes] == [reference.complete(p) for p in prefixes]
    assert any(reference.complete(p) for p in prefixes)
