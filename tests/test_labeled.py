"""Unit tests for repro.core.labeled (labeled keyword search)."""

import pytest

from repro.core.generator import InterpretationGenerator
from repro.core.interpretation import TableAtom, ValueAtom
from repro.core.keywords import Keyword
from repro.core.labeled import Label, LabeledGenerator, parse_labeled


class TestParseLabeled:
    def test_plain_query_has_no_labels(self):
        lq = parse_labeled("hanks 2001")
        assert lq.labels == {}
        assert lq.query.terms == ("hanks", "2001")

    def test_table_label(self):
        lq = parse_labeled("actor:hanks 2001")
        assert lq.query.terms == ("hanks", "2001")
        assert lq.labels[0] == Label(table="actor")
        assert 1 not in lq.labels

    def test_attribute_label(self):
        lq = parse_labeled("movie.title:cool")
        assert lq.labels[0] == Label(table="movie", attribute="title")

    def test_positions_follow_token_expansion(self):
        lq = parse_labeled("actor:hanks movie:terminal")
        assert lq.labels[0].table == "actor"
        assert lq.labels[1].table == "movie"

    def test_multi_term_labeled_token(self):
        # A labeled token whose value tokenizes into two terms labels both.
        lq = parse_labeled("actor:tom-hanks")
        assert lq.query.terms == ("tom", "hanks")
        assert lq.labels[0].table == "actor"
        assert lq.labels[1].table == "actor"


class TestLabelAdmits:
    def test_table_label_admits_value_atoms_of_table(self):
        label = Label(table="actor")
        assert label.admits(ValueAtom(Keyword(0, "x"), "actor", "name"))
        assert not label.admits(ValueAtom(Keyword(0, "x"), "movie", "title"))

    def test_table_label_admits_table_atom(self):
        label = Label(table="actor")
        assert label.admits(TableAtom(Keyword(0, "actor"), "actor"))

    def test_attribute_label(self):
        label = Label(table="movie", attribute="title")
        assert label.admits(ValueAtom(Keyword(0, "x"), "movie", "title"))
        assert not label.admits(ValueAtom(Keyword(0, "x"), "movie", "year"))
        assert not label.admits(TableAtom(Keyword(0, "movie"), "movie"))

    def test_str(self):
        assert str(Label("movie", "title")) == "movie.title"
        assert str(Label("actor")) == "actor"


class TestLabeledGenerator:
    def test_labels_shrink_space(self, mini_db):
        base = InterpretationGenerator(mini_db, max_template_joins=2)
        plain = parse_labeled("hanks 2001")
        labeled = parse_labeled("actor:hanks 2001")
        plain_space = LabeledGenerator(base, plain).interpretations_for()
        labeled_space = LabeledGenerator(base, labeled).interpretations_for()
        assert 0 < len(labeled_space) <= len(plain_space)

    def test_labeled_atoms_respect_constraint(self, mini_db):
        base = InterpretationGenerator(mini_db, max_template_joins=2)
        labeled = parse_labeled("actor:hanks 2001")
        gen = LabeledGenerator(base, labeled)
        for interp in gen.interpretations_for():
            for atom in interp.atoms:
                if atom.keyword.position == 0:
                    assert atom.table == "actor"

    def test_attribute_label_pins_attribute(self, mini_db):
        base = InterpretationGenerator(mini_db, max_template_joins=2)
        labeled = parse_labeled("movie.title:hanks 2001")
        gen = LabeledGenerator(base, labeled)
        space = gen.interpretations_for()
        assert space
        for interp in space:
            for atom in interp.atoms:
                if atom.keyword.position == 0:
                    assert isinstance(atom, ValueAtom)
                    assert (atom.table, atom.attribute) == ("movie", "title")

    def test_impossible_label_empties_keyword(self, mini_db):
        base = InterpretationGenerator(mini_db, max_template_joins=2)
        labeled = parse_labeled("company:hanks")
        gen = LabeledGenerator(base, labeled)
        # "hanks" never occurs in a company table here: keyword excluded.
        assert gen.effective_keywords(labeled.query) == []

    @pytest.mark.parametrize(
        "text",
        ["actor:hanks 2001", "movie.title:hanks 2001", "actor:hanks movie:london", "hanks 2001"],
    )
    def test_labeled_space_is_the_admitted_part_of_the_base_space(self, mini_db, text):
        """Labels filter the base space; they never reorder or extend it."""
        base = InterpretationGenerator(mini_db, max_template_joins=4)
        labeled = parse_labeled(text)
        gen = LabeledGenerator(base, labeled)
        admitted = [
            interp
            for interp in base.interpretations(labeled.query)
            if all(
                label is None or label.admits(atom)
                for atom, _slot in interp.assignment
                for label in [labeled.label_of(atom.keyword)]
            )
        ]
        assert admitted
        assert gen.interpretations_for() == admitted

    def test_shares_every_piece_of_base_state(self, mini_db):
        base = InterpretationGenerator(mini_db, max_template_joins=2)
        gen = LabeledGenerator(base, parse_labeled("actor:hanks"))
        for name, value in vars(base).items():
            assert getattr(gen, name) is value, name
