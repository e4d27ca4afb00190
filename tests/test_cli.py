"""Unit tests for repro.cli."""

import pytest

from repro.cli import build_parser, main
from repro.core.probability import DivQModel
from repro.datasets.workload import WORKLOAD_SAMPLERS
from repro.divq.diversify import divq_model, diversify, relevance_pool
from repro.db.backends.sqlite import SQLiteBackend
from repro.engine import QueryEngine


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["search", "hanks 2001", "--dataset", "imdb", "--k", "3"])
        assert args.query == "hanks 2001"
        assert args.k == 3

    def test_search_runs(self, capsys):
        code = main(["search", "hanks", "--dataset", "imdb", "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "interpretations" in out

    def test_search_no_hits(self, capsys):
        code = main(["search", "zzzzzz", "--dataset", "imdb"])
        assert code == 1

    def test_construct_scripted(self, capsys):
        code = main(
            ["construct", "hanks 2001", "--dataset", "imdb", "--answers", "n", "y"]
        )
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "[y/n]" in out

    def test_diversify_runs(self, capsys):
        code = main(["diversify", "london", "--dataset", "imdb", "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "diversified" in out

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["search", "hanks", "--dataset", "nope"])


def _printed_algebra(out: str) -> list[str]:
    return [line.split(". ", 1)[1] for line in out.splitlines() if line.startswith("  ")]


@pytest.mark.parametrize("dataset", ["imdb", "lyrics"])
def test_diversify_runs_chapter_4s_pipeline(dataset, capsys):
    """`repro diversify` ranks by DivQ's model (Eq. 4.2), keeps P > 0, pools 25."""
    engine = QueryEngine.for_dataset(
        dataset,
        model_factory=lambda e: DivQModel(
            e.index, e.catalog, database=e.backend, check_nonempty=True
        ),
    )
    for item in WORKLOAD_SAMPLERS[dataset](engine.backend, n_queries=25):
        text = str(item.query)
        pool = [(i, p) for i, p in engine.rank(text) if p > 0.0][:25]
        expected = [
            i.to_structured_query().algebra()
            for i in diversify(pool, k=5, tradeoff=0.5).selected
        ]
        code = main(["diversify", text, "--dataset", dataset, "--k", "5"])
        assert (code, _printed_algebra(capsys.readouterr().out)) == (
            0 if expected else 1,
            expected,
        ), text


@pytest.mark.parametrize(("dataset", "text"), [("imdb", "hanks 2001"), ("lyrics", "london")])
def test_diversify_prints_the_same_on_sqlite(dataset, text, capsys):
    argv = ["diversify", text, "--dataset", dataset, "--k", "5", "--tradeoff", "0.3"]
    assert main(argv) == 0
    memory = capsys.readouterr().out
    assert main(argv + ["--backend", "sqlite"]) == 0
    assert capsys.readouterr().out == memory


@pytest.mark.parametrize(("dataset", "text"), [("imdb", "hanks 2001"), ("lyrics", "london")])
def test_pure_relevance_prints_the_head_of_the_pool(dataset, text, capsys):
    """λ = 1 (Eq. 4.4) selects by relevance alone: the pool's first k, in order."""
    engine = QueryEngine.for_dataset(dataset)
    pool = relevance_pool(engine.with_model(divq_model).rank(text))
    expected = [i.to_structured_query().algebra() for i, _p in pool[:3]]
    assert main(["diversify", text, "--dataset", dataset, "--k", "3", "--tradeoff", "1"]) == 0
    assert _printed_algebra(capsys.readouterr().out) == expected


@pytest.mark.parametrize("k", [1, 2, 4])
def test_diversify_prints_k_interpretations_with_the_most_relevant_first(k, capsys):
    engine = QueryEngine.for_dataset("lyrics")
    pool = relevance_pool(engine.with_model(divq_model).rank("london"))
    assert len(pool) >= 4
    assert main(["diversify", "london", "--dataset", "lyrics", "--k", str(k)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"top-{k} diversified interpretations (lambda=0.5):"
    printed = _printed_algebra(out)
    assert len(printed) == k
    assert printed[0] == pool[0][0].to_structured_query().algebra()


def test_diversify_help_states_the_direction_of_lambda():
    sub = next(
        action for action in build_parser()._actions if action.dest == "command"
    ).choices["diversify"]
    text = " ".join(sub.format_help().split())
    assert "1 = pure relevance, 0 = pure novelty" in text
    assert "interpretations to select" in text


@pytest.mark.parametrize("command", ["construct", "diversify"])
def test_the_other_one_shot_commands_close_their_backend_too(
    command, tmp_path, monkeypatch, capsys
):
    closed = []
    original = SQLiteBackend.close
    monkeypatch.setattr(
        SQLiteBackend, "close", lambda self: (closed.append(self), original(self))[1]
    )
    argv = [command, "--backend", "sqlite", "--db-path", str(tmp_path / "c.sqlite"), "hanks 2001"]
    assert main(argv + (["--answers", "y", "n"] if command == "construct" else [])) == 0
    capsys.readouterr()
    assert len(closed) == 1 and closed[0]._closed
