"""`cli query` answers through query.KINDS: its mode table names real kinds
and supplies every input column they read, every mode prints its kind's
columns under one header, and the plain modes print exactly what the
independent pure-Python oracle ranks."""

import inspect
import shutil

import pytest
import ray.data as rd

from splade_ray import cli
from splade_ray.build import build_index
from splade_ray.corpus import generate_corpus
from splade_ray.oracle import OracleIndex
from splade_ray.query import KINDS, QueryEngine

IDX = "/tmp/splade_ray_cli_query_idx"


def _argv(flag, ids):
    """(TEXT, extra argv) that gives ``flag`` a non-empty answer on the
    120-doc seed-5 corpus; ``ids`` are doc ids of the "merge lambda" hits
    (``ids[0]`` the top one)."""
    return {
        None: ("merge lambda", []),
        "--prefix": ("mer", []),
        "--fuzzy": ("mrge", []),
        "--must": ("lambda", ["merge"]),
        "--must-not": ("lambda", ["yield"]),
        "--msm": ("lambda yield merge", ["2"]),
        "--wildcard": ("w?ite", []),
        "--regexp": ("merg.*", []),
        "--mget": (f"{ids[0]},{ids[1]} {ids[2]}", []),
        "--qs": ("+merge -yield lambda^2 pars* fuzy~1", []),
        "--explain": ("merge lambda", [str(ids[0])]),
        "--after": ("merge lambda", ["1.0", str(ids[0])]),
        "--syn": ("lambda", ["lambda=lambda,yield"]),
        "--rescore": ("merge lambda", ["20"]),
        "--clause": ("ignored", ["merge", "--clause", "lambda yield"]),
        "--negative": ("merge", ["yield"]),
        "--suggest-term": ("mrege", []),
        "--adjacent": ("lambda", ["yield"]),
        "--pin": ("lambda", [str(ids[0])]),
        "--shuffle": ("lambda", ["7"]),
        "--const-score": ("lambda", ["2.5"]),
        "--rank-feature": ("lambda", ["30"]),
        "--distance-feature": ("lambda", ["40"]),
        "--validate": ("merge zzznope lambda", []),
        "--multi-match": ("merge lambda", [IDX]),
        "--suggest-phrase": ("mrege sett", []),
        "--t-test": ("lambda", ["yield"]),
        "--scroll": ("lambda", ["2"]),
        "--filter-bucket": ("merge", ["a=lambda", "--filter-bucket",
                                      "b=yield"]),
    }.get(flag, ("lambda", []))


def _query(flag, ids, index=IDX):
    text, extra = _argv(flag, ids)
    return (["query", text, "--index", index]
            + ([flag] if flag else []) + extra)


@pytest.fixture(scope="module")
def corpus_table():
    return generate_corpus(120, seed=5)


@pytest.fixture(scope="module")
def idx(corpus_table, ray_session):
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(rd.from_arrow(corpus_table), IDX, lang_tagged=False,
                n_shards=2)
    return IDX


@pytest.fixture(scope="module")
def ids(idx):
    return [int(d) for d in
            QueryEngine(idx).search_one("merge lambda", None)[0]]


@pytest.fixture(scope="module")
def oracle(corpus_table):
    rows = [dict(zip(corpus_table.column_names, vals))
            for vals in zip(*[c.to_pylist() for c in corpus_table.columns])]
    return OracleIndex(rows, lang_tagged=False)


def _rows(capsys, argv) -> tuple[list[str], list[list[str]]]:
    assert cli.main(argv) == 0, argv
    lines = capsys.readouterr().out.splitlines()
    assert lines and lines[0] != "no results", argv
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


def test_mode_table_names_kinds_and_supplies_their_inputs():
    engine_kw = set(inspect.signature(QueryEngine.__init__).parameters)
    assert len({m.flag for m in cli._MODES}) == len(cli._MODES)
    for m in cli._MODES:
        args = cli._parser().parse_args(_query(m.flag, [11, 12, 13], "x"))
        kind, kw, cols = cli._query_plan(args)
        assert kind == m.kind, m.flag
        assert set(kw) <= engine_kw, m.flag
        if m.kind is None:
            assert m.flag == "--validate"
            continue
        assert m.kind in KINDS, m.flag
        assert set(KINDS[m.kind].inputs) <= {"query"} | set(cols), m.flag
    # no flag set: the plain BM25 page
    args = cli._parser().parse_args(_query(None, [11, 12, 13], "x"))
    assert cli._query_plan(args)[0] == "text"


@pytest.mark.parametrize("flag", [None] + [m.flag for m in cli._MODES])
def test_every_mode_prints_its_kinds_columns(idx, ids, capsys, flag):
    header, rows = _rows(capsys, _query(flag, ids))
    kind = next((m.kind for m in cli._MODES if m.flag == flag), "text")
    if kind is None:
        want = ["term", "qtf", "df"]
    else:
        want = [f.name for f in KINDS[kind].schema_for(QueryEngine(idx))
                if f.name != "query_id"]
    assert header == want
    assert rows and all(len(r) == len(want) for r in rows)


def _ranked(hits) -> list[list[str]]:
    """Oracle (doc_id, score[, lang]) hits -> printed rows."""
    return [[str(r), str(d), f"{s:.9f}", *rest]
            for r, (d, s, *rest) in enumerate(hits, start=1)]


@pytest.mark.parametrize("flag", [None, "--prefix", "--fuzzy", "--wildcard",
                                  "--collapse", "--agg", "--count",
                                  "--must"])
def test_plain_modes_print_the_oracle_answer(idx, ids, oracle, capsys, flag):
    text, _ = _argv(flag, ids)
    want = {
        None: lambda: _ranked(oracle.search(text, None, k=10)),
        "--prefix": lambda: _ranked(oracle.search_prefix(text, None, k=10)),
        "--fuzzy": lambda: _ranked(oracle.search_fuzzy(text, None, k=10)),
        "--wildcard": lambda: _ranked(oracle.search_wildcard(text, None,
                                                              k=10)),
        "--collapse": lambda: _ranked(oracle.search_collapse(text, None,
                                                              k=10)),
        "--agg": lambda: sorted([lg, str(n), f"{b:.9f}"] for lg, (n, b)
                                in oracle.lang_agg(text).items()),
        "--count": lambda: [[str(oracle.count_hits(text))]],
        "--must": lambda: _ranked(oracle.search_bool(
            must=["merge"], should=[text], k=10)),
    }[flag]()
    _, got = _rows(capsys, _query(flag, ids))
    assert (sorted(got) if flag == "--agg" else got) == want
    assert want
