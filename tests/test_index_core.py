"""Engines on one index generation share one immutable ``_IndexCore``.

Contracts under test:
  * a rebuild, compaction or merge into a reused directory is never served
    from the previous generation's core (answers equal the oracle);
  * engines opened before and after a ``delete_docs`` share the core and
    its caches but each answers exactly over its own tombstone set;
  * a full engine and an ``ord_range`` engine never share a cache bundle;
  * a refresh that drops the old engine first still reuses its core and
    warm caches;
  * dropped engines leave at most one core alive;
  * engines on one bundle together respect ``cache_postings_budget``;
  * ``TermSuggester``, ``phrase.index_stats`` and ``cli phrase`` accept an
    alias like every other index path.
"""

import gc
import os
import shutil
import weakref

import numpy as np
import pytest
import ray.data as rd

from splade_ray.alias import set_alias
from splade_ray.build import SCORE_SCALE, build_index, read_docs
from splade_ray.corpus import generate_corpus, generate_queries
from splade_ray.delete import compact_index, delete_docs
from splade_ray.merge import add_generation
from splade_ray.oracle import OracleIndex
from splade_ray.query import QueryEngine, TermSuggester, _IndexCore

ROOT = "/tmp/splade_ray_index_core_test"
KW = dict(lang_tagged=True, n_shards=4, hot_df_min=30, hot_df_frac=0.05,
          positions=True)
K = 10
QUERIES = list(zip(generate_queries()["query"].to_pylist(),
                   [lg or None for lg in
                    generate_queries()["lang"].to_pylist()]))


@pytest.fixture(scope="module")
def corpus(ray_session):
    """300 files: the base index is built over the first 200, the two
    increments are the next 50 each."""
    tbl = generate_corpus(300, seed=57)
    shutil.rmtree(ROOT, ignore_errors=True)
    os.makedirs(ROOT)
    base = os.path.join(ROOT, "base")
    build_index(rd.from_arrow(tbl.slice(0, 200)), base, **KW)
    return tbl, base


def _copy(base: str, name: str) -> str:
    """A private copy of the base index (its own realpath, so its own
    core), for tests that delete or rebuild."""
    d = os.path.join(ROOT, name)
    shutil.rmtree(d, ignore_errors=True)
    shutil.copytree(base, d)
    return d


def _answers(eng: QueryEngine) -> list:
    return [[(int(d), int(u)) for d, u in zip(*eng.search_one(q, lg))]
            for q, lg in QUERIES]


def _expected(rows: list[dict], dead=()) -> list:
    """The oracle's ranking over ``rows`` minus ``dead`` ids: scores keep
    the stats of all of ``rows`` (tombstones freeze stats until compaction)."""
    oracle = OracleIndex(rows, lang_tagged=True)
    dead = set(int(x) for x in dead)
    out = []
    for q, lg in QUERIES:
        hits = oracle.search(q, lang=lg, k=oracle.n_docs)
        out.append([(d, round(sc * SCORE_SCALE)) for d, sc in hits
                    if d not in dead][:K])
    return out


def _doc_ids(index_dir: str) -> np.ndarray:
    return np.sort(np.asarray(
        [r["doc_id"] for r in read_docs(index_dir, columns=["doc_id"])
         .take_all()], dtype=np.int64))


def test_rebuild_into_same_dir_opens_new_core(corpus):
    tbl, base = corpus
    d = _copy(base, "rebuilt")
    old = QueryEngine(d, k=K)  # kept alive: its core stays registered
    assert _answers(old) == _expected(tbl.slice(0, 200).to_pylist())
    other = tbl.slice(100, 150)
    build_index(rd.from_arrow(other), d, overwrite=True, **KW)
    new = QueryEngine(d, k=K)
    assert new._core is not old._core
    assert _answers(new) == _expected(other.to_pylist())


def test_compaction_into_reused_out_dir_opens_new_core(corpus):
    tbl, base = corpus
    src = _copy(base, "compact_src")
    out = os.path.join(ROOT, "compacted")
    shutil.rmtree(out, ignore_errors=True)
    rows = tbl.slice(0, 200).to_pylist()
    ids = _doc_ids(src)
    delete_docs(src, ids[::7])
    compact_index(src, out)
    first = QueryEngine(out, k=K)
    dead1 = set(ids[::7].tolist())
    live1 = [r for r, i in zip(rows, _row_ids(rows)) if i not in dead1]
    assert _answers(first) == _expected(live1)
    delete_docs(src, ids[1::5])
    compact_index(src, out)
    second = QueryEngine(out, k=K)
    assert second._core is not first._core
    dead2 = dead1 | set(ids[1::5].tolist())
    live2 = [r for r, i in zip(rows, _row_ids(rows)) if i not in dead2]
    assert _answers(second) == _expected(live2)


def _row_ids(rows: list[dict]) -> list[int]:
    from splade_ray.ids import doc_id63

    return [doc_id63(r["repo"], r["path"], r["commit"]) for r in rows]


def test_add_generation_into_reused_out_dir_opens_new_core(corpus):
    tbl, base = corpus
    out = os.path.join(ROOT, "added")
    for p in (out, out + ".gen"):
        shutil.rmtree(p, ignore_errors=True)
    engines = []
    for lo in (200, 250):
        # overwrite: an in-memory corpus has no fingerprint, so a second
        # build into the same generation dir would otherwise resume it
        add_generation(base, rd.from_arrow(tbl.slice(lo, 50)), out,
                       overwrite=lo > 200)
        eng = QueryEngine(out, k=K)
        assert all(eng._core is not e._core for e in engines)
        engines.append(eng)
        rows = tbl.slice(0, 200).to_pylist() + tbl.slice(lo, 50).to_pylist()
        assert _answers(eng) == _expected(rows)


@pytest.mark.parametrize("scorer", ["taat", "bmw"])
def test_engines_before_and_after_delete_share_core_not_tombstones(
        corpus, scorer):
    tbl, base = corpus
    d = _copy(base, f"tomb_{scorer}")
    rows = tbl.slice(0, 200).to_pylist()
    before = QueryEngine(d, k=K, scorer=scorer)
    want_before = _expected(rows)
    assert _answers(before) == want_before  # warms the shared caches
    dead = _doc_ids(d)[::4]
    delete_docs(d, dead)
    after = QueryEngine(d, k=K, scorer=scorer)
    assert after._core is before._core
    assert after._caches is before._caches
    assert len(before.tomb) == 0 and len(after.tomb) == len(dead)
    want_after = _expected(rows, dead)
    assert want_after != want_before
    # interleaved, so each engine answers out of caches the other filled
    for _ in range(2):
        assert _answers(after) == want_after
        assert _answers(before) == want_before


def test_full_and_range_engines_never_share_a_bundle(corpus):
    _tbl, base = corpus
    d = _copy(base, "ranges")
    fresh = _copy(base, "ranges_fresh")
    full = QueryEngine(d, k=K)
    n = full.n_docs
    want_full = _answers(full)
    for rng in ((0, n // 3), (n // 3, n)):
        part = QueryEngine(d, k=K, ord_range=rng)
        assert part._core is full._core
        assert part._caches is not full._caches
        want = _answers(QueryEngine(fresh, k=K, ord_range=rng))
        got = _answers(part)
        assert got == want
        ords = [part.docs.ords_of_ids(np.asarray([i for i, _ in a],
                                                 dtype=np.int64))
                for a in got if a]
        assert all(((o >= rng[0]) & (o < rng[1])).all() for o in ords)
    # and the range bundles left the full engine's answers alone
    assert _answers(QueryEngine(d, k=K)) == want_full


def test_refresh_after_drop_reuses_core_and_caches(corpus):
    """The usual refresh drops the old engine before opening the next: the
    strong slot keeps the core and its warm bundle for it, and a dictionary
    reader with no engine (index_stats) keeps its core the same way."""
    from splade_ray.phrase import index_stats

    _tbl, base = corpus
    d = _copy(base, "refresh")
    eng = QueryEngine(d, k=K)
    want = _answers(eng)
    core, caches = weakref.ref(eng._core), weakref.ref(eng._caches)
    assert caches().n > 0
    del eng
    gc.collect()
    eng = QueryEngine(d, k=K)
    assert eng._core is core() and eng._caches is caches()
    assert _answers(eng) == want
    del eng
    s = _copy(base, "refresh_stats")
    index_stats(s, ["py:def"])
    held = [c for c in _IndexCore._live.values() if c.dir == s]
    assert len(held) == 1
    gc.collect()
    assert _IndexCore.open(s) is held[0]


def test_dropped_engines_leave_at_most_one_core(corpus):
    _tbl, base = corpus
    dirs = [base] + [_copy(base, f"drop{i}") for i in range(2)]
    engines = [QueryEngine(d, k=K) for d in dirs]
    assert len({id(e._core) for e in engines}) == 3
    del engines
    gc.collect()
    alive = [c for c in list(_IndexCore._live.values()) if c.dir in dirs]
    assert len(alive) <= 1


@pytest.mark.parametrize("budget", [0, 300, 5_000])
def test_engines_on_one_bundle_respect_the_budget(corpus, budget):
    _tbl, base = corpus
    d = _copy(base, f"budget{budget}")
    engines = [QueryEngine(d, k=K, scorer=s, cache_postings_budget=budget)
               for s in ("taat", "bmw", "taat")]
    caches = engines[0]._caches
    assert all(e._caches is caches for e in engines)
    for e in engines:
        _answers(e)
    held = (sum(len(v[0]) for v in caches.full.values())
            + sum(len(v[0]) for v in caches.units.values())
            + sum(len(b[0]) for blocks in caches.blocks.values()
                  for b in blocks.values()))
    assert held == caches.n <= budget
    if budget == 5_000:
        assert held > 0


def test_suggester_and_index_stats_accept_an_alias(corpus):
    from splade_ray.phrase import index_stats

    _tbl, base = corpus
    alias = os.path.join(ROOT, "stats.alias")
    set_alias(alias, base)
    for pre in ("d", "im", "da", "zz"):
        assert (TermSuggester(alias, n=5).suggest_one(pre)
                == TermSuggester(base, n=5).suggest_one(pre))
    terms = ["py:def", "py:import", "go:func", "nope:zz"]
    got = index_stats(alias, terms)
    assert got == index_stats(base, terms)
    assert got[2]  # some terms were found


def test_cli_phrase_on_an_alias(corpus, capsys):
    from splade_ray import cli
    from splade_ray.analyzer import tokens_py

    tbl, base = corpus
    alias = os.path.join(ROOT, "phrase.alias")
    set_alias(alias, base)
    toks = next(t for t in (tokens_py(x) for x in
                            tbl.slice(0, 200)["content"].to_pylist()
                            if x and x.strip()) if len(t) >= 2)
    phrase = " ".join(toks[:2])
    assert cli.main(["phrase", phrase, "--index", base]) == 0
    want = capsys.readouterr().out
    assert want.strip() and "no results" not in want
    assert cli.main(["phrase", phrase, "--index", alias]) == 0
    assert capsys.readouterr().out == want
