"""Serving-feature parity: search_after deep pagination, explain score
breakdown, query-time synonym expansion, and regexp dictionary rewrite —
engine vs brute force / oracle, across forward-array layouts and under
tombstone masking."""

import os
import re
import shutil

import numpy as np
import pytest
import ray.data as rd

from splade_ray import build
from splade_ray.build import build_index
from splade_ray.corpus import generate_corpus
from splade_ray.oracle import OracleIndex
from splade_ray.query import QueryEngine

N_FILES = 300
ROOT = "/tmp/splade_ray_serving_test"
KW = dict(lang_tagged=False, n_shards=4, hot_df_min=30, hot_df_frac=0.05)
QUERIES = ["merge window", "vector join batch", "the", "stream",
           "customer filter"]


@pytest.fixture(scope="module")
def corpus_table():
    return generate_corpus(N_FILES, seed=57)


@pytest.fixture(scope="module")
def flat_dir(corpus_table, ray_session):
    idx = os.path.join(ROOT, "flat")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_arrow(corpus_table).repartition(3), idx, **KW)
    return idx


@pytest.fixture(scope="module")
def sharded_dir(corpus_table, ray_session):
    idx = os.path.join(ROOT, "sharded")
    shutil.rmtree(idx, ignore_errors=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build, "DRIVER_SORT_MAX_DOCS", 10)
        build_index(rd.from_arrow(corpus_table).repartition(3), idx, **KW)
    return idx


@pytest.fixture(scope="module")
def oracle(corpus_table):
    rows = [dict(zip(corpus_table.column_names, vals))
            for vals in zip(*[c.to_pylist() for c in corpus_table.columns])]
    return OracleIndex(rows, lang_tagged=False)


def _page(e, q, k):
    ids, units = e.search_one(q)
    return list(zip(ids.tolist(), units.tolist()))[:k]


# ------------------------------------------------------------ search_after --

@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_search_after_continues_global_order(flat_dir, sharded_dir, layout):
    idx = flat_dir if layout == "flat" else sharded_dir
    k = 7
    big = QueryEngine(idx, k=3 * k)
    e = QueryEngine(idx, k=k, query_kind="search_after")
    for q in QUERIES:
        ids, units = big.search_one(q)
        full = list(zip(ids.tolist(), units.tolist()))
        # walk three pages by cursor and compare to the global order
        cursor = None
        got = []
        for _ in range(3):
            if cursor is None:
                page = full[:k]
            else:
                pids, punits = e.search_after(q, cursor[1], cursor[0])
                page = list(zip(pids.tolist(), punits.tolist()))
            got.extend(page)
            if len(page) < k:
                break
            cursor = page[-1]
        assert got == full[: len(got)], q


def test_search_after_tie_cursor(ray_session):
    """Cursor landing INSIDE a run of equal-units docs must resume at the
    doc-id tiebreak, not drop or repeat the rest of the run: identical
    contents guarantee identical scores."""
    import pyarrow as pa

    rows = [{"repo": "r", "path": f"p{i}", "commit": "c", "lang": "en",
             "content": "merge window alpha beta"} for i in range(8)]
    rows += [{"repo": "r", "path": f"q{i}", "commit": "c", "lang": "en",
              "content": "merge gamma delta epsilon zeta eta theta"}
             for i in range(4)]
    idx = os.path.join(ROOT, "ties")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_arrow(pa.Table.from_pylist(rows)), idx, **KW)
    e = QueryEngine(idx, k=12)
    ids, units = e.search_one("merge")
    assert len(ids) == 12
    u, c = np.unique(units, return_counts=True)
    assert (c >= 4).any()  # the tie run exists by construction
    sa = QueryEngine(idx, k=12, query_kind="search_after")
    for mid in (0, 3, 7, 10):  # cursors inside and across both runs
        pids, punits = sa.search_after("merge", int(units[mid]),
                                       int(ids[mid]))
        assert pids.tolist() == ids.tolist()[mid + 1:], mid
        assert punits.tolist() == units.tolist()[mid + 1:], mid


def test_search_after_masks_tombstones(flat_dir, ray_session):
    from splade_ray.delete import delete_docs
    from splade_ray.docmap import open_doc_arrays

    idx = os.path.join(ROOT, "sa_deleted")
    shutil.rmtree(idx, ignore_errors=True)
    shutil.copytree(flat_dir, idx)
    dead = np.sort(open_doc_arrays(idx).docmap_array())[::3]
    delete_docs(idx, dead)
    big = QueryEngine(idx, k=20)
    sa = QueryEngine(idx, k=10, query_kind="search_after")
    for q in QUERIES:
        ids, units = big.search_one(q)
        full = list(zip(ids.tolist(), units.tolist()))
        if len(full) <= 10:
            continue
        cu, cd = full[9][1], full[9][0]
        pids, punits = sa.search_after(q, cu, cd)
        assert list(zip(pids.tolist(), punits.tolist())) == full[10:20], q
        assert not (set(pids.tolist()) & set(dead.tolist()))


# ----------------------------------------------------------------- explain --

def test_explain_sums_to_score(flat_dir):
    e = QueryEngine(flat_dir, k=5)
    for q in QUERIES:
        ids, units = e.search_one(q)
        for d, u in zip(ids.tolist()[:3], units.tolist()[:3]):
            rows = e.explain(q, d)
            assert rows, (q, d)
            assert sum(r[4] for r in rows) == u, (q, d)
            # df matches the dictionary, tf >= 1, terms sorted + distinct
            terms = [r[0] for r in rows]
            assert terms == sorted(set(terms))
            assert all(r[3] >= 1 for r in rows)


def test_explain_absent_doc_and_query(flat_dir):
    e = QueryEngine(flat_dir, k=5)
    assert e.explain("merge window", 12345) == []
    ids, _ = e.search_one("merge")
    assert e.explain("nonexistentzzterm", int(ids[0])) == []


# ----------------------------------------------------------------- synonym --

def test_synonym_matches_expanded_oracle(flat_dir, oracle):
    syn = {"merge": ["merge", "join"], "join": ["join", "merge"],
           "window": ["window", "frame"]}
    e = QueryEngine(flat_dir, k=8, synonyms=syn)
    from splade_ray.analyzer import tokens_py

    for q in ["merge window", "merge join", "the", "window"]:
        tf = {}
        for tok in tokens_py(q):
            tf[tok] = tf.get(tok, 0) + 1
        exp = {}
        for t, qtf in tf.items():
            for v in syn.get(t, (t,)):
                exp[v] = exp.get(v, 0) + qtf
        want = [(d, round(s * 1e9)) for d, s in
                oracle._rank_qterms(exp, 8)]
        ids, units = e.search_synonym(q)
        assert [(int(d), int(u)) for d, u in zip(ids, units)] == want, q


def test_synonym_empty_map_is_bm25(flat_dir):
    e = QueryEngine(flat_dir, k=8)
    for q in QUERIES:
        a = e.search_synonym(q)
        b = e.search_one(q)
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()


# ------------------------------------------------- minimum_should_match ----

def test_bool_min_should_match_matches_oracle(flat_dir, oracle):
    e = QueryEngine(flat_dir, k=8)
    cases = [
        ([], ["merge", "window", "batch"], [], 2),
        ([], ["merge", "window", "batch"], [], 3),
        (["stream"], ["vector", "join", "filter"], [], 2),
        ([], ["merge"], [], 2),           # msm > |should| -> empty
        ([], ["merge", "batch"], ["the"], 1),
        ([], ["merge", "window"], [], 0),  # msm=0 == plain bool
    ]
    for must, should, must_not, msm in cases:
        got = [(int(d), int(u)) for d, u in
               zip(*e.search_bool(must, should, must_not,
                                  min_should_match=msm))]
        want = [(d, round(s * 1e9)) for d, s in
                oracle.search_bool(must, should, must_not, k=8,
                                   min_should_match=msm)]
        assert got == want, (must, should, must_not, msm)


# ----------------------------------------------------------- span_first ----

def test_span_first_matches_bruteforce(corpus_table, ray_session):
    """Positional 'first' spec == brute-force token positions."""
    from splade_ray.analyzer import tokens_py
    from splade_ray.build import build_index
    from splade_ray.ids import doc_id63
    from splade_ray.phrase import positional_units

    idx = os.path.join(ROOT, "pos_first")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_arrow(corpus_table).repartition(3), idx,
                positions=True, **KW)
    rows = [dict(zip(corpus_table.column_names, vals))
            for vals in zip(*[c.to_pylist() for c in corpus_table.columns])]
    for term, limit in (("merge", 5), ("window", 1), ("batch", 12)):
        specs = [{"qid": 0, "kind": "first", "term": term, "limit": limit}]
        got = {r["doc_id"] for r in positional_units(
            idx, specs, {0: [(term, 1.0)]}).take_all()}
        want = set()
        for r in rows:
            toks = tokens_py(r.get("content") or "")
            if term in toks[:limit]:
                want.add(doc_id63(r["repo"], r["path"], r["commit"]))
        assert got == want, (term, limit)


# --------------------------------------------------------- phrase_prefix ---

def test_phrase_prefix_matches_bruteforce(corpus_table, ray_session):
    """Positional phrase_prefix verification == brute force: head tokens
    consecutive, next token starts with the prefix."""
    from splade_ray.analyzer import tokens_py
    from splade_ray.build import build_index
    from splade_ray.ids import doc_id63
    from splade_ray.phrase import positional_units

    idx = os.path.join(ROOT, "pos_pp")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_arrow(corpus_table).repartition(3), idx,
                positions=True, **KW)
    rows = [dict(zip(corpus_table.column_names, vals))
            for vals in zip(*[c.to_pylist() for c in corpus_table.columns])]
    for head, pre in ((["merge"], "wi"),
                      (["vector", "join"], "ba"), (["the"], "zzz")):
        specs = [{"qid": 0, "kind": "phrase_prefix", "tokens": head,
                  "prefix": pre}]
        w = {0: [(t, 1.0) for t in head]}
        got = {r["doc_id"] for r in positional_units(
            idx, specs, w).take_all()}
        want = set()
        for r in rows:
            toks = tokens_py(r.get("content") or "")
            n = len(head)
            hit = any(
                toks[i:i + n] == head and toks[i + n].startswith(pre)
                for i in range(len(toks) - n))
            if hit:
                want.add(doc_id63(r["repo"], r["path"], r["commit"]))
        assert got == want, (head, pre)


# ----------------------------------------------------------------- rescore --

@pytest.mark.parametrize("scorer", ["taat", "bmw"])
def test_rescore_matches_bruteforce(flat_dir, oracle, scorer):
    """Two-phase rescore == brute force: BM25 top-window docs re-ranked by
    combined (bm25 + idf-coordination) units, doc_id tiebreak.

    scorer="bmw" is the regression for the phase-1 truncation bug: the
    configured scorer prunes candidates to top-k, so phase 1 MUST use
    complete sums (_sparse_sums) or docs bm25-ranked k+1..window are
    silently never rescored whenever rescore_window > k."""
    from splade_ray.build import SCORE_SCALE

    for window in (3, 8, 10_000):
        e = QueryEngine(flat_dir, k=6, query_kind="rescore",
                        rescore_window=window, scorer=scorer)
        for q in QUERIES:
            from splade_ray.analyzer import tokens_py

            tf = {}
            for tok in tokens_py(q):
                tf[tok] = tf.get(tok, 0) + 1
            acc = oracle._acc_units(tf)
            page = sorted(((u, d) for d, u in acc.items() if u > 0),
                          key=lambda x: (-x[0], x[1]))[:window]
            want = []
            for u, d in page:
                coord = sum(
                    round(qtf * oracle.idf(t) * SCORE_SCALE)
                    for t, qtf in tf.items()
                    if d in oracle.postings.get(t, {}))
                want.append((u + coord, d))
            want = sorted(((c, d) for c, d in want),
                          key=lambda x: (-x[0], x[1]))[:6]
            ids, units = e.search_rescore(q)
            got = list(zip(units.tolist(), ids.tolist()))
            assert got == want, (q, window)


# ----------------------------------------------------- sharded fan-out -----

@pytest.mark.parametrize("n_shards", [2, 3])  # 3 pools max: session has 4 CPUs
def test_sharded_docvalue_kinds_match_pool(flat_dir, n_shards, ray_session):
    """collapse / lang_agg / count / search_after through the doc-range
    fan-out must equal the single-pool answer (kind-aware merges)."""
    import pyarrow as pa

    from splade_ray.query import run_queries, run_queries_sharded

    tbl = pa.table({
        "query_id": pa.array(range(len(QUERIES)), type=pa.int64()),
        "query": pa.array(QUERIES),
    })

    def _norm(df, cols):
        return df.sort_values(cols).reset_index(drop=True)

    rng_kw = {"dl_ranges": [(0, 25), (25, 60), (60, None)]}
    for kind, cols, ekw in (("collapse", ["query_id", "rank"], None),
                            ("lang_agg", ["query_id", "lang"], None),
                            ("count", ["query_id"], None),
                            ("dl_hist", ["query_id", "bucket"], None),
                            ("stats", ["query_id"], None),
                            ("range", ["query_id", "bucket"], rng_kw)):
        base = _norm(run_queries(rd.from_arrow(tbl), flat_dir, k=6,
                                 concurrency=2, query_kind=kind,
                                 engine_kwargs=ekw).to_pandas(),
                     cols)
        shard = _norm(run_queries_sharded(
            rd.from_arrow(tbl), flat_dir, k=6, n_query_shards=n_shards,
            concurrency_per_shard=1, query_kind=kind,
            engine_kwargs=ekw).to_pandas(), cols)
        assert base.to_dict("list") == shard.to_dict("list"), (kind, n_shards)

    # search_after: cursor at rank 4 of a k=12 page, both paths
    e = QueryEngine(flat_dir, k=12)
    rows = []
    for qid, q in enumerate(QUERIES):
        ids, units = e.search_one(q)
        if len(ids) > 4:
            rows.append({"query_id": qid, "query": q,
                         "cursor_units": int(units[3]),
                         "cursor_doc": int(ids[3])})
    sa_tbl = pa.Table.from_pylist(rows)
    base = _norm(run_queries(rd.from_arrow(sa_tbl), flat_dir, k=6,
                             concurrency=2,
                             query_kind="search_after").to_pandas(),
                 ["query_id", "rank"])
    shard = _norm(run_queries_sharded(
        rd.from_arrow(sa_tbl), flat_dir, k=6, n_query_shards=n_shards,
        concurrency_per_shard=1, query_kind="search_after").to_pandas(),
        ["query_id", "rank"])
    assert base.to_dict("list") == shard.to_dict("list"), n_shards


@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_round5_kinds_match_pool(flat_dir, n_shards, ray_session):
    """ext_stats / random_score / adjacency / pinned / constant_score /
    rank_feature / mad / composite through the doc-range fan-out must
    equal the single-pool answer (kind-aware merges)."""
    import pyarrow as pa

    from splade_ray.query import QueryEngine, run_queries, \
        run_queries_sharded

    tbl = pa.table({
        "query_id": pa.array(range(len(QUERIES)), type=pa.int64()),
        "query": pa.array(QUERIES),
    })
    adj = pa.table({
        "query_id": pa.array([0, 1], type=pa.int64()),
        "query": pa.array([f"{QUERIES[0]}|||{QUERIES[2]}",
                           f"{QUERIES[3]}|||zzznothing"]),
    })
    e = QueryEngine(flat_dir, k=8)
    ids, _ = e.search_one(QUERIES[2])
    pins = sorted(int(i) for i in ids[:3])

    def _norm(df, cols):
        return df.sort_values(cols).reset_index(drop=True)

    cases = (
        ("ext_stats", tbl, ["query_id"], None),
        ("random_score", tbl, ["query_id", "rank"], {"random_seed": 7}),
        ("adjacency", adj, ["query_id"], None),
        ("pinned", tbl, ["query_id", "rank"], {"pinned_ids": pins}),
        ("constant_score", tbl, ["query_id", "rank"],
         {"const_boost": 2.0}),
        ("rank_feature", tbl, ["query_id", "rank"], {"rf_pivot": 25}),
        ("mad", tbl, ["query_id"], None),
        ("composite", tbl, ["query_id", "lang", "bucket"],
         {"comp_width": 8, "comp_size": 3, "comp_after": ("de", 8)}),
    )
    for kind, qt, cols, ekw in cases:
        base = _norm(run_queries(rd.from_arrow(qt), flat_dir, k=6,
                                 concurrency=2, query_kind=kind,
                                 engine_kwargs=ekw).to_pandas(), cols)
        shard = _norm(run_queries_sharded(
            rd.from_arrow(qt), flat_dir, k=6, n_query_shards=n_shards,
            concurrency_per_shard=1, query_kind=kind,
            engine_kwargs=ekw).to_pandas(), cols)
        assert base.to_dict("list") == shard.to_dict("list"), (kind,
                                                               n_shards)


# ------------------------------------------------------------------ regexp --

def _dict_terms(e):
    terms = set()
    for seg in e.segments:
        terms.update(seg._terms.to_pylist())
    return sorted(terms)


def test_regexp_expansion_matches_linear_scan(flat_dir):
    e = QueryEngine(flat_dir, k=5)
    vocab = _dict_terms(e)
    for pat in ["merge?", "w.ndow", "(join|merge)", "custom[a-z]+",
                "agg", "zz[0-9]+", "[bc]atch(es)?"]:
        want = sorted(t for t in vocab if re.fullmatch(pat, t))
        assert e.expand_regexp(pat) == want, pat


def test_regexp_rejects_bad_patterns(flat_dir):
    e = QueryEngine(flat_dir, k=5)
    with pytest.raises(ValueError):
        e.expand_regexp("Has Space")
    with pytest.raises(ValueError):
        e.expand_regexp("")
    with pytest.raises(re.error):
        e.expand_regexp("a(b")  # malformed: rejected at compile
    with pytest.raises(ValueError):
        e.expand_regexp(".*", max_expansion=10)  # TooManyClauses guard


def test_regexp_optional_quantifier_and_alternation(ray_session):
    """Adversarial dictionary for the literal-prefix rewrite: 'merge?'
    must also scan the 'merg' run (the quantified char is optional), and
    a top-level alternation must not treat the left alternative as a
    mandatory prefix (code-review finding: both silently dropped terms)."""
    import pyarrow as pa

    rows = [{"repo": "r", "path": f"p{i}", "commit": "c", "lang": "en",
             "content": content}
            for i, content in enumerate(
                ["merg alpha", "merge beta", "merger gamma", "cd delta",
                 "ab epsilon", "abx zeta"])]
    idx = os.path.join(ROOT, "regexp_adversarial")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_arrow(pa.Table.from_pylist(rows)), idx, **KW)
    e = QueryEngine(idx, k=5)
    vocab = _dict_terms(e)
    for pat in ["merge?", "merge+", "merg|cd", "ab?|cd", "ab|cd",
                "(ab|cd)", "merge[rs]?", "a?b"]:
        want = sorted(t for t in vocab if re.fullmatch(pat, t))
        assert e.expand_regexp(pat) == want, pat
    assert "merg" in e.expand_regexp("merge?")
    assert {"ab", "cd"} <= set(e.expand_regexp("ab?|cd"))


def test_sharded_rejects_unmergeable_kinds(flat_dir, ray_session):
    import pyarrow as pa

    from splade_ray.query import run_queries_sharded

    tbl = pa.table({"query_id": pa.array([0], type=pa.int64()),
                    "query": pa.array(["merge"])})
    with pytest.raises(ValueError, match="not shard-mergeable"):
        run_queries_sharded(rd.from_arrow(tbl), flat_dir,
                            query_kind="rescore_partial")


@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_rescore_and_explain_match_pool(flat_dir, n_shards,
                                                ray_session):
    """Round 5 made the last two kinds shard-exact: rescore runs each
    range as a window-partial (bm25 + coord units) with a global re-cut
    in the merge; explain rows are owned by exactly one range, merge =
    union."""
    import pyarrow as pa

    from splade_ray.query import run_queries, run_queries_sharded

    tbl = pa.table({
        "query_id": pa.array(range(len(QUERIES)), type=pa.int64()),
        "query": pa.array(QUERIES),
    })
    kw = {"rescore_window": 40}
    base = run_queries(rd.from_arrow(tbl), flat_dir, k=6, concurrency=2,
                       query_kind="rescore", engine_kwargs=kw).to_pandas()
    shard = run_queries_sharded(
        rd.from_arrow(tbl), flat_dir, k=6, n_query_shards=n_shards,
        concurrency_per_shard=1, query_kind="rescore",
        engine_kwargs=kw).to_pandas()
    cols = ["query_id", "rank"]
    b = base.sort_values(cols).reset_index(drop=True)
    s = shard.sort_values(cols).reset_index(drop=True)
    assert b.to_dict("list") == s.to_dict("list"), n_shards

    # explain: pair each query with its pool top-1 doc
    e = QueryEngine(flat_dir, k=1)
    rows = []
    for qid, q in enumerate(QUERIES):
        ids, _ = e.search_one(q)
        if len(ids):
            rows.append({"query_id": qid, "query": q,
                         "doc_id": int(ids[0])})
    ex_tbl = pa.Table.from_pylist(rows)
    base = run_queries(rd.from_arrow(ex_tbl), flat_dir, concurrency=2,
                       query_kind="explain").to_pandas()
    shard = run_queries_sharded(
        rd.from_arrow(ex_tbl), flat_dir, n_query_shards=n_shards,
        concurrency_per_shard=1, query_kind="explain").to_pandas()
    cols = ["query_id", "doc_id", "term"]
    b = base.sort_values(cols).reset_index(drop=True)
    s = shard.sort_values(cols).reset_index(drop=True)
    assert b.to_dict("list") == s.to_dict("list"), n_shards


def test_sharded_synonym_passthrough(flat_dir, ray_session):
    """engine_kwargs (the synonym map) must reach every shard pool —
    without it sharded synonym silently degraded to plain BM25."""
    import pyarrow as pa

    from splade_ray.query import run_queries, run_queries_sharded

    # partner term must exist in the corpus vocab or the expansion is a
    # no-op (df=0 terms score nothing) — pick one from the dictionary
    partner = next(t for t in _dict_terms(QueryEngine(flat_dir, k=1))
                   if t != "merge")
    syn = {"merge": ["merge", partner]}
    tbl = pa.table({"query_id": pa.array([0], type=pa.int64()),
                    "query": pa.array(["merge"])})
    base = run_queries(rd.from_arrow(tbl), flat_dir, k=8, concurrency=2,
                       query_kind="synonym",
                       engine_kwargs={"synonyms": syn}).to_pandas()
    shard = run_queries_sharded(
        rd.from_arrow(tbl), flat_dir, k=8, n_query_shards=3,
        concurrency_per_shard=1, query_kind="synonym",
        engine_kwargs={"synonyms": syn}).to_pandas()
    base = base.sort_values("rank").reset_index(drop=True)
    shard = shard.sort_values("rank").reset_index(drop=True)
    assert base["doc_id"].tolist() == shard["doc_id"].tolist()
    assert base["score"].tolist() == shard["score"].tolist()
    # and it differs from the unexpanded query (the map took effect)
    plain = run_queries(rd.from_arrow(tbl), flat_dir, k=8,
                        concurrency=2).to_pandas()
    assert plain.sort_values("rank")["score"].tolist() != \
        base["score"].tolist()


def test_regexp_lang_tagged_expansion(corpus_table, ray_session):
    idx = os.path.join(ROOT, "tagged")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_arrow(corpus_table).repartition(3), idx,
                lang_tagged=True, n_shards=4)
    e = QueryEngine(idx, k=5)
    vocab = _dict_terms(e)
    # untagged call expands across every lang; tagged call restricts
    got_all = e.expand_regexp("merge?")
    want_all = sorted(t for t in vocab
                      if re.fullmatch(r"[a-z]+:(merge?)", t))
    assert got_all == want_all
    got_en = e.expand_regexp("merge?", lang="en")
    assert got_en == [t for t in want_all if t.startswith("en:")]


def test_synonym_lang_tagged_expands(corpus_table, ray_session):
    """Lang-tagged regression: _query_terms yields 'lg:tok' keys, so the
    synonym lookup must strip the tag and re-tag the expansion — before the
    fix every token fell through to (t,) and the query silently degraded to
    plain BM25.  Expanding 'merge' with group {merge, join} must equal the
    plain two-token query 'merge join' (same bag, same qtfs), and differ
    from plain 'merge' whenever 'join' actually matches."""
    idx = os.path.join(ROOT, "tagged_syn")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_arrow(corpus_table).repartition(3), idx,
                lang_tagged=True, n_shards=4)
    syn = {"merge": ["merge", "config"], "config": ["config", "merge"]}
    e = QueryEngine(idx, k=8, synonyms=syn)
    plain = QueryEngine(idx, k=8)
    for lang in (None, "py", "go"):
        got = e.search_synonym("merge", lang)
        want = plain.search_one("merge config", lang)
        assert got[0].tolist() == want[0].tolist(), lang
        assert got[1].tolist() == want[1].tolist(), lang
    # and the expansion actually recruits docs plain 'merge' misses (docs
    # containing 'config' but not 'merge' in some lang) — the broken path
    # returned exactly the un-expanded hit set
    big = QueryEngine(idx, k=100_000, synonyms=syn)
    assert len(big.search_synonym("merge", None)[0]) > \
        len(QueryEngine(idx, k=100_000).search_one("merge", None)[0])


def test_cli_query_mode_flags_are_exclusive(ray_session):
    """Conflicting query-mode flags error up front (rc 2) instead of
    silently winning by elif precedence; a non-positive --rescore window
    errors before the engine is ever constructed (dummy index path)."""
    from splade_ray import cli

    for argv in (
        ["query", "x", "--index", "/nonexistent", "--prefix", "--fuzzy"],
        ["query", "x", "--index", "/nonexistent", "--after", "1.0", "2",
         "--syn", "a=a,b"],
        ["query", "x", "--index", "/nonexistent", "--wildcard",
         "--rescore", "20"],
        ["query", "x", "--index", "/nonexistent", "--count", "--prefix"],
        ["query", "x", "--index", "/nonexistent", "--rescore", "-5"],
        ["query", "x", "--index", "/nonexistent", "--must", "a",
         "--rescore", "20"],
        ["query", "x", "--index", "/nonexistent", "--boost-by-len",
         "--prefix"],
        ["query", "x", "--index", "/nonexistent", "--cardinality",
         "--percentiles"],
        ["query", "x", "--index", "/nonexistent", "--percentiles",
         "--count"],
        ["query", "x", "--index", "/nonexistent", "--boxplot",
         "--scroll", "2"],
        ["query", "x", "--index", "/nonexistent", "--t-test", "y",
         "--weighted-avg"],
        ["query", "x", "--index", "/nonexistent", "--suggest-phrase",
         "--validate"],
        ["query", "x", "--index", "/nonexistent",
         "--filter-bucket", "a=b", "--count"],
        ["query", "x", "--index", "/nonexistent", "--scroll", "0"],
        ["query", "x", "--index", "/nonexistent",
         "--filter-bucket", "noequals"],
        ["query", "x", "--index", "/nonexistent",
         "--multi-match", "/nonexistent2", "--prefix"],
    ):
        assert cli.main(argv) == 2, argv


def test_stats_and_range_agg_match_bruteforce(flat_dir, oracle, corpus_table):
    """stats / range aggregation kinds vs a brute-force pass over the
    corpus token streams: full-hit-set doc_len reductions and explicit
    [lo, hi) bucket counts."""
    from splade_ray.analyzer import tokens_py

    dl, lang_of = {}, {}
    from splade_ray.ids import doc_id63
    for r in corpus_table.to_pylist():
        txt = r["content"]
        if txt is None or not txt.strip():
            continue
        dl[doc_id63(r["repo"], r["path"], r["commit"])] = len(tokens_py(txt))
    ranges = [(0, 25), (25, 60), (60, None)]
    e_stats = QueryEngine(flat_dir, query_kind="stats")
    e_rng = QueryEngine(flat_dir, query_kind="range", dl_ranges=ranges)
    big = QueryEngine(flat_dir, k=10**6)
    for q in QUERIES:
        ids, units = big.search_one(q)
        hits = [dl[int(d)] for d in ids]
        n, lo, hi, s = e_stats.search_stats(q)
        if not hits:
            assert n == 0
            continue
        assert (n, lo, hi, s) == (len(hits), min(hits), max(hits),
                                  sum(hits)), q
        buckets, counts = e_rng.search_range(q)
        want = {}
        for i, (rlo, rhi) in enumerate(ranges):
            c = sum(1 for d in hits
                    if d >= rlo and (rhi is None or d < rhi))
            if c:
                want[i] = c
        assert dict(zip(buckets.tolist(), counts.tolist())) == want, q


def test_range_agg_rejects_empty_range(flat_dir):
    with pytest.raises(ValueError, match="empty dl_range"):
        QueryEngine(flat_dir, query_kind="range", dl_ranges=[(10, 10)])


def test_dis_max_matches_bruteforce(flat_dir, oracle):
    """DisjunctionMax: per doc, best clause units + (tn*(rest))//td over
    complete per-clause sums — vs a brute-force replay via the oracle's
    accumulator; single clause degrades to plain BM25."""
    from splade_ray.analyzer import tokens_py

    e = QueryEngine(flat_dir, k=8, dismax_tie=(3, 10))
    cases = [["merge window", "customer filter"],
             ["the", "stream", "vector join batch"],
             ["merge window"],
             ["nonexistentzzterm", "stream"]]
    for clauses in cases:
        per = []
        for c in clauses:
            tf = {}
            for tok in tokens_py(c):
                tf[tok] = tf.get(tok, 0) + 1
            per.append({d: u for d, u in oracle._acc_units(tf).items()
                        if u > 0})
        docs = set().union(*per)
        comb = {}
        for d in docs:
            us = [p.get(d, 0) for p in per]
            comb[d] = max(us) + (3 * (sum(us) - max(us))) // 10
        want = sorted(((u, d) for d, u in comb.items()),
                      key=lambda x: (-x[0], x[1]))[:8]
        ids, units = e.search_dis_max(clauses)
        assert list(zip(units.tolist(), ids.tolist())) == want, clauses
    # the tie-break combine actually fires: single-term clauses over
    # co-occurring terms give max + 0.3*rest, which differs from the plain
    # union bag's full sum whenever a doc matches both clauses
    a = e.search_dis_max(["merge", "config"])  # co-occur in this corpus
    b = QueryEngine(flat_dir, k=8).search_one("merge config")
    assert a[1].tolist() != b[1].tolist()


def test_boosting_matches_bruteforce(flat_dir, oracle):
    """Boosting: positive BM25 with negative-matching docs demoted by
    (bn*u)//bd, never excluded — vs brute force; and the demotion must
    actually reorder something."""
    from splade_ray.analyzer import tokens_py

    e = QueryEngine(flat_dir, k=8, negative_boost=(1, 2))
    plain = QueryEngine(flat_dir, k=8)
    demoted_any = False
    for pos, neg in [("merge window", "the"),
                     ("customer filter", "stream"),
                     ("the", "merge"),
                     ("merge", "nonexistentzzterm")]:
        ptf, ntf = {}, {}
        for tok in tokens_py(pos):
            ptf[tok] = ptf.get(tok, 0) + 1
        for tok in tokens_py(neg):
            ntf[tok] = ntf.get(tok, 0) + 1
        pu = {d: u for d, u in oracle._acc_units(ptf).items() if u > 0}
        nset = {d for d, u in oracle._acc_units(ntf).items() if u > 0}
        comb = {d: (u // 2 if d in nset else u) for d, u in pu.items()}
        want = sorted(((u, d) for d, u in comb.items()),
                      key=lambda x: (-x[0], x[1]))[:8]
        ids, units = e.search_boosting(pos, neg)
        got = list(zip(units.tolist(), ids.tolist()))
        assert got == want, (pos, neg)
        if got and got != list(zip(*[x.tolist() for x in
                                     plain.search_one(pos)]))[:0] and \
                any(d in nset for d in pu):
            demoted_any = True
    assert demoted_any


@pytest.mark.parametrize("n_shards", [2, 3])
def test_dis_max_boosting_sharded_match_pool(flat_dir, n_shards,
                                             ray_session):
    import pyarrow as pa

    from splade_ray.query import run_queries, run_queries_sharded

    dm_tbl = pa.table({
        "query_id": pa.array([0, 1], type=pa.int64()),
        "clauses": pa.array([["merge window", "customer filter"],
                             ["the", "stream"]],
                            type=pa.list_(pa.string())),
    })
    bo_tbl = pa.table({
        "query_id": pa.array([0, 1], type=pa.int64()),
        "query": pa.array(["merge window", "the"]),
        "negative": pa.array(["the", "merge"]),
    })
    for kind, tbl in (("dis_max", dm_tbl), ("boosting", bo_tbl)):
        base = run_queries(rd.from_arrow(tbl), flat_dir, k=6, concurrency=2,
                           query_kind=kind).to_pandas()
        shard = run_queries_sharded(
            rd.from_arrow(tbl), flat_dir, k=6, n_query_shards=n_shards,
            concurrency_per_shard=1, query_kind=kind).to_pandas()
        cols = ["query_id", "rank"]
        b = base.sort_values(cols).reset_index(drop=True)
        s = shard.sort_values(cols).reset_index(drop=True)
        assert b.to_dict("list") == s.to_dict("list"), (kind, n_shards)


def test_top_hits_matches_bruteforce_and_sharded(flat_dir, oracle,
                                                 corpus_table, ray_session):
    """top_hits: best group_n docs per (query, lang) bucket over the full
    hit set — vs brute force via the oracle accumulator; sharded fan-out
    must re-cut to the identical pages."""
    import pyarrow as pa

    from splade_ray.analyzer import tokens_py
    from splade_ray.ids import doc_id63
    from splade_ray.query import run_queries, run_queries_sharded

    lang_of = {doc_id63(r["repo"], r["path"], r["commit"]): r["lang"]
               for r in corpus_table.to_pylist()
               if r["content"] and r["content"].strip()}
    e = QueryEngine(flat_dir, query_kind="top_hits", group_n=2)
    for q in QUERIES:
        tf = {}
        for tok in tokens_py(q):
            tf[tok] = tf.get(tok, 0) + 1
        acc = {d: u for d, u in oracle._acc_units(tf).items() if u > 0}
        want = {}
        for d in sorted(acc, key=lambda d: (-acc[d], d)):
            b = want.setdefault(lang_of[d], [])
            if len(b) < 2:
                b.append((d, acc[d]))
        ids, units, lgs, granks = e.search_top_hits(q)
        got = {}
        for d, u, lv, gr in zip(ids.tolist(), units.tolist(), lgs, granks):
            got.setdefault(lv, []).append((d, u))
        assert got == want, q
    tbl = pa.table({
        "query_id": pa.array(range(len(QUERIES)), type=pa.int64()),
        "query": pa.array(QUERIES),
    })
    kw = {"group_n": 2}
    base = run_queries(rd.from_arrow(tbl), flat_dir, concurrency=2,
                       query_kind="top_hits", engine_kwargs=kw).to_pandas()
    shard = run_queries_sharded(
        rd.from_arrow(tbl), flat_dir, n_query_shards=3,
        concurrency_per_shard=1, query_kind="top_hits",
        engine_kwargs=kw).to_pandas()
    cols = ["query_id", "lang", "grank"]
    b = base.sort_values(cols).reset_index(drop=True)
    s = shard.sort_values(cols).reset_index(drop=True)
    assert b.to_dict("list") == s.to_dict("list")


def test_sort_kind_matches_bruteforce(flat_dir, oracle, corpus_table,
                                      ray_session):
    """Field sort: the query filters, the page orders by the doc_len
    doc-value (doc_id tiebreak) — both directions, plus sharded parity."""
    import pyarrow as pa

    from splade_ray.analyzer import tokens_py
    from splade_ray.ids import doc_id63
    from splade_ray.query import run_queries, run_queries_sharded

    dl = {doc_id63(r["repo"], r["path"], r["commit"]):
          len(tokens_py(r["content"]))
          for r in corpus_table.to_pylist()
          if r["content"] and r["content"].strip()}
    for asc in (False, True):
        e = QueryEngine(flat_dir, k=7, query_kind="sort",
                        sort_ascending=asc)
        for q in QUERIES:
            tf = {}
            for tok in tokens_py(q):
                tf[tok] = tf.get(tok, 0) + 1
            hits = [d for d, u in oracle._acc_units(tf).items() if u > 0]
            want = sorted(hits, key=lambda d: (dl[d] if asc else -dl[d],
                                               d))[:7]
            ids, dls = e.search_sort(q, ascending=asc)
            assert ids.tolist() == want, (q, asc)
            assert dls.tolist() == [dl[d] for d in want], (q, asc)
    tbl = pa.table({
        "query_id": pa.array(range(len(QUERIES)), type=pa.int64()),
        "query": pa.array(QUERIES),
    })
    base = run_queries(rd.from_arrow(tbl), flat_dir, k=7, concurrency=2,
                       query_kind="sort").to_pandas()
    shard = run_queries_sharded(
        rd.from_arrow(tbl), flat_dir, k=7, n_query_shards=3,
        concurrency_per_shard=1, query_kind="sort").to_pandas()
    cols = ["query_id", "rank"]
    b = base.sort_values(cols).reset_index(drop=True)
    s = shard.sort_values(cols).reset_index(drop=True)
    assert b.to_dict("list") == s.to_dict("list")


def test_function_score_matches_bruteforce(flat_dir, oracle, corpus_table,
                                           ray_session):
    """function_score (field_value_factor on doc_len, boost_mode
    multiply): final units = BM25 units x doc_len, integer-exact vs the
    brute-force oracle; plus sharded parity."""
    import pyarrow as pa

    from splade_ray.analyzer import tokens_py
    from splade_ray.ids import doc_id63
    from splade_ray.query import run_queries, run_queries_sharded

    dl = {doc_id63(r["repo"], r["path"], r["commit"]):
          len(tokens_py(r["content"]))
          for r in corpus_table.to_pylist()
          if r["content"] and r["content"].strip()}
    e = QueryEngine(flat_dir, k=7, query_kind="function_score")
    for q in QUERIES:
        tf = {}
        for tok in tokens_py(q):
            tf[tok] = tf.get(tok, 0) + 1
        units = {d: u * dl[d]
                 for d, u in oracle._acc_units(tf).items() if u > 0}
        want = sorted(units, key=lambda d: (-units[d], d))[:7]
        ids, us = e.search_function_score(q)
        assert ids.tolist() == want, q
        assert us.tolist() == [units[d] for d in want], q
    tbl = pa.table({
        "query_id": pa.array(range(len(QUERIES)), type=pa.int64()),
        "query": pa.array(QUERIES),
    })
    base = run_queries(rd.from_arrow(tbl), flat_dir, k=7, concurrency=2,
                       query_kind="function_score").to_pandas()
    shard = run_queries_sharded(
        rd.from_arrow(tbl), flat_dir, k=7, n_query_shards=3,
        concurrency_per_shard=1, query_kind="function_score").to_pandas()
    cols = ["query_id", "rank"]
    b = base.sort_values(cols).reset_index(drop=True)
    s = shard.sort_values(cols).reset_index(drop=True)
    assert b.to_dict("list") == s.to_dict("list")


def test_cli_fuse_rankers(ray_session, tmp_path, capsys):
    """`fuse` fuses two eval-shaped CSVs with either Milvus ranker; bad
    inputs (single file, weight-count mismatch, weighted without scores)
    error with rc 2."""
    import pandas as pd

    from splade_ray import cli

    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    pd.DataFrame({"query_id": [1, 1], "rank": [1, 2], "doc_id": [10, 20],
                  "score": [3.0, 1.0]}).to_csv(a, index=False)
    pd.DataFrame({"query_id": [1, 1], "rank": [1, 2], "doc_id": [20, 30],
                  "score": [5.0, 4.0]}).to_csv(b, index=False)
    out = tmp_path / "fused.csv"

    assert cli.main(["fuse", str(a), str(b), "--ranker", "weighted",
                     "--weights", "0.7,0.3", "--out", str(out)]) == 0
    got = pd.read_csv(out)
    # doc10: 0.7*1.0; doc20: 0.7*0 + 0.3*1.0; doc30: 0.3*0
    assert got.sort_values("rank").doc_id.tolist() == [10, 20, 30]
    assert abs(got[got.doc_id == 10].weighted_score.iloc[0] - 0.7) < 1e-9

    assert cli.main(["fuse", str(a), str(b), "--out", str(out)]) == 0
    got = pd.read_csv(out)  # rrf: doc20 in both legs wins
    assert got.sort_values("rank").doc_id.iloc[0] == 20

    capsys.readouterr()
    assert cli.main(["fuse", str(a)]) == 2
    assert cli.main(["fuse", str(a), str(b), "--ranker", "weighted",
                     "--weights", "0.7"]) == 2
    noscore = tmp_path / "ns.csv"
    pd.DataFrame({"query_id": [1], "rank": [1],
                  "doc_id": [10]}).to_csv(noscore, index=False)
    assert cli.main(["fuse", str(noscore), str(b),
                     "--ranker", "weighted"]) == 2
    capsys.readouterr()


def test_cardinality_and_percentiles_match_bruteforce(flat_dir,
                                                      corpus_table):
    """cardinality / percentiles kinds vs a brute-force pass: distinct
    langs and DuckDB-quantile_disc doc_len percentiles over the FULL hit
    set; disc_percentiles itself is pinned against duckdb directly."""
    import math

    import duckdb

    from splade_ray.analyzer import tokens_py
    from splade_ray.ids import doc_id63
    from splade_ray.query import PERCENTILE_QS, disc_percentiles

    dl, lang_of = {}, {}
    for r in corpus_table.to_pylist():
        txt = r["content"]
        if txt is None or not txt.strip():
            continue
        d = doc_id63(r["repo"], r["path"], r["commit"])
        dl[d] = len(tokens_py(txt))
        lang_of[d] = r["lang"]
    e_card = QueryEngine(flat_dir, query_kind="cardinality")
    e_pct = QueryEngine(flat_dir, query_kind="percentiles")
    big = QueryEngine(flat_dir, k=10**6)
    con = duckdb.connect()
    exercised = False
    for q in QUERIES:
        ids, _units = big.search_one(q)
        hits = [int(d) for d in ids]
        langs = e_card.search_cardinality(q)
        assert sorted(langs) == sorted({lang_of[d] for d in hits}), q
        vals, counts = e_pct.search_dl_value_counts(q)
        if not hits:
            assert len(vals) == 0
            continue
        exercised = True
        n, ps = disc_percentiles(vals, counts, PERCENTILE_QS)
        lens = [dl[d] for d in hits]
        assert n == len(lens)
        want = con.execute(
            f"SELECT quantile_disc(x, {list(PERCENTILE_QS)}) "
            f"FROM unnest({lens}) t(x)").fetchone()[0]
        assert ps == want, q
    assert exercised


def test_cardinality_percentiles_sharded_match_single_pool(flat_dir,
                                                           ray_session):
    """The sharded fan-out (distinct-pair union / summed value histograms)
    must reproduce the single-pool rows exactly at several shard counts."""
    import pyarrow as pa
    import ray.data as rd

    from splade_ray.query import run_queries, run_queries_sharded

    qt = pa.table({
        "query_id": pa.array(range(len(QUERIES)), type=pa.int64()),
        "query": pa.array(QUERIES, type=pa.string()),
    })
    for kind in ("cardinality", "percentiles"):
        base = (run_queries(rd.from_arrow(qt), flat_dir, concurrency=1,
                            query_kind=kind)
                .to_pandas().sort_values("query_id").reset_index(drop=True))
        # 3 single-actor pools max — the pytest Ray session has 4 CPUs and
        # a union of N pools schedules all N actor pools at once
        for ns in (2, 3):
            got = (run_queries_sharded(rd.from_arrow(qt), flat_dir,
                                       n_query_shards=ns,
                                       concurrency_per_shard=1,
                                       query_kind=kind)
                   .to_pandas().sort_values("query_id")
                   .reset_index(drop=True))
            assert got[base.columns.tolist()].equals(base), (kind, ns)


def test_mget_semantics(flat_dir, corpus_table, ray_session):
    """mget: (doc_id, doc_len, lang) ascending for LIVE present ids;
    absent ids drop silently; tombstoned docs drop; the sharded fan-out's
    union merge reproduces the single-pool rows."""
    import pyarrow as pa
    import ray.data as rd
    import shutil as _sh

    from splade_ray.analyzer import tokens_py
    from splade_ray.delete import delete_docs
    from splade_ray.docmap import open_doc_arrays
    from splade_ray.ids import doc_id63
    from splade_ray.query import run_queries, run_queries_sharded

    want = {}
    for r in corpus_table.to_pylist():
        txt = r["content"]
        if txt is None or not txt.strip():
            continue
        d = doc_id63(r["repo"], r["path"], r["commit"])
        want[d] = (len(tokens_py(txt)), r["lang"])
    all_ids = sorted(want)
    req = all_ids[::4] + [12345, 99999]  # every 4th + two absent ids
    e = QueryEngine(flat_dir, query_kind="mget")
    ids, lens, lgs = e.mget(req)
    assert ids.tolist() == all_ids[::4]
    assert all(int(n) == want[d][0] for d, n in zip(ids, lens))
    assert all(lg == want[d][1] for d, lg in zip(ids, lgs))
    # tombstones drop
    idx2 = os.path.join(ROOT, "mget_deleted")
    _sh.rmtree(idx2, ignore_errors=True)
    _sh.copytree(flat_dir, idx2)
    dead = np.asarray(all_ids[::8], dtype=np.int64)
    delete_docs(idx2, dead)
    ids2, _l2, _g2 = QueryEngine(idx2, query_kind="mget").mget(req)
    assert not (set(ids2.tolist()) & set(dead.tolist()))
    assert set(ids2.tolist()) == set(all_ids[::4]) - set(dead.tolist())
    # sharded union == single pool
    qt = pa.table({"query_id": pa.array([0], type=pa.int64()),
                   "query": pa.array([",".join(map(str, req))],
                                     type=pa.string())})
    base = (run_queries(rd.from_arrow(qt), flat_dir, concurrency=1,
                        query_kind="mget").to_pandas())
    shard = (run_queries_sharded(rd.from_arrow(qt), flat_dir,
                                 n_query_shards=3, concurrency_per_shard=1,
                                 query_kind="mget").to_pandas())
    assert shard.reset_index(drop=True).equals(base.reset_index(drop=True))


def test_query_string_parser():
    from splade_ray.query import parse_query_string

    d = parse_query_string("+merge -sort window^3 lang:py win* batch")
    assert d["must"] == ["merge"]
    assert d["must_not"] == ["sort"]
    assert d["should"] == ["window", "batch"]
    assert d["prefixes"] == ["win"]
    assert d["boosts"] == {"window": 3}
    assert d["lang"] == "py"
    # max-boost rule on duplicates; '-' boosts never score
    d = parse_query_string("stream^2 stream -sort^9")
    assert d["boosts"] == {"stream": 2}
    assert d["must_not"] == ["sort"]
    # multi-token piece distributes its operator
    d = parse_query_string("+foo.bar baz")
    assert d["must"] == ["foo", "bar"] and d["should"] == ["baz"]
    d = parse_query_string("merg~ stream~2")
    assert d["fuzzies"] == [("merg", 1), ("stream", 2)]
    import pytest as _pt
    with _pt.raises(ValueError):
        parse_query_string("term^x")
    with _pt.raises(ValueError):
        parse_query_string("term^0")
    with _pt.raises(ValueError):
        parse_query_string("+win*")
    with _pt.raises(ValueError):
        parse_query_string("term~3")
    with _pt.raises(ValueError):
        parse_query_string("-term~1")


def test_query_string_matches_bool_and_prefix(flat_dir):
    """search_query_string must equal search_bool on the parsed structure
    (boost=1) and search_prefix on a pure-prefix query; a boosted query
    must actually change the ranking vs the unboosted one."""
    e = QueryEngine(flat_dir, k=10)
    a = e.search_query_string("+merge window -sort")
    b = e.search_bool(["merge"], ["window"], ["sort"])
    assert a[0].tolist() == b[0].tolist()
    assert a[1].tolist() == b[1].tolist()
    p1 = e.search_query_string("win*")
    p2 = e.search_prefix("win")
    assert p1[0].tolist() == p2[0].tolist()
    assert p1[1].tolist() == p2[1].tolist()
    f1 = e.search_query_string("merg~")
    f2 = e.search_fuzzy("merg")
    assert f1[0].tolist() == f2[0].tolist()
    assert f1[1].tolist() == f2[1].tolist()
    plain = e.search_query_string("merge stream")
    boosted = e.search_query_string("merge stream^4")
    assert plain[1].tolist() != boosted[1].tolist()


def test_lang_stats_agg_matches_bruteforce(flat_dir, corpus_table,
                                           ray_session):
    """lang_stats kind vs a brute-force pass: per-(query, lang) doc_len
    count/min/max/sum over the FULL hit set; the sharded fan-out's
    per-bucket merge reproduces the single-pool rows."""
    import pyarrow as pa

    from splade_ray.analyzer import tokens_py
    from splade_ray.ids import doc_id63
    from splade_ray.query import run_queries, run_queries_sharded

    dl, lang_of = {}, {}
    for r in corpus_table.to_pylist():
        txt = r["content"]
        if txt is None or not txt.strip():
            continue
        d = doc_id63(r["repo"], r["path"], r["commit"])
        dl[d] = len(tokens_py(txt))
        lang_of[d] = r["lang"]
    e = QueryEngine(flat_dir, query_kind="lang_stats")
    big = QueryEngine(flat_dir, k=10**6)
    for q in QUERIES:
        ids, _u = big.search_one(q)
        buckets: dict[str, list[int]] = {}
        for d in ids.tolist():
            buckets.setdefault(lang_of[d], []).append(dl[d])
        lvs, n, mn, mx, s = e.search_lang_stats(q)
        got = {lv: (int(n[i]), int(mn[i]), int(mx[i]), int(s[i]))
               for i, lv in enumerate(lvs)}
        want = {lv: (len(v), min(v), max(v), sum(v))
                for lv, v in buckets.items()}
        assert got == want, q
    qt = pa.table({"query_id": pa.array(range(len(QUERIES)),
                                        type=pa.int64()),
                   "query": pa.array(QUERIES, type=pa.string())})
    base = (run_queries(rd.from_arrow(qt), flat_dir, concurrency=1,
                        query_kind="lang_stats").to_pandas()
            .sort_values(["query_id", "lang"]).reset_index(drop=True))
    shard = (run_queries_sharded(rd.from_arrow(qt), flat_dir,
                                 n_query_shards=3, concurrency_per_shard=1,
                                 query_kind="lang_stats").to_pandas()
             .sort_values(["query_id", "lang"]).reset_index(drop=True))
    assert shard[base.columns.tolist()].equals(base)


def test_weighted_avg_lang_tagged_matches_bruteforce(tmp_path, ray_session):
    """On a lang-tagged index each hit is weighted by the tf of the first
    token's variant in the hit's OWN language (a doc has one language), so
    an untagged query whose first-listed language variant is absent still
    aggregates over every hit."""
    import pyarrow.parquet as pq

    from splade_ray.analyzer import tokens_py
    from splade_ray.corpus import corpus_parquet

    src = corpus_parquet(300, seed=7)
    idx = str(tmp_path / "tagged")
    build_index(rd.read_parquet(src), idx, lang_tagged=True, n_shards=4)
    orc = OracleIndex(pq.read_table(src).to_pylist(), lang_tagged=True)
    e = QueryEngine(idx, k=10)
    cases = [("lambda", None), ("merge window", None), ("stream", None),
             ("the", None), ("def import", "py"), ("func package", "go"),
             ("zzzzqqqxyzzy", None)]
    nonzero = 0
    for q, lang in cases:
        tok = tokens_py(q)[0]
        hits = [did for did, _ in orc._hits(q, lang)]
        w = {did: orc.postings.get(f"{orc.docs[did]['lang']}:{tok}", {})
             .get(did, 0) for did in hits}
        want = (len(hits), sum(w.values()),
                sum(orc.doc_len[d] * w[d] for d in hits))
        assert e.search_weighted_avg(q, lang) == want, (q, lang)
        nonzero += want[1] > 0
    assert nonzero >= 5
