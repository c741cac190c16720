"""Prefix (dictionary-rewrite) and boolean search parity vs the pure-Python
oracle — the Lucene PrefixQuery / BooleanQuery class of queries, answered
through the inverted index (SegmentReader.prefix_rows dictionary scan +
QueryEngine.search_prefix / search_bool)."""

import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from splade_ray.build import SCORE_SCALE, build_index
from splade_ray.corpus import generate_corpus
from splade_ray.oracle import OracleIndex
from splade_ray.query import QueryEngine, run_queries

N_FILES = 300
IDX = "/tmp/splade_ray_prefix_idx"
IDX_TAGGED = "/tmp/splade_ray_prefix_idx_tagged"


@pytest.fixture(scope="module")
def corpus_table():
    return generate_corpus(N_FILES, seed=23)


@pytest.fixture(scope="module")
def index_dir(corpus_table, ray_session):
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(rd.from_arrow(corpus_table).repartition(3), IDX,
                lang_tagged=False, n_shards=4, hot_df_min=30,
                hot_df_frac=0.05)
    return IDX


@pytest.fixture(scope="module")
def tagged_dir(corpus_table, ray_session):
    shutil.rmtree(IDX_TAGGED, ignore_errors=True)
    build_index(rd.from_arrow(corpus_table).repartition(3), IDX_TAGGED,
                lang_tagged=True, n_shards=4)
    return IDX_TAGGED


@pytest.fixture(scope="module")
def oracle(corpus_table):
    rows = [dict(zip(corpus_table.column_names, vals))
            for vals in zip(*[c.to_pylist() for c in corpus_table.columns])]
    return OracleIndex(rows, lang_tagged=False)


@pytest.fixture(scope="module")
def tagged_oracle(corpus_table):
    rows = [dict(zip(corpus_table.column_names, vals))
            for vals in zip(*[c.to_pylist() for c in corpus_table.columns])]
    return OracleIndex(rows, lang_tagged=True)


def _some_prefixes(oracle, n=8) -> list[str]:
    """Deterministic prefixes actually present in the corpus vocabulary,
    varied lengths, plus guaranteed misses."""
    vocab = sorted(oracle.postings)
    step = max(1, len(vocab) // n)
    pres = [vocab[i][:w] for i, w in
            zip(range(0, len(vocab), step), [2, 3, 4, 1, 3, 2, 5, 3])]
    return list(dict.fromkeys(p for p in pres if p)) + ["zzzzzz", "q9q9"]


# --------------------------------------------------------- dictionary scan --

def test_prefix_rows_matches_linear_scan(index_dir):
    eng = QueryEngine(index_dir)
    for seg in eng.segments:
        terms = seg._terms.to_pylist()
        for pre in ["a", "de", "mer", "zz", ""]:
            rows = seg.prefix_rows(pre)
            want = [i for i, t in enumerate(terms) if t.startswith(pre)]
            assert list(rows) == want, pre


def test_expand_prefix_matches_vocab(index_dir, oracle):
    eng = QueryEngine(index_dir)
    for pre in _some_prefixes(oracle):
        want = sorted({t for t in oracle.postings if t.startswith(pre)})
        assert eng.expand_prefix(pre) == want, pre


def test_expand_prefix_lang_tagged(tagged_dir, tagged_oracle):
    eng = QueryEngine(tagged_dir)
    lang = tagged_oracle.langs[0]
    # explicit lang: only that language's tagged run
    got = eng.expand_prefix("de", lang=lang)
    want = sorted({t for t in tagged_oracle.postings
                   if t.startswith(f"{lang}:de")})
    assert got == want
    # no lang: one run per corpus language
    got_all = eng.expand_prefix("de")
    want_all = sorted({t for lg in tagged_oracle.langs
                       for t in tagged_oracle.postings
                       if t.startswith(f"{lg}:de")})
    assert got_all == want_all


def test_expand_prefix_guards(index_dir):
    eng = QueryEngine(index_dir)
    with pytest.raises(ValueError, match="empty prefix"):
        eng.expand_prefix("  ")
    with pytest.raises(ValueError, match="longer prefix"):
        eng.expand_prefix("a", max_expansion=1)


# ------------------------------------------------------------ prefix search --

@pytest.mark.parametrize("scorer", ["taat", "bmw"])
def test_search_prefix_oracle_parity(index_dir, oracle, scorer):
    eng = QueryEngine(index_dir, k=10, scorer=scorer)
    for pre in _some_prefixes(oracle):
        want = oracle.search_prefix(pre, k=10)
        ids, units = eng.search_prefix(pre)
        got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
        assert got == want, (scorer, pre)


def test_search_prefix_normalizes_and_handles_empty(index_dir, oracle):
    eng = QueryEngine(index_dir, k=10)
    pre = _some_prefixes(oracle)[0]
    ids_lo, u_lo = eng.search_prefix(pre)
    ids_up, u_up = eng.search_prefix(pre.upper())
    assert ids_lo.tolist() == ids_up.tolist()
    assert u_lo.tolist() == u_up.tolist()
    ids, units = eng.search_prefix("!!! ...")
    assert len(ids) == 0 and len(units) == 0


def test_search_prefix_lang_tagged(tagged_dir, tagged_oracle):
    eng = QueryEngine(tagged_dir, k=10)
    lang = tagged_oracle.langs[-1]
    for pre in ["de", "im", "re"]:
        assert [(int(d), u / SCORE_SCALE) for d, u in
                zip(*eng.search_prefix(pre, lang=lang))] == \
            tagged_oracle.search_prefix(pre, lang=lang, k=10)
        assert [(int(d), u / SCORE_SCALE) for d, u in
                zip(*eng.search_prefix(pre))] == \
            tagged_oracle.search_prefix(pre, k=10)


def test_prefix_actor_pool_matches_direct(index_dir, oracle):
    prefs = _some_prefixes(oracle)
    tbl = pa.table({
        "query_id": pa.array(range(len(prefs)), type=pa.int64()),
        "query": pa.array(prefs),
    })
    res = run_queries(rd.from_arrow(tbl), index_dir, k=10, concurrency=2,
                      query_kind="prefix").to_pandas()
    eng = QueryEngine(index_dir, k=10)
    for qid, pre in enumerate(prefs):
        ids, units = eng.search_prefix(pre)
        sub = res[res.query_id == qid].sort_values("rank")
        assert sub.doc_id.tolist() == [int(i) for i in ids]
        np.testing.assert_allclose(sub.score.to_numpy(), units / SCORE_SCALE)


# ----------------------------------------------------- completion suggester --

def test_suggester_matches_vocab_df(index_dir, oracle):
    """Top-n by frozen df, ties term ASC — against the oracle's postings
    dicts (covers multi-segment + salted-row df summation)."""
    from splade_ray.query import TermSuggester

    sug = TermSuggester(index_dir, n=7)
    for pre in _some_prefixes(oracle):
        want = sorted(
            ((t, len(docs)) for t, docs in oracle.postings.items()
             if t.startswith(pre)),
            key=lambda kv: (-kv[1], kv[0]),
        )[:7]
        assert sug.suggest_one(pre) == want, pre


def test_suggester_lang_tagged(tagged_dir, tagged_oracle):
    """Tagged index: per-language scoping, and lang=None sums df across
    languages per RAW token."""
    from splade_ray.query import TermSuggester

    lang = tagged_oracle.langs[0]
    scoped = TermSuggester(tagged_dir, n=5, lang=lang)
    want = sorted(
        ((t.split(":", 1)[1], len(docs))
         for t, docs in tagged_oracle.postings.items()
         if t.startswith(f"{lang}:de")),
        key=lambda kv: (-kv[1], kv[0]),
    )[:5]
    assert scoped.suggest_one("de") == want

    agg: dict[str, int] = {}
    for t, docs in tagged_oracle.postings.items():
        lg, raw = t.split(":", 1)
        if raw.startswith("de"):
            agg[raw] = agg.get(raw, 0) + len(docs)
    want_all = sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert TermSuggester(tagged_dir, n=5).suggest_one("de") == want_all


def test_suggester_guard_and_empty(index_dir):
    from splade_ray.query import TermSuggester

    with pytest.raises(ValueError, match="longer prefix"):
        TermSuggester(index_dir, max_scan=1).suggest_one("d")
    assert TermSuggester(index_dir).suggest_one("!!! ...") == []
    assert TermSuggester(index_dir).suggest_one("zzzzzzq") == []


def test_suggest_actor_pool_matches_direct(index_dir, oracle):
    from splade_ray.query import TermSuggester, run_suggest

    prefs = _some_prefixes(oracle)
    tbl = pa.table({
        "query_id": pa.array(range(len(prefs)), type=pa.int64()),
        "query": pa.array(prefs),
    })
    res = run_suggest(rd.from_arrow(tbl), index_dir, n=5,
                      concurrency=2).to_pandas()
    sug = TermSuggester(index_dir, n=5)
    for qid, pre in enumerate(prefs):
        want = sug.suggest_one(pre)
        sub = res[res.query_id == qid].sort_values("rank")
        assert list(zip(sub.term, sub.df)) == want, pre
        assert sub["rank"].tolist() == list(range(1, len(want) + 1))


# ---------------------------------------------------------- wildcard search --

def _some_wildcards(oracle) -> list[str]:
    """Deterministic patterns over the real vocabulary: tail-star, ?, a
    leading star (full-dict scan), multi-star, a no-wildcard exact term,
    and a guaranteed miss."""
    vocab = sorted(t for t in oracle.postings if len(t) >= 4)
    a, b, c = vocab[0], vocab[len(vocab) // 2], vocab[-1]
    return [a[:3] + "*", b[:2] + "?" + b[3:], "*" + c[-2:],
            a[0] + "*" + a[2] + "*", b, "zz*9q"]


def test_expand_wildcard_matches_vocab(index_dir, oracle):
    import re

    eng = QueryEngine(index_dir)
    for pat in _some_wildcards(oracle):
        rx = re.compile("".join(
            ".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
            for ch in pat))
        want = sorted(t for t in oracle.postings if rx.fullmatch(t))
        assert eng.expand_wildcard(pat) == want, pat


def test_expand_wildcard_guards(index_dir):
    eng = QueryEngine(index_dir)
    with pytest.raises(ValueError, match="empty wildcard"):
        eng.expand_wildcard("  ")
    with pytest.raises(ValueError, match="outside"):
        eng.expand_wildcard("foo-bar*")
    with pytest.raises(ValueError, match="literal characters"):
        eng.expand_wildcard("*", max_expansion=1)


@pytest.mark.parametrize("scorer", ["taat", "bmw"])
def test_search_wildcard_oracle_parity(index_dir, oracle, scorer):
    eng = QueryEngine(index_dir, k=10, scorer=scorer)
    for pat in _some_wildcards(oracle):
        want = oracle.search_wildcard(pat, k=10)
        ids, units = eng.search_wildcard(pat)
        got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
        assert got == want, (scorer, pat)


def test_search_wildcard_lang_tagged(tagged_dir, tagged_oracle):
    eng = QueryEngine(tagged_dir, k=10)
    lang = tagged_oracle.langs[0]
    for pat in ["de*", "?ef", "*urn", "d*f"]:
        for lg in (None, lang):
            want = tagged_oracle.search_wildcard(pat, lang=lg, k=10)
            ids, units = eng.search_wildcard(pat, lang=lg)
            got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
            assert got == want, (pat, lg)


def test_wildcard_normalizes_and_empty(index_dir, oracle):
    eng = QueryEngine(index_dir, k=10)
    pat = _some_wildcards(oracle)[0]
    assert eng.search_wildcard(pat.upper())[0].tolist() == \
        eng.search_wildcard(pat)[0].tolist()
    ids, units = eng.search_wildcard("   ")
    assert len(ids) == 0 and len(units) == 0


def test_wildcard_actor_pool_matches_direct(index_dir, oracle):
    pats = _some_wildcards(oracle)
    tbl = pa.table({
        "query_id": pa.array(range(len(pats)), type=pa.int64()),
        "query": pa.array(pats),
    })
    res = run_queries(rd.from_arrow(tbl), index_dir, k=10, concurrency=2,
                      query_kind="wildcard").to_pandas()
    eng = QueryEngine(index_dir, k=10)
    for qid, pat in enumerate(pats):
        ids, units = eng.search_wildcard(pat)
        sub = res[res.query_id == qid].sort_values("rank")
        assert sub.doc_id.tolist() == [int(i) for i in ids]
        np.testing.assert_allclose(sub.score.to_numpy(), units / SCORE_SCALE)


# ------------------------------------------------------------- fuzzy search --

def _some_fuzzy_tokens(oracle, n=6) -> list[str]:
    """Deterministic one-edit misspellings of real vocabulary terms, plus a
    distance-0 hit and an unreachable token."""
    vocab = sorted(t for t in oracle.postings if len(t) >= 4)
    step = max(1, len(vocab) // n)
    picks = [vocab[i] for i in range(0, len(vocab), step)][:n]
    out = [picks[0][1:],              # deletion at 0
           picks[1] + "q",            # insertion at end
           "z" + picks[2][1:],        # substitution at 0
           picks[3][:2] + "9" + picks[3][3:],  # substitution mid
           picks[4]]                  # distance 0
    return list(dict.fromkeys(out)) + ["q9zq9zq9"]


@pytest.mark.parametrize("scorer", ["taat", "bmw"])
def test_search_fuzzy_oracle_parity(index_dir, oracle, scorer):
    eng = QueryEngine(index_dir, k=10, scorer=scorer)
    for tok in _some_fuzzy_tokens(oracle):
        want = oracle.search_fuzzy(tok, k=10)
        ids, units = eng.search_fuzzy(tok)
        got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
        assert got == want, (scorer, tok)


def test_search_fuzzy_lang_tagged(tagged_dir, tagged_oracle):
    eng = QueryEngine(tagged_dir, k=10)
    lang = tagged_oracle.langs[0]
    for tok in ["def", "impotr", "retrun"]:
        for lg in (None, lang):
            want = tagged_oracle.search_fuzzy(tok, lang=lg, k=10)
            ids, units = eng.search_fuzzy(tok, lang=lg)
            got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
            assert got == want, (tok, lg)


def test_expand_fuzzy_is_exact_lev1_set(index_dir, oracle):
    eng = QueryEngine(index_dir)
    for tok in _some_fuzzy_tokens(oracle):
        got = eng.expand_fuzzy(tok)
        want = sorted(t for t in oracle.postings
                      if abs(len(t) - len(tok)) <= 1
                      and _brute_lev(t, tok) <= 1)
        assert got == want, tok


def _brute_lev(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_fuzzy_empty_and_normalized(index_dir, oracle):
    eng = QueryEngine(index_dir, k=10)
    ids, units = eng.search_fuzzy("!!! ...")
    assert len(ids) == 0 and len(units) == 0
    tok = _some_fuzzy_tokens(oracle)[0]
    assert eng.search_fuzzy(tok.upper())[0].tolist() == \
        eng.search_fuzzy(tok)[0].tolist()


# ------------------------------------------------- fuzzy maxEdits=2 search --

def test_levenshtein_automaton_brute_force():
    """Automaton language == exact Levenshtein <= n over an exhaustive
    small universe, and next_valid returns the smallest accepted string
    >= s with nothing accepted in between."""
    import itertools

    from splade_ray.levenshtein import LevenshteinAutomaton

    AL = "abz1"
    univ = [""] + ["".join(p) for L in range(1, 5)
                   for p in itertools.product(AL, repeat=L)]
    univ.sort()
    for w in ["", "a", "ab", "ba1", "abab", "zz1a"]:
        for n in (0, 1, 2):
            aut = LevenshteinAutomaton(w, n)
            acc = [s for s in univ if aut.accepts(s)]
            want = [s for s in univ if _brute_lev(s, w) <= n]
            assert acc == want, (w, n)
            for s in univ[::11]:
                nv = aut.next_valid(s)
                if nv is not None:
                    assert nv >= s and aut.accepts(nv), (w, n, s, nv)
                    assert not [u for u in want if s <= u < nv], (w, n, s)
                else:
                    assert not [u for u in want if u >= s], (w, n, s)


def test_expand_fuzzy_automaton_matches_vocab(index_dir, oracle):
    """Dictionary intersect == brute-force levenshtein scan at maxEdits=2,
    and at maxEdits=1 it agrees with the independent exhaustive-
    neighborhood implementation (expand_fuzzy)."""
    eng = QueryEngine(index_dir)
    for tok in _some_fuzzy_tokens(oracle):
        got = eng.expand_fuzzy_automaton(tok, max_edits=2,
                                         max_expansion=10**6)
        want = sorted(t for t in oracle.postings if _brute_lev(t, tok) <= 2)
        assert got == want, tok
        assert eng.expand_fuzzy_automaton(tok, max_edits=1,
                                          max_expansion=10**6) == \
            eng.expand_fuzzy(tok), tok


def test_expand_fuzzy_automaton_guard(index_dir):
    eng = QueryEngine(index_dir)
    with pytest.raises(ValueError, match="longer token"):
        eng.expand_fuzzy_automaton("de", max_edits=2, max_expansion=1)


@pytest.mark.parametrize("scorer", ["taat", "bmw"])
def test_search_fuzzy2_oracle_parity(index_dir, oracle, scorer):
    eng = QueryEngine(index_dir, k=10, scorer=scorer,
                      query_kind="fuzzy2")
    for tok in _some_fuzzy_tokens(oracle):
        want = oracle.search_fuzzy(tok, k=10, max_edits=2)
        ids, units = eng.search_fuzzy2(tok, max_expansion=10**6)
        got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
        assert got == want, (scorer, tok)


def test_search_fuzzy2_lang_tagged(tagged_dir, tagged_oracle):
    eng = QueryEngine(tagged_dir, k=10)
    lang = tagged_oracle.langs[0]
    for tok in ["def", "impotr", "rtrn"]:
        for lg in (None, lang):
            want = tagged_oracle.search_fuzzy(tok, lang=lg, k=10,
                                              max_edits=2)
            ids, units = eng.search_fuzzy2(tok, lang=lg,
                                           max_expansion=10**6)
            got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
            assert got == want, (tok, lg)


def test_fuzzy2_actor_pool_matches_direct(index_dir, oracle):
    toks = _some_fuzzy_tokens(oracle)
    tbl = pa.table({
        "query_id": pa.array(range(len(toks)), type=pa.int64()),
        "query": pa.array(toks),
    })
    res = run_queries(rd.from_arrow(tbl), index_dir, k=10, concurrency=2,
                      query_kind="fuzzy2").to_pandas()
    eng = QueryEngine(index_dir, k=10)
    for qid, tok in enumerate(toks):
        ids, units = eng.search_fuzzy2(tok)
        sub = res[res.query_id == qid].sort_values("rank")
        assert sub.doc_id.tolist() == [int(i) for i in ids]
        np.testing.assert_allclose(sub.score.to_numpy(), units / SCORE_SCALE)


# ----------------------------------------------------------- boolean search --

BOOL_CASES = [
    (["def"], [], []),
    (["def", "import"], [], []),               # conjunction
    ([], ["def", "return"], []),               # disjunction
    (["def"], ["return", "data"], ["import"]),  # all three roles
    ([], ["def"], ["def"]),                    # should minus itself -> empty
    (["def"], ["def"], []),                    # dup across roles, qtf = 1
    (["nosuchtermzz"], ["def"], []),           # impossible must -> empty
    ([], [], ["def"]),                         # nothing to score -> empty
    (["def import data"], [], []),             # multi-word string splits
]


@pytest.mark.parametrize("must,should,must_not", BOOL_CASES)
def test_search_bool_oracle_parity(index_dir, oracle, must, should, must_not):
    eng = QueryEngine(index_dir, k=10)
    want = oracle.search_bool(must, should, must_not, k=10)
    ids, units = eng.search_bool(must, should, must_not)
    got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
    assert got == want, (must, should, must_not)


def test_search_bool_lang_tagged(tagged_dir, tagged_oracle):
    eng = QueryEngine(tagged_dir, k=10)
    lang = tagged_oracle.langs[0]
    for must, should, must_not in BOOL_CASES[:4]:
        for lg in (None, lang):
            want = tagged_oracle.search_bool(must, should, must_not,
                                             lang=lg, k=10)
            ids, units = eng.search_bool(must, should, must_not, lang=lg)
            got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
            assert got == want, (must, should, must_not, lg)


def test_search_bool_must_not_excludes(index_dir, oracle):
    """Every must_not doc is absent, and survivors keep their plain scores
    (the filter never rescales)."""
    eng = QueryEngine(index_dir, k=10)
    banned_docs = set(oracle.postings.get("import", {}))
    ids, units = eng.search_bool(["def"], [], ["import"])
    assert not (set(int(i) for i in ids) & banned_docs)
    plain = dict(oracle.search_bool(["def"], [], [], k=10**9))
    for d, u in zip(ids, units):
        assert plain[int(d)] == u / SCORE_SCALE


def test_search_bool_exclude_ids(index_dir, oracle):
    """exclude_ids bans exact docs (the more-like-this source exclusion):
    excluded ids vanish, survivors keep their unfiltered scores, and the
    exclusion applies BEFORE the top-k cut (next docs slide in)."""
    eng = QueryEngine(index_dir, k=10)
    full = oracle.search_bool([], ["def", "return"], [], k=10**9)
    excl = [d for d, _ in full[:3]]
    want = [(d, u) for d, u in full if d not in set(excl)][:10]
    ids, units = eng.search_bool([], ["def", "return"], [],
                                 exclude_ids=excl)
    assert [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)] == want


def test_bool_actor_pool_matches_direct(index_dir):
    tbl = pa.table({
        "query_id": pa.array(range(len(BOOL_CASES)), type=pa.int64()),
        "must": pa.array([m for m, _, _ in BOOL_CASES],
                         type=pa.list_(pa.string())),
        "should": pa.array([s for _, s, _ in BOOL_CASES],
                           type=pa.list_(pa.string())),
        "must_not": pa.array([n for _, _, n in BOOL_CASES],
                             type=pa.list_(pa.string())),
    })
    res = run_queries(rd.from_arrow(tbl), index_dir, k=10, concurrency=2,
                      query_kind="bool").to_pandas()
    eng = QueryEngine(index_dir, k=10)
    for qid, (m, s, n) in enumerate(BOOL_CASES):
        ids, units = eng.search_bool(m, s, n)
        sub = res[res.query_id == qid].sort_values("rank")
        assert sub.doc_id.tolist() == [int(i) for i in ids]
        np.testing.assert_allclose(sub.score.to_numpy(), units / SCORE_SCALE)


# ---------------------------------------------------------- filtered search --

FILTER_CASES = [
    ("def import", 0, 10**9),   # all-pass range == plain search
    ("def import", 20, 60),
    ("return data", 0, 40),
    ("def", 35, 36),            # 1-token-wide band
    ("def", 10**6, 10**7),      # empty range
]


def test_search_filtered_oracle_parity(index_dir, oracle):
    eng = QueryEngine(index_dir, k=10)
    for q, lo, hi in FILTER_CASES:
        want = oracle.search_filtered(q, lo, hi, k=10)
        ids, units = eng.search_filtered(q, lo, hi)
        got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
        assert got == want, (q, lo, hi)
    # all-pass range is exactly the unfiltered ranking
    assert oracle.search_filtered("def import", 0, 10**9, k=10) == \
        oracle.search("def import", k=10)


def test_search_filtered_keeps_unfiltered_scores(index_dir, oracle):
    """Survivors keep their plain BM25 scores (a filter never rescales)."""
    eng = QueryEngine(index_dir, k=10)
    plain = dict(oracle.search("def import", k=10**9))
    ids, units = eng.search_filtered("def import", 20, 60)
    for d, u in zip(ids, units):
        assert plain[int(d)] == u / SCORE_SCALE
        assert 20 <= oracle.doc_len[int(d)] < 60


def test_filtered_actor_pool_and_sharded(index_dir):
    from splade_ray.query import run_queries_sharded

    tbl = pa.table({
        "query_id": pa.array(range(len(FILTER_CASES)), type=pa.int64()),
        "query": pa.array([q for q, _, _ in FILTER_CASES]),
        "dl_lo": pa.array([lo for _, lo, _ in FILTER_CASES],
                          type=pa.int64()),
        "dl_hi": pa.array([hi for _, _, hi in FILTER_CASES],
                          type=pa.int64()),
    })
    full = run_queries(rd.from_arrow(tbl), index_dir, k=10, concurrency=2,
                       query_kind="filtered").to_pandas()
    eng = QueryEngine(index_dir, k=10)
    for qid, (q, lo, hi) in enumerate(FILTER_CASES):
        ids, units = eng.search_filtered(q, lo, hi)
        sub = full[full.query_id == qid].sort_values("rank")
        assert sub.doc_id.tolist() == [int(i) for i in ids]
        np.testing.assert_allclose(sub.score.to_numpy(), units / SCORE_SCALE)
    shd = run_queries_sharded(rd.from_arrow(tbl), index_dir, k=10,
                              n_query_shards=3,
                              query_kind="filtered").to_pandas()
    cols = ["query_id", "rank", "doc_id", "score"]
    a = full[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = shd[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert a.astype({"rank": "int64"}).equals(b.astype({"rank": "int64"}))


# ------------------------------------------------------- sharded fan-out ---

@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_prefix_and_bool_match_full(index_dir, oracle, n_shards):
    """Doc-range-sharded fan-out is rank- and score-identical to the single
    pool for the dictionary-rewrite kinds (expansion is dictionary-global;
    presence sets are complete per ordinal range)."""
    from splade_ray.query import run_queries_sharded

    prefs = _some_prefixes(oracle)[:4]
    ptbl = pa.table({
        "query_id": pa.array(range(len(prefs)), type=pa.int64()),
        "query": pa.array(prefs),
    })
    full = run_queries(rd.from_arrow(ptbl), index_dir, k=10, concurrency=2,
                       query_kind="prefix").to_pandas()
    shd = run_queries_sharded(rd.from_arrow(ptbl), index_dir, k=10,
                              n_query_shards=n_shards,
                              query_kind="prefix").to_pandas()
    cols = ["query_id", "rank", "doc_id", "score"]
    a = full[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = shd[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert a.astype({"rank": "int64"}).equals(b.astype({"rank": "int64"}))

    btbl = pa.table({
        "query_id": pa.array(range(len(BOOL_CASES)), type=pa.int64()),
        "must": pa.array([m for m, _, _ in BOOL_CASES],
                         type=pa.list_(pa.string())),
        "should": pa.array([s for _, s, _ in BOOL_CASES],
                           type=pa.list_(pa.string())),
        "must_not": pa.array([n for _, _, n in BOOL_CASES],
                             type=pa.list_(pa.string())),
    })
    full = run_queries(rd.from_arrow(btbl), index_dir, k=10, concurrency=2,
                       query_kind="bool").to_pandas()
    shd = run_queries_sharded(rd.from_arrow(btbl), index_dir, k=10,
                              n_query_shards=n_shards,
                              query_kind="bool").to_pandas()
    a = full[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = shd[cols].sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert a.astype({"rank": "int64"}).equals(b.astype({"rank": "int64"}))


# ------------------------------------------------------ tombstone masking ---

def test_prefix_and_bool_mask_deleted(corpus_table, oracle, ray_session,
                                      tmp_path):
    """Deleted docs never appear; survivors keep frozen-stats scores —
    i.e. result == oracle ranking with dead docs dropped BEFORE the cut."""
    from splade_ray.delete import delete_docs

    idx = str(tmp_path / "del_idx")
    build_index(rd.from_arrow(corpus_table), idx, lang_tagged=False,
                n_shards=4)
    pre = _some_prefixes(oracle)[0]
    full = oracle.search_prefix(pre, k=10**9)
    dead = {d for i, (d, _) in enumerate(full) if i % 3 == 0}
    delete_docs(idx, np.array(sorted(dead), dtype=np.int64))
    eng = QueryEngine(idx, k=10)
    want = [(d, u) for d, u in full if d not in dead][:10]
    ids, units = eng.search_prefix(pre)
    assert [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)] == want
    bfull = oracle.search_bool(["def"], ["return"], [], k=10**9)
    bwant = [(d, u) for d, u in bfull if d not in dead][:10]
    ids, units = eng.search_bool(["def"], ["return"], [])
    assert [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)] == bwant
