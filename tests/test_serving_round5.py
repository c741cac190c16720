"""Unit tests for the round-5 serving helpers (no Ray needed).

Contract parity for the five new operators (ext_stats_agg,
random_score_topk, adjacency_matrix, pinned_topk, term_suggest) runs in
test_contract.py; these cover the pure helper edge cases the oracles
can't exercise deterministically.
"""

import hashlib
import math

from splade_ray.query import QueryEngine, h63, lev_dist


def test_ext_stats_floats_constant_value_clamps_to_positive_zero():
    # three hits of doc_len 10: variance rounds to exactly 0 — but the
    # clamp must write literal +0.0 (never -0.0, which would hash
    # differently from the SQL side's CASE ... THEN 0.0)
    avg, var, std = QueryEngine.ext_stats_floats(3, 30, 300)
    assert avg == 10.0
    assert var == 0.0 and math.copysign(1.0, var) == 1.0
    assert std == 0.0 and math.copysign(1.0, std) == 1.0


def test_ext_stats_floats_matches_numpy_population_variance():
    dls = [3, 7, 11, 20]
    n, s, ss = len(dls), sum(dls), sum(d * d for d in dls)
    avg, var, std = QueryEngine.ext_stats_floats(n, s, ss)
    assert avg == s / n
    assert var == ss / n - avg * avg  # ES population form, exact IEEE
    assert std == math.sqrt(var)


def test_h63_matches_sha256_prefix():
    # first 8 digest bytes big-endian, sign bit cleared — the identical
    # rendering sql.H63_SQL / ops.contract.H63 produce
    v = h63("42:123")
    raw = int.from_bytes(hashlib.sha256(b"42:123").digest()[:8], "big")
    assert v == raw & ((1 << 63) - 1)
    assert 0 <= v < 1 << 63


def test_lev_dist_basics_and_cap():
    assert lev_dist("merge", "merge") == 0
    assert lev_dist("merge", "merg") == 1      # deletion
    assert lev_dist("window", "windoww") == 1  # insertion
    assert lev_dist("vector", "vectar") == 1   # substitution
    assert lev_dist("merge", "mrege") == 2     # transposition = 2 plain
    assert lev_dist("abc", "xyz") == 3
    # cap early-exit: everything at-or-beyond cap reports exactly cap
    assert lev_dist("abcdefgh", "zzzzzzzz", cap=3) == 3
    assert lev_dist("a", "abcdef", cap=3) == 3


def test_suggest_phrase_refuses_candidate_explosion(tmp_path):
    # the Lucene TooManyClauses analogue: the cap triggers on the combo
    # COUNT rule alone, so exercise the pure arithmetic via a stub engine
    class _Stub:
        suggest_max_edits = 1
        phrase_cand_n = 8
        suggest_n = 5

        _phrase_candidates = lambda self, t, lang: ["x"] * 8  # noqa: E731

    import pytest as _pytest

    stub = _Stub()
    with _pytest.raises(ValueError, match="4096"):
        QueryEngine.suggest_phrase(stub, "a b c d e", None)


def test_filters_agg_sql_bucket_ids_clear_main_query_ids():
    """The filters-agg oracle numbers its bucket filter queries past the
    largest main query id, so a main query id >= 1000 neither collides with
    a bucket nor is mistaken for one."""
    import duckdb
    import pyarrow as pa

    from splade_ray.analyzer import tokens_py
    from splade_ray.sql import filters_agg_sql

    texts = ["alpha beta", "alpha gamma", "beta gamma", "gamma delta",
             "alpha delta", "epsilon"]
    docs = pa.table({"doc_id": list(range(len(texts))),
                     "source": ["s"] * len(texts),
                     "lang": ["python"] * len(texts), "text": texts})
    queries = [(7, "beta"), (1000, "alpha"), (1001, "epsilon")]
    buckets = [("g", "gamma"), ("d", "delta")]

    def hits(q):
        qt = set(tokens_py(q))
        return {i for i, t in enumerate(texts) if qt & set(tokens_py(t))}

    want = sorted((qid, nm, len(hits(q) & hits(fq)))
                  for qid, q in queries for nm, fq in buckets
                  if hits(q) & hits(fq))
    con = duckdb.connect()
    con.register("documents", docs)
    got = sorted(con.sql(filters_agg_sql(queries, buckets)).fetchall())
    assert got == want
