"""In-suite driver-contract gate: Ray pipelines vs DuckDB oracles at sf0.001.

A fast subset of tools/check_contract.py so `pytest -x -q` catches
pipeline/oracle drift without waiting for the driver round.  The full
18+-entry check still runs via tools/check_contract.py.
"""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
FAST_KEYS = [
    "corpus_docs", "postings", "term_df", "corpus_stats", "top_terms",
    "token_stats", "quality_score", "langid", "dedup_exact", "simhash",
    "chunk_docs", "idf_coord_topk", "bm25_topk_taat", "rrf_hybrid",
    "weighted_hybrid",
    "neardup_clusters",
    # round 2
    "chunk_docs_recursive", "bpe_token_count", "sample_by_content",
    "doclen_quantiles", "embedding_neardup_pairs", "ann_ivf_topk",
    "events_hourly_window", "events_sessions", "events_rolling_sum",
    "events_asof_join",
    # round 5: ES extended_stats / random_score / adjacency_matrix /
    # pinned / term-suggester serving additions
    "ext_stats_agg", "random_score_topk", "adjacency_matrix",
    "pinned_topk", "term_suggest",
    "constant_score_topk", "rank_feature_topk", "mad_agg",
    "composite_agg", "span_range_topk", "term_vectors", "rank_eval",
    # round-5 closing session: boxplot/filters/weighted_avg/t_test aggs,
    # scroll pagination (one sharded twin guards the partial kinds)
    "boxplot_agg", "filters_agg", "weighted_avg_agg", "t_test_agg",
    "scroll_topk", "t_test_agg_sharded", "phrase_suggest",
    "multi_match_topk", "tfidf_keywords", "bigram_nll",
    "distance_feature_topk", "analyze_api",
    # round 3
    "sparse_encode", "sparse_topk",
    "phrase_topk", "phrase_topk_tokens", "phrase_near_topk",
    "phrase_near_unordered", "scorer_eval",
    "bm25_topk_deleted",
    "bm25_topk_compacted",
    # every doc-range sharded twin (one per shared reducer family and
    # partial kind; t_test_agg_sharded is listed above)
    "bm25_topk_sharded", "collapse_topk_sharded", "lang_terms_agg_sharded",
    "mget_docs_sharded", "lang_stats_agg_sharded", "cardinality_agg_sharded",
    "percentiles_agg_sharded", "stats_agg_sharded", "range_agg_sharded",
    "top_hits_agg_sharded", "sort_topk_sharded",
    "function_score_topk_sharded", "rescore_topk_sharded",
    "dis_max_topk_sharded", "boosting_topk_sharded", "ext_stats_agg_sharded",
    "random_score_topk_sharded", "adjacency_matrix_sharded",
    "pinned_topk_sharded", "constant_score_topk_sharded",
    "rank_feature_topk_sharded", "mad_agg_sharded", "composite_agg_sharded",
    "boxplot_agg_sharded", "filters_agg_sharded", "weighted_avg_agg_sharded",
    "phrase_suggest_sharded", "distance_feature_topk_sharded",
]


@pytest.fixture(scope="module")
def contract(ray_session):
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ["documents", "embeddings", "events"]:
        p = os.path.join(SF_DIR, f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    return e.queries(), e.oracle_sql(), con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(9)
        if np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype("int64")
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), ignore_index=True)


@pytest.mark.parametrize("name", FAST_KEYS)
def test_contract_entry(contract, name):
    import pyarrow as pa

    import ray.data

    queries, oracles, con = contract
    obj = queries[name](SF_DIR)
    if isinstance(obj, ray.data.Dataset):
        got = obj.to_pandas()
    elif isinstance(obj, pa.Table):
        got = obj.to_pandas()
    else:
        got = obj
    want = con.execute(oracles[name]).df()
    got, want = _canon(got), _canon(want)
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want), (len(got), len(want))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
