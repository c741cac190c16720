"""Doc-ordinal-range sharded query fan-out: result invariance across shard
counts and scorers, at both the engine level (range-restricted QueryEngine +
driver merge) and the Dataset level (run_queries_sharded's union + per-query
re-top-k).  SURVEY §2.4 A4: per-range partial top-k merged by query_id must
be rank- AND score-identical to the single-pool path.
"""

import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from splade_ray.build import build_index
from splade_ray.corpus import generate_corpus, generate_queries
from splade_ray.query import QueryEngine, run_queries, run_queries_sharded

IDX = "/tmp/splade_ray_sharded_idx"
N_FILES = 300


@pytest.fixture(scope="module")
def index_dir(ray_session):
    tbl = generate_corpus(N_FILES, seed=23)
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(rd.from_arrow(tbl).repartition(4), IDX, lang_tagged=True,
                n_shards=4, hot_df_min=30, hot_df_frac=0.05)
    return IDX


def _merged_search(index_dir, query, lang, k, n_shards, scorer):
    """Per-range engines + driver-side re-top-k (mirrors _merge_topk)."""
    import json
    import os

    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        n_docs = json.load(f)["n_docs"]
    bounds = [(i * n_docs) // n_shards for i in range(n_shards + 1)]
    all_ids, all_units = [], []
    for i in range(n_shards):
        lo, hi = bounds[i], bounds[i + 1]
        if lo >= hi:
            continue
        eng = QueryEngine(index_dir, k=k, scorer=scorer, ord_range=(lo, hi))
        ids, units = eng.search_one(query, lang)
        all_ids.append(ids)
        all_units.append(units)
    ids = np.concatenate(all_ids) if all_ids else np.empty(0, dtype=np.int64)
    units = np.concatenate(all_units) if all_units else np.empty(0, dtype=np.int64)
    order = np.lexsort((ids, -units))[:k]
    return [(int(ids[o]), int(units[o])) for o in order]


@pytest.mark.parametrize("scorer", ["taat", "bmw"])
@pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
def test_range_engines_match_single(index_dir, scorer, n_shards):
    full = QueryEngine(index_dir, k=10, scorer="taat")
    q = generate_queries()
    for query, lang in zip(q["query"].to_pylist(), q["lang"].to_pylist()):
        ids, units = full.search_one(query, lang or None)
        want = [(int(d), int(u)) for d, u in zip(ids, units)]
        got = _merged_search(index_dir, query, lang or None, 10,
                             n_shards, scorer)
        assert got == want, (scorer, n_shards, query)


def test_range_engine_rejects_bad_range(index_dir):
    with pytest.raises(ValueError, match="ord_range"):
        QueryEngine(index_dir, ord_range=(5, 5))
    with pytest.raises(ValueError, match="ord_range"):
        QueryEngine(index_dir, ord_range=(-1, 10))


def test_dataset_sharded_matches_pool(index_dir):
    q = generate_queries()
    base = (
        run_queries(rd.from_arrow(q), index_dir, k=10, concurrency=2)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    shard = (
        run_queries_sharded(rd.from_arrow(q), index_dir, k=10,
                            n_query_shards=3, concurrency_per_shard=1)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert base["query_id"].tolist() == shard["query_id"].tolist()
    assert base["rank"].tolist() == shard["rank"].tolist()
    assert base["doc_id"].tolist() == shard["doc_id"].tolist()
    np.testing.assert_allclose(base["score"].to_numpy(),
                               shard["score"].to_numpy())


def test_range_engine_decodes_only_its_slice(index_dir):
    """The residency claim itself: a range engine's gathered postings all lie
    inside its ordinal range, and the shards partition each full list."""
    import json
    import os

    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        man = json.load(f)
    n_docs = man["n_docs"]
    full = QueryEngine(index_dir, k=10)
    n_shards = 3
    bounds = [(i * n_docs) // n_shards for i in range(n_shards + 1)]
    for term in ["def", "return", "the", "parse"]:
        f_ids, _, _ = full._gather(term)
        pieces = []
        for i in range(n_shards):
            eng = QueryEngine(index_dir, k=10,
                              ord_range=(bounds[i], bounds[i + 1]))
            ids, _, _ = eng._gather(term)
            assert ((ids >= bounds[i]) & (ids < bounds[i + 1])).all()
            pieces.append(ids)
        np.testing.assert_array_equal(np.concatenate(pieces), f_ids)
