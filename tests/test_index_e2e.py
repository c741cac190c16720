"""End-to-end build + query parity vs the pure-Python oracle (SURVEY.md §5)."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from splade_ray import build
from splade_ray.build import SCORE_SCALE, build_index
from splade_ray.corpus import generate_corpus, generate_queries
from splade_ray.oracle import OracleIndex
from splade_ray.query import QueryEngine, run_queries
from splade_ray.segments import validate_segment

N_FILES = 400
IDX = "/tmp/splade_ray_test_idx"
# an in-memory corpus has no file fingerprint; the resume test rebuilds the
# same corpus, so both builds name it explicitly
CORPUS_FP = f"generate_corpus-{N_FILES}-seed11"


@pytest.fixture(scope="module")
def corpus_table():
    return generate_corpus(N_FILES, seed=11)


@pytest.fixture(scope="module")
def index_dir(corpus_table, ray_session):
    shutil.rmtree(IDX, ignore_errors=True)
    ds = rd.from_arrow(corpus_table).repartition(4)
    build_index(ds, IDX, lang_tagged=True, n_shards=8, hot_df_min=40,
                hot_df_frac=0.05, corpus_fp=CORPUS_FP)
    return IDX


@pytest.fixture(scope="module")
def oracle(corpus_table):
    rows = [
        dict(zip(corpus_table.column_names, vals))
        for vals in zip(*[c.to_pylist() for c in corpus_table.columns])
    ]
    return OracleIndex(rows, lang_tagged=True)


def test_manifest_stats_match_oracle(index_dir, oracle):
    import json

    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        m = json.load(f)
    assert m["n_docs"] == oracle.n_docs
    assert abs(m["avgdl"] - oracle.avgdl) < 1e-9
    assert m["n_dropped_rows"] == oracle.dropped
    assert m["langs"] == oracle.langs
    assert m["n_postings"] == sum(len(p) for p in oracle.postings.values())


@pytest.mark.parametrize("scorer", ["taat", "bmw"])
def test_scorer_oracle_parity(index_dir, oracle, scorer):
    """Rank-identical top-10 doc ids AND scores vs the oracle, every query."""
    engine = QueryEngine(index_dir, k=10, scorer=scorer)
    q = generate_queries()
    for qid, query, lang in zip(
        q["query_id"].to_pylist(), q["query"].to_pylist(), q["lang"].to_pylist()
    ):
        want = oracle.search(query, lang or None, k=10)
        ids, units = engine.search_one(query, lang or None)
        got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
        assert got == want, (scorer, qid, query)


def test_actor_pool_results_match_direct(index_dir):
    engine = QueryEngine(index_dir, k=10, scorer="taat")
    q = generate_queries()
    res = run_queries(rd.from_arrow(q), index_dir, k=10, concurrency=2).to_pandas()
    for qid, query, lang in zip(
        q["query_id"].to_pylist(), q["query"].to_pylist(), q["lang"].to_pylist()
    ):
        ids, units = engine.search_one(query, lang or None)
        sub = res[res.query_id == qid].sort_values("rank")
        assert sub.doc_id.tolist() == [int(i) for i in ids]
        np.testing.assert_allclose(sub.score.to_numpy(), units / SCORE_SCALE)


def test_content_sha256_invariant(index_dir, corpus_table):
    """Per-row content sha256 equality input vs docs table (BASELINE.json)."""
    import hashlib

    import pyarrow.parquet as pq

    docs = pq.read_table(
        os.path.join(index_dir, "staging"),
        columns=["repo", "path", "content_sha256"],
    ).to_pandas()
    docs = docs.set_index(["repo", "path"])  # commit constant per row here
    n_checked = 0
    for repo, path, content in zip(
        corpus_table["repo"].to_pylist(),
        corpus_table["path"].to_pylist(),
        corpus_table["content"].to_pylist(),
    ):
        if (content or "").strip() == "":
            assert (repo, path) not in docs.index  # dropped rows stay dropped
            continue
        row = docs.loc[(repo, path)]
        assert row["content_sha256"] == hashlib.sha256(content.encode()).hexdigest()
        n_checked += 1
    assert n_checked > 300


def test_resume_skips_valid_segments(index_dir, corpus_table):
    seg_root = os.path.join(index_dir, "segments")
    segs = sorted(os.listdir(seg_root))
    victim, gone = segs[2], segs[5]
    with open(os.path.join(seg_root, victim, "postings.bin"), "r+b") as f:
        f.truncate(10)
    shutil.rmtree(os.path.join(seg_root, gone))
    assert validate_segment(os.path.join(seg_root, victim)) is None
    mtimes = {
        s: os.path.getmtime(os.path.join(seg_root, s, "manifest.json"))
        for s in segs
        if s not in (victim, gone)
    }
    ds = rd.from_arrow(corpus_table).repartition(4)
    build_index(ds, index_dir, lang_tagged=True, n_shards=8, hot_df_min=40,
                hot_df_frac=0.05, corpus_fp=CORPUS_FP)
    for s, t in mtimes.items():
        assert os.path.getmtime(os.path.join(seg_root, s, "manifest.json")) == t
    assert validate_segment(os.path.join(seg_root, victim)) is not None
    assert validate_segment(os.path.join(seg_root, gone)) is not None


def test_empty_corpus_raises(ray_session):
    ds = rd.from_arrow(
        pa.table(
            {"repo": ["r"], "path": ["p"], "commit": ["c"], "lang": ["py"],
             "content": ["  \n "]}
        )
    )
    with pytest.raises(ValueError, match="no indexable"):
        build_index(ds, "/tmp/splade_ray_empty_idx", overwrite=True)


def test_untagged_index(ray_session):
    """Same pipeline without lang tagging (the documents-table mode)."""
    tbl = generate_corpus(150, seed=5)
    idx = "/tmp/splade_ray_untagged_idx"
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_arrow(tbl), idx, lang_tagged=False, n_shards=4)
    rows = [
        dict(zip(tbl.column_names, vals))
        for vals in zip(*[c.to_pylist() for c in tbl.columns])
    ]
    oracle = OracleIndex(rows, lang_tagged=False)
    engine = QueryEngine(idx, k=10, scorer="taat")
    for query in ["def", "parse token", "getMaxCount", "zzznope"]:
        ids, units = engine.search_one(query, None)
        assert [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)] == \
            oracle.search(query, None, k=10)


def test_partitioning_invariance(ray_session, corpus_table, oracle):
    """SURVEY §7 hard part (a): results are identical whatever the input
    partitioning or shard count — deterministic ids, ordinal postings and
    integer quantization remove every order dependence."""
    import ray.data as rd

    from splade_ray.corpus import generate_queries

    idx2 = "/tmp/splade_ray_test_idx_p2"
    shutil.rmtree(idx2, ignore_errors=True)
    build_index(rd.from_arrow(corpus_table).repartition(2), idx2,
                lang_tagged=True, n_shards=3,  # different shards AND blocks
                hot_df_min=40, hot_df_frac=0.05)
    engine = QueryEngine(idx2, k=10, scorer="taat")
    q = generate_queries()
    for qid, query, lang in zip(q["query_id"].to_pylist(),
                                q["query"].to_pylist(),
                                q["lang"].to_pylist()):
        want = oracle.search(query, lang or None, k=10)
        ids, units = engine.search_one(query, lang or None)
        got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
        assert got == want, (qid, query)


def test_distributed_ordinal_path_parity(corpus_table, oracle, ray_session,
                                        monkeypatch):
    """DRIVER_SORT_MAX_DOCS=0 forces the distributed-sort ordinal pass,
    which now writes the PER-RANGE-SHARDED docmap layout (sort output tasks
    write their own shard files); its logical content must be identical to
    the driver-argsort flat layout, and queries over the sharded-docmap
    index must stay oracle-exact."""
    from splade_ray.docmap import (
        FlatDocArrays,
        ShardedDocArrays,
        open_doc_arrays,
    )

    base = "/tmp/splade_ray_ordpath"
    shutil.rmtree(base, ignore_errors=True)
    ds = rd.from_arrow(corpus_table).repartition(4)
    m_drv = build_index(ds, os.path.join(base, "drv"), lang_tagged=True,
                        n_shards=4)
    monkeypatch.setattr(build, "DRIVER_SORT_MAX_DOCS", 0)
    m_dist = build_index(ds, os.path.join(base, "dist"), lang_tagged=True,
                         n_shards=4)
    assert m_drv["n_postings"] == m_dist["n_postings"]
    assert abs(m_drv["avgdl"] - m_dist["avgdl"]) < 1e-12
    assert m_drv["langs"] == m_dist["langs"]
    a = open_doc_arrays(os.path.join(base, "drv"))
    b = open_doc_arrays(os.path.join(base, "dist"))
    assert isinstance(a, FlatDocArrays) and isinstance(b, ShardedDocArrays)
    np.testing.assert_array_equal(a.docmap_array(), b.docmap_array())
    np.testing.assert_array_equal(a.doclens_array(), b.doclens_array())
    # sharded gathers == flat gathers on a scattered ordinal sample
    rng = np.random.default_rng(7)
    sample = rng.integers(0, a.n_docs, 200)
    np.testing.assert_array_equal(a.gather_ids(sample), b.gather_ids(sample))
    np.testing.assert_array_equal(a.gather_lens(sample), b.gather_lens(sample))
    # end-to-end: queries over the sharded-docmap index stay oracle-exact
    from splade_ray.corpus import generate_queries

    engine = QueryEngine(os.path.join(base, "dist"), k=10, scorer="taat")
    q = generate_queries()
    for query, lang in zip(q["query"].to_pylist(), q["lang"].to_pylist()):
        ids, units = engine.search_one(query, lang or None)
        got = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
        assert got == oracle.search(query, lang or None, k=10)
    shutil.rmtree(base, ignore_errors=True)


def test_fused_checkpoint_none_build_parity(index_dir, corpus_table,
                                            ray_session):
    """checkpoint='none' (single-shot fused build: staging pinned in the
    object store, no corpus-scale disk round-trip) must produce an index
    with identical stats and rank/score-identical query answers to the
    parquet-checkpointed build.  It has no docs table by design —
    read_docs raises the documented error — and no resume (a rerun
    rebuilds)."""
    from splade_ray.build import read_docs

    fidx = "/tmp/splade_ray_test_idx_fused"
    ds = rd.from_arrow(corpus_table).repartition(4)
    m = build_index(ds, fidx, lang_tagged=True, n_shards=8, hot_df_min=40,
                    hot_df_frac=0.05, checkpoint="none")
    import json as _json

    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        base = _json.load(f)
    assert m["n_docs"] == base["n_docs"]
    assert m["n_postings"] == base["n_postings"]
    assert m["avgdl"] == base["avgdl"]
    assert m["langs"] == base["langs"]
    assert m["checkpoint"] == "none"
    assert not os.path.isdir(os.path.join(fidx, "staging"))
    a, b = QueryEngine(index_dir, k=10), QueryEngine(fidx, k=10)
    for row in generate_queries().to_pylist():
        ra = a.search_one(row["query"], row["lang"] or None)
        rb = b.search_one(row["query"], row["lang"] or None)
        assert ra[0].tolist() == rb[0].tolist(), row
        assert ra[1].tolist() == rb[1].tolist(), row
    with pytest.raises(ValueError, match="checkpoint='none'"):
        read_docs(fidx)
    with pytest.raises(ValueError, match="unknown checkpoint"):
        build_index(ds, fidx + "_x", checkpoint="zzz")


def test_failed_shuffle_restores_push_based_flag(ray_session, tmp_path,
                                                 monkeypatch):
    """build_index switches the process-wide push-based shuffle flag on
    for its segment shuffle only: a failing shuffle must switch it back."""
    from ray.data import DataContext
    from ray.data.grouped_data import GroupedData

    def boom(self, *a, **kw):
        raise RuntimeError("shuffle failed")

    ctx = DataContext.get_current()
    before = getattr(ctx, "use_push_based_shuffle", False)
    monkeypatch.setattr(GroupedData, "map_groups", boom)
    try:
        with pytest.raises(RuntimeError, match="shuffle failed"):
            build_index(rd.from_arrow(generate_corpus(40, seed=3)),
                        str(tmp_path / "idx"), lang_tagged=False,
                        n_shards=2)
        assert getattr(ctx, "use_push_based_shuffle", False) == before
    finally:
        ctx.use_push_based_shuffle = before
