"""Incremental build + index-level LSM merge == from-scratch build (A9)."""

import os
import shutil

import ray.data as rd

from splade_ray.build import SCORE_SCALE, build_index, read_docs
from splade_ray.corpus import generate_corpus, generate_queries
from splade_ray.merge import merge_index_dirs
from splade_ray.query import QueryEngine
from splade_ray.segments import validate_segment

ROOT = "/tmp/splade_ray_merge_test"


def test_merged_index_matches_full_build(ray_session):
    tbl = generate_corpus(500, seed=21)
    shutil.rmtree(ROOT, ignore_errors=True)
    a, b, full, merged = (os.path.join(ROOT, x) for x in
                          ("a", "b", "full", "merged"))
    kw = dict(lang_tagged=True, n_shards=6, hot_df_min=40, hot_df_frac=0.05)
    build_index(rd.from_arrow(tbl.slice(0, 300)), a, **kw)
    build_index(rd.from_arrow(tbl.slice(300)), b, **kw)
    build_index(rd.from_arrow(tbl), full, **kw)

    m = merge_index_dirs([a, b], merged)
    with open(os.path.join(full, "MANIFEST.json")) as f:
        import json

        mf = json.load(f)
    assert m["n_docs"] == mf["n_docs"]
    assert abs(m["avgdl"] - mf["avgdl"]) < 1e-12
    assert m["n_postings"] == mf["n_postings"]

    e_full = QueryEngine(full, k=10, scorer="taat")
    e_merged = QueryEngine(merged, k=10, scorer="taat")
    e_merged_bmw = QueryEngine(merged, k=10, scorer="bmw")
    q = generate_queries()
    for qid, query, lang in zip(q["query_id"].to_pylist(),
                                q["query"].to_pylist(),
                                q["lang"].to_pylist()):
        want = e_full.search_one(query, lang or None)
        got = e_merged.search_one(query, lang or None)
        got_bmw = e_merged_bmw.search_one(query, lang or None)
        as_l = lambda r: [(int(d), int(u)) for d, u in zip(*r)]
        assert as_l(got) == as_l(want), (qid, query)
        assert as_l(got_bmw) == as_l(want), (qid, query)

    # docs table of the merged index = union of the inputs
    assert read_docs(merged).count() == m["n_docs"]


def test_merge_resume_skips_done_shards(ray_session):
    merged = os.path.join(ROOT, "merged")
    a, b = os.path.join(ROOT, "a"), os.path.join(ROOT, "b")
    seg3 = os.path.join(merged, "segments", "seg-00003")
    mtimes = {
        s: os.path.getmtime(os.path.join(merged, "segments", s, "manifest.json"))
        for s in os.listdir(os.path.join(merged, "segments")) if s != "seg-00003"
    }
    shutil.rmtree(seg3)
    merge_index_dirs([a, b], merged)
    assert validate_segment(seg3) is not None
    for s, t in mtimes.items():
        assert os.path.getmtime(
            os.path.join(merged, "segments", s, "manifest.json")) == t


def test_add_generation_inherits_base_settings(ray_session):
    """add_generation builds the new gen with the base's analyzer/shard
    settings and the result matches the already-verified merged index."""
    import pyarrow.parquet as pq

    from splade_ray.merge import add_generation

    tbl = generate_corpus(500, seed=21)
    a = os.path.join(ROOT, "a")
    full_dir = os.path.join(ROOT, "full")
    # self-sufficient: (re)build the base and full indexes if an earlier
    # test in this module did not (standalone / reordered runs)
    kw = dict(lang_tagged=True, n_shards=6, hot_df_min=40, hot_df_frac=0.05)
    build_index(rd.from_arrow(tbl.slice(0, 300)), a, **kw)
    build_index(rd.from_arrow(tbl), full_dir, **kw)
    out = os.path.join(ROOT, "added")
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(out + ".gen", ignore_errors=True)
    new_dir = os.path.join(ROOT, "new_docs")
    shutil.rmtree(new_dir, ignore_errors=True)
    os.makedirs(new_dir)
    pq.write_table(tbl.slice(300), os.path.join(new_dir, "part.parquet"))

    m = add_generation(a, rd.read_parquet(new_dir), out)
    full = full_dir
    e_full = QueryEngine(full, k=10, scorer="taat")
    e_add = QueryEngine(out, k=10, scorer="taat")
    import json as _json

    with open(os.path.join(out + ".gen", "MANIFEST.json")) as f:
        gen_man = _json.load(f)
    with open(os.path.join(a, "MANIFEST.json")) as f:
        base_man = _json.load(f)
    assert gen_man["lang_tagged"] == base_man["lang_tagged"]
    assert gen_man["n_shards"] == base_man["n_shards"]
    with open(os.path.join(full_dir, "MANIFEST.json")) as f:
        assert m["n_docs"] == _json.load(f)["n_docs"]
    q = generate_queries()
    for query, lang in zip(q["query"].to_pylist(), q["lang"].to_pylist()):
        want = e_full.search_one(query, lang or None)
        got = e_add.search_one(query, lang or None)
        as_l = lambda r: [(int(d), int(u)) for d, u in zip(*r)]
        assert as_l(got) == as_l(want), query


def test_merge_drops_fused_input_docs_source(ray_session, tmp_path):
    """A checkpoint='none' input has no staging dir: the merged manifest's
    docs_sources must omit it (read_docs then serves the parquet-backed
    inputs only) while queries over the merged index stay complete."""
    import ray.data as rd

    from splade_ray.build import build_index, read_docs
    from splade_ray.corpus import generate_corpus
    from splade_ray.merge import merge_index_dirs
    from splade_ray.query import QueryEngine

    a, b, out = str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "m")
    build_index(rd.from_arrow(generate_corpus(200, seed=3)), a,
                lang_tagged=False, n_shards=4)
    build_index(rd.from_arrow(generate_corpus(200, seed=4)), b,
                lang_tagged=False, n_shards=4, checkpoint="none")
    m = merge_index_dirs([a, b], out)
    assert len(m["docs_sources"]) == 1
    assert m["docs_sources"][0].startswith(a)
    ids, _ = QueryEngine(out, k=5).search_one("merge")
    assert len(ids)
    # docs table covers only the parquet-backed input
    assert read_docs(out).count() == m["n_docs"] - \
        QueryEngine(b, k=1).n_docs
