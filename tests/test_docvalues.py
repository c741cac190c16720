"""Lang doc-values sidecar (Lucene SORTED DocValues analogue) + the query
class it enables: field collapsing (ES collapse), full-hit-set terms
aggregation, and track_total_hits — parity vs the pure-Python oracle, byte
parity across the flat and sharded forward-array layouts, and survival
through tombstone masking, compaction and segment merge."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from splade_ray import build
from splade_ray.build import SCORE_SCALE, build_index
from splade_ray.corpus import generate_corpus
from splade_ray.docmap import (LANG_MISSING, encode_lang_codes,
                               open_doc_arrays)
from splade_ray.oracle import OracleIndex
from splade_ray.query import QueryEngine

N_FILES = 320
ROOT = "/tmp/splade_ray_docvalues_test"
KW = dict(lang_tagged=False, n_shards=4, hot_df_min=30, hot_df_frac=0.05)
QUERIES = ["merge window", "vector join batch", "the", "stream stream",
           "nonexistentzzterm", "agg filter"]


@pytest.fixture(scope="module")
def corpus_table():
    return generate_corpus(N_FILES, seed=41)


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


# ----------------------------------------------------------- sidecar layout --

def test_flat_and_sharded_langvals_identical(flat_dir, sharded_dir):
    a = open_doc_arrays(flat_dir)
    b = open_doc_arrays(sharded_dir)
    assert a.has_langvals and b.has_langvals
    assert np.array_equal(a.langvals_array(), b.langvals_array())


def test_langcodes_match_corpus(flat_dir, corpus_table, oracle):
    import json

    from splade_ray.ids import doc_id63

    d = open_doc_arrays(flat_dir)
    with open(os.path.join(flat_dir, "MANIFEST.json")) as f:
        vocab = json.load(f)["langs"]
    codes = d.gather_langcodes(np.arange(d.n_docs))
    ids = d.docmap_array()
    lang_of = {doc_id63(r["repo"], r["path"], r["commit"]): r["lang"]
               for r in (dict(zip(corpus_table.column_names, vals))
                         for vals in zip(*[c.to_pylist()
                                           for c in corpus_table.columns]))}
    for did, c in zip(ids.tolist(), codes.tolist()):
        assert vocab[c] == lang_of[did]


def test_encode_lang_codes_edges():
    col = pa.array(["en", "", None, "zz", "de"])
    codes = encode_lang_codes(col, ["de", "en"])
    assert codes.tolist() == [1, LANG_MISSING, LANG_MISSING, LANG_MISSING, 0]
    assert encode_lang_codes(pa.array([], type=pa.string()), []).tolist() == []
    # all-null column (code-review finding: used to IndexError into an
    # empty LUT) -> every row LANG_MISSING
    allnull = encode_lang_codes(pa.array([None, None], type=pa.string()),
                                ["en"])
    assert allnull.tolist() == [LANG_MISSING, LANG_MISSING]
    with pytest.raises(ValueError):
        encode_lang_codes(col, [f"l{i:03d}" for i in range(255)])


# ------------------------------------------------------------ query parity --

def _collapse_l(res):
    return [(int(d), int(round(s * SCORE_SCALE)), lg)
            for d, s, lg in zip(*res)] if isinstance(res, tuple) else [
        (int(d), int(round(s * SCORE_SCALE)), lg) for d, s, lg in res]


@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_collapse_matches_oracle(flat_dir, sharded_dir, oracle, layout):
    idx = flat_dir if layout == "flat" else sharded_dir
    e = QueryEngine(idx, k=6, query_kind="collapse")
    for q in QUERIES:
        ids, units, lgs = e.search_collapse(q)
        got = [(int(d), int(u), lg) for d, u, lg in zip(ids, units, lgs)]
        want = [(d, int(round(s * SCORE_SCALE)), lg)
                for d, s, lg in oracle.search_collapse(q, k=6)]
        assert got == want, q


def test_lang_agg_matches_oracle(flat_dir, oracle):
    e = QueryEngine(flat_dir, query_kind="lang_agg")
    for q in QUERIES:
        lgs, ns, bests = e.search_lang_agg(q)
        got = {lg: (int(n), int(b)) for lg, n, b in zip(lgs, ns, bests)}
        want = {lg: (n, int(round(b * SCORE_SCALE)))
                for lg, (n, b) in oracle.lang_agg(q).items()}
        assert got == want, q


def test_count_matches_oracle(flat_dir, oracle):
    e = QueryEngine(flat_dir, query_kind="count")
    for q in QUERIES:
        assert e.count_hits(q) == oracle.count_hits(q), q


# ------------------------------------------------------- update-path parity --

def test_collapse_masks_tombstones(flat_dir, oracle, ray_session):
    from splade_ray.delete import delete_docs

    idx = os.path.join(ROOT, "deleted")
    shutil.rmtree(idx, ignore_errors=True)
    shutil.copytree(flat_dir, idx)
    ids = np.sort(open_doc_arrays(idx).docmap_array())
    dead = ids[::3]
    delete_docs(idx, dead)
    banned = set(dead.tolist())
    e = QueryEngine(idx, k=6, query_kind="collapse")
    for q in QUERIES:
        got = [(int(d), int(u), lg)
               for d, u, lg in zip(*e.search_collapse(q))]
        want = [(d, int(round(s * SCORE_SCALE)), lg)
                for d, s, lg in oracle.search_collapse(q, k=6, banned=banned)]
        assert got == want, q
    ea = QueryEngine(idx, query_kind="lang_agg")
    for q in QUERIES:
        lgs, ns, bests = ea.search_lang_agg(q)
        got = {lg: (int(n), int(b)) for lg, n, b in zip(lgs, ns, bests)}
        want = {lg: (n, int(round(b * SCORE_SCALE)))
                for lg, (n, b) in oracle.lang_agg(q, banned=banned).items()}
        assert got == want, q


@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_compaction_preserves_langvals(flat_dir, sharded_dir, ray_session,
                                       layout):
    from splade_ray.delete import compact_index, delete_docs

    src_base = flat_dir if layout == "flat" else sharded_dir
    idx = os.path.join(ROOT, f"del_{layout}")
    out = os.path.join(ROOT, f"compact_{layout}")
    for d in (idx, out):
        shutil.rmtree(d, ignore_errors=True)
    shutil.copytree(src_base, idx)
    src = open_doc_arrays(idx)
    ids = np.sort(src.docmap_array())
    delete_docs(idx, ids[::4])
    compact_index(idx, out)
    dst = open_doc_arrays(out)
    keep = np.ones(src.n_docs, dtype=bool)
    keep[::4] = False  # sorted ids <=> ordinals, every 4th ordinal dies
    assert np.array_equal(dst.langvals_array(), src.langvals_array()[keep])
    assert np.array_equal(dst.docmap_array(), src.docmap_array()[keep])


def test_merge_preserves_langvals_sharded_inputs(corpus_table, ray_session):
    """merge gathers each generation's GLOBAL codes via langvals_array —
    must hold when the generations use the SHARDED forward-array layout
    (per-shard vocabularies remapped at read)."""
    import json

    from splade_ray.ids import doc_id63
    from splade_ray.merge import merge_index_dirs

    t = corpus_table
    dirs = []
    for name, part in (("sgen_a", t.slice(0, t.num_rows // 2)),
                       ("sgen_b", t.slice(t.num_rows // 2))):
        idx = os.path.join(ROOT, name)
        shutil.rmtree(idx, ignore_errors=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(build, "DRIVER_SORT_MAX_DOCS", 10)
            build_index(rd.from_arrow(part).repartition(2), idx, **KW)
        dirs.append(idx)
    out = os.path.join(ROOT, "smerged")
    shutil.rmtree(out, ignore_errors=True)
    merge_index_dirs(dirs, out)
    d = open_doc_arrays(out)
    with open(os.path.join(out, "MANIFEST.json")) as f:
        vocab = json.load(f)["langs"]
    lang_of = {doc_id63(r, p, c): lg for r, p, c, lg in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist(), t["lang"].to_pylist())}
    codes = d.gather_langcodes(np.arange(d.n_docs))
    for did, c in zip(d.docmap_array().tolist(), codes.tolist()):
        assert vocab[c] == lang_of[did]


def test_merge_preserves_langvals(corpus_table, ray_session):
    from splade_ray.ids import doc_id63
    from splade_ray.merge import merge_index_dirs

    t = corpus_table
    half_a = t.slice(0, t.num_rows // 2)
    half_b = t.slice(t.num_rows // 2)
    dirs = []
    for name, part in (("gen_a", half_a), ("gen_b", half_b)):
        idx = os.path.join(ROOT, name)
        shutil.rmtree(idx, ignore_errors=True)
        build_index(rd.from_arrow(part).repartition(2), idx, **KW)
        dirs.append(idx)
    out = os.path.join(ROOT, "merged")
    shutil.rmtree(out, ignore_errors=True)
    merge_index_dirs(dirs, out)
    import json

    d = open_doc_arrays(out)
    with open(os.path.join(out, "MANIFEST.json")) as f:
        vocab = json.load(f)["langs"]
    lang_of = {doc_id63(r, p, c): lg for r, p, c, lg in zip(
        t["repo"].to_pylist(), t["path"].to_pylist(),
        t["commit"].to_pylist(), t["lang"].to_pylist())}
    codes = d.gather_langcodes(np.arange(d.n_docs))
    for did, c in zip(d.docmap_array().tolist(), codes.tolist()):
        assert vocab[c] == lang_of[did]
