"""Index-assisted phrase candidate generation (splade_ray.phrase) + the
build_index fast full-resume path it leans on.

Ground truth for candidates is a brute-force Python pass over the same
corpus: union / per-group-intersection of docs-containing-term sets must
match candidate_ordinals exactly (any range fan-out), and index_stats df
must equal the corpus document frequency.
"""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from splade_ray.analyzer import tokens_py
from splade_ray.build import build_index
from splade_ray.corpus import generate_corpus
from splade_ray.docmap import open_doc_arrays
from splade_ray.phrase import candidate_ordinals, index_stats

IDX = "/tmp/splade_ray_phrase_idx"
N_FILES = 250


@pytest.fixture(scope="module")
def built(ray_session):
    tbl = generate_corpus(N_FILES, seed=77)
    shutil.rmtree(IDX, ignore_errors=True)
    man = build_index(rd.from_arrow(tbl).repartition(3), IDX,
                      lang_tagged=False, n_shards=4,
                      hot_df_min=30, hot_df_frac=0.05)
    return tbl, man


def _doc_terms(tbl: pa.Table) -> dict[int, set]:
    """doc ordinal -> set(tokens), brute-force over the kept rows."""
    from splade_ray.ids import doc_id63_column

    ids = doc_id63_column(tbl["repo"], tbl["path"], tbl["commit"]) \
        .to_numpy(zero_copy_only=False)
    texts = tbl["content"].to_pylist()
    kept = [(i, ids[i], txt) for i, txt in enumerate(texts)
            if txt is not None and txt.strip()]
    order = np.argsort([d for _, d, _ in kept], kind="stable")
    out = {}
    for o, k in enumerate(order):  # ordinal = rank in sorted id space
        out[o] = set(tokens_py(kept[int(k)][2]))
    return out


def test_index_stats_df_matches_corpus(built):
    tbl, man = built
    dterms = _doc_terms(tbl)
    probe = ["def", "import", "the", "zzqqnotaterm", "data"]
    n_docs, avgdl, dfs = index_stats(IDX, probe)
    assert n_docs == man["n_docs"] == len(dterms)
    assert avgdl == pytest.approx(man["avgdl"])
    for t in probe:
        want = sum(1 for s in dterms.values() if t in s)
        assert dfs.get(t, 0) == want, t


@pytest.mark.parametrize("n_ranges", [1, 3])
def test_candidates_union_matches_bruteforce(built, n_ranges):
    tbl, _ = built
    dterms = _doc_terms(tbl)
    terms = ["def", "import", "zzqqnotaterm"]
    got = candidate_ordinals(IDX, any_terms=terms, n_ranges=n_ranges)
    want = sorted(o for o, s in dterms.items() if s & set(terms))
    assert got.tolist() == want


@pytest.mark.parametrize("n_ranges", [1, 4])
def test_candidates_intersection_matches_bruteforce(built, n_ranges):
    tbl, _ = built
    dterms = _doc_terms(tbl)
    groups = [["def", "return"], ["import", "zzqqnotaterm"], ["data"]]
    got = candidate_ordinals(IDX, groups=groups, n_ranges=n_ranges)
    want = sorted(
        o for o, s in dterms.items()
        if any(set(g) <= s for g in groups)
    )
    assert got.tolist() == want


def test_candidates_exclude_tombstones(built):
    tbl, _ = built
    from splade_ray.delete import delete_docs

    base = candidate_ordinals(IDX, any_terms=["def"])
    assert len(base) > 2
    docs = open_doc_arrays(IDX)
    dead_ords = base[:2]
    try:
        delete_docs(IDX, docs.gather_ids(dead_ords))
        masked = candidate_ordinals(IDX, any_terms=["def"])
        assert masked.tolist() == base[2:].tolist()
    finally:
        os.remove(os.path.join(IDX, "tombstones.bin"))


def test_candidate_args_are_exclusive(built):
    with pytest.raises(ValueError):
        candidate_ordinals(IDX, any_terms=["a"], groups=[["b"]])
    with pytest.raises(ValueError):
        candidate_ordinals(IDX)


def test_fast_full_resume_and_invalidation(ray_session, tmp_path):
    """A finished build returns via the fast path (manifest identical, no
    artifacts touched); corrupting a segment forces the slow path, which
    rebuilds it."""
    import pyarrow.parquet as pq

    src = tmp_path / "corpus.parquet"
    pq.write_table(generate_corpus(80, seed=5), src)
    idx = str(tmp_path / "idx")
    m1 = build_index(rd.read_parquet(str(src)), idx, lang_tagged=False,
                     n_shards=2)
    assert m1["corpus_fp"]  # file provenance recovered -> fast path armed
    seg_dir = os.path.join(idx, "segments", m1["segments"][0]["segment_id"])
    mtimes = {f: os.path.getmtime(os.path.join(seg_dir, f))
              for f in os.listdir(seg_dir)}
    m2 = build_index(rd.read_parquet(str(src)), idx, lang_tagged=False,
                     n_shards=2)
    assert m2 == m1
    assert all(os.path.getmtime(os.path.join(seg_dir, f)) == t
               for f, t in mtimes.items())  # fast path rewrote nothing
    # a corrupted segment (missing manifest) must break the fast path and
    # get rebuilt by the slow resume
    with open(os.path.join(seg_dir, "manifest.json")) as f:
        seg_man = json.load(f)
    os.remove(os.path.join(seg_dir, "manifest.json"))
    m3 = build_index(rd.read_parquet(str(src)), idx, lang_tagged=False,
                     n_shards=2)
    assert m3["n_postings"] == m1["n_postings"]
    with open(os.path.join(seg_dir, "manifest.json")) as f:
        assert json.load(f)["n_postings"] == seg_man["n_postings"]
