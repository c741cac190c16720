"""Hot-term detection: per-block Misra-Gries summaries folded at the driver
(``splade_ray.hotterms``) against exact document frequencies, and the hot
set's effect on a build — resume keeps it, salting never changes results."""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splade_ray.build import build_index
from splade_ray.corpus import generate_corpus, generate_queries
from splade_ray.hotterms import (MAX_CAPACITY, MisraGries, block_summary,
                                 capacity_for)
from splade_ray.query import QueryEngine

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _zipf_blocks(seed, n_blocks, max_docs, vocab, max_terms):
    """Blocks of docs, each doc a set of Zipf-drawn terms (unique per doc,
    as staging's ``terms`` lists are)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_blocks):
        docs = []
        for _ in range(int(rng.integers(1, max_docs + 1))):
            ids = np.unique(rng.zipf(1.3, int(rng.integers(1, max_terms + 1)))
                            % vocab)
            docs.append([f"t{i}" for i in ids])
        blocks.append(pa.array(docs, pa.list_(pa.string())))
    return blocks


def _fold(blocks, capacity):
    mg = MisraGries(capacity)
    for b in blocks:
        terms, dfs = block_summary(b, capacity)
        assert len(dfs) <= capacity
        mg.merge(terms, dfs)
    return mg


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n_blocks=st.integers(1, 24),
       vocab=st.integers(5, 3000), capacity=st.integers(1, 200),
       threshold=st.integers(1, 60), orders=st.integers(2, 4))
def test_summary_guarantee_order_and_bound(seed, n_blocks, vocab, capacity,
                                           threshold, orders):
    blocks = _zipf_blocks(seed, n_blocks, 40, vocab, 30)
    df = Counter(t for b in blocks for t in b.flatten().to_pylist())
    n_pairs = sum(df.values())
    # the mergeable Misra-Gries bound: threshold * (1 + eps) with
    # eps = N / ((capacity + 1) * threshold)
    err = n_pairs / (capacity + 1)
    must = {t for t, c in df.items() if c >= threshold + err}
    may = {t for t, c in df.items() if c >= threshold}
    rng = np.random.default_rng(seed)
    for _ in range(orders):
        order = rng.permutation(n_blocks)
        mg = _fold([blocks[i] for i in order], capacity)
        hot = set(mg.hot(threshold))
        assert must <= hot <= may
        if capacity >= len(df):
            assert hot == may  # nothing to cut: the exact hot set
        # bounded: the fold never holds more than its state plus one
        # block's summary, whatever the block count or vocabulary
        assert mg.rows <= capacity and mg.peak_rows <= 2 * capacity
        # a fixed order folds to the same set every time; two orders can
        # differ only on terms inside the error band (may - must)
        assert set(_fold([blocks[i] for i in order], capacity)
                   .hot(threshold)) == hot


def test_fixed_order_is_deterministic():
    blocks = _zipf_blocks(3, 20, 40, 2000, 30)
    runs = {tuple(_fold(blocks, 16).hot(8)) for _ in range(3)}
    assert len(runs) == 1


def test_capacity_does_not_grow_with_the_corpus():
    frac, floor = 0.005, 512
    caps = [capacity_for(n, max(floor, int(frac * n)))
            for n in (10, 10**3, 10**5, 10**7, 10**9)]
    assert max(caps) <= MAX_CAPACITY
    assert caps[-1] == caps[-2]  # above hot_df_min/frac: n_docs/T = 1/frac


# -- the hot set in a build --------------------------------------------------

KW = dict(lang_tagged=True, n_shards=8, hot_df_frac=0.05)


@pytest.fixture(scope="module")
def corpus_table():
    return generate_corpus(400, seed=11)


def _manifest(index_dir):
    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        return json.load(f)


def _diff_index(a, b):
    return subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "diff_index.py"), a, b],
        capture_output=True, text=True)


def test_resume_keeps_segments_and_hot_set(corpus_table, ray_session,
                                           tmp_path):
    idx, ref = str(tmp_path / "idx"), str(tmp_path / "ref")
    fp = "hot-terms-resume"
    build_index(rd.from_arrow(corpus_table).repartition(4), idx,
                hot_df_min=40, corpus_fp=fp, **KW)
    shutil.copytree(idx, ref)
    segs = sorted(os.listdir(os.path.join(idx, "segments")))
    for s in (segs[1], segs[6]):
        shutil.rmtree(os.path.join(idx, "segments", s))
    build_index(rd.from_arrow(corpus_table).repartition(3), idx,
                hot_df_min=40, corpus_fp=fp, **KW)
    out = _diff_index(ref, idx)
    assert out.returncode == 0, out.stdout
    # every segment, then the forward arrays and tombstones ("docs same")
    assert out.stdout.count(" same\n") == len(segs) + 1
    assert _manifest(idx)["hot_terms"] == _manifest(ref)["hot_terms"]
    # the fold kept every term (the corpus vocabulary is below capacity),
    # so the hot set is exactly the terms whose df reaches the threshold
    staging = os.path.join(idx, "staging")
    df = Counter(t for f in os.listdir(staging)
                 for doc in pq.read_table(os.path.join(staging, f),
                                          columns=["terms"])["terms"]
                 .to_pylist() for t in doc)
    man = _manifest(idx)
    assert man["counters"]["summary_rows"] == len(df)
    assert man["hot_terms"] == sorted(t for t, c in df.items()
                                      if c >= man["hot_df_threshold"])


def test_resume_under_another_hot_set_rebuilds_every_segment(
        corpus_table, ray_session, tmp_path):
    """A rerun whose settings salt differently (here: no hot terms) must not
    keep segments salted the old way, or a term's postings would split
    between kept salted shards and its rebuilt unsalted home shard."""
    idx, plain = str(tmp_path / "idx"), str(tmp_path / "plain")
    fp = "hot-terms-resalt"
    build_index(rd.from_arrow(corpus_table), idx, hot_df_min=40,
                corpus_fp=fp, **KW)
    segs = sorted(os.listdir(os.path.join(idx, "segments")))
    shutil.rmtree(os.path.join(idx, "segments", segs[3]))
    m = build_index(rd.from_arrow(corpus_table), idx, hot_df_min=10**9,
                    corpus_fp=fp, **KW)
    mp = build_index(rd.from_arrow(corpus_table), plain, hot_df_min=10**9,
                     corpus_fp=fp, **KW)
    assert m["hot_terms"] == [] and m["n_postings"] == mp["n_postings"]
    out = _diff_index(idx, plain)
    assert out.returncode == 0, out.stdout


def _answers(index_dir):
    eng = QueryEngine(index_dir, k=10)
    return [[a.tolist() for a in eng.search_one(r["query"], r["lang"] or None)]
            for r in generate_queries().to_pylist()]


def test_finished_build_rerun_with_other_hot_settings(corpus_table,
                                                      ray_session, tmp_path):
    """A finished index rerun with other hot settings is not returned as
    is: the MANIFEST must describe the settings asked for."""
    idx = str(tmp_path / "idx")
    fp = "hot-terms-finished"
    m0 = build_index(rd.from_arrow(corpus_table), idx, hot_df_min=40,
                     corpus_fp=fp, **KW)
    assert m0["hot_terms"] and m0["hot_df_threshold"] == 40
    before = _answers(idx)
    m = build_index(rd.from_arrow(corpus_table), idx, hot_df_min=10**9,
                    corpus_fp=fp, **KW)
    assert m["hot_terms"] == [] and m["hot_df_threshold"] == 10**9
    assert _manifest(idx)["hot_terms"] == []
    assert _answers(idx) == before
    # equal settings still take the fast path: the same manifest back
    assert build_index(rd.from_arrow(corpus_table), idx, hot_df_min=10**9,
                       corpus_fp=fp, **KW) == m


def test_salting_never_changes_results(corpus_table, ray_session, tmp_path):
    salted, plain = str(tmp_path / "salted"), str(tmp_path / "plain")
    ds = rd.from_arrow(corpus_table).repartition(4)
    ms = build_index(ds, salted, hot_df_min=40, checkpoint="none", **KW)
    mp = build_index(ds, plain, hot_df_min=10**9, checkpoint="none", **KW)
    assert len(ms["hot_terms"]) >= 24 and mp["hot_terms"] == []
    assert ms["n_postings"] == mp["n_postings"]
    cs, cp = ms["counters"], mp["counters"]
    assert cs["distinct_terms"] == cp["distinct_terms"]
    assert cs["hot_terms"] == len(ms["hot_terms"])
    assert cs["salted_dict_rows"] > cs["hot_terms"]
    assert cp["salted_dict_rows"] == 0
    assert cs["rows_in"] == len(corpus_table)
    assert cs["rows_in"] - cs["rows_dropped"] == ms["n_docs"]
    assert cs["shard_postings_max"] >= cs["shard_postings_mean"] > 0
    a, b = QueryEngine(salted, k=10), QueryEngine(plain, k=10)
    for row in generate_queries().to_pylist():
        ra = a.search_one(row["query"], row["lang"] or None)
        rb = b.search_one(row["query"], row["lang"] or None)
        assert ra[0].tolist() == rb[0].tolist(), row
        assert ra[1].tolist() == rb[1].tolist(), row
    # the diff tool names the salted terms as the only hot-set difference
    out = _diff_index(salted, plain)
    assert out.returncode == 1
    assert f"hot_terms only in A ({len(ms['hot_terms'])}):" in out.stdout
    assert "hot_terms only in B (0):" in out.stdout
