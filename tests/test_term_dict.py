"""Term-dictionary reads of SegmentReader: the byte-level bisect behind
term_rows / prefix_rows / seek_row against a str-based reference, the numpy
column views (dtypes, read-only), and dictionaries stored in several parquet
row groups."""

import os
import shutil
import tempfile

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray.data as rd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splade_ray.build import build_index
from splade_ray.corpus import generate_corpus, generate_queries
from splade_ray.query import QueryEngine
from splade_ray.segments import SegmentBuilder, SegmentReader

AVGDL = 10.0


# -- str-based reference: the dictionary searched one Python str per probe --
def _ref_left(terms, key, lo, hi):
    while lo < hi:
        mid = (lo + hi) // 2
        if terms[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _ref_term_rows(terms, term):
    left = _ref_left(terms, term, 0, len(terms))
    lo, hi = left, len(terms)
    while lo < hi:
        mid = (lo + hi) // 2
        if terms[mid] <= term:
            lo = mid + 1
        else:
            hi = mid
    return range(left, lo)


def _ref_prefix_rows(terms, prefix):
    left = _ref_left(terms, prefix, 0, len(terms))
    lo, hi, p = left, len(terms), len(prefix)
    while lo < hi:
        mid = (lo + hi) // 2
        if terms[mid][:p] <= prefix:
            lo = mid + 1
        else:
            hi = mid
    return range(left, lo)


def _write_segment(out_dir, vocab):
    """vocab: {term: n_salts}; rows sorted by (term, salt) as the build
    writes them."""
    b = SegmentBuilder("seg", 0)
    for term in sorted(vocab):
        for salt in range(vocab[term]):
            ids = np.array([salt, salt + 3], dtype=np.uint64)
            b.add(term, salt, ids, np.array([1, 2], dtype=np.int64),
                  np.array([5, 7], dtype=np.int64), AVGDL)
    b.write(out_dir)
    return SegmentReader(out_dir)


# a small alphabet with 1-, 2-, 3- and 4-byte UTF-8 characters, so terms
# share prefixes and multi-byte characters straddle prefix cuts
_CHARS = st.sampled_from("abéÿĀ中￿\U0001f600z")
_TERM = st.text(_CHARS, min_size=1, max_size=5)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(vocab=st.dictionaries(_TERM, st.integers(1, 4), max_size=30),
       probes=st.lists(st.text(_CHARS, max_size=6), max_size=8),
       bounds=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)),
                       max_size=6))
def test_bisect_matches_str_reference(vocab, probes, bounds):
    with tempfile.TemporaryDirectory() as tmp:
        seg = _write_segment(os.path.join(tmp, "seg"), vocab)
        terms = [t for t in sorted(vocab) for _ in range(vocab[t])]
        n = len(terms)
        assert [seg.term_at(i) for i in range(n)] == terms
        keys = set(probes) | set(vocab) | {""}
        keys |= {t[:i] for t in vocab for i in range(len(t))}
        if vocab:  # keys below the first term and above the last
            keys |= {"\u0000", max(vocab) + "\U0010ffff"}
        for key in keys:
            assert seg.term_rows(key) == _ref_term_rows(terms, key), key
            assert seg.prefix_rows(key) == _ref_prefix_rows(terms, key), key
            assert seg.seek_row(key) == _ref_left(terms, key, 0, n), key
            for lo, hi in bounds:
                lo, hi = min(lo, n), min(hi, n)
                assert (seg.seek_row(key, lo, hi)
                        == _ref_left(terms, key, lo, hi)), (key, lo, hi)
        for t in vocab:  # one row per salt, in salt order
            assert seg.salt[seg.term_rows(t)].tolist() == list(range(vocab[t]))


def test_empty_segment_lookups(tmp_path):
    seg = _write_segment(str(tmp_path / "seg"), {})
    for key in ("", "a", "中"):
        assert seg.term_rows(key) == range(0, 0)
        assert seg.prefix_rows(key) == range(0, 0)
        assert seg.seek_row(key) == 0
    assert len(seg.salt) == 0 and len(seg.df) == 0


# -- chunked dictionaries and read-only views --------------------------------
@pytest.fixture(scope="module")
def index_pair(ray_session, tmp_path_factory):
    """One small hot-salted positional index, and a copy whose every
    dict.parquet is rewritten in row groups of 7 rows."""
    root = tmp_path_factory.mktemp("term_dict")
    one = str(root / "one")
    build_index(rd.from_arrow(generate_corpus(200, seed=29)), one,
                lang_tagged=False, n_shards=2, hot_df_min=20,
                hot_df_frac=0.05, positions=True)
    many = str(root / "many")
    shutil.copytree(one, many)
    seg_root = os.path.join(many, "segments")
    for s in os.listdir(seg_root):
        path = os.path.join(seg_root, s, "dict.parquet")
        pq.write_table(pq.read_table(path), path, row_group_size=7)
    return one, many


def _segment_pairs(one, many):
    seg_root = os.path.join(one, "segments")
    for s in sorted(os.listdir(seg_root)):
        yield (SegmentReader(os.path.join(seg_root, s)),
               SegmentReader(os.path.join(many, "segments", s)))


def test_chunked_dictionary_matches_single_chunk(index_pair):
    one, many = index_pair
    salted = False
    for a, b in _segment_pairs(one, many):
        assert a.dict["term"].num_chunks == 1
        assert b.dict["term"].num_chunks > 1
        assert b.dict["block_count"].num_chunks > 1
        n = a.dict.num_rows
        terms = [a.term_at(i) for i in range(n)]
        assert terms == [b.term_at(i) for i in range(n)]
        salted |= len(set(terms)) < n
        for col in ("salt", "df", "cf", "nbytes"):
            np.testing.assert_array_equal(getattr(a, col), getattr(b, col))
        for t in terms[::3]:
            assert a.term_rows(t) == b.term_rows(t)
            assert a.prefix_rows(t[:2]) == b.prefix_rows(t[:2])
            assert a.seek_row(t[:1], 1, n) == b.seek_row(t[:1], 1, n)
        for i in range(n):
            ma, mb = a.meta_at(i), b.meta_at(i)
            assert (ma.df, ma.cf, ma.nbytes) == (mb.df, mb.cf, mb.nbytes)
            for f in ("block_count", "block_nbytes", "block_last_docid",
                      "block_max_tfsat"):
                np.testing.assert_array_equal(getattr(ma, f), getattr(mb, f))
            ids_a, tfs_a = a.postings_at(i)
            ids_b, tfs_b = b.postings_at(i)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(tfs_a, tfs_b)
            np.testing.assert_array_equal(a.positions_at(i, tfs_a),
                                          b.positions_at(i, tfs_b))
    assert salted  # hot terms were salted over several rows

    queries = generate_queries().slice(0, 20)
    answered = 0
    for kind in ("text", "prefix", "fuzzy", "fuzzy2"):
        got = QueryEngine(many, k=10, query_kind=kind)(queries)
        assert got.equals(QueryEngine(one, k=10, query_kind=kind)(queries))
        answered += got.num_rows
    assert answered


def test_view_dtypes_and_read_only(index_pair):
    for seg in (r for pair in _segment_pairs(*index_pair) for r in pair):
        meta = seg.meta_at(0)
        assert meta.block_count.dtype == np.int32
        assert meta.block_nbytes.dtype == np.int32
        assert meta.block_last_docid.dtype == np.int64
        assert meta.block_max_tfsat.dtype == np.float32
        assert isinstance(meta.df, int) and isinstance(meta.nbytes, int)
        views = [seg.salt, seg.df, seg.cf, seg.nbytes, meta.block_count,
                 meta.block_nbytes, meta.block_last_docid,
                 meta.block_max_tfsat]
        for view in views:
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0
