"""Posting codec round-trip + block-max property tests (SURVEY.md §5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splade_ray.codecs import (
    BLOCK,
    decode_block_range,
    decode_postings,
    encode_postings,
    tf_saturation,
    vb_decode_all,
    vb_encode,
)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 63) - 1), max_size=300))
@settings(max_examples=200, deadline=None)
def test_varbyte_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint64)
    buf = vb_encode(arr)
    out = vb_decode_all(buf)
    assert len(out) == len(arr)  # every byte consumed, nothing left over
    assert (out == arr).all()


def test_varbyte_boundaries():
    vals = np.array([0, 1, 127, 128, 16383, 16384, (1 << 63) - 1], dtype=np.uint64)
    buf = vb_encode(vals)
    out = vb_decode_all(buf)
    assert (out == vals).all()
    assert len(vb_encode(np.array([127], dtype=np.uint64))) == 1
    assert len(vb_encode(np.array([128], dtype=np.uint64))) == 2


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=100, deadline=None)
def test_varbyte_concat_streams(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 40, 17).astype(np.uint64)
    b = rng.integers(0, 1 << 40, 13).astype(np.uint64)
    buf = np.concatenate([vb_encode(a), vb_encode(b)])
    out = vb_decode_all(buf)
    assert len(out) == len(a) + len(b)
    da, db = out[: len(a)], out[len(a) :]
    assert (da == a).all() and (db == b).all()


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("idspace", [1 << 62, 10_000])  # wide + dense-ordinal (fast path)
def test_postings_roundtrip(n, idspace):
    rng = np.random.default_rng(n)
    ids = np.sort(rng.choice(max(idspace, n + 1), size=n, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 200, n)
    dls = rng.integers(1, 4000, n)
    blob, meta = encode_postings(ids, tfs, dls, avgdl=150.0)
    d, t = decode_postings(blob, meta)
    assert (d == ids.astype(np.int64)).all()
    assert (t == tfs).all()
    assert meta.df == n and meta.cf == tfs.sum()
    for i in range(len(meta.block_count)):
        bd, bt = decode_block_range(blob, meta, i, i + 1)
        lo, hi = i * BLOCK, min((i + 1) * BLOCK, n)
        assert (bd == ids[lo:hi].astype(np.int64)).all()
        sat = tf_saturation(tfs[lo:hi], dls[lo:hi], 150.0)
        assert float(meta.block_max_tfsat[i]) >= sat.max()  # safe upper bound


def test_unsorted_postings_rejected():
    ids = np.array([5, 3], dtype=np.uint64)
    with pytest.raises(ValueError):
        encode_postings(ids, np.array([1, 1]), np.array([1, 1]), 1.0)


@given(st.integers(min_value=1, max_value=1200), st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_block_range_roundtrip(n, seed):
    rng = np.random.default_rng(seed * 7919 + n)
    ids = np.sort(rng.choice(n * 50 + 10, size=n, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 99, n)
    dls = rng.integers(1, 3000, n)
    blob, meta = encode_postings(ids, tfs, dls, avgdl=100.0)
    n_blocks = len(meta.block_count)
    # every contiguous [lo, hi) range decodes exactly like a full-decode slice
    for lo in range(n_blocks):
        for hi in range(lo, n_blocks + 1):
            d, t = decode_block_range(blob, meta, lo, hi)
            plo, phi = lo * BLOCK, min(hi * BLOCK, n)
            assert (d == ids[plo:phi].astype(np.int64)).all()
            assert (t == tfs[plo:phi]).all()


# ------------------------------------------------- column (many-run) encode ---
#
# Reference: straightforward one-list-at-a-time encoders (per-block
# vb_encode calls, per-block float32 round-up).  The column encoders must
# reproduce them blob-for-blob and meta-for-meta.


def _ref_vb_encode(values):
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    nb = np.ones(n, dtype=np.int64)
    for k in range(1, 10):
        nb += (v >= np.uint64(1) << np.uint64(7 * k)).astype(np.int64)
    offs = np.zeros(n, dtype=np.int64)
    np.cumsum(nb[:-1], out=offs[1:])
    out = np.zeros(int(nb.sum()), dtype=np.uint8)
    for j in range(int(nb.max())):
        m = nb > j
        byte = (v[m] >> np.uint64(7 * j)).astype(np.uint64) & np.uint64(0x7F)
        cont = (nb[m] - 1 > j).astype(np.uint8) << 7
        out[offs[m] + j] = byte.astype(np.uint8) | cont
    return out


def _ref_encode_postings(doc_ids, tfs, dls, avgdl):
    df = len(doc_ids)
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    gaps = np.empty(df, dtype=np.uint64)
    gaps[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:])
    n_blocks = (df + BLOCK - 1) // BLOCK
    chunks = []
    block_count = np.empty(n_blocks, dtype=np.int32)
    block_nbytes = np.empty(n_blocks, dtype=np.int32)
    block_last = np.empty(n_blocks, dtype=np.int64)
    block_max = np.empty(n_blocks, dtype=np.float32)
    sat = tf_saturation(np.asarray(tfs), np.asarray(dls), avgdl)
    for i in range(n_blocks):
        lo, hi = i * BLOCK, min((i + 1) * BLOCK, df)
        enc = np.concatenate([
            _ref_vb_encode(gaps[lo:hi]),
            _ref_vb_encode(np.asarray(tfs[lo:hi], dtype=np.uint64)),
        ])
        chunks.append(enc)
        block_count[i] = hi - lo
        block_nbytes[i] = len(enc)
        block_last[i] = int(doc_ids[hi - 1])
        m = np.float32(sat[lo:hi].max())
        if float(m) < float(sat[lo:hi].max()):
            m = np.nextafter(m, np.float32(np.inf))
        block_max[i] = m
    blob = np.concatenate(chunks)
    meta = dict(df=df, cf=int(np.asarray(tfs, dtype=np.uint64).sum()),
                nbytes=len(blob), block_count=block_count,
                block_nbytes=block_nbytes, block_last_docid=block_last,
                block_max_tfsat=block_max)
    return blob, meta


def _ref_encode_positions(tfs, flat_pos, block_count):
    tfs = np.asarray(tfs, dtype=np.int64)
    total = int(tfs.sum())
    pos = np.ascontiguousarray(flat_pos, dtype=np.uint64)
    deltas = np.empty(total, dtype=np.uint64)
    if total:
        deltas[0] = pos[0]
        np.subtract(pos[1:], pos[:-1], out=deltas[1:])
        starts = np.zeros(len(tfs), dtype=np.int64)
        np.cumsum(tfs[:-1], out=starts[1:])
        deltas[starts] = pos[starts]
    blob = _ref_vb_encode(deltas)
    nb = np.ones(total, dtype=np.int64)
    for k in range(1, 10):
        nb += (deltas >= np.uint64(1) << np.uint64(7 * k)).astype(np.int64)
    bc = np.asarray(block_count, dtype=np.int64)
    post_ends = np.cumsum(bc)
    tf_csum = np.concatenate([[0], np.cumsum(tfs)])
    nb_csum = np.concatenate([[0], np.cumsum(nb)])
    block_pos_nbytes = np.diff(
        np.concatenate([[0], nb_csum[tf_csum[post_ends]]])).astype(np.int32)
    return blob, block_pos_nbytes


def _segmented_cumsum(deltas, counts):
    csum = np.cumsum(deltas)
    starts = np.cumsum(counts) - counts
    return csum - np.repeat(csum[starts] - deltas[starts], counts)


def _make_runs(runs, pos_scale):
    """Flat (ids, tfs, dls, positions, run_starts) for hypothesis runs of
    (df, gap scale, max tf, seed)."""
    ids, tfs, dls, pos, starts, at = [], [], [], [], [], 0
    for df, gap, max_tf, seed in runs:
        rng = np.random.default_rng(seed)
        g = rng.integers(gap, 4 * gap + 1, df)  # every gap >= its scale
        ids.append(np.cumsum(g) - g[0] + rng.integers(0, 4 * gap))
        tf = rng.integers(1, max_tf + 1, df)
        tf[rng.integers(0, df)] = max_tf  # the scale's max tf occurs
        tfs.append(tf)
        dls.append(rng.integers(1, 5000, df))
        pos.append(_segmented_cumsum(rng.integers(1, pos_scale, int(tf.sum())),
                                     tf) - 1)
        starts.append(at)
        at += df
    cat = (lambda xs: np.concatenate(xs) if xs
           else np.zeros(0, dtype=np.int64))
    return (cat(ids), cat(tfs), cat(dls), cat(pos),
            np.asarray(starts, dtype=np.int64))


_RUN = st.tuples(
    st.one_of(st.integers(1, 600), st.sampled_from([128, 256, 384, 512])),
    st.sampled_from([1, 1 << 7, 1 << 14]),
    st.sampled_from([3, 127, 300]),
    st.integers(0, 2**32 - 1),
)


@given(st.lists(_RUN, max_size=5), st.sampled_from([2, 200, 1 << 15]),
       st.floats(1.0, 1000.0))
@settings(max_examples=60, deadline=None)
def test_encode_many_matches_per_run_reference(runs, pos_scale, avgdl):
    from splade_ray.codecs import encode_positions, encode_postings_many

    ids, tfs, dls, pos, starts = _make_runs(runs, pos_scale)
    blob, cols = encode_postings_many(ids, tfs, dls, starts, avgdl)
    pblob, pnb = encode_positions(tfs, pos, cols.block_count)
    ends = np.append(starts[1:], len(ids)).astype(np.int64)
    want_blobs, want_pos, want_pnb = [], [], []
    assert len(cols.df) == len(runs)
    for r, (lo, hi) in enumerate(zip(starts, ends)):
        rblob, rmeta = _ref_encode_postings(ids[lo:hi], tfs[lo:hi],
                                            dls[lo:hi], avgdl)
        want_blobs.append(rblob)
        b_lo, b_hi = cols.block_offsets[r], cols.block_offsets[r + 1]
        for key, want in rmeta.items():
            got = getattr(cols, key)
            got = got[r] if key in ("df", "cf", "nbytes") else got[b_lo:b_hi]
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, key
                assert np.array_equal(got, want), (r, key)
            else:
                assert got == want, (r, key)
        p_lo, p_hi = int(tfs[:lo].sum()), int(tfs[:hi].sum())
        b, nb = _ref_encode_positions(tfs[lo:hi], pos[p_lo:p_hi],
                                      rmeta["block_count"])
        want_pos.append(b)
        want_pnb.append(nb)
    cat = (lambda xs, dt: np.concatenate(xs) if xs else np.zeros(0, dt))
    assert blob.dtype == np.uint8
    assert blob.tobytes() == cat(want_blobs, np.uint8).tobytes()
    assert pblob.tobytes() == cat(want_pos, np.uint8).tobytes()
    assert pnb.dtype == np.int32
    assert np.array_equal(pnb, cat(want_pnb, np.int32))


def test_encode_many_empty_segment():
    from splade_ray.codecs import encode_positions, encode_postings_many

    e = np.zeros(0, dtype=np.int64)
    blob, cols = encode_postings_many(e, e, e, e, 100.0)
    assert len(blob) == 0 and blob.dtype == np.uint8
    assert list(cols.block_offsets) == [0]
    for name in ("df", "cf", "nbytes", "block_count", "block_nbytes",
                 "block_last_docid", "block_max_tfsat"):
        assert len(getattr(cols, name)) == 0, name
    pblob, pnb = encode_positions(e, e, cols.block_count)
    assert len(pblob) == 0 and len(pnb) == 0


def test_encode_many_rounds_block_max_up():
    """Doc lengths whose f64 bound rounds DOWN to the nearest float32 take
    the nextafter branch, exactly like the per-block reference."""
    from splade_ray.codecs import encode_postings_many

    rng = np.random.default_rng(5)
    n = 3000  # one posting per list: each block's bound is one sat value
    ids = rng.integers(0, 1 << 20, n)
    tfs = rng.integers(1, 50, n)
    dls = rng.integers(1, 4000, n)
    avgdl = 123.456
    _, cols = encode_postings_many(ids, tfs, dls, np.arange(n), avgdl)
    truth = tf_saturation(tfs, dls, avgdl)
    rounded_down = truth.astype(np.float32).astype(np.float64) < truth
    assert rounded_down.sum() > n // 10  # the branch is exercised
    assert (cols.block_max_tfsat.astype(np.float64) >= truth).all()
    for i in np.flatnonzero(rounded_down)[:50]:
        _, meta = _ref_encode_postings(ids[i : i + 1], tfs[i : i + 1],
                                       dls[i : i + 1], avgdl)
        assert cols.block_max_tfsat[i] == meta["block_max_tfsat"][0]


def test_encode_many_rejects_bad_runs():
    from splade_ray.codecs import encode_postings_many

    ids, one = np.array([1, 5, 9]), np.ones(3, dtype=np.int64)
    with pytest.raises(ValueError, match="run_starts"):
        encode_postings_many(ids, one, one, [1], 1.0)
    with pytest.raises(ValueError, match="run_starts"):
        encode_postings_many(ids, one, one, [0, 2, 2], 1.0)
    # a new run may restart lower; inside a run the ids must rise
    encode_postings_many(np.array([5, 9, 1]), one, one, [0, 2], 1.0)
    with pytest.raises(ValueError, match="sorted"):
        encode_postings_many(np.array([5, 9, 1]), one, one, [0], 1.0)


@given(st.lists(_RUN, max_size=5), st.sampled_from([2, 1 << 15]))
@settings(max_examples=40, deadline=None)
def test_decode_runs_roundtrip(runs, pos_scale):
    from splade_ray.codecs import (decode_positions_range, decode_runs,
                                   encode_positions, encode_postings_many)

    ids, tfs, dls, pos, starts = _make_runs(runs, pos_scale)
    blob, cols = encode_postings_many(ids, tfs, dls, starts, 100.0)
    d, t = decode_runs(blob, cols.df, cols.block_count)
    assert np.array_equal(d, ids) and np.array_equal(t, tfs)
    pblob, pnb = encode_positions(tfs, pos, cols.block_count)
    got = decode_positions_range(pblob, pnb, t, 0, len(pnb))
    assert np.array_equal(got, pos)


@given(st.lists(_RUN, max_size=4))
@settings(max_examples=40, deadline=None)
def test_decode_postings_many_concatenates_parts(runs):
    """Several lists (one term's salted pieces) decode to the concatenation
    of their one-list decodes — zero parts, slow (multi-byte) and fast
    (one-byte) parts mixed."""
    from splade_ray.codecs import decode_postings_many

    ids, tfs, dls, _, starts = _make_runs(runs, 2)
    ends = np.append(starts[1:], len(ids)).astype(np.int64)
    parts = [encode_postings(ids[lo:hi], tfs[lo:hi], dls[lo:hi], 100.0)
             for lo, hi in zip(starts, ends)]
    d, t = decode_postings_many(parts)
    want = [decode_postings(b, m) for b, m in parts]
    assert d.dtype == np.int64 and t.dtype == np.int32
    assert np.array_equal(d, np.concatenate([w[0] for w in want] + [d[:0]]))
    assert np.array_equal(t, np.concatenate([w[1] for w in want] + [t[:0]]))
    assert np.array_equal(d, ids) and np.array_equal(t, tfs)
