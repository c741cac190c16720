"""Segment merge idempotence + atomicity scenarios (FIXTURES.md §6)."""

import json
import os

import numpy as np
import pytest

from splade_ray.segments import (
    SegmentBuilder,
    SegmentReader,
    merge_segments,
    validate_segment,
)

AVGDL = 100.0
DOCLENS = __import__("numpy").arange(1000, dtype="int64") % 97 + 5  # dl per doc id


def _mk_segment(tmp_path, name, shard, lists):
    """lists: {(term, salt): (ids, tfs, dls)}"""
    b = SegmentBuilder(name, shard)
    for (term, salt), (ids, tfs) in sorted(lists.items()):
        ids = np.asarray(ids, dtype=np.uint64)
        b.add(term, salt, ids,
              np.asarray(tfs, dtype=np.int64),
              DOCLENS[ids.astype(np.int64)], AVGDL)
    out = os.path.join(tmp_path, name)
    b.write(out)
    return out


def _dump(seg_dir):
    r = SegmentReader(seg_dir)
    out = {}
    for i in range(r.dict.num_rows):
        key = (r.dict["term"][i].as_py(), r.dict["salt"][i].as_py())
        ids, tfs = r.postings_at(i)
        out[key] = (ids.tolist(), tfs.tolist())
    return out


def test_merge_disjoint_and_overlapping(tmp_path):
    a = _mk_segment(tmp_path, "a", 0, {
        ("foo", 0): ([1, 5, 9], [2, 1, 3]),
        ("bar", 0): ([2], [1]),
    })
    b = _mk_segment(tmp_path, "b", 0, {
        ("foo", 0): ([3, 7], [1, 1]),
        ("baz", 0): ([4], [2]),
    })
    out = os.path.join(tmp_path, "m")
    merge_segments([a, b], out, "m", 0, AVGDL, DOCLENS)
    d = _dump(out)
    assert d[("foo", 0)][0] == [1, 3, 5, 7, 9]
    assert d[("foo", 0)][1] == [2, 1, 1, 1, 3]
    assert d[("bar", 0)] == ([2], [1])
    assert d[("baz", 0)] == ([4], [2])


def test_merge_idempotent_and_associative(tmp_path):
    a = _mk_segment(tmp_path, "a", 0, {("t", 0): ([1, 3], [1, 2])})
    b = _mk_segment(tmp_path, "b", 0, {("t", 0): ([2], [5])})
    c = _mk_segment(tmp_path, "c", 0, {("t", 0): ([10], [1]),
                                       ("u", 0): ([1], [1])})
    ab = os.path.join(tmp_path, "ab"); merge_segments([a, b], ab, "ab", 0, AVGDL, DOCLENS)
    ab_c = os.path.join(tmp_path, "ab_c"); merge_segments([ab, c], ab_c, "x", 0, AVGDL, DOCLENS)
    bc = os.path.join(tmp_path, "bc"); merge_segments([b, c], bc, "bc", 0, AVGDL, DOCLENS)
    a_bc = os.path.join(tmp_path, "a_bc"); merge_segments([a, bc], a_bc, "x", 0, AVGDL, DOCLENS)
    assert _dump(ab_c) == _dump(a_bc)
    # idempotence: merging a segment with itself is identity
    aa = os.path.join(tmp_path, "aa"); merge_segments([a, a], aa, "aa", 0, AVGDL, DOCLENS)
    assert _dump(aa) == _dump(a)
    # re-merging an already-merged segment changes nothing
    ab2 = os.path.join(tmp_path, "ab2"); merge_segments([ab, ab], ab2, "x", 0, AVGDL, DOCLENS)
    assert _dump(ab2) == _dump(ab)


def test_merge_conflicting_tf_raises(tmp_path):
    a = _mk_segment(tmp_path, "a", 0, {("t", 0): ([7], [1])})
    b = _mk_segment(tmp_path, "b", 0, {("t", 0): ([7], [9])})
    with pytest.raises(ValueError, match="collision"):
        merge_segments([a, b], os.path.join(tmp_path, "m"), "m", 0, AVGDL, DOCLENS)


def test_salted_sublists_survive_merge(tmp_path):
    """A hot term's salted sub-lists stay separate (term, salt) entries."""
    a = _mk_segment(tmp_path, "a", 0, {("hot", 0): ([1, 2], [1, 1])})
    b = _mk_segment(tmp_path, "b", 0, {("hot", 1): ([50, 60], [1, 1])})
    out = os.path.join(tmp_path, "m")
    merge_segments([a, b], out, "m", 0, AVGDL, DOCLENS)
    d = _dump(out)
    assert set(d) == {("hot", 0), ("hot", 1)}


def test_kill_between_write_and_manifest(tmp_path):
    """A segment missing its manifest (simulated kill) fails validation."""
    seg = _mk_segment(tmp_path, "a", 0, {("t", 0): ([1], [1])})
    assert validate_segment(seg) is not None
    os.remove(os.path.join(seg, "manifest.json"))
    assert validate_segment(seg) is None
    # and a manifest whose checksum disagrees with the blob fails too
    seg2 = _mk_segment(tmp_path, "b", 0, {("t", 0): ([1], [1])})
    with open(os.path.join(seg2, "manifest.json")) as f:
        m = json.load(f)
    m["postings_sha256"] = "0" * 64
    with open(os.path.join(seg2, "manifest.json"), "w") as f:
        json.dump(m, f)
    assert validate_segment(seg2) is None


def test_empty_segment(tmp_path):
    seg = _mk_segment(tmp_path, "e", 3, {})
    m = validate_segment(seg)
    assert m is not None and m["n_terms"] == 0
    out = os.path.join(tmp_path, "me")
    merge_segments([seg, seg], out, "me", 3, AVGDL, DOCLENS)
    assert _dump(out) == {}


def test_pre_v3_index_refused(tmp_path, ray_session):
    """A manifest without doc_ordinals (pre-v3 layout) must be refused with a
    'rebuild required' error, not crash later in _gather / misdecode."""
    import json
    import shutil

    import pytest
    import ray.data as rd

    from splade_ray.build import build_index
    from splade_ray.corpus import generate_corpus
    from splade_ray.query import QueryEngine
    from splade_ray.segments import FORMAT_VERSION, SegmentReader

    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(generate_corpus(80, seed=3)), idx,
                lang_tagged=False, n_shards=2)
    mpath = idx + "/MANIFEST.json"
    with open(mpath) as f:
        manifest = json.load(f)
    manifest.pop("doc_ordinals")
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    with pytest.raises(ValueError, match="rebuild required"):
        QueryEngine(idx)

    # a segment with a stale format_version is refused by the reader too
    seg = idx + "/segments/" + manifest["segments"][0]["segment_id"]
    smpath = seg + "/manifest.json"
    with open(smpath) as f:
        sm = json.load(f)
    sm["format_version"] = FORMAT_VERSION - 1
    with open(smpath, "w") as f:
        json.dump(sm, f)
    with pytest.raises(ValueError, match="format_version"):
        SegmentReader(seg)


def test_quick_validation_checks_sizes_not_hashes(tmp_path):
    """quick=True catches truncation via recorded byte sizes (no re-hash);
    a bit-flip that preserves size passes quick but fails the full check —
    the documented trade: the fast-resume path guards against partial
    writes, resume-after-corruption keeps the sha."""
    seg = _mk_segment(tmp_path, "q", 0, {("t", 0): ([1, 2, 3], [1, 2, 1]),
                                         ("u", 0): ([5], [4])})
    assert validate_segment(seg, quick=True) is not None
    bpath = os.path.join(seg, "postings.bin")
    blob = open(bpath, "rb").read()
    # truncation: quick mode must refuse
    with open(bpath, "wb") as f:
        f.write(blob[:-1])
    assert validate_segment(seg, quick=True) is None
    assert validate_segment(seg) is None
    # same-size corruption: quick passes (by design), full sha refuses
    with open(bpath, "wb") as f:
        f.write(bytes([blob[0] ^ 0xFF]) + blob[1:])
    assert validate_segment(seg, quick=True) is not None
    assert validate_segment(seg) is None
    # restore -> both pass again
    with open(bpath, "wb") as f:
        f.write(blob)
    assert validate_segment(seg) is not None
    # a legacy manifest without the size fields falls back to the full sha
    mpath = os.path.join(seg, "manifest.json")
    m = json.load(open(mpath))
    del m["postings_nbytes"]
    json.dump(m, open(mpath, "w"))
    assert validate_segment(seg, quick=True) is not None


def test_decode_all_matches_row_reads(tmp_path):
    """The whole-segment decode equals postings_at / positions_at row by
    row, for lists spanning one and several blocks."""
    rng = np.random.default_rng(4)
    dfs = [1, 3, 128, 129, 300, 1, 2]
    ids, tfs, starts = [], [], []
    for df in dfs:
        starts.append(sum(len(x) for x in ids))
        ids.append(np.sort(rng.choice(1000, df, replace=False)))
        tfs.append(rng.integers(1, 200, df))
    ids, tfs = np.concatenate(ids), np.concatenate(tfs)
    pos = np.concatenate([np.sort(rng.choice(20_000, t, replace=False))
                          for t in tfs])
    b = SegmentBuilder("d", 0, with_positions=True)
    terms = [f"t{i}" for i in range(len(dfs))]
    b.add_many(terms, np.zeros(len(dfs)), ids, tfs, DOCLENS[ids], starts,
               AVGDL, positions=pos)
    out = os.path.join(tmp_path, "d")
    b.write(out)
    r = SegmentReader(out)
    row_starts, all_ids, all_tfs, all_pos = r.decode_all()
    assert np.array_equal(all_ids, ids) and np.array_equal(all_tfs, tfs)
    assert np.array_equal(all_pos, pos)
    pos_starts = np.concatenate([[0], np.cumsum(all_tfs)])
    for i in range(r.dict.num_rows):
        lo, hi = row_starts[i], row_starts[i + 1]
        row_ids, row_tfs = r.postings_at(i)
        assert np.array_equal(all_ids[lo:hi], row_ids)
        assert np.array_equal(all_tfs[lo:hi], row_tfs)
        assert np.array_equal(all_pos[pos_starts[lo]:pos_starts[hi]],
                              r.positions_at(i, row_tfs))
    # a segment without postings decodes to nothing
    e = _mk_segment(tmp_path, "e", 0, {})
    row_starts, all_ids, all_tfs, all_pos = SegmentReader(e).decode_all()
    assert list(row_starts) == [0] and not len(all_ids) and all_pos is None


def test_merge_collapses_equal_and_names_conflicting_term(tmp_path):
    a = _mk_segment(tmp_path, "a", 0, {("t", 0): ([3, 7], [2, 1]),
                                       ("u", 0): ([7], [4])})
    b = _mk_segment(tmp_path, "b", 0, {("t", 0): ([7, 9], [1, 5]),
                                       ("u", 0): ([7], [5])})
    c = _mk_segment(tmp_path, "c", 0, {("t", 0): ([7, 9], [1, 5])})
    out = os.path.join(tmp_path, "m")
    merge_segments([a, c], out, "m", 0, AVGDL, DOCLENS)
    assert _dump(out)[("t", 0)] == ([3, 7, 9], [2, 1, 5])
    with pytest.raises(ValueError, match="collision.*'u'"):
        merge_segments([a, b], os.path.join(tmp_path, "x"), "x", 0, AVGDL,
                       DOCLENS)


def test_build_collapses_equal_and_names_conflicting_term(tmp_path,
                                                          ray_session):
    import pyarrow as pa
    import ray

    from splade_ray.build import build_segment_group

    def group(rows):
        term, salt, doc_id, tf = zip(*rows)
        return pa.table({
            "term": pa.array(term), "salt": pa.array(salt, pa.int32()),
            "doc_id": pa.array(doc_id, pa.int64()),
            "tf": pa.array(tf, pa.int32()),
            "shard": pa.array([0] * len(rows), pa.int32())})

    ref = ray.put(DOCLENS)
    idx = str(tmp_path / "idx")
    # duplicate input rows: (b, 0, 5) twice with equal tf collapse to one
    build_segment_group(group([("b", 0, 5, 2), ("a", 0, 9, 1),
                               ("b", 0, 5, 2), ("b", 0, 1, 3)]),
                        index_dir=idx, avgdl=AVGDL, doclens_ref=ref)
    seg = os.path.join(idx, "segments", "seg-00000")
    assert _dump(seg) == {("a", 0): ([9], [1]), ("b", 0): ([1, 5], [3, 2])}
    with pytest.raises(ValueError, match="collision.*'b'"):
        build_segment_group(group([("a", 0, 9, 1), ("b", 0, 5, 2),
                                   ("b", 0, 5, 4)]),
                            index_dir=idx, avgdl=AVGDL, doclens_ref=ref)
