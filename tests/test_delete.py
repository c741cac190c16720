"""Tombstone deletes + compaction (the index update path).

Contracts under test:
  * masked query == query over an index built WITHOUT the deleted docs,
    except stats stay frozen (so scores differ, but no dead doc appears
    and no live doc is wrongly pruned) — across all three scorers and
    the sharded fan-out;
  * compacted index == from-scratch build over the survivors, score- and
    rank-identical (the strong equality);
  * delete is idempotent and ignores absent ids; compaction resumes.
"""

import json
import os
import shutil

import numpy as np
import pyarrow.compute as pc
import pytest
import ray.data as rd

from splade_ray import build
from splade_ray.build import build_index
from splade_ray.corpus import generate_corpus, generate_queries
from splade_ray.delete import (
    compact_index,
    delete_docs,
    read_tombstones,
    tombstone_ordinals,
    write_tombstones,
)
from splade_ray.query import QueryEngine
from splade_ray.segments import validate_segment

ROOT = "/tmp/splade_ray_delete_test"
KW = dict(lang_tagged=True, n_shards=6, hot_df_min=40, hot_df_frac=0.05)


def _as_l(r):
    return [(int(d), int(u)) for d, u in zip(*r)]


def _setup():
    """Build base (all docs), delete every 5th doc, plus a survivors-only
    build for the strong compaction equality.  Idempotent across tests."""
    tbl = generate_corpus(400, seed=33)
    base = os.path.join(ROOT, "base")
    live_idx = os.path.join(ROOT, "live")
    if not os.path.exists(os.path.join(ROOT, "done")):
        shutil.rmtree(ROOT, ignore_errors=True)
        os.makedirs(ROOT)
        build_index(rd.from_arrow(tbl), base, **KW)
        # dead set: every 5th row of the staging docs table
        from splade_ray.build import read_docs

        ids = np.sort(np.asarray(
            [r["doc_id"] for r in
             read_docs(base, columns=["doc_id"]).take_all()],
            dtype=np.int64))
        dead = ids[::5]
        n = delete_docs(base, dead)
        assert n == len(dead)
        np.save(os.path.join(ROOT, "dead.npy"), dead)
        # survivors-only index for ground truth
        import pyarrow as pa

        from splade_ray.ids import doc_id63_column

        dead_arr = pa.array(sorted(int(x) for x in dead), type=pa.int64())

        def _drop_dead(t: pa.Table) -> pa.Table:
            ids = doc_id63_column(t["repo"], t["path"], t["commit"])
            return t.filter(pc.invert(pc.is_in(ids, value_set=dead_arr)))

        live_ds = rd.from_arrow(tbl).map_batches(
            _drop_dead, batch_format="pyarrow")
        build_index(live_ds, live_idx, **KW)
        open(os.path.join(ROOT, "done"), "w").close()
    dead = np.load(os.path.join(ROOT, "dead.npy"))
    return base, live_idx, dead


def test_masked_query_hides_deleted_docs(ray_session):
    base, _live, dead = _setup()
    dead_set = set(int(x) for x in dead)
    q = generate_queries()
    engines = {s: QueryEngine(base, k=10, scorer=s)
               for s in ("taat", "bmw")}
    got_any = 0
    base_results = {}
    for query, lang in zip(q["query"].to_pylist(), q["lang"].to_pylist()):
        per_scorer = {
            s: _as_l(e.search_one(query, lang or None))
            for s, e in engines.items()
        }
        # no scorer returns a dead doc; all scorers agree exactly
        for s, res in per_scorer.items():
            assert not (dead_set & {d for d, _ in res}), (s, query)
        assert per_scorer["taat"] == per_scorer["bmw"]
        got_any += bool(per_scorer["taat"])
        base_results[(query, lang)] = per_scorer["taat"]
    assert got_any > 0

    # sharded fan-out masks identically (per-range tombstone slices)
    n = engines["taat"].n_docs
    sh = [QueryEngine(base, k=10, scorer="taat", ord_range=r)
          for r in ((0, n // 2), (n // 2, n))]
    for (query, lang), want in list(base_results.items())[:8]:
        merged = []
        for e in sh:
            merged.extend(_as_l(e.search_one(query, lang or None)))
        merged.sort(key=lambda t: (-t[1], t[0]))
        assert merged[:len(want)] == want, query

    # ord_range scoping == the plain slice of the full ordinal set, and a
    # range engine masks exactly that slice
    full = tombstone_ordinals(base)
    lo, hi = n // 3, (2 * n) // 3
    want = full[(full >= lo) & (full < hi)]
    assert len(want) and len(want) < len(full)
    assert tombstone_ordinals(base, ord_range=(lo, hi)).tolist() == \
        want.tolist()
    eng = QueryEngine(base, k=10, ord_range=(lo, hi))
    assert eng.tomb.tolist() == want.tolist()


def test_masked_vs_live_build_same_docs(ray_session):
    """Frozen stats change scores but not the LIVE doc candidates: the
    masked top-k doc SET is drawn from live docs only, and every returned
    doc exists in the survivors-only index's docmap."""
    base, live_idx, dead = _setup()
    live_docmap = set(
        QueryEngine(live_idx, k=10).docs.docmap_array().tolist())
    e = QueryEngine(base, k=10, scorer="taat")
    q = generate_queries()
    for query, lang in zip(q["query"].to_pylist(), q["lang"].to_pylist()):
        for d, _ in _as_l(e.search_one(query, lang or None)):
            assert d in live_docmap


def test_compacted_equals_fresh_build(ray_session):
    base, live_idx, _dead = _setup()
    cdir = os.path.join(ROOT, "compacted")
    shutil.rmtree(cdir, ignore_errors=True)
    man = compact_index(base, cdir)
    with open(os.path.join(live_idx, "MANIFEST.json")) as f:
        live_man = json.load(f)
    assert man["n_docs"] == live_man["n_docs"]
    assert abs(man["avgdl"] - live_man["avgdl"]) < 1e-12
    assert man["n_postings"] == live_man["n_postings"]

    ec = {s: QueryEngine(cdir, k=10, scorer=s) for s in ("taat", "bmw")}
    el = QueryEngine(live_idx, k=10, scorer="taat")
    q = generate_queries()
    n_nonempty = 0
    for query, lang in zip(q["query"].to_pylist(), q["lang"].to_pylist()):
        want = _as_l(el.search_one(query, lang or None))
        assert _as_l(ec["taat"].search_one(query, lang or None)) == want
        assert _as_l(ec["bmw"].search_one(query, lang or None)) == want
        n_nonempty += bool(want)
    assert n_nonempty > 0
    # compacted index carries no tombstones and serves ordinal postings
    assert len(read_tombstones(cdir)) == 0


def test_delete_idempotent_and_absent_ids(ray_session):
    base, _live, dead = _setup()
    before = read_tombstones(base)
    assert delete_docs(base, dead) == len(before)          # re-delete: no-op
    assert delete_docs(base, [1, 2, 3]) == len(before)     # absent ids: no-op
    assert np.array_equal(read_tombstones(base), before)
    ords = tombstone_ordinals(base)
    assert len(ords) == len(before)
    # ordinals translate back to exactly the tombstoned ids
    e = QueryEngine(base, k=10)
    assert np.array_equal(np.sort(e.docs.gather_ids(ords)), before)


def test_compaction_resume_skips_valid_segments(ray_session):
    base, _live, _dead = _setup()
    cdir = os.path.join(ROOT, "compacted")
    segs = sorted(os.listdir(os.path.join(cdir, "segments")))
    victim = os.path.join(cdir, "segments", segs[0])
    mtimes = {
        s: os.path.getmtime(os.path.join(cdir, "segments", s, "manifest.json"))
        for s in segs[1:]
    }
    shutil.rmtree(victim)
    compact_index(base, cdir)
    assert validate_segment(victim) is not None
    for s, t in mtimes.items():
        assert os.path.getmtime(
            os.path.join(cdir, "segments", s, "manifest.json")) == t


def test_merge_propagates_tombstones(ray_session):
    """Merging generations must not resurrect deleted docs: the union of
    input tombstones carries into the merged index and queries stay masked."""
    import ray.data as rd

    from splade_ray.corpus import generate_corpus, generate_queries
    from splade_ray.merge import merge_index_dirs

    tbl = generate_corpus(300, seed=44)
    root = os.path.join(ROOT, "mergeprop")
    shutil.rmtree(root, ignore_errors=True)
    a, b, merged = (os.path.join(root, x) for x in ("a", "b", "m"))
    build_index(rd.from_arrow(tbl.slice(0, 150)), a, **KW)
    build_index(rd.from_arrow(tbl.slice(150)), b, **KW)
    # delete a handful of docs from each generation
    from splade_ray.build import read_docs

    ids_a = np.sort(np.asarray([r["doc_id"] for r in
                                read_docs(a, columns=["doc_id"]).take_all()]))
    ids_b = np.sort(np.asarray([r["doc_id"] for r in
                                read_docs(b, columns=["doc_id"]).take_all()]))
    delete_docs(a, ids_a[::7])
    delete_docs(b, ids_b[::5])
    merge_index_dirs([a, b], merged)
    want = set(np.union1d(ids_a[::7], ids_b[::5]).tolist())
    assert set(read_tombstones(merged).tolist()) == want
    e = QueryEngine(merged, k=10)
    q = generate_queries()
    hit = 0
    for query, lang in zip(q["query"].to_pylist(), q["lang"].to_pylist()):
        ids, _ = e.search_one(query, lang or None)
        assert not (want & {int(d) for d in ids})
        hit += len(ids) > 0
    assert hit > 0
    # compaction of the merged index reclaims them for good
    cdir = os.path.join(root, "mc")
    man = compact_index(merged, cdir)
    assert man["n_docs"] == len(ids_a) + len(ids_b) - len(want)
    assert len(read_tombstones(cdir)) == 0


def test_compact_sharded_docmap_layout(ray_session, monkeypatch):
    """Compaction of a SHARDED-docmap index runs the distributed per-shard
    rewrite and matches the flat-layout compaction exactly."""
    import pyarrow as pa

    from splade_ray.corpus import generate_corpus, generate_queries

    tbl = generate_corpus(250, seed=55)
    root = os.path.join(ROOT, "shardedmap")
    shutil.rmtree(root, ignore_errors=True)
    sh, fl = os.path.join(root, "sh"), os.path.join(root, "fl")
    with monkeypatch.context() as mp:
        mp.setattr(build, "DRIVER_SORT_MAX_DOCS", 0)
        build_index(rd.from_arrow(tbl), sh, **KW)
    build_index(rd.from_arrow(tbl), fl, **KW)
    assert os.path.exists(os.path.join(sh, "docmap", "ranges.json"))
    assert os.path.exists(os.path.join(fl, "docmap.bin"))

    from splade_ray.build import read_docs

    ids = np.sort(np.asarray([r["doc_id"] for r in
                              read_docs(sh, columns=["doc_id"]).take_all()]))
    for idx in (sh, fl):
        delete_docs(idx, ids[::4])
    csh, cfl = os.path.join(root, "csh"), os.path.join(root, "cfl")
    man_sh = compact_index(sh, csh)
    man_fl = compact_index(fl, cfl)
    # sharded layout is preserved through compaction
    assert os.path.exists(os.path.join(csh, "docmap", "ranges.json"))
    assert man_sh["n_docs"] == man_fl["n_docs"]
    assert abs(man_sh["avgdl"] - man_fl["avgdl"]) < 1e-12
    assert man_sh["n_postings"] == man_fl["n_postings"]
    e_sh = QueryEngine(csh, k=10, scorer="taat")
    e_fl = QueryEngine(cfl, k=10, scorer="taat")
    assert np.array_equal(e_sh.docs.docmap_array(), e_fl.docs.docmap_array())
    assert np.array_equal(e_sh.docs.doclens_array(), e_fl.docs.doclens_array())
    q = generate_queries()
    hit = 0
    for query, lang in zip(q["query"].to_pylist(), q["lang"].to_pylist()):
        a = _as_l(e_sh.search_one(query, lang or None))
        assert a == _as_l(e_fl.search_one(query, lang or None))
        hit += bool(a)
    assert hit > 0


def test_compaction_resume_invalidated_by_new_deletes(ray_session):
    """A crash-resumed compaction must NOT mix segments from two different
    tombstone sets: deleting more docs between runs invalidates everything."""
    base, _live, dead = _setup()
    cdir = os.path.join(ROOT, "compact2")
    shutil.rmtree(cdir, ignore_errors=True)
    compact_index(base, cdir)
    # grow the tombstone set (delete one more live doc) and re-compact into
    # the SAME out dir -> every segment must be rebuilt against the new set
    from splade_ray.build import read_docs

    ids = np.sort(np.asarray([r["doc_id"] for r in
                              read_docs(base, columns=["doc_id"]).take_all()]))
    extra = next(int(x) for x in ids if int(x) not in set(dead.tolist()))
    n_before = len(read_tombstones(base))
    try:
        delete_docs(base, [extra])
        man = compact_index(base, cdir)
        assert man["n_docs"] == len(ids) - n_before - 1
        assert extra not in set(
            QueryEngine(cdir, k=10).docs.docmap_array().tolist())
    finally:
        # restore the canonical tombstone set for the other tests
        write_tombstones(base, dead)
        shutil.rmtree(cdir, ignore_errors=True)


def test_read_docs_live_only(ray_session):
    from splade_ray.build import read_docs

    base, _live, dead = _setup()
    all_rows = read_docs(base, columns=["doc_id"]).count()
    live_rows = read_docs(base, columns=["doc_id"],
                          live_only=True).take_all()
    assert all_rows - len(live_rows) == len(dead)
    assert not (set(int(x) for x in dead)
                & {r["doc_id"] for r in live_rows})


def test_rebuild_clears_tombstones(ray_session):
    """overwrite=True (and stale-staging rebuilds) must drop tombstones:
    doc ids are content-independent, so a surviving tombstones.bin would
    silently hide live docs of the NEW index."""
    tbl = generate_corpus(120, seed=66)
    idx = os.path.join(ROOT, "rebuild")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(rd.from_arrow(tbl), idx, **KW)
    from splade_ray.build import read_docs

    ids = np.sort(np.asarray([r["doc_id"] for r in
                              read_docs(idx, columns=["doc_id"]).take_all()]))
    delete_docs(idx, ids[:10])
    assert len(read_tombstones(idx)) == 10
    build_index(rd.from_arrow(tbl), idx, overwrite=True, **KW)
    assert len(read_tombstones(idx)) == 0
    e = QueryEngine(idx, k=10)
    assert len(e.tomb) == 0


def test_compacted_read_docs_excludes_dead(ray_session):
    """read_docs on a compacted index must NOT serve the compacted-away
    docs even though docs_sources points at the base staging."""
    from splade_ray.build import read_docs
    from splade_ray.delete import read_excluded

    base, _live, dead = _setup()
    cdir = os.path.join(ROOT, "compacted")
    if not os.path.isdir(cdir):
        compact_index(base, cdir)
    n_live = read_docs(cdir, columns=["doc_id"]).count()
    with open(os.path.join(cdir, "MANIFEST.json")) as f:
        assert n_live == json.load(f)["n_docs"]
    assert set(read_excluded(cdir).tolist()) == set(int(x) for x in dead)
    served = {r["doc_id"] for r in
              read_docs(cdir, columns=["doc_id"]).take_all()}
    assert not (served & set(int(x) for x in dead))


def test_compact_fused_index_empty_docs_sources(ray_session, tmp_path):
    """delete+compact over a checkpoint='none' index: compaction never
    reads the docs table, so it succeeds; the compacted manifest keeps
    docs_sources empty and read_docs raises the documented error."""
    import numpy as np
    import ray.data as rd

    from splade_ray.build import build_index, read_docs
    from splade_ray.corpus import generate_corpus
    from splade_ray.delete import compact_index, delete_docs
    from splade_ray.docmap import open_doc_arrays
    from splade_ray.query import QueryEngine

    idx, out = str(tmp_path / "i"), str(tmp_path / "o")
    build_index(rd.from_arrow(generate_corpus(300, seed=9)), idx,
                lang_tagged=False, n_shards=4, checkpoint="none")
    dead = np.sort(open_doc_arrays(idx).docmap_array())[::5]
    delete_docs(idx, dead)
    m = compact_index(idx, out)
    assert m["docs_sources"] == []
    ids, _ = QueryEngine(out, k=5).search_one("merge")
    assert len(ids)
    assert not (set(ids.tolist()) & set(dead.tolist()))
    with pytest.raises(ValueError, match="checkpoint='none'"):
        read_docs(out)


class _EqualButUnserializable:
    """Compares equal to the real tombstone fingerprint (so every segment
    resumes) but cannot be written as JSON."""

    def __init__(self, fp):
        self.fp = fp

    def __eq__(self, other):
        return other == self.fp

    __hash__ = None


def test_failed_manifest_write_keeps_previous_manifest(ray_session,
                                                       monkeypatch):
    """A compaction that fails while writing MANIFEST.json into a reused
    out dir leaves the previous MANIFEST byte-identical and no temp file:
    a truncated MANIFEST would be published by set_alias and fail every
    open with a JSONDecodeError."""
    from splade_ray import delete

    base, _live, _dead = _setup()
    out = os.path.join(ROOT, "compacted_atomic")
    shutil.rmtree(out, ignore_errors=True)
    compact_index(base, out)
    mpath = os.path.join(out, "MANIFEST.json")
    with open(mpath, "rb") as f:
        before = f.read()
    real = delete.tombstones_fingerprint
    monkeypatch.setattr(delete, "tombstones_fingerprint",
                        lambda d: _EqualButUnserializable(real(d)))
    with pytest.raises(TypeError, match="not JSON serializable"):
        compact_index(base, out)
    with open(mpath, "rb") as f:
        assert f.read() == before
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]
