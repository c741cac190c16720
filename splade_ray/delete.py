"""Index update path: tombstone deletes + compaction.

The reference's only delete is dropping the whole collection
(reference clear_milvus.py:9-21, ``utility.drop_collection``).  Here
delete/update is first-class and scale-safe, Lucene-style:

  * ``delete_docs(index_dir, doc_ids)`` merges sorted REAL doc ids into
    ``tombstones.bin`` (atomic tmp+rename; idempotent — re-deleting is a
    no-op).  Query actors load the tombstone ORDINALS once per actor
    (``__init__``) and mask them inside every scorer BEFORE top-k /
    theta pruning, so masked answers are exact over the live subset
    while corpus stats (N, avgdl, df) stay frozen at build time — the
    standard deleted-docs semantics of an LSM index before compaction.

  * ``compact_index(index_dir, out_dir)`` rewrites the index without the
    tombstoned docs: per-shard parallel Ray tasks decode each posting
    list, drop dead ordinals, remap the survivors and re-encode with the
    recomputed avgdl.  Scores from the compacted index are IDENTICAL to
    a from-scratch build over the surviving corpus (SQL-oracled:
    pipelines.bm25_topk_compacted).

  * incremental ADD is the existing generation path: build a new index
    over the new docs and ``merge.merge_index_dirs`` the generations.
    delete + add + compact together make the index fully updatable.

Scale notes (10^12 docs): the ordinal REMAP is ``o - count(tombstones <=
o)`` — one searchsorted against the sorted tombstone-ordinal array, so
per-task memory is O(|deleted|), never O(corpus).  The tombstone array is
the only piece proportional to the delete set; beyond ~10^9 deletes it
SHARDS BY ORDINAL RANGE exactly like docmap/ — implemented here as the
``tombstones.d/`` layout (``shard_tombstones`` converts, ``delete_docs``
appends in place): fixed-width ordinal ranges, one sorted-ordinal file per
occupied range plus a tiny ranges.json.  A range-restricted query engine
(query.run_queries_sharded) then loads ONLY the tombstone shards
overlapping its ordinal slice (``tombstone_ordinals(..., ord_range=...)``)
— its resident dead-set is ~|deleted|/n_ranges, never the whole delete
set.  Docmap compaction reuses the sharded layout the same way: one task
per docmap shard, driver prefix-sums the survivor counts (same protocol
as docmap.write_sharded).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa

from .alias import write_json_atomic
from .codecs import take_slices
from .docmap import (RANGES_NAME, SHARD_DIR, open_doc_arrays,
                     sorted_member)
from .segments import SegmentBuilder, SegmentReader, validate_segment

TOMBSTONES = "tombstones.bin"


# ---------------------------------------------------------------- tombstones --

TOMB_DIR = "tombstones.d"  # sharded-by-ordinal-range layout (>= ~1e9 deletes)
TOMB_SHARD_SIZE = 1 << 20  # default ordinals per shard file


def _tomb_manifest(index_dir: str) -> dict | None:
    p = os.path.join(index_dir, TOMB_DIR, RANGES_NAME)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def _read_sharded_ords(index_dir: str, man: dict,
                       lo: int | None = None,
                       hi: int | None = None) -> np.ndarray:
    """Dead ORDINALS from the sharded layout, reading ONLY the shard files
    whose fixed-width range overlaps [lo, hi) — the block-overlap-scoped
    lookup a range-restricted engine needs."""
    size = int(man["shard_size"])
    parts = []
    for s in man["shards"]:  # ascending start order (written sorted)
        start = int(s["start"])
        if hi is not None and start >= hi:
            break
        if lo is not None and start + size <= lo:
            continue
        parts.append(np.fromfile(
            os.path.join(index_dir, TOMB_DIR, s["file"]), dtype=np.int64))
    if not parts:
        return np.empty(0, dtype=np.int64)
    out = np.concatenate(parts)  # disjoint ascending ranges -> sorted
    if lo is not None:
        out = out[np.searchsorted(out, lo, side="left"):]
    if hi is not None:
        out = out[: np.searchsorted(out, hi, side="left")]
    return out


def _write_tomb_shards(index_dir: str, ords: np.ndarray,
                       shard_size: int) -> int:
    """(Re)write the whole sharded layout from a sorted ordinal array;
    ranges.json lands last (tmp+rename) so a killed write never validates.
    Returns the shard-file count."""
    import shutil as _shutil

    root = os.path.join(index_dir, TOMB_DIR)
    if os.path.isdir(root):
        _shutil.rmtree(root)
    os.makedirs(root)
    shards = []
    if len(ords):
        buckets = ords // shard_size
        starts = np.unique(buckets) * shard_size
        cut = np.searchsorted(ords, np.r_[starts, starts[-1] + shard_size])
        for i, start in enumerate(starts):
            sub = ords[cut[i]:cut[i + 1]]
            name = f"ts-{int(start):016x}.bin"
            tmp = os.path.join(root, name + ".tmp")
            sub.astype(np.int64).tofile(tmp)
            os.replace(tmp, os.path.join(root, name))
            shards.append({"start": int(start), "count": int(len(sub)),
                           "file": name})
    man = {"shard_size": int(shard_size), "shards": shards}
    tmp = os.path.join(root, RANGES_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(man, f, indent=1)
    os.replace(tmp, os.path.join(root, RANGES_NAME))
    return len(shards)


def shard_tombstones(index_dir: str,
                     shard_size: int = TOMB_SHARD_SIZE) -> int:
    """Convert the index's tombstones to (or re-shard within) the
    ordinal-range-sharded layout; removes the flat file.  Idempotent;
    subsequent delete_docs calls append shard-locally.  Returns the shard
    count."""
    with _index_lock(index_dir):
        docs = open_doc_arrays(index_dir)
        ords = tombstone_ordinals(index_dir, docs)
        flat = os.path.join(index_dir, TOMBSTONES)
        # crash safety for RE-sharding: _write_tomb_shards rmtree's the old
        # tombstones.d before the new ranges.json lands, so a kill in that
        # window would otherwise leave NO readable layout.  Persist the set
        # as the flat id file first — readers prefer the sharded manifest,
        # so the flat copy is dead weight until a crash makes it the
        # fallback; it is removed once the new layout is complete.
        if len(ords):
            tmp = flat + ".tmp"
            docs.gather_ids(ords).astype(np.int64).tofile(tmp)
            os.replace(tmp, flat)
        n = _write_tomb_shards(index_dir, ords, shard_size)
        if os.path.exists(flat):
            os.remove(flat)
    return n


def remove_tombstone_files(index_dir: str) -> None:
    """Drop every tombstone artifact (both layouts) — used when an index
    dir is rebuilt/compacted and stale tombstones must not survive."""
    import shutil as _shutil

    flat = os.path.join(index_dir, TOMBSTONES)
    if os.path.exists(flat):
        os.remove(flat)
    root = os.path.join(index_dir, TOMB_DIR)
    if os.path.isdir(root):
        _shutil.rmtree(root)


def read_tombstones(index_dir: str) -> np.ndarray:
    """Sorted unique REAL doc ids marked deleted (empty array if none) —
    either layout (the sharded layout stores ordinals; they translate back
    through the forward docmap, order-preserving)."""
    man = _tomb_manifest(index_dir)
    if man is not None:
        ords = _read_sharded_ords(index_dir, man)
        if not len(ords):
            return np.empty(0, dtype=np.int64)
        return open_doc_arrays(index_dir).gather_ids(ords)
    path = os.path.join(index_dir, TOMBSTONES)
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return np.empty(0, dtype=np.int64)
    return np.fromfile(path, dtype=np.int64)


class _index_lock:
    """flock-guarded critical section for index-dir read-modify-write
    updates (tombstones): the tmp+rename write is atomic against torn
    reads, but two CONCURRENT delete calls would otherwise both read the
    old set and the last rename silently drop the other's ids."""

    def __init__(self, index_dir: str, name: str = "update.lock"):
        self._path = os.path.join(index_dir, name)

    def __enter__(self):
        import fcntl

        self._f = open(self._path, "a")
        fcntl.flock(self._f, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        import fcntl

        fcntl.flock(self._f, fcntl.LOCK_UN)
        self._f.close()


def delete_docs(index_dir: str, doc_ids) -> int:
    """Mark ``doc_ids`` (real 63-bit ids) deleted; returns the total
    tombstone count after the merge.  Ids not present in the index are
    ignored (delete of a missing doc is a no-op, matching SQL DELETE).
    Concurrent delete calls on one host serialize on an flock'd lock file
    (the read-union-write is a lost-update hazard otherwise); multi-writer
    across HOSTS still needs an external coordinator, as the module
    docstring's scale notes say.
    """
    ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
    docs = open_doc_arrays(index_dir)
    # keep only ids that exist: absent ids would silently skew counts
    ords = docs.ords_of_ids(ids)
    present = docs.gather_ids(ords) if len(ords) else np.empty(0, np.int64)
    with _index_lock(index_dir):
        man = _tomb_manifest(index_dir)
        if man is not None:
            # sharded layout: union ONLY the shard files the new ordinals
            # fall into, rewrite those + the tiny ranges.json — O(affected
            # shards), never a full-delete-set rewrite
            size = int(man["shard_size"])
            root = os.path.join(index_dir, TOMB_DIR)
            shards = {int(s["start"]): s for s in man["shards"]}
            for start in (np.unique(ords // size) * size).tolist():
                sub = ords[(ords >= start) & (ords < start + size)]
                name = f"ts-{int(start):016x}.bin"
                path = os.path.join(root, name)
                old = (np.fromfile(path, dtype=np.int64)
                       if start in shards else np.empty(0, np.int64))
                new = np.union1d(old, sub)
                tmp = path + ".tmp"
                new.astype(np.int64).tofile(tmp)
                os.replace(tmp, path)
                shards[start] = {"start": int(start), "count": int(len(new)),
                                 "file": name}
            man = {"shard_size": size,
                   "shards": [shards[s] for s in sorted(shards)]}
            tmp = os.path.join(root, RANGES_NAME + ".tmp")
            with open(tmp, "w") as f:
                json.dump(man, f, indent=1)
            os.replace(tmp, os.path.join(root, RANGES_NAME))
            return int(sum(s["count"] for s in man["shards"]))
        merged = np.union1d(read_tombstones(index_dir), present)
        tmp = os.path.join(index_dir, TOMBSTONES + ".tmp")
        merged.astype(np.int64).tofile(tmp)
        os.replace(tmp, os.path.join(index_dir, TOMBSTONES))
    return int(len(merged))


def tombstone_ordinals(index_dir: str, docs=None,
                       ord_range: "tuple[int, int] | None" = None
                       ) -> np.ndarray:
    """Tombstoned doc ORDINALS, sorted (what the scorers and the compactor
    mask/remap against).  ``ord_range=(lo, hi)`` scopes the result to one
    ordinal slice — under the sharded layout only the overlapping shard
    FILES are read, so a range-restricted engine's dead-set residency is
    ~|deleted|/n_ranges."""
    man = _tomb_manifest(index_dir)
    if man is not None:
        lo, hi = ord_range if ord_range is not None else (None, None)
        return _read_sharded_ords(index_dir, man, lo, hi)
    ids = read_tombstones(index_dir)
    if not len(ids):
        return np.empty(0, dtype=np.int64)
    if docs is None:
        docs = open_doc_arrays(index_dir)
    ords = docs.ords_of_ids(ids)
    if ord_range is not None and len(ords):
        lo, hi = ord_range
        ords = ords[(ords >= lo) & (ords < hi)]
    return ords


EXCLUDED = "docs_excluded.bin"


def read_excluded(index_dir: str) -> np.ndarray:
    """Sorted real doc ids REMOVED from this index by compaction (the docs
    table behind ``docs_sources`` still contains them; read_docs filters
    them out).  Distinct from tombstones: excluded docs have no ordinal or
    postings at all."""
    path = os.path.join(index_dir, EXCLUDED)
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return np.empty(0, dtype=np.int64)
    return np.fromfile(path, dtype=np.int64)


def write_excluded(index_dir: str, ids: np.ndarray) -> None:
    """Write (or remove, when empty) the excluded-docs sidecar atomically —
    an empty set must DELETE a stale file left by a previous use of the
    directory, not silently keep it."""
    path = os.path.join(index_dir, EXCLUDED)
    if not len(ids):
        if os.path.exists(path):
            os.remove(path)
        return
    tmp = path + ".tmp"
    np.unique(np.asarray(ids, dtype=np.int64)).tofile(tmp)
    os.replace(tmp, path)


def tombstones_fingerprint(index_dir: str) -> str | None:
    """sha256 of the tombstone set (None if empty) — lets downstream
    artifacts (a compacted dir) detect a stale source."""
    ids = read_tombstones(index_dir)
    if not len(ids):
        return None
    return hashlib.sha256(ids.tobytes()).hexdigest()


# ---------------------------------------------------------------- compaction --

def _compact_seg_batch(t: pa.Table, *, src_index: str, src_root: str,
                       out_root: str, avgdl: float, tomb_ref) -> pa.Table:
    """One task per segment, as array work over the whole segment: one
    decode of every (term, salt) list (``SegmentReader.decode_all``), one
    ``sorted_member`` mask of dead ordinals, one ``searchsorted`` remap of
    the survivors (o -> o - count(tomb <= o)), one re-encode with the
    compacted avgdl.  Rows whose postings all die are dropped from the
    dictionary (df reflects live docs only).  Doc LENGTHS are unchanged by
    deletion, so each worker gathers them from the source index's
    memmapped forward arrays at the OLD ordinals — the only broadcast
    object is the O(|deleted|) tombstone array."""
    import ray

    tomb = ray.get(tomb_ref)  # sorted dead ordinals, O(|deleted|)
    src_docs = open_doc_arrays(src_index)
    out = {"shard": [], "n_terms": [], "n_postings": []}
    for row in t.to_pylist():
        shard = int(row["shard"])
        seg_id = row["segment_id"]
        reader = SegmentReader(os.path.join(src_root, seg_id))
        builder = SegmentBuilder(seg_id, shard,
                                 with_positions=reader.has_positions)
        # tombstones_fp binds the output segment to THIS delete set: a
        # resumed compaction skips a segment only if it was compacted
        # against the same tombstones (compact_index's todo filter)
        builder.set_lineage(compacted_from=seg_id, n_tombstones=len(tomb),
                            tombstones_fp=row["tombstones_fp"])
        row_starts, ids, tfs, pos = reader.decode_all()
        # empty tomb => all-False mask: compacting a tombstone-free index
        # is a plain re-encode
        live = ~sorted_member(tomb, ids)[0]
        live_csum = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(live, out=live_csum[1:])
        live_df = np.diff(live_csum[row_starts])
        keep = live_df > 0
        run_starts = np.zeros(int(keep.sum()), dtype=np.int64)
        np.cumsum(live_df[keep][:-1], out=run_starts[1:])
        live_ids = ids[live]
        if pos is not None:
            # within-doc positions survive deletion untouched; only the
            # dead postings' slices drop
            pos = take_slices(pos, tfs, np.flatnonzero(live))
        builder.add_many(reader._terms.filter(pa.array(keep)),
                         reader.salt[keep],
                         live_ids - np.searchsorted(tomb, live_ids, side="left"),
                         tfs[live], src_docs.gather_lens(live_ids), run_starts,
                         avgdl, positions=pos)
        m = builder.write(os.path.join(out_root, seg_id))
        out["shard"].append(shard)
        out["n_terms"].append(m["n_terms"])
        out["n_postings"].append(m["n_postings"])
    return pa.table({
        "shard": pa.array(out["shard"], type=pa.int32()),
        "n_terms": pa.array(out["n_terms"], type=pa.int64()),
        "n_postings": pa.array(out["n_postings"], type=pa.int64()),
    })


def _write_flat_docmap(out_dir: str, new_map: np.ndarray,
                       new_lens: np.ndarray,
                       new_langs: np.ndarray) -> None:
    from .docmap import LANGVALS_NAME

    for name, arr in (("docmap.bin", new_map.astype(np.int64)),
                      ("doclens.bin", new_lens.astype(np.int32)),
                      (LANGVALS_NAME, new_langs.astype(np.uint8))):
        tmp = os.path.join(out_dir, name + ".tmp")
        arr.tofile(tmp)
        os.replace(tmp, os.path.join(out_dir, name))


def _compact_docmap_shard_batch(t: pa.Table, *, src_root: str, out_root: str,
                                tomb_ref) -> pa.Table:
    """One task per docmap shard: filter the shard's (dm, dl) arrays by the
    tombstone ordinals falling in its range, write the surviving pair under
    the output's docmap/ (same min-id naming), return a summary row.  Memory
    per task is one shard + O(|deleted|) — never O(corpus)."""
    import ray

    tomb = ray.get(tomb_ref)
    out = {"ordinal_start_src": [], "min_id": [], "max_id": [], "count": [],
           "total_len": [], "dm": [], "dl": [], "lv": [], "lang_vocab": []}
    for row in t.to_pylist():
        start = int(row["ordinal_start"])
        count = int(row["count"])
        if not row.get("lv"):
            raise ValueError(
                "source docmap shard lacks the lang doc-values sidecar "
                "(pre-docvalues index layout); rebuild the index before "
                "compacting")
        dm = np.fromfile(os.path.join(src_root, row["dm"]), dtype=np.int64)
        dl = np.fromfile(os.path.join(src_root, row["dl"]), dtype=np.int32)
        lv = np.fromfile(os.path.join(src_root, row["lv"]), dtype=np.uint8)
        lo = np.searchsorted(tomb, start, side="left")
        hi = np.searchsorted(tomb, start + count, side="left")
        keep = np.ones(count, dtype=bool)
        keep[tomb[lo:hi] - start] = False
        dm, dl, lv = dm[keep], dl[keep], lv[keep]
        if not len(dm):
            continue
        stem = f"{int(dm[0]):016x}"
        dm_name, dl_name, lv_name = (f"dm-{stem}.bin", f"dl-{stem}.bin",
                                     f"lv-{stem}.bin")
        for name, arr in ((dm_name, dm), (dl_name, dl), (lv_name, lv)):
            tmp = os.path.join(out_root, name + ".tmp")
            arr.tofile(tmp)
            os.replace(tmp, os.path.join(out_root, name))
        out["ordinal_start_src"].append(start)
        out["min_id"].append(int(dm[0]))
        out["max_id"].append(int(dm[-1]))
        out["count"].append(len(dm))
        out["total_len"].append(int(dl.astype(np.int64).sum()))
        out["dm"].append(dm_name)
        out["dl"].append(dl_name)
        out["lv"].append(lv_name)
        # survivor codes stay valid against the SOURCE shard vocabulary
        # (a vanished lang simply never occurs); pass it through unchanged
        out["lang_vocab"].append(row.get("lang_vocab", ""))
    return pa.table(
        {
            "ordinal_start_src": pa.array(out["ordinal_start_src"], pa.int64()),
            "min_id": pa.array(out["min_id"], pa.int64()),
            "max_id": pa.array(out["max_id"], pa.int64()),
            "count": pa.array(out["count"], pa.int64()),
            "total_len": pa.array(out["total_len"], pa.int64()),
            "dm": pa.array(out["dm"], pa.string()),
            "dl": pa.array(out["dl"], pa.string()),
            "lv": pa.array(out["lv"], pa.string()),
            "lang_vocab": pa.array(out["lang_vocab"], pa.string()),
        }
    )


def _compact_docmap_sharded(index_dir: str, out_dir: str, tomb_ref,
                            n_docs: int, n_tomb: int) -> tuple[int, int]:
    """Distributed docmap compaction (sharded source layout): one Ray task
    per shard filters and rewrites its (dm, dl) pair; the driver only sees
    one summary row per shard and prefix-sums the new ordinal starts —
    the same protocol as docmap.write_sharded.  Returns (n_live, total_len).
    """
    import shutil as _shutil

    import ray.data as rd

    src_root = os.path.join(index_dir, SHARD_DIR)
    out_root = os.path.join(out_dir, SHARD_DIR)
    if os.path.isdir(out_root):
        _shutil.rmtree(out_root)
    os.makedirs(out_root)
    with open(os.path.join(src_root, RANGES_NAME)) as f:
        src_man = json.load(f)
    rows = (
        rd.from_items(src_man["shards"])
        .map_batches(
            _compact_docmap_shard_batch, batch_format="pyarrow", batch_size=4,
            fn_kwargs={"src_root": src_root, "out_root": out_root,
                       "tomb_ref": tomb_ref},
        )
        .take_all()
    )
    rows.sort(key=lambda r: r["ordinal_start_src"])
    shards, start, total_len = [], 0, 0
    for r in rows:
        shards.append({"dm": r["dm"], "dl": r["dl"], "lv": r["lv"],
                       "lang_vocab": r["lang_vocab"], "min_id": r["min_id"],
                       "max_id": r["max_id"], "count": r["count"],
                       "ordinal_start": start})
        start += r["count"]
        total_len += r["total_len"]
    n_live = start
    if n_live != n_docs - n_tomb:
        raise AssertionError(
            f"docmap compaction kept {n_live} rows, expected {n_docs - n_tomb}")
    manifest = {"n_docs": n_live, "shards": shards}
    tmp = os.path.join(out_root, RANGES_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(out_root, RANGES_NAME))
    return n_live, total_len


def compact_index(index_dir: str, out_dir: str) -> dict:
    """Rewrite ``index_dir`` minus its tombstones into ``out_dir``.

    Resumable like the build: segments already valid in ``out_dir`` are
    skipped; the MANIFEST is written last.  The output records
    ``source_fps`` (base corpus_fp + tombstone fingerprint) so callers
    can detect a stale compaction when the base rebuilds or more docs
    are deleted (same protocol as merge.merge_index_dirs).
    """
    import ray as _ray

    import ray.data as rd

    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        man = json.load(f)
    if not man.get("doc_ordinals"):
        raise ValueError("compact requires an ordinal-postings index")
    docs = open_doc_arrays(index_dir)
    tomb = tombstone_ordinals(index_dir, docs)
    n_docs = man["n_docs"]
    n_live = n_docs - len(tomb)
    if n_live <= 0:
        raise ValueError("compaction would delete every document")

    os.makedirs(os.path.join(out_dir, "segments"), exist_ok=True)
    tomb_ref = _ray.put(tomb)
    # compacted forward arrays: survivors keep sorted-id order, so the new
    # map is a boolean filter.  Sharded source layout -> one Ray task per
    # docmap shard (driver sees one summary row each, 10^12-doc safe);
    # flat source -> bounded driver-side filter mirroring its layout.
    if os.path.exists(os.path.join(index_dir, SHARD_DIR, RANGES_NAME)):
        n_live2, total_len = _compact_docmap_sharded(
            index_dir, out_dir, tomb_ref, n_docs, len(tomb))
        assert n_live2 == n_live
    else:
        keep = np.ones(n_docs, dtype=bool)
        keep[tomb] = False
        if not docs.has_langvals:
            raise ValueError(
                "source index lacks the lang doc-values sidecar "
                "(pre-docvalues layout); rebuild the index before "
                "compacting")
        new_map = docs.docmap_array()[keep]
        new_lens = docs.doclens_array()[keep]
        # flat langvals store GLOBAL codes and the compacted manifest keeps
        # the source langs list, so a boolean filter is the whole rewrite
        new_langs = docs.langvals_array()[keep]
        total_len = int(new_lens.astype(np.int64).sum())
        _write_flat_docmap(out_dir, new_map, new_lens, new_langs)
    avgdl = total_len / n_live
    src_root = os.path.join(index_dir, "segments")
    out_root = os.path.join(out_dir, "segments")
    tomb_fp = tombstones_fingerprint(index_dir)

    def _resumable(seg_id: str) -> bool:
        """A segment survives resume only if compacted against the SAME
        tombstone set — more deletes between a crash and the re-run would
        otherwise leave a mixed-generation index."""
        m = validate_segment(os.path.join(out_root, seg_id))
        return (m is not None
                and m.get("lineage", {}).get("tombstones_fp") == tomb_fp)

    todo = [
        {"shard": s["shard"], "segment_id": s["segment_id"],
         "tombstones_fp": tomb_fp}
        for s in man["segments"] if not _resumable(s["segment_id"])
    ]
    if todo:
        (
            rd.from_items(todo)
            .map_batches(
                _compact_seg_batch, batch_format="pyarrow", batch_size=1,
                fn_kwargs={"src_index": index_dir, "src_root": src_root,
                           "out_root": out_root, "avgdl": avgdl,
                           "tomb_ref": tomb_ref},
            )
            .count()
        )

    seg_rows = []
    n_postings = 0
    for s in man["segments"]:
        m = validate_segment(os.path.join(out_root, s["segment_id"]))
        if m is None:
            raise RuntimeError(f"compaction left invalid segment {s['segment_id']}")
        n_postings += m["n_postings"]
        seg_rows.append({"shard": s["shard"], "segment_id": m["segment_id"],
                         "n_terms": m["n_terms"],
                         "n_postings": m["n_postings"]})

    manifest = {
        "format_version": 1,
        "compacted_from": os.path.abspath(index_dir),
        "n_docs": n_live,
        "n_deleted": int(len(tomb)),
        "n_dropped_rows": man.get("n_dropped_rows", 0),
        "total_doc_len": total_len,
        "avgdl": avgdl,
        "langs": man["langs"],
        "lang_tagged": man["lang_tagged"],
        "n_shards": man["n_shards"],
        "salt_bits": man["salt_bits"],
        "doc_ordinals": True,
        "positions": bool(man.get("positions")),
        "hot_terms": man.get("hot_terms", []),
        "n_postings": int(n_postings),
        "segments": seg_rows,
        "source_fps": [{"corpus_fp": man.get("corpus_fp"),
                        "n_docs": n_docs,
                        "tombstones_fp": tombstones_fingerprint(index_dir)}],
        # a checkpoint="none" base has no staging dir — keep the list empty
        # so read_docs raises its documented error rather than failing on a
        # missing path (compaction itself never reads the docs table)
        "docs_sources": man.get(
            "docs_sources",
            [p for p in [os.path.join(os.path.abspath(index_dir), "staging")]
             if os.path.isdir(p)]),
    }
    if "placement" in man:  # compaction keeps every segment's shard
        manifest["placement"] = man["placement"]
    # the compacted index has NO tombstones (remove any stale artifacts of
    # either layout from a reused out_dir), but its docs table
    # (docs_sources -> base staging) still contains the removed docs:
    # record them in the excluded sidecar so read_docs filters them;
    # chains of compactions accumulate the union
    remove_tombstone_files(out_dir)
    dead_ids = docs.gather_ids(tomb) if len(tomb) else np.empty(0, np.int64)
    write_excluded(out_dir, np.union1d(read_excluded(index_dir), dead_ids))
    write_json_atomic(os.path.join(out_dir, "MANIFEST.json"), manifest,
                      indent=1)
    return manifest
