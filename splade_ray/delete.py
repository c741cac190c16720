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
per-task memory is O(|deleted|), never O(corpus).  The tombstone file is
the only piece proportional to the delete set, and compaction bounds it:
it folds the deletes into a new index with no tombstones.  A
range-restricted query engine (query.run_queries_sharded) keeps only the
dead ordinals of its own slice (``tombstone_ordinals(..., ord_range=...)``).
Docmap compaction of a sharded forward-array source runs one task per
docmap shard (docmap.compact_sharded).

This module is the only writer of the tombstone file (``write_tombstones``:
delete_docs, and the merge's union of its inputs' sets).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa

from .alias import write_json_atomic
from .codecs import take_slices
from .docmap import (ShardedDocArrays, compact_sharded, open_doc_arrays,
                     sorted_member, write_flat)
from .segments import SegmentBuilder, SegmentReader, validate_segment

TOMBSTONES = "tombstones.bin"
# the ordinal-range-sharded tombstone layout of earlier versions: nothing
# reads it any more, so a dir that holds it refuses to serve (its deleted
# docs would silently come back) until it is rebuilt
_LEGACY_TOMBSTONES = "tombstones.d"
EXCLUDED = "docs_excluded.bin"


# ---------------------------------------------------------------- tombstones --

def _read_ids(path: str) -> np.ndarray:
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return np.empty(0, dtype=np.int64)
    return np.fromfile(path, dtype=np.int64)


def _write_ids(path: str, ids) -> None:
    """Write the sorted unique ``ids`` atomically, or remove the file when
    the set is empty — an empty set must DELETE a stale file left by a
    previous use of the directory, not silently keep it."""
    if not len(ids):
        if os.path.exists(path):
            os.remove(path)
        return
    tmp = path + ".tmp"
    np.unique(np.asarray(ids, dtype=np.int64)).tofile(tmp)
    os.replace(tmp, path)


def write_tombstones(index_dir: str, ids) -> None:
    """Set the index's tombstones to the real doc ``ids`` (the caller holds
    the index lock, or owns the dir outright as a merge's output does)."""
    _write_ids(os.path.join(index_dir, TOMBSTONES), ids)


def remove_tombstone_files(index_dir: str) -> None:
    """Drop every tombstone artifact (an old ``tombstones.d/`` too) — used
    when an index dir is rebuilt/compacted/merged into and stale tombstones
    must not survive."""
    write_tombstones(index_dir, ())
    shutil.rmtree(os.path.join(index_dir, _LEGACY_TOMBSTONES),
                  ignore_errors=True)


def read_tombstones(index_dir: str) -> np.ndarray:
    """Sorted unique REAL doc ids marked deleted (empty array if none)."""
    if os.path.isdir(os.path.join(index_dir, _LEGACY_TOMBSTONES)):
        raise ValueError(
            f"{index_dir} holds a sharded tombstone layout "
            f"({_LEGACY_TOMBSTONES}/) that this version no longer reads; "
            "serving it would bring its deleted docs back — rebuild the "
            "index")
    return _read_ids(os.path.join(index_dir, TOMBSTONES))


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
    across HOSTS still needs an external coordinator.
    """
    ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
    docs = open_doc_arrays(index_dir)
    # keep only ids that exist: absent ids would silently skew counts
    ords = docs.ords_of_ids(ids)
    present = docs.gather_ids(ords) if len(ords) else np.empty(0, np.int64)
    with _index_lock(index_dir):
        merged = np.union1d(read_tombstones(index_dir), present)
        write_tombstones(index_dir, merged)
    return int(len(merged))


def tombstone_ordinals(index_dir: str, docs=None,
                       ord_range: "tuple[int, int] | None" = None
                       ) -> np.ndarray:
    """Tombstoned doc ORDINALS, sorted (what the scorers and the compactor
    mask/remap against).  ``ord_range=(lo, hi)`` keeps only one ordinal
    slice (a range-restricted engine's own)."""
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


def read_excluded(index_dir: str) -> np.ndarray:
    """Sorted real doc ids REMOVED from this index by compaction (the docs
    table behind ``docs_sources`` still contains them; read_docs filters
    them out).  Distinct from tombstones: excluded docs have no ordinal or
    postings at all."""
    return _read_ids(os.path.join(index_dir, EXCLUDED))


def write_excluded(index_dir: str, ids: np.ndarray) -> None:
    """Write (or remove, when empty) the excluded-docs sidecar."""
    _write_ids(os.path.join(index_dir, EXCLUDED), ids)


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
    if not docs.has_langvals:
        raise ValueError(
            "source index lacks the lang doc-values sidecar "
            "(pre-docvalues layout); rebuild the index before compacting")
    tomb = tombstone_ordinals(index_dir, docs)
    n_docs = man["n_docs"]
    n_live = n_docs - len(tomb)
    if n_live <= 0:
        raise ValueError("compaction would delete every document")

    os.makedirs(os.path.join(out_dir, "segments"), exist_ok=True)
    tomb_ref = _ray.put(tomb)
    # compacted forward arrays: survivors keep sorted-id order, so the new
    # arrays are a boolean filter.  Sharded source layout -> one Ray task per
    # docmap shard (driver sees one summary row each, 10^12-doc safe);
    # flat source -> bounded driver-side filter mirroring its layout.
    if isinstance(docs, ShardedDocArrays):
        total_len = compact_sharded(index_dir, out_dir, tomb_ref, n_live)
    else:
        keep = np.ones(n_docs, dtype=bool)
        keep[tomb] = False
        new_lens = docs.doclens_array()[keep]
        total_len = int(new_lens.astype(np.int64).sum())
        # flat langvals store GLOBAL codes and the compacted manifest keeps
        # the source langs list, so a boolean filter is the whole rewrite
        write_flat(out_dir, docs.docmap_array()[keep], new_lens,
                   docs.langvals_array()[keep])
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
                        "tombstones_fp": tomb_fp}],
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
    # the compacted index has NO tombstones (remove any stale ones from a
    # reused out_dir), but its docs table
    # (docs_sources -> base staging) still contains the removed docs:
    # record them in the excluded sidecar so read_docs filters them;
    # chains of compactions accumulate the union
    remove_tombstone_files(out_dir)
    dead_ids = docs.gather_ids(tomb) if len(tomb) else np.empty(0, np.int64)
    write_excluded(out_dir, np.union1d(read_excluded(index_dir), dead_ids))
    write_json_atomic(os.path.join(out_dir, "MANIFEST.json"), manifest,
                      indent=1)
    return manifest
