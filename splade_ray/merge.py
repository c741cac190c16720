"""Index-level log-structured merge: N index generations -> one index.

The incremental-ingestion path (north_rule "log-structured segment merge"):
build an index per corpus increment, then merge shard-by-shard in parallel
Ray tasks.  Contrast with the reference, where re-running ingest silently
duplicates every chunk under a fresh uuid4 (reference ingest.py:139).

Semantics:
  * inputs must cover DISJOINT document sets (standard incremental builds);
    the same (term, salt, doc_id) appearing twice with equal tf collapses
    (segment-level idempotence), but index stats (N, avgdl) are summed, so
    overlapping inputs are a caller error.
  * per-shard merge re-encodes posting lists with the merged corpus' avgdl
    (block-max bounds depend on it), so query scores from the merged index
    are IDENTICAL to a from-scratch build over the union (tested).
  * salting decisions may differ between generations (different hot sets):
    a term's (t, salt_a) and (t, salt_b) sub-lists simply coexist; the
    query engine gathers every (term, *) entry, so correctness never
    depends on agreement.  Shard placement may differ too — the merged
    index keeps each input entry in its own shard's segment.  The merged
    MANIFEST names the inputs' ``placement`` rule only when they all share
    it, and lists the union of their hot sets, so a lookup routed by it
    still visits every shard any input could have placed a term in.
  * resumable: output shards with valid manifests are skipped.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa

import ray.data

from .alias import write_json_atomic
from .delete import (read_excluded, read_tombstones, remove_tombstone_files,
                     write_excluded, write_tombstones)
from .docmap import LANG_MISSING, lang_remap, open_doc_arrays, write_flat
from .segments import merge_segments, validate_segment


def _merge_shard_batch(t: pa.Table, *, out_dir: str, avgdl: float,
                       map_refs, new_map_ref, doclens_ref,
                       sources_fp: str) -> pa.Table:
    import ray

    id_maps_all = [ray.get(r) for r in map_refs]
    new_map = ray.get(new_map_ref)
    doclens = ray.get(doclens_ref)
    rows = t.to_pylist()
    out = {"shard": [], "n_terms": [], "n_postings": []}
    for row in rows:
        shard = row["shard"]
        pairs = [
            (d, id_maps_all[i])
            for i, d in enumerate(row["seg_dirs"])
            if d and os.path.isdir(d)
        ]
        seg_dirs = [d for d, _ in pairs]
        id_maps = [m for _, m in pairs]
        seg_out = os.path.join(out_dir, "segments", f"seg-{shard:05d}")
        m = merge_segments(seg_dirs, seg_out, f"seg-{shard:05d}", shard, avgdl,
                           doclens, id_maps=id_maps, new_map=new_map,
                           lineage={"sources_fp": sources_fp})
        out["shard"].append(shard)
        out["n_terms"].append(m["n_terms"])
        out["n_postings"].append(m["n_postings"])
    return pa.table(
        {
            "shard": pa.array(out["shard"], type=pa.int32()),
            "n_terms": pa.array(out["n_terms"], type=pa.int64()),
            "n_postings": pa.array(out["n_postings"], type=pa.int64()),
        }
    )


def add_generation(base_index: str, corpus_ds, out_dir: str,
                   **build_overrides) -> dict:
    """Incremental ADD: build a new generation over ``corpus_ds`` (docs
    DISJOINT from the base) with the base's build settings, then LSM-merge
    base + generation into ``out_dir``.  With delete.delete_docs and
    compact_index this completes the update lifecycle; tombstones on the
    base propagate through the merge."""
    from .build import build_index

    with open(os.path.join(base_index, "MANIFEST.json")) as f:
        base_man = json.load(f)
    kw = {"lang_tagged": base_man["lang_tagged"],
          "n_shards": base_man["n_shards"],
          "salt_bits": base_man["salt_bits"],
          "positions": bool(base_man.get("positions"))}
    kw.update(build_overrides)
    gen_dir = out_dir.rstrip("/") + ".gen"
    build_index(corpus_ds, gen_dir, **kw)
    return merge_index_dirs([base_index, gen_dir], out_dir)


def merge_index_dirs(index_dirs: list[str], out_dir: str) -> dict:
    """Merge several built indexes (disjoint doc sets) into ``out_dir``."""
    raws = []
    for d in index_dirs:
        with open(os.path.join(d, "MANIFEST.json"), "rb") as f:
            raws.append(f.read())
    manifests = [json.loads(r) for r in raws]
    # identity of the inputs: a segment in a reused out_dir resumes only if
    # it was merged from these very manifests (every output segment depends
    # on all inputs through the merged ordinal space)
    sources_fp = hashlib.sha256(b"\0".join(raws)).hexdigest()
    base = manifests[0]
    for m in manifests[1:]:
        if m["n_shards"] != base["n_shards"]:
            raise ValueError("all inputs must share n_shards")
        if m["lang_tagged"] != base["lang_tagged"]:
            raise ValueError("all inputs must share lang_tagged")
        if m["salt_bits"] != base["salt_bits"]:
            # queries tolerate mixed salts, but the merged manifest records
            # ONE salt_bits — refuse rather than record a wrong value that
            # downstream tooling would treat as authoritative
            raise ValueError("all inputs must share salt_bits")
        if not m.get("doc_ordinals"):
            raise ValueError("all inputs must be doc-ordinal indexes")
        if bool(m.get("positions")) != bool(base.get("positions")):
            # fail fast driver-side; merge_segments would refuse the same
            # mix per-shard, but only after the distributed merge launches
            raise ValueError(
                "cannot merge positional and non-positional indexes; "
                "rebuild the non-positional inputs with positions=True"
            )

    # read before anything is written: an input whose tombstones cannot be
    # read fails the merge up front
    tomb = np.concatenate(
        [read_tombstones(d) for d in index_dirs] + [np.empty(0, np.int64)])
    n_docs = sum(m["n_docs"] for m in manifests)
    total_len = sum(m["total_doc_len"] for m in manifests)
    avgdl = total_len / n_docs
    n_shards = base["n_shards"]

    # merged forward arrays: ordinals of each generation remap through its
    # own docmap to real ids, then into the merged sorted id space; lang
    # codes (GLOBAL against each input's manifest langs) remap into the
    # merged sorted-union vocabulary
    import ray as _ray

    in_arrays = [open_doc_arrays(d) for d in index_dirs]
    id_maps = [a.docmap_array() for a in in_arrays]
    new_map = np.unique(np.concatenate(id_maps))
    if len(new_map) != sum(len(m) for m in id_maps):
        raise ValueError(
            "inputs share documents — merge requires disjoint doc sets"
        )
    merged_langs = sorted({lg for m in manifests for lg in m["langs"]})
    new_doclens = np.zeros(len(new_map), dtype=np.int32)
    new_langvals = np.full(len(new_map), LANG_MISSING, dtype=np.uint8)
    for a, old_map, m in zip(in_arrays, id_maps, manifests):
        at = np.searchsorted(new_map, old_map)
        new_doclens[at] = a.doclens_array()
        new_langvals[at] = lang_remap(m["langs"], merged_langs)[
            a.langvals_array()]
    os.makedirs(out_dir, exist_ok=True)
    write_flat(out_dir, new_map, new_doclens, new_langvals)
    map_refs = [_ray.put(m) for m in id_maps]
    new_map_ref = _ray.put(new_map)
    doclens_ref = _ray.put(new_doclens)

    os.makedirs(os.path.join(out_dir, "segments"), exist_ok=True)
    todo = []
    for s in range(n_shards):
        seg_out = os.path.join(out_dir, "segments", f"seg-{s:05d}")
        m = validate_segment(seg_out)
        if (m is not None
                and m.get("lineage", {}).get("sources_fp") == sources_fp):
            continue  # resume: already merged from the same inputs
        todo.append(
            {
                "shard": s,
                "seg_dirs": [
                    os.path.join(d, "segments", f"seg-{s:05d}")
                    for d in index_dirs
                ],
            }
        )
    if todo:
        (
            ray.data.from_items(todo)
            .map_batches(
                _merge_shard_batch, batch_format="pyarrow", batch_size=1,
                fn_kwargs={"out_dir": out_dir, "avgdl": avgdl,
                           "map_refs": map_refs, "new_map_ref": new_map_ref,
                           "doclens_ref": doclens_ref,
                           "sources_fp": sources_fp},
            )
            .count()
        )

    seg_rows = []
    n_postings = 0
    for s in range(n_shards):
        m = validate_segment(os.path.join(out_dir, "segments", f"seg-{s:05d}"))
        if m is None:
            raise RuntimeError(f"merge produced invalid segment for shard {s}")
        n_postings += m["n_postings"]
        seg_rows.append({"shard": s, "segment_id": m["segment_id"],
                         "n_terms": m["n_terms"], "n_postings": m["n_postings"]})

    # tombstones PROPAGATE: a doc deleted in any input generation stays
    # deleted in the merged index (its postings still merge through — the
    # mask stays query-side until compact_index reclaims them).  An empty
    # union leaves no tombstones in a reused out_dir.
    # The compaction-excluded sidecars union the same way: the merged docs
    # view (docs_sources) must keep filtering docs a compaction removed.
    remove_tombstone_files(out_dir)
    write_tombstones(out_dir, tomb)
    write_excluded(out_dir, np.unique(np.concatenate(
        [read_excluded(d) for d in index_dirs] + [np.empty(0, np.int64)]
    )))

    # each output segment keeps its shard, so the inputs' placement holds
    # for the merged index only if every input was placed by the same rule
    placements = {m.get("placement") for m in manifests}
    manifest = {
        "format_version": 1,
        "merged_from": [os.path.abspath(d) for d in index_dirs],
        "n_docs": n_docs,
        "n_dropped_rows": sum(m["n_dropped_rows"] for m in manifests),
        "total_doc_len": total_len,
        "avgdl": avgdl,
        "langs": merged_langs,
        "lang_tagged": base["lang_tagged"],
        "n_shards": n_shards,
        "salt_bits": base["salt_bits"],
        "doc_ordinals": True,
        # merge_segments refuses mixed positional/non-positional inputs, so
        # all-or-nothing here is exact
        "positions": all(bool(m.get("positions")) for m in manifests),
        # the union: a term hot in any input may sit in its salt shards
        "hot_terms": sorted({t for m in manifests for t in m["hot_terms"]}),
        "n_postings": n_postings,
        "segments": seg_rows,
        # source identity: lets callers detect a stale merge when an input
        # generation was rebuilt underneath it (corpus_fp/n_docs mismatch)
        "source_fps": [
            {"corpus_fp": m.get("corpus_fp"), "n_docs": m["n_docs"]}
            for m in manifests
        ],
        # docs table = the union of the inputs' staging tables.  A
        # checkpoint="none" input has no staging dir — drop it from the
        # list so read_docs fails loudly (its docs live only in the source
        # corpus) instead of erroring on a missing path
        "docs_sources": [
            p for p in (os.path.join(os.path.abspath(d), "staging")
                        for d in index_dirs)
            if os.path.isdir(p)
        ],
    }
    if len(placements) == 1 and None not in placements:
        manifest["placement"] = placements.pop()
    write_json_atomic(os.path.join(out_dir, "MANIFEST.json"), manifest,
                      indent=1)
    return manifest
