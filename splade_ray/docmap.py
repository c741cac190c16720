"""Doc-ordinal forward arrays (docmap = ordinal -> 63-bit doc id, doclens =
ordinal -> doc length), in two layouts behind one reader interface:

  * FLAT      docmap.bin / doclens.bin — single files, written by the
              driver-argsort ordinal path (small corpora).
  * SHARDED   docmap/dm-<min_id>.bin + dl-<min_id>.bin + ranges.json —
              written BY THE SORT'S OUTPUT TASKS themselves (build.py's
              distributed ordinal pass): each range-partition block lands as
              one shard pair named by its minimum doc id, and the driver
              only sees per-shard summary rows (min/max/count) from which it
              prefix-sums the ordinal starts and writes the tiny manifest.
              Nothing doc-scale ever flows through one write cursor — at
              10^12 docs the driver handles one JSON row per shard.

Readers gather through ``open_doc_arrays``: the flat layout is a plain
memmap; the sharded layout memmaps each shard lazily on first touch, so a
range-restricted query actor (query.run_queries_sharded) only ever pages in
the shards overlapping its ordinal slice.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa

RANGES_NAME = "ranges.json"
SHARD_DIR = "docmap"

# keyword doc-values sidecar (Lucene SORTED DocValues analogue): one uint8
# code per ordinal mapping into the index's sorted lang vocabulary
# (MANIFEST.json["langs"]); 255 = missing/empty.  Flat layout stores GLOBAL
# codes directly (the vocabulary is complete before the driver writes);
# sharded layout stores PER-SHARD codes against the shard's own sorted
# vocabulary recorded in ranges.json, remapped to global at gather time —
# shard tasks run before the union vocabulary exists, and a one-LUT remap
# per shard is free next to the fancy-index gather.
LANGVALS_NAME = "langvals.bin"
LANG_MISSING = 255


def encode_lang_codes(lang_col, vocab: "np.ndarray | list[str]") -> np.ndarray:
    """uint8 codes of an Arrow lang column against a SORTED vocabulary;
    empty/null/absent-from-vocab -> LANG_MISSING."""
    import pyarrow.compute as pc

    if isinstance(lang_col, pa.ChunkedArray):
        lang_col = lang_col.combine_chunks()
    vocab = np.asarray(vocab, dtype=object)
    if len(vocab) >= LANG_MISSING:
        raise ValueError(
            f"lang doc-values support at most {LANG_MISSING - 1} distinct "
            f"values (uint8 codes); got {len(vocab)}")
    enc = pc.dictionary_encode(lang_col)
    d = np.asarray(enc.combine_chunks().dictionary.to_pylist()
                   if isinstance(enc, pa.ChunkedArray)
                   else enc.dictionary.to_pylist(), dtype=object)
    if not len(d):  # all-null column: every row is LANG_MISSING
        return np.full(len(lang_col), LANG_MISSING, dtype=np.uint8)
    idx = enc.indices if not isinstance(enc, pa.ChunkedArray) else enc.combine_chunks().indices
    codes = idx.to_numpy(zero_copy_only=False)
    null_mask = np.asarray(pc.is_null(idx).to_numpy(zero_copy_only=False))
    codes = np.where(null_mask, 0, codes).astype(np.int64)
    # per-dictionary-entry LUT into the global vocab
    pos = np.searchsorted(vocab, d)
    ok = (pos < len(vocab))
    ok[ok] = vocab[pos[ok]] == d[ok]
    ok &= d != ""
    lut = np.where(ok, pos, LANG_MISSING).astype(np.uint8)
    out = lut[codes]
    out[null_mask] = LANG_MISSING
    return out


def sorted_member(sorted_arr: np.ndarray,
                  values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(membership mask, insertion positions) of ``values`` against a
    SORTED array — the one searchsorted-membership idiom shared by the
    query-side tombstone mask, read_docs filtering, compaction and the
    ordinal lookups (one clamp to get right instead of five copies)."""
    pos = np.searchsorted(sorted_arr, values)
    if not len(sorted_arr) or not len(values):
        return np.zeros(len(values), dtype=bool), pos
    ok = (pos < len(sorted_arr)) & (
        sorted_arr[np.minimum(pos, len(sorted_arr) - 1)] == values
    )
    return ok, pos


# ----------------------------------------------------------------- readers --

class FlatDocArrays:
    """Single-file layout: direct memmap fancy-indexing."""

    def __init__(self, index_dir: str):
        self._map = np.memmap(os.path.join(index_dir, "docmap.bin"),
                              dtype=np.int64, mode="r")
        self._lens = np.memmap(os.path.join(index_dir, "doclens.bin"),
                               dtype=np.int32, mode="r")
        self.n_docs = len(self._map)
        lv = os.path.join(index_dir, LANGVALS_NAME)
        self._langs = (np.memmap(lv, dtype=np.uint8, mode="r")
                       if os.path.exists(lv) else None)

    @property
    def has_langvals(self) -> bool:
        return self._langs is not None

    def gather_langcodes(self, ordinals: np.ndarray) -> np.ndarray:
        """GLOBAL lang codes (index into MANIFEST.json["langs"], 255 =
        missing) for the given ordinals; flat files store global codes."""
        if self._langs is None:
            raise ValueError("index lacks the lang doc-values sidecar "
                             f"({LANGVALS_NAME}); rebuild to enable "
                             "collapse/terms-agg queries")
        return np.asarray(self._langs)[ordinals]

    def langvals_array(self) -> np.ndarray:
        if self._langs is None:
            raise ValueError(f"index lacks {LANGVALS_NAME}")
        return np.asarray(self._langs)

    def gather_ids(self, ordinals: np.ndarray) -> np.ndarray:
        return np.asarray(self._map)[ordinals]

    def gather_lens(self, ordinals: np.ndarray) -> np.ndarray:
        return np.asarray(self._lens)[ordinals]

    def ords_of_ids(self, doc_ids: np.ndarray) -> np.ndarray:
        """Sorted ordinals of the doc ids present in the map (absent ids are
        dropped).  Ordinals ARE ranks in the sorted id space, so this is one
        searchsorted against the memmap — no materialization."""
        ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
        ok, pos = sorted_member(np.asarray(self._map), ids)
        return pos[ok].astype(np.int64)

    def ord_upper_bound(self, doc_id: int) -> int:
        """First ordinal whose doc id is STRICTLY GREATER than ``doc_id``
        (ordinals are ranks in the sorted id space) — the cursor bound for
        search-after pagination."""
        return int(np.searchsorted(np.asarray(self._map), doc_id,
                                   side="right"))

    def docmap_array(self) -> np.ndarray:
        return np.asarray(self._map)

    def doclens_array(self) -> np.ndarray:
        return np.asarray(self._lens)


class ShardedDocArrays:
    """Per-range shards, memmapped lazily per shard on first gather.

    Gathers exploit that query-path ordinal vectors are (near-)sorted: one
    searchsorted against the shard starts buckets every index, then each
    touched shard services its slice with one fancy index."""

    def __init__(self, index_dir: str):
        root = os.path.join(index_dir, SHARD_DIR)
        with open(os.path.join(root, RANGES_NAME)) as f:
            man = json.load(f)
        self.n_docs = int(man["n_docs"])
        self._root = root
        self._shards = man["shards"]
        self._starts = np.array([s["ordinal_start"] for s in self._shards],
                                dtype=np.int64)
        self._maps: dict[int, np.memmap] = {}
        self._lens: dict[int, np.memmap] = {}
        self._langs: dict[int, np.ndarray] = {}  # shard -> GLOBAL codes view
        self._index_dir = index_dir
        self._global_vocab: np.ndarray | None = None

    def _shard_map(self, i: int) -> np.memmap:
        m = self._maps.get(i)
        if m is None:
            m = np.memmap(os.path.join(self._root, self._shards[i]["dm"]),
                          dtype=np.int64, mode="r")
            self._maps[i] = m
        return m

    def _shard_lens(self, i: int) -> np.memmap:
        m = self._lens.get(i)
        if m is None:
            m = np.memmap(os.path.join(self._root, self._shards[i]["dl"]),
                          dtype=np.int32, mode="r")
            self._lens[i] = m
        return m

    @property
    def has_langvals(self) -> bool:
        return all("lv" in s for s in self._shards)

    def _vocab(self) -> np.ndarray:
        if self._global_vocab is None:
            with open(os.path.join(self._index_dir, "MANIFEST.json")) as f:
                self._global_vocab = np.asarray(
                    json.load(f)["langs"], dtype=object)
        return self._global_vocab

    def _shard_langcodes(self, i: int) -> np.ndarray:
        """Shard i's codes remapped into the GLOBAL vocabulary via one
        256-entry LUT (shard vocabularies are recorded in ranges.json)."""
        m = self._langs.get(i)
        if m is None:
            s = self._shards[i]
            if "lv" not in s:
                raise ValueError(
                    f"index lacks the lang doc-values sidecar (shard "
                    f"{s['dm']} has no lv file); rebuild to enable "
                    "collapse/terms-agg queries")
            raw = np.memmap(os.path.join(self._root, s["lv"]),
                            dtype=np.uint8, mode="r")
            sv = np.asarray([x for x in s.get("lang_vocab", "").split(",")
                             if x], dtype=object)
            vocab = self._vocab()
            if len(vocab) >= LANG_MISSING:
                raise ValueError(
                    f"manifest langs list has {len(vocab)} entries; lang "
                    f"doc-values support at most {LANG_MISSING - 1} "
                    "(uint8 codes)")
            lut = np.full(256, LANG_MISSING, dtype=np.uint8)
            if len(sv):
                pos = np.searchsorted(vocab, sv)
                if (pos >= len(vocab)).any() or (vocab[np.minimum(
                        pos, len(vocab) - 1)] != sv).any():
                    raise ValueError(
                        "shard lang vocabulary not contained in the "
                        "manifest langs list (corrupt sidecar)")
                lut[: len(sv)] = pos.astype(np.uint8)
            m = lut[np.asarray(raw)]
            self._langs[i] = m
        return m

    def gather_langcodes(self, ordinals: np.ndarray) -> np.ndarray:
        return self._gather(np.asarray(ordinals, dtype=np.int64),
                            self._shard_langcodes, np.uint8)

    def langvals_array(self) -> np.ndarray:
        return np.concatenate([self._shard_langcodes(i)
                               for i in range(len(self._shards))])

    def _gather(self, ordinals: np.ndarray, shard_of, dtype) -> np.ndarray:
        out = np.empty(len(ordinals), dtype=dtype)
        which = np.searchsorted(self._starts, ordinals, side="right") - 1
        for si in np.unique(which):
            m = ordinals[which == si]
            out[which == si] = shard_of(int(si))[m - self._starts[si]]
        return out

    def gather_ids(self, ordinals: np.ndarray) -> np.ndarray:
        return self._gather(np.asarray(ordinals, dtype=np.int64),
                            self._shard_map, np.int64)

    def gather_lens(self, ordinals: np.ndarray) -> np.ndarray:
        return self._gather(np.asarray(ordinals, dtype=np.int64),
                            self._shard_lens, np.int32)

    def ords_of_ids(self, doc_ids: np.ndarray) -> np.ndarray:
        """Sorted ordinals of the present doc ids; only the shards whose
        [min_id, max_id] range is hit are paged in."""
        ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
        mins = np.array([s["min_id"] for s in self._shards], dtype=np.int64)
        which = np.searchsorted(mins, ids, side="right") - 1
        out = []
        for si in np.unique(which):
            if si < 0:
                continue
            sub = ids[which == si]
            ok, pos = sorted_member(np.asarray(self._shard_map(int(si))), sub)
            out.append(pos[ok] + self._starts[si])
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(out)).astype(np.int64)

    def ord_upper_bound(self, doc_id: int) -> int:
        """First ordinal with id > doc_id; only the one shard whose
        [min_id, max_id] straddles the cursor is paged in."""
        mins = np.array([s["min_id"] for s in self._shards], dtype=np.int64)
        si = int(np.searchsorted(mins, doc_id, side="right")) - 1
        if si < 0:
            return 0
        within = int(np.searchsorted(np.asarray(self._shard_map(si)),
                                     doc_id, side="right"))
        return int(self._starts[si]) + within

    def docmap_array(self) -> np.ndarray:
        return np.concatenate([np.asarray(self._shard_map(i))
                               for i in range(len(self._shards))])

    def doclens_array(self) -> np.ndarray:
        return np.concatenate([np.asarray(self._shard_lens(i))
                               for i in range(len(self._shards))])


def open_doc_arrays(index_dir: str):
    if os.path.exists(os.path.join(index_dir, SHARD_DIR, RANGES_NAME)):
        return ShardedDocArrays(index_dir)
    return FlatDocArrays(index_dir)


def doc_arrays_valid(index_dir: str, n_docs: int) -> bool:
    """True iff either layout is present, complete and sized for n_docs."""
    flat_map = os.path.join(index_dir, "docmap.bin")
    flat_lens = os.path.join(index_dir, "doclens.bin")
    flat_lv = os.path.join(index_dir, LANGVALS_NAME)
    if (os.path.exists(flat_map) and os.path.getsize(flat_map) == 8 * n_docs
            and os.path.exists(flat_lens)
            and os.path.getsize(flat_lens) == 4 * n_docs
            and os.path.exists(flat_lv)
            and os.path.getsize(flat_lv) == n_docs):
        return True
    rpath = os.path.join(index_dir, SHARD_DIR, RANGES_NAME)
    if not os.path.exists(rpath):
        return False
    try:
        with open(rpath) as f:
            man = json.load(f)
        if man.get("n_docs") != n_docs:
            return False
        total = 0
        for s in man["shards"]:
            dm = os.path.join(index_dir, SHARD_DIR, s["dm"])
            dl = os.path.join(index_dir, SHARD_DIR, s["dl"])
            c = int(s["count"])
            if not (os.path.exists(dm) and os.path.getsize(dm) == 8 * c
                    and os.path.exists(dl) and os.path.getsize(dl) == 4 * c):
                return False
            if "lv" not in s:
                return False  # pre-docvalues layout: rebuild the pass
            lv = os.path.join(index_dir, SHARD_DIR, s["lv"])
            if not (os.path.exists(lv) and os.path.getsize(lv) == c):
                return False
            total += c
        return total == n_docs
    except (json.JSONDecodeError, OSError, KeyError):
        return False


# ------------------------------------------------------------------ writer --

def _write_shard_batch(t: pa.Table, *, shard_root: str) -> pa.Table:
    """One sorted range-partition block -> one (dm, dl) shard pair on disk,
    named by the block's min doc id; returns a summary row.  Duplicate ids
    WITHIN the block fail here; cross-block duplicates / overlaps fail at
    the driver's boundary check."""
    import pyarrow.compute as pc

    if t.num_rows == 0:
        return pa.table({"min_id": pa.array([], type=pa.int64()),
                         "max_id": pa.array([], type=pa.int64()),
                         "count": pa.array([], type=pa.int64()),
                         "langs": pa.array([], type=pa.string()),
                         "dm": pa.array([], type=pa.string()),
                         "dl": pa.array([], type=pa.string()),
                         "lv": pa.array([], type=pa.string())})
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    d = np.diff(ids)
    if (d < 0).any():
        raise AssertionError("sorted block arrived out of order")
    if (d == 0).any():
        raise ValueError(
            "duplicate (repo, path, commit) identity rows (or a 63-bit "
            "doc_id collision); deduplicate the corpus first (ops.dedup) "
            "or widen ids"
        )
    dls = t["doc_len"].to_numpy(zero_copy_only=False).astype(np.int32)
    lang_col = t["lang"]
    if isinstance(lang_col, pa.ChunkedArray):
        lang_col = lang_col.combine_chunks()
    shard_vocab = sorted(x for x in pc.unique(lang_col).to_pylist() if x)
    langs = ",".join(shard_vocab)
    # per-shard codes against the shard's OWN sorted vocabulary (the global
    # union doesn't exist yet while shard tasks run); readers remap via the
    # lang_vocab recorded in ranges.json
    codes = encode_lang_codes(lang_col, shard_vocab)
    stem = f"{int(ids[0]):016x}"
    dm_name, dl_name, lv_name = (f"dm-{stem}.bin", f"dl-{stem}.bin",
                                 f"lv-{stem}.bin")
    for name, arr in ((dm_name, np.ascontiguousarray(ids, dtype=np.int64)),
                      (dl_name, dls),
                      (lv_name, codes)):
        tmp = os.path.join(shard_root, name + ".tmp")
        arr.tofile(tmp)
        os.replace(tmp, os.path.join(shard_root, name))
    return pa.table(
        {
            "min_id": pa.array([int(ids[0])], type=pa.int64()),
            "max_id": pa.array([int(ids[-1])], type=pa.int64()),
            "count": pa.array([t.num_rows], type=pa.int64()),
            "langs": pa.array([langs], type=pa.string()),
            "dm": pa.array([dm_name], type=pa.string()),
            "dl": pa.array([dl_name], type=pa.string()),
            "lv": pa.array([lv_name], type=pa.string()),
        }
    )


def write_sharded(sorted_ds, index_dir: str, n_docs: int) -> None:
    """Distributed ordinal pass: the sort's output tasks write per-range
    shard files; the driver prefix-sums ordinal starts over the tiny summary
    table and writes ranges.json (last, so a killed run never validates)."""
    root = os.path.join(index_dir, SHARD_DIR)
    if os.path.isdir(root):
        shutil.rmtree(root)
    os.makedirs(root)
    rows = (
        sorted_ds.map_batches(
            _write_shard_batch, batch_format="pyarrow", batch_size=None,
            fn_kwargs={"shard_root": root},
        ).take_all()
    )
    rows.sort(key=lambda r: r["min_id"])
    n_written = sum(r["count"] for r in rows)
    if n_written != n_docs:
        raise AssertionError(
            f"ordinal pass wrote {n_written} rows, metadata counted {n_docs}")
    shards = []
    start = 0
    prev_max = None
    for r in rows:
        if prev_max is not None and r["min_id"] <= prev_max:
            if r["min_id"] == prev_max:
                raise ValueError("duplicate doc_id across sorted partitions; "
                                 "deduplicate the corpus first")
            raise AssertionError("sorted partitions overlap")
        prev_max = r["max_id"]
        shards.append({"dm": r["dm"], "dl": r["dl"], "lv": r["lv"],
                       "lang_vocab": r["langs"], "min_id": r["min_id"],
                       "max_id": r["max_id"], "count": r["count"],
                       "ordinal_start": start})
        start += r["count"]
    manifest = {"n_docs": n_docs, "shards": shards}
    tmp = os.path.join(root, RANGES_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(root, RANGES_NAME))
