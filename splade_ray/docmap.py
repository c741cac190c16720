"""Doc-ordinal forward arrays (docmap = ordinal -> 63-bit doc id, doclens =
ordinal -> doc length, langvals = ordinal -> lang code), in two layouts
behind one reader interface.  This module is the only one that names or
writes their files:

  * FLAT      docmap.bin / doclens.bin / langvals.bin — single files,
              written by ``write_flat`` (the build's driver argsort, the
              merge, and compaction of a flat source).
  * SHARDED   docmap/dm-<min_id>.bin + dl-<min_id>.bin + lv-<min_id>.bin
              + ranges.json — written by ``write_sharded`` (the build's
              distributed ordinal pass: the sort's output tasks write one
              shard per range-partition block, named by its minimum doc id)
              and ``compact_sharded`` (one task per source shard).  Both
              write shards with one shard writer, and the driver only sees
              per-shard summary rows (min/max/count), from which one
              ranges.json writer prefix-sums the ordinal starts.  Nothing
              doc-scale ever flows through one write cursor — at 10^12 docs
              the driver handles one JSON row per shard.

Each writer removes the other layout first: readers prefer the sharded one,
so a flat write into a dir that held a sharded layout would otherwise be
shadowed by the stale shards.

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

from .alias import write_json_atomic

DOCMAP_NAME = "docmap.bin"
DOCLENS_NAME = "doclens.bin"
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
# the flat layout's files, in (ids, lens, lang codes) order
FLAT_FILES = (DOCMAP_NAME, DOCLENS_NAME, LANGVALS_NAME)
RANGES_NAME = "ranges.json"
SHARD_DIR = "docmap"

_DUP_MSG = ("duplicate (repo, path, commit) identity rows (or a 63-bit "
           "doc_id collision); deduplicate the corpus first (ops.dedup) "
           "or widen ids")


def lang_remap(src, vocab) -> np.ndarray:
    """uint8 LUT from codes against ``src`` to codes against the SORTED
    ``vocab``: entry i is src[i]'s position in ``vocab``, LANG_MISSING when
    src[i] is empty or absent from it, and LANG_MISSING for every index past
    ``src`` (so a missing code maps to itself).  The one check of the uint8
    code limit: ``vocab`` holds at most LANG_MISSING - 1 langs."""
    vocab = np.asarray(vocab, dtype=object)
    if len(vocab) >= LANG_MISSING:
        raise ValueError(
            f"lang doc-values support at most {LANG_MISSING - 1} distinct "
            f"values (uint8 codes); got {len(vocab)}")
    src = np.asarray(src, dtype=object)
    lut = np.full(max(256, len(src)), LANG_MISSING, dtype=np.uint8)
    if len(src) and len(vocab):
        pos = np.searchsorted(vocab, src)
        ok = pos < len(vocab)
        ok[ok] = vocab[pos[ok]] == src[ok]
        ok &= src != ""
        lut[: len(src)] = np.where(ok, pos, LANG_MISSING)
    return lut


def encode_lang_codes(lang_col, vocab: "np.ndarray | list[str]") -> np.ndarray:
    """uint8 codes of an Arrow lang column against a SORTED vocabulary;
    empty/null/absent-from-vocab -> LANG_MISSING."""
    import pyarrow.compute as pc

    if isinstance(lang_col, pa.ChunkedArray):
        lang_col = lang_col.combine_chunks()
    enc = pc.dictionary_encode(lang_col)
    null_mask = np.asarray(pc.is_null(enc.indices).to_numpy(
        zero_copy_only=False))
    codes = np.where(null_mask, 0, enc.indices.to_numpy(
        zero_copy_only=False)).astype(np.int64)
    out = lang_remap(enc.dictionary.to_pylist(), vocab)[codes]
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
        self._map = np.memmap(os.path.join(index_dir, DOCMAP_NAME),
                              dtype=np.int64, mode="r")
        self._lens = np.memmap(os.path.join(index_dir, DOCLENS_NAME),
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
            sv = [x for x in s.get("lang_vocab", "").split(",") if x]
            lut = lang_remap(sv, self._vocab())
            if (lut[: len(sv)] == LANG_MISSING).any():
                raise ValueError(
                    "shard lang vocabulary not contained in the "
                    "manifest langs list (corrupt sidecar)")
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
    if all(os.path.exists(p := os.path.join(index_dir, name))
           and os.path.getsize(p) == width * n_docs
           for name, width in zip(FLAT_FILES, (8, 4, 1))):
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
            c = int(s["count"])
            if "lv" not in s:
                return False  # pre-docvalues layout: rebuild the pass
            for key, width in (("dm", 8), ("dl", 4), ("lv", 1)):
                p = os.path.join(index_dir, SHARD_DIR, s[key])
                if not (os.path.exists(p) and os.path.getsize(p) == width * c):
                    return False
            total += c
        return total == n_docs
    except (json.JSONDecodeError, OSError, KeyError):
        return False


# ----------------------------------------------------------------- writers --

def _write_arrays(root: str, names, ids: np.ndarray, lens: np.ndarray,
                  codes: np.ndarray) -> None:
    """One set of forward arrays (ids, lens, lang codes) under ``names``,
    each by temp file + rename.  ``ids`` must ascend: equal neighbours are
    duplicate doc identities, which raise."""
    d = np.diff(ids)
    if (d < 0).any():
        raise AssertionError("doc ids arrived out of order")
    if (d == 0).any():
        raise ValueError(_DUP_MSG)
    for name, arr, dtype in zip(names, (ids, lens, codes),
                                (np.int64, np.int32, np.uint8)):
        tmp = os.path.join(root, name + ".tmp")
        np.asarray(arr, dtype=dtype).tofile(tmp)
        os.replace(tmp, os.path.join(root, name))


def write_flat(index_dir: str, ids: np.ndarray, lens: np.ndarray,
               lang_codes: np.ndarray) -> None:
    """Write the FLAT layout of sorted doc ``ids``, their ``lens`` and
    GLOBAL ``lang_codes``, after removing a sharded layout from the dir."""
    shutil.rmtree(os.path.join(index_dir, SHARD_DIR), ignore_errors=True)
    _write_arrays(index_dir, FLAT_FILES, ids, lens, lang_codes)


def _fresh_shard_root(index_dir: str) -> str:
    """An empty docmap/ dir, after removing the flat layout from the dir."""
    for name in FLAT_FILES:
        p = os.path.join(index_dir, name)
        if os.path.exists(p):
            os.remove(p)
    root = os.path.join(index_dir, SHARD_DIR)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    return root


# one summary row per written shard; every column but total_len is the
# shard's ranges.json entry
_SHARD_ROW = pa.schema([("dm", pa.string()), ("dl", pa.string()),
                        ("lv", pa.string()), ("lang_vocab", pa.string()),
                        ("min_id", pa.int64()), ("max_id", pa.int64()),
                        ("count", pa.int64()), ("total_len", pa.int64())])


def _write_shard(root: str, ids: np.ndarray, lens: np.ndarray,
                 codes: np.ndarray, lang_vocab: str) -> dict:
    """One shard's dm/dl/lv files, named by its min doc id; ``codes`` are
    against ``lang_vocab`` (the shard's sorted langs, comma-joined).
    Returns its summary row."""
    stem = f"{int(ids[0]):016x}"
    names = [f"{key}-{stem}.bin" for key in ("dm", "dl", "lv")]
    _write_arrays(root, names, ids, lens, codes)
    return {"dm": names[0], "dl": names[1], "lv": names[2],
            "lang_vocab": lang_vocab, "min_id": int(ids[0]),
            "max_id": int(ids[-1]), "count": len(ids),
            "total_len": int(lens.astype(np.int64).sum())}


def _write_ranges(root: str, rows: list[dict], n_docs: int) -> None:
    """ranges.json from the shards' summary rows: sorted by min id, ordinal
    starts prefix-summed.  Written last, so a killed writer never
    validates.  Cross-shard duplicates or overlaps fail here."""
    rows = sorted(rows, key=lambda r: r["min_id"])
    shards, start = [], 0
    for prev, r in zip([None] + rows, rows):
        if prev is not None and r["min_id"] <= prev["max_id"]:
            if r["min_id"] == prev["max_id"]:
                raise ValueError(_DUP_MSG)
            raise AssertionError("sorted partitions overlap")
        shards.append({k: r[k] for k in _SHARD_ROW.names[:-1]}
                      | {"ordinal_start": start})
        start += r["count"]
    if start != n_docs:
        raise AssertionError(
            f"docmap shards hold {start} rows, expected {n_docs}")
    write_json_atomic(os.path.join(root, RANGES_NAME),
                      {"n_docs": n_docs, "shards": shards}, indent=1)


def _write_shard_batch(t: pa.Table, *, shard_root: str) -> pa.Table:
    """One sorted range-partition block -> one shard on disk, with codes
    against the block's own sorted langs (the global union does not exist
    yet while shard tasks run)."""
    import pyarrow.compute as pc

    rows = []
    if t.num_rows:
        lang_col = t["lang"]
        vocab = sorted(x for x in pc.unique(lang_col).to_pylist() if x)
        rows.append(_write_shard(
            shard_root, t["doc_id"].to_numpy(zero_copy_only=False),
            t["doc_len"].to_numpy(zero_copy_only=False),
            encode_lang_codes(lang_col, vocab), ",".join(vocab)))
    return pa.Table.from_pylist(rows, schema=_SHARD_ROW)


def write_sharded(sorted_ds, index_dir: str, n_docs: int) -> None:
    """Distributed ordinal pass: the sort's output tasks write per-range
    shard files; the driver writes ranges.json from one row per shard."""
    root = _fresh_shard_root(index_dir)
    rows = sorted_ds.map_batches(
        _write_shard_batch, batch_format="pyarrow", batch_size=None,
        fn_kwargs={"shard_root": root}).take_all()
    _write_ranges(root, rows, n_docs)


def _compact_shard_batch(t: pa.Table, *, src_root: str, out_root: str,
                         tomb_ref) -> pa.Table:
    """Each source shard minus the tombstone ordinals in its range, written
    under the output's docmap/.  Memory per task is one shard +
    O(|deleted|) — never O(corpus)."""
    import ray

    tomb = ray.get(tomb_ref)
    rows = []
    for row in t.to_pylist():
        start, count = int(row["ordinal_start"]), int(row["count"])
        keep = np.ones(count, dtype=bool)
        keep[tomb[np.searchsorted(tomb, start):
                  np.searchsorted(tomb, start + count)] - start] = False
        if not keep.any():
            continue
        dm, dl, lv = (np.fromfile(os.path.join(src_root, row[key]),
                                  dtype=dtype)[keep]
                      for key, dtype in (("dm", np.int64), ("dl", np.int32),
                                         ("lv", np.uint8)))
        # survivor codes stay valid against the SOURCE shard vocabulary
        # (a vanished lang simply never occurs)
        rows.append(_write_shard(out_root, dm, dl, lv, row["lang_vocab"]))
    return pa.Table.from_pylist(rows, schema=_SHARD_ROW)


def compact_sharded(index_dir: str, out_dir: str, tomb_ref,
                    n_live: int) -> int:
    """Docmap compaction of a SHARDED source: one Ray task per source shard
    drops the sorted dead ordinals (``tomb_ref``, an object ref) from its
    arrays; the survivors keep sorted-id order.  Returns their total doc
    length."""
    import ray.data as rd

    src = ShardedDocArrays(index_dir)
    root = _fresh_shard_root(out_dir)
    rows = rd.from_items(src._shards).map_batches(
        _compact_shard_batch, batch_format="pyarrow", batch_size=4,
        fn_kwargs={"src_root": src._root, "out_root": root,
                   "tomb_ref": tomb_ref}).take_all()
    _write_ranges(root, rows, n_live)
    return sum(r["total_len"] for r in rows)
