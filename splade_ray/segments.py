"""Index segments: on-disk format, lineage manifests, log-structured merge.

A *segment* is the resumable unit of the build (north_rule: "resumable from
checkpoint with per-partition lineage"), replacing the Milvus-internal index
files behind ``create_index`` (reference ingest.py:159-172) with an explicit
layout:

    seg-XXXXX/
      dict.parquet   term, salt, df, cf, offset, nbytes, block_count,
                     block_nbytes, block_last_docid, block_max_tfsat
                     (+ pos_offset, pos_nbytes, block_pos_nbytes)
      postings.bin   per-(term,salt) varbyte blobs back to back (codecs.py)
      positions.bin  optional positional sidecar, same row order
      manifest.json  segment_id, shard, n_terms, n_postings, sum_tf,
                     postings_sha256, input lineage, format_version

All three writers (build.build_segment_group, ``merge_segments``,
delete._compact_seg_batch) share one column path: ``SegmentBuilder``'s
``add_postings`` forms the (term, salt) lists by one lexsort and collapses
duplicate (term, salt, doc_id) postings (equal tf asserted, so merge is
idempotent: merge(a, a) == a), ``add_many`` encodes them in one
``codecs.encode_postings_many`` pass, ``write`` builds dict.parquet from the
columns; merge and compaction read each input by one
``SegmentReader.decode_all``.  Writes are atomic (tmp dir + os.replace,
manifest written last) so a killed build never leaves a half-segment that
passes validation; a rerun skips every shard whose manifest validates.

``SegmentReader`` never builds one Python object per dictionary row: term
lookups bisect the term column's raw UTF-8 buffer (UTF-8 byte order equals
``str`` order) and the other columns are read through numpy views, so
opening a segment stays O(1) in Python objects.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from functools import cached_property

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .codecs import (PostingMeta, decode_positions_range, decode_postings,
                     decode_runs, encode_positions, encode_postings_many,
                     take_slices)

# v3: ordinal postings, doc_len in the forward doc-length array (docmap.py)
# v4: dictionary rows sorted lexicographically by (term, salt) — readers
#     binary-search the term column (term_rows), so dict ORDER is load-bearing
FORMAT_VERSION = 4

DICT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("salt", pa.int32()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("offset", pa.int64()),
        ("nbytes", pa.int64()),
        ("block_count", pa.list_(pa.int32())),
        ("block_nbytes", pa.list_(pa.int32())),
        ("block_last_docid", pa.list_(pa.int64())),
        ("block_max_tfsat", pa.list_(pa.float32())),
    ]
)
POS_DICT_SCHEMA = pa.schema(list(DICT_SCHEMA) + [
    ("pos_offset", pa.int64()), ("pos_nbytes", pa.int64()),
    ("block_pos_nbytes", pa.list_(pa.int32()))])
_BLOCK_COLS = ("block_count", "block_nbytes", "block_last_docid",
               "block_max_tfsat")


def _utf8(s: str) -> bytes:
    # surrogatepass: a caller's key with a lone surrogate (no dictionary
    # holds one) must miss, as a str compare would, not raise
    return s.encode("utf-8", "surrogatepass")


def _column_view(col: pa.ChunkedArray) -> np.ndarray:
    """Read-only numpy view of a dictionary column (zero-copy for one
    parquet row group; a multi-row-group column is concatenated once)."""
    out = col.to_numpy()
    out.flags.writeable = False
    return out


def _list_view(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of a list column: row ``i`` is
    ``values[offsets[i]:offsets[i + 1]]``, both read-only."""
    arr = col.combine_chunks()
    offs = arr.offsets.to_numpy()
    vals = arr.values.to_numpy()
    offs.flags.writeable = False
    vals.flags.writeable = False
    return offs, vals


def lex_rank(terms: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """(vocab, rank): the distinct ``terms`` in lexicographic (UTF-8 byte)
    order and each element's position in it — one dictionary encode plus a
    sort of the distinct terms, never a sort of every string."""
    enc = pc.dictionary_encode(terms)
    lex = pc.array_sort_indices(enc.dictionary).to_numpy(zero_copy_only=False)
    rank = np.empty(len(lex), dtype=np.int32)
    rank[lex] = np.arange(len(lex), dtype=np.int32)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    return enc.dictionary.take(pa.array(lex)), rank[codes]


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """[0, s0, s0+s1, ...]: where each of ``sizes`` starts, plus the end."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


class SegmentBuilder:
    """Collects posting lists as columns (``add_postings``, ``add_many``,
    one-list ``add``), then writes one segment atomically."""

    def __init__(self, segment_id: str, shard: int,
                 with_positions: bool = False):
        self.segment_id = segment_id
        self.shard = shard
        self.with_positions = with_positions
        # per batch: terms, salts, blob, PostingColumns, positions blob,
        # block_pos_nbytes
        self._batches: list[tuple] = []
        self._lineage: dict = {}

    def add_many(self, terms, salts: np.ndarray, ids: np.ndarray,
                 tfs: np.ndarray, dls: np.ndarray, run_starts: np.ndarray,
                 avgdl: float, positions: np.ndarray | None = None) -> None:
        """Add consecutive posting lists: list ``r`` is (``terms[r]``,
        ``salts[r]``) with postings [run_starts[r], run_starts[r + 1]) of
        ``ids``/``tfs``/``dls``, doc_id-sorted.  Lists must arrive in
        (term, salt) order across calls — the v4 dictionary order.
        ``positions`` (required iff the builder was created
        ``with_positions``): within-doc token positions of every posting,
        flattened in posting order (per-posting counts = ``tfs``)."""
        if (positions is None) == self.with_positions:
            raise ValueError(
                "positions must be passed iff SegmentBuilder(with_positions=True)"
            )
        blob, cols = encode_postings_many(ids, tfs, dls, run_starts, avgdl)
        pblob, pnb = (encode_positions(tfs, positions, cols.block_count)
                      if self.with_positions else (None, None))
        self._batches.append((pa.array(terms, type=pa.string()),
                              np.asarray(salts, dtype=np.int32), blob, cols,
                              pblob, pnb))

    def add(self, term: str, salt: int, doc_ids: np.ndarray, tfs: np.ndarray,
            dls: np.ndarray, avgdl: float,
            positions: np.ndarray | None = None) -> None:
        """One (term, salt) posting list: ``add_many`` with a single list."""
        self.add_many([term], [salt], doc_ids, tfs, dls, [0], avgdl,
                      positions=positions)

    def add_postings(self, vocab: pa.Array, rank: np.ndarray,
                     salt: np.ndarray, ids: np.ndarray, tfs: np.ndarray,
                     doclens: np.ndarray, avgdl: float,
                     positions: np.ndarray | None = None) -> None:
        """Add postings in any order (posting ``i``: term
        ``vocab[rank[i]]`` of the lex-sorted ``vocab``, see ``lex_rank``).
        One lexsort on (rank, salt, doc id) forms the (term, salt) lists;
        duplicate (term, salt, doc id) postings collapse to their first copy
        in input order and must agree on tf, else ValueError naming the
        term.  ``doclens`` maps doc ids to lengths; ``positions`` are flat
        per posting in INPUT order."""
        order = np.lexsort((ids, salt, rank))
        r, s, d = rank[order], salt[order], ids[order]
        new_list = np.ones(len(order), dtype=bool)
        np.logical_or(r[1:] != r[:-1], s[1:] != s[:-1], out=new_list[1:])
        dup = np.zeros(len(order), dtype=bool)
        np.logical_and(~new_list[1:], d[1:] == d[:-1], out=dup[1:])
        if dup.any():
            t = tfs[order]
            bad = np.flatnonzero(dup[1:] & (t[1:] != t[:-1]))
            if len(bad):
                term = vocab[int(r[bad[0] + 1])].as_py()
                raise ValueError(f"doc_id collision (conflicting tf) for "
                                 f"term {term!r}; widen doc ids")
            keep = ~dup
            order, new_list, r, s, d = (order[keep], new_list[keep], r[keep],
                                        s[keep], d[keep])
        starts = np.flatnonzero(new_list)
        if positions is not None:
            positions = take_slices(positions, tfs, order)
        self.add_many(vocab.take(pa.array(r[starts])), s[starts], d,
                      tfs[order], np.asarray(doclens)[d], starts, avgdl,
                      positions=positions)

    def set_lineage(self, **kv) -> None:
        self._lineage.update(kv)

    def write(self, out_dir: str) -> dict:
        """Atomic write; returns the manifest dict."""
        if not self._batches:  # an empty segment: zero lists, typed columns
            e = np.zeros(0, dtype=np.int64)
            self.add_many([], [], e, e, e, e, 1.0,
                          positions=e if self.with_positions else None)
        terms, salts, blobs, cols, pblobs, pnbs = zip(*self._batches)
        col = {k: np.concatenate([getattr(c, k) for c in cols])
               for k in ("df", "cf", "nbytes") + _BLOCK_COLS}
        # list columns: list r's blocks, numbered across all batches
        list_offs = _offsets(np.concatenate(
            [np.diff(c.block_offsets) for c in cols]))
        lo = pa.array(list_offs.astype(np.int32))
        table = {"term": pa.concat_arrays(terms),
                 "salt": np.concatenate(salts),
                 "offset": _offsets(col["nbytes"])[:-1]}
        for k in ("df", "cf", "nbytes"):
            table[k] = col[k]
        for k in _BLOCK_COLS:
            table[k] = pa.ListArray.from_arrays(lo, pa.array(col[k]))
        blob = np.concatenate(blobs)
        files = {"postings.bin": blob}
        if self.with_positions:
            files["positions.bin"] = pos_blob = np.concatenate(pblobs)
            bpn = np.concatenate(pnbs)
            table["pos_nbytes"] = np.diff(_offsets(bpn)[list_offs])
            table["pos_offset"] = _offsets(table["pos_nbytes"])[:-1]
            table["block_pos_nbytes"] = pa.ListArray.from_arrays(
                lo, pa.array(bpn))
        tmp = out_dir + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as f:
                f.write(data.tobytes())
        pq.write_table(pa.table(table, schema=POS_DICT_SCHEMA
                                if self.with_positions else DICT_SCHEMA),
                       os.path.join(tmp, "dict.parquet"))
        manifest = {
            "format_version": FORMAT_VERSION,
            "segment_id": self.segment_id,
            "shard": self.shard,
            "n_terms": len(col["df"]),
            "n_postings": int(col["df"].sum()),
            "sum_tf": int(col["cf"].sum()),
            "postings_sha256": hashlib.sha256(blob.tobytes()).hexdigest(),
            "postings_nbytes": int(blob.nbytes),  # validate_segment quick mode
            "lineage": self._lineage,
        }
        if self.with_positions:
            manifest["positions"] = True
            manifest["positions_sha256"] = hashlib.sha256(
                pos_blob.tobytes()).hexdigest()
            manifest["positions_nbytes"] = int(pos_blob.nbytes)
        with open(os.path.join(tmp, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)
        os.replace(tmp, out_dir)
        return manifest


def validate_segment(seg_dir: str, quick: bool = False) -> dict | None:
    """Return the manifest if the segment is complete and checksum-valid.

    ``quick=True`` checks recorded byte SIZES instead of re-hashing the
    blobs — O(#files) stat calls instead of O(index bytes) of I/O, which is
    what the warm fast-resume path (build_index re-entry per serving call)
    needs; size mismatch catches the realistic failure (truncated/partial
    write).  Resume-after-corruption paths keep the full sha.  Segments
    written before the size fields existed fall back to the full check."""
    mpath = os.path.join(seg_dir, "manifest.json")
    bpath = os.path.join(seg_dir, "postings.bin")
    dpath = os.path.join(seg_dir, "dict.parquet")
    if not (os.path.exists(mpath) and os.path.exists(bpath) and os.path.exists(dpath)):
        return None
    try:
        with open(mpath) as f:
            manifest = json.load(f)
        if manifest.get("format_version") != FORMAT_VERSION:
            return None  # stale format (e.g. pre-ordinal postings): rebuild
        if quick and "postings_nbytes" in manifest:
            if os.path.getsize(bpath) != manifest["postings_nbytes"]:
                return None
            if manifest.get("positions"):
                ppath = os.path.join(seg_dir, "positions.bin")
                if (not os.path.exists(ppath) or os.path.getsize(ppath)
                        != manifest.get("positions_nbytes")):
                    return None
            return manifest
        with open(bpath, "rb") as f:
            sha = hashlib.sha256(f.read()).hexdigest()
        if sha != manifest.get("postings_sha256"):
            return None
        if manifest.get("positions"):
            ppath = os.path.join(seg_dir, "positions.bin")
            if not os.path.exists(ppath):
                return None
            with open(ppath, "rb") as f:
                psha = hashlib.sha256(f.read()).hexdigest()
            if psha != manifest.get("positions_sha256"):
                return None
        return manifest
    except (json.JSONDecodeError, OSError):
        return None


class SegmentReader:
    """Read-side handle: dictionary rows + memory-mapped postings blob.

    Query actors hold one per segment (reference analogue: the loaded Milvus
    index after ``collection.load()``, ingest.py:172 / ST3).  On shared
    storage at scale the mmap becomes ranged reads of the blob object.

    Dictionary reads never build a per-row Python object.  Term lookups
    (``term_rows``, ``prefix_rows``, ``seek_row``) share one bisect over the
    term column's raw UTF-8 data buffer through its int32 offsets: UTF-8
    byte order equals ``str`` code-point order and a ``str`` prefix is
    exactly a bytes prefix, so the (term, salt) order the build writes is
    searched as bytes.  ``salt``/``df``/``cf``/``nbytes`` are read-only
    numpy views of their columns, and ``meta_at`` slices the four
    ``block_*`` list columns' (offsets, values) arrays.  Every view is
    built on first use and is zero-copy when the dictionary is one parquet
    row group, so open stays O(1) in Python objects.
    """

    def __init__(self, seg_dir: str):
        self.dir = seg_dir
        with open(os.path.join(seg_dir, "manifest.json")) as f:
            _man = json.load(f)
        fv = _man.get("format_version")
        self.has_positions = bool(_man.get("positions"))
        if fv != FORMAT_VERSION:
            # a pre-v3 segment would misdecode silently (postings carried
            # doc_len then); cheap manifest check instead of a silent wrong read
            raise ValueError(
                f"segment {seg_dir} has format_version={fv}, "
                f"reader requires {FORMAT_VERSION}; rebuild required"
            )
        self.dict = pq.read_table(os.path.join(seg_dir, "dict.parquet"))
        self.blob = np.memmap(os.path.join(seg_dir, "postings.bin"), dtype=np.uint8,
                              mode="r") if os.path.getsize(
            os.path.join(seg_dir, "postings.bin")) else np.empty(0, dtype=np.uint8)
        # NOTE: no eager term->rows dict — the dictionary is written sorted
        # by (term, salt), so lookups are a lazy binary search (term_rows).
        # Reader startup stays O(1) in vocabulary size: at 10^12-doc
        # dictionaries an actor opens a segment without materializing a
        # Python object per term.
        self._terms = self.dict["term"].combine_chunks()
        self._meta_cache: dict[int, PostingMeta] = {}
        self._offsets = self.dict["offset"].to_numpy(zero_copy_only=False)
        self.pos_blob = None
        if self.has_positions:
            ppath = os.path.join(seg_dir, "positions.bin")
            self.pos_blob = (
                np.memmap(ppath, dtype=np.uint8, mode="r")
                if os.path.getsize(ppath) else np.empty(0, dtype=np.uint8))
            self._pos_offsets = self.dict["pos_offset"].to_numpy(
                zero_copy_only=False)

    # -- column views (built on first use) --------------------------------
    @cached_property
    def _term_bytes(self) -> tuple[memoryview, bytes]:
        """(int32 offsets, UTF-8 data) of the term column: row ``i`` is
        ``data[offs[i]:offs[i + 1]]``."""
        arr = self._terms
        _, offs, data = arr.buffers()
        lo = 4 * arr.offset
        return (memoryview(offs)[lo : lo + 4 * (len(arr) + 1)].cast("i"),
                bytes(data))

    @cached_property
    def salt(self) -> np.ndarray:
        return _column_view(self.dict["salt"])

    @cached_property
    def df(self) -> np.ndarray:
        return _column_view(self.dict["df"])

    @cached_property
    def cf(self) -> np.ndarray:
        return _column_view(self.dict["cf"])

    @cached_property
    def nbytes(self) -> np.ndarray:
        return _column_view(self.dict["nbytes"])

    @cached_property
    def _blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(offsets, values) of block_count / block_nbytes /
        block_last_docid / block_max_tfsat."""
        return tuple(_list_view(self.dict[c]) for c in (
            "block_count", "block_nbytes", "block_last_docid",
            "block_max_tfsat"))

    # -- dictionary lookups -----------------------------------------------
    def _bisect(self, key: bytes, lo: int, hi: int, head: bool = False) -> int:
        """Leftmost row in [lo, hi) whose term sorts at or after ``key``
        (``head=True``: whose ``len(key)``-byte head sorts after ``key``).
        Compares raw UTF-8 bytes, which order exactly like ``str``."""
        offs, data = self._term_bytes
        p = len(key)
        while lo < hi:
            mid = (lo + hi) // 2
            a = offs[mid]
            b = offs[mid + 1]
            if head:
                below = data[a : min(b, a + p)] <= key
            else:
                below = data[a:b] < key
            if below:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def term_at(self, i: int) -> str:
        """Row ``i``'s term, decoded from the raw buffer."""
        offs, data = self._term_bytes
        return data[offs[i] : offs[i + 1]].decode()

    def term_rows(self, term: str) -> range:
        """Dict-row range for ``term`` (one row per salt): a leftmost bisect,
        then an equality scan over the term's few salted rows."""
        key = _utf8(term)
        offs, data = self._term_bytes
        n = len(self._terms)
        left = stop = self._bisect(key, 0, n)
        while stop < n and data[offs[stop] : offs[stop + 1]] == key:
            stop += 1
        return range(left, stop)

    def prefix_rows(self, prefix: str) -> range:
        """Dict-row range of all terms STARTING WITH ``prefix`` (Lucene
        PrefixQuery's dictionary scan; reference analogue: Milvus has no
        prefix rewrite — this is native-index territory).  Terms are
        lex-sorted, so the matching rows are one contiguous run [leftmost
        term >= prefix, leftmost term whose ``prefix``-length head sorts
        after ``prefix``).  A row whose term t satisfies t >= prefix AND
        t[:len(prefix)] <= prefix has t[:len(prefix)] == prefix exactly."""
        key = _utf8(prefix)
        n = len(self._terms)
        left = self._bisect(key, 0, n)
        return range(left, self._bisect(key, left, n, head=True))

    def seek_row(self, key: str, lo: int = 0, hi: int | None = None) -> int:
        """Leftmost dict row in [lo, hi) whose term >= ``key`` — the
        dictionary-seek primitive the Levenshtein-automaton intersection
        leap-frogs with."""
        return self._bisect(_utf8(key), lo,
                            len(self._terms) if hi is None else hi)

    def meta_at(self, i: int) -> PostingMeta:
        cached = self._meta_cache.get(i)
        if cached is not None:
            return cached
        count, nbytes, last, tfsat = (v[o[i] : o[i + 1]]
                                      for o, v in self._blocks)
        meta = PostingMeta(
            df=int(self.df[i]), cf=int(self.cf[i]),
            nbytes=int(self.nbytes[i]), block_count=count,
            block_nbytes=nbytes, block_last_docid=last,
            block_max_tfsat=tfsat,
        )
        self._meta_cache[i] = meta
        return meta

    def postings_at(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        meta = self.meta_at(i)
        off = int(self._offsets[i])
        return decode_postings(self.blob[off : off + meta.nbytes], meta)

    @cached_property
    def _pos_nbytes(self) -> np.ndarray:
        return _column_view(self.dict["pos_nbytes"])

    @cached_property
    def _pos_block_nbytes(self) -> tuple[np.ndarray, np.ndarray]:
        return _list_view(self.dict["block_pos_nbytes"])

    def positions_range(self, i: int, tfs: np.ndarray,
                        b_lo: int, b_hi: int) -> np.ndarray:
        """Flat within-doc positions for posting blocks [b_lo, b_hi) of dict
        row ``i``; ``tfs`` are the tfs decoded from the SAME block range
        (they carry the per-posting counts)."""
        if not self.has_positions:
            raise ValueError(f"segment {self.dir} has no positional sidecar")
        o, v = self._pos_block_nbytes
        bnb = v[o[i] : o[i + 1]]
        off = int(self._pos_offsets[i])
        nbytes = int(self._pos_nbytes[i])
        return decode_positions_range(
            self.pos_blob[off : off + nbytes], bnb, tfs, b_lo, b_hi)

    def positions_at(self, i: int, tfs: np.ndarray) -> np.ndarray:
        """Whole-list flat positions for dict row ``i`` (counts = ``tfs``)."""
        meta = self.meta_at(i)
        return self.positions_range(i, tfs, 0, len(meta.block_count))

    def decode_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray | None]:
        """Every dictionary row's postings in one pass (merge, compaction)
        -> (row_starts, ids, tfs, positions): row ``i`` holds postings
        [row_starts[i], row_starts[i + 1]) of ``ids``/``tfs``; ``positions``
        (None without a sidecar) are flat per posting, counts = ``tfs``."""
        o, v = self._blocks[0]
        ids, tfs = decode_runs(self.blob, self.df, v[o[0] : o[-1]])
        positions = None
        if self.has_positions:
            o, v = self._pos_block_nbytes
            bpn = v[o[0] : o[-1]]
            positions = decode_positions_range(self.pos_blob, bpn, tfs, 0,
                                               len(bpn))
        return _offsets(self.df), ids, tfs, positions


def merge_segments(seg_dirs: list[str], out_dir: str, segment_id: str,
                   shard: int, avgdl: float, doclens: np.ndarray,
                   id_maps: "list | None" = None,
                   new_map: "np.ndarray | None" = None,
                   lineage: "dict | None" = None) -> dict:
    """Log-structured merge: union posting lists per (term, salt) by doc_id.

    Array work over whole segments: each input decodes in one pass
    (``SegmentReader.decode_all``), ids are remapped, and all postings go
    through one ``SegmentBuilder.add_postings`` (lexsort on term rank, salt
    and doc id; one encode with the supplied ``avgdl``).  Duplicate (term,
    salt, doc_id) entries collapse to the first input's copy (their tf must
    agree — same deterministic doc indexed twice), which makes the merge
    idempotent and safe to re-run after a partial failure.

    ``doclens`` maps OUTPUT-space doc ids/ordinals to doc lengths (block-max
    bounds need them; they are not stored in postings).

    ``id_maps`` / ``new_map`` (index-level merges): when inputs store
    generation-local doc ORDINALS, ``id_maps[i]`` translates input ``i``'s
    ordinals to real ids and ``new_map`` (sorted) assigns the merged
    ordinals.  ``lineage`` adds keys to the output segment's lineage
    record.
    """
    readers = [SegmentReader(d) for d in seg_dirs]
    with_pos = bool(readers) and all(r.has_positions for r in readers)
    if not with_pos and any(r.has_positions for r in readers):
        raise ValueError(
            "cannot merge positional and non-positional segments; "
            "rebuild the non-positional inputs with positions=True"
        )
    parts = [r.decode_all() for r in readers]
    ids = [p[1] for p in parts]
    if id_maps is not None:
        ids = [np.searchsorted(new_map, m[x]) for m, x in zip(id_maps, ids)]
    row_df = np.concatenate([r.df for r in readers] + [np.zeros(0, np.int64)])
    vocab, rank = lex_rank(pa.chunked_array(
        [r._terms for r in readers], type=pa.string()).combine_chunks())
    builder = SegmentBuilder(segment_id, shard, with_positions=with_pos)
    builder.set_lineage(merged_from=[os.path.basename(d) for d in seg_dirs],
                        **(lineage or {}))

    def cat(arrays, dtype):
        return np.concatenate(list(arrays) + [np.zeros(0, dtype=dtype)])

    builder.add_postings(
        vocab, np.repeat(rank, row_df),
        np.repeat(cat((r.salt for r in readers), np.int32), row_df),
        cat(ids, np.int64), cat((p[2] for p in parts), np.int32),
        doclens, avgdl,
        positions=cat((p[3] for p in parts), np.int64) if with_pos else None)
    return builder.write(out_dir)
