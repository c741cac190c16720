"""Index segments: on-disk format, lineage manifests, log-structured merge.

A *segment* is the resumable unit of the build (north_rule: "resumable from
checkpoint with per-partition lineage"), replacing the Milvus-internal index
files behind ``create_index`` (reference ingest.py:159-172) with an explicit
layout:

    seg-XXXXX/
      dict.parquet   term, salt, df, cf, offset, nbytes, block_count,
                     block_nbytes, block_last_docid, block_max_tfsat
      postings.bin   concatenated per-(term,salt) varbyte blobs (codecs.py)
      manifest.json  segment_id, shard, n_terms, n_postings, sum_tf,
                     postings_sha256, input lineage, format_version

Writes are atomic (tmp dir + os.replace, manifest written last) so a killed
build never leaves a half-segment that passes validation; a rerun skips every
shard whose manifest validates (build.py).  ``merge_segments`` is the
log-structured merge: k segments -> one, posting lists of the same
(term, salt) unioned by doc_id with duplicate (doc_id) entries collapsed
(equal tf asserted), which makes merge idempotent: merge(a, a) == a.

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
import pyarrow.parquet as pq

from .codecs import (PostingMeta, decode_positions_range, decode_postings,
                     encode_positions, encode_postings)

# v3: ordinal postings, doc_len in the forward doclens.bin array
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


class SegmentBuilder:
    """Accumulates encoded posting lists, then writes one segment atomically."""

    def __init__(self, segment_id: str, shard: int,
                 with_positions: bool = False):
        self.segment_id = segment_id
        self.shard = shard
        self.with_positions = with_positions
        self._terms: list[str] = []
        self._salts: list[int] = []
        self._metas: list[PostingMeta] = []
        self._blobs: list[np.ndarray] = []
        self._pos_blobs: list[np.ndarray] = []
        self._pos_block_nbytes: list[np.ndarray] = []
        self._lineage: dict = {}

    def add(self, term: str, salt: int, doc_ids: np.ndarray, tfs: np.ndarray,
            dls: np.ndarray, avgdl: float,
            positions: np.ndarray | None = None) -> None:
        """``positions`` (required iff the builder was created
        ``with_positions``): within-doc token positions of every posting,
        flattened in posting order (per-posting counts = ``tfs``)."""
        if (positions is None) == self.with_positions:
            raise ValueError(
                "positions must be passed iff SegmentBuilder(with_positions=True)"
            )
        blob, meta = encode_postings(doc_ids, tfs, dls, avgdl)
        self._terms.append(term)
        self._salts.append(salt)
        self._metas.append(meta)
        self._blobs.append(blob)
        if self.with_positions:
            pblob, pnb = encode_positions(tfs, positions, meta.block_count)
            self._pos_blobs.append(pblob)
            self._pos_block_nbytes.append(pnb)

    def set_lineage(self, **kv) -> None:
        self._lineage.update(kv)

    def write(self, out_dir: str) -> dict:
        """Atomic write; returns the manifest dict."""
        tmp = out_dir + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        blob = (
            np.concatenate(self._blobs) if self._blobs else np.empty(0, dtype=np.uint8)
        )
        offsets = np.zeros(len(self._blobs), dtype=np.int64)
        if len(self._blobs) > 1:
            np.cumsum([len(b) for b in self._blobs[:-1]], out=offsets[1:])
        with open(os.path.join(tmp, "postings.bin"), "wb") as f:
            f.write(blob.tobytes())
        table = pa.table(
            {
                "term": pa.array(self._terms, type=pa.string()),
                "salt": pa.array(self._salts, type=pa.int32()),
                "df": pa.array([m.df for m in self._metas], type=pa.int64()),
                "cf": pa.array([m.cf for m in self._metas], type=pa.int64()),
                "offset": pa.array(offsets),
                "nbytes": pa.array([m.nbytes for m in self._metas], type=pa.int64()),
                "block_count": pa.array([m.block_count for m in self._metas],
                                        type=pa.list_(pa.int32())),
                "block_nbytes": pa.array([m.block_nbytes for m in self._metas],
                                         type=pa.list_(pa.int32())),
                "block_last_docid": pa.array([m.block_last_docid for m in self._metas],
                                             type=pa.list_(pa.int64())),
                "block_max_tfsat": pa.array([m.block_max_tfsat for m in self._metas],
                                            type=pa.list_(pa.float32())),
            }
        )
        if self.with_positions:
            pos_blob = (np.concatenate(self._pos_blobs) if self._pos_blobs
                        else np.empty(0, dtype=np.uint8))
            pos_offsets = np.zeros(len(self._pos_blobs), dtype=np.int64)
            if len(self._pos_blobs) > 1:
                np.cumsum([len(b) for b in self._pos_blobs[:-1]],
                          out=pos_offsets[1:])
            with open(os.path.join(tmp, "positions.bin"), "wb") as f:
                f.write(pos_blob.tobytes())
            table = table.append_column(
                "pos_offset", pa.array(pos_offsets))
            table = table.append_column(
                "pos_nbytes",
                pa.array([len(b) for b in self._pos_blobs], type=pa.int64()))
            table = table.append_column(
                "block_pos_nbytes",
                pa.array([x.tolist() for x in self._pos_block_nbytes],
                         type=pa.list_(pa.int32())))
        pq.write_table(table, os.path.join(tmp, "dict.parquet"))
        manifest = {
            "format_version": FORMAT_VERSION,
            "segment_id": self.segment_id,
            "shard": self.shard,
            "n_terms": len(self._terms),
            "n_postings": int(sum(m.df for m in self._metas)),
            "sum_tf": int(sum(m.cf for m in self._metas)),
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


def merge_segments(seg_dirs: list[str], out_dir: str, segment_id: str,
                   shard: int, avgdl: float, doclens: np.ndarray,
                   id_maps: "list | None" = None,
                   new_map: "np.ndarray | None" = None,
                   lineage: "dict | None" = None) -> dict:
    """Log-structured merge: union posting lists per (term, salt) by doc_id.

    Duplicate (term, salt, doc_id) entries across inputs collapse to one
    (their tf must agree — same deterministic doc indexed twice), which makes
    the merge idempotent and safe to re-run after a partial failure.
    Output lists are re-encoded (delta chains and block-max recomputed with
    the supplied ``avgdl``).

    ``doclens`` maps OUTPUT-space doc ids/ordinals to doc lengths (block-max
    bounds need them; they are not stored in postings).

    ``id_maps`` / ``new_map`` (index-level merges): when inputs store
    generation-local doc ORDINALS, ``id_maps[i]`` translates input ``i``'s
    ordinals to real ids and ``new_map`` (sorted) assigns the merged
    ordinals.  Both maps are monotone, so per-list doc order is preserved
    without re-sorting.  ``lineage`` adds keys to the output segment's
    lineage record.
    """
    readers = [SegmentReader(d) for d in seg_dirs]
    with_pos = bool(readers) and all(r.has_positions for r in readers)
    if not with_pos and any(r.has_positions for r in readers):
        raise ValueError(
            "cannot merge positional and non-positional segments; "
            "rebuild the non-positional inputs with positions=True"
        )
    # (term, salt) -> [(reader, row)], readers in input order
    rows: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for ri, r in enumerate(readers):
        keys = zip(r.dict["term"].to_pylist(), r.salt.tolist())
        for i, key in enumerate(keys):
            rows.setdefault(key, []).append((ri, i))
    builder = SegmentBuilder(segment_id, shard, with_positions=with_pos)
    builder.set_lineage(merged_from=[os.path.basename(d) for d in seg_dirs],
                        **(lineage or {}))
    for term, salt in sorted(rows):
        parts = []
        for ri, i in rows[(term, salt)]:
            r = readers[ri]
            ids, tfs_p = r.postings_at(i)
            pos_p = r.positions_at(i, tfs_p) if with_pos else None
            if id_maps is not None:
                ids = np.searchsorted(new_map, id_maps[ri][ids])
            parts.append((ids, tfs_p, pos_p))
        ids = np.concatenate([p[0] for p in parts])
        tfs = np.concatenate([p[1] for p in parts])
        order = np.argsort(ids, kind="stable")
        ids_o, tfs_o = ids[order], tfs[order]
        keep = np.ones(len(ids_o), dtype=bool)
        if len(ids_o) > 1:
            dup = ids_o[1:] == ids_o[:-1]
            if dup.any() and (tfs_o[1:][dup] != tfs_o[:-1][dup]).any():
                raise ValueError(
                    f"doc_id collision with conflicting tf for term {term!r}"
                )
            keep[1:] = ~dup
        kept_ids = ids_o[keep]
        positions = None
        if with_pos:
            # reorder + dedup the variable-length position slices alongside
            # their postings (vectorized slice gather; duplicate postings are
            # the same deterministic doc, so the first copy's positions win)
            from .codecs import take_slices

            flat_pos = np.concatenate([p[2] for p in parts])
            positions = take_slices(flat_pos, tfs, order[keep])
        builder.add(term, salt, kept_ids, tfs_o[keep],
                    np.asarray(doclens)[kept_ids], avgdl,
                    positions=positions)
    return builder.write(out_dir)
