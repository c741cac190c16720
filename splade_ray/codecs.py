"""Posting-list codecs: delta-gap + varbyte, with block-max metadata.

Replaces the opaque Milvus ``SPARSE_INVERTED_INDEX`` posting storage
(reference ingest.py:159-166) with an explicit, compressed, skippable format:

  * varbyte (LEB128: little-endian 7-bit groups, MSB = continuation), encoded
    and decoded fully vectorized in numpy (no per-int Python loop);
  * postings sorted by doc_id, doc ids stored as one delta chain per list
    (gap of a block's first posting is taken from the previous block's last
    doc id, so a whole-list decode is one varbyte pass + one cumsum, while a
    skipped-to block can still be decoded alone from ``block_last_docid``);
  * per posting we store (gap, tf) only — doc lengths live in the index's
    forward doc-length array (ordinal-indexed, one int32 per doc; see
    docmap.py), so the hottest lists carry ~2 bytes per posting.  Doc
    lengths are still SUPPLIED at encode time for the block-max bounds, but
    are not stored in the blob;
  * per block of ``BLOCK`` postings: last doc id and an upper bound of the
    BM25 tf-saturation factor (k1+1)*tf / (tf + k1*(1-b+b*dl/avgdl)), rounded
    UP in float32 — the block-max WAND bound.

Block layout in the blob, per block: varbyte(gaps) ++ varbyte(tfs).  No
intra-block offsets are needed: varbyte is self-delimiting, so the two
streams are read back-to-back.

Writers work on COLUMNS: ``encode_postings_many`` encodes every (term, salt)
list of a segment at once (flat ids/tfs/doc lengths plus list starts) with
gaps and tfs placed block-interleaved by index arithmetic, ONE varbyte pass,
and block sizes, bounds and last ids from cumsums and ``reduceat``;
``encode_positions`` takes any number of lists the same way, and
``decode_runs`` inverts a whole segment blob.  ``encode_postings`` is the
one-list wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import B, K1

BLOCK = 128  # postings per block


# ---------------------------------------------------------------- varbyte ---

def _vb_encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Varbyte-encode -> (uint8 bytes, int64 byte count of each value)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    nb = np.ones(n, dtype=np.int64)
    if n == 0:
        return np.empty(0, dtype=np.uint8), nb
    for k in range(1, 10):  # 64 bits -> at most 10 groups of 7
        nb += v >= np.uint64(1) << np.uint64(7 * k)
    offs = np.zeros(n, dtype=np.int64)
    np.cumsum(nb[:-1], out=offs[1:])
    out = np.zeros(int(nb.sum()), dtype=np.uint8)
    for j in range(int(nb.max())):
        m = nb > j
        byte = (v[m] >> np.uint64(7 * j)).astype(np.uint64) & np.uint64(0x7F)
        cont = (nb[m] - 1 > j).astype(np.uint8) << 7
        out[offs[m] + j] = byte.astype(np.uint8) | cont
    return out, nb


def vb_encode(values: np.ndarray) -> np.ndarray:
    """Varbyte-encode a uint64 ndarray -> uint8 ndarray (vectorized)."""
    return _vb_encode(values)[0]


def vb_decode_all(buf: np.ndarray) -> np.ndarray:
    """Decode EVERY varbyte int in ``buf`` in one vectorized pass.

    Varbyte is self-delimiting, so a whole multi-stream region can be decoded
    at once and re-split by known counts — one numpy pass per posting list,
    block range or whole segment."""
    b = np.ascontiguousarray(buf)  # materialize mmap slice once
    ends = np.nonzero((b & 0x80) == 0)[0]
    n = len(ends)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    vals = np.zeros(n, dtype=np.uint64)
    for j in range(int(lengths.max())):
        m = lengths > j
        vals[m] |= (b[starts[m] + j].astype(np.uint64) & np.uint64(0x7F)) << np.uint64(7 * j)
    return vals


def _values(region: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` varbyte ints of ``region``.  Fast path: ``n`` bytes means
    every value is one byte (the overwhelmingly common case with dense
    ordinals) — the bytes ARE the values.  Otherwise one vectorized pass."""
    vals = np.ascontiguousarray(region)
    if len(vals) != n:
        vals = vb_decode_all(vals)
        if len(vals) != n:
            raise ValueError(f"corrupt region: {len(vals)} ints, expected {n}")
    return vals


def _chain_sums(deltas: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Undo delta chains that restart every ``counts[i]`` values (counts
    >= 1): one global cumsum minus the running total accumulated before
    each chain's start -> int64."""
    csum = np.cumsum(deltas, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    base = np.zeros(len(counts), dtype=np.uint64)
    if len(counts) > 1:
        base[1:] = csum[np.cumsum(counts[:-1]) - 1]
    return (csum - np.repeat(base, counts)).astype(np.int64)


def _interleave_index(block_count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value slots of block-interleaved (gaps ++ tfs) postings -> (gap slot,
    tf slot) per posting.  A block of ``c`` postings starting at posting
    ``s`` fills slots [2s, 2s + 2c): posting ``i`` has its gap at ``s + i``
    and its tf ``c`` slots later."""
    bc = np.asarray(block_count, dtype=np.int64)
    bstart = np.zeros(len(bc), dtype=np.int64)
    np.cumsum(bc[:-1], out=bstart[1:])
    gap = np.repeat(bstart, bc) + np.arange(int(bc.sum()), dtype=np.int64)
    return gap, gap + np.repeat(bc, bc)


# ----------------------------------------------------------- posting list ---

@dataclass
class PostingMeta:
    """Per-term metadata kept in the segment dictionary."""

    df: int
    cf: int  # collection frequency: sum of tf
    nbytes: int
    block_count: np.ndarray  # int32 per block
    block_nbytes: np.ndarray  # int32 per block
    block_last_docid: np.ndarray  # int64 per block
    block_max_tfsat: np.ndarray  # float32 per block (safe upper bound)


@dataclass
class PostingColumns:
    """``PostingMeta`` of many lists as columns: list ``r`` has ``df[r]``,
    ``cf[r]``, ``nbytes[r]`` and blocks
    ``block_*[block_offsets[r]:block_offsets[r + 1]]``."""

    df: np.ndarray  # int64 per list
    cf: np.ndarray  # int64 per list
    nbytes: np.ndarray  # int64 per list
    block_offsets: np.ndarray  # int64, one more than lists
    block_count: np.ndarray  # int32 per block
    block_nbytes: np.ndarray  # int32 per block
    block_last_docid: np.ndarray  # int64 per block
    block_max_tfsat: np.ndarray  # float32 per block


def tf_saturation(tf: np.ndarray, dl: np.ndarray, avgdl: float) -> np.ndarray:
    """BM25 per-posting factor (k1+1)*tf / (tf + k1*(1-b+b*dl/avgdl)), f64."""
    tf = tf.astype(np.float64)
    denom = tf + K1 * (1.0 - B + B * dl.astype(np.float64) / max(avgdl, 1e-9))
    return (K1 + 1.0) * tf / denom


def encode_postings_many(
    ids: np.ndarray, tfs: np.ndarray, dls: np.ndarray,
    run_starts: np.ndarray, avgdl: float,
) -> tuple[np.ndarray, PostingColumns]:
    """Encode consecutive posting lists in one pass -> (blob, columns).

    List ``r`` is postings [run_starts[r], run_starts[r + 1]) of the flat
    ``ids``/``tfs``/``dls`` (the last runs to the end), doc_id-sorted and
    unique within the list.  The blob is the lists' blobs back to back,
    byte-identical to encoding each alone.  ``dls`` (per-posting doc
    lengths) feed the block-max bounds but are NOT stored."""
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    tfs = np.asarray(tfs, dtype=np.int64)
    starts = np.asarray(run_starts, dtype=np.int64)
    n = len(ids)
    df = np.diff(np.append(starts, n))
    if (len(starts) and starts[0] != 0) or (n and not len(starts)) \
            or (df <= 0).any():
        raise ValueError("run_starts must start at 0 and rise strictly")
    first = np.zeros(n, dtype=bool)
    first[starts] = True
    if n > 1 and (~first[1:] & (ids[1:] <= ids[:-1])).any():
        raise ValueError("postings must be strictly doc_id-sorted")
    gaps = np.empty(n, dtype=np.uint64)
    if n:
        gaps[0] = ids[0]
        np.subtract(ids[1:], ids[:-1], out=gaps[1:])
        gaps[starts] = ids[starts]  # each list's chain starts absolute
    # blocks of BLOCK postings, the last of each list possibly short
    n_blocks = (df + BLOCK - 1) // BLOCK
    block_offsets = np.zeros(len(df) + 1, dtype=np.int64)
    np.cumsum(n_blocks, out=block_offsets[1:])
    run = np.repeat(np.arange(len(df)), n_blocks)
    bstart = starts[run] + BLOCK * (
        np.arange(block_offsets[-1], dtype=np.int64) - block_offsets[run])
    bend = np.minimum(bstart + BLOCK, (starts + df)[run])
    vals = np.empty(2 * n, dtype=np.uint64)
    gap_slot, tf_slot = _interleave_index(bend - bstart)
    vals[gap_slot] = gaps
    vals[tf_slot] = tfs
    blob, nb = _vb_encode(vals)
    # block b's values are slots [2*bstart, 2*bend): byte counts by cumsum
    nb_csum = np.zeros(2 * n + 1, dtype=np.int64)
    np.cumsum(nb, out=nb_csum[1:])
    # float32 round-up so the f32 bound is >= the f64 truth
    m64 = np.maximum.reduceat(tf_saturation(tfs, np.asarray(dls), avgdl),
                              bstart)
    block_max = m64.astype(np.float32)
    low = block_max.astype(np.float64) < m64
    block_max[low] = np.nextafter(block_max[low], np.float32(np.inf))
    return blob, PostingColumns(
        df=df,
        cf=np.add.reduceat(tfs, starts),
        nbytes=nb_csum[2 * (starts + df)] - nb_csum[2 * starts],
        block_offsets=block_offsets,
        block_count=(bend - bstart).astype(np.int32),
        block_nbytes=(nb_csum[2 * bend] - nb_csum[2 * bstart]).astype(np.int32),
        block_last_docid=ids[bend - 1].astype(np.int64),
        block_max_tfsat=block_max,
    )


def encode_postings(
    doc_ids: np.ndarray, tfs: np.ndarray, dls: np.ndarray, avgdl: float
) -> tuple[np.ndarray, PostingMeta]:
    """Encode one term's postings (doc_id-sorted, unique) into a blob + meta:
    ``encode_postings_many`` with a single list."""
    if not len(doc_ids):
        raise ValueError("empty posting list")
    blob, c = encode_postings_many(doc_ids, tfs, dls, [0], avgdl)
    return blob, PostingMeta(
        df=int(c.df[0]), cf=int(c.cf[0]), nbytes=len(blob),
        block_count=c.block_count, block_nbytes=c.block_nbytes,
        block_last_docid=c.block_last_docid,
        block_max_tfsat=c.block_max_tfsat)


def decode_runs(blob: np.ndarray, run_df: np.ndarray,
                block_count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode consecutive posting lists (a whole segment's postings.bin) in
    one pass -> (doc_ids int64, tfs int32), list after list.  ``run_df`` is
    each list's df and ``block_count`` every list's blocks, flat."""
    run_df = np.asarray(run_df, dtype=np.int64)
    n = int(run_df.sum())
    gap_slot, tf_slot = _interleave_index(block_count)
    if len(gap_slot) != n:
        raise ValueError(
            f"block counts cover {len(gap_slot)} postings, lists hold {n}")
    vals = _values(blob, 2 * n)
    return _chain_sums(vals[gap_slot], run_df), vals[tf_slot].astype(np.int32)


def decode_postings(blob: np.ndarray, meta: PostingMeta) -> tuple[np.ndarray, np.ndarray]:
    """Full-list decode -> (doc_ids int64, tfs int32)."""
    return decode_block_range(blob, meta, 0, len(meta.block_count))


def decode_postings_many(
    parts: list[tuple[np.ndarray, "PostingMeta"]],
) -> tuple[np.ndarray, np.ndarray]:
    """Decode several posting regions (e.g. one term's salted sub-lists across
    segments), returning the concatenation in part order: the regions back
    to back are consecutive lists, decoded in one pass."""
    if len(parts) == 1:
        return decode_postings(parts[0][0], parts[0][1])
    if not parts:  # a term no segment holds
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
    gaps, tfs = _split_blocks(
        np.concatenate([b[: m.nbytes] for b, m in parts]),
        np.concatenate([m.block_count for _, m in parts]))
    return _chain_sums(gaps, [m.df for _, m in parts]), tfs.astype(np.int32)


# ----------------------------------------------------------- positions ---
#
# Positional sidecar (opt-in, build_index(positions=True)): per posting, the
# WITHIN-DOC token positions of the term (0-based index into the analyzed
# token stream — the exact numbering pipelines._token_phrase_flags and the
# NEAR window kernel use), delta-encoded ([pos0, pos1-pos0, ...], varbyte)
# and stored in per-BLOCK regions aligned 1:1 with the posting blocks, so a
# range-restricted decode (block-max skipping, sharded engines) can decode
# positions for exactly the posting blocks it decodes.  Counts per posting
# are NOT stored — they are the tfs the posting decode already yields.
# Reference analogue: Milvus has no positional store at all (phrase queries
# are impossible there); Lucene's .prx file plays this role.

def encode_positions(
    tfs: np.ndarray, flat_pos: np.ndarray, block_count: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Encode per-posting position lists -> (blob, block_pos_nbytes).

    ``flat_pos``: positions of all postings concatenated in posting order,
    strictly ascending within each posting; ``tfs`` gives the per-posting
    counts; ``block_count`` is the posting-block layout (PostingMeta) the
    regions must align with.  Every posting's chain starts absolute, so one
    call encodes one list or a whole segment's lists (their
    ``block_count``s flat) alike: the blob is the lists' blobs back to
    back."""
    tfs = np.asarray(tfs, dtype=np.int64)
    total = int(tfs.sum())
    if total != len(flat_pos):
        raise ValueError(f"positions/tf mismatch: {len(flat_pos)} vs {total}")
    pos = np.ascontiguousarray(flat_pos, dtype=np.uint64)
    # per-posting delta chains in one vectorized pass: subtract the previous
    # position everywhere, then overwrite each posting's first slot with its
    # absolute position
    deltas = np.empty(total, dtype=np.uint64)
    if total:
        deltas[0] = pos[0]
        np.subtract(pos[1:], pos[:-1], out=deltas[1:])
        starts = np.zeros(len(tfs), dtype=np.int64)
        np.cumsum(tfs[:-1], out=starts[1:])
        deltas[starts] = pos[starts]
    # ONE global varbyte pass; per-block region sizes are the per-value
    # byte counts segment-summed per block — no per-block encode calls
    blob, nb = _vb_encode(deltas)
    # block i's region covers the positions of its postings: cumulative
    # position count at each block end -> cumulative byte count -> diff
    bc = np.asarray(block_count, dtype=np.int64)
    post_ends = np.cumsum(bc)  # posting index one past each block
    tf_csum = np.concatenate([[0], np.cumsum(tfs)])
    nb_csum = np.concatenate([[0], np.cumsum(nb)])
    block_pos_nbytes = np.diff(
        np.concatenate([[0], nb_csum[tf_csum[post_ends]]])
    ).astype(np.int32)
    if int(block_pos_nbytes.sum()) != len(blob):
        # not an assert: this invariant guards the on-disk sidecar layout
        # and must hold under python -O too
        raise ValueError(
            f"position region sizes ({int(block_pos_nbytes.sum())}) disagree "
            f"with encoded blob ({len(blob)} bytes)"
        )
    return blob, block_pos_nbytes


def decode_positions_range(
    blob: np.ndarray, block_pos_nbytes: np.ndarray, tfs: np.ndarray,
    b_lo: int, b_hi: int,
) -> np.ndarray:
    """Decode position lists for posting blocks [b_lo, b_hi) -> flat int64
    positions (per-posting counts = ``tfs``, the tfs decoded from the SAME
    block range).  Each block's region is self-contained (first delta of a
    posting is absolute), so any contiguous range decodes alone — including
    every block of a whole segment's sidecar."""
    tfs = np.asarray(tfs, dtype=np.int64)
    total = int(tfs.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    off = int(block_pos_nbytes[:b_lo].sum())
    nbytes = int(block_pos_nbytes[b_lo:b_hi].sum())
    deltas = _values(blob[off : off + nbytes], total)
    return _chain_sums(deltas, tfs)


def take_slices(flat: np.ndarray, counts: np.ndarray,
                sel: np.ndarray) -> np.ndarray:
    """Gather variable-length slices: ``flat`` holds len(counts) concatenated
    slices (slice i has ``counts[i]`` elements); return the concatenation of
    the slices indexed by ``sel``, in ``sel`` order — fully vectorized (the
    reorder/filter primitive for per-posting position lists)."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.zeros(len(counts), dtype=np.int64)
    if len(counts) > 1:
        np.cumsum(counts[:-1], out=starts[1:])
    lens = counts[sel]
    total = int(lens.sum())
    if total == 0:
        return flat[:0]
    out_starts = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=out_starts[1:])
    idx = (np.repeat(starts[sel], lens)
           + np.arange(total, dtype=np.int64)
           - np.repeat(out_starts, lens))
    return flat[idx]


def _split_blocks(region: np.ndarray,
                  counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gaps, tfs) as uint64 of back-to-back blocks of ``counts`` postings,
    each block varbyte(gaps) ++ varbyte(tfs), split by slices — they beat
    an index gather for the few blocks of one query term's lists."""
    total = int(counts.sum())
    vals = _values(region, 2 * total)
    gaps = np.empty(total, dtype=np.uint64)
    tfs = np.empty(total, dtype=np.uint64)
    p = 0
    for n in counts:
        n = int(n)
        gaps[p : p + n] = vals[2 * p : 2 * p + n]
        tfs[p : p + n] = vals[2 * p + n : 2 * p + 2 * n]
        p += n
    return gaps, tfs


def decode_block_range(
    blob: np.ndarray, meta: PostingMeta, b_lo: int, b_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode the contiguous blocks [b_lo, b_hi) in one pass -> (ids, tfs).

    The delta chain makes any contiguous range self-contained given the
    previous block's last doc id (``block_last_docid[b_lo-1]``) — this is
    the decode-on-demand primitive behind the block-max scorer: only blocks
    whose upper bound survives pruning ever get decoded."""
    if b_hi <= b_lo:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
    bn = meta.block_nbytes
    off = int(bn[:b_lo].sum()) if b_lo else 0
    gaps, tfs = _split_blocks(blob[off : off + int(bn[b_lo:b_hi].sum())],
                              meta.block_count[b_lo:b_hi])
    base = np.uint64(meta.block_last_docid[b_lo - 1]) if b_lo > 0 else np.uint64(0)
    doc_ids = (base + np.cumsum(gaps, dtype=np.uint64)).astype(np.int64)
    return doc_ids, tfs.astype(np.int32)
