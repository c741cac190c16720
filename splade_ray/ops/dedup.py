"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

The reference has NO dedup — re-running its ingest duplicates every chunk
under a fresh uuid4 (reference ingest.py:139, SURVEY.md §2.4 A8).  These
operators are the training-data-pipeline complement, Ray-Data-first:

  * exact        content-hash groupby -> keep min doc_id per group
  * minhash-lsh  shingle -> K sha-derived minhashes -> band buckets ->
                 groupby(band) -> candidate pairs
  * simhash      63-bit sign-of-weighted-sum fingerprint per doc
  * jaccard      exact n-gram Jaccard via shingle explode + self-join

All hash functions are sha256-derived 63-bit ints — slower than xxhash but
bit-reproducible in DuckDB (``sha256``), which is what makes the oracle
checks exact.  A production deployment swaps ``_h63`` for a vectorized
64-bit mixer; every other line stays the same.

Scale notes: minhash signatures are computed batch-local (map_batches); the
only shuffle is the tiny groupby over (band, band_key).  Exact Jaccard
verification joins candidate pairs back to shingle sets — at 100 TB that
join runs per LSH bucket (candidates are rare); here it is a Dataset join.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analyzer import tokens_py

N_PERM = 8  # minhash permutations
N_BANDS = 4  # LSH bands (rows per band = N_PERM // N_BANDS = 2)
SHINGLE_K = 3  # token shingle width
MASK63 = (1 << 63) - 1


def _h63(s: str) -> int:
    return int.from_bytes(hashlib.sha256(s.encode()).digest()[:8], "big") & MASK63


def shingles(text: str) -> list[str]:
    """Token 3-gram shingles (space-joined), deduplicated."""
    toks = tokens_py(text)
    if len(toks) < SHINGLE_K:
        return [" ".join(toks)] if toks else []
    return sorted({" ".join(toks[i : i + SHINGLE_K]) for i in range(len(toks) - SHINGLE_K + 1)})


def _shingle_pairs(t: pa.Table, text_col: str):
    """Vectorized distinct (row, shingle) pairs for a batch.

    Arrow tokenization (identical stream to tokens_py) + element-wise join of
    3 shifted views of the flat token array; rows with 0 < n < SHINGLE_K
    tokens collapse to one all-token shingle (matching ``shingles()``).
    Returns (pair_parents, pair_codes, vocab: pa.StringArray, n_rows) with
    pair_parents ascending."""
    from ..analyzer import tokenize_flat

    texts = t[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_rows = len(texts)
    flat, parents = tokenize_flat(texts)
    empty = (np.array([], dtype=np.int64), np.array([], dtype=np.int64),
             pa.array([], type=pa.string()), n_rows)
    if len(flat) == 0:
        return empty
    n_tok = np.bincount(parents, minlength=n_rows)
    parts = []
    par_parts = []
    if len(flat) >= SHINGLE_K:
        m = len(flat) - SHINGLE_K + 1
        joined = pc.binary_join_element_wise(
            *[flat.slice(i, m) for i in range(SHINGLE_K)], " "
        )
        valid = parents[: m] == parents[SHINGLE_K - 1 :]
        parts.append(joined.filter(pa.array(valid)))
        par_parts.append(parents[:m][valid])
    short_rows = np.flatnonzero((n_tok > 0) & (n_tok < SHINGLE_K))
    if len(short_rows):
        offsets = np.searchsorted(parents, short_rows)
        shorts = [
            " ".join(flat.slice(int(offsets[i]),
                                int(n_tok[short_rows[i]])).to_pylist())
            for i in range(len(short_rows))
        ]
        parts.append(pa.array(shorts, type=pa.string()))
        par_parts.append(short_rows.astype(np.int64))
    sh = pa.concat_arrays([p.combine_chunks() if isinstance(p, pa.ChunkedArray)
                           else p for p in parts])
    par = np.concatenate(par_parts).astype(np.int64)
    enc = pc.dictionary_encode(sh)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = enc.dictionary
    keys = par * (len(vocab) + 1) + codes
    uniq = np.unique(keys)  # sorted => pair parents ascending
    pair_parents = (uniq // (len(vocab) + 1)).astype(np.int64)
    pair_codes = (uniq % (len(vocab) + 1)).astype(np.int64)
    return pair_parents, pair_codes, vocab, n_rows


# ------------------------------------------------------------------ exact --

def exact_dedup_batch(t: pa.Table, text_col: str = "text",
                      id_col: str = "doc_id",
                      hash_mode: str = "sha") -> pa.Table:
    """Batch-local partial: (content_sha256, min doc_id, count) per batch.

    ``hash_mode="sha"``: per-row sha256 hex (DuckDB-reproducible; the oracle
    contract runs this).  ``"mixer"``: one vectorized 64-bit string hash over
    the whole column (polars/xxhash-family, zero-copy from Arrow) — the
    production path; hex only renders per DISTINCT content.  Same output
    schema, non-SQL hash values; collisions are 2^-64-rare and a paranoid
    deployment re-verifies keep-groups bytewise (bench.py measures the
    speedup)."""
    ids = t[id_col].to_numpy(zero_copy_only=False)
    texts_col = t[text_col]
    if isinstance(texts_col, pa.ChunkedArray):
        texts_col = texts_col.combine_chunks()
    texts_col = pc.fill_null(texts_col, "")
    if hash_mode == "mixer":
        try:
            import polars as pl

            h = pl.from_arrow(texts_col).hash(seed=1315423911).to_numpy()
        except ImportError:  # pragma: no cover — polars is in the container
            h = np.fromiter((_h63(x) for x in texts_col.to_pylist()),
                            dtype=np.uint64, count=len(texts_col))
        uniq, codes = np.unique(h, return_inverse=True)
        dictionary = pa.array([f"{v:016x}" for v in uniq], type=pa.string())
        n = len(uniq)
    else:
        shas = [hashlib.sha256(x.encode()).hexdigest()
                for x in texts_col.to_pylist()]
        enc = pc.dictionary_encode(pa.array(shas))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        dictionary = enc.dictionary
        n = len(dictionary)
    keep = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(keep, codes, ids)
    counts = np.bincount(codes, minlength=n)
    return pa.table(
        {
            "content_sha256": dictionary,
            "keep_doc_id": pa.array(keep),
            "n_dups": pa.array(counts.astype(np.int64)),
        }
    )


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                hash_mode: str = "sha"):
    """(content_sha256, keep_doc_id = min doc_id, n_dups) per distinct content.

    Partial per batch, then a small groupby — the shuffle moves one row per
    distinct content per batch, never the content itself."""
    from ray.data.aggregate import Min, Sum

    return (
        ds.map_batches(
            exact_dedup_batch, batch_format="pyarrow",
            fn_kwargs={"text_col": text_col, "id_col": id_col,
                       "hash_mode": hash_mode},
        )
        .groupby("content_sha256")
        .aggregate(
            Min("keep_doc_id", alias_name="keep_doc_id"),
            Sum("n_dups", alias_name="n_dups"),
        )
    )


def exact_dedup_apply(ds, text_col: str = "text", id_col: str = "doc_id",
                      hash_mode: str = "sha"):
    """Materialize the deduplicated corpus: keep exactly one row (min id) per
    distinct content.  The keep-list (one int per distinct content) comes
    from ``exact_dedup``; survivors are selected with a hash-partitioned
    INNER JOIN on the integer id — no text moves through the shuffle twice
    and no driver-side keep-set materializes."""
    keep = exact_dedup(ds, text_col, id_col,
                       hash_mode).select_columns(["keep_doc_id"])
    keyed = keep.map_batches(
        lambda t: pa.table({id_col: t["keep_doc_id"]}),
        batch_format="pyarrow",
    )
    return ds.select_columns([id_col, text_col]).join(
        keyed, join_type="inner", on=(id_col,), num_partitions=8,
    )


# -------------------------------------------------------- decontamination --

DECON_MOD = 17  # doc_id % MOD == 0 is the held-out "test" subset


def _shingle_hash(vocab: pa.Array, hash_mode: str) -> np.ndarray:
    """63-bit hash per DISTINCT shingle (vocab is already deduplicated, so
    the per-string cost is paid once per distinct shingle, not per pair).
    sha = the DuckDB-replayable oracle mode; mixer = vectorized."""
    if hash_mode == "mixer":
        return (_string_hash63(vocab) & np.uint64(MASK63)).astype(np.int64)
    return np.fromiter((_h63(v) for v in vocab.to_pylist()),
                       dtype=np.int64, count=len(vocab))


def _test_shingles_batch(t: pa.Table, *, text_col: str, id_col: str,
                         mod: int, hash_mode: str) -> pa.Table:
    """Distinct shingle hashes of this batch's TEST rows (doc_id % mod == 0)
    — the small side the driver unions and broadcasts."""
    ids = t[id_col].to_numpy(zero_copy_only=False)
    t = t.filter(pa.array(ids % mod == 0))
    if t.num_rows == 0:
        return pa.table({"h": pa.array([], type=pa.int64())})
    _, _, vocab, _ = _shingle_pairs(t, text_col)
    return pa.table({"h": pa.array(np.unique(_shingle_hash(vocab, hash_mode)),
                                   type=pa.int64())})


def decontaminate(ds, text_col: str = "text", id_col: str = "doc_id",
                  mod: int = DECON_MOD, hash_mode: str = "sha"):
    """Train/test decontamination (the GPT-3 / Llama n-gram overlap
    practice): flag TRAIN docs (doc_id % mod != 0) sharing at least one
    token 3-gram shingle with the held-out TEST subset (doc_id % mod ==
    0).  Returns (doc_id, n_shared) with n_shared = distinct shared
    shingle hashes, flagged docs only — sql: contract.decontaminate_sql.

    Scale shape: the test set is the SMALL side by definition (eval sets
    are tiny next to a pretraining corpus), so its distinct shingle
    hashes broadcast once (ray.put) and the corpus streams through one
    vectorized membership pass — no shuffle, no join, the corpus never
    moves.  At 10^12 docs the broadcast stays |test shingles| * 8 bytes."""
    import ray

    rows = ds.map_batches(
        _test_shingles_batch, batch_format="pyarrow",
        fn_kwargs={"text_col": text_col, "id_col": id_col, "mod": mod,
                   "hash_mode": hash_mode},
    ).take_all()  # bounded: distinct test shingles (deduped per batch)
    test_h = np.unique(np.fromiter((r["h"] for r in rows), dtype=np.int64,
                                   count=len(rows)))
    ref = ray.put(test_h)  # sorted by construction

    def _flag(t: pa.Table) -> pa.Table:
        th = ray.get(ref)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        train = t.filter(pa.array(ids % mod != 0))
        empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "n_shared": pa.array([], type=pa.int64())})
        if train.num_rows == 0 or not len(th):
            return empty
        pair_parents, pair_codes, vocab, n_rows = _shingle_pairs(
            train, text_col)
        if not len(pair_parents):
            return empty
        vh = _shingle_hash(vocab, hash_mode)
        pos = np.searchsorted(th, vh)
        member_code = (pos < len(th)) & (th[np.minimum(pos, len(th) - 1)]
                                         == vh)
        hit = member_code[pair_codes]
        if not hit.any():
            return empty
        # count DISTINCT shared hashes per row (collision-identical to the
        # SQL count(DISTINCT h)): sort (parent, hash) pairs, count firsts
        hp, hh = pair_parents[hit], vh[pair_codes[hit]]
        order = np.lexsort((hh, hp))
        hp, hh = hp[order], hh[order]
        first = np.ones(len(hp), dtype=bool)
        first[1:] = (hp[1:] != hp[:-1]) | (hh[1:] != hh[:-1])
        counts = np.bincount(hp[first], minlength=n_rows)
        train_ids = train[id_col].to_numpy(zero_copy_only=False)
        flagged = np.nonzero(counts > 0)[0]
        return pa.table({
            "doc_id": pa.array(train_ids[flagged], type=pa.int64()),
            "n_shared": pa.array(counts[flagged].astype(np.int64),
                                 type=pa.int64()),
        })

    return ds.map_batches(_flag, batch_format="pyarrow")


# ---------------------------------------------------------------- minhash --

def minhash_signature(text: str) -> list[int]:
    """K sha-derived minhashes over token shingles ([] for shingle-less docs)."""
    sh = shingles(text)
    if not sh:
        return []
    sig = []
    for j in range(N_PERM):
        sig.append(min(_h63(f"{j}:{s}") for s in sh))
    return sig


def minhash_bands_batch(t: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id",
                        hash_mode: str = "sha") -> pa.Table:
    """Doc batch -> (band, band_key, doc_id) rows (N_BANDS per doc).

    ``hash_mode="sha"``: per-doc sha-derived signatures (DuckDB-reproducible;
    the oracle contract runs this).  ``"mixer"``: fully vectorized — Arrow
    shingle construction, one string hash per distinct shingle, splitmix64
    permutations, minimum.reduceat signatures.  Same LSH structure, different
    (non-SQL) hash values; bench.py measures the speedup.
    """
    if hash_mode == "mixer":
        return _minhash_bands_mixer(t, text_col, id_col)
    out_band, out_key, out_id = [], [], []
    for text, did in zip(t[text_col].to_pylist(), t[id_col].to_pylist()):
        sig = minhash_signature(text or "")
        if not sig:
            continue
        r = N_PERM // N_BANDS
        for b in range(N_BANDS):
            key = _h63(f"{b}|" + "|".join(str(v) for v in sig[b * r : (b + 1) * r]))
            out_band.append(b)
            out_key.append(key)
            out_id.append(did)
    return pa.table(
        {
            "band": pa.array(out_band, type=pa.int32()),
            "band_key": pa.array(out_key, type=pa.int64()),
            "doc_id": pa.array(out_id, type=pa.int64()),
        }
    )


def _string_hash63(vocab: pa.Array) -> np.ndarray:
    """Vectorized 63-bit string hash for mixer mode: polars (xxhash-family,
    deterministic across processes) when present, else per-string sha."""
    try:
        import polars as pl

        h = pl.Series(vocab.to_pylist()).hash(seed=1315423911).to_numpy()
        return h.astype(np.uint64)
    except ImportError:  # pragma: no cover — polars is in the container
        return np.fromiter((_h63(v) for v in vocab.to_pylist()),
                           dtype=np.uint64, count=len(vocab))


def _minhash_bands_mixer(t: pa.Table, text_col: str, id_col: str) -> pa.Table:
    from .textstats import mix64

    pair_parents, pair_codes, vocab, n_rows = _shingle_pairs(t, text_col)
    if len(pair_parents) == 0:
        return pa.table(
            {
                "band": pa.array([], type=pa.int32()),
                "band_key": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
            }
        )
    ids = pc.cast(t[id_col], pa.int64()).to_numpy(zero_copy_only=False)
    h = _string_hash63(vocab)[pair_codes]
    present = np.unique(pair_parents)
    starts = np.searchsorted(pair_parents, present)
    r = N_PERM // N_BANDS
    golden = np.uint64(0x9E3779B97F4A7C15)
    sig = np.empty((len(present), N_PERM), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(N_PERM):
            sig[:, j] = np.minimum.reduceat(mix64(h ^ (np.uint64(j) * golden)),
                                            starts)
        keys = []
        for b in range(N_BANDS):
            k = np.full(len(present), np.uint64(b) * golden, dtype=np.uint64)
            for i in range(r):
                k = mix64(k ^ sig[:, b * r + i])
            keys.append((k & np.uint64(MASK63)).astype(np.int64))
    return pa.table(
        {
            "band": pa.array(np.repeat(np.arange(N_BANDS, dtype=np.int32),
                                       len(present))),
            "band_key": pa.array(np.concatenate(keys)),
            "doc_id": pa.array(np.tile(ids[present], N_BANDS)),
        }
    )


def _ordered_pairs_batch(t: pa.Table, left: str, right: str) -> pa.Table:
    a = t[left].to_numpy(zero_copy_only=False)
    b = t[right].to_numpy(zero_copy_only=False)
    keep = a < b
    return t.filter(pa.array(keep)).rename_columns(
        ["doc_a" if c == left else "doc_b" if c == right else c
         for c in t.schema.names]
    )


def minhash_lsh_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                      num_partitions: int = 8, hash_mode: str = "sha"):
    """Distinct candidate pairs (doc_a < doc_b) sharing any LSH band bucket.

    Pair generation is a hash-partitioned SELF-JOIN on (band, band_key) —
    NOT groupby().map_groups: Ray runs map_groups as one Python task per
    group, which collapses to near-serial execution over the millions of
    tiny buckets LSH produces.  The join + a vectorized Count aggregate
    (for pair dedup) keep every step a bulk operator.
    """
    from ray.data.aggregate import Count

    bands = ds.map_batches(
        minhash_bands_batch, batch_format="pyarrow",
        fn_kwargs={"text_col": text_col, "id_col": id_col,
                   "hash_mode": hash_mode},
    )
    joined = bands.join(
        bands, join_type="inner", on=("band", "band_key"),
        num_partitions=num_partitions, right_suffix="_r",
    )
    pairs = joined.map_batches(
        _ordered_pairs_batch, batch_format="pyarrow",
        fn_kwargs={"left": "doc_id", "right": "doc_id_r"},
    )
    return (
        pairs.groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["doc_a", "doc_b"])
    )


# ---------------------------------------------------------------- simhash --

def simhash63_batch(t: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """63-bit SimHash per doc: bit b = sign of sum over terms of tf * (+-1).

    Term hash h = sha-63(term); bit contribution +tf if bit b of h set else
    -tf.  Zero sums count as 0 (strict > 0 sets the bit) — mirrored in SQL.

    Vectorized: Arrow tokenization (identical stream to tokens_py), sha only
    over the batch's UNIQUE vocabulary (hundreds of calls per batch instead
    of one per token occurrence), then one segment-sum over a (terms, 63)
    sign matrix.  Bit-identical to the old per-row loop.
    """
    from ..analyzer import tokenize_flat

    texts = t[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_rows = len(texts)
    flat, parents = tokenize_flat(texts)
    ids = pc.cast(t[id_col], pa.int64())
    bits = np.arange(63, dtype=np.uint64)
    if len(flat) == 0:
        return pa.table(
            {"doc_id": ids,
             "simhash": pa.array(np.zeros(n_rows, dtype=np.int64))}
        )
    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab_h = np.fromiter(
        (_h63(v) for v in enc.dictionary.to_pylist()),
        dtype=np.uint64, count=len(enc.dictionary),
    )
    # per-occurrence sign rows: bit b contributes +1/-1; tf weighting falls
    # out of summing one row per OCCURRENCE (tf identical occurrences)
    occ_h = vocab_h[codes]
    sign = (((occ_h[:, None] >> bits[None, :]) & np.uint64(1)).astype(np.int64)
            * 2 - 1)
    acc = np.zeros((n_rows, 63), dtype=np.int64)
    np.add.at(acc, parents, sign)
    sims = ((acc > 0).astype(np.uint64) << bits[None, :]).sum(axis=1)
    return pa.table(
        {"doc_id": ids,
         "simhash": pa.array(sims.astype(np.int64))}
    )


def simhash63(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(
        simhash63_batch, batch_format="pyarrow",
        fn_kwargs={"text_col": text_col, "id_col": id_col},
    )


# ---------------------------------------------------------------- jaccard --

def shingle_rows_batch(t: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Distinct (doc_id, shingle, n_shingles) rows — vectorized via
    _shingle_pairs (exact same shingle SET as ``shingles()``; row order
    differs, which downstream aggregates never observe)."""
    pair_parents, pair_codes, vocab, n_rows = _shingle_pairs(t, text_col)
    ids = pc.cast(t[id_col], pa.int64()).to_numpy(zero_copy_only=False)
    n_sh = np.bincount(pair_parents, minlength=n_rows).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids[pair_parents]),
            "shingle": vocab.take(pa.array(pair_codes)),
            "n_shingles": pa.array(n_sh[pair_parents]),
        }
    )


def _shingle_df_partial(t: pa.Table) -> pa.Table:
    """Per-batch combiner: (shingle, partial df) — the hot-shingle detection
    shuffle moves one row per distinct shingle per batch."""
    sh = t["shingle"]
    if isinstance(sh, pa.ChunkedArray):
        sh = sh.combine_chunks()
    enc = pc.dictionary_encode(sh)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    return pa.table(
        {"shingle": enc.dictionary,
         "df": pa.array(np.bincount(codes, minlength=len(enc.dictionary))
                        .astype(np.int64))}
    )


def _salt_shingles_left(t: pa.Table, *, hot: pa.Array, n_salts: int) -> pa.Table:
    """Probe side: hot shingles get salt = mix64(doc_id) % n_salts, cold 0."""
    from .textstats import mix64

    sh = t["shingle"]
    if isinstance(sh, pa.ChunkedArray):
        sh = sh.combine_chunks()
    is_hot = pc.is_in(sh, value_set=hot).to_numpy(zero_copy_only=False)
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    salt = np.zeros(len(ids), dtype=np.int32)
    if is_hot.any():
        salt[is_hot] = (mix64(ids[is_hot].astype(np.uint64))
                        % np.uint64(n_salts)).astype(np.int32)
    return t.append_column("salt", pa.array(salt))


def _salt_shingles_right(t: pa.Table, *, hot: pa.Array, n_salts: int) -> pa.Table:
    """Build side: hot-shingle rows REPLICATED to every salt (fragment-
    replicate join), cold rows salt 0 — each co-occurring pair meets in
    exactly one (shingle, salt) bucket."""
    sh = t["shingle"]
    if isinstance(sh, pa.ChunkedArray):
        sh = sh.combine_chunks()
    is_hot = pc.is_in(sh, value_set=hot).to_numpy(zero_copy_only=False)
    n = len(is_hot)
    if not is_hot.any():
        return t.append_column("salt", pa.array(np.zeros(n, dtype=np.int32)))
    hot_idx = np.flatnonzero(is_hot)
    take = np.concatenate([np.flatnonzero(~is_hot),
                           np.repeat(hot_idx, n_salts)])
    salt = np.concatenate([
        np.zeros(n - len(hot_idx), dtype=np.int32),
        np.tile(np.arange(n_salts, dtype=np.int32), len(hot_idx)),
    ])
    return t.take(pa.array(take)).append_column("salt", pa.array(salt))


def ngram_jaccard_pairs(ds, threshold: float = 0.8,
                        text_col: str = "text", id_col: str = "doc_id",
                        num_partitions: int = 8,
                        salt_threshold: int = 512, n_salts: int = 8):
    """Exact token-shingle Jaccard >= threshold pairs (doc_a < doc_b).

    Shuffle pattern: explode distinct shingles, hash-partitioned self-join on
    (shingle, salt) emits co-occurrences, a vectorized Count aggregate sums
    the intersection size; |union| = n_a + n_b - inter.

    HOT shingles (df >= ``salt_threshold``, found by a cheap partial-count
    aggregate) are SALTED: the probe side gets salt = hash(doc_id) % n_salts,
    the build side replicates its hot rows to every salt (fragment-replicate
    join, same hot-key discipline as the index-build shuffle).  Each pair
    still meets exactly once, but a head shingle's join bucket shrinks n_salts
    x — without this, one stop-word shingle serializes the whole join into a
    single partition.  Salting fixes the partition skew, not the inherently
    quadratic pair OUTPUT of a head shingle — MinHash-LSH is the scale path
    for that (minhash_lsh_pairs).
    """
    from ray.data.aggregate import Count, Max, Sum

    sh = ds.map_batches(
        shingle_rows_batch, batch_format="pyarrow",
        fn_kwargs={"text_col": text_col, "id_col": id_col},
    )
    hot_rows = (
        sh.map_batches(_shingle_df_partial, batch_format="pyarrow")
        .groupby("shingle")
        .aggregate(Sum("df", alias_name="df"))
        .map_batches(
            lambda t, m=salt_threshold: t.filter(
                pc.greater_equal(t["df"], pa.scalar(m, pa.int64()))),
            batch_format="pyarrow",
        )
        .take_all()
    )
    hot = pa.array(sorted(r["shingle"] for r in hot_rows), type=pa.string())
    left = sh.map_batches(
        _salt_shingles_left, batch_format="pyarrow",
        fn_kwargs={"hot": hot, "n_salts": n_salts},
    )
    right = sh.map_batches(
        _salt_shingles_right, batch_format="pyarrow",
        fn_kwargs={"hot": hot, "n_salts": n_salts},
    )
    joined = left.join(
        right, join_type="inner", on=("shingle", "salt"),
        num_partitions=num_partitions, right_suffix="_r",
    )
    co = joined.map_batches(
        _ordered_pairs_batch, batch_format="pyarrow",
        fn_kwargs={"left": "doc_id", "right": "doc_id_r"},
    )
    inter = co.groupby(["doc_a", "doc_b"]).aggregate(
        Count(alias_name="inter"), Max("n_shingles", alias_name="n_a"),
        Max("n_shingles_r", alias_name="n_b"),
    )

    def _finish(t: pa.Table, threshold=threshold) -> pa.Table:
        inter_n = t["inter"].to_numpy(zero_copy_only=False).astype(np.float64)
        union = (
            t["n_a"].to_numpy(zero_copy_only=False)
            + t["n_b"].to_numpy(zero_copy_only=False)
            - inter_n
        )
        jac = inter_n / union
        keep = jac >= threshold
        out = t.filter(pa.array(keep)).select(["doc_a", "doc_b"])
        return out.append_column(
            "jaccard", pa.array(np.round(jac[keep], 9), type=pa.float64())
        )

    return inter.map_batches(_finish, batch_format="pyarrow")


# ----------------------------------------------------- connected components --

def connected_components(pairs_ds, all_ids_ds=None, max_iters: int = 50,
                         driver_threshold: int = 5_000_000):
    """Near-duplicate clustering: pairs (doc_a, doc_b) -> (doc_id, cluster_id)
    with cluster_id = min doc_id reachable in the pair graph.

    Candidate-pair graphs are tiny relative to the corpus by construction
    (LSH emits only likely duplicates), so up to ``driver_threshold`` edges
    the component labels come from a driver-side union-find over the
    streamed edge list (the ray_guide's "union-find on the driver only if
    the candidate set is provably small" case).  Above the threshold the
    distributed min-label-propagation loop (hash-join per round) takes
    over — the standard large-graph CC dance at 10^12 docs.  Isolated docs
    (``all_ids_ds`` given) keep their own id as cluster.
    """
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Min

    n_edges = pairs_ds.count()
    if n_edges <= driver_threshold:
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        seen: set[int] = set()
        for batch in pairs_ds.iter_batches(batch_size=65536,
                                           batch_format="pyarrow"):
            for a, b in zip(batch["doc_a"].to_pylist(),
                            batch["doc_b"].to_pylist()):
                seen.add(a)
                seen.add(b)
                ra, rb = find(a), find(b)
                if ra != rb:
                    lo, hi = min(ra, rb), max(ra, rb)
                    parent[hi] = lo  # root = min id -> cluster_id = min
        nodes = sorted(seen)
        labels_tbl = pa.table(
            {
                "doc_id": pa.array(nodes, type=pa.int64()),
                "label": pa.array([find(n) for n in nodes], type=pa.int64()),
            }
        )
        labels = rd.from_arrow(labels_tbl)
        if all_ids_ds is not None:
            labels = (
                labels.union(
                    all_ids_ds.map_batches(
                        lambda t: pa.table(
                            {"doc_id": t["doc_id"], "label": t["doc_id"]}
                        ),
                        batch_format="pyarrow",
                    )
                )
                .groupby("doc_id")
                .aggregate(Min("label", alias_name="label"))
            )
        return labels.map_batches(
            lambda t: pa.table(
                {"doc_id": t["doc_id"], "cluster_id": t["label"]}
            ),
            batch_format="pyarrow",
        )
    return _cc_distributed(pairs_ds, all_ids_ds, max_iters)


def _cc_distributed(pairs_ds, all_ids_ds=None, max_iters: int = 50):
    """Distributed min-label propagation (hash-join + min-aggregate rounds).

    Scale path for edge sets too large for a driver union-find; converges in
    O(graph diameter) rounds.  NOTE: Ray 2.49's hash-join can fail on empty
    right-side partitions for very small inputs — the driver path above
    covers those.
    """
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Min

    edges = pairs_ds.map_batches(
        lambda t: pa.table({"src": t["doc_a"], "dst": t["doc_b"]}),
        batch_format="pyarrow",
    )
    # undirected: propagate both ways
    back = edges.map_batches(
        lambda t: pa.table({"src": t["dst"], "dst": t["src"]}),
        batch_format="pyarrow",
    )
    edges = edges.union(back).materialize()  # small: candidate pairs only

    def _init(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["src"], "label": t["src"]})

    labels = (
        edges.map_batches(_init, batch_format="pyarrow")
        .groupby("doc_id").aggregate(Min("label", alias_name="label"))
        .materialize()
    )
    for _ in range(max_iters):
        # candidate labels arriving over edges
        prop = edges.join(
            labels.map_batches(
                lambda t: pa.table({"src": t["doc_id"], "label": t["label"]}),
                batch_format="pyarrow",
            ),
            join_type="inner", on=("src",), num_partitions=8,
        ).map_batches(
            lambda t: pa.table({"doc_id": t["dst"], "label": t["label"]}),
            batch_format="pyarrow",
        )
        new_labels = (
            labels.union(prop)
            .groupby("doc_id")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        # converged when no label decreased: compare sums (labels only ever
        # decrease, so equal sums <=> identical labels)
        old_sum = labels.sum("label")
        new_sum = new_labels.sum("label")
        labels = new_labels
        if old_sum == new_sum:
            break
    if all_ids_ds is not None:
        def _self(t: pa.Table) -> pa.Table:
            return pa.table({"doc_id": t["doc_id"], "label": t["doc_id"]})

        labels = (
            labels.union(all_ids_ds.map_batches(_self, batch_format="pyarrow"))
            .groupby("doc_id")
            .aggregate(Min("label", alias_name="label"))
        )
    return labels.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "cluster_id": t["label"]}),
        batch_format="pyarrow",
    )


# ------------------------------------------------------ line-level dedup --
#
# C4 / RefinedWeb-style cross-corpus line deduplication: a line occurring
# in many documents (boilerplate, license headers, nav text) is kept ONLY
# at its first corpus-wide occurrence — deterministically the minimal
# (doc_id, line_no) — and removed everywhere else.  Lines shorter than
# ``min_chars`` are never deduplicated (the C4 "span long enough to
# matter" guard).  Reference analogue: none (the reference ingests 5 local
# files); public analogue: C4's three-sentence-span dedup / RefinedWeb's
# exact line dedup.

def _owner_key(ids: pa.Array, line_no: pa.Array) -> pa.Array:
    """Fixed-width '%019d:%09d' packing of (doc_id, line_no) — string
    order == lexicographic (doc_id, line_no) order, and identical to the
    oracle's printf rendering."""
    return pc.binary_join_element_wise(
        pc.utf8_lpad(pc.cast(ids, pa.string()), 19, "0"),
        pc.utf8_lpad(pc.cast(line_no, pa.string()), 9, "0"), ":")


def _line_keys(lines: pa.Array, hash_mode: str) -> pa.Array:
    """Group key per line: sha256 hex (oracle-reproducible) or the
    vectorized 64-bit mixer (production path, see exact_dedup_batch)."""
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    if hash_mode == "mixer":
        try:
            import polars as pl

            h = pl.from_arrow(lines).hash(seed=1315423911).to_numpy()
        except ImportError:  # pragma: no cover
            h = np.fromiter((_h63(x) for x in lines.to_pylist()),
                            dtype=np.uint64, count=len(lines))
        return pa.array([f"{v:016x}" for v in h], type=pa.string())
    return pa.array([hashlib.sha256(x.encode()).hexdigest()
                     for x in lines.to_pylist()], type=pa.string())


def explode_lines_batch(t: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """(doc_id, line_no, line) rows — one vectorized split_pattern +
    list_flatten, 1-based line_no (the oracle's unnest(range) numbering)."""
    texts = t[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    parts = pc.split_pattern(pc.fill_null(texts, ""), pattern="\n")
    flat = pc.list_flatten(parts)
    counts = pc.list_value_length(parts).to_numpy(
        zero_copy_only=False).astype(np.int64)
    parents = np.repeat(np.arange(len(t), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    line_no = (np.arange(len(parents), dtype=np.int64)
               - np.repeat(starts, counts) + 1)
    ids = t[id_col].to_numpy(zero_copy_only=False)[parents]
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "line_no": pa.array(line_no),
        "line": flat,
    })


def _line_owner_partial(t: pa.Table, *, min_chars: int,
                        hash_mode: str) -> pa.Table:
    """Batch-local partial: (line_key, min owner packing) per DISTINCT
    long-enough line — the shuffle moves one row per distinct line per
    batch, never the corpus text."""
    long_mask = pc.greater_equal(pc.utf8_length(t["line"]),
                                 pa.scalar(min_chars))
    sub = t.filter(long_mask)
    if not len(sub):
        return pa.table({"line_key": pa.array([], type=pa.string()),
                         "okey": pa.array([], type=pa.string())})
    keys = _line_keys(sub["line"], hash_mode)
    okey = _owner_key(sub["doc_id"], sub["line_no"])
    enc = pc.dictionary_encode(keys)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    # min okey per code: sort by okey (fixed-width strings sort
    # lexicographically == (doc_id, line_no)), first occurrence per code
    ok_np = np.asarray(okey.to_pylist(), dtype="U29")
    order = np.argsort(ok_np, kind="stable")
    codes_sorted = codes[order]
    _, first = np.unique(codes_sorted, return_index=True)
    sel = order[first]
    return pa.table({
        "line_key": enc.dictionary.take(pa.array(codes[sel])),
        "okey": pa.array(ok_np[sel].tolist(), type=pa.string()),
    })


def line_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
               min_chars: int = 10, hash_mode: str = "sha",
               num_partitions: int = 8):
    """Cross-corpus exact line dedup: rebuild every document keeping each
    long-enough line only at its first corpus-wide occurrence (minimal
    (doc_id, line_no)); short lines always survive.  Returns
    (doc_id, text_clean); documents whose every line was removed emit no
    row (the GROUP-BY oracle shape).

    Dataflow: vectorized explode -> per-batch (line_key, min owner)
    partials -> one groupby(line_key) Min -> hash-partitioned join of the
    long lines against the owner table -> keep rows whose own packing IS
    the owner -> union short lines -> per-doc reassembly (bounded group =
    one document's lines).  The shuffle carries one row per distinct line
    per batch plus the owner join — never the corpus twice.

    Pass count (deliberate): ``lines`` is lazy, so its three consumers
    (owner partials, long stream, short stream) each re-run the explode —
    three streaming reads of the corpus, zero corpus-scale pins.
    Materializing the exploded corpus instead would pin corpus-scale
    blocks in the object store; routing short lines through the owner
    join (per-occurrence unique keys) would move every short occurrence
    through the shuffle.  Re-reading is the cheapest of the three at
    100 TB.  Oracle: ops.contract.line_dedup_sql."""
    from ray.data.aggregate import Min

    lines = ds.map_batches(
        explode_lines_batch, batch_format="pyarrow",
        fn_kwargs={"text_col": text_col, "id_col": id_col})

    owners = (
        lines.map_batches(
            _line_owner_partial, batch_format="pyarrow",
            fn_kwargs={"min_chars": min_chars, "hash_mode": hash_mode})
        .groupby("line_key")
        .aggregate(Min("okey", alias_name="okey"))
    )

    def _split(t: pa.Table, *, want_long: bool) -> pa.Table:
        m = pc.greater_equal(pc.utf8_length(t["line"]),
                             pa.scalar(min_chars))
        sub = t.filter(m if want_long else pc.invert(m))
        if want_long:
            sub = sub.append_column("line_key",
                                    _line_keys(sub["line"], hash_mode))
            sub = sub.append_column("my_okey",
                                    _owner_key(sub["doc_id"],
                                               sub["line_no"]))
        return sub

    short = lines.map_batches(_split, batch_format="pyarrow",
                              fn_kwargs={"want_long": False})
    long_keyed = lines.map_batches(_split, batch_format="pyarrow",
                                   fn_kwargs={"want_long": True})
    joined = long_keyed.join(owners, join_type="inner", on=("line_key",),
                             num_partitions=num_partitions)

    def _keep_owned(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["my_okey"], t["okey"])).select(
            ["doc_id", "line_no", "line"])

    kept = joined.map_batches(_keep_owned, batch_format="pyarrow")
    both = kept.union(short.select_columns(["doc_id", "line_no", "line"]))

    def _reassemble(g: pa.Table) -> pa.Table:
        order = np.argsort(g["line_no"].to_numpy(zero_copy_only=False))
        parts = g["line"].take(pa.array(order)).to_pylist()
        return pa.table({
            "doc_id": pa.array([g["doc_id"][0].as_py()], type=pa.int64()),
            "text_clean": pa.array(["\n".join(parts)], type=pa.string()),
        })

    return both.groupby("doc_id").map_groups(_reassemble,
                                             batch_format="pyarrow")
