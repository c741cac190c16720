"""Index build: corpus Dataset -> segments + manifests (Ray-Data-first).

Replaces the reference build path — serial per-file loops feeding a Milvus
``SPARSE_INVERTED_INDEX`` (ingest.py:86-97 chunking, ingest.py:111-129 sparse
embedding, ingest.py:132-172 insert + create_index) — with a streaming
Ray Data pipeline:

  1. STAGE    corpus -> map_batches(prepare) -> staging parquet
              (doc_id, identity cols, content_sha256, doc_len, terms, tfs):
              tokenize ONCE, checkpoint the analyzed corpus; empty /
              whitespace-only rows dropped with a counter (M10).
  2. STATS    n_docs from the staging parquet footers (no data read).
  3. ORDINALS one pass over staging, one row per block (``staging_block``):
              doc_len sum, langs, a bounded Misra-Gries summary of the
              block's term dfs (``hotterms``) and, for the driver argsort,
              the block's doc ids / lengths / lang codes.  The driver folds
              the summaries in block order into the hot-term set (df above
              threshold; it steers salting only).  Up to
              ``DRIVER_SORT_MAX_DOCS`` docs it argsorts the ids and writes
              the forward arrays (sorted doc ids = the ordinal rank map, doc
              lengths, lang codes) in docmap's flat layout; above it a
              distributed sort writes them in the sharded layout.
  4. SHUFFLE  staging -> explode (term, salt, ordinal, tf, shard) with
              salted shards for hot terms (salt = contiguous ordinal
              ranges) -> groupby(shard).map_groups(one segment per shard).
  5. FINAL    MANIFEST.json with stats, build counters + per-segment lineage.

Resumability (north_rule): staging and every segment are validated
checkpoints; a rerun skips valid ones (shards are filtered out of the
shuffle input *before* the exchange, so finished work costs nothing).

Scoring determinism: BM25 contributions are quantized to integer units of
1e-9 (``SCORE_SCALE``) before summation, so ranks/scores are bit-identical
across scorers, summation orders, and the DuckDB oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from . import DROP_WS
from .alias import write_json_atomic
from .analyzer import doc_token_stats
from .delete import EXCLUDED, remove_tombstone_files
from .docmap import FLAT_FILES, SHARD_DIR
from .hotterms import MisraGries, block_summary, capacity_for, n_hot_rows
from .ids import PLACEMENT, doc_id63_column, sha256_hex_column, term_shard
from .segments import SegmentBuilder, lex_rank, validate_segment

SCORE_SCALE = 1_000_000_000  # integer score units per 1.0 of BM25 score

# Up to this many docs the ordinal pass collects the doc ids, lengths and
# lang codes on the driver (13 bytes/doc, 65 MB at the limit), argsorts
# them and writes the flat forward arrays; above it a distributed sort
# writes the sharded layout and nothing doc-scale reaches the driver.
DRIVER_SORT_MAX_DOCS = 5_000_000

STAGING_SCHEMA_COLS = [
    "doc_id", "repo", "path", "commit", "lang", "content_sha256", "doc_len",
    "terms", "tfs",
]


def prepare_batch(t: pa.Table, *, lang_tagged: bool,
                  with_sha: bool = True, positions: bool = False) -> pa.Table:
    """Corpus batch -> staging batch. Drops empty/whitespace-only content.

    ``with_sha=False`` skips the per-row content sha256 (the input_hint
    invariant column): postings/stats consumers that never read it save the
    single most expensive per-row hash in the stage.  The BUILD path always
    keeps it (the invariant is asserted through the whole pipeline).

    ``positions=True`` adds a per-doc ``positions`` list<int32> column
    (within-doc token positions grouped by term in the terms list's order;
    per-(doc, term) slice lengths = tfs) — the staging source of the
    positional posting sidecar."""
    content = t["content"]
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    trimmed = pc.utf8_trim(pc.fill_null(content, ""), characters=DROP_WS)
    keep = pc.not_equal(trimmed, "")
    t = t.filter(keep)
    content = t["content"]
    langs = t["lang"] if lang_tagged else None
    pos_col = None
    if positions:
        from .analyzer import doc_token_positions_from_flat, tokenize_flat

        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        flat, parents = tokenize_flat(pc.fill_null(content, ""), langs)
        terms, tfs, doc_len, pos_col = doc_token_positions_from_flat(
            flat, parents, t.num_rows)
    else:
        terms, tfs, doc_len = doc_token_stats(content, langs)
    cols = {
        "doc_id": doc_id63_column(t["repo"], t["path"], t["commit"]),
        "repo": t["repo"],
        "path": t["path"],
        "commit": t["commit"],
        "lang": t["lang"],
        "doc_len": pa.array(doc_len, type=pa.int32()),
        "terms": terms,
        "tfs": tfs,
    }
    if pos_col is not None:
        cols["positions"] = pos_col
    if with_sha:
        cols["content_sha256"] = sha256_hex_column(content)
        order = STAGING_SCHEMA_COLS + (["positions"] if positions else [])
        return pa.table({c: cols[c] for c in order})
    return pa.table(cols)


def _one_row_list(values) -> pa.ListArray:
    """Arrow ``values`` as the single list cell of a one-row column."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    return pa.ListArray.from_arrays([0, len(values)], values)


def _cell(row: pa.Table, name: str) -> pa.Array:
    """The values of a one-row list column's cell (``_one_row_list``)."""
    return row[name].combine_chunks().flatten()


def staging_block(t: pa.Table, *, capacity: int, ordinals: bool) -> pa.Table:
    """One staging block -> one row: its doc-length sum, sorted langs and
    Misra-Gries term summary (``hotterms.block_summary``); with
    ``ordinals`` also its doc ids, doc lengths and lang codes against its
    own langs.  Every build path's pass over staging before the shuffle
    runs this, so the hot set always comes from the same summaries."""
    from .docmap import encode_lang_codes

    lang_col = t["lang"]
    if isinstance(lang_col, pa.ChunkedArray):
        lang_col = lang_col.combine_chunks()
    langs = sorted(x for x in pc.unique(lang_col).to_pylist() if x)
    terms, dfs = block_summary(t["terms"], capacity)
    row = {"total_len": pa.array([pc.sum(t["doc_len"]).as_py() or 0],
                                 pa.int64()),
           "langs": pa.array([langs], pa.list_(pa.string())),
           "hot_terms": _one_row_list(terms),
           "hot_dfs": _one_row_list(pa.array(dfs, pa.int64()))}
    if ordinals:
        row["doc_id"] = _one_row_list(t["doc_id"])
        row["doc_len"] = _one_row_list(t["doc_len"])
        row["lang_code"] = _one_row_list(
            pa.array(encode_lang_codes(lang_col, langs)))
    return pa.table(row)


def explode_postings_batch(
    t: pa.Table, *, n_shards: int, hot_terms: frozenset[str],
    salt_bits: int, skip_shards: frozenset[int],
    docmap_ref=None, n_docs: int = 0,
) -> pa.Table:
    """Staging batch -> (term, salt, doc_id, tf, dl, shard) posting rows.

    ``doc_id`` in the OUTPUT is the dense doc ORDINAL (rank of the real
    63-bit id in the sorted id set, via the broadcast ``docmap_ref``):
    ordinal gaps average N/df — 1-2 varbyte bytes — where raw hash-id gaps
    average 2^63/df (~7 bytes).  Ordinals are order-isomorphic to doc ids,
    so doc_id-ascending tie-breaks survive; the query engine translates
    back through the forward doc-id array on output.

    Shards come from ``ids.term_shard``, the rule the query side routes
    lookups by.  Cold terms: salt 0, shard = h(term) % P.  Hot terms: salt
    = the ordinal's position scaled to 2^salt_bits contiguous, doc-sorted
    ranges, shard = h(term # salt) % P — spreads the heavy list over the
    cluster.
    Shards already completed (resume) are filtered out here, before the
    shuffle moves any bytes.
    """
    import ray as _ray

    terms = t["terms"]
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    parents = pc.list_parent_indices(terms).to_numpy(zero_copy_only=False)
    flat_terms = terms.flatten()
    tfs = t["tfs"]
    if isinstance(tfs, pa.ChunkedArray):
        tfs = tfs.combine_chunks()
    flat_tfs = tfs.flatten().to_numpy(zero_copy_only=False)
    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)[parents]
    if docmap_ref is not None:
        docmap = _ray.get(docmap_ref)  # broadcast once; zero-copy from shm
        doc_ids = np.searchsorted(docmap, doc_ids)

    enc = pc.dictionary_encode(flat_terms)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    vocab = enc.dictionary.to_pylist()
    base_shard = np.array([term_shard(v, None, n_shards) for v in vocab],
                          dtype=np.int32)
    is_hot = np.array([v in hot_terms for v in vocab], dtype=bool)

    shard = base_shard[codes]
    salt = np.zeros(len(codes), dtype=np.int32)
    if is_hot.any() and salt_bits > 0:
        hot_rows = is_hot[codes]
        if docmap_ref is not None and n_docs > 0:
            salt[hot_rows] = (
                (doc_ids[hot_rows] * (1 << salt_bits)) // n_docs
            ).astype(np.int32)
        else:
            salt[hot_rows] = (doc_ids[hot_rows] >> (63 - salt_bits)).astype(np.int32)
        # (hot term, salt) -> shard lookup built once over the tiny hot
        # vocabulary (hot x 2^salt_bits hashes), then one vectorized gather —
        # no per-term full-batch scans
        hot_codes = np.nonzero(is_hot)[0]
        n_salt = 1 << salt_bits
        lut = np.empty((len(hot_codes), n_salt), dtype=np.int32)
        for i, c in enumerate(hot_codes):
            for s in range(n_salt):
                lut[i, s] = term_shard(vocab[c], s, n_shards)
        hot_index = np.full(len(vocab), -1, dtype=np.int64)
        hot_index[hot_codes] = np.arange(len(hot_codes))
        shard[hot_rows] = lut[hot_index[codes[hot_rows]], salt[hot_rows]]

    cols = {
        "term": flat_terms,
        "salt": pa.array(salt),
        "doc_id": pa.array(doc_ids),
        "tf": pa.array(flat_tfs.astype(np.int32)),
        "shard": pa.array(shard),
    }
    if "positions" in t.schema.names:
        # per-(doc, term) position slice: the staging positions column is
        # already grouped by term in the terms list's order, so the exploded
        # row i's positions are the flat values with per-row counts = tf
        pos = t["positions"]
        if isinstance(pos, pa.ChunkedArray):
            pos = pos.combine_chunks()
        pos_offsets = np.zeros(len(flat_tfs) + 1, dtype=np.int64)
        np.cumsum(flat_tfs.astype(np.int64), out=pos_offsets[1:])
        flat_vals = pos.flatten()
        if pos_offsets[-1] != len(flat_vals):
            raise ValueError("positions column inconsistent with tfs")
        cols["pos"] = pa.LargeListArray.from_arrays(
            pa.array(pos_offsets), flat_vals)
    out = pa.table(cols)
    if skip_shards:
        out = out.filter(
            pa.array(~np.isin(shard, np.fromiter(skip_shards, dtype=np.int32)))
        )
    return out


def build_segment_group(group: pa.Table, *, index_dir: str, avgdl: float,
                        doclens_ref=None,
                        hot_terms: frozenset[str] = frozenset(),
                        salting: str = "") -> pa.Table:
    """One shuffle partition -> one segment on disk; returns its manifest row.

    Array work over the whole partition: the terms get lexicographic ranks
    (``segments.lex_rank``), and ``SegmentBuilder.add_postings`` sorts the
    postings by (term rank, salt, doc_id), collapses duplicate (term, salt,
    doc_id) entries (duplicate input rows) whose tf agrees — a conflicting
    duplicate raises (doc_id collision check) — and encodes every run in
    one pass.  Lexicographic dictionary order is a FORMAT INVARIANT (v4):
    readers binary-search the term column directly, which is what keeps
    their startup O(1) in vocabulary size.  The segment's lineage counts
    the dictionary rows of ``hot_terms`` (the salt fan-out) and records
    ``salting``, the build's digest of how it salted (resume keys on it).
    """
    if group.num_rows == 0:
        return pa.table({"shard": pa.array([], type=pa.int32())})
    shard = int(group["shard"][0].as_py())
    terms = group["term"]
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    import ray as _ray

    doclens = _ray.get(doclens_ref) if doclens_ref is not None else None
    flat_pos = None
    if "pos" in group.schema.names:
        pos_col = group["pos"]
        if isinstance(pos_col, pa.ChunkedArray):
            pos_col = pos_col.combine_chunks()
        flat_pos = pos_col.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.int64)
    vocab, rank = lex_rank(terms)
    salt = group["salt"].to_numpy(zero_copy_only=False)
    builder = SegmentBuilder(f"seg-{shard:05d}", shard,
                             with_positions=flat_pos is not None)
    builder.set_lineage(n_input_postings=group.num_rows, salting=salting,
                        n_hot_rows=n_hot_rows(vocab, rank, salt, hot_terms))
    builder.add_postings(
        vocab, rank, salt,
        group["doc_id"].to_numpy(zero_copy_only=False),
        group["tf"].to_numpy(zero_copy_only=False), doclens, avgdl,
        positions=flat_pos)
    manifest = builder.write(os.path.join(index_dir, "segments", f"seg-{shard:05d}"))
    return pa.table(
        {
            "shard": pa.array([shard], type=pa.int32()),
            "n_terms": pa.array([manifest["n_terms"]], type=pa.int64()),
            "n_postings": pa.array([manifest["n_postings"]], type=pa.int64()),
            "sum_tf": pa.array([manifest["sum_tf"]], type=pa.int64()),
        }
    )


def _corpus_fingerprint(corpus) -> str | None:
    """Cheap corpus identity for checkpoint binding: sha256 over the sorted
    input-file list PLUS each file's (size, mtime_ns) — still metadata-only
    (no data pass), but rewriting a file's contents in place (same names)
    now invalidates stale staging instead of silently resuming from it.
    ``None`` when the Dataset has no file provenance (e.g. from_arrow, or a
    map_batches lineage that hides it) — then nothing can tell a rerun from
    a different corpus, so existing staging counts as stale and the build
    starts over (an in-memory corpus cannot outlive a killed build anyway);
    callers that want resume should pass ``corpus_fp=fingerprint_files(...)``
    to build_index instead."""
    try:
        files = corpus.input_files()
    except Exception:
        return None
    if not files:
        return None
    return fingerprint_files(files)


def fingerprint_files(files: list[str]) -> str:
    """The (name, size, mtime_ns) fingerprint over an explicit file list —
    for callers whose corpus Dataset has no recoverable file provenance."""
    parts = []
    for f in sorted(files):
        try:
            st = os.stat(f)
            parts.append(f"{f}\0{st.st_size}\0{st.st_mtime_ns}")
        except OSError:
            parts.append(f)  # remote/unstat-able path: name-only identity
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:16]


# Everything a build derives inside its index dir.  A rebuild removes all
# of it: tombstones belong to the PREVIOUS corpus too — doc ids are
# content-independent (repo, path, commit), so surviving tombstones would
# silently hide live docs of the rebuilt index.
_DERIVED_DIRS = ("staging", "segments", "docs", SHARD_DIR)
_DERIVED_FILES = ("STAGING.json", "MANIFEST.json", EXCLUDED, *FLAT_FILES)


def _remove_derived(index_dir: str) -> None:
    for name in _DERIVED_DIRS:
        p = os.path.join(index_dir, name)
        if os.path.exists(p):
            shutil.rmtree(p)
    for name in _DERIVED_FILES:
        p = os.path.join(index_dir, name)
        if os.path.exists(p):
            os.remove(p)
    remove_tombstone_files(index_dir)


def _staging_valid(index_dir: str, corpus_fp: str | None = None,
                   positions: bool | None = None) -> bool:
    p = os.path.join(index_dir, "STAGING.json")
    if not os.path.exists(p):
        return False
    try:
        with open(p) as f:
            meta = json.load(f)
        if not (os.path.isdir(os.path.join(index_dir, "staging")) and meta.get("ok")):
            return False
        if positions is not None and bool(meta.get("positions")) != positions:
            return False  # positional staging carries an extra column
        # checkpoints are bound to the corpus they were staged from: a
        # changed input-file list, or a corpus with no fingerprint at all,
        # invalidates staging (and everything derived from it) instead of
        # silently serving stale docs
        return corpus_fp is not None and meta.get("corpus_fp") == corpus_fp
    except (json.JSONDecodeError, OSError):
        return False


def hot_df_threshold(n_docs: int, hot_df_frac: float, hot_df_min: int) -> int:
    """The df at which a build salts a term (MANIFEST ``hot_df_threshold``)."""
    return max(hot_df_min, int(hot_df_frac * n_docs))


def _finished_manifest(index_dir: str, corpus_fp: str, *, lang_tagged: bool,
                       n_shards: int, salt_bits: int, hot_df_frac: float,
                       hot_df_min: int,
                       positions: bool = False) -> dict | None:
    """The index's manifest iff it is a COMPLETE build of exactly this
    (corpus, settings) — staging, forward arrays and every listed segment
    validate — else None.  The hot settings compare through the threshold
    they give (equal thresholds fold to the same hot set); a manifest
    without this build's ``placement`` record is rewritten by the slow
    resume, which keeps the segments salted alike.  Tombstones are untouched either way
    (same semantics as the slow resume path)."""
    from .docmap import doc_arrays_valid

    mpath = os.path.join(index_dir, "MANIFEST.json")
    if not os.path.exists(mpath):
        return None
    try:
        with open(mpath) as f:
            man = json.load(f)
    except (json.JSONDecodeError, OSError):
        return None
    if not (man.get("corpus_fp") == corpus_fp
            and man.get("lang_tagged") == lang_tagged
            and man.get("n_shards") == n_shards
            and man.get("salt_bits") == salt_bits
            and man.get("hot_df_threshold") == hot_df_threshold(
                man.get("n_docs", -1), hot_df_frac, hot_df_min)
            and man.get("placement") == PLACEMENT
            and bool(man.get("positions")) == positions
            and man.get("doc_ordinals")
            and _staging_valid(index_dir, corpus_fp, positions)
            and doc_arrays_valid(index_dir, man.get("n_docs", -1))):
        return None
    seg_root = os.path.join(index_dir, "segments")
    for s in man.get("segments", []):
        # quick (size-only) validation: the fast path runs on EVERY warm
        # serving call — re-hashing the whole index per call would be
        # O(index bytes); the slow-resume paths keep the full sha check
        if validate_segment(os.path.join(seg_root, s["segment_id"]),
                            quick=True) is None:
            return None
    return man


def build_index(
    corpus: "ray.data.Dataset",
    index_dir: str,
    *,
    lang_tagged: bool = False,
    n_shards: int = 32,
    salt_bits: int = 3,
    hot_df_frac: float = 0.005,
    hot_df_min: int = 512,
    overwrite: bool = False,
    corpus_fp: str | None = None,
    positions: bool = False,
    checkpoint: str = "parquet",
) -> dict:
    """Build (or resume) the inverted index; returns the final manifest.

    ``n_shards`` sizes the term-hash shuffle partitions (≈ 2-4x cluster CPUs;
    each shard must fit one worker's heap). ``salt_bits`` gives 2^bits salt
    buckets for hot terms. The corpus Dataset is consumed streaming; nothing
    is materialized except small aggregates.

    ``positions=True`` builds the positional sidecar (within-doc token
    positions per posting, codecs.encode_positions): phrase / NEAR queries
    then answer ENTIRELY from the index (phrase.positional_topk) — no
    candidate content fetch.  Costs ~1 extra byte per token in staging,
    the shuffle, and the segments; off by default.

    The forward arrays (doc ids by ordinal, doc lengths, lang codes; see
    docmap.py) come out in the flat layout up to ``DRIVER_SORT_MAX_DOCS``
    docs and in the sharded layout above it.

    ``checkpoint`` picks the staging strategy:

      * ``"parquet"`` (default): tokenize once into a staging parquet —
        the resume checkpoint the north rule requires (a killed build
        skips valid staging + segments on rerun) AND the index's docs
        table (read_docs / highlight / bm25_topk_docs read it with column
        pruning).  Costs one corpus-scale write + read.
      * ``"none"``: single-shot fused build — the tokenized batches are
        pinned in the OBJECT STORE (``materialize()``, ~190 B/doc,
        spillable) and both downstream passes (the ordinal pass, which
        also summarizes hot terms, and the shuffle) read them zero-copy;
        nothing corpus-scale touches disk except the segments.  No resume
        (a killed build restarts) and no docs table (read_docs raises —
        serve those from the source corpus).  The right mode for throwaway
        / benchmark builds and for pipelines whose source is already a
        resumable checkpoint one stage upstream.

    The returned manifest (``MANIFEST.json``) holds the corpus stats
    (``n_docs``, ``n_dropped_rows``, ``total_doc_len``, ``avgdl``,
    ``langs``, ``n_postings``), the settings a resume compares
    (``corpus_fp``, ``lang_tagged``, ``n_shards``, ``salt_bits``,
    ``positions``, ``hot_df_threshold``), ``placement`` (the term -> shard
    rule, ``ids.PLACEMENT``; the query side routes a lookup to the term's
    placement shards only when it recognises the record), ``hot_terms``
    (the salted terms), ``segments`` (one ``shard``/``segment_id``/
    ``n_terms``/``n_postings`` row per segment), ``timings`` and build
    ``counters``, plus ``format_version``, ``checkpoint`` and
    ``doc_ordinals``.
    """
    import time as _time

    if checkpoint not in ("parquet", "none"):
        raise ValueError(f"unknown checkpoint mode {checkpoint!r}")
    fused = checkpoint == "none"
    timings: dict[str, float] = {}
    _t = _time.perf_counter
    os.makedirs(index_dir, exist_ok=True)

    if overwrite or fused:
        # a fused build is single-shot by definition: leftover artifacts
        # (possibly from a different corpus) must not be resumed into
        _remove_derived(index_dir)

    staging_dir = os.path.join(index_dir, "staging")
    t0 = _t()
    if corpus_fp is None and not fused:
        corpus_fp = _corpus_fingerprint(corpus)

    # FAST full-resume: a finished index (manifest bound to this corpus
    # fingerprint + settings, staging/docmap/segments all valid) returns
    # immediately.  Without this, every re-entrant build pays 2 Dataset
    # pipelines of re-validation (the ordinal pass, shuffle-skip) — fixed
    # seconds that dominate warm serving paths like the phrase candidates.
    if not overwrite and not fused and corpus_fp is not None:
        man = _finished_manifest(index_dir, corpus_fp, lang_tagged=lang_tagged,
                                 n_shards=n_shards, salt_bits=salt_bits,
                                 hot_df_frac=hot_df_frac,
                                 hot_df_min=hot_df_min, positions=positions)
        if man is not None:
            return man
    if fused:
        import ray as _ray_mod

        n_input = corpus.count()
        staged_ds = corpus.map_batches(
            prepare_batch, batch_format="pyarrow",
            fn_kwargs={"lang_tagged": lang_tagged, "positions": positions},
        ).materialize()
        # coalesce fine-grained prepare output (one block per corpus read
        # task): every downstream exchange pays O(blocks x partitions)
        # intermediate objects, so 240 tiny blocks through a 64-shard
        # groupby cost more than the repartition pass that merges them
        tgt = max(16, int(_ray_mod.cluster_resources().get("CPU", 16)) * 2)
        if staged_ds.num_blocks() > 2 * tgt:
            staged_ds = staged_ds.repartition(tgt).materialize()
        n_docs = staged_ds.count()  # block metadata, no pass
        if n_docs == 0:
            raise ValueError("no indexable documents (all rows empty?)")
        n_dropped = n_input - n_docs

        def _staging_read(columns: list[str], fixed: bool = False):
            return staged_ds.select_columns(columns)  # blocks already fixed
    elif not _staging_valid(index_dir, corpus_fp, positions):
        # stale/absent staging: every derived artifact (segments, docmap,
        # manifest) came from that staging — drop them too, or a fingerprint
        # mismatch would rebuild staging yet keep serving stale segments
        _remove_derived(index_dir)
        n_input = corpus.count()
        staged_ds = corpus.map_batches(
            prepare_batch, batch_format="pyarrow",
            fn_kwargs={"lang_tagged": lang_tagged, "positions": positions},
        )
        staged_ds.write_parquet(staging_dir)
        if not os.path.isdir(staging_dir):  # zero indexable rows -> no files
            raise ValueError("no indexable documents (all rows empty?)")
        write_json_atomic(os.path.join(index_dir, "STAGING.json"),
                          {"ok": True, "n_input_rows": n_input,
                           "lang_tagged": lang_tagged, "corpus_fp": corpus_fp,
                           "positions": positions})
    if not fused:
        with open(os.path.join(index_dir, "STAGING.json")) as f:
            staging_meta = json.load(f)
        if staging_meta.get("lang_tagged") != lang_tagged:
            raise ValueError(
                "index_dir was staged with a different lang_tagged setting")
    timings["staging_sec"] = round(_t() - t0, 3)
    t0 = _t()

    # n_docs from parquet FOOTER metadata — zero data read, no pipeline;
    # every other stat comes from the one ordinal pass below
    if not fused:
        import pyarrow.parquet as _pq

        staging_files = sorted(
            os.path.join(staging_dir, f)
            for f in os.listdir(staging_dir)
            if f.endswith(".parquet")
        )
        n_docs = sum(_pq.read_metadata(f).num_rows for f in staging_files)
        if n_docs == 0:
            raise ValueError("no indexable documents (all rows empty?)")
        n_input = staging_meta["n_input_rows"]
        n_dropped = n_input - n_docs

        def _staging_read(columns: list[str], fixed: bool = False):
            # ``fixed``: one block per staging file, whatever the cluster
            # size, so a resumed build folds the same block summaries
            kw = {"override_num_blocks": len(staging_files)} if fixed else {}
            return ray.data.read_parquet(staging_files, columns=columns, **kw)
    timings["stats_sec"] = round(_t() - t0, 3)
    t0 = _t()

    # doc-ordinal map: sorted unique doc ids -> postings store dense ranks.
    # Up to DRIVER_SORT_MAX_DOCS docs a driver-side argsort is strictly
    # faster than a distributed-sort pipeline and writes the FLAT layout.
    # Above it the sort is DISTRIBUTED (ray.data range-partition sort over
    # the pruned read) and the sort's OUTPUT TASKS write per-range shard
    # files themselves (docmap.write_sharded): the driver only sees one
    # summary row per shard — nothing doc-scale flows through a driver
    # write cursor, so the path holds at 10^12 docs.  Either writer doubles
    # as the duplicate-identity check: equal ids end up adjacent.
    from .docmap import (doc_arrays_valid, lang_remap, open_doc_arrays,
                         write_flat, write_sharded)

    docmap_valid = doc_arrays_valid(index_dir, n_docs)
    # Stats (total_len, langs) and the hot-term summary come from ONE pass
    # over staging, ``staging_block`` per block in the Dataset's fixed block
    # order; the driver folds each block's bounded Misra-Gries summary as it
    # arrives (hotterms: at most 2 * capacity rows held, whatever the corpus)
    hot_threshold = hot_df_threshold(n_docs, hot_df_frac, hot_df_min)
    capacity = capacity_for(n_docs, hot_threshold)
    hot = MisraGries(capacity)
    total_len, langset, hot_sec = 0, set(), 0.0

    def _block_rows(ordinals: bool):
        ds = _staging_read(["doc_id", "doc_len", "lang", "terms"], fixed=True)
        ds = ds.map_batches(staging_block, batch_format="pyarrow",
                            batch_size=None, fn_kwargs={
                                "capacity": capacity, "ordinals": ordinals})
        opts = ds.context.execution_options  # shared with the input's lineage
        prev, opts.preserve_order = opts.preserve_order, True
        try:
            for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
                for i in range(b.num_rows):
                    yield b.slice(i, 1)
        finally:
            opts.preserve_order = prev

    def _absorb(row: pa.Table) -> None:
        nonlocal total_len, hot_sec
        total_len += row["total_len"][0].as_py()
        langset.update(row["langs"][0].as_py())
        t1 = _t()
        hot.merge(_cell(row, "hot_terms"), np.asarray(_cell(row, "hot_dfs")))
        hot_sec += _t() - t1

    if not docmap_valid and n_docs <= DRIVER_SORT_MAX_DOCS:
        # ONE fused pass: stats + hot summary + ordinal material.  Lang
        # codes arrive per block against the block's own langs and are
        # remapped to the global sorted list once the pass completes.
        ids, lens, codes = [], [], []
        for row in _block_rows(ordinals=True):
            _absorb(row)
            ids.append(np.asarray(_cell(row, "doc_id")))
            lens.append(np.asarray(_cell(row, "doc_len")))
            codes.append((np.asarray(_cell(row, "lang_code")),
                          row["langs"][0].as_py()))
        all_ids = np.concatenate(ids)
        order = np.argsort(all_ids, kind="stable")
        glob = sorted(langset)
        lv = np.concatenate([lang_remap(cv, glob)[lc] for lc, cv in codes])
        write_flat(index_dir, all_ids[order], np.concatenate(lens)[order],
                   lv[order])
    else:
        if not docmap_valid:
            # distributed range-partition sort; the sort's output tasks
            # write the per-range shard layout themselves
            write_sharded(_staging_read(["doc_id", "doc_len", "lang"])
                          .sort("doc_id"), index_dir, n_docs)
        # resume (ordinals exist) or the distributed sort, which cannot
        # carry the terms column: the same block pass without ordinals
        for row in _block_rows(ordinals=False):
            _absorb(row)
    avgdl = total_len / n_docs
    langs = sorted(langset)
    # memmap-backed handles: the driver never loads the arrays into its heap;
    # ray.put streams them into the object store as the one broadcast copy
    doc_arrays = open_doc_arrays(index_dir)
    import ray as _ray

    docmap_ref = _ray.put(doc_arrays.docmap_array())
    doclens_ref = _ray.put(doc_arrays.doclens_array())
    t1 = _t()
    hot_terms = frozenset(hot.hot(hot_threshold))
    hot_sec += _t() - t1
    timings["docmap_sec"] = round(_t() - t0 - hot_sec, 3)
    # hot_detect_sec: the driver-side fold of the block summaries
    timings["hot_detect_sec"] = round(hot_sec, 3)
    t0 = _t()

    seg_root = os.path.join(index_dir, "segments")
    os.makedirs(seg_root, exist_ok=True)
    # kept segments must be salted like this build (shards, salt bits, hot
    # set), or a term's postings would split between kept and rebuilt ones
    salting = hashlib.sha256(json.dumps(
        [n_shards, salt_bits, sorted(hot_terms)]).encode()).hexdigest()[:16]

    def _kept() -> dict[int, dict]:
        ms = (validate_segment(os.path.join(seg_root, name))
              for name in os.listdir(seg_root))
        return {m["shard"]: m for m in ms
                if m is not None and m["lineage"].get("salting") == salting}

    done = _kept()
    todo = [s for s in range(n_shards) if s not in done]

    # push-based shuffle: measured ~2x faster than the default sort exchange
    # for the low-cardinality shard key at this scale
    _ctx = ray.data.DataContext.get_current()
    _prev_push = getattr(_ctx, "use_push_based_shuffle", False)
    if todo:
        shuffle_cols = ["doc_id", "terms", "tfs"]
        if positions:
            shuffle_cols.append("positions")
        # the flag is process-wide: restore it even when the shuffle fails
        _ctx.use_push_based_shuffle = True
        try:
            postings = _staging_read(shuffle_cols).map_batches(
                explode_postings_batch, batch_format="pyarrow",
                fn_kwargs={
                    "n_shards": n_shards, "hot_terms": hot_terms,
                    "salt_bits": salt_bits, "skip_shards": frozenset(done),
                    "docmap_ref": docmap_ref, "n_docs": n_docs,
                },
            )
            grouped = postings.groupby("shard")
            seg_stats = grouped.map_groups(
                partial(build_segment_group, index_dir=index_dir,
                        avgdl=avgdl, doclens_ref=doclens_ref,
                        hot_terms=hot_terms, salting=salting),
                batch_format="pyarrow",
            )
            seg_stats.count()  # drive execution; manifests land on disk
        finally:
            _ctx.use_push_based_shuffle = _prev_push
        done = _kept()

    timings["shuffle_build_sec"] = round(_t() - t0, 3)
    segs = [m for _, m in sorted(done.items())]
    per_shard = [m["n_postings"] for m in segs]
    n_hot_rows = sum(m["lineage"].get("n_hot_rows", 0) for m in segs)
    # build counters, all from the segment manifests collected above
    counters = {
        "rows_in": int(n_input),
        "rows_dropped": int(n_dropped),
        "distinct_terms": sum(m["n_terms"] for m in segs) - n_hot_rows
        + len(hot_terms),
        "hot_terms": len(hot_terms),
        "salted_dict_rows": n_hot_rows,
        "summary_rows": hot.rows,
        "summary_capacity": capacity,
        "shard_postings_max": max(per_shard, default=0),
        "shard_postings_mean": round(sum(per_shard) / max(1, len(segs)), 1),
        "segment_bytes": sum(e.stat().st_size for m in segs for e in
                             os.scandir(f"{seg_root}/{m['segment_id']}")),
    }
    # NOTE: no separate docs-table write — the staging parquet IS the docs
    # table (read it with column pruning via ``read_docs``); avoids one full
    # read+write pass per build.
    manifest = {
        "format_version": 1,
        "timings": timings,
        "counters": counters,
        "n_docs": int(n_docs),
        "n_dropped_rows": int(n_dropped),
        "total_doc_len": int(total_len),
        "avgdl": float(avgdl),
        "langs": langs,
        "lang_tagged": lang_tagged,
        "corpus_fp": corpus_fp,
        "checkpoint": checkpoint,
        "n_shards": n_shards,
        "salt_bits": salt_bits,
        "doc_ordinals": True,  # postings store dense ranks; see docmap.py
        "positions": bool(positions),
        "placement": PLACEMENT,
        "hot_terms": sorted(hot_terms),
        "hot_df_threshold": hot_threshold,
        "n_postings": int(sum(per_shard)),
        "segments": [
            {"shard": m["shard"], "segment_id": m["segment_id"],
             "n_terms": m["n_terms"], "n_postings": m["n_postings"]}
            for m in segs
        ],
    }
    write_json_atomic(os.path.join(index_dir, "MANIFEST.json"), manifest,
                      indent=1)
    return manifest


def read_docs(index_dir: str, columns: list[str] | None = None,
              live_only: bool = False):
    """The index's docs table as a Dataset (identity, sha256, doc_len).

    Backed by the staging parquet with column pruning — the list columns
    (terms/tfs) are never read unless asked for.  A merged index (no staging
    of its own) lists its inputs' staging dirs under ``docs_sources``.

    ``live_only=True`` filters out tombstoned docs (delete.delete_docs) with
    a vectorized sorted-membership test per batch — the docs-side mirror of
    the query-side mask; a compacted index has no tombstones and streams
    through unchanged."""
    if columns is None:
        columns = ["doc_id", "repo", "path", "commit", "lang",
                   "content_sha256", "doc_len"]
    from .delete import read_excluded, read_tombstones

    drop = read_excluded(index_dir)
    if live_only:
        drop = np.union1d(drop, read_tombstones(index_dir))
    # the drop filter reads t["doc_id"]: when the caller pruned it away,
    # read it internally and project it back out after the filter
    strip_doc_id = len(drop) > 0 and "doc_id" not in columns
    if strip_doc_id:
        columns = ["doc_id"] + list(columns)
    staging = os.path.join(index_dir, "staging")
    if not os.path.isdir(staging):
        with open(os.path.join(index_dir, "MANIFEST.json")) as f:
            man = json.load(f)
        sources = man.get("docs_sources", [])
        if not sources:
            # built (or derived via merge/compact) from checkpoint='none'
            # inputs: object-store staging, nothing corpus-scale on disk
            raise ValueError(
                "index was built with checkpoint='none' (object-store "
                "staging, nothing corpus-scale on disk): it has no docs "
                "table — serve identity/content columns from the source "
                "corpus, or rebuild with checkpoint='parquet'")
        files = [
            os.path.join(d, f)
            for d in sources
            for f in sorted(os.listdir(d))
            if f.endswith(".parquet")
        ]
        ds = ray.data.read_parquet(files, columns=columns)
    else:
        ds = ray.data.read_parquet(staging, columns=columns)
    # compaction-excluded docs are gone from the index (no ordinal, no
    # postings) but still present in the backing staging parquet: filter
    # them UNCONDITIONALLY; live_only additionally hides tombstoned docs
    if len(drop):
        def _drop_dead(t: pa.Table, drop=drop,
                       strip=strip_doc_id) -> pa.Table:
            from .docmap import sorted_member

            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            dead, _ = sorted_member(drop, ids)
            if dead.any():
                t = t.filter(pa.array(~dead))
            return t.drop_columns(["doc_id"]) if strip else t

        ds = ds.map_batches(_drop_dead, batch_format="pyarrow")
    return ds
