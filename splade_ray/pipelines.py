"""Driver-facing pipelines: Ray Data callables mirrored 1:1 by sql.py oracles.

Each function takes ``sf_dir`` (a /root/testdata/sf* directory) and returns a
``ray.data.Dataset`` / ``pyarrow.Table``.  All run over the driver's
``documents`` table mapped to the corpus shape (corpus.documents_as_corpus_batch)
with an UNTAGGED analyzer, so the DuckDB oracles stay single-dialect; the
lang-tagged analyzer is exercised by ``entry()`` and the pytest parity suite
over the synthetic code corpus.

Ray is assumed already initialised by the caller (driver contract) — nothing
here calls ray.init/shutdown.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Sum

from .build import build_index, fingerprint_files, prepare_batch
from .corpus import documents_as_corpus_batch
from .phrase import positional_topk, rank_units
from .query import KINDS, _engine_cfg, run_queries, run_queries_sharded

# Shared query literals: the Ray side runs them through the engine, the SQL
# side embeds them as VALUES — both from this one constant.
DOC_QUERIES: list[tuple[int, str]] = [
    (0, "merge"),
    (1, "spark window"),
    (2, "vector join batch"),
    (3, "sparkWindow"),  # camelCase -> ["spark", "window"], same as (1)
    (4, "the"),
    (5, "customer filter"),
    (6, "nonexistentzzterm"),
    (7, "hash_join order"),
    (8, "stream stream stream"),  # qtf = 3
    (9, "slow fast big small"),
    (10, "!!! ..."),  # zero tokens
    (11, "agg"),
]
TOP_K = 10

# Prefix queries (Lucene PrefixQuery shape): engine expands each against the
# index dictionary, the oracle against the df CTE — both from this constant.
# "Vec" proves analyzer normalization (engine and oracle both normalize
# through tokens_py); "zzzz" matches nothing.
PREFIX_QUERIES: list[tuple[int, str]] = [
    (0, "merg"),
    (1, "wind"),
    (2, "Vec"),
    (3, "stream"),
    (4, "zzzz"),
    (5, "cust"),
]

# Fuzzy queries (Lucene FuzzyQuery, maxEdits=1): misspellings one edit from
# real corpus terms, plus one beyond reach of any term ("q9q9q9zz").
# "mrege" is TWO edits from "merge" (transposition) — plain Levenshtein
# treats it as distance 2, so it only matches if some other term is closer.
FUZZY_QUERIES: list[tuple[int, str]] = [
    (0, "merg"),       # deletion
    (1, "windoww"),    # insertion
    (2, "vectar"),     # substitution
    (3, "merge"),      # distance 0 + its neighborhood
    (4, "q9q9q9zz"),   # nothing within reach
    (5, "Agg"),        # normalization proof
]

# Fuzzy maxEdits=2 queries (Lucene FuzzyQuery via the Levenshtein-automaton
# dictionary intersect): "mrege" is the classic transposition = plain
# Levenshtein 2 from "merge" (the case maxEdits=1 documents as out of
# reach); "costumer" is two substitutions from "customer"; "filta" is a
# substitution + an insertion from "filter"; "q9q9q9zz" matches nothing.
FUZZY2_QUERIES: list[tuple[int, str]] = [
    (0, "mrege"),
    (1, "costumer"),
    (2, "filta"),
    (3, "Windox"),     # normalization proof + distance 1 ⊂ distance 2
    (4, "q9q9q9zz"),
]

# Wildcard queries (Lucene WildcardQuery shape): * = any run, ? = one char.
# "*er" exercises the leading-wildcard full-dictionary scan, "s*a*" the
# multi-star path, "Vec*r" normalization, "part" the no-wildcard TermQuery
# rewrite, "zz*9" a guaranteed miss.
WILDCARD_QUERIES: list[tuple[int, str]] = [
    (0, "merg*"),
    (1, "w?ndow"),
    (2, "*er"),
    (3, "s*a*"),
    (4, "Vec*r"),
    (5, "part"),
    (6, "zz*9"),
]

# Filtered queries (qid, query, dl_lo, dl_hi): BM25 restricted to docs
# whose token count lies in [dl_lo, dl_hi) — the ES bool+range-filter
# shape.  Corpus doc lengths span ~[10, 99]; (3) is an empty range and
# (4) a 1-token-wide band.
FILTERED_QUERIES: list[tuple[int, str, int, int]] = [
    (0, "merge window", 10, 50),
    (1, "spark window", 50, 100),
    (2, "vector join batch", 30, 70),
    (3, "stream", 0, 10),
    (4, "the", 60, 61),
]

# Boolean queries (qid, must, should, must_not) — analyzer-normalized
# single tokens; mirrors sql.bool_topk_sql roles exactly.
BOOL_QUERIES: list[tuple[int, list[str], list[str], list[str]]] = [
    (0, ["merge"], ["window", "batch"], []),
    (1, ["spark", "window"], [], []),          # pure conjunction
    (2, [], ["vector", "join"], ["merge"]),    # disjunction minus a term
    (3, ["merge"], [], ["merge"]),             # self-contradiction -> empty
    (4, ["nonexistentzzterm"], ["merge"], []),  # impossible must -> empty
    (5, ["stream"], ["stream", "filter"], []),  # dup across roles, qtf stays 1
    (6, [], ["agg"], []),                      # single should
]


# minimum_should_match boolean queries: (qid, must, should, must_not, msm).
# (0) pure should with msm=2 of 3; (1) must + msm over should; (2) msm
# equal to |should| (pure conjunction through the should leg); (3) msm
# larger than |should| -> empty; (4) msm=1 == plain disjunction.
BOOL_MSM_QUERIES: list[
        tuple[int, list[str], list[str], list[str], int]] = [
    (0, [], ["merge", "window", "batch"], [], 2),
    (1, ["stream"], ["vector", "join", "filter"], [], 2),
    (2, [], ["spark", "window"], [], 2),
    (3, [], ["merge", "window"], [], 3),
    (4, [], ["agg", "customer"], ["merge"], 1),
]


def _norm_first_token(queries: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """(qid, literal) normalized through the analyzer (first token) — the
    single source both the engine call and the SQL oracle embed, so the
    two sides can never disagree on normalization."""
    from .analyzer import tokens_py

    out = []
    for qid, p in queries:
        toks = tokens_py(p)
        if toks:
            out.append((qid, toks[0]))
    return out


def norm_prefixes() -> list[tuple[int, str]]:
    return _norm_first_token(PREFIX_QUERIES)


def norm_fuzzy() -> list[tuple[int, str]]:
    return _norm_first_token(FUZZY_QUERIES)


def norm_fuzzy2() -> list[tuple[int, str]]:
    return _norm_first_token(FUZZY2_QUERIES)


def norm_wildcards() -> list[tuple[int, str]]:
    """Wildcard patterns can't pass through the tokenizer (* and ? split);
    normalization is the engine's own rule — lowercase — applied here so
    the SQL oracle embeds the identical literal."""
    return [(qid, p.strip().lower()) for qid, p in WILDCARD_QUERIES
            if p.strip()]


def corpus_ds(sf_dir: str):
    return rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet")
    ).map_batches(documents_as_corpus_batch, batch_format="pyarrow")


def _staged(sf_dir: str, with_sha: bool = True):
    """``with_sha=False`` for consumers that never read content_sha256 —
    skips the most expensive per-row hash of the stage."""
    return corpus_ds(sf_dir).map_batches(
        prepare_batch, batch_format="pyarrow",
        fn_kwargs={"lang_tagged": False, "with_sha": with_sha},
    )


def _i64(t: pa.Table, cols: list[str]) -> pa.Table:
    for c in cols:
        i = t.schema.get_field_index(c)
        t = t.set_column(i, c, pc.cast(t[c], pa.int64()))
    return t


def corpus_docs(sf_dir: str):
    """docs table: deterministic doc_id, content sha256, token count."""
    return _staged(sf_dir).map_batches(
        lambda t: _i64(
            t.select(["doc_id", "repo", "path", "lang", "content_sha256", "doc_len"]),
            ["doc_len"],
        ),
        batch_format="pyarrow",
    )


def _postings_batch(t: pa.Table) -> pa.Table:
    terms = t["terms"]
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    parents = pc.list_parent_indices(terms)
    tfs = t["tfs"]
    if isinstance(tfs, pa.ChunkedArray):
        tfs = tfs.combine_chunks()
    return pa.table(
        {
            "term": terms.flatten(),
            "doc_id": t["doc_id"].take(parents),
            "tf": pc.cast(tfs.flatten(), pa.int64()),
        }
    )


def postings(sf_dir: str):
    """(term, doc_id, tf) triples — the relational sparse vector (SURVEY M3)."""
    return _staged(sf_dir, with_sha=False).map_batches(
        _postings_batch, batch_format="pyarrow")


def _partial_df_batch(t: pa.Table) -> pa.Table:
    """Per-batch combiner: collapse postings to per-term partials before the
    groupby shuffle (partial aggregation; ray_guide 'Aggregation at scale')."""
    enc = pc.dictionary_encode(t["term"].combine_chunks() if isinstance(
        t["term"], pa.ChunkedArray) else t["term"])
    codes = enc.indices.to_numpy(zero_copy_only=False)
    tfs = t["tf"].to_numpy(zero_copy_only=False)
    n = len(enc.dictionary)
    return pa.table(
        {
            "term": enc.dictionary,
            "df": pa.array(np.bincount(codes, minlength=n).astype(np.int64)),
            "cf": pa.array(np.bincount(codes, weights=tfs, minlength=n).astype(np.int64)),
        }
    )


def term_df(sf_dir: str):
    """Per-term document/collection frequency: partial per batch + tiny groupby."""
    return (
        postings(sf_dir)
        .map_batches(_partial_df_batch, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))
    )


def corpus_stats(sf_dir: str) -> pa.Table:
    docs = _staged(sf_dir, with_sha=False).select_columns(["doc_id", "doc_len"])
    n_docs = docs.count()
    total = docs.sum("doc_len")
    n_terms = term_df(sf_dir).count()
    return pa.table(
        {
            "n_docs": pa.array([n_docs], type=pa.int64()),
            "avgdl": pa.array([total / n_docs], type=pa.float64()),
            "total_tokens": pa.array([total], type=pa.int64()),
            "n_terms": pa.array([n_terms], type=pa.int64()),
        }
    )


def top_terms(sf_dir: str, n: int = 20):
    return term_df(sf_dir).sort(key=["df", "term"], descending=[True, False]).limit(n)


# contract indexes are cached per (sf dir, checkout): keying on this
# package's real path too keeps two checkouts from resuming each other's
# indexes, so a parent/change sweep runs each side's own writers
_PKG = os.path.dirname(os.path.realpath(__file__))


def _cache_dir(tag: str, sf_dir: str) -> str:
    """The cache dir of contract index ``tag`` over ``sf_dir``."""
    key = hashlib.sha256(
        f"{_PKG}\0{os.path.abspath(sf_dir)}".encode()).hexdigest()[:12]
    return os.path.join("/tmp/splade_ray_contract", key, tag)


def _contract_index(sf_dir: str) -> str:
    idx = _cache_dir("index", sf_dir)
    # the adapter map_batches hides file provenance from the Dataset, so
    # pass the explicit fingerprint: it binds the checkpoint to the parquet
    # AND enables build_index's fast full-resume (warm serving entries —
    # phrase candidates, repeat bm25 calls — skip the re-validation passes)
    fp = fingerprint_files([os.path.join(sf_dir, "documents.parquet")])
    build_index(corpus_ds(sf_dir), idx, lang_tagged=False, n_shards=8,
                corpus_fp=fp)
    return idx


_I64, _STR, _STRS = pa.int64(), pa.string(), pa.list_(pa.string())


def _rows_table(rows: list[tuple], **types: pa.DataType) -> pa.Table:
    """Query literal tuples -> a query table: field i of every tuple is
    column i, named and typed by the i-th keyword."""
    return pa.table({name: pa.array([r[i] for r in rows], type=t)
                     for i, (name, t) in enumerate(types.items())})


def _text_table(rows: list[tuple[int, str]]) -> pa.Table:
    """(query_id, text) literals -> the engine's query table."""
    return _rows_table(rows, query_id=_I64, query=_STR)


def _bool_table(rows: list[tuple], **more: pa.DataType) -> pa.Table:
    """(query_id, must, should, must_not[, min_should_match]) literals."""
    return _rows_table(rows, query_id=_I64, must=_STRS, should=_STRS,
                       must_not=_STRS, **more)


def _queries_table() -> pa.Table:
    return _text_table(DOC_QUERIES)


def _wide_ints(kind: str, cfg) -> list[str]:
    """The int32 columns (ranks, pages) of ``kind``'s output schema under
    engine config ``cfg``: _serve widens them to int64, the oracles'
    integer width."""
    return [f.name for f in KINDS[kind].schema_for(cfg)
            if f.type == pa.int32()]


def _serve(idx: str, table: pa.Table, kind: str, *, scorer: str = "taat",
           n_query_shards: int = 0, **engine_kwargs):
    """Answer ``table`` with query kind ``kind`` over the index at ``idx``:
    one QueryEngine pool of up to two actors (never more than there are
    queries), or — with ``n_query_shards`` — the doc-range fan-out
    (run_queries_sharded, one actor per range), whose answers are
    identical by construction.  The kind's int32 columns widen to int64."""
    ds = rd.from_arrow(table)
    kw = {"k": TOP_K, "scorer": scorer, "query_kind": kind,
          "engine_kwargs": engine_kwargs or None}
    if n_query_shards:
        res = run_queries_sharded(ds, idx, n_query_shards=n_query_shards,
                                  concurrency_per_shard=1, **kw)
    else:
        res = run_queries(ds, idx, concurrency=max(1, min(2, table.num_rows)),
                          **kw)
    wide = _wide_ints(kind, _engine_cfg(TOP_K, scorer, engine_kwargs))
    if not wide:
        return res
    return res.map_batches(_i64, fn_args=(wide,), batch_format="pyarrow")


def bm25_topk(sf_dir: str, scorer: str = "taat"):
    """Flagship: build (or resume) the inverted index over the documents
    corpus, answer DOC_QUERIES via the actor-pool engine, rank-identical to
    the pure-SQL BM25 oracle (sql.bm25_topk_sql)."""
    return _serve(_contract_index(sf_dir), _queries_table(), "text",
                  scorer=scorer)


def bm25_topk_sharded(sf_dir: str):
    """bm25_topk through the doc-range fan-out over 2 ordinal ranges (the
    100x serving shape: each pool holds only its slice of the index);
    same oracle as bm25_topk."""
    return _serve(_contract_index(sf_dir), _queries_table(), "text",
                  n_query_shards=2)


def suggest_topk(sf_dir: str, n: int = 5):
    """Completion suggester (Elasticsearch term-suggest analogue): each
    PREFIX_QUERIES prefix returns the top-n dictionary terms by document
    frequency, served entirely from the sorted term dictionary
    (query.TermSuggester — postings never decoded).  Ties break term ASC;
    df is the frozen build-time document frequency.  Value-identical to
    sql.suggest_topk_sql's starts_with + row_number oracle."""
    from .query import run_suggest

    idx = _contract_index(sf_dir)
    prefs = norm_prefixes()
    tbl = _text_table(prefs)
    return run_suggest(rd.from_arrow(tbl), idx, n=n, concurrency=2)


# Query-string queries: raw Lucene/ES mini-language strings, parsed by
# query.parse_query_string on BOTH sides (the oracle renders the parsed
# structure through bool_topk_sql with boosts).  (1) boost; (3)
# self-contradiction -> empty; (4) duplicate token takes the MAX boost;
# (5) impossible must -> empty.
QS_QUERIES: list[tuple[int, str]] = [
    (0, "+merge window batch"),
    (1, "spark window^3"),
    (2, "vector join -merge"),
    (3, "+merge -merge"),
    (4, "stream^2 filter stream"),
    (5, "+nonexistentzzterm merge"),
]


def parsed_qs_specs():
    """QS_QUERIES parsed into bool_topk_sql's (specs, boosts) inputs —
    the ONE parser (query.parse_query_string) feeds both the engine and
    the oracle, so a parser change cannot silently diverge them."""
    from .query import parse_query_string

    specs, boosts = [], {}
    for qid, s in QS_QUERIES:
        d = parse_query_string(s)
        specs.append((qid, d["must"], d["should"], d["must_not"]))
        if d["boosts"]:
            boosts[qid] = d["boosts"]
    return specs, boosts


# DisjunctionMax queries: (qid, [clause strings]) — each clause scores as
# its own BM25 bag; combined = best + tie x rest.  (2) single clause ==
# plain BM25; (3) one dead clause; (4) total miss.
DISMAX_QUERIES: list[tuple[int, list[str]]] = [
    (0, ["spark window", "hash join"]),
    (1, ["merge sort", "customer filter", "stream"]),
    (2, ["the"]),
    (3, ["nonexistentzzterm", "batch vector"]),
    (4, ["nonexistentzzterm"]),
]
DISMAX_TIE = (3, 10)  # tie_breaker 0.3 as an exact rational

# Boosting queries: (qid, positive, negative) — negative matches demote
# (x NEG_BOOST), never exclude.  (3) negative misses entirely == plain
# BM25; (4) positive misses == empty.
BOOSTING_QUERIES: list[tuple[int, str, str]] = [
    (0, "spark window", "join"),
    (1, "merge sort", "the"),
    (2, "customer filter", "batch stream"),
    (3, "hash join", "nonexistentzzterm"),
    (4, "nonexistentzzterm", "merge"),
]
NEG_BOOST = (1, 2)  # negative_boost 0.5 as an exact rational


TOP_HITS_N = 3  # per-lang-bucket size for the top_hits aggregation


# --------------------------------------------------------- wider coverage --

def _qterms_py() -> list[tuple[int, str, int]]:
    """DOC_QUERIES tokenized client-side -> (query_id, term, qtf) rows."""
    from .analyzer import tokens_py

    rows = []
    for qid, q in DOC_QUERIES:
        tf: dict[str, int] = {}
        for tok in tokens_py(q):
            tf[tok] = tf.get(tok, 0) + 1
        rows.extend((qid, t, n) for t, n in tf.items())
    return rows


def idf_coord_topk(sf_dir: str, top_k: int = TOP_K):
    """Relational scoring without an index: BM25 with k1=0 (each matching
    term contributes qtf*idf — coordination/IDF match).  qterms (tiny) are
    broadcast into a map over the postings stream; per-(query,doc) sums are
    one aggregate.  Second leg of the RRF hybrid (reference analogue: the
    dense leg of hybrid search, retrievers.py:110-128)."""
    import math

    from .build import SCORE_SCALE

    qrows = _qterms_py()
    # n_docs + query-term df in ONE fused corpus pass (_query_stats) — at
    # vocabulary scale the driver never holds the full term_df table
    n_docs, _total_len, df_rows = _query_stats(
        sf_dir, sorted({t for _, t, _ in qrows}))
    # per query term: quantization units of qtf * idf
    units_of = {}
    for qid, t, qtf in qrows:
        df = df_rows.get(t)
        if df is None:
            continue
        w = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        units_of.setdefault(t, []).append(
            (qid, int(round(qtf * w * SCORE_SCALE)))
        )

    # (term -> [(qid, units)]) flattened to aligned arrays for a vectorized
    # join-by-dictionary-code inside each batch
    qt_terms = sorted(units_of)
    qt_index = {t: i for i, t in enumerate(qt_terms)}
    qt_offsets = np.zeros(len(qt_terms) + 1, dtype=np.int64)
    flat_q, flat_u = [], []
    for i, t in enumerate(qt_terms):
        pairs = units_of[t]
        qt_offsets[i + 1] = qt_offsets[i] + len(pairs)
        flat_q.extend(q for q, _ in pairs)
        flat_u.extend(u for _, u in pairs)
    flat_q = np.asarray(flat_q, dtype=np.int64)
    flat_u = np.asarray(flat_u, dtype=np.int64)
    qt_arr = pa.array(qt_terms, type=pa.string())

    def _contrib(t: pa.Table) -> pa.Table:
        # ~99% of postings touch no query term: drop them with one vectorized
        # is_in before any Python-level work (the query-term set is tiny)
        term_col = t["term"]
        if isinstance(term_col, pa.ChunkedArray):
            term_col = term_col.combine_chunks()
        t = t.filter(pc.is_in(term_col, value_set=qt_arr))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        # survivors -> query-term indices; expand each to its (qid, units) run
        surv = t["term"]
        if isinstance(surv, pa.ChunkedArray):
            surv = surv.combine_chunks()
        idx = pc.index_in(surv, value_set=qt_arr).to_numpy(zero_copy_only=False)
        counts = (qt_offsets[idx + 1] - qt_offsets[idx]).astype(np.int64)
        row_rep = np.repeat(np.arange(len(idx), dtype=np.int64), counts)
        # position within each run: global index into flat_q/flat_u
        starts = np.repeat(qt_offsets[idx], counts)
        within = np.arange(len(row_rep), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        flat_pos = starts + within
        return pa.table(
            {
                "query_id": pa.array(flat_q[flat_pos], type=pa.int64()),
                "doc_id": pa.array(ids[row_rep], type=pa.int64()),
                "units": pa.array(flat_u[flat_pos], type=pa.int64()),
            }
        )

    return rank_units(
        postings(sf_dir).map_batches(_contrib, batch_format="pyarrow"),
        top_k)


# Chunker implementation lives in splade_ray.chunk (vectorized byte-gather
# fast path + Python fallback); re-exported names keep test/SQL call sites.
from .chunk import (  # noqa: E402
    CHUNK_OVERLAP,
    CHUNK_SEPARATORS,
    CHUNK_SIZE,
    chunk_fixed_batch,
    chunk_recursive_batch,
    recursive_chunks_py as _recursive_chunks,
)


def chunk_docs(sf_dir: str):
    """Fixed-window chunker (size 1000 / overlap 100): the reference's
    RecursiveCharacterTextSplitter role (M1) as a flat map, fully vectorized
    (chunk.chunk_fixed_batch)."""
    import os as _os

    import ray.data as rd

    return rd.read_parquet(
        _os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(chunk_fixed_batch, batch_format="pyarrow")


def chunk_docs_recursive(sf_dir: str):
    """Separator-aware recursive chunker (SURVEY M1, full semantics),
    lockstep-vectorized over the batch (chunk.chunk_recursive_batch)."""
    import os as _os

    import ray.data as rd

    return rd.read_parquet(
        _os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(chunk_recursive_batch, batch_format="pyarrow")


# Phrase queries (candidate + verify), shared by both match modes.
# ``substring`` mode: exact case-sensitive substring over the raw content.
# ``tokens`` mode: consecutive TOKEN positions (case/separator-insensitive:
# "sparkWindow" tokenizes to [spark, window] and matches "spark window").
# (10) matches nothing in either mode; (6) matches only in token mode.
PHRASE_QUERIES: list[tuple[int, str]] = [
    (0, "spark window"),
    (1, "hash join"),
    (2, "merge sort"),
    (3, "window agg"),
    (4, "stream filter"),
    (5, "vector"),
    (6, "sparkWindow"),
    (10, "no such phrase anywhere"),
]


def _token_phrase_flags(flat, parents: np.ndarray, n_rows: int,
                        ph_toks: list[list[str]]) -> np.ndarray:
    """(n_phrases, n_rows) bool: phrase i appears as CONSECUTIVE tokens in
    row r.  Same shifted-slice trick as the dedup shingles: the k joined
    slices of the flat token array enumerate every k-gram in the batch in
    one vectorized pass; a phrase hit is one string-equality compare."""
    flags = np.zeros((len(ph_toks), n_rows), dtype=bool)
    if len(flat) == 0:
        return flags
    by_len: dict[int, list[int]] = {}
    for i, toks in enumerate(ph_toks):
        if toks:
            by_len.setdefault(len(toks), []).append(i)
    for k, rows in by_len.items():
        m = len(flat) - k + 1
        if m <= 0:
            continue
        if k == 1:
            joined, valid, par_m = flat, None, parents
        else:
            joined = pc.binary_join_element_wise(
                *[flat.slice(i, m) for i in range(k)], " ")
            valid = parents[:m] == parents[k - 1:]
            par_m = parents[:m]
        for i in rows:
            eq = pc.equal(joined, " ".join(ph_toks[i])) \
                .to_numpy(zero_copy_only=False)
            hit = eq if valid is None else (eq & valid)
            if hit.any():
                flags[i, par_m[hit]] = True
    return flags


def _query_stats(sf_dir: str, qt_terms: list[str]):
    """(n_docs, total_len, {term: df}) for the tiny query-term set in ONE
    corpus pass: per batch, membership of each query term is a vectorized
    is_in over the flat token stream and df partials a bincount over
    packed (term, row) keys — the driver sees one partial row per batch.
    Replaces the count + sum + full-term_df prologue (three corpus passes,
    each re-tokenizing everything) that a ds.stats() audit flagged."""
    from . import DROP_WS
    from .analyzer import tokenize_flat

    qt_arr = pa.array(qt_terms, type=pa.string())

    def _p(t: pa.Table) -> pa.Table:
        content = t["content"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        trimmed = pc.utf8_trim(pc.fill_null(content, ""), characters=DROP_WS)
        keep = pc.not_equal(trimmed, "")
        content = content.filter(keep)
        n_rows = len(content)
        flat, parents = tokenize_flat(content, None)
        df = np.zeros(max(len(qt_terms), 1), dtype=np.int64)
        if len(flat) and len(qt_terms):
            sel_m = pc.is_in(flat, value_set=qt_arr)
            sel = sel_m.to_numpy(zero_copy_only=False)
            if sel.any():
                idx = pc.index_in(flat.filter(sel_m), value_set=qt_arr) \
                    .to_numpy(zero_copy_only=False).astype(np.int64)
                par = parents[sel]
                uniq = np.unique(idx * (1 << 32) + par)
                df = np.bincount(uniq >> 32, minlength=len(qt_terms)) \
                    .astype(np.int64)
        return pa.table(
            {
                "n_docs": pa.array([n_rows], type=pa.int64()),
                "total_len": pa.array([len(flat)], type=pa.int64()),
                "df": pa.array([df.tolist()], type=pa.list_(pa.int64())),
            }
        )

    rows = corpus_ds(sf_dir).map_batches(_p, batch_format="pyarrow").take_all()
    n_docs = sum(r["n_docs"] for r in rows)
    total_len = sum(r["total_len"] for r in rows)
    df_sum = np.zeros(max(len(qt_terms), 1), dtype=np.int64)
    for r in rows:
        df_sum += np.asarray(r["df"], dtype=np.int64)
    dfs = {t: int(df_sum[i]) for i, t in enumerate(qt_terms) if df_sum[i] > 0}
    return n_docs, total_len, dfs


PHRASE_PUSHDOWN_MAX = 200_000  # candidate raw-id cap for the Parquet filter


def _candidate_corpus(sf_dir: str, index_dir: str, cand64: np.ndarray):
    """Corpus-shape Dataset holding (a superset of) ONLY the candidate docs.

    The candidates' 63-bit ids map back to the driver table's own key
    through the index's staging parquet (a pruned 2-column semi-join scan:
    path = CAST(doc_id AS VARCHAR) under the documents adapter); the raw
    keys then push down as a Parquet filter on the source read, so
    non-candidate content never leaves storage (row-group pruning + late
    materialization).  Above PHRASE_PUSHDOWN_MAX candidates the filter
    expression would dominate the task spec — fall back to a full read and
    let the per-batch candidate mask (the correctness backstop in the
    caller) do the pruning."""
    from .build import read_docs
    from .docmap import sorted_member

    def _hit(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        ok, _ = sorted_member(cand64, ids)
        return t if bool(ok.all()) else t.filter(pa.array(ok))

    rows = (
        read_docs(index_dir, columns=["doc_id", "path"])
        .map_batches(_hit, batch_format="pyarrow")
        .take_all()
    )
    raw_ids = sorted(int(r["path"]) for r in rows)
    path = os.path.join(sf_dir, "documents.parquet")
    cols = ["doc_id", "text", "lang", "source"]
    if 0 < len(raw_ids) <= PHRASE_PUSHDOWN_MAX:
        import pyarrow.dataset as pads

        ds = rd.read_parquet(
            path, columns=cols,
            filter=pads.field("doc_id").isin(
                pa.array(raw_ids, type=pa.int64())),
        )
    else:
        ds = rd.read_parquet(path, columns=cols)
    return ds.map_batches(documents_as_corpus_batch, batch_format="pyarrow")


_EMPTY_RANKED = pa.table(
    {
        "query_id": pa.array([], type=pa.int64()),
        "rank": pa.array([], type=pa.int64()),
        "doc_id": pa.array([], type=pa.int64()),
        "score": pa.array([], type=pa.float64()),
    }
)


def _bm25_over_verified(sf_dir: str, lits: list[tuple[int, str]],
                        make_flags, top_k: int = TOP_K,
                        require_all_terms: bool = False):
    """Shared skeleton for verified-subset BM25 ranking, INDEX-ASSISTED
    (VERDICT r3 #1): stats from the built index's MANIFEST, per-term df
    from the segment dictionaries, candidate doc ordinals from the posting
    lists (phrase.candidate_ordinals — union of term lists, or per-query
    intersection when ``require_all_terms``), content fetched for ONLY the
    candidates (Parquet filter pushdown), then the vectorized
    ``make_flags(content, flat_tokens, token_parents, n_rows)`` verify and
    exact BM25 scoring run on that tiny set.  Only the per-(query, doc)
    sums shuffle.  Powers phrase (substring + token modes) and proximity;
    oracles unchanged (sql.phrase_*_sql)."""
    import math

    from . import B, DROP_WS, K1
    from .analyzer import doc_token_stats_from_flat, tokenize_flat, tokens_py
    from .build import SCORE_SCALE
    from .docmap import sorted_member
    from .ids import doc_id63_column
    from .phrase import candidate_ordinals, index_stats

    phrases = lits
    qrows: list[tuple[int, str, int]] = []
    for qid, ph in phrases:
        tf: dict[str, int] = {}
        for tok in tokens_py(ph):
            tf[tok] = tf.get(tok, 0) + 1
        qrows.extend((qid, t, n) for t, n in tf.items())
    qt_all_terms = sorted({t for _, t, _ in qrows})

    idx = _contract_index(sf_dir)
    n_docs, avgdl, df_rows = index_stats(idx, qt_all_terms)
    if require_all_terms:
        groups = [toks for _, ph in phrases if (toks := tokens_py(ph))]
        cand_ords = candidate_ordinals(idx, groups=groups)
    else:
        cand_ords = candidate_ordinals(idx, any_terms=qt_all_terms)
    if not len(cand_ords):
        return rd.from_arrow(_EMPTY_RANKED)
    from .docmap import open_doc_arrays

    cand64 = open_doc_arrays(idx).gather_ids(cand_ords)  # sorted (ordinals
    # are ranks in the sorted id space, so the gather preserves order)
    # per term: aligned (query row, qtf*idf) runs — same flattened-run join
    # as idf_coord_topk, but weights stay FLOAT here (the tf-saturation
    # factor is per-posting, so quantization happens at the posting)
    w_of: dict[str, list[tuple[int, float]]] = {}
    for qid, t, qtf in qrows:
        df = df_rows.get(t)
        if df is None:
            continue
        w = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        w_of.setdefault(t, []).append((qid, qtf * w))
    qt_terms = sorted(w_of)
    qt_arr = pa.array(qt_terms, type=pa.string())
    qt_offsets = np.zeros(len(qt_terms) + 1, dtype=np.int64)
    flat_q, flat_w = [], []
    for i, t in enumerate(qt_terms):
        pairs = w_of[t]
        qt_offsets[i + 1] = qt_offsets[i] + len(pairs)
        flat_q.extend(q for q, _ in pairs)
        flat_w.extend(w for _, w in pairs)
    flat_q = np.asarray(flat_q, dtype=np.int64)
    flat_w = np.asarray(flat_w, dtype=np.float64)
    qid_row = {qid: i for i, (qid, _) in enumerate(phrases)}
    flat_qrow = np.asarray([qid_row[q] for q in flat_q], dtype=np.int64)

    empty = pa.table(
        {
            "query_id": pa.array([], type=pa.int64()),
            "doc_id": pa.array([], type=pa.int64()),
            "units": pa.array([], type=pa.int64()),
        }
    )

    def _batch(t: pa.Table) -> pa.Table:
        # keep-filter mirrors build.prepare_batch (build.py:61-69)
        content = t["content"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        trimmed = pc.utf8_trim(pc.fill_null(content, ""), characters=DROP_WS)
        t = t.filter(pc.not_equal(trimmed, ""))
        if t.num_rows == 0 or not len(qt_terms):
            return empty
        # candidate mask FIRST (cheap id hash + searchsorted) so tokenize +
        # verify only ever touch candidate docs — the correctness backstop
        # when the fetch could not push the raw-id filter down
        ids_np = doc_id63_column(t["repo"], t["path"], t["commit"]) \
            .to_numpy(zero_copy_only=False)
        is_cand, _ = sorted_member(cand64, ids_np)
        if not is_cand.any():
            return empty
        if not bool(is_cand.all()):
            t = t.filter(pa.array(is_cand))
            ids_np = ids_np[is_cand]
        content = t["content"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        flat_toks, tok_parents = tokenize_flat(content, None)
        terms, tfs, dl = doc_token_stats_from_flat(
            flat_toks, tok_parents, t.num_rows)
        flags = make_flags(content, flat_toks, tok_parents, t.num_rows)
        parents = pc.list_parent_indices(terms).to_numpy(zero_copy_only=False)
        flat_terms = terms.flatten()
        flat_tfs = tfs.flatten().to_numpy(zero_copy_only=False)
        sel_m = pc.is_in(flat_terms, value_set=qt_arr)
        sel = sel_m.to_numpy(zero_copy_only=False)
        if not sel.any():
            return empty
        idx = pc.index_in(flat_terms.filter(sel_m), value_set=qt_arr) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        par = parents[sel]
        tfv = flat_tfs[sel].astype(np.float64)
        counts = qt_offsets[idx + 1] - qt_offsets[idx]
        row_rep = np.repeat(np.arange(len(idx), dtype=np.int64), counts)
        starts = np.repeat(qt_offsets[idx], counts)
        within = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts)
        pos = starts + within
        p_exp = par[row_rep]
        ok = flags[flat_qrow[pos], p_exp]  # phrase verified for this doc?
        if not ok.any():
            return empty
        pos, p_exp = pos[ok], p_exp[ok]
        tfe = tfv[row_rep[ok]]
        dle = dl[p_exp].astype(np.float64)
        # quantization spec pinned to sql._bm25_ranked_cte / engine
        # _contrib_units: round(((qtf*idf) * sat) * SCALE)
        sat = ((K1 + 1.0) * tfe) / (
            tfe + K1 * ((1.0 - B) + (B * dle) / avgdl))
        units = np.round(flat_w[pos] * sat * SCORE_SCALE).astype(np.int64)
        return pa.table(
            {
                "query_id": pa.array(flat_q[pos], type=pa.int64()),
                "doc_id": pa.array(ids_np[p_exp], type=pa.int64()),
                "units": pa.array(units, type=pa.int64()),
            }
        )

    return rank_units(
        _candidate_corpus(sf_dir, idx, cand64)
        .map_batches(_batch, batch_format="pyarrow"), top_k)


def phrase_topk(sf_dir: str, top_k: int = TOP_K, match: str = "substring"):
    """Phrase search without positional postings (candidate + verify).

    ``match="substring"``: exact substring of the raw content
    (sql.phrase_topk_sql oracle).  ``match="tokens"``: consecutive token
    positions via the batch k-gram enumeration — true positional phrase
    semantics with no positional index (sql.phrase_topk_tokens_sql)."""
    from .analyzer import tokens_py

    phrases = PHRASE_QUERIES
    ph_toks = [tokens_py(ph) for _, ph in phrases]

    if match == "tokens":
        def make_flags(content, flat, parents, n_rows):
            return _token_phrase_flags(flat, parents, n_rows, ph_toks)
    else:
        def make_flags(content, flat, parents, n_rows):
            return np.stack([
                pc.match_substring(content, ph).to_numpy(zero_copy_only=False)
                for _, ph in phrases
            ])

    # token-mode verification implies every phrase token is present ->
    # intersection candidates; a substring can cross token boundaries ->
    # union candidates (phrase.py module docstring)
    return _bm25_over_verified(sf_dir, phrases, make_flags, top_k,
                               require_all_terms=(match == "tokens"))


def _contract_index_pos(sf_dir: str) -> str:
    """Shared POSITIONAL contract index (build_index(positions=True)) —
    cached separately from _contract_index: positional staging carries an
    extra column, and the non-positional entries must not pay for it."""
    idx = _cache_dir("pos", sf_dir)
    fp = fingerprint_files([os.path.join(sf_dir, "documents.parquet")])
    build_index(corpus_ds(sf_dir), idx, lang_tagged=False, n_shards=8,
                corpus_fp=fp, positions=True)
    return idx


def phrase_topk_positional(sf_dir: str, top_k: int = TOP_K):
    """Token-phrase search answered ENTIRELY from the positional index:
    candidates, verification (consecutive within-doc token positions) and
    BM25 scoring all come from the posting + position sidecar — no content
    fetch, no re-tokenize.  Result-identical to phrase_topk(match="tokens")
    and to the same SQL oracle (sql.phrase_topk_tokens_sql)."""
    from .analyzer import tokens_py

    specs = [{"qid": qid, "kind": "phrase", "tokens": tokens_py(ph)}
             for qid, ph in PHRASE_QUERIES]
    qterms: list[tuple[int, str, int]] = []
    for qid, ph in PHRASE_QUERIES:
        tf: dict[str, int] = {}
        for tok in tokens_py(ph):
            tf[tok] = tf.get(tok, 0) + 1
        qterms.extend((qid, t, n) for t, n in tf.items())
    return positional_topk(_contract_index_pos(sf_dir), specs, qterms,
                           top_k)


# Span-NEAR queries: (qid, [terms], window) — every term inside a window of
# <= ``window`` positions (max pos - min pos), in listed order for the
# ordered entry.  Terms must be distinct.
SPAN_QUERIES: list[tuple[int, list[str], int]] = [
    (0, ["spark", "window", "join"], 6),
    (1, ["hash", "join", "order"], 8),
    (2, ["merge", "sort"], 4),
    (3, ["customer", "filter", "batch"], 10),
    (10, ["nonexistentzzterm", "join", "batch"], 6),
]


def span_near_topk(sf_dir: str, top_k: int = TOP_K, ordered: bool = True):
    """Multi-term span-NEAR (Lucene SpanNearQuery) answered entirely from
    the positional index: every listed term inside a <= ``window``-position
    span, in listed order when ``ordered``.  Verification is vectorized
    over packed (ordinal<<32|pos) keys — a greedy searchsorted chain DP
    (ordered) or a per-label cummax min-window sweep (unordered); packed
    keys make doc-crossing windows impossible for free.  Oracle:
    sql.span_near_topk_sql."""
    specs = [{"qid": qid, "kind": "span", "terms": terms, "window": w,
              "ordered": ordered}
             for qid, terms, w in SPAN_QUERIES]
    qterms = [(qid, t, 1) for qid, terms, _ in SPAN_QUERIES for t in terms]
    return positional_topk(_contract_index_pos(sf_dir), specs, qterms,
                           top_k)


def phrase_near_positional(sf_dir: str, top_k: int = TOP_K,
                           ordered: bool = True):
    """NEAR/slop proximity answered entirely from the positional index
    (same window semantics as phrase_near_topk; oracle
    sql.phrase_near_topk_sql / sql.phrase_near_unordered_sql)."""
    specs = [{"qid": qid, "kind": "near", "a": a, "b": b, "slop": slop,
              "ordered": ordered}
             for qid, a, b, slop in NEAR_QUERIES]
    qterms = [(qid, t, 1) for qid, a, b, _ in NEAR_QUERIES for t in (a, b)]
    return positional_topk(_contract_index_pos(sf_dir), specs, qterms,
                           top_k)


# SpanFirst queries: (qid, term, limit) — the term within the first
# ``limit`` tokens of the doc (Lucene SpanFirstQuery; e.g. "title-ish"
# matching on untyped text).  (4) is an absent term.
SPAN_FIRST_QUERIES: list[tuple[int, str, int]] = [
    (0, "import", 3),
    (1, "merge", 10),
    (2, "window", 1),
    (3, "customer", 25),
    (4, "nonexistentzzterm", 5),
]


# Phrase-prefix queries (ES match_phrase_prefix — autocomplete): the last
# whitespace token is an OPEN prefix, everything before it exact-consecutive.
# (2) single-token pure prefix; (4) miss.
PHRASE_PREFIX_QUERIES: list[tuple[int, str]] = [
    (0, "spark win"),
    (1, "hash jo"),
    (2, "merg"),
    (3, "customer filt"),
    (4, "nonexistentzz pre"),
]


def phrase_prefix_topk(sf_dir: str, top_k: int = TOP_K):
    """match_phrase_prefix (Elasticsearch — the autocomplete query):
    tokens[:-1] must appear exact-consecutive, the next position held by
    ANY dictionary term with the last token as prefix.  Answered entirely
    from the positional sidecar: prefix expansion against the sorted
    dictionary (one contiguous run), packed-key phrase chain, one union
    intersect for the open position.  Scored as a qtf=1 BM25 bag over the
    exact tokens + every expansion term (the uniform rewrite shared with
    prefix/wildcard).  Rank-identical to sql.phrase_prefix_topk_sql."""
    from .analyzer import tokens_py
    from .query import QueryEngine

    idx = _contract_index_pos(sf_dir)
    eng = QueryEngine(idx, k=1)  # driver-side dictionary handle
    specs, qterms = [], []
    for qid, q in PHRASE_PREFIX_QUERIES:
        toks = tokens_py(q)
        if not toks:
            continue
        head, pre = toks[:-1], toks[-1]
        specs.append({"qid": qid, "kind": "phrase_prefix", "tokens": head,
                      "prefix": pre})
        bag = dict.fromkeys(head)
        bag.update(dict.fromkeys(eng.expand_prefix(pre)))
        qterms.extend((qid, t, 1) for t in bag)
    return positional_topk(idx, specs, qterms, top_k)


# SpanOr queries: (qid, [clause, ...]) — each clause a token-phrase; a doc
# matches when ANY clause occurs (Lucene SpanOrQuery).  (3) dead first
# clause rescued by the second; (4) total miss.
SPAN_OR_QUERIES: list[tuple[int, list[list[str]]]] = [
    (0, [["spark", "window"], ["hash", "join"]]),
    (1, [["merge", "sort"], ["order"]]),
    (2, [["customer", "filter"], ["batch", "stream"]]),
    (3, [["nonexistentzzterm", "join"], ["batch"]]),
    (4, [["nonexistentzzterm"]]),
]

# SpanNot queries: (qid, include-tokens, exclude-term, pre, post) — an
# include-phrase match survives iff no exclude occurrence lies within
# ``pre`` positions before its start or ``post`` after its end (Lucene
# SpanNotQuery).  (4) include never matches.
SPAN_NOT_QUERIES: list[tuple[int, list[str], str, int, int]] = [
    (0, ["spark", "window"], "join", 2, 2),
    (1, ["merge"], "sort", 0, 3),
    (2, ["hash", "join"], "order", 1, 1),
    (3, ["customer"], "filter", 4, 4),
    (4, ["nonexistentzzterm"], "join", 1, 1),
]


def span_or_topk(sf_dir: str, top_k: int = TOP_K):
    """SpanOrQuery (Lucene): union of clause spans — a doc qualifies when
    ANY clause token-phrase occurs, answered entirely from the positional
    sidecar (each clause runs the packed-key consecutive-position chain;
    verified sets union).  Scored as the BM25 bag over ALL clause tokens
    (qtf = multiplicity across clauses) restricted to verified docs — terms
    of a non-matching clause absent from the doc contribute nothing, the
    Lucene SpanOr-as-disjunction weight shape.  Rank-identical to
    sql.span_or_topk_sql."""
    specs = [{"qid": qid, "kind": "span_or", "clauses": clauses}
             for qid, clauses in SPAN_OR_QUERIES]
    qterms: list[tuple[int, str, int]] = []
    for qid, clauses in SPAN_OR_QUERIES:
        tf: dict[str, int] = {}
        for toks in clauses:
            for t in toks:
                tf[t] = tf.get(t, 0) + 1
        qterms.extend((qid, t, n) for t, n in tf.items())
    return positional_topk(_contract_index_pos(sf_dir), specs, qterms,
                           top_k)


def span_not_topk(sf_dir: str, top_k: int = TOP_K):
    """SpanNotQuery (Lucene): include token-phrase matches whose span,
    widened by ``pre``/``post`` positions, contains NO occurrence of the
    exclude term; a doc qualifies when at least one match survives.
    Answered entirely from the positional sidecar (phrase chain + two
    searchsorted calls against the exclude term's packed keys).  Scored as
    the BM25 bag over the INCLUDE tokens only (the exclusion never scores
    — Lucene SpanNotQuery.scorer semantics).  Rank-identical to
    sql.span_not_topk_sql."""
    specs = [{"qid": qid, "kind": "span_not", "tokens": toks,
              "exclude": ex, "pre": pre, "post": post}
             for qid, toks, ex, pre, post in SPAN_NOT_QUERIES]
    qterms: list[tuple[int, str, int]] = []
    for qid, toks, _ex, _pre, _post in SPAN_NOT_QUERIES:
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        qterms.extend((qid, t, n) for t, n in tf.items())
    return positional_topk(_contract_index_pos(sf_dir), specs, qterms,
                           top_k)


def span_first_topk(sf_dir: str, top_k: int = TOP_K):
    """SpanFirstQuery (Lucene): docs where the term occurs within the
    first ``limit`` token positions, BM25-ranked on that term — answered
    entirely from the positional sidecar (one packed-key mask per query,
    no content fetch).  Rank-identical to sql.span_first_topk_sql."""
    specs = [{"qid": qid, "kind": "first", "term": t, "limit": lim}
             for qid, t, lim in SPAN_FIRST_QUERIES]
    qterms = [(qid, t, 1) for qid, t, _ in SPAN_FIRST_QUERIES]
    return positional_topk(_contract_index_pos(sf_dir), specs, qterms,
                           top_k)


# SpanPositionRange queries: (qid, term, lo, hi) — the term occurs at a
# 0-based position in [lo, hi).  (1) is the lo=0 SpanFirst special case,
# (2) a single-position window, (3) matches nothing.
SPAN_RANGE_QUERIES: list[tuple[int, str, int, int]] = [
    (0, "spark", 2, 12),
    (1, "merge", 0, 8),
    (2, "join", 5, 6),
    (3, "nonexistentzzterm", 0, 64),
    (4, "window", 10, 40),
]


def span_range_topk(sf_dir: str, top_k: int = TOP_K):
    """SpanPositionRangeQuery (Lucene): docs where the term occurs at a
    0-based position in [lo, hi) — SpanFirstQuery generalized to an
    arbitrary window, answered entirely from the positional sidecar (one
    packed-key mask per query).  BM25-ranked on the term; rank-identical
    to sql.span_range_topk_sql."""
    specs = [{"qid": qid, "kind": "pos_range", "term": t, "lo": lo,
              "hi": hi}
             for qid, t, lo, hi in SPAN_RANGE_QUERIES]
    qterms = [(qid, t, 1) for qid, t, _, _ in SPAN_RANGE_QUERIES]
    return positional_topk(_contract_index_pos(sf_dir), specs, qterms,
                           top_k)


# MultiPhrase queries: (qid, [[alternatives], ...]) — a consecutive chain
# where each position matches ANY of its alternative terms (Lucene
# MultiPhraseQuery — phrase with synonyms / multi-token analysis).
# (3) dead middle position; (4) single-position pure disjunction.
MULTI_PHRASE_QUERIES: list[tuple[int, list[list[str]]]] = [
    (0, [["spark", "hash"], ["window", "join"]]),
    (1, [["merge"], ["sort", "order"]]),
    (2, [["customer", "user"], ["filter"]]),
    (3, [["batch"], ["nonexistentzzterm"], ["stream"]]),
    (4, [["window", "join"]]),
]


def multi_phrase_topk(sf_dir: str, top_k: int = TOP_K):
    """MultiPhraseQuery (Lucene): consecutive-position chain with a term
    ALTERNATIVE SET per position (phrase-with-synonyms), answered entirely
    from the positional sidecar — per-position occurrence unions feed the
    same packed-key chain as the exact phrase.  Scored as the BM25 bag
    over every alternative term (qtf = multiplicity across positions)
    restricted to verified docs — absent alternatives contribute nothing,
    the Lucene MultiPhrase weight shape shared with span_or.
    Rank-identical to sql.multi_phrase_topk_sql."""
    specs = [{"qid": qid, "kind": "multi_phrase", "positions": poss}
             for qid, poss in MULTI_PHRASE_QUERIES]
    qterms: list[tuple[int, str, int]] = []
    for qid, poss in MULTI_PHRASE_QUERIES:
        tf: dict[str, int] = {}
        for alts in poss:
            for t in alts:
                tf[t] = tf.get(t, 0) + 1
        qterms.extend((qid, t, n) for t, n in tf.items())
    return positional_topk(_contract_index_pos(sf_dir), specs, qterms,
                           top_k)


# SpanContaining / SpanWithin queries: (qid, big_a, big_b, window, little
# tokens) — the "big" span is an (a ... b) occurrence pair spanning
# <= ``window`` positions; the "little" token-phrase must lie fully inside
# it (a <= start AND end <= b).  big_a != big_b.  (3) dead little;
# (4) dead big side.
SPAN_CONTAIN_QUERIES: list[tuple[int, str, str, int, list[str]]] = [
    (0, "spark", "join", 8, ["window"]),
    (1, "hash", "order", 10, ["join"]),
    (2, "merge", "batch", 12, ["sort"]),
    (3, "customer", "stream", 10, ["nonexistentzzterm"]),
    (4, "nonexistentzzterm", "join", 6, ["batch"]),
]


def _span_contain_specs() -> list[dict]:
    return [{"qid": qid, "kind": "contain", "big_a": a, "big_b": b,
             "window": w, "tokens": toks}
            for qid, a, b, w, toks in SPAN_CONTAIN_QUERIES]


def span_containing_topk(sf_dir: str, top_k: int = TOP_K):
    """SpanContainingQuery (Lucene): big spans — (big_a, big_b) occurrence
    pairs spanning <= window positions — that fully contain a little
    token-phrase match.  Doc-level existence is one searchsorted per side
    in the positional kernel (phrase.positional_units_batch "contain").
    Scored as the BM25 bag over the BIG span's terms (the containing
    query's weight — Lucene SpanContainingQuery.scorer uses the big
    side).  Rank-identical to sql.span_contain_topk_sql(score="big")."""
    qterms = [(qid, t, 1)
              for qid, a, b, _w, _toks in SPAN_CONTAIN_QUERIES
              for t in (a, b)]
    return positional_topk(_contract_index_pos(sf_dir),
                           _span_contain_specs(), qterms, top_k)


def span_within_topk(sf_dir: str, top_k: int = TOP_K):
    """SpanWithinQuery (Lucene): the same containment test as
    span_containing_topk — little token-phrase matches inside a
    <= window (big_a, big_b) pair — but scored as the BM25 bag over the
    LITTLE side's tokens (Lucene SpanWithinQuery.scorer uses the little
    side).  Rank-identical to sql.span_contain_topk_sql(score="little")."""
    qterms: list[tuple[int, str, int]] = []
    for qid, _a, _b, _w, toks in SPAN_CONTAIN_QUERIES:
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        qterms.extend((qid, t, n) for t, n in tf.items())
    return positional_topk(_contract_index_pos(sf_dir),
                           _span_contain_specs(), qterms, top_k)


# Proximity queries: (qid, first-term, second-term, slop) — second term must
# appear AFTER the first within ``slop`` token positions (slop 1 = adjacent).
NEAR_QUERIES: list[tuple[int, str, str, int]] = [
    (0, "spark", "window", 3),
    (1, "hash", "join", 2),
    (2, "merge", "sort", 5),
    (3, "customer", "filter", 4),
    (10, "nonexistentzzterm", "join", 3),
]


def phrase_near_topk(sf_dir: str, top_k: int = TOP_K, ordered: bool = True):
    """Proximity search (NEAR/slop): doc qualifies when the second term
    occurs within ``slop`` positions of the first — AFTER it when
    ``ordered`` (the default), on either side when not; qualifying docs are
    BM25-ranked on both terms.  The window test is one searchsorted over
    (row, position)-encoded keys per query — no per-doc Python, no
    positional index.  Oracles: sql.phrase_near_topk_sql (ordered) /
    sql.phrase_near_unordered_sql."""
    lits = [(qid, f"{a} {b}") for qid, a, b, _ in NEAR_QUERIES]

    def make_flags(content, flat, parents, n_rows):
        flags = np.zeros((len(NEAR_QUERIES), n_rows), dtype=bool)
        if len(flat) == 0:
            return flags
        # within-row token positions: 0,1,2,... per row
        counts = np.bincount(parents, minlength=n_rows)
        pos = np.arange(len(parents), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts)
        # (row, pos) packed keys: rows are >= 2^32 apart, so a slop window
        # can never leak across rows
        keys = parents.astype(np.int64) * (1 << 32) + pos
        for i, (_qid, a, b, slop) in enumerate(NEAR_QUERIES):
            ka = keys[pc.equal(flat, a).to_numpy(zero_copy_only=False)]
            kb = keys[pc.equal(flat, b).to_numpy(zero_copy_only=False)]
            if not len(ka) or not len(kb):
                continue
            win_lo = ka + 1 if ordered else ka - slop
            lo = np.searchsorted(kb, win_lo, side="left")
            hi = np.searchsorted(kb, ka + slop, side="right")
            # a != b terms, so kb never equals ka: the [ka-slop, ka+slop]
            # window needs no self-position exclusion
            hit_a = ka[lo < hi]
            if len(hit_a):
                flags[i, (hit_a >> 32)] = True
        return flags

    # a NEAR window needs BOTH terms in the doc -> intersection candidates
    return _bm25_over_verified(sf_dir, lits, make_flags, top_k,
                               require_all_terms=True)


def bm25_topk_docs(sf_dir: str):
    """BM25 results joined with doc metadata (A6 doc fetch: the reference
    returns pk+text with each hit, retrievers.py:81,140).  Hash join on
    doc_id via Dataset.join."""
    res = bm25_topk(sf_dir, scorer="taat")
    docs = corpus_docs(sf_dir).select_columns(["doc_id", "repo", "path", "lang"])
    joined = res.join(docs, join_type="inner", on=("doc_id",), num_partitions=4)
    return joined


MLT_N_SOURCES = 3    # ordinals 0..2 == the 3 smallest 63-bit doc ids
MLT_MAX_TERMS = 10   # Lucene MoreLikeThis maxQueryTerms analogue
MLT_MIN_DF = 2       # minDocFreq: a df=1 term only matches its source


def mlt_topk(sf_dir: str):
    """More-like-this (Lucene MoreLikeThisQuery): for each source doc (the
    MLT_N_SOURCES smallest doc ids — ordinals 0..2 by construction), select
    its MLT_MAX_TERMS highest tf·idf terms (df from the segment
    dictionaries, df >= MLT_MIN_DF, ties by term asc) and run them as a
    should-only boolean query with the source doc excluded.  Content is
    fetched for ONLY the source docs (_candidate_corpus pushdown — the
    index has no forward term vectors, same as Lucene MLT without stored
    term vectors); everything else comes from the index.  Rank-identical
    to sql.mlt_topk_sql."""
    import math
    from collections import Counter

    from .analyzer import tokens_py
    from .docmap import open_doc_arrays
    from .ids import doc_id63
    from .phrase import index_stats

    idx = _contract_index(sf_dir)
    docs = open_doc_arrays(idx)
    src64 = np.sort(docs.gather_ids(
        np.arange(MLT_N_SOURCES, dtype=np.int64)))
    src_set = set(src64.tolist())
    content_by_id: dict[int, str] = {}
    for r in _candidate_corpus(sf_dir, idx, src64).take_all():
        did = doc_id63(r["repo"], r["path"], r["commit"])
        if did in src_set:  # mask backstop over the pushdown superset
            content_by_id[did] = r.get("content") or ""
    all_terms = sorted({t for c in content_by_id.values()
                        for t in tokens_py(c)})
    n_docs, _avgdl, dfs = index_stats(idx, all_terms)
    qids, shoulds, excludes = [], [], []
    for qid, did in enumerate(src64.tolist()):
        tf = Counter(tokens_py(content_by_id[did]))
        scored = []
        for t, f in tf.items():
            df = dfs.get(t, 0)
            if df < MLT_MIN_DF:
                continue
            w = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            scored.append((-(f * w), t))
        scored.sort()  # tf*idf desc, term asc — sql.mlt_topk_sql's ORDER BY
        qids.append(qid)
        shoulds.append([t for _, t in scored[:MLT_MAX_TERMS]])
        excludes.append([did])
    tbl = pa.table({
        "query_id": pa.array(qids, type=pa.int64()),
        "must": pa.array([[] for _ in qids], type=pa.list_(pa.string())),
        "should": pa.array(shoulds, type=pa.list_(pa.string())),
        "must_not": pa.array([[] for _ in qids], type=pa.list_(pa.string())),
        "exclude_ids": pa.array(excludes, type=pa.list_(pa.int64())),
    })
    return _serve(idx, tbl, "bool")


SIG_MAX_TERMS = 10  # per query
SIG_MIN_FG = 2      # term must appear in >= 2 result docs


def sig_terms(sf_dir: str, top_k: int = TOP_K):
    """Significant-terms aggregation (Elasticsearch significant_terms) over
    each DOC_QUERIES result page: for every term in the top-k docs, compare
    its FOREGROUND document rate (fg/k) against its corpus BACKGROUND rate
    (df/n_docs); keep the SIG_MAX_TERMS highest-lift terms with fg >=
    SIG_MIN_FG.  Result-page content is fetched via the candidate pushdown
    (k·|queries| docs, O(1) in corpus size); df comes from the segment
    dictionaries; lift = (fg·n_docs)/(k_actual·df) computed with one IEEE
    float expression replayed verbatim in sql.sig_terms_sql."""
    from collections import Counter

    from .analyzer import tokens_py
    from .ids import doc_id63
    from .phrase import index_stats

    idx = _contract_index(sf_dir)
    res = bm25_topk(sf_dir, scorer="taat").take_all()
    docs_per_q: dict[int, list[int]] = {}
    for r in res:
        docs_per_q.setdefault(r["query_id"], []).append(r["doc_id"])
    all_docs = np.array(sorted({d for ds_ in docs_per_q.values()
                                for d in ds_}), dtype=np.int64)
    toks_by_id: dict[int, set] = {}
    for r in _candidate_corpus(sf_dir, idx, all_docs).take_all():
        did = doc_id63(r["repo"], r["path"], r["commit"])
        if did in set(all_docs.tolist()):
            toks_by_id[did] = set(tokens_py(r.get("content") or ""))
    vocab = sorted({t for s in toks_by_id.values() for t in s})
    n_docs, _avgdl, dfs = index_stats(idx, vocab)
    out_q, out_t, out_fg, out_df, out_score = [], [], [], [], []
    for qid in sorted(docs_per_q):
        hits = docs_per_q[qid]
        fg = Counter(t for d in hits for t in toks_by_id.get(d, ()))
        scored = []
        for t, f in fg.items():
            df = dfs.get(t, 0)
            if f < SIG_MIN_FG or df == 0:
                continue
            lift = (f * n_docs) / (len(hits) * df)
            scored.append((-lift, t, f, df))
        scored.sort()
        for neg, t, f, df in scored[:SIG_MAX_TERMS]:
            out_q.append(qid)
            out_t.append(t)
            out_fg.append(f)
            out_df.append(df)
            out_score.append(-neg)
    return pa.table({
        "query_id": pa.array(out_q, type=pa.int64()),
        "term": pa.array(out_t),
        "fg": pa.array(out_fg, type=pa.int64()),
        "df": pa.array(out_df, type=pa.int64()),
        "lift": pa.array(out_score, type=pa.float64()),
    })


def search_facets(sf_dir: str, top_k: int = TOP_K):
    """Facet counts over the result page (Lucene/Solr faceting; the
    reference returns per-hit metadata, retrievers.py:81,140, but has no
    aggregation): BM25 top-k per query, joined to doc metadata, counted
    per (query, lang) facet with the best score in the bucket.  The join
    input is k rows per query — the aggregate is over the RESULT PAGE,
    never the corpus, so this stays O(k·|queries|) at any corpus size."""
    from ray.data.aggregate import Count, Max

    res = bm25_topk(sf_dir, scorer="taat")
    docs = corpus_docs(sf_dir).select_columns(["doc_id", "lang"])
    joined = res.join(docs, join_type="inner", on=("doc_id",),
                      num_partitions=4)
    return joined.groupby(["query_id", "lang"]).aggregate(
        Count(alias_name="n_hits"), Max("score", alias_name="best_score"))


# Highlight window: tokens kept on each side of the anchor position.
HL_WINDOW = 3

# Query-time synonym map (ES synonym_graph filter file shape): term -> FULL
# group (self included).  The engine expands inside search_synonym; the
# oracle embeds expand_synonym_qterms' rows — both from this one constant.
SYNONYMS: dict[str, list[str]] = {
    "merge": ["merge", "join"],
    "join": ["join", "merge"],
    "window": ["window", "frame"],
    "fast": ["fast", "quick"],
    "agg": ["agg", "aggregate"],
}

# Synonym queries: overlap-heavy on purpose — (0) expands merge+window into
# a 4-term bag; (1) "merge join" makes both tokens expand to the SAME group
# {merge, join}, so qtf accumulates to 2 per term; (4) misses entirely.
SYN_QUERIES: list[tuple[int, str]] = [
    (0, "merge window"),
    (1, "merge join"),
    (2, "fast stream"),
    (3, "the"),
    (4, "nonexistentzzterm"),
]

# Regexp queries (Lucene RegexpQuery shape), anchored full-term matches in
# the subset Python re and DuckDB/RE2 interpret identically: optional
# quantifier, dot, alternation, character class, a pure literal, a miss.
REGEXP_QUERIES: list[tuple[int, str]] = [
    (0, "merge?"),
    (1, "w.ndow"),
    (2, "(join|merge)"),
    (3, "custom[a-z]+"),
    (4, "agg"),
    (5, "zz[0-9]+"),
]


def norm_regexps() -> list[tuple[int, str]]:
    """Regexp patterns can't pass through the tokenizer; normalization is
    the engine's rule — lowercase — applied here so the SQL oracle embeds
    the identical literal."""
    return [(qid, p.strip().lower()) for qid, p in REGEXP_QUERIES
            if p.strip()]


def expand_synonym_qterms(
        queries: list[tuple[int, str]]) -> list[tuple[int, str, int]]:
    """(query_id, term, qtf) rows after analyzer tokenization + synonym
    expansion — the client-side replay of QueryEngine.search_synonym's
    expansion, embedded verbatim by sql.qterms_topk_sql."""
    from .analyzer import tokens_py

    rows: list[tuple[int, str, int]] = []
    for qid, q in queries:
        tf: dict[str, int] = {}
        for tok in tokens_py(q):
            tf[tok] = tf.get(tok, 0) + 1
        exp: dict[str, int] = {}
        for t, qtf in tf.items():
            for v in SYNONYMS.get(t, (t,)):
                exp[v] = exp.get(v, 0) + qtf
        rows.extend((qid, t, n) for t, n in sorted(exp.items()))
    return rows


def search_after_topk(sf_dir: str):
    """Deep pagination (Elasticsearch ``search_after``): page 1 is the
    ordinary BM25 top-k; its LAST row per query becomes the (score,
    doc_id) cursor, and page 2 is served by the engine's cursor filter
    (QueryEngine.search_after) — full sums once, then ``(units, doc_id)``
    strictly-after-cursor, top-k again.  Unlike from+size, the cost never
    grows with page depth (no top-(page·k) heap).  Result-identical to
    sql.search_after_sql's ranks k+1..2k."""
    from .build import SCORE_SCALE

    idx = _contract_index(sf_dir)
    page1 = bm25_topk(sf_dir, scorer="taat").take_all()
    last: dict[int, tuple[int, int]] = {}
    by_rank: dict[int, int] = {}
    for r in page1:
        if r["rank"] > by_rank.get(r["query_id"], 0):
            by_rank[r["query_id"]] = r["rank"]
            last[r["query_id"]] = (int(round(r["score"] * SCORE_SCALE)),
                                   r["doc_id"])
    qtext = dict(DOC_QUERIES)
    qids = sorted(last)
    tbl = pa.table({
        "query_id": pa.array(qids, type=pa.int64()),
        "query": pa.array([qtext[q] for q in qids]),
        "cursor_units": pa.array([last[q][0] for q in qids],
                                 type=pa.int64()),
        "cursor_doc": pa.array([last[q][1] for q in qids], type=pa.int64()),
    })
    return _serve(idx, tbl, "search_after")


def percolate(sf_dir: str):
    """Percolation (Elasticsearch percolate query / Lucene reverse search):
    match every corpus document against the STANDING query set — which
    DOC_QUERIES would each doc hit, conjunctive semantics (doc contains
    ALL of the query's analyzed tokens; zero-token queries match nothing).
    The ingest-routing shape: queries are the broadcast small side, docs
    stream through ONE vectorized map_batches pass (flat-token
    searchsorted against the query vocabulary + a per-(row, term) presence
    matrix — no index, no shuffle, no per-row Python), so it runs at
    ingest bandwidth on unbounded streams.  Value-identical to
    sql.percolate_sql's HAVING-count oracle."""
    from .analyzer import tokens_py, tokenize_flat

    qtok = {qid: sorted(set(tokens_py(q))) for qid, q in DOC_QUERIES}
    qtok = {qid: ts for qid, ts in qtok.items() if ts}
    vocab = np.asarray(sorted({t for ts in qtok.values() for t in ts}),
                       dtype=object)
    # per-query column indices into the presence matrix
    qcols = {qid: np.searchsorted(vocab, np.asarray(ts, dtype=object))
             for qid, ts in qtok.items()}

    def _batch(t: pa.Table) -> pa.Table:
        from .ids import doc_id63_column

        flat, parents = tokenize_flat(t["content"])
        n_rows = t.num_rows
        # Arrow-native vocab matching: index_in returns each token's
        # position in the (sorted) query vocabulary, null when absent —
        # no per-token Python objects in this streaming hot path
        hit = pc.index_in(flat, value_set=pa.array(vocab.tolist()))
        ok = np.asarray(pc.is_valid(hit).to_numpy(zero_copy_only=False))
        pos = hit.to_numpy(zero_copy_only=False)
        pos = np.where(ok, pos, 0).astype(np.int64)
        m = np.zeros((n_rows, len(vocab)), dtype=bool)
        m[parents[ok], pos[ok]] = True
        ids = doc_id63_column(
            t["repo"], t["path"], t["commit"]).to_numpy(zero_copy_only=False)
        out_q, out_d = [], []
        for qid, cols in qcols.items():
            hit = m[:, cols].all(axis=1)
            rows = np.nonzero(hit)[0]
            out_q.extend([qid] * len(rows))
            out_d.extend(ids[rows].tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "doc_id": pa.array(out_d, type=pa.int64()),
        })

    return corpus_ds(sf_dir).map_batches(_batch, batch_format="pyarrow")


RESCORE_WINDOW = 50


def explain_top1(sf_dir: str):
    """Score explanation (Lucene/ES ``explain`` API): per-term breakdown —
    (term, qtf, df, tf, contribution) — for each DOC_QUERIES entry's
    rank-1 doc, the exact integers the scorer summed.  Value-identical to
    sql.explain_top1_sql's un-summed contribs rows at rnk = 1."""
    idx = _contract_index(sf_dir)
    page1 = bm25_topk(sf_dir, scorer="taat").take_all()
    top1 = {r["query_id"]: r["doc_id"] for r in page1 if r["rank"] == 1}
    qtext = dict(DOC_QUERIES)
    qids = sorted(top1)
    tbl = pa.table({
        "query_id": pa.array(qids, type=pa.int64()),
        "query": pa.array([qtext[q] for q in qids]),
        "doc_id": pa.array([top1[q] for q in qids], type=pa.int64()),
    })
    return _serve(idx, tbl, "explain")


def highlight_topk(sf_dir: str, top_k: int = TOP_K, window: int = HL_WINDOW):
    """Search highlighting (Elasticsearch ``highlight`` / Lucene
    PlainHighlighter): BM25 top-k per DOC_QUERIES entry, each hit annotated
    with a token-window snippet around the FIRST occurrence of the hit's
    rarest matched query term (anchor preference: df ASC, term ASC — the
    rarest term is the most informative fragment center).

    Serving shape: ranking comes from the index; only the k·|queries|
    result docs' content is fetched (_candidate_corpus Parquet filter
    pushdown) and re-analyzed — the Lucene plain-highlighter design, which
    re-analyzes fetched docs rather than storing character offsets.
    O(k·|queries|) content bytes at any corpus size.  Snippet text is the
    space-join of the analyzed tokens in [first_pos - window, first_pos +
    window], replayed verbatim by sql.highlight_topk_sql's
    string_agg-over-tokpos oracle."""
    from .analyzer import tokens_py
    from .ids import doc_id63
    from .phrase import index_stats

    idx = _contract_index(sf_dir)
    ranked = bm25_topk(sf_dir, scorer="taat").take_all()
    qtoks = {qid: sorted(set(tokens_py(q))) for qid, q in DOC_QUERIES}
    all_terms = sorted({t for ts in qtoks.values() for t in ts})
    _n, _avg, dfs = index_stats(idx, all_terms)
    pref = {qid: sorted(ts, key=lambda t: (dfs.get(t, 1 << 60), t))
            for qid, ts in qtoks.items()}
    hits_by_doc: dict[int, list[tuple[int, int, float]]] = {}
    for r in ranked:
        hits_by_doc.setdefault(r["doc_id"], []).append(
            (r["query_id"], r["rank"], r["score"]))
    out_q, out_r, out_d, out_s, out_snip = [], [], [], [], []
    if hits_by_doc:
        cand = np.array(sorted(hits_by_doc), dtype=np.int64)
        for row in _candidate_corpus(sf_dir, idx, cand).take_all():
            did = doc_id63(row["repo"], row["path"], row["commit"])
            hits = hits_by_doc.get(did)
            if not hits:
                continue  # pushdown superset backstop
            toks = tokens_py(row.get("content") or "")
            first: dict[str, int] = {}
            for i, t in enumerate(toks):
                if t not in first:
                    first[t] = i
            for qid, rank, score in hits:
                anchor = next((t for t in pref[qid] if t in first), None)
                if anchor is None:
                    continue  # unreachable: a BM25 hit holds >=1 query term
                p = first[anchor]
                out_q.append(qid)
                out_r.append(rank)
                out_d.append(did)
                out_s.append(score)
                out_snip.append(
                    " ".join(toks[max(0, p - window): p + window + 1]))
    return pa.table({
        "query_id": pa.array(out_q, type=pa.int64()),
        "rank": pa.array(out_r, type=pa.int64()),
        "doc_id": pa.array(out_d, type=pa.int64()),
        "score": pa.array(out_s, type=pa.float64()),
        "snippet": pa.array(out_snip, type=pa.string()),
    })


HIST_WIDTH = 16


# Explicit [lo, hi) doc_len buckets for the range aggregation (ES range
# agg shape: ascending, last unbounded).  Chosen so the sf corpora populate
# every bucket.
DL_RANGES: list[tuple[int, "int | None"]] = [(0, 40), (40, 70), (70, None)]


# mget contract predicate: docs whose RAW path id ≡ MGET_RESIDUE (mod
# MGET_MOD) form the explicit id list (SQL renders the same predicate)
MGET_MOD = 11
MGET_RESIDUE = 4


def _mget_queries_table(sf_dir: str, idx: str) -> pa.Table:
    ids = _ids_by_residue(idx, MGET_MOD, MGET_RESIDUE)
    return pa.table({
        "query_id": pa.array([0], type=pa.int64()),
        "query": pa.array([",".join(str(i) for i in sorted(ids))],
                          type=pa.string()),
    })


# term-vectors doc selector: a second residue predicate (distinct from
# mget's) renders the explicit id list in SQL
TV_MOD = 9
TV_RESIDUE = 2


def term_vectors(sf_dir: str):
    """Term-vectors API (Elasticsearch ``_termvectors`` with
    ``term_statistics: true`` / Lucene TermVectors): for an explicit doc
    list (the shared residue predicate), one row per (doc, term) with the
    in-doc tf and the corpus-wide df.  The per-doc term/tf lists stream
    straight from the staging parquet (a pruned read — no content fetch,
    no re-tokenize); df comes from the frozen segment dictionaries
    (phrase.index_stats), looked up once for the distinct terms and
    mapped in a vectorized batch pass.  An explicit-id call is bounded by
    construction (mget semantics), so the distinct-term collection is
    driver-tiny at any corpus scale.  Value-identical to
    sql.term_vectors_sql."""
    from .build import read_docs
    from .phrase import index_stats

    idx = _contract_index(sf_dir)
    ds = read_docs(idx, columns=["doc_id", "path", "terms", "tfs"])

    def _explode(t: pa.Table) -> pa.Table:
        raw = pc.cast(t["path"], pa.int64()).to_numpy(zero_copy_only=False)
        t = t.filter(pa.array((raw % TV_MOD) == TV_RESIDUE))
        terms = t["terms"].combine_chunks()
        n = pc.list_value_length(terms).to_numpy(
            zero_copy_only=False).astype(np.int64)
        doc_ids = np.repeat(
            t["doc_id"].to_numpy(zero_copy_only=False), n)
        return pa.table({
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "term": pc.list_flatten(terms),
            "tf": pc.cast(pc.list_flatten(t["tfs"].combine_chunks()),
                          pa.int64()),
        })

    tv = ds.map_batches(_explode, batch_format="pyarrow").materialize()
    uniq = sorted(tv.unique("term"))
    _n, _avg, dfs = index_stats(idx, uniq)

    def _with_df(t: pa.Table) -> pa.Table:
        df = np.array([dfs[x] for x in t["term"].to_pylist()],
                      dtype=np.int64)
        return t.append_column("df", pa.array(df, type=pa.int64()))

    return tv.map_batches(_with_df, batch_format="pyarrow")


# random_score seed — both the engine hash (query.h63) and the SQL oracle
# (sql.H63_SQL) embed it in the '{seed}:{doc_id}' preimage
RS_SEED = 42


# adjacency_matrix cells: (pair_id, filter query A, filter query B).
# Overlapping, disjoint, and zero-hit combinations, plus a qtf>1 query.
ADJ_PAIRS: list[tuple[int, str, str]] = [
    (0, "spark window", "merge"),
    (1, "the", "customer filter"),
    (2, "vector join batch", "nonexistentzzterm"),
    (3, "agg", "the"),
    (4, "stream stream stream", "spark window"),
]


# pinned set: the first PIN_N doc_ids (ASC) whose RAW path id satisfies
# the residue predicate — small and explicit (ES pins a handful of docs),
# SQL-renderable exactly like the mget id list
PIN_MOD = 13
PIN_RESIDUE = 5
PIN_N = 4


# term-suggester inputs: misspellings of real corpus terms (deletion /
# insertion / two-substitution / transposition), one beyond any term's
# reach, and a normalization proof — the token itself (distance 0) is
# never suggested, so exact-term inputs return only their neighborhood
TERM_SUGGEST_QUERIES: list[tuple[int, str]] = [
    (0, "merg"),
    (1, "windoww"),
    (2, "costumer"),
    (3, "mrege"),
    (4, "q9q9q9zz"),
    (5, "Agg"),
]
SUGGEST_N = 5
SUGGEST_MAX_EDITS = 2


def norm_suggest_tokens() -> list[tuple[int, str]]:
    return _norm_first_token(TERM_SUGGEST_QUERIES)


# constant_score boost — a non-1.0 value proves the constant actually
# flows through (not a default float)
CONST_BOOST = 1.5


# rank_feature saturation pivot (ES defaults to the field's approximate
# geometric mean; fixed here so the oracle can embed it)
RF_PIVOT = 50


# composite-agg page spec: (lang ASC, doc_len-histogram ASC) sources,
# page size, exclusive after-key — chosen mid-stream so the filter
# exercises both tuple-comparison arms
COMP_WIDTH = 16
COMP_SIZE = 4
COMP_AFTER = ("de", 16)


# named (bucket, filter-query) specs for the filters agg — one never-
# matching bucket proves zero-count omission flows through
FILTER_BUCKETS: list[tuple[str, str]] = [
    ("merge-docs", "merge"),
    ("sparkwin-docs", "spark window"),
    ("stream-docs", "stream"),
    ("none-docs", "nonexistentzzterm"),
]

# t_test population pairs (two term-filter populations per cell, the
# adjacency-pair convention); one side with < 2 hits proves the n >= 2
# emission rule
TT_PAIRS: list[tuple[int, str, str]] = [
    (0, "merge", "spark window"),
    (1, "the", "agg"),
    (2, "customer filter", "stream"),
    (3, "vector", "nonexistentzzterm"),
]

SCROLL_PAGES = 3


# phrase-suggester queries: 1-edit misspellings over the corpus vocab
# (one token may be exact — d=0 candidates are kept, the ES generator
# convention), one with an unreachable token (no suggestions at all)
PHRASE_SUGGEST_QUERIES: list[tuple[int, str]] = [
    (0, "merg windoww"),
    (1, "spak joinn"),
    (2, "vectr batch"),
    (3, "zzzzz window"),
    (4, "stream strem"),
]
PS_MAX_EDITS = 1
PS_CAND_N = 5
PS_N = 5


# multi_match queries: content-only, source-only, mixed, and no-match
# terms — best_fields takes the per-field max so the mixed entries prove
# each field's own df/avgdl flows through
MM_QUERIES: list[tuple[int, str]] = [
    (0, "merge src1"),
    (1, "src3"),
    (2, "window batch src7"),
    (3, "the"),
    (4, "nonexistentzzterm"),
    (5, "spark src2 src2"),  # qtf=2 on the source field
]


def source_field_corpus_ds(sf_dir: str):
    """The ``source`` FIELD's corpus: identity columns identical to
    corpus_ds (same doc_id63), content := source — an ES multi-field
    mapping materialized as a second index input.  SQL mirror:
    sql._field2_ctes."""
    from .corpus import DOCS_COMMIT

    def _b(t: pa.Table) -> pa.Table:
        return pa.table({
            "repo": t["source"],
            "path": pc.cast(t["doc_id"], pa.string()),
            "commit": pa.array([DOCS_COMMIT] * len(t), type=pa.string()),
            "lang": t["lang"],
            "content": t["source"],
        })

    return rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet")
    ).map_batches(_b, batch_format="pyarrow")


def _contract_index_src(sf_dir: str) -> str:
    """Build (or resume) the source-FIELD index beside the content one —
    its own df/avgdl statistics, same doc_id space."""
    idx = _cache_dir("src", sf_dir)
    fp = fingerprint_files(
        [os.path.join(sf_dir, "documents.parquet")]) + "-src"
    build_index(source_field_corpus_ds(sf_dir), idx, lang_tagged=False,
                n_shards=4, corpus_fp=fp)
    return idx


class _TfidfKeywords:
    """Actor-pool stage for tfidf_keywords: the vocabulary-bounded df map
    dereferences ONCE per actor (ST2) and stays resident (ST3 — the same
    dictionary-residency class as the query engine); per batch, the work
    is doc-LOCAL (a doc's terms never leave their batch), so no doc-scale
    shuffle exists at any corpus size."""

    def __init__(self, df_ref, n_docs: int, n: int):
        import ray as _ray

        terms, dfs = _ray.get(df_ref)
        self.df = dict(zip(terms, dfs))
        self.n_docs = int(n_docs)
        self.n = int(n)

    def __call__(self, t: pa.Table) -> pa.Table:
        import pandas as pd

        from .build import SCORE_SCALE

        p = _postings_batch(t)
        empty = {
            "doc_id": pa.array([], type=pa.int64()),
            "rank": pa.array([], type=pa.int64()),
            "term": pa.array([], type=pa.string()),
            "tf": pa.array([], type=pa.int64()),
            "df": pa.array([], type=pa.int64()),
            "score": pa.array([], type=pa.float64()),
        }
        if not len(p):
            return pa.table(empty)
        terms = pd.Series(p["term"].to_pylist())
        dfv = terms.map(self.df).to_numpy(dtype=np.int64)
        tf = p["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        # the idf_coord unit convention, term-side: one float chain in
        # the EXACT op order of sql.tfidf_keywords_sql, quantized to
        # integer units so the top-n cut has no float boundary
        w = np.log(1.0 + (self.n_docs - dfv + 0.5) / (dfv + 0.5))
        units = np.rint((tf.astype(np.float64) * w)
                        * SCORE_SCALE).astype(np.int64)
        pdf = pd.DataFrame({
            "doc_id": p["doc_id"].to_numpy(zero_copy_only=False),
            "term": terms,
            "tf": tf,
            "df": dfv,
            "units": units,
        })
        pdf.sort_values(["doc_id", "units", "term"],
                        ascending=[True, False, True], kind="mergesort",
                        inplace=True)
        pdf["rank"] = pdf.groupby("doc_id").cumcount() + 1
        pdf = pdf[pdf["rank"] <= self.n]
        return pa.table({
            "doc_id": pa.array(pdf["doc_id"].to_numpy(), type=pa.int64()),
            "rank": pa.array(pdf["rank"].to_numpy(), type=pa.int64()),
            "term": pa.array(pdf["term"].tolist(), type=pa.string()),
            "tf": pa.array(pdf["tf"].to_numpy(), type=pa.int64()),
            "df": pa.array(pdf["df"].to_numpy(), type=pa.int64()),
            "score": pa.array(pdf["units"].to_numpy() / SCORE_SCALE,
                              type=pa.float64()),
        })


def tfidf_keywords(sf_dir: str, n: int = 5, concurrency: int = 2):
    """Per-doc keyword extraction: every document's top-n terms by
    quantized tf·idf units (training-data doc tagging; Lucene
    MoreLikeThis interestingTerms surfaced as a batch operator).

    Pass 1 aggregates df per term (one row per DISTINCT term —
    vocabulary-bounded, sublinear in corpus bytes) and broadcasts it via
    ray.put; pass 2 is the doc-local rank/cut (_TfidfKeywords).  Ranking
    (units DESC, term ASC) uses idf_coord's integer quantization, so the
    SQL twin reproduces the cut bit-identically.  Value-identical to
    sql.tfidf_keywords_sql."""
    import ray as _ray

    rows = term_df(sf_dir).take_all()  # bounded: one row per distinct term
    df_ref = _ray.put(([r["term"] for r in rows],
                       [int(r["df"]) for r in rows]))
    n_docs = _staged(sf_dir, with_sha=False).count()
    # a FIXED pool of `concurrency` 1-cpu actors reserves that many CPUs
    # for the whole stage — leave headroom for the upstream read/tokenize
    # tasks or a small session (tests run at num_cpus=4) deadlocks with
    # every CPU parked in a waiting actor
    return _staged(sf_dir, with_sha=False).map_batches(
        _TfidfKeywords,
        fn_constructor_kwargs={"df_ref": df_ref, "n_docs": n_docs, "n": n},
        batch_format="pyarrow", concurrency=concurrency, num_cpus=1,
    )


# distance_feature origin: mid-corpus doc_len so both |dl - origin| arms
# (above and below) appear in every page
DF_ORIGIN = 60


# _analyze API inputs: identifier splitting, case folding, punctuation
# stripping, digits, a zero-token string — the analyzer's full surface
ANALYZE_TEXTS: list[tuple[int, str]] = [
    (0, "sparkWindow MERGE_sort"),
    (1, "HashJoin2000 order-by"),
    (2, "  the   quick  "),
    (3, "!!! ..."),
    (4, "camelCaseABCDef x86_64"),
]


def analyze_api(sf_dir: str):
    """Analyze API (Elasticsearch ``_analyze`` / Lucene Analyzer.tokenStream
    surfaced as an endpoint): per ANALYZE_TEXTS entry, the ordered token
    stream (1-based positions) the index-side and query-side analyzers
    share — the code-aware tokenizer (identifier splitting, case folding)
    as a first-class API.  The Arrow-kernel path answers; the SQL twin is
    the analyzer's tokens_sql rendering, proving both sides tokenize
    identically position by position (the whole-engine parity anchor).
    Takes sf_dir for driver-contract uniformity; input is the fixed text
    list.  Value-identical to sql.analyze_api_sql."""
    from .analyzer import tokenize_flat

    def _b(t: pa.Table) -> pa.Table:
        flat, parents = tokenize_flat(t["query"].combine_chunks()
                                      if isinstance(t["query"],
                                                    pa.ChunkedArray)
                                      else t["query"])
        qids = t["query_id"].to_numpy(zero_copy_only=False)[parents]
        # 1-based position within each input string
        if len(parents):
            starts = np.r_[0, np.nonzero(np.diff(parents))[0] + 1]
            pos = np.arange(len(parents)) - np.repeat(
                starts, np.diff(np.r_[starts, len(parents)])) + 1
        else:
            pos = np.empty(0, dtype=np.int64)
        return pa.table({
            "query_id": pa.array(qids, type=pa.int64()),
            "pos": pa.array(pos.astype(np.int64), type=pa.int64()),
            "token": flat,
        })

    tbl = _text_table(ANALYZE_TEXTS)
    return rd.from_arrow(tbl).map_batches(_b, batch_format="pyarrow")


def rrf_hybrid(sf_dir: str):
    """RRF fusion (k=60) of the BM25 top-10 and the IDF-coordination top-10
    — the reference's hybrid_search + RRFRanker shape (retrievers.py:130-150)
    with both legs lexical (no external embedding service)."""
    from .ops.fusion import rrf_fuse

    return rrf_fuse([bm25_topk(sf_dir, scorer="taat"), idf_coord_topk(sf_dir)])


# WeightedRanker weights for the hybrid contract entry (sparse leg heavier,
# the usual lexical-primary hybrid configuration)
W_HYBRID = (0.7, 0.3)


def weighted_hybrid(sf_dir: str):
    """Weighted-sum hybrid fusion (per-query min-max normalization, weights
    0.7/0.3) of the BM25 and IDF-coordination top-10 legs — the reference's
    OTHER Milvus ranker (pymilvus WeightedRanker, retrievers.py:9 /
    main.py:17; ES 'linear' retriever analogue).  Value-identical to
    sql.weighted_hybrid_sql."""
    from .ops.fusion import weighted_fuse

    return weighted_fuse(
        [bm25_topk(sf_dir, scorer="taat"), idf_coord_topk(sf_dir)],
        W_HYBRID)


def bm25_topk_merged(sf_dir: str):
    """A9 (log-structured index merge) made driver-checkable: build two
    GENERATION indexes over disjoint halves of the corpus (raw-id parity
    split), LSM-merge them, answer DOC_QUERIES from the merged index.  The
    oracle is the SAME full-corpus BM25 SQL as bm25_topk — the merge
    contract is score-identity with a single build."""
    from .merge import merge_index_dirs

    root = _cache_dir("merge", sf_dir)

    def _parity_filter(t: pa.Table, parity: int) -> pa.Table:
        raw = pc.cast(t["path"], pa.int64())
        return t.filter(
            pc.equal(pc.bit_wise_and(raw, pa.scalar(1, pa.int64())),
                     pa.scalar(parity, pa.int64()))
        )

    fp = fingerprint_files([os.path.join(sf_dir, "documents.parquet")])
    gens, src_fps = [], []
    for parity in (0, 1):
        idx = os.path.join(root, f"gen{parity}")
        ds = corpus_ds(sf_dir).map_batches(
            _parity_filter, batch_format="pyarrow",
            fn_kwargs={"parity": parity},
        )
        m = build_index(ds, idx, lang_tagged=False, n_shards=8,
                        corpus_fp=f"{fp}-parity{parity}")
        gens.append(idx)
        src_fps.append({"corpus_fp": m.get("corpus_fp"), "n_docs": m["n_docs"]})
    merged = os.path.join(root, "merged")
    mpath = os.path.join(merged, "MANIFEST.json")
    # the merged dir is only valid if it was merged from THESE generations:
    # a rebuilt gen (corpus_fp/n_docs mismatch) invalidates it
    stale = True
    if os.path.exists(mpath):
        with open(mpath) as f:
            stale = json.load(f).get("source_fps") != src_fps
    if stale:
        if os.path.isdir(merged):
            shutil.rmtree(merged)
        merge_index_dirs(gens, merged)
    return _serve(merged, _queries_table(), "text")


# Shared delete predicate (Ray + SQL both render from these): docs whose RAW
# id satisfies raw % DEAD_MOD == DEAD_RESIDUE are tombstoned in the contract.
DEAD_MOD = 7
DEAD_RESIDUE = 3


def _ids_by_residue(index_dir: str, mod: int, residue: int) -> np.ndarray:
    """63-bit doc ids whose RAW path id satisfies ``raw % mod == residue``,
    from the BUILT index's staging parquet (a pruned 2-column read — no
    re-tokenization of the corpus).  The filtered id list flows back to
    the driver because the consumers take explicit ids — bounded at
    contract scale; at 10^12 docs the same filter would stream to its
    consumer (delete batches / mget request shards)."""
    from .build import read_docs

    def _flag(t: pa.Table) -> pa.Table:
        raw = pc.cast(t["path"], pa.int64()).to_numpy(zero_copy_only=False)
        return t.filter(
            pa.array((raw % mod) == residue)
        ).select(["doc_id"])

    rows = (
        read_docs(index_dir, columns=["doc_id", "path"])
        .map_batches(_flag, batch_format="pyarrow")
        .take_all()
    )
    return np.asarray([r["doc_id"] for r in rows], dtype=np.int64)


def _dead_doc_ids(index_dir: str) -> np.ndarray:
    """Contract tombstone ids (see _ids_by_residue)."""
    return _ids_by_residue(index_dir, DEAD_MOD, DEAD_RESIDUE)


def _deleted_index(sf_dir: str) -> str:
    """Contract index with the DEAD_MOD/DEAD_RESIDUE docs tombstoned —
    a SEPARATE dir from _contract_index so the shared index stays clean.
    delete_docs is an idempotent union, so re-entry is safe."""
    from .delete import delete_docs

    idx = os.path.join(_cache_dir("del", sf_dir), "base")
    fp = fingerprint_files([os.path.join(sf_dir, "documents.parquet")])
    build_index(corpus_ds(sf_dir), idx, lang_tagged=False, n_shards=8,
                corpus_fp=fp)
    delete_docs(idx, _dead_doc_ids(idx))
    return idx


def bm25_topk_deleted(sf_dir: str):
    """Tombstone-masked query (delete.delete_docs): stats frozen at build,
    deleted docs excluded from every scorer before top-k — oracle
    sql.bm25_topk_deleted_sql (full-corpus stats, ranked over live docs)."""
    idx = _deleted_index(sf_dir)
    return _serve(idx, _queries_table(), "text")


def bm25_topk_compacted(sf_dir: str):
    """Post-compaction query (delete.compact_index): segments rewritten
    without the tombstoned docs, stats recomputed — score-identical to a
    from-scratch build over the surviving corpus, which is exactly what the
    oracle (sql.bm25_topk_compacted_sql) computes."""
    from .delete import compact_index, tombstones_fingerprint

    idx = _deleted_index(sf_dir)
    cdir = os.path.join(os.path.dirname(idx), "compacted")
    with open(os.path.join(idx, "MANIFEST.json")) as f:
        base_man = json.load(f)
    want_fps = [{"corpus_fp": base_man.get("corpus_fp"),
                 "n_docs": base_man["n_docs"],
                 "tombstones_fp": tombstones_fingerprint(idx)}]
    mpath = os.path.join(cdir, "MANIFEST.json")
    stale = True
    if os.path.exists(mpath):
        with open(mpath) as f:
            stale = json.load(f).get("source_fps") != want_fps
    if stale:
        if os.path.isdir(cdir):
            shutil.rmtree(cdir)
        compact_index(idx, cdir)
    return _serve(cdir, _queries_table(), "text")


def scorer_eval(sf_dir: str) -> pa.Table:
    """Retrieval-quality harness (reference eval.py:238-247): per-query
    integer agreement of each scorer against the BM25 ground truth
    (eval.scorer_agreement) — bmw exercises the rank-identity contract,
    idf_coord and the learned-sparse encoder are genuinely different
    rankings (lexical-relational and hash-projection-neural)."""
    from .eval import scorer_agreement
    from .ids import doc_id63_column
    from .ops.sparse import sparse_topk

    def _docs63(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": doc_id63_column(t["repo"], t["path"], t["commit"]),
                "text": t["content"],
            }
        )

    gt = bm25_topk(sf_dir, scorer="taat")
    return scorer_agreement(
        gt,
        {
            "bmw": bm25_topk(sf_dir, scorer="bmw"),
            "idf_coord": idf_coord_topk(sf_dir),
            "sparse": sparse_topk(
                corpus_ds(sf_dir).map_batches(
                    _docs63, batch_format="pyarrow"),
                DOC_QUERIES, k=TOP_K),
            # serving + update paths under the same quality guard: the
            # doc-partitioned fan-out (rank-identity contract) and the
            # tombstone-masked index (genuinely different: dead docs gone)
            "sharded": bm25_topk_sharded(sf_dir),
            "masked": bm25_topk_deleted(sf_dir),
        },
    )


def rrf_dense_sparse(sf_dir: str):
    """The reference's ACTUAL hybrid shape — dense + sparse RRF
    (retrievers.py:110-150): BM25 over the inverted index fused with native
    ANN cosine top-k over the driver's ``embeddings`` table (vector i is the
    dense representation of document i; query vectors are vec_id < 5, paired
    with DOC_QUERIES 0-4).

    The dense leg's raw vec_ids are mapped into the engine's 63-bit doc-id
    space by a SEMI-JOIN: the tiny (<= 5k-row) ANN result's ids filter the
    staged docs with one vectorized is_in pass — no shuffle join, the big
    side streams."""
    from .ops import contract as ops_contract
    from .ops import similarity
    from .ops.fusion import rrf_fuse

    n_q = ops_contract.ANN_QUERY_VECS
    sparse = bm25_topk(sf_dir, scorer="taat").map_batches(
        lambda t: t.filter(pc.less(t["query_id"], pa.scalar(n_q))),
        batch_format="pyarrow",
    )
    qids, qmat = ops_contract._query_vectors(sf_dir)
    dense_tbl = similarity.brute_force_topk(
        ops_contract._emb_ds(sf_dir), qids, qmat, k=TOP_K,
        concurrency=ops_contract.ANN_POOL,
    )  # tiny: n_q * k rows, already a pa.Table
    wanted = pa.array(
        sorted({str(v) for v in dense_tbl["vec_id"].to_pylist()}),
        type=pa.string(),
    )
    id_map_rows = (
        _staged(sf_dir, with_sha=False)
        .select_columns(["doc_id", "path"])
        .map_batches(
            lambda t: t.filter(pc.is_in(t["path"], value_set=wanted)),
            batch_format="pyarrow",
        )
        .take_all()
    )
    raw2id63 = {int(r["path"]): r["doc_id"] for r in id_map_rows}
    vecs = dense_tbl["vec_id"].to_pylist()
    keep = [i for i, v in enumerate(vecs) if int(v) in raw2id63]
    dense = rd.from_arrow(
        pa.table(
            {
                "query_id": dense_tbl["query_vec_id"].take(pa.array(keep)),
                "rank": dense_tbl["rank"].take(pa.array(keep)),
                "doc_id": pa.array(
                    [raw2id63[int(vecs[i])] for i in keep], type=pa.int64()
                ),
            }
        )
    )
    return rrf_fuse([sparse, dense])


# ------------------------------------------------------- served entries --
# Every contract entry that only picks a query table and constant engine
# keywords for one query kind is one row here; the module generates its
# function (and, for ``shard`` rows, the doc-range twin ``<name>_sharded``
# over 3 ordinal ranges, answered through run_queries_sharded against the
# same oracle).  Entries that do more stay hand-written above and call
# _serve themselves.

@dataclass(frozen=True)
class Served:
    """One engine-served entry: ``kind`` is a query.KINDS key; ``queries``
    is the query table (DOC_QUERIES by default) and ``kw`` the constant
    QueryEngine keywords — either may instead be a callable of
    ``(sf_dir, index_dir)``."""

    name: str
    kind: str
    queries: "pa.Table | Callable[[str, str], pa.Table]" = field(
        default_factory=_queries_table)
    kw: "dict | Callable[[str, str], dict]" = field(default_factory=dict)
    shard: bool = False


def _pinned_kw(sf_dir: str, idx: str) -> dict:
    pins = np.sort(_ids_by_residue(idx, PIN_MOD, PIN_RESIDUE))[:PIN_N]
    return {"pinned_ids": [int(i) for i in pins]}


def _pair_table(pairs: list[tuple[int, str, str]]) -> pa.Table:
    """(id, filter A, filter B) cells -> one 'A|||B' query per cell."""
    return _text_table([(p, f"{a}|||{b}") for p, a, b in pairs])


SERVED: tuple[Served, ...] = (
    Served("prefix_topk", "prefix", _text_table(norm_prefixes())),
    Served("fuzzy_topk", "fuzzy", _text_table(norm_fuzzy())),
    Served("fuzzy2_topk", "fuzzy2", _text_table(norm_fuzzy2())),
    Served("wildcard_topk", "wildcard", _text_table(norm_wildcards())),
    Served("filtered_topk", "filtered", _rows_table(
        FILTERED_QUERIES, query_id=_I64, query=_STR, dl_lo=_I64,
        dl_hi=_I64)),
    Served("bool_topk", "bool", _bool_table(BOOL_QUERIES)),
    Served("bool_msm_topk", "bool", _bool_table(BOOL_MSM_QUERIES,
                                                min_should_match=_I64)),
    Served("query_string_topk", "query_string", _text_table(QS_QUERIES)),
    Served("dis_max_topk", "dis_max", _rows_table(
        DISMAX_QUERIES, query_id=_I64, clauses=_STRS),
        {"dismax_tie": DISMAX_TIE}, shard=True),
    Served("boosting_topk", "boosting", _rows_table(
        BOOSTING_QUERIES, query_id=_I64, query=_STR, negative=_STR),
        {"negative_boost": NEG_BOOST}, shard=True),
    Served("sort_topk", "sort", kw={"sort_ascending": False}, shard=True),
    Served("function_score_topk", "function_score", shard=True),
    Served("top_hits_agg", "top_hits", kw={"group_n": TOP_HITS_N},
           shard=True),
    Served("synonym_topk", "synonym", _text_table(SYN_QUERIES),
           {"synonyms": SYNONYMS}),
    Served("regexp_topk", "regexp", _text_table(norm_regexps())),
    Served("rescore_topk", "rescore", kw={"rescore_window": RESCORE_WINDOW},
           shard=True),
    Served("collapse_topk", "collapse", shard=True),
    Served("lang_terms_agg", "lang_agg", shard=True),
    Served("dl_histogram", "dl_hist", kw={"hist_width": HIST_WIDTH}),
    Served("stats_agg", "stats", shard=True),
    Served("range_agg", "range", kw={"dl_ranges": DL_RANGES}, shard=True),
    Served("mget_docs", "mget", _mget_queries_table, shard=True),
    Served("lang_stats_agg", "lang_stats", shard=True),
    Served("ext_stats_agg", "ext_stats", shard=True),
    Served("random_score_topk", "random_score", kw={"random_seed": RS_SEED},
           shard=True),
    Served("adjacency_matrix", "adjacency", _pair_table(ADJ_PAIRS),
           shard=True),
    Served("pinned_topk", "pinned", kw=_pinned_kw, shard=True),
    Served("term_suggest", "term_suggest",
           _text_table(norm_suggest_tokens()),
           {"suggest_n": SUGGEST_N, "suggest_max_edits": SUGGEST_MAX_EDITS}),
    Served("rank_eval", "rank_eval"),
    Served("constant_score_topk", "constant_score",
           kw={"const_boost": CONST_BOOST}, shard=True),
    Served("rank_feature_topk", "rank_feature", kw={"rf_pivot": RF_PIVOT},
           shard=True),
    Served("mad_agg", "mad", shard=True),
    Served("composite_agg", "composite",
           kw={"comp_width": COMP_WIDTH, "comp_size": COMP_SIZE,
               "comp_after": COMP_AFTER}, shard=True),
    Served("cardinality_agg", "cardinality", shard=True),
    Served("percentiles_agg", "percentiles", shard=True),
    Served("boxplot_agg", "boxplot", shard=True),
    Served("filters_agg", "filters", kw={"filter_buckets": FILTER_BUCKETS},
           shard=True),
    Served("weighted_avg_agg", "weighted_avg", shard=True),
    Served("t_test_agg", "t_test", _pair_table(TT_PAIRS), shard=True),
    Served("scroll_topk", "scroll", kw={"scroll_pages": SCROLL_PAGES}),
    Served("phrase_suggest", "phrase_suggest",
           _text_table(PHRASE_SUGGEST_QUERIES),
           {"suggest_max_edits": PS_MAX_EDITS, "phrase_cand_n": PS_CAND_N,
            "suggest_n": PS_N}, shard=True),
    Served("multi_match_topk", "multi_match", _text_table(MM_QUERIES),
           kw=lambda sf_dir, idx: {
               "aux_index_dir": _contract_index_src(sf_dir)}),
    Served("distance_feature_topk", "distance_feature",
           kw={"df_origin": DF_ORIGIN}, shard=True),
    Served("total_hits", "count"),
)

# the QueryEngine method answering a kind, where it is not search_<kind>
_METHOD = {"count": "count_hits", "mget": "mget",
           "percentiles": "search_dl_value_counts",
           "term_suggest": "suggest_terms", "phrase_suggest": "suggest_phrase"}


def _entry(row: Served, n_query_shards: int = 0):
    def entry(sf_dir: str):
        idx = _contract_index(sf_dir)
        q, kw = row.queries, row.kw
        q = q(sf_dir, idx) if callable(q) else q
        kw = kw(sf_dir, idx) if callable(kw) else kw
        return _serve(idx, q, row.kind, n_query_shards=n_query_shards, **kw)

    method = _METHOD.get(row.kind, "search_" + row.kind)
    entry.__name__ = entry.__qualname__ = (
        row.name + ("_sharded" if n_query_shards else ""))
    entry.__doc__ = (
        f"{row.name} through {n_query_shards} doc-range pools (same oracle)."
        if n_query_shards else
        f"Query kind {row.kind!r} (QueryEngine.{method}) over the contract "
        f"index.")
    return entry


for _row in SERVED:
    globals()[_row.name] = _entry(_row)
    if _row.shard:
        globals()[_row.name + "_sharded"] = _entry(_row, n_query_shards=3)
del _row
