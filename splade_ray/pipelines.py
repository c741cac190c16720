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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Sum

from .build import build_index, fingerprint_files, prepare_batch
from .corpus import documents_as_corpus_batch
from .phrase import positional_topk, rank_units
from .query import run_queries, run_queries_sharded

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


def bool_msm_topk(sf_dir: str, top_k: int = TOP_K):
    """Boolean search with minimum_should_match (the Elasticsearch
    ``minimum_should_match`` parameter): a doc qualifies when it holds
    ALL must tokens, NO must_not token, AND at least ``msm`` DISTINCT
    should tokens — the presence-count filter applied to complete sums
    before any cut (QueryEngine.search_bool(min_should_match=...)).
    Rank-identical to sql.bool_topk_sql(msm=...)."""
    return _serve(_contract_index(sf_dir), _bool_table(BOOL_MSM_QUERIES),
                  "bool", k=top_k)


def _bool_table(rows: list[tuple]) -> pa.Table:
    """(query_id, must, should, must_not[, min_should_match]) literals ->
    the engine's bool query table."""
    cols = {"query_id": pa.array([r[0] for r in rows], type=pa.int64())}
    for i, c in enumerate(("must", "should", "must_not"), start=1):
        cols[c] = pa.array([r[i] for r in rows], type=pa.list_(pa.string()))
    if len(rows[0]) > 4:
        cols["min_should_match"] = pa.array([r[4] for r in rows],
                                            type=pa.int64())
    return pa.table(cols)


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


def _contract_index(sf_dir: str) -> str:
    key = hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    idx = os.path.join("/tmp/splade_ray_contract", key)
    # the adapter map_batches hides file provenance from the Dataset, so
    # pass the explicit fingerprint: it binds the checkpoint to the parquet
    # AND enables build_index's fast full-resume (warm serving entries —
    # phrase candidates, repeat bm25 calls — skip the re-validation passes)
    fp = fingerprint_files([os.path.join(sf_dir, "documents.parquet")])
    build_index(corpus_ds(sf_dir), idx, lang_tagged=False, n_shards=8,
                corpus_fp=fp)
    return idx


def _text_table(rows: list[tuple[int, str]]) -> pa.Table:
    """(query_id, text) literals -> the engine's query table."""
    return pa.table({
        "query_id": pa.array([q for q, _ in rows], type=pa.int64()),
        "query": pa.array([s for _, s in rows], type=pa.string()),
    })


def _queries_table() -> pa.Table:
    return _text_table(DOC_QUERIES)


def _serve(idx: str, table: pa.Table, kind: str, *, k: int = TOP_K,
           scorer: str = "taat", concurrency: int = 2,
           n_query_shards: int = 0, ints: tuple[str, ...] = ("rank",),
           **engine_kwargs):
    """Answer ``table`` with query kind ``kind`` over the index at ``idx``:
    one QueryEngine pool of ``concurrency`` actors, or — with
    ``n_query_shards`` — the doc-range fan-out (run_queries_sharded, one
    actor per range), whose answers are identical by construction.  The
    ``ints`` columns (int32 ranks) widen to int64."""
    ds = rd.from_arrow(table)
    kw = {"k": k, "scorer": scorer, "query_kind": kind,
          "engine_kwargs": engine_kwargs or None}
    if n_query_shards:
        res = run_queries_sharded(ds, idx, n_query_shards=n_query_shards,
                                  concurrency_per_shard=1, **kw)
    else:
        res = run_queries(ds, idx, concurrency=concurrency, **kw)
    if not ints:
        return res
    return res.map_batches(lambda t: _i64(t, list(ints)),
                           batch_format="pyarrow")


def _sharded(single, doc: str, n_query_shards: int = 3):
    """The doc-range-sharded contract twin of a single-pool wrapper: same
    arguments, same oracle, answered through run_queries_sharded."""
    def twin(sf_dir: str, *args, **kwargs):
        return single(sf_dir, *args, n_query_shards=n_query_shards, **kwargs)

    twin.__name__ = twin.__qualname__ = single.__name__ + "_sharded"
    twin.__doc__ = doc
    return twin


def bm25_topk(sf_dir: str, scorer: str = "taat", *, n_query_shards: int = 0):
    """Flagship: build (or resume) the inverted index over the documents
    corpus, answer DOC_QUERIES via the actor-pool engine, rank-identical to
    the pure-SQL BM25 oracle (sql.bm25_topk_sql)."""
    return _serve(_contract_index(sf_dir), _queries_table(), "text",
                  scorer=scorer, n_query_shards=n_query_shards)


def prefix_topk(sf_dir: str, top_k: int = TOP_K):
    """Prefix (wildcard-tail) search through the index: each PREFIX_QUERIES
    entry expands against the sorted term dictionary
    (SegmentReader.prefix_rows — one contiguous row run per segment) and
    scores as a qtf=1 BM25 bag over the matched terms
    (QueryEngine.search_prefix).  Rank-identical to sql.prefix_topk_sql.
    Reference analogue: none — Milvus sparse search has no term-prefix
    rewrite; this is native-inverted-index capability (Lucene PrefixQuery)."""
    idx = _contract_index(sf_dir)
    prefs = norm_prefixes()
    tbl = _text_table(prefs)
    return _serve(idx, tbl, "prefix", k=top_k)


def fuzzy_topk(sf_dir: str, top_k: int = TOP_K):
    """Fuzzy search (Lucene FuzzyQuery, maxEdits=1) through the index: each
    FUZZY_QUERIES token matches every term within Levenshtein distance 1
    via exhaustive edit-1 neighborhood probes of the sorted dictionary
    (QueryEngine.search_fuzzy — per-query cost independent of vocabulary
    size), scored as a qtf=1 BM25 bag.  Rank-identical to
    sql.fuzzy_topk_sql's levenshtein(term, token) <= 1 oracle."""
    idx = _contract_index(sf_dir)
    toks = norm_fuzzy()
    tbl = _text_table(toks)
    return _serve(idx, tbl, "fuzzy", k=top_k)


def filtered_topk(sf_dir: str, top_k: int = TOP_K):
    """Filtered search (ES bool + range filter): each FILTERED_QUERIES row
    runs full BM25 restricted to docs with token count in [dl_lo, dl_hi),
    the filter applied against the resident ordinal->doc_len forward array
    BEFORE the top-k cut and never rescaling scores
    (QueryEngine.search_filtered).  Rank-identical to
    sql.filtered_topk_sql."""
    idx = _contract_index(sf_dir)
    tbl = pa.table({
        "query_id": pa.array([q for q, *_ in FILTERED_QUERIES],
                             type=pa.int64()),
        "query": pa.array([s for _, s, _, _ in FILTERED_QUERIES]),
        "dl_lo": pa.array([lo for *_, lo, _ in FILTERED_QUERIES],
                          type=pa.int64()),
        "dl_hi": pa.array([hi for *_, hi in FILTERED_QUERIES],
                          type=pa.int64()),
    })
    return _serve(idx, tbl, "filtered", k=top_k)


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


def fuzzy2_topk(sf_dir: str, top_k: int = TOP_K):
    """Fuzzy search at maxEdits=2 (Lucene FuzzyQuery) through the index:
    each FUZZY2_QUERIES token matches every term within Levenshtein
    distance 2 via the Levenshtein-automaton x sorted-dictionary intersect
    (QueryEngine.expand_fuzzy_automaton — iterations independent of
    vocabulary size), scored as a qtf=1 BM25 bag.  Rank-identical to
    sql.fuzzy_topk_sql's levenshtein(term, token) <= 2 oracle."""
    idx = _contract_index(sf_dir)
    toks = norm_fuzzy2()
    tbl = _text_table(toks)
    return _serve(idx, tbl, "fuzzy2", k=top_k)


def wildcard_topk(sf_dir: str, top_k: int = TOP_K):
    """Wildcard search (Lucene WildcardQuery) through the index: each
    WILDCARD_QUERIES pattern (* = any run, ? = one char) rewrites against
    the sorted term dictionary — literal-prefix-bounded run + one
    vectorized LIKE kernel (QueryEngine.expand_wildcard) — and scores as a
    qtf=1 BM25 bag.  Rank-identical to sql.wildcard_topk_sql's
    ``term LIKE pattern`` oracle (shared * -> % translation)."""
    idx = _contract_index(sf_dir)
    pats = norm_wildcards()
    tbl = _text_table(pats)
    return _serve(idx, tbl, "wildcard", k=top_k)


def bool_topk(sf_dir: str, top_k: int = TOP_K):
    """Boolean search (Lucene BooleanQuery) through the index: BOOL_QUERIES
    rows carry must/should/must_not token lists; a doc qualifies iff it has
    ALL must tokens and NO must_not token, scored by summed BM25 units over
    the distinct must+should tokens (QueryEngine.search_bool).
    Rank-identical to sql.bool_topk_sql."""
    return _serve(_contract_index(sf_dir), _bool_table(BOOL_QUERIES), "bool",
                  k=top_k)


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


def query_string_topk(sf_dir: str, top_k: int = TOP_K):
    """Elasticsearch query_string / Lucene classic parser (subset) through
    the index: '+must -not term^boost' strings parsed once
    (query.parse_query_string) and answered by the boolean machinery with
    boost-weighted scoring qtf (QueryEngine.search_query_string).
    Rank-identical to sql.bool_topk_sql(parsed, boosts=parsed)."""
    idx = _contract_index(sf_dir)
    tbl = _text_table(QS_QUERIES)
    return _serve(idx, tbl, "query_string", k=top_k)


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


def dis_max_topk(sf_dir: str, top_k: int = TOP_K, *, n_query_shards: int = 0):
    """Disjunction-max search (Lucene DisjunctionMaxQuery / ES dis_max):
    per DISMAX_QUERIES row, each clause scores as its own complete BM25
    bag; per doc, combined = best clause + DISMAX_TIE x (sum of the other
    clauses), evaluated in integer units with floor division
    (QueryEngine.search_dis_max).  Rank-identical to
    sql.dis_max_topk_sql."""
    idx = _contract_index(sf_dir)
    tbl = pa.table({
        "query_id": pa.array([q for q, _ in DISMAX_QUERIES],
                             type=pa.int64()),
        "clauses": pa.array([c for _, c in DISMAX_QUERIES],
                            type=pa.list_(pa.string())),
    })
    return _serve(idx, tbl, "dis_max", k=top_k, dismax_tie=DISMAX_TIE,
                  n_query_shards=n_query_shards)


def boosting_topk(sf_dir: str, top_k: int = TOP_K, *, n_query_shards: int = 0):
    """Boosting query (Lucene BoostingQuery / ES boosting): BM25 over the
    positive bag, docs also matching the negative bag demoted by
    NEG_BOOST (exact rational, floor division), never excluded
    (QueryEngine.search_boosting).  Rank-identical to
    sql.boosting_topk_sql."""
    idx = _contract_index(sf_dir)
    tbl = pa.table({
        "query_id": pa.array([q for q, _, _ in BOOSTING_QUERIES],
                             type=pa.int64()),
        "query": pa.array([p for _, p, _ in BOOSTING_QUERIES]),
        "negative": pa.array([n for _, _, n in BOOSTING_QUERIES]),
    })
    return _serve(idx, tbl, "boosting", k=top_k, negative_boost=NEG_BOOST,
                  n_query_shards=n_query_shards)


def sort_topk(sf_dir: str, top_k: int = TOP_K, ascending: bool = False, *,
              n_query_shards: int = 0):
    """Field sort (Elasticsearch ``sort: [{doc_len: desc}]`` / Lucene
    SortField): per DOC_QUERIES entry, the query filters and the page
    orders by the doc_len doc-value (doc_id tiebreak) — no relevance
    scoring, one forward-array gather per query.  Value-identical to
    sql.sort_topk_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "sort", k=top_k,
                  sort_ascending=ascending, n_query_shards=n_query_shards)


sort_topk_sharded = _sharded(sort_topk, """
    sort_topk through the doc-range fan-out (per-shard pages re-sorted
    on the same key and re-cut) — same oracle as sort_topk.""")


def function_score_topk(sf_dir: str, top_k: int = TOP_K, *,
                        n_query_shards: int = 0):
    """Function-score query (ES ``function_score`` with
    ``field_value_factor`` on the doc_len doc-value, boost_mode multiply
    / Lucene FunctionScoreQuery): per DOC_QUERIES entry, final units =
    BM25 units x doc_len, integer-exact
    (QueryEngine.search_function_score).  Rank- and score-identical to
    sql.function_score_topk_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "function_score", k=top_k,
                  n_query_shards=n_query_shards)


function_score_topk_sharded = _sharded(function_score_topk, """
    function_score_topk through the doc-range fan-out (per-range sums
    are complete and the doc_len factor is per-doc, so per-shard units
    are final; plain top-k merge) — same oracle as function_score_topk.""")


TOP_HITS_N = 3  # per-lang-bucket size for the top_hits aggregation


def top_hits_agg(sf_dir: str, group_n: int = TOP_HITS_N, *,
                 n_query_shards: int = 0):
    """Per-bucket top hits (Elasticsearch ``terms`` agg + ``top_hits``
    sub-agg / Lucene grouping TopGroups): per DOC_QUERIES entry and lang
    doc-value bucket, the best ``group_n`` docs over the FULL hit set —
    served from the resident lang sidecar like collapse (one gather, no
    postings re-read).  Value-identical to sql.top_hits_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "top_hits", group_n=group_n,
                  ints=("grank",), n_query_shards=n_query_shards)


top_hits_agg_sharded = _sharded(top_hits_agg, """
    top_hits_agg through the doc-range fan-out (per-shard bucket pages
    re-ranked and re-cut in the merge) — same oracle as top_hits_agg.""")


dis_max_topk_sharded = _sharded(dis_max_topk, """
    dis_max_topk through the doc-range fan-out (complete per-range
    clause sums -> per-range combined pages, plain top-k merge) — same
    oracle as dis_max_topk.""")


boosting_topk_sharded = _sharded(boosting_topk, """
    boosting_topk through the doc-range fan-out (the demotion is a
    per-doc predicate over complete range sums, plain top-k merge) — same
    oracle as boosting_topk.""")


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
    key = hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    idx = os.path.join("/tmp/splade_ray_contract_pos", key)
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


bm25_topk_sharded = _sharded(bm25_topk, """
    Doc-partitioned query fan-out (SURVEY §2.4 A4): the ordinal space is
    split across independent QueryEngine pools, per-range top-k merged by a
    tiny groupby(query_id) — rank/score-identical to bm25_topk, same SQL
    oracle.  This is the 100x serving shape (each pool's actors resident on
    only their slice of the index).""", n_query_shards=2)


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


def mlt_topk(sf_dir: str, top_k: int = TOP_K):
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
    return _serve(idx, tbl, "bool", k=top_k)


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


def synonym_topk(sf_dir: str, top_k: int = TOP_K):
    """Query-time synonym search (Elasticsearch ``synonym_graph`` at search
    time / Lucene SynonymQuery-as-BooleanQuery rewrite): each SYN_QUERIES
    token expands to its SYNONYMS group inside the engine
    (QueryEngine.search_synonym), qtf accumulating across overlapping
    expansions, then plain BM25 over the expanded bag.  Rank-identical to
    sql.qterms_topk_sql over expand_synonym_qterms' rows."""
    idx = _contract_index(sf_dir)
    tbl = _text_table(SYN_QUERIES)
    return _serve(idx, tbl, "synonym", k=top_k, synonyms=SYNONYMS)


def regexp_topk(sf_dir: str, top_k: int = TOP_K):
    """Regexp search (Lucene RegexpQuery) through the index: each
    REGEXP_QUERIES pattern rewrites against the sorted term dictionary —
    literal-prefix-bounded run + one vectorized anchored-RE2 kernel
    (QueryEngine.expand_regexp) — and scores as a qtf=1 BM25 bag.
    Rank-identical to sql.regexp_topk_sql's regexp_full_match oracle."""
    idx = _contract_index(sf_dir)
    pats = norm_regexps()
    tbl = _text_table(pats)
    return _serve(idx, tbl, "regexp", k=top_k)


def search_after_topk(sf_dir: str, top_k: int = TOP_K):
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
    return _serve(idx, tbl, "search_after", k=top_k)


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


def rescore_topk(sf_dir: str, top_k: int = TOP_K,
                 window: int = RESCORE_WINDOW, *,
                 n_query_shards: int = 0):
    """Two-phase ranking (Elasticsearch ``rescore``): BM25 selects the
    top-``window`` docs per DOC_QUERIES entry; only those are re-scored
    with the IDF-coordination score and re-ranked by combined units
    (QueryEngine.search_rescore).  The expensive phase touches ``window``
    docs per query, never the corpus — the serving shape for costly
    second-phase scorers.  Rank-identical to sql.rescore_topk_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "rescore", k=top_k,
                  rescore_window=window, n_query_shards=n_query_shards)


rescore_topk_sharded = _sharded(rescore_topk, """
    rescore_topk through the doc-range fan-out: each range runs the
    window-partial (its complete-sums top-``window`` with bm25 AND coord
    units); the merge re-cuts the GLOBAL window over the union and
    combines — exact because per-range sums are complete, so per-range
    windows cover the global one.  Same oracle as rescore_topk.""")


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
    return _serve(idx, tbl, "explain", ints=())


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


def collapse_topk(sf_dir: str, top_k: int = TOP_K, *, n_query_shards: int = 0):
    """Field-collapsed search (Elasticsearch ``collapse``, Lucene grouping):
    each DOC_QUERIES entry ranks ALL matching docs, keeps the single
    best-ranked doc per ``lang`` doc-value group, and returns the top-k
    group representatives.  The group key is read from the ordinal->lang
    doc-values sidecar resident in each query actor (langvals.bin /
    docmap/lv-*.bin — the Lucene SORTED DocValues analogue), so collapsing
    costs one fancy-index gather over the hit set — no join against the
    docs table, no second pass.  Rank/score/lang-identical to
    sql.collapse_topk_sql.  Reference analogue: none — Milvus has no
    grouping; this is native-index capability."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "collapse", k=top_k,
                  n_query_shards=n_query_shards)


def lang_terms_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Terms aggregation over the FULL hit set (Elasticsearch ``terms``
    aggregation with a ``max`` sub-aggregation — not the top-k page,
    which search_facets already covers): per (query, lang doc-value
    bucket), the live matching-doc count and the best BM25 score.  At 100
    TB this is the shape that matters: millions of matching docs never
    leave the query actor — one bincount over resident uint8 doc-values —
    versus a hit-set-sized shuffle join against the docs table.
    Value-identical to sql.lang_terms_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "lang_agg", ints=(),
                  n_query_shards=n_query_shards)


HIST_WIDTH = 16


def dl_histogram(sf_dir: str, width: int = HIST_WIDTH):
    """Histogram aggregation over the FULL hit set (Elasticsearch
    ``histogram`` agg on a numeric doc-value): per DOC_QUERIES entry,
    bucket = (doc_len // width) * width with the live matching-doc count,
    served from the resident doc_len forward array — one gather + one
    bincount per query, hits never leave the actor.  Value-identical to
    sql.dl_histogram_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "dl_hist", hist_width=width, ints=())


# Explicit [lo, hi) doc_len buckets for the range aggregation (ES range
# agg shape: ascending, last unbounded).  Chosen so the sf corpora populate
# every bucket.
DL_RANGES: list[tuple[int, "int | None"]] = [(0, 40), (40, 70), (70, None)]


def stats_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Stats aggregation over the FULL hit set (Elasticsearch ``stats``
    agg on a numeric doc-value): per DOC_QUERIES entry, (n_hits, min, max,
    sum, avg) of doc_len across every live matching doc — one forward-array
    gather + four numpy reductions per query, hits never leave the actor.
    Value-identical to sql.stats_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "stats", ints=(),
                  n_query_shards=n_query_shards)


def range_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Range aggregation over the FULL hit set (Elasticsearch ``range``
    agg on a numeric doc-value): per DOC_QUERIES entry and DL_RANGES
    bucket, the live matching-doc count (empty buckets omitted, like the
    GROUP BY oracle).  Value-identical to sql.range_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "range", dl_ranges=DL_RANGES, ints=(),
                  n_query_shards=n_query_shards)


# mget contract predicate: docs whose RAW path id ≡ MGET_RESIDUE (mod
# MGET_MOD) form the explicit id list (SQL renders the same predicate)
MGET_MOD = 11
MGET_RESIDUE = 4


def _mget_queries_table(idx: str) -> pa.Table:
    ids = _ids_by_residue(idx, MGET_MOD, MGET_RESIDUE)
    return pa.table({
        "query_id": pa.array([0], type=pa.int64()),
        "query": pa.array([",".join(str(i) for i in sorted(ids))],
                          type=pa.string()),
    })


def mget_docs(sf_dir: str, *, n_query_shards: int = 0):
    """Forward-index multi-get (Elasticsearch mget / ids query; Milvus
    Collection.get — the reference fetches hit metadata by pk,
    retrievers.py:146): doc-values (doc_id, doc_len, lang) for an explicit
    id list, served by one docmap searchsorted + two gathers, no posting
    access.  The id list is the shared residue predicate so the oracle can
    render it in SQL.  Value-identical to sql.mget_docs_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _mget_queries_table(idx), "mget", concurrency=1,
                  ints=(), n_query_shards=n_query_shards)


mget_docs_sharded = _sharded(mget_docs, """
    mget_docs through the doc-range fan-out: each range resolves only
    its own ordinals (absent ids drop), merged by union + doc_id re-sort —
    same oracle as mget_docs.""")


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


def lang_stats_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Terms aggregation with a stats sub-agg (Elasticsearch ``terms`` +
    ``stats`` sub-aggregation): per DOC_QUERIES entry and lang doc-value
    bucket, (n_hits, min, max, sum, avg) of doc_len over EVERY live
    matching doc.  Value-identical to sql.lang_stats_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "lang_stats", ints=(),
                  n_query_shards=n_query_shards)


lang_stats_agg_sharded = _sharded(lang_stats_agg, """
    lang_stats_agg through the doc-range fan-out (per-(query, lang)
    counts/sums add, mins min, maxs max; avg recomputed from exact
    integer sums) — same oracle as lang_stats_agg.""")


def ext_stats_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Extended-stats aggregation over the FULL hit set (Elasticsearch
    ``extended_stats`` agg on a numeric doc-value): stats_agg plus the
    exact integer sum of squares — the sufficient statistic for variance /
    std_dev, which derive at the output layer from the exact sums (shard
    merges add n/sum/sum_sq and re-derive losslessly, zero approximation).
    Value-identical to sql.ext_stats_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "ext_stats", ints=(),
                  n_query_shards=n_query_shards)


# random_score seed — both the engine hash (query.h63) and the SQL oracle
# (sql.H63_SQL) embed it in the '{seed}:{doc_id}' preimage
RS_SEED = 42


def random_score_topk(sf_dir: str, top_k: int = TOP_K, *,
                      n_query_shards: int = 0):
    """Seeded random-score ranking (Elasticsearch ``function_score`` +
    ``random_score`` with an explicit seed and field — deterministic per
    (seed, doc)): per DOC_QUERIES entry, the hit set ranked by the
    sha256-derived 63-bit hash of '{seed}:{doc_id}' DESC (ties doc_id
    ASC), cut to k — reproducible hit-set shuffling, the deterministic
    serving-time sampler.  Per-shard top-k merges exactly (selection by a
    per-doc key).  Rank-identical to sql.random_score_topk_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "random_score", k=top_k,
                  random_seed=RS_SEED, n_query_shards=n_query_shards)


# adjacency_matrix cells: (pair_id, filter query A, filter query B).
# Overlapping, disjoint, and zero-hit combinations, plus a qtf>1 query.
ADJ_PAIRS: list[tuple[int, str, str]] = [
    (0, "spark window", "merge"),
    (1, "the", "customer filter"),
    (2, "vector join batch", "nonexistentzzterm"),
    (3, "agg", "the"),
    (4, "stream stream stream", "spark window"),
]


def adjacency_matrix(sf_dir: str, *, n_query_shards: int = 0):
    """Adjacency-matrix aggregation (Elasticsearch ``adjacency_matrix``
    agg): per ADJ_PAIRS cell, the number of live docs matching BOTH filter
    queries (presence = positive quantized BM25 sum, the shared hit rule).
    Presence sets are complete per ordinal range and every doc lives in
    exactly one range, so per-shard cells ADD — an exactly distributed
    set-intersection size.  Value-identical to sql.adjacency_matrix_sql."""
    idx = _contract_index(sf_dir)
    tbl = _text_table([(p, f"{a}|||{b}") for p, a, b in ADJ_PAIRS])
    return _serve(idx, tbl, "adjacency", ints=(),
                  n_query_shards=n_query_shards)


# pinned set: the first PIN_N doc_ids (ASC) whose RAW path id satisfies
# the residue predicate — small and explicit (ES pins a handful of docs),
# SQL-renderable exactly like the mget id list
PIN_MOD = 13
PIN_RESIDUE = 5
PIN_N = 4


def pinned_topk(sf_dir: str, top_k: int = TOP_K, *, n_query_shards: int = 0):
    """Pinned query (Elasticsearch ``pinned`` query / Solr
    QueryElevationComponent): per DOC_QUERIES entry, the PIN_N promoted
    docs rank first (doc_id ASC, score = their complete BM25 sum — 0 when
    the query doesn't match them, the ES pinned contract), then the
    organic ranking with pinned docs excluded, cut to k overall.
    Rank-identical to sql.pinned_topk_sql."""
    idx = _contract_index(sf_dir)
    pins = [int(i) for i in
            np.sort(_ids_by_residue(idx, PIN_MOD, PIN_RESIDUE))[:PIN_N]]
    return _serve(idx, _queries_table(), "pinned", k=top_k, pinned_ids=pins,
                  n_query_shards=n_query_shards)


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


def term_suggest(sf_dir: str):
    """Term suggester (Elasticsearch ``term`` suggester / Lucene
    DirectSpellChecker): per TERM_SUGGEST_QUERIES token, dictionary terms
    within Levenshtein distance [1, SUGGEST_MAX_EDITS], ranked distance
    ASC, build-time df DESC, term ASC, cut to SUGGEST_N.  Candidates come
    from the same Levenshtein-automaton x sorted-dictionary intersect
    FuzzyQuery uses (QueryEngine.expand_fuzzy_automaton — iterations
    independent of vocabulary size); postings are never decoded (df is
    frozen in the dictionary).  Value-identical to sql.term_suggest_sql."""
    idx = _contract_index(sf_dir)
    toks = norm_suggest_tokens()
    tbl = _text_table(toks)
    return _serve(idx, tbl, "term_suggest", suggest_n=SUGGEST_N,
                  suggest_max_edits=SUGGEST_MAX_EDITS)


def rank_eval(sf_dir: str, top_k: int = TOP_K):
    """Ranking-quality evaluation (Elasticsearch ``_rank_eval``): per
    DOC_QUERIES entry, judge the BM25 top-k page against the
    deterministic relevance rule "matches every distinct query term"
    (conjunctive presence).  Emits the integer sufficient statistics
    (n_rel, rel_in_topk, first_rel_rank) from which precision@k and MRR
    derive exactly — no float crosses the oracle boundary.
    Value-identical to sql.rank_eval_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "rank_eval", k=top_k, ints=())


# constant_score boost — a non-1.0 value proves the constant actually
# flows through (not a default float)
CONST_BOOST = 1.5


def constant_score_topk(sf_dir: str, top_k: int = TOP_K, *,
                        n_query_shards: int = 0):
    """Constant-score query (Elasticsearch ``constant_score`` / Lucene
    ConstantScoreQuery): per DOC_QUERIES entry, the text acts purely as a
    filter — every live matching doc scores CONST_BOOST, so the page is
    the first k hits in doc_id order.  Rank-identical to
    sql.constant_score_topk_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "constant_score", k=top_k,
                  const_boost=CONST_BOOST, n_query_shards=n_query_shards)


# rank_feature saturation pivot (ES defaults to the field's approximate
# geometric mean; fixed here so the oracle can embed it)
RF_PIVOT = 50


def rank_feature_topk(sf_dir: str, top_k: int = TOP_K, *,
                      n_query_shards: int = 0):
    """Rank-feature query (Elasticsearch ``rank_feature`` + ``saturation``
    on a numeric doc-value): per DOC_QUERIES entry, hits rank by the
    integer-quantized saturation key (doc_len * SCALE) // (doc_len +
    RF_PIVOT) DESC, ties doc_id ASC — floor division on both sides makes
    the quantization bit-exact.  Rank-identical to
    sql.rank_feature_topk_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "rank_feature", k=top_k,
                  rf_pivot=RF_PIVOT, n_query_shards=n_query_shards)


def mad_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Median-absolute-deviation aggregation over the FULL hit set
    (Elasticsearch ``median_absolute_deviation`` agg — EXACT here, not
    t-digest: both medians are discrete quantiles over the bounded
    doc_len value histogram, so sharded merges recompute identical
    values from summed histograms).  Value-identical to sql.mad_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "mad", ints=(),
                  n_query_shards=n_query_shards)


# composite-agg page spec: (lang ASC, doc_len-histogram ASC) sources,
# page size, exclusive after-key — chosen mid-stream so the filter
# exercises both tuple-comparison arms
COMP_WIDTH = 16
COMP_SIZE = 4
COMP_AFTER = ("de", 16)


def composite_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Composite aggregation (Elasticsearch ``composite`` agg, two
    sources: lang terms ASC + doc_len histogram ASC) with after-key
    pagination: per DOC_QUERIES entry, the COMP_SIZE buckets strictly
    after COMP_AFTER in (lang, bucket) order with live matching-doc
    counts.  The bucket list is bounded by the doc-value domains, so
    shards merge exactly by summing per-bucket counts before the
    after-filter + cut.  Value-identical to sql.composite_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "composite", comp_width=COMP_WIDTH,
                  comp_size=COMP_SIZE, comp_after=COMP_AFTER, ints=(),
                  n_query_shards=n_query_shards)


def cardinality_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Cardinality aggregation over the FULL hit set (Elasticsearch
    ``cardinality`` agg on the lang doc-value): per DOC_QUERIES entry, the
    DISTINCT lang count across every live matching doc — exact (small
    doc-value domain; ES's HLL approximation is unnecessary), one gather +
    np.unique per query.  Value-identical to sql.cardinality_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "cardinality", ints=(),
                  n_query_shards=n_query_shards)


def percentiles_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Percentiles aggregation over the FULL hit set (Elasticsearch
    ``percentiles`` agg on a numeric doc-value): per DOC_QUERIES entry,
    exact discrete p25/p50/p75/p99 of doc_len across every live matching
    doc (DuckDB quantile_disc semantics — query.disc_percentiles).
    Value-identical to sql.percentiles_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "percentiles", ints=(),
                  n_query_shards=n_query_shards)


cardinality_agg_sharded = _sharded(cardinality_agg, """
    cardinality_agg through the doc-range fan-out: per-shard partials
    are the distinct (query, lang) pairs of their ordinal range, merged by
    distinct-union size — exact at any shard count.  Same oracle as
    cardinality_agg.""")


percentiles_agg_sharded = _sharded(percentiles_agg, """
    percentiles_agg through the doc-range fan-out: per-shard partials
    are exact (dl, count) value histograms (bounded by the doc_len domain,
    not the hit count), summed then reduced to EXACT percentiles — the
    bounded-domain alternative to t-digest merging, zero approximation
    error.  Same oracle as percentiles_agg.""")


stats_agg_sharded = _sharded(stats_agg, """
    stats_agg through the doc-range fan-out (counts/sums add, mins min,
    maxs max, avg recomputed from exact integer sums) — same oracle as
    stats_agg.""")


range_agg_sharded = _sharded(range_agg, """
    range_agg through the doc-range fan-out (per-bucket counts sum
    across ranges) — same oracle as range_agg.""")


ext_stats_agg_sharded = _sharded(ext_stats_agg, """
    ext_stats_agg through the doc-range fan-out (counts/sums/sum_sqs
    add, mins min, maxs max; floats re-derived from the exact merged
    integers) — same oracle as ext_stats_agg.""")


random_score_topk_sharded = _sharded(random_score_topk, """
    random_score_topk through the doc-range fan-out (selection by a
    per-doc hash key: every doc lives in exactly one range, so the union
    re-cut is the global page) — same oracle as random_score_topk.""")


adjacency_matrix_sharded = _sharded(adjacency_matrix, """
    adjacency_matrix through the doc-range fan-out (per-shard
    intersection cells ADD — presence sets are complete per range) —
    same oracle as adjacency_matrix.""")


pinned_topk_sharded = _sharded(pinned_topk, """
    pinned_topk through the doc-range fan-out (each range owns its
    pinned ordinals; the merge unions the pinned legs doc_id ASC and
    re-cuts the organic legs) — same oracle as pinned_topk.""")


constant_score_topk_sharded = _sharded(constant_score_topk, """
    constant_score_topk through the doc-range fan-out (first-k-by-
    doc_id pages re-cut) — same oracle as constant_score_topk.""")


rank_feature_topk_sharded = _sharded(rank_feature_topk, """
    rank_feature_topk through the doc-range fan-out (plain top-k merge
    — the float score is an exact image of the integer saturation key) —
    same oracle as rank_feature_topk.""")


mad_agg_sharded = _sharded(mad_agg, """
    mad_agg through the doc-range fan-out: per-shard partials are the
    exact (dl, count) value histograms (the percentiles partial), summed
    then reduced by the shared discrete-quantile kernel — zero
    approximation, unlike ES's merged t-digests.  Same oracle as
    mad_agg.""")


composite_agg_sharded = _sharded(composite_agg, """
    composite_agg through the doc-range fan-out: a global-page bucket
    survives every shard-local cut, so all its partial counts reach the
    merge — sum per (lang, bucket), re-sort, re-filter, re-cut.  Same
    oracle as composite_agg.""")


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


def boxplot_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Boxplot aggregation over the FULL hit set (Elasticsearch
    ``boxplot`` agg on a numeric doc-value — EXACT, not TDigest: the
    quartiles are discrete quantiles over the bounded doc_len value
    histogram, so sharded merges recompute identical values from summed
    histograms).  Value-identical to sql.boxplot_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "boxplot", ints=(),
                  n_query_shards=n_query_shards)


boxplot_agg_sharded = _sharded(boxplot_agg, """
    boxplot_agg through the doc-range fan-out: per-shard partials are
    the exact (dl, count) value histograms (the percentiles partial),
    summed then reduced by the shared discrete-quantile kernel.  Same
    oracle as boxplot_agg.""")


def filters_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Filters aggregation (Elasticsearch ``filters`` agg): per
    DOC_QUERIES entry and named FILTER_BUCKETS spec, the count of live
    main-query hits whose doc also matches the bucket's filter query
    (presence = positive quantized BM25 sum, the adjacency hit rule).
    Zero-count buckets are omitted.  Value-identical to
    sql.filters_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "filters",
                  filter_buckets=FILTER_BUCKETS, ints=(),
                  n_query_shards=n_query_shards)


filters_agg_sharded = _sharded(filters_agg, """
    filters_agg through the doc-range fan-out: both presence sets are
    complete per ordinal range and every doc lives in exactly one range,
    so per-(query, bucket) counts ADD.  Same oracle as filters_agg.""")


def weighted_avg_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Weighted-average aggregation (Elasticsearch ``weighted_avg``,
    value = doc_len, weight = the doc's tf of the query's first analyzed
    token): per DOC_QUERIES entry, den = Σ tf and num = Σ doc_len·tf
    over the full hit set — exact integers, one float division at the
    end.  Queries with zero weight mass emit no row (the SQL HAVING
    twin).  Value-identical to sql.weighted_avg_agg_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "weighted_avg", ints=(),
                  n_query_shards=n_query_shards)


weighted_avg_agg_sharded = _sharded(weighted_avg_agg, """
    weighted_avg_agg through the doc-range fan-out: per-shard integer
    partials (weighted_avg_partial — no HAVING rule, so hit-bearing
    shards without weight mass still contribute n_hits) sum exactly; the
    merge re-applies the emission rule and the single division.  Same
    oracle as weighted_avg_agg.""")


def t_test_agg(sf_dir: str, *, n_query_shards: int = 0):
    """Welch's t-test aggregation (Elasticsearch ``t_test`` agg,
    ``type: heteroscedastic``): per TT_PAIRS cell, the exact integer
    sufficient statistics (n, Σdl, Σdl²) of each term-filter population's
    live hit set, plus the float (mean1, mean2, t_stat) derived via the
    shared fixed-order welch_t_floats.  Pairs where either side has
    n < 2 emit no row.  Value-identical to sql.t_test_agg_sql."""
    idx = _contract_index(sf_dir)
    tbl = _text_table([(p, f"{a}|||{b}") for p, a, b in TT_PAIRS])
    return _serve(idx, tbl, "t_test", ints=(), n_query_shards=n_query_shards)


t_test_agg_sharded = _sharded(t_test_agg, """
    t_test_agg through the doc-range fan-out: per-shard integer
    sufficient statistics (t_test_partial — no n >= 2 skip rule, a side
    can reach 2 only globally) ADD; the merge re-derives the floats via
    the shared kernel.  Same oracle as t_test_agg.""")


def scroll_topk(sf_dir: str, top_k: int = TOP_K, pages: int = SCROLL_PAGES):
    """Deep pagination (Elasticsearch ``scroll`` / point-in-time
    iteration): per DOC_QUERIES entry, SCROLL_PAGES consecutive fixed-k
    result pages from ONE complete-sums scoring pass (the snapshot
    batch-export shape — search_after re-scores per cursor request;
    scroll amortizes the posting traversal across pages).  Rank-identical
    to sql.scroll_topk_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "scroll", k=top_k, scroll_pages=pages,
                  ints=("page", "rank"))


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


def phrase_suggest(sf_dir: str, *, n_query_shards: int = 0):
    """Phrase suggester (Elasticsearch ``phrase`` suggester with exact
    ``collate`` pruning): per PHRASE_SUGGEST_QUERIES entry, each token
    generates dictionary candidates within PS_MAX_EDITS (d=0 kept),
    capped to PS_CAND_N per position by (distance ASC, df DESC, term
    ASC); candidate phrases score by document co-occurrence count,
    ranked (n_docs DESC, phrase ASC), cut to PS_N.  Value-identical to
    sql.phrase_suggest_sql."""
    idx = _contract_index(sf_dir)
    tbl = _text_table(PHRASE_SUGGEST_QUERIES)
    return _serve(idx, tbl, "phrase_suggest", suggest_max_edits=PS_MAX_EDITS,
                  phrase_cand_n=PS_CAND_N, suggest_n=PS_N, ints=(),
                  n_query_shards=n_query_shards)


phrase_suggest_sharded = _sharded(phrase_suggest, """
    phrase_suggest through the doc-range fan-out: candidate
    generation scans the global dictionary identically in every shard,
    presence sets are complete per ordinal range, so per-shard
    co-occurrence counts ADD; the merge re-ranks the summed counts.
    Same oracle as phrase_suggest.""")


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
    key = hashlib.sha256(
        (os.path.abspath(sf_dir) + ":field=source").encode()
    ).hexdigest()[:12]
    idx = os.path.join("/tmp/splade_ray_contract", key)
    fp = fingerprint_files(
        [os.path.join(sf_dir, "documents.parquet")]) + "-src"
    build_index(source_field_corpus_ds(sf_dir), idx, lang_tagged=False,
                n_shards=4, corpus_fp=fp)
    return idx


def multi_match_topk(sf_dir: str, top_k: int = TOP_K):
    """Multi-field search (Elasticsearch ``multi_match`` type=best_fields
    tie_breaker=0 / Lucene DisjunctionMaxQuery across fields): per
    MM_QUERIES entry, the query scores independently against the content
    index and the source FIELD index (each with its own df/avgdl — the
    ES per-field-statistics rule), a doc takes the max, top-k under
    (score DESC, doc_id ASC).  Rank-identical to
    sql.multi_match_topk_sql."""
    idx = _contract_index(sf_dir)
    idx2 = _contract_index_src(sf_dir)
    tbl = _text_table(MM_QUERIES)
    return _serve(idx, tbl, "multi_match", k=top_k, aux_index_dir=idx2)


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


def distance_feature_topk(sf_dir: str, top_k: int = TOP_K, *,
                          n_query_shards: int = 0):
    """Distance-feature query (Elasticsearch ``distance_feature`` /
    Lucene newDistanceFeatureQuery): per DOC_QUERIES entry, hits rank by
    closeness of the doc_len doc-value to DF_ORIGIN — integer distance
    ASC, doc_id ASC, cut to k (ES's boost/(boost + dist/pivot) is
    monotone in dist, so ranks are identical with no float in the
    oracle).  Rank-identical to sql.distance_feature_topk_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "distance_feature", k=top_k,
                  df_origin=DF_ORIGIN, n_query_shards=n_query_shards)


distance_feature_topk_sharded = _sharded(distance_feature_topk, """
    distance_feature_topk through the doc-range fan-out: selection by
    a per-doc key, so per-shard pages re-cut exactly under (dist ASC,
    doc_id ASC).  Same oracle as distance_feature_topk.""")


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


collapse_topk_sharded = _sharded(collapse_topk, """
    collapse_topk through the doc-range query fan-out
    (run_queries_sharded, 3 ordinal ranges): per-shard collapse pages
    merged by the lang-aware exact merge — same oracle as collapse_topk,
    proving the scale path end-to-end under the driver gate.""")


lang_terms_agg_sharded = _sharded(lang_terms_agg, """
    lang_terms_agg through the doc-range fan-out (counts sum, best
    scores max across ranges) — same oracle as lang_terms_agg.""")


def total_hits(sf_dir: str):
    """Total live matching-doc count per query (Elasticsearch
    ``track_total_hits: true``): the size of the tombstone-masked union of
    the query terms' posting lists with a positive quantized score — one
    row per query, zero-hit queries included.  Value-identical to
    sql.total_hits_sql."""
    idx = _contract_index(sf_dir)
    return _serve(idx, _queries_table(), "count", ints=())


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

    key = hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    root = os.path.join("/tmp/splade_ray_contract_merge", key)

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
    consumer (sharded tombstone files / mget request shards)."""
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

    key = hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    idx = os.path.join("/tmp/splade_ray_contract_del", key, "base")
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
