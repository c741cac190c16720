"""DuckDB oracle SQL generators for the driver contract.

Every pipeline exposed in ``__ray_entry__.queries()`` that is SQL-expressible
gets its oracle here, GENERATED from the same constants the engine uses
(analyzer regexes via ``analyzer.tokens_sql``, doc-id derivation via
``ids.doc_id63_sql``, BM25 k1/b and the integer score quantization via
``build.SCORE_SCALE``) so the two sides cannot drift.

Numeric-literal rule: every fractional constant is emitted in scientific
notation (``1.2e0``) — DuckDB parses plain ``1.2`` as DECIMAL, which would
silently switch the arithmetic away from float64 and break exact score
parity.  The BM25 contribution expression pins the same operation order the
engine and the pure-Python oracle use:

    units = round( (qtf * idf) * (((k1+1)*tf) / denom) * 1e9 )::BIGINT
    denom = tf + k1 * ((1 - b) + (b * dl) / avgdl)

(Engine-side: query.QueryEngine._contrib_units / codecs.tf_saturation.)
The only residual divergence is round-half-even (numpy/Python) vs
round-half-away (DuckDB), which requires a contribution to land exactly on a
0.5e-9 boundary — measure-zero in practice.
"""

from __future__ import annotations

from . import B, DROP_WS, K1
from .analyzer import tokens_sql
from .build import SCORE_SCALE
from .corpus import DOCS_COMMIT
from .ids import doc_id63_sql


def _f(x: float) -> str:
    """Emit a float constant that DuckDB types as DOUBLE (never DECIMAL)."""
    return f"{x!r}e0" if "e" not in repr(x) else repr(x)


# The documents -> corpus adapter, mirrored from corpus.documents_as_corpus_batch
def corpus_from_documents_sql(where: str | None = None) -> str:
    """The corpus CTE, optionally filtered at the source (``where`` is a
    predicate over the raw ``documents`` columns) — the compacted-index
    oracle reads only the surviving rows, like a fresh build would."""
    w = f"\n  WHERE {where}" if where else ""
    return f"""
corpus AS (
  SELECT source AS repo,
         CAST(doc_id AS VARCHAR) AS path,
         '{DOCS_COMMIT}' AS commit_sha,
         lang,
         text AS content
  FROM documents{w}
)"""


CORPUS_FROM_DOCUMENTS = corpus_from_documents_sql()

# docs: identity + sha256 + tokens; empty/whitespace rows dropped
# (build.prepare_batch) — trim set rendered from the shared DROP_WS constant
_WS_TRIMSET = " || ".join(f"chr({ord(c)})" for c in DROP_WS)

DOCS_CTE = f"""
docs AS (
  SELECT {doc_id63_sql('repo', 'path', 'commit_sha')} AS doc_id,
         repo, path, commit_sha, lang,
         sha256(content) AS content_sha256,
         CAST(len(tokens) AS BIGINT) AS doc_len,
         tokens
  FROM (
    SELECT *, {tokens_sql('content')} AS tokens
    FROM corpus
    WHERE content IS NOT NULL AND trim(content, {_WS_TRIMSET}) <> ''
  )
)"""

POSTINGS_CTE = """
tok AS (SELECT doc_id, unnest(tokens) AS term FROM docs),
postings AS (
  SELECT term, doc_id, CAST(count(*) AS BIGINT) AS tf
  FROM tok GROUP BY term, doc_id
)"""

STATS_CTE = """
stats AS (
  SELECT CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(doc_len) AS DOUBLE) / count(*) AS avgdl,
         CAST(sum(doc_len) AS BIGINT) AS total_tokens
  FROM docs
)"""

DF_CTE = """
df AS (
  SELECT term, CAST(count(*) AS BIGINT) AS df, CAST(sum(tf) AS BIGINT) AS cf
  FROM postings GROUP BY term
)"""


def _with(*ctes: str) -> str:
    return "WITH " + ",".join(ctes)


def corpus_docs_sql() -> str:
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE)
        + """
SELECT doc_id, repo, path, lang, content_sha256, doc_len FROM docs"""
    )


def postings_sql() -> str:
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE)
        + """
SELECT term, doc_id, tf FROM postings"""
    )


def term_df_sql() -> str:
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE)
        + """
SELECT term, df, cf FROM df"""
    )


def corpus_stats_sql() -> str:
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, STATS_CTE)
        + """
SELECT s.n_docs, s.avgdl, s.total_tokens,
       (SELECT CAST(count(DISTINCT term) AS BIGINT) FROM postings) AS n_terms
FROM stats s"""
    )


def top_terms_sql(n: int = 20) -> str:
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE)
        + f"""
SELECT term, df, cf FROM df
ORDER BY df DESC, term ASC LIMIT {n}"""
    )


def _queries_values(queries: list[tuple[int, str]]) -> str:
    rows = ",".join(
        f"({qid}, '" + q.replace("'", "''") + "')" for qid, q in queries
    )
    return f"query_lit(query_id, query) AS (SELECT * FROM (VALUES {rows}))"


def _query_ctes(queries: list[tuple[int, str]]) -> list[str]:
    """CTEs: query literals -> tokenized qterms with qtf."""
    return [
        _queries_values(queries),
        f"""
qtok AS (
  SELECT query_id, unnest({tokens_sql('query')}) AS term FROM query_lit
),
qterms AS (
  SELECT query_id, term, CAST(count(*) AS BIGINT) AS qtf
  FROM qtok GROUP BY query_id, term
)""",
    ]


def _bm25_contrib_expr() -> str:
    """The quantized per-(query-term, doc) BM25 unit expression over aliases
    q (qterms), p (postings), f (df), d (docs), s (stats) — the single
    scoring formula every ranked oracle shares."""
    return (
        f"CAST(round((q.qtf * ln(1e0 + (s.n_docs - f.df + {_f(0.5)}) / (f.df + {_f(0.5)})))"
        f" * ((({_f(K1)} + 1e0) * p.tf)"
        f" / (p.tf + {_f(K1)} * ((1e0 - {_f(B)}) + ({_f(B)} * d.doc_len) / s.avgdl)))"
        f" * {_f(float(SCORE_SCALE))}) AS BIGINT)"
    )


def _bm25_ranked_cte(dead_pred: str | None = None,
                     verify_join: str | None = None,
                     prefix: str = "") -> str:
    """CTE chain ``contribs -> scores -> ranked`` (full BM25, quantized).

    ``dead_pred`` (a predicate over the docs alias ``d``) is the
    tombstone-mask oracle: stats/df stay FULL-corpus (frozen at build, the
    pre-compaction semantics of delete.delete_docs) while matching docs are
    excluded before ranking — exactly what the engine's scorer mask does.

    ``verify_join`` (an extra JOIN clause over aliases q/p/d) restricts
    contributions to (query, doc) pairs that pass a verification CTE —
    the phrase-search candidate+verify shape.

    ``prefix`` renames the three CTEs (``{prefix}ranked`` etc.) so one
    query can hold several ranked chains (scorer_eval's masked leg)."""
    contrib = _bm25_contrib_expr()
    mask = f"\n  WHERE NOT ({dead_pred})" if dead_pred else ""
    vjoin = f"\n  {verify_join}" if verify_join else ""
    p = prefix
    return f"""
{p}contribs AS (
  SELECT q.query_id, p.doc_id, {contrib} AS units
  FROM qterms q
  JOIN postings p ON p.term = q.term
  JOIN df f ON f.term = q.term
  JOIN docs d ON d.doc_id = p.doc_id
  CROSS JOIN stats s{vjoin}{mask}
),
{p}scores AS (
  SELECT query_id, doc_id, CAST(sum(units) AS BIGINT) AS units
  FROM {p}contribs GROUP BY query_id, doc_id
),
{p}ranked AS (
  SELECT query_id, doc_id, units,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY units DESC, doc_id ASC) AS rnk
  FROM {p}scores WHERE units > 0
)"""


def _coord_ranked_cte() -> str:
    """CTE chain for the IDF-coordination ranking (BM25 with k1=0):
    units = round((qtf * idf) * 1e9), summed per (query, doc)."""
    contrib = (
        f"CAST(round((q.qtf * ln(1e0 + (s.n_docs - f.df + {_f(0.5)}) / (f.df + {_f(0.5)})))"
        f" * {_f(float(SCORE_SCALE))}) AS BIGINT)"
    )
    return f"""
coord_contribs AS (
  SELECT q.query_id, p.doc_id, {contrib} AS units
  FROM qterms q
  JOIN postings p ON p.term = q.term
  JOIN df f ON f.term = q.term
  CROSS JOIN stats s
),
coord_scores AS (
  SELECT query_id, doc_id, CAST(sum(units) AS BIGINT) AS units
  FROM coord_contribs GROUP BY query_id, doc_id
),
coord_ranked AS (
  SELECT query_id, doc_id, units,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY units DESC, doc_id ASC) AS rnk
  FROM coord_scores WHERE units > 0
)"""


def bm25_topk_sql(queries: list[tuple[int, str]], k: int = 10) -> str:
    """Full BM25 top-k oracle over the documents-derived corpus (untagged)."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def idf_coord_topk_sql(queries: list[tuple[int, str]], k: int = 10) -> str:
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _coord_ranked_cte(),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM coord_ranked WHERE rnk <= {k}"""
    )


def prefix_topk_sql(prefixes: list[tuple[int, str]], k: int = 10) -> str:
    """BM25 top-k where each query is ``prefix*``: the scoring term set is
    every corpus term starting with the prefix, each with qtf=1 — the SQL
    replay of QueryEngine.search_prefix (Lucene PrefixQuery under its
    scoring-BooleanQuery rewrite).  Prefixes must arrive analyzer-normalized
    (pipelines.prefix_topk normalizes both sides from one constant)."""
    rows = ",".join(
        f"({qid}, '" + p.replace("'", "''") + "')" for qid, p in prefixes
    )
    lit = f"prefix_lit(query_id, prefix) AS (SELECT * FROM (VALUES {rows}))"
    qterms = """
qterms AS (
  SELECT q.query_id, f.term, CAST(1 AS BIGINT) AS qtf
  FROM prefix_lit q JOIN df f ON starts_with(f.term, q.prefix)
)"""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            lit, qterms, _bm25_ranked_cte(),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def fuzzy_topk_sql(tokens: list[tuple[int, str]], k: int = 10,
                   max_edits: int = 1) -> str:
    """BM25 top-k where the query token matches any term within Levenshtein
    distance ``max_edits`` (QueryEngine.search_fuzzy / search_fuzzy2
    replay; Lucene FuzzyQuery under the uniform qtf=1 rewrite).  Tokens
    must arrive analyzer-normalized."""
    rows = ",".join(
        f"({qid}, '" + t.replace("'", "''") + "')" for qid, t in tokens
    )
    lit = f"fuzzy_lit(query_id, token) AS (SELECT * FROM (VALUES {rows}))"
    qterms = f"""
qterms AS (
  SELECT q.query_id, f.term, CAST(1 AS BIGINT) AS qtf
  FROM fuzzy_lit q JOIN df f ON levenshtein(f.term, q.token) <= {max_edits}
)"""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            lit, qterms, _bm25_ranked_cte(),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def filtered_topk_sql(specs: list[tuple[int, str, int, int]],
                      k: int = 10) -> str:
    """BM25 + doc-length range filter oracle (QueryEngine.search_filtered
    replay): ``specs`` = (query_id, query, dl_lo, dl_hi); a doc scores iff
    its token count is in [dl_lo, dl_hi), with UNfiltered BM25 values —
    the filter joins into the shared ranked chain via its verify_join
    hook, so filtering happens before ranking, never rescoring."""
    queries = [(qid, q) for qid, q, _, _ in specs]
    rows = ",".join(f"({qid}, {int(lo)}, {int(hi)})"
                    for qid, _, lo, hi in specs)
    rng = f"range_lit(query_id, dl_lo, dl_hi) AS (SELECT * FROM (VALUES {rows}))"
    vjoin = ("JOIN range_lit r ON r.query_id = q.query_id"
             " AND d.doc_len >= r.dl_lo AND d.doc_len < r.dl_hi")
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), rng, _bm25_ranked_cte(verify_join=vjoin),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def suggest_topk_sql(prefixes: list[tuple[int, str]], n: int = 5) -> str:
    """Completion-suggester oracle (query.TermSuggester replay): per
    prefix, the top-n corpus terms by document frequency, ties term ASC.
    Prefixes must arrive analyzer-normalized (pipelines.norm_prefixes)."""
    rows = ",".join(
        f"({qid}, '" + p.replace("'", "''") + "')" for qid, p in prefixes
    )
    lit = f"pre_lit(query_id, prefix) AS (SELECT * FROM (VALUES {rows}))"
    ranked = """
sugg_ranked AS (
  SELECT q.query_id, f.term, f.df,
         row_number() OVER (PARTITION BY q.query_id
                            ORDER BY f.df DESC, f.term ASC) AS rnk
  FROM pre_lit q JOIN df f ON starts_with(f.term, q.prefix)
)"""
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE,
              lit, ranked)
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, term, df
FROM sugg_ranked WHERE rnk <= {n}"""
    )


def wildcard_topk_sql(patterns: list[tuple[int, str]], k: int = 10) -> str:
    """BM25 top-k where each query is a ``*``/``?`` wildcard pattern over
    the term dictionary (QueryEngine.search_wildcard replay; Lucene
    WildcardQuery under the uniform qtf=1 scoring rewrite).  The LIKE
    translation (* -> %, ? -> _) is query.wildcard_to_like — the engine and
    this oracle share it, so the two sides cannot drift.  Patterns must
    arrive lowercased (pipelines.norm_wildcards)."""
    from .query import wildcard_to_like

    rows = ",".join(
        f"({qid}, '" + wildcard_to_like(p).replace("'", "''") + "')"
        for qid, p in patterns
    )
    lit = f"wc_lit(query_id, pat) AS (SELECT * FROM (VALUES {rows}))"
    qterms = """
qterms AS (
  SELECT q.query_id, f.term, CAST(1 AS BIGINT) AS qtf
  FROM wc_lit q JOIN df f ON f.term LIKE q.pat
)"""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            lit, qterms, _bm25_ranked_cte(),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def regexp_topk_sql(patterns: list[tuple[int, str]], k: int = 10) -> str:
    """BM25 top-k where each query is an anchored regular expression over
    the term dictionary (QueryEngine.search_regexp replay; Lucene
    RegexpQuery under the uniform qtf=1 scoring rewrite).  DuckDB's
    regexp_full_match is RE2 — identical to Python re over the restricted
    pattern subset the engine accepts.  Patterns must arrive lowercased
    (pipelines.norm_regexps)."""
    rows = ",".join(
        f"({qid}, " + _sql_quote(p) + ")" for qid, p in patterns
    )
    lit = f"re_lit(query_id, pat) AS (SELECT * FROM (VALUES {rows}))"
    qterms = """
qterms AS (
  SELECT q.query_id, f.term, CAST(1 AS BIGINT) AS qtf
  FROM re_lit q JOIN df f ON regexp_full_match(f.term, q.pat)
)"""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            lit, qterms, _bm25_ranked_cte(),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def qterms_topk_sql(qterm_rows: list[tuple[int, str, int]],
                    k: int = 10) -> str:
    """BM25 top-k over an EXPLICIT (query_id, term, qtf) bag — the oracle
    for query kinds whose expansion happens client-side from a shared
    constant (synonym_topk embeds pipelines.expand_synonym_qterms' rows;
    the engine expands the same map inside search_synonym)."""
    rows = ",".join(
        f"({qid}, {_sql_quote(t)}, {qtf})" for qid, t, qtf in qterm_rows
    )
    qterms = (f"qterms(query_id, term, qtf) AS "
              f"(SELECT * FROM (VALUES {rows}))")
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            qterms, _bm25_ranked_cte(),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def search_after_sql(queries: list[tuple[int, str]], k: int = 10) -> str:
    """Deep-pagination oracle (pipelines.search_after_topk replay): the
    SECOND page is exactly global ranks k+1..2k re-numbered 1..k — the
    engine's cursor filter must reproduce the contiguous continuation of
    the global (units DESC, doc_id ASC) order."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
SELECT query_id, CAST(rnk - {k} AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk > {k} AND rnk <= {2 * k}"""
    )


def explain_top1_sql(queries: list[tuple[int, str]]) -> str:
    """Explain oracle (pipelines.explain_top1 replay): per-term score
    breakdown for each query's rank-1 doc — the un-summed contribs rows,
    restricted to the global top hit."""
    contrib = _bm25_contrib_expr()
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
SELECT q.query_id, p.doc_id, q.term, q.qtf, f.df, p.tf,
       {contrib} / {_f(float(SCORE_SCALE))} AS contribution
FROM qterms q
JOIN postings p ON p.term = q.term
JOIN df f ON f.term = q.term
JOIN docs d ON d.doc_id = p.doc_id
JOIN ranked r ON r.query_id = q.query_id AND r.doc_id = p.doc_id
CROSS JOIN stats s
WHERE r.rnk = 1"""
    )


def bool_topk_sql(
    specs: list[tuple[int, list[str], list[str], list[str]]], k: int = 10,
    msm: dict[int, int] | None = None,
    boosts: dict[int, dict[str, int]] | None = None,
) -> str:
    """Boolean-query BM25 oracle (QueryEngine.search_bool replay; with
    ``boosts`` also the query_string oracle).

    ``specs``: (query_id, must, should, must_not) with analyzer-normalized
    single tokens.  A doc qualifies iff it contains ALL must tokens and NO
    must_not token; its score is the summed quantized BM25 units of the
    DISTINCT must+should tokens it contains (must_not never scores).
    ``msm`` ({query_id: minimum_should_match}) additionally requires at
    least that many DISTINCT should tokens present (ES
    minimum_should_match; engine: search_bool(min_should_match=...)).
    ``boosts`` ({query_id: {token: qtf}}) sets per-token scoring qtf
    (query_string ^N; engine: search_bool(boosts=...)) — the qterms CTE
    takes the MAX across roles, so default-boost duplicates stay 1."""
    rows = []
    for qid, must, should, must_not in specs:
        bq = (boosts or {}).get(qid, {})
        for role, toks in ((0, must), (1, should), (2, must_not)):
            rows.extend(
                f"({qid}, '" + t.replace("'", "''")
                + f"', {role}, {int(bq.get(t, 1)) if role < 2 else 1})"
                for t in dict.fromkeys(toks)
            )
    if not rows:
        return ("SELECT CAST(NULL AS BIGINT) AS query_id, CAST(NULL AS BIGINT)"
                " AS rank, CAST(NULL AS BIGINT) AS doc_id,"
                " CAST(NULL AS DOUBLE) AS score WHERE FALSE")
    lit = (f"bool_lit(query_id, term, role, qtf) AS "
           f"(SELECT * FROM (VALUES {','.join(rows)}))")
    msm = {q: m for q, m in (msm or {}).items() if m > 0}
    msm_ctes = ""
    msm_pred = ""
    if msm:
        mrows = ",".join(f"({q}, {m})" for q, m in sorted(msm.items()))
        msm_ctes = f""",
msm_lit(query_id, msm) AS (SELECT * FROM (VALUES {mrows})),
sh_ok AS (
  SELECT b.query_id, p.doc_id
  FROM bool_lit b JOIN postings p ON p.term = b.term
  JOIN msm_lit m ON m.query_id = b.query_id
  WHERE b.role = 1
  GROUP BY b.query_id, p.doc_id, m.msm
  HAVING count(DISTINCT b.term) >= m.msm
)"""
        msm_pred = ("\n    AND (q.query_id NOT IN (SELECT query_id FROM"
                    " msm_lit)\n         OR EXISTS (SELECT 1 FROM sh_ok o"
                    "\n                    WHERE o.query_id = q.query_id"
                    " AND o.doc_id = p.doc_id))")
    body = f"""
qterms AS (
  SELECT query_id, term, CAST(max(qtf) AS BIGINT) AS qtf
  FROM bool_lit WHERE role < 2 GROUP BY query_id, term
),
must_n AS (
  SELECT query_id, count(DISTINCT term) AS n
  FROM bool_lit WHERE role = 0 GROUP BY query_id
),
cand AS (
  SELECT b.query_id, p.doc_id
  FROM bool_lit b JOIN postings p ON p.term = b.term
  WHERE b.role = 0
  GROUP BY b.query_id, p.doc_id
  HAVING count(DISTINCT b.term) =
         (SELECT n FROM must_n m WHERE m.query_id = b.query_id)
),
banned AS (
  SELECT DISTINCT b.query_id, p.doc_id
  FROM bool_lit b JOIN postings p ON p.term = b.term
  WHERE b.role = 2
),
contribs AS (
  SELECT q.query_id, p.doc_id, {_bm25_contrib_expr()} AS units
  FROM qterms q
  JOIN postings p ON p.term = q.term
  JOIN df f ON f.term = q.term
  JOIN docs d ON d.doc_id = p.doc_id
  CROSS JOIN stats s
  WHERE (q.query_id NOT IN (SELECT query_id FROM must_n)
         OR EXISTS (SELECT 1 FROM cand c
                    WHERE c.query_id = q.query_id AND c.doc_id = p.doc_id))
    AND NOT EXISTS (SELECT 1 FROM banned x
                    WHERE x.query_id = q.query_id AND x.doc_id = p.doc_id){msm_pred}
),
scores AS (
  SELECT query_id, doc_id, CAST(sum(units) AS BIGINT) AS units
  FROM contribs GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, units,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY units DESC, doc_id ASC) AS rnk
  FROM scores WHERE units > 0
)"""
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE,
              STATS_CTE, lit + msm_ctes, body)
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def bm25_topk_docs_sql(queries: list[tuple[int, str]], k: int = 10) -> str:
    """BM25 top-k joined back to doc metadata (A6 doc fetch)."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
SELECT r.query_id, CAST(r.rnk AS BIGINT) AS rank, r.doc_id,
       r.units / {_f(float(SCORE_SCALE))} AS score,
       d.repo, d.path, d.lang
FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
WHERE r.rnk <= {k}"""
    )


def mlt_topk_sql(n_sources: int = 3, max_terms: int = 10, min_df: int = 2,
                 k: int = 10) -> str:
    """More-like-this oracle (pipelines.mlt_topk replay): sources are the
    ``n_sources`` smallest doc ids; each source's query terms are its
    ``max_terms`` highest tf·idf terms with df >= ``min_df`` (ties by term
    asc, the tf·idf double computed with the same IEEE expression the
    pipeline uses); scoring is the standard quantized qtf=1 BM25 chain with
    the source doc anti-joined out."""
    body = f"""
sources AS (
  SELECT doc_id AS src_doc,
         CAST(row_number() OVER (ORDER BY doc_id) - 1 AS BIGINT) AS query_id
  FROM docs ORDER BY doc_id LIMIT {n_sources}
),
src_term_scores AS (
  SELECT sr.query_id, sr.src_doc, p.term,
         p.tf * ln(1e0 + (s.n_docs - f.df + {_f(0.5)}) / (f.df + {_f(0.5)}))
           AS tscore
  FROM sources sr
  JOIN postings p ON p.doc_id = sr.src_doc
  JOIN df f ON f.term = p.term
  CROSS JOIN stats s
  WHERE f.df >= {min_df}
),
sel AS (
  SELECT query_id, src_doc, term,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY tscore DESC, term ASC) AS trank
  FROM src_term_scores
),
qterms AS (
  SELECT query_id, src_doc, term, CAST(1 AS BIGINT) AS qtf
  FROM sel WHERE trank <= {max_terms}
),
contribs AS (
  SELECT q.query_id, p.doc_id, {_bm25_contrib_expr()} AS units
  FROM qterms q
  JOIN postings p ON p.term = q.term
  JOIN df f ON f.term = q.term
  JOIN docs d ON d.doc_id = p.doc_id
  CROSS JOIN stats s
  WHERE p.doc_id <> q.src_doc
),
scores AS (
  SELECT query_id, doc_id, CAST(sum(units) AS BIGINT) AS units
  FROM contribs GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, units,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY units DESC, doc_id ASC) AS rnk
  FROM scores WHERE units > 0
)"""
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE,
              STATS_CTE, body)
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def sig_terms_sql(queries: list[tuple[int, str]], k: int = 10,
                  max_terms: int = 10, min_fg: int = 2) -> str:
    """Significant-terms oracle (pipelines.sig_terms replay): per query, the
    ``max_terms`` highest-lift terms of its BM25 top-``k`` result page,
    lift = (fg·n_docs)/(k_actual·df) with fg >= ``min_fg`` (DuckDB's
    BIGINT ``/`` is IEEE double division, the same expression the pipeline
    computes; ties by term asc)."""
    body = f"""
hits AS (
  SELECT query_id, doc_id FROM ranked WHERE rnk <= {k}
),
hit_n AS (
  SELECT query_id, CAST(count(*) AS BIGINT) AS k_actual
  FROM hits GROUP BY query_id
),
fg AS (
  SELECT h.query_id, p.term, CAST(count(DISTINCT p.doc_id) AS BIGINT) AS fg
  FROM hits h JOIN postings p ON p.doc_id = h.doc_id
  GROUP BY h.query_id, p.term
),
sig_scored AS (
  SELECT g.query_id, g.term, g.fg, f.df,
         (g.fg * s.n_docs) / (hn.k_actual * f.df) AS lift
  FROM fg g
  JOIN df f ON f.term = g.term
  JOIN hit_n hn ON hn.query_id = g.query_id
  CROSS JOIN stats s
  WHERE g.fg >= {min_fg}
),
sig_sel AS (
  SELECT query_id, term, fg, df, lift,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY lift DESC, term ASC) AS trank
  FROM sig_scored
)"""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(), body,
        )
        + f"""
SELECT query_id, term, fg, df, lift FROM sig_sel WHERE trank <= {max_terms}"""
    )


def search_facets_sql(queries: list[tuple[int, str]], k: int = 10) -> str:
    """Facet counts over the BM25 top-k result page (pipelines.search_facets
    replay): per (query, lang) hit count + best score in the bucket."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
SELECT r.query_id, d.lang, CAST(count(*) AS BIGINT) AS n_hits,
       max(r.units / {_f(float(SCORE_SCALE))}) AS best_score
FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
WHERE r.rnk <= {k}
GROUP BY r.query_id, d.lang"""
    )


def percolate_sql(queries: list[tuple[int, str]]) -> str:
    """Percolation oracle (pipelines.percolate replay): (query_id, doc_id)
    pairs where the doc contains EVERY analyzed token of the query
    (conjunctive match); zero-token queries produce no qterms rows and so
    match nothing."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE,
            *_query_ctes(queries),
            """
qn AS (
  SELECT query_id, CAST(count(*) AS BIGINT) AS n_terms
  FROM qterms GROUP BY query_id
)""",
        )
        + """
SELECT q.query_id, p.doc_id
FROM qterms q
JOIN postings p ON p.term = q.term
JOIN qn ON qn.query_id = q.query_id
GROUP BY q.query_id, p.doc_id, qn.n_terms
HAVING count(*) = qn.n_terms"""
    )


def rescore_topk_sql(queries: list[tuple[int, str]], k: int = 10,
                     window: int = 50) -> str:
    """Two-phase rescore oracle (pipelines.rescore_topk replay): BM25
    top-``window`` docs per query, re-ranked by combined units (bm25 +
    idf-coordination — ES's default score sum), doc_id tiebreak, cut k."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(), _coord_ranked_cte(),
            f"""
resc AS (
  SELECT r.query_id, r.doc_id, r.units + c.units AS comb
  FROM ranked r
  JOIN coord_scores c ON c.query_id = r.query_id AND c.doc_id = r.doc_id
  WHERE r.rnk <= {window}
),
resc_ranked AS (
  SELECT query_id, doc_id, comb,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY comb DESC, doc_id ASC) AS rnk2
  FROM resc
)""",
        )
        + f"""
SELECT query_id, CAST(rnk2 AS BIGINT) AS rank, doc_id,
       comb / {_f(float(SCORE_SCALE))} AS score
FROM resc_ranked WHERE rnk2 <= {k}"""
    )


def highlight_topk_sql(queries: list[tuple[int, str]], k: int = 10,
                       window: int = 3) -> str:
    """Highlighting oracle (pipelines.highlight_topk replay): per top-k
    hit, the anchor is the matched query term with the lowest corpus df
    (ties: term ASC), the snippet the ordered space-join of the doc's
    tokens within ±window positions of the anchor's first occurrence."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), TOKPOS_CTE, _bm25_ranked_cte(),
            f"""
firstpos AS (
  SELECT doc_id, term, CAST(min(pos) AS BIGINT) AS fpos
  FROM tokpos GROUP BY doc_id, term
),
anchors AS (
  SELECT r.query_id, r.doc_id, r.units, r.rnk, fp.fpos,
         row_number() OVER (PARTITION BY r.query_id, r.doc_id
                            ORDER BY f.df ASC, q.term ASC) AS arnk
  FROM ranked r
  JOIN qterms q ON q.query_id = r.query_id
  JOIN firstpos fp ON fp.doc_id = r.doc_id AND fp.term = q.term
  JOIN df f ON f.term = q.term
  WHERE r.rnk <= {k}
),
snips AS (
  SELECT a.query_id, a.doc_id, a.units, a.rnk,
         string_agg(tp.term, ' ' ORDER BY tp.pos ASC) AS snippet
  FROM anchors a
  JOIN tokpos tp ON tp.doc_id = a.doc_id
   AND tp.pos >= a.fpos - {window} AND tp.pos <= a.fpos + {window}
  WHERE a.arnk = 1
  GROUP BY a.query_id, a.doc_id, a.units, a.rnk
)""",
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score, snippet
FROM snips"""
    )


def collapse_topk_sql(queries: list[tuple[int, str]], k: int = 10) -> str:
    """Field-collapse oracle (pipelines.collapse_topk replay): full BM25
    ranking, one best-ranked representative per (query, lang) group —
    global rank order is (units DESC, doc_id ASC), so the group's
    min-global-rank row IS its best — then top-k over representatives."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
            """
collapsed AS (
  SELECT r.query_id, r.doc_id, r.units, d.lang, r.rnk,
         row_number() OVER (PARTITION BY r.query_id, d.lang
                            ORDER BY r.rnk ASC) AS lrnk
  FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
),
creps AS (
  SELECT query_id, doc_id, units, lang,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY rnk ASC) AS rnk2
  FROM collapsed WHERE lrnk = 1
)""",
        )
        + f"""
SELECT query_id, CAST(rnk2 AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score, lang
FROM creps WHERE rnk2 <= {k}"""
    )


def sort_topk_sql(queries: list[tuple[int, str]], k: int = 10,
                  ascending: bool = False) -> str:
    """Field-sort oracle (pipelines.sort_topk replay; ES sort by a numeric
    doc-value): the query filters, the page orders by doc_len (doc_id
    tiebreak), no relevance scoring."""
    direction = "ASC" if ascending else "DESC"
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
            f"""
fsort AS (
  SELECT r.query_id, r.doc_id, d.doc_len,
         row_number() OVER (PARTITION BY r.query_id
                            ORDER BY d.doc_len {direction},
                                     r.doc_id ASC) AS rnk2
  FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
)""",
        )
        + f"""
SELECT query_id, CAST(rnk2 AS BIGINT) AS rank, doc_id,
       CAST(doc_len AS BIGINT) AS doc_len
FROM fsort WHERE rnk2 <= {k}"""
    )


def top_hits_sql(queries: list[tuple[int, str]], group_n: int = 3) -> str:
    """Per-bucket top-hits oracle (pipelines.top_hits_agg replay; ES terms
    agg + top_hits sub-agg): best ``group_n`` docs per (query, lang)
    bucket over every hit, bucket-local rank (units DESC, doc_id ASC)."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
            """
th AS (
  SELECT r.query_id, d.lang, r.doc_id, r.units,
         row_number() OVER (PARTITION BY r.query_id, d.lang
                            ORDER BY r.units DESC, r.doc_id ASC) AS grank
  FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
)""",
        )
        + f"""
SELECT query_id, lang, CAST(grank AS BIGINT) AS grank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM th WHERE grank <= {group_n}"""
    )


def lang_terms_agg_sql(queries: list[tuple[int, str]]) -> str:
    """Full-hit-set terms-agg oracle (pipelines.lang_terms_agg replay):
    per (query, lang) bucket over EVERY matching doc (units > 0), count +
    best score."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
SELECT r.query_id, d.lang, CAST(count(*) AS BIGINT) AS n_hits,
       max(r.units) / {_f(float(SCORE_SCALE))} AS best_score
FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
GROUP BY r.query_id, d.lang"""
    )


def dl_histogram_sql(queries: list[tuple[int, str]],
                     width: int = 16) -> str:
    """Histogram-agg oracle (pipelines.dl_histogram replay): per (query,
    doc_len bucket) live matching-doc count over EVERY hit."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
SELECT r.query_id,
       CAST((d.doc_len // {width}) * {width} AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_hits
FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
GROUP BY r.query_id, (d.doc_len // {width}) * {width}"""
    )


def stats_agg_sql(queries: list[tuple[int, str]]) -> str:
    """Stats-agg oracle (pipelines.stats_agg replay; ES ``stats`` agg):
    per query, count/min/max/sum of doc_len over EVERY hit, avg from the
    exact integer sum (one float division — identical IEEE op to the
    engine's).  Zero-hit queries emit no row (GROUP BY over no rows)."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + """
SELECT r.query_id,
       CAST(count(*) AS BIGINT) AS n_hits,
       CAST(min(d.doc_len) AS BIGINT) AS min_dl,
       CAST(max(d.doc_len) AS BIGINT) AS max_dl,
       CAST(sum(d.doc_len) AS BIGINT) AS sum_dl,
       CAST(sum(d.doc_len) AS DOUBLE) / count(*) AS avg_dl
FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
GROUP BY r.query_id"""
    )


def mget_docs_sql(mod: int, residue: int) -> str:
    """Multi-get oracle (pipelines.mget_docs replay; ES mget / Milvus
    Collection.get): doc-values of the docs selected by the shared residue
    predicate — the SQL rendering of the engine's explicit id list."""
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE)
        + f"""
SELECT CAST(0 AS BIGINT) AS query_id, d.doc_id,
       CAST(d.doc_len AS BIGINT) AS doc_len, d.lang
FROM docs d WHERE (CAST(d.path AS BIGINT) % {mod}) = {residue}"""
    )


def lang_stats_agg_sql(queries: list[tuple[int, str]]) -> str:
    """Terms+stats sub-agg oracle (pipelines.lang_stats_agg replay): per
    (query, lang) bucket over EVERY hit, count/min/max/sum of doc_len,
    avg from the exact integer sum (one float division — identical IEEE
    op to the engine's)."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + """
SELECT r.query_id, d.lang,
       CAST(count(*) AS BIGINT) AS n_hits,
       CAST(min(d.doc_len) AS BIGINT) AS min_dl,
       CAST(max(d.doc_len) AS BIGINT) AS max_dl,
       CAST(sum(d.doc_len) AS BIGINT) AS sum_dl,
       CAST(sum(d.doc_len) AS DOUBLE) / count(*) AS avg_dl
FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
GROUP BY r.query_id, d.lang"""
    )


def cardinality_agg_sql(queries: list[tuple[int, str]]) -> str:
    """Cardinality-agg oracle (pipelines.cardinality_agg replay; ES
    ``cardinality`` agg): per query, the DISTINCT lang count over EVERY
    hit.  Zero-hit queries emit no row (GROUP BY over no rows)."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + """
SELECT r.query_id, CAST(count(DISTINCT d.lang) AS BIGINT) AS cardinality
FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
GROUP BY r.query_id"""
    )


def percentiles_agg_sql(queries: list[tuple[int, str]],
                        qs: tuple = (0.25, 0.5, 0.75, 0.99)) -> str:
    """Percentiles-agg oracle (pipelines.percentiles_agg replay; ES
    ``percentiles`` agg): per query, exact discrete quantiles of doc_len
    over EVERY hit — quantile_disc, whose element-at-ceil(q*n)-1 semantics
    query.disc_percentiles mirrors exactly."""
    cols = ", ".join(
        f"CAST(quantile_disc(d.doc_len, {_f(float(q))}) AS BIGINT)"
        f" AS p{int(round(q * 100))}"
        for q in qs)
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
SELECT r.query_id, CAST(count(*) AS BIGINT) AS n_hits, {cols}
FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
GROUP BY r.query_id"""
    )


def range_agg_sql(queries: list[tuple[int, str]],
                  ranges: "list[tuple[int, int | None]]") -> str:
    """Range-agg oracle (pipelines.range_agg replay; ES ``range`` agg):
    per (query, [lo, hi) doc_len bucket) live matching-doc count; hits
    outside every range and empty buckets are omitted on both sides."""
    cases = " ".join(
        f"WHEN d.doc_len >= {int(lo)}"
        + ("" if hi is None else f" AND d.doc_len < {int(hi)}")
        + f" THEN {i}"
        for i, (lo, hi) in enumerate(ranges)
    )
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
, bucketed AS (
  SELECT r.query_id, CASE {cases} ELSE NULL END AS bucket
  FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
)
SELECT query_id, CAST(bucket AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_hits
FROM bucketed WHERE bucket IS NOT NULL
GROUP BY query_id, bucket"""
    )


# sha256-derived 63-bit int (first 8 digest bytes, big-endian, sign bit
# cleared) — bit-identical to query.h63 / ops/contract.H63
H63_SQL = (
    "(('0x' || substr(sha256({expr}), 1, 16))::UBIGINT"
    " & 9223372036854775807)::BIGINT"
)


def ext_stats_agg_sql(queries: list[tuple[int, str]]) -> str:
    """Extended-stats-agg oracle (pipelines.ext_stats_agg replay; ES
    ``extended_stats`` agg): stats_agg plus the exact integer sum of
    squares; avg/variance/std_dev derive from the exact integer sums with
    the IDENTICAL IEEE op sequence QueryEngine.ext_stats_floats performs
    (one division each, ES population variance sum_sq/n - avg^2, clamped
    to literal +0.0 so the constant-value -1-ulp case hashes equal)."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + """
, es_base AS (
  SELECT r.query_id,
         CAST(count(*) AS BIGINT) AS n_hits,
         CAST(min(d.doc_len) AS BIGINT) AS min_dl,
         CAST(max(d.doc_len) AS BIGINT) AS max_dl,
         CAST(sum(d.doc_len) AS BIGINT) AS sum_dl,
         CAST(sum(d.doc_len * d.doc_len) AS BIGINT) AS sum_sq
  FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
  GROUP BY r.query_id
),
es_avg AS (
  SELECT *, CAST(sum_dl AS DOUBLE) / n_hits AS avg_dl FROM es_base
),
es_var AS (
  SELECT *,
         CASE WHEN CAST(sum_sq AS DOUBLE) / n_hits - avg_dl * avg_dl
                   <= CAST(0 AS DOUBLE)
              THEN CAST(0 AS DOUBLE)
              ELSE CAST(sum_sq AS DOUBLE) / n_hits - avg_dl * avg_dl
         END AS variance
  FROM es_avg
)
SELECT query_id, n_hits, min_dl, max_dl, sum_dl, sum_sq,
       avg_dl, variance, sqrt(variance) AS std_dev
FROM es_var"""
    )


def random_score_topk_sql(queries: list[tuple[int, str]], k: int = 10,
                          seed: int = 42) -> str:
    """Random-score oracle (pipelines.random_score_topk replay; ES
    ``function_score`` with ``random_score`` + explicit seed/field —
    deterministic per (seed, doc)): hits rank by the sha256-derived 63-bit
    hash of '{seed}:{doc_id}' DESC, ties doc_id ASC, cut to k — the same
    bytes QueryEngine.search_random_score hashes."""
    h = H63_SQL.format(
        expr=f"'{int(seed)}:' || CAST(s.doc_id AS VARCHAR)")
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
, rs AS (
  SELECT s.query_id, s.doc_id, {h} AS rs
  FROM scores s WHERE s.units > 0
),
rs_ranked AS (
  SELECT query_id, doc_id, rs,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY rs DESC, doc_id ASC) AS rnk
  FROM rs
)
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id, rs
FROM rs_ranked WHERE rnk <= {k}"""
    )


def adjacency_matrix_sql(pairs: list[tuple[int, str, str]]) -> str:
    """Adjacency-matrix-agg oracle (pipelines.adjacency_matrix replay; ES
    ``adjacency_matrix`` agg, one a&b cell per pair): each pair's two
    filter queries become synthetic query ids 2*pid / 2*pid+1 through the
    shared ranked chain; the cell is the hit-set intersection size, with
    zero-intersection pairs kept via the LEFT JOIN (the engine emits one
    row per pair always)."""
    synth = []
    for pid, qa, qb in pairs:
        synth.append((2 * int(pid), qa))
        synth.append((2 * int(pid) + 1, qb))
    rows = ",".join(f"({int(pid)})" for pid, _, _ in pairs)
    lit = f"pair_lit(pair_id) AS (SELECT * FROM (VALUES {rows}))"
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(synth), _bm25_ranked_cte(), lit,
        )
        + """
, hits AS (SELECT query_id, doc_id FROM scores WHERE units > 0),
cells AS (
  SELECT a.query_id // 2 AS pair_id, CAST(count(*) AS BIGINT) AS n
  FROM hits a JOIN hits b ON b.doc_id = a.doc_id
                         AND b.query_id = a.query_id + 1
  WHERE a.query_id % 2 = 0
  GROUP BY a.query_id // 2
)
SELECT CAST(l.pair_id AS BIGINT) AS query_id,
       CAST(coalesce(c.n, 0) AS BIGINT) AS n_both
FROM pair_lit l LEFT JOIN cells c ON c.pair_id = l.pair_id"""
    )


def pinned_topk_sql(queries: list[tuple[int, str]], k: int = 10,
                    mod: int = 13, residue: int = 5,
                    n_pinned: int = 4) -> str:
    """Pinned-query oracle (pipelines.pinned_topk replay; ES ``pinned``
    query / Solr QueryElevationComponent): the pinned set is the first
    ``n_pinned`` doc_ids (ASC) matching the shared residue predicate —
    the SQL rendering of the engine's explicit id list.  Pinned docs rank
    first (doc_id ASC, score = their complete BM25 sum, 0 when the query
    doesn't match them at all), then the organic ranking with pinned docs
    excluded; cut to k overall."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
, pinned AS (
  SELECT doc_id FROM docs
  WHERE (CAST(path AS BIGINT) % {mod}) = {residue}
  ORDER BY doc_id LIMIT {n_pinned}
),
pin_leg AS (
  SELECT q.query_id, p.doc_id, CAST(coalesce(s.units, 0) AS BIGINT) AS units,
         CAST(1 AS BIGINT) AS pinned,
         row_number() OVER (PARTITION BY q.query_id
                            ORDER BY p.doc_id ASC) AS rnk
  FROM query_lit q CROSS JOIN pinned p
  LEFT JOIN scores s ON s.query_id = q.query_id AND s.doc_id = p.doc_id
),
org_leg AS (
  SELECT s.query_id, s.doc_id, s.units, CAST(0 AS BIGINT) AS pinned,
         (SELECT count(*) FROM pinned)
         + row_number() OVER (PARTITION BY s.query_id
                              ORDER BY s.units DESC, s.doc_id ASC) AS rnk
  FROM scores s
  WHERE s.units > 0
    AND s.doc_id NOT IN (SELECT doc_id FROM pinned)
),
pin_all AS (
  SELECT * FROM pin_leg UNION ALL SELECT * FROM org_leg
)
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score, pinned
FROM pin_all WHERE rnk <= {k}"""
    )


def term_suggest_sql(tokens: list[tuple[int, str]], n: int = 5,
                     max_edits: int = 2) -> str:
    """Term-suggester oracle (pipelines.term_suggest replay; ES ``term``
    suggester / Lucene DirectSpellChecker): dictionary terms within
    Levenshtein distance [1, max_edits] of the token (d=0 — the token
    itself — is not a correction), ranked distance ASC, df DESC, term ASC,
    cut to n.  Tokens must arrive analyzer-normalized."""
    rows = ",".join(
        f"({qid}, '" + t.replace("'", "''") + "')" for qid, t in tokens
    )
    lit = f"tok_lit(query_id, token) AS (SELECT * FROM (VALUES {rows}))"
    ranked = f"""
sug_ranked AS (
  SELECT q.query_id, f.term,
         CAST(levenshtein(f.term, q.token) AS BIGINT) AS dist, f.df,
         row_number() OVER (PARTITION BY q.query_id
                            ORDER BY levenshtein(f.term, q.token) ASC,
                                     f.df DESC, f.term ASC) AS rnk
  FROM tok_lit q
  JOIN df f ON levenshtein(f.term, q.token) BETWEEN 1 AND {max_edits}
)"""
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE,
              lit, ranked)
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, term, dist, df
FROM sug_ranked WHERE rnk <= {n}"""
    )


def rank_eval_sql(queries: list[tuple[int, str]], k: int = 10) -> str:
    """Rank-eval oracle (pipelines.rank_eval replay; ES ``_rank_eval``):
    relevance = conjunctive presence (the HAVING-count rule the bool
    oracle uses); per token-ful query the integer sufficient statistics
    of the BM25 top-k page: total relevant docs, relevant docs in the
    page, and the first relevant rank (0 if none)."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
, qn AS (
  SELECT query_id, count(DISTINCT term) AS n_terms FROM qterms
  GROUP BY query_id
),
rel AS (
  SELECT q.query_id, p.doc_id
  FROM qterms q JOIN postings p ON p.term = q.term
  GROUP BY q.query_id, p.doc_id
  HAVING count(DISTINCT p.term)
         = (SELECT n_terms FROM qn WHERE qn.query_id = q.query_id)
),
page AS (SELECT query_id, doc_id, rnk FROM ranked WHERE rnk <= {k})
SELECT qn.query_id,
       CAST((SELECT count(*) FROM rel r
             WHERE r.query_id = qn.query_id) AS BIGINT) AS n_rel,
       CAST((SELECT count(*) FROM page p
             JOIN rel r ON r.query_id = p.query_id
                       AND r.doc_id = p.doc_id
             WHERE p.query_id = qn.query_id) AS BIGINT) AS rel_in_topk,
       CAST(coalesce((SELECT min(p.rnk) FROM page p
                      JOIN rel r ON r.query_id = p.query_id
                                AND r.doc_id = p.doc_id
                      WHERE p.query_id = qn.query_id), 0) AS BIGINT)
         AS first_rel_rank
FROM qn"""
    )


def term_vectors_sql(mod: int = 9, residue: int = 2) -> str:
    """Term-vectors oracle (pipelines.term_vectors replay; ES
    ``_termvectors`` with term_statistics): per (selected doc, term) the
    in-doc tf and the corpus-wide df — doc selection by the shared
    residue predicate."""
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE)
        + f"""
SELECT p.doc_id, p.term, p.tf, f.df
FROM postings p
JOIN df f ON f.term = p.term
JOIN docs d ON d.doc_id = p.doc_id
WHERE (CAST(d.path AS BIGINT) % {mod}) = {residue}"""
    )


def constant_score_topk_sql(queries: list[tuple[int, str]], k: int = 10,
                            boost: float = 1.5) -> str:
    """Constant-score oracle (pipelines.constant_score_topk replay;
    Lucene ConstantScoreQuery): the query is purely a filter — every hit
    scores ``boost``, page = first k hits in doc_id order."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
, cs_ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY doc_id ASC) AS rnk
  FROM scores WHERE units > 0
)
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       {_f(float(boost))} AS score
FROM cs_ranked WHERE rnk <= {k}"""
    )


def rank_feature_topk_sql(queries: list[tuple[int, str]], k: int = 10,
                          pivot: int = 50) -> str:
    """Rank-feature oracle (pipelines.rank_feature_topk replay; ES
    ``rank_feature`` + ``saturation``): hits rank by the integer
    saturation key (doc_len * SCALE) // (doc_len + pivot) DESC, ties
    doc_id ASC — the same floor division the engine performs."""
    key = (f"(d.doc_len * {int(SCORE_SCALE)})"
           f" // (d.doc_len + {int(pivot)})")
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
, rf_ranked AS (
  SELECT s.query_id, s.doc_id, CAST({key} AS BIGINT) AS units,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY {key} DESC, s.doc_id ASC) AS rnk
  FROM scores s JOIN docs d ON d.doc_id = s.doc_id
  WHERE s.units > 0
)
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM rf_ranked WHERE rnk <= {k}"""
    )


def mad_agg_sql(queries: list[tuple[int, str]]) -> str:
    """Median-absolute-deviation oracle (pipelines.mad_agg replay; ES
    ``median_absolute_deviation`` agg, EXACT): median = quantile_disc(0.5)
    of doc_len over every hit, mad = quantile_disc(0.5) of
    abs(doc_len - median) — all-integer, the identical discrete-quantile
    rule query.disc_percentiles implements."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + """
, med AS (
  SELECT r.query_id,
         CAST(count(*) AS BIGINT) AS n_hits,
         CAST(quantile_disc(d.doc_len, 0.5) AS BIGINT) AS median_dl
  FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
  GROUP BY r.query_id
),
mad AS (
  SELECT r.query_id,
         CAST(quantile_disc(abs(d.doc_len - m.median_dl), 0.5) AS BIGINT)
           AS mad_dl
  FROM ranked r
  JOIN docs d ON d.doc_id = r.doc_id
  JOIN med m ON m.query_id = r.query_id
  GROUP BY r.query_id
)
SELECT m.query_id, m.n_hits, m.median_dl, a.mad_dl
FROM med m JOIN mad a ON a.query_id = m.query_id"""
    )


def boxplot_agg_sql(queries: list[tuple[int, str]]) -> str:
    """Boxplot oracle (pipelines.boxplot_agg replay; ES ``boxplot`` agg,
    EXACT): min/q1/median/q3/max of doc_len over every hit —
    quantile_disc matches the engine's disc_percentiles rule, all
    integers.  Zero-hit queries emit no row."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + """
SELECT r.query_id,
       CAST(count(*) AS BIGINT) AS n_hits,
       CAST(min(d.doc_len) AS BIGINT) AS min_dl,
       CAST(quantile_disc(d.doc_len, 0.25) AS BIGINT) AS q1_dl,
       CAST(quantile_disc(d.doc_len, 0.5) AS BIGINT) AS median_dl,
       CAST(quantile_disc(d.doc_len, 0.75) AS BIGINT) AS q3_dl,
       CAST(max(d.doc_len) AS BIGINT) AS max_dl
FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
GROUP BY r.query_id"""
    )


def filters_agg_sql(queries: list[tuple[int, str]],
                    buckets: list[tuple[str, str]]) -> str:
    """Filters-agg oracle (pipelines.filters_agg replay; ES ``filters``
    agg): each named bucket's filter query becomes a synthetic query id
    (numbered on from the largest main query id) through the shared ranked
    chain; a cell is the main-hit-set ∩ bucket-hit-set size, zero-count
    cells omitted (the engine's emission rule)."""
    base = max((int(q) for q, _ in queries), default=-1) + 1
    synth = list(queries) + [(base + i, fq)
                             for i, (_, fq) in enumerate(buckets)]
    rows = ",".join(
        f"({base + i}, '" + nm.replace("'", "''") + "')"
        for i, (nm, _) in enumerate(buckets)
    )
    lit = f"bucket_lit(bq_id, bucket) AS (SELECT * FROM (VALUES {rows}))"
    main_ids = ",".join(str(int(q)) for q, _ in queries)
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(synth), _bm25_ranked_cte(), lit,
        )
        + f"""
, hits AS (SELECT query_id, doc_id FROM scores WHERE units > 0)
SELECT m.query_id, l.bucket, CAST(count(*) AS BIGINT) AS n_hits
FROM hits m
JOIN hits b ON b.doc_id = m.doc_id AND b.query_id >= {base}
JOIN bucket_lit l ON l.bq_id = b.query_id
WHERE m.query_id IN ({main_ids})
GROUP BY m.query_id, l.bucket"""
    )


def weighted_avg_agg_sql(queries: list[tuple[int, str]]) -> str:
    """Weighted-avg oracle (pipelines.weighted_avg_agg replay; ES
    ``weighted_avg``, value = doc_len, weight = tf of the query's first
    analyzed token): exact integer sums over the hit set, ONE double
    division — the identical IEEE op the engine performs.  The weight
    token is rendered client-side through the same analyzer; queries
    with zero weight mass vanish through the inner join (the engine's
    emission rule).  Untagged index shape: on a lang-tagged index the
    engine weights each hit by the token's variant in the hit's own
    language (``QueryEngine.search_weighted_avg``)."""
    from .analyzer import tokens_py

    wrows = []
    for qid, q in queries:
        toks = tokens_py(q)
        if toks:
            wrows.append((int(qid), toks[0]))
    rows = ",".join(
        f"({qid}, '" + t.replace("'", "''") + "')" for qid, t in wrows
    )
    lit = f"wlit(query_id, wterm) AS (SELECT * FROM (VALUES {rows}))"
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(), lit,
        )
        + """
, wa_base AS (
  SELECT query_id, CAST(count(*) AS BIGINT) AS n_hits
  FROM ranked GROUP BY query_id
),
wa_sums AS (
  SELECT r.query_id,
         CAST(sum(p2.tf) AS BIGINT) AS sum_w,
         CAST(sum(p2.tf * d.doc_len) AS BIGINT) AS sum_wv
  FROM ranked r
  JOIN wlit w ON w.query_id = r.query_id
  JOIN postings p2 ON p2.doc_id = r.doc_id AND p2.term = w.wterm
  JOIN docs d ON d.doc_id = r.doc_id
  GROUP BY r.query_id
)
SELECT b.query_id, b.n_hits, s.sum_w, s.sum_wv,
       CAST(s.sum_wv AS DOUBLE) / s.sum_w AS weighted_avg
FROM wa_base b JOIN wa_sums s ON s.query_id = b.query_id"""
    )


def t_test_agg_sql(pairs: list[tuple[int, str, str]]) -> str:
    """Welch-t-test oracle (pipelines.t_test_agg replay; ES ``t_test``
    agg, heteroscedastic): each pair's two filter queries become
    synthetic query ids 2*pid / 2*pid+1 (the adjacency convention); per
    side, exact integer (n, Σdl, Σdl²) over the live hit set, floats
    derived with the IDENTICAL op sequence query.welch_t_floats runs
    (sample variance /(n-1), clamp at literal +0.0, one sqrt).  Pairs
    where either side has n < 2 emit no row."""
    synth = []
    for pid, qa, qb in pairs:
        synth.append((2 * int(pid), qa))
        synth.append((2 * int(pid) + 1, qb))
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(synth), _bm25_ranked_cte(),
        )
        + """
, hits AS (SELECT query_id, doc_id FROM scores WHERE units > 0),
sides AS (
  SELECT h.query_id,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(d.doc_len) AS BIGINT) AS s,
         CAST(sum(d.doc_len * d.doc_len) AS BIGINT) AS ss
  FROM hits h JOIN docs d ON d.doc_id = h.doc_id
  GROUP BY h.query_id
),
tt_base AS (
  SELECT a.query_id // 2 AS query_id,
         a.n AS n1, a.s AS sum1, a.ss AS sum_sq1,
         b.n AS n2, b.s AS sum2, b.ss AS sum_sq2
  FROM sides a JOIN sides b ON b.query_id = a.query_id + 1
  WHERE a.query_id % 2 = 0 AND a.n >= 2 AND b.n >= 2
),
tt_mean AS (
  SELECT *,
         CAST(sum1 AS DOUBLE) / n1 AS mean1,
         CAST(sum2 AS DOUBLE) / n2 AS mean2
  FROM tt_base
),
tt_var AS (
  SELECT *,
         CASE WHEN (CAST(sum_sq1 AS DOUBLE)
                    - CAST(sum1 AS DOUBLE) * CAST(sum1 AS DOUBLE) / n1)
                   / (n1 - 1) <= CAST(0 AS DOUBLE)
              THEN CAST(0 AS DOUBLE)
              ELSE (CAST(sum_sq1 AS DOUBLE)
                    - CAST(sum1 AS DOUBLE) * CAST(sum1 AS DOUBLE) / n1)
                   / (n1 - 1)
         END AS v1,
         CASE WHEN (CAST(sum_sq2 AS DOUBLE)
                    - CAST(sum2 AS DOUBLE) * CAST(sum2 AS DOUBLE) / n2)
                   / (n2 - 1) <= CAST(0 AS DOUBLE)
              THEN CAST(0 AS DOUBLE)
              ELSE (CAST(sum_sq2 AS DOUBLE)
                    - CAST(sum2 AS DOUBLE) * CAST(sum2 AS DOUBLE) / n2)
                   / (n2 - 1)
         END AS v2
  FROM tt_mean
)
SELECT CAST(query_id AS BIGINT) AS query_id,
       n1, sum1, sum_sq1, n2, sum2, sum_sq2, mean1, mean2,
       CASE WHEN sqrt(v1 / n1 + v2 / n2) > CAST(0 AS DOUBLE)
            THEN (mean1 - mean2) / sqrt(v1 / n1 + v2 / n2)
            ELSE CAST(0 AS DOUBLE)
       END AS t_stat
FROM tt_var"""
    )


def scroll_topk_sql(queries: list[tuple[int, str]], k: int = 10,
                    pages: int = 3) -> str:
    """Scroll oracle (pipelines.scroll_topk replay; ES ``scroll`` deep
    pagination): the global top pages·k under (units DESC, doc_id ASC),
    sliced into fixed-k pages."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
SELECT query_id,
       CAST((rnk - 1) // {k} + 1 AS BIGINT) AS page,
       CAST(rnk - ((rnk - 1) // {k}) * {k} AS BIGINT) AS rank,
       doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {int(pages) * int(k)}"""
    )


def _field2_ctes() -> list[str]:
    """The ``source`` FIELD's own CTE chain (corpus2 → docs2 → postings2
    → df2 → stats2): same identity columns as the content field — so
    doc_id63 agrees — but content := source, its own df and avgdl.  The
    SQL rendering of an ES multi-field mapping (one inverted index per
    field, per-field statistics)."""
    corpus2 = f"""
corpus2 AS (
  SELECT source AS repo,
         CAST(doc_id AS VARCHAR) AS path,
         '{DOCS_COMMIT}' AS commit_sha,
         lang,
         source AS content
  FROM documents
)"""
    docs2 = f"""
docs2 AS (
  SELECT {doc_id63_sql('repo', 'path', 'commit_sha')} AS doc_id,
         repo, path, commit_sha, lang,
         CAST(len(tokens) AS BIGINT) AS doc_len,
         tokens
  FROM (
    SELECT *, {tokens_sql('content')} AS tokens
    FROM corpus2
    WHERE content IS NOT NULL AND trim(content, {_WS_TRIMSET}) <> ''
  )
)"""
    postings2 = """
tok2 AS (SELECT doc_id, unnest(tokens) AS term FROM docs2),
postings2 AS (
  SELECT term, doc_id, CAST(count(*) AS BIGINT) AS tf
  FROM tok2 GROUP BY term, doc_id
)"""
    df2 = """
df2 AS (
  SELECT term, CAST(count(*) AS BIGINT) AS df, CAST(sum(tf) AS BIGINT) AS cf
  FROM postings2 GROUP BY term
)"""
    stats2 = """
stats2 AS (
  SELECT CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(doc_len) AS DOUBLE) / count(*) AS avgdl,
         CAST(sum(doc_len) AS BIGINT) AS total_tokens
  FROM docs2
)"""
    return [corpus2, docs2, postings2, df2, stats2]


def multi_match_topk_sql(queries: list[tuple[int, str]],
                         k: int = 10) -> str:
    """Multi-match oracle (pipelines.multi_match_topk replay; ES
    ``multi_match`` type=best_fields tie_breaker=0 / Lucene
    DisjunctionMaxQuery across fields): the shared BM25 unit expression
    runs once against the content field's chain and once against the
    source field's chain (each with its OWN df/avgdl — _field2_ctes);
    a doc's score is the MAX of its per-field sums, ranked
    (units DESC, doc_id ASC), cut to k."""
    contrib = _bm25_contrib_expr()
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_field2_ctes(), *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
, contribs2 AS (
  SELECT q.query_id, p.doc_id, {contrib} AS units
  FROM qterms q
  JOIN postings2 p ON p.term = q.term
  JOIN df2 f ON f.term = q.term
  JOIN docs2 d ON d.doc_id = p.doc_id
  CROSS JOIN stats2 s
),
scores2 AS (
  SELECT query_id, doc_id, CAST(sum(units) AS BIGINT) AS units
  FROM contribs2 GROUP BY query_id, doc_id
),
mm_all AS (
  SELECT query_id, doc_id, units FROM scores WHERE units > 0
  UNION ALL
  SELECT query_id, doc_id, units FROM scores2 WHERE units > 0
),
mm_best AS (
  SELECT query_id, doc_id, CAST(max(units) AS BIGINT) AS units
  FROM mm_all GROUP BY query_id, doc_id
),
mm_ranked AS (
  SELECT query_id, doc_id, units,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY units DESC, doc_id ASC) AS rnk
  FROM mm_best
)
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM mm_ranked WHERE rnk <= {int(k)}"""
    )


def distance_feature_topk_sql(queries: list[tuple[int, str]],
                              k: int = 10, origin: int = 60) -> str:
    """Distance-feature oracle (pipelines.distance_feature_topk replay):
    hits ranked by |doc_len - origin| ASC, doc_id ASC — all integers."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
, df_ranked AS (
  SELECT r.query_id, r.doc_id,
         CAST(abs(d.doc_len - {int(origin)}) AS BIGINT) AS dist,
         row_number() OVER (PARTITION BY r.query_id
                            ORDER BY abs(d.doc_len - {int(origin)}) ASC,
                                     r.doc_id ASC) AS rnk
  FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
)
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id, dist
FROM df_ranked WHERE rnk <= {int(k)}"""
    )


def analyze_api_sql(texts: list[tuple[int, str]]) -> str:
    """Analyze-API oracle (pipelines.analyze_api replay; ES ``_analyze``):
    the SQL analyzer twin's ordered token stream with 1-based positions —
    position-by-position parity between tokens_sql and the Arrow-kernel
    tokenizer, the anchor every other oracle builds on."""
    rows = ",".join(
        f"({int(qid)}, '" + s.replace("'", "''") + "')" for qid, s in texts
    )
    return f"""
WITH an_lit(query_id, txt) AS (SELECT * FROM (VALUES {rows})),
an_toks AS (SELECT query_id, {tokens_sql('txt')} AS toks FROM an_lit)
SELECT query_id, CAST(i AS BIGINT) AS pos, toks[i] AS token
FROM (
  SELECT query_id, toks, unnest(range(1, len(toks) + 1)) AS i
  FROM an_toks
)"""


def tfidf_keywords_sql(n: int = 5) -> str:
    """Per-doc keyword oracle (pipelines.tfidf_keywords replay): top-n
    terms per document by quantized tf·idf units — the idf_coord unit
    convention on the term side (one float chain, identical op order),
    ties term ASC."""
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE,
              STATS_CTE)
        + f"""
, kw AS (
  SELECT p.doc_id, p.term, p.tf, f.df,
         CAST(round((p.tf * ln(1e0 + (s.n_docs - f.df + {_f(0.5)})
                               / (f.df + {_f(0.5)})))
                    * {_f(float(SCORE_SCALE))}) AS BIGINT) AS units
  FROM postings p
  JOIN df f ON f.term = p.term
  CROSS JOIN stats s
),
kw_ranked AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id
                               ORDER BY units DESC, term ASC) AS rnk
  FROM kw
)
SELECT doc_id, CAST(rnk AS BIGINT) AS rank, term, tf, df,
       units / {_f(float(SCORE_SCALE))} AS score
FROM kw_ranked WHERE rnk <= {int(n)}"""
    )


def phrase_suggest_sql(queries: list[tuple[int, str]], n: int = 5,
                       max_edits: int = 1, cand_n: int = 5) -> str:
    """Phrase-suggester oracle (pipelines.phrase_suggest replay; ES
    ``phrase`` suggester, exact collate): per query, each of its TWO
    analyzer-normalized tokens generates dictionary candidates within
    levenshtein ``max_edits`` (d=0 kept), cut to ``cand_n`` by
    (distance ASC, df DESC, term ASC) — the engine's _phrase_candidates
    rule; candidate pairs score by document co-occurrence count, ranked
    (n_docs DESC, phrase ASC), cut to ``n``."""
    from .analyzer import tokens_py

    rows = []
    for qid, q in queries:
        toks = tokens_py(q)
        if len(toks) != 2:
            continue  # the SQL twin covers the two-token suggester shape
        a = toks[0].replace("'", "''")
        b = toks[1].replace("'", "''")
        rows.append(f"({int(qid)}, '{a}', '{b}')")
    lit = (f"ps_lit(query_id, tok1, tok2) AS "
           f"(SELECT * FROM (VALUES {','.join(rows)}))")
    cand = """
cand{i} AS (
  SELECT q.query_id, f.term, f.df,
         row_number() OVER (PARTITION BY q.query_id
                            ORDER BY levenshtein(f.term, q.tok{i}) ASC,
                                     f.df DESC, f.term ASC) AS rnk
  FROM ps_lit q
  JOIN df f ON levenshtein(f.term, q.tok{i}) <= {e}
)"""
    return (
        _with(CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, lit)
        + ","
        + cand.format(i=1, e=int(max_edits))
        + ","
        + cand.format(i=2, e=int(max_edits))
        + f"""
, ps_pairs AS (
  SELECT a.query_id, a.term AS t1, b.term AS t2
  FROM cand1 a JOIN cand2 b ON b.query_id = a.query_id
  WHERE a.rnk <= {int(cand_n)} AND b.rnk <= {int(cand_n)}
),
ps_co AS (
  SELECT p.query_id, p.t1, p.t2, CAST(count(*) AS BIGINT) AS n_docs
  FROM ps_pairs p
  JOIN postings h1 ON h1.term = p.t1
  JOIN postings h2 ON h2.term = p.t2 AND h2.doc_id = h1.doc_id
  GROUP BY p.query_id, p.t1, p.t2
),
ps_ranked AS (
  SELECT query_id, t1 || ' ' || t2 AS phrase, n_docs,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY n_docs DESC,
                                     t1 || ' ' || t2 ASC) AS rnk
  FROM ps_co
)
SELECT query_id, phrase, n_docs, CAST(rnk AS BIGINT) AS rank
FROM ps_ranked WHERE rnk <= {int(n)}"""
    )


def composite_agg_sql(queries: list[tuple[int, str]], width: int = 16,
                      size: int = 4,
                      after: "tuple[str, int] | None" = ("de", 16)) -> str:
    """Composite-agg oracle (pipelines.composite_agg replay; ES
    ``composite`` agg over lang-terms ASC + doc_len-histogram ASC with
    after-key pagination): buckets strictly after ``after`` in (lang,
    bucket) tuple order, first ``size`` per query."""
    where = ""
    if after is not None:
        al = after[0].replace("'", "''")
        ab = int(after[1])
        where = (f"\n  WHERE lang > '{al}'"
                 f" OR (lang = '{al}' AND bucket > {ab})")
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
, comp AS (
  SELECT r.query_id, d.lang,
         CAST((d.doc_len // {int(width)}) * {int(width)} AS BIGINT)
           AS bucket,
         CAST(count(*) AS BIGINT) AS n_hits
  FROM ranked r JOIN docs d ON d.doc_id = r.doc_id
  GROUP BY r.query_id, d.lang, (d.doc_len // {int(width)}) * {int(width)}
),
comp_page AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY lang ASC, bucket ASC) AS rn
  FROM comp{where}
)
SELECT query_id, lang, bucket, n_hits
FROM comp_page WHERE rn <= {int(size)}"""
    )


def span_range_topk_sql(specs: list[tuple[int, str, int, int]],
                        k: int = 10) -> str:
    """SpanPositionRangeQuery oracle (pipelines.span_range_topk replay):
    term at a 0-based position in [lo, hi) — tokpos is 1-based, so
    pos > lo AND pos <= hi is the same set."""
    q = _sql_quote
    legs = [
        f"SELECT {qid} AS query_id, doc_id FROM tokpos"
        f"\n  WHERE term = {q(t)} AND pos > {int(lo)} AND pos <= {int(hi)}"
        f" GROUP BY doc_id"
        for qid, t, lo, hi in specs
    ]
    phrase_ok = "phrase_ok AS (" + "\nUNION ALL\n".join(legs) + ")"
    lits = [(qid, t) for qid, t, _, _ in specs]
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(lits), TOKPOS_CTE, phrase_ok,
            _bm25_ranked_cte(verify_join=PHRASE_VERIFY_JOIN),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def total_hits_sql(queries: list[tuple[int, str]]) -> str:
    """track_total_hits oracle (pipelines.total_hits replay): matching-doc
    count per query; LEFT JOIN from the query literals keeps zero-hit
    queries in the result (the engine emits one row per query always)."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + """
SELECT q.query_id, CAST(count(r.doc_id) AS BIGINT) AS n_hits
FROM query_lit q LEFT JOIN ranked r ON r.query_id = q.query_id
GROUP BY q.query_id"""
    )


def rrf_hybrid_sql(queries: list[tuple[int, str]], k: int = 10,
                   rrf_k: int = 60) -> str:
    """RRF fusion (1/(60+rank)) of the BM25 and IDF-coordination top-k lists
    (reference: RRFRanker(k=60) over dense+sparse hits, retrievers.py:135-141).
    """
    unit = (
        f"CAST(round((1e0 / ({rrf_k} + rnk)) * {_f(float(SCORE_SCALE))}) AS BIGINT)"
    )
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(), _coord_ranked_cte(),
            f"""
rrf AS (
  SELECT query_id, doc_id, CAST(sum(u) AS BIGINT) AS units FROM (
    SELECT query_id, doc_id, {unit} AS u FROM ranked WHERE rnk <= {k}
    UNION ALL
    SELECT query_id, doc_id, {unit} AS u FROM coord_ranked WHERE rnk <= {k}
  ) GROUP BY query_id, doc_id
),
rrf_ranked AS (
  SELECT query_id, doc_id, units,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY units DESC, doc_id ASC) AS rnk
  FROM rrf
)""",
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS rrf_score
FROM rrf_ranked WHERE rnk <= {k}"""
    )


def weighted_hybrid_sql(queries: list[tuple[int, str]], k: int = 10,
                        w1: float = 0.7, w2: float = 0.3) -> str:
    """WeightedRanker oracle (pipelines.weighted_hybrid replay): per-query
    min-max normalization of each leg's integer score units over its top-k
    hits (single-score leg -> 1.0), per-leg quantization to integer units
    via floor(w*norm*scale + 0.5) — the half-up rule both sides share —
    then an exact integer sum (reference: pymilvus WeightedRanker,
    retrievers.py:9 / main.py:17)."""
    scale = _f(float(SCORE_SCALE))

    def leg(src: str, w: float) -> str:
        return f"""
    SELECT query_id, doc_id,
           CAST(floor(({_f(w)} * norm) * {scale} + 0.5e0) AS BIGINT) AS cu
    FROM (
      SELECT query_id, doc_id,
             CASE WHEN maxu = minu THEN 1e0
                  ELSE CAST(units - minu AS DOUBLE)
                       / CAST(maxu - minu AS DOUBLE)
             END AS norm
      FROM (
        SELECT query_id, doc_id, units,
               min(units) OVER (PARTITION BY query_id) AS minu,
               max(units) OVER (PARTITION BY query_id) AS maxu
        FROM {src} WHERE rnk <= {k}
      )
    )"""

    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(), _coord_ranked_cte(),
            f"""
wsum AS (
  SELECT query_id, doc_id, CAST(sum(cu) AS BIGINT) AS units FROM (
{leg('ranked', w1)}
    UNION ALL
{leg('coord_ranked', w2)}
  ) GROUP BY query_id, doc_id
),
w_ranked AS (
  SELECT query_id, doc_id, units,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY units DESC, doc_id ASC) AS rnk
  FROM wsum
)""",
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {scale} AS weighted_score
FROM w_ranked WHERE rnk <= {k}"""
    )


def chunk_docs_sql(chunk_size: int = 1000, overlap: int = 100) -> str:
    """Fixed-window chunker oracle (M1; reference chunk params ingest.py:90-91)."""
    step = chunk_size - overlap
    return f"""
WITH base AS (
  SELECT doc_id, text,
         greatest(1, CAST(ceil((len(text) - {overlap}) / {_f(float(step))})
                          AS BIGINT)) AS n_chunks
  FROM documents
)
SELECT doc_id, j AS chunk_id,
       substr(text, 1 + {step} * CAST(j AS INTEGER), {chunk_size}) AS chunk
FROM base, unnest(range(0, n_chunks)) AS t(j)"""


def _emb_cos_sql(a: str, b: str, dim: int = 64) -> str:
    """Row-wise cosine of two FLOAT[] columns (mirrors ops.contract._cos_sql)."""
    def dot(x: str, y: str) -> str:
        return (
            f"list_aggregate(list_transform(range(1, len({x}) + 1), "
            f"i -> CAST({x}[i] AS DOUBLE) * CAST({y}[i] AS DOUBLE)), 'sum')"
        )

    return f"({dot(a, b)} / (sqrt({dot(a, a)}) * sqrt({dot(b, b)})))"


def rrf_dense_sparse_sql(queries: list[tuple[int, str]], k: int = 10,
                         rrf_k: int = 60, n_dense_q: int = 5) -> str:
    """RRF of the BM25 (sparse) leg and the native ANN-cosine (dense) leg —
    the reference's true hybrid shape (dense + sparse, retrievers.py:110-150).

    Dense leg: embeddings vec_id < n_dense_q are the query vectors (paired
    with DOC_QUERIES 0..n-1); vector i represents documents row i, mapped to
    the engine's 63-bit doc-id space through the docs CTE (path = raw id)."""
    unit = (
        f"CAST(round((1e0 / ({rrf_k} + rnk)) * {_f(float(SCORE_SCALE))}) AS BIGINT)"
    )
    cos = _emb_cos_sql("q.embedding", "e.embedding")
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
            f"""
dense_scored AS (
  SELECT q.vec_id AS query_id, e.vec_id, {cos} AS cos
  FROM embeddings q JOIN embeddings e ON e.vec_id <> q.vec_id
  WHERE q.vec_id < {n_dense_q}
),
dense_ranked AS (
  SELECT query_id, vec_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY cos DESC, vec_id ASC) AS rnk
  FROM dense_scored
),
dense_mapped AS (
  SELECT r.query_id, d.doc_id, r.rnk
  FROM dense_ranked r
  JOIN docs d ON d.path = CAST(r.vec_id AS VARCHAR)
  WHERE r.rnk <= {k}
),
rrf AS (
  SELECT query_id, doc_id, CAST(sum(u) AS BIGINT) AS units FROM (
    SELECT query_id, doc_id, {unit} AS u FROM ranked
    WHERE rnk <= {k} AND query_id < {n_dense_q}
    UNION ALL
    SELECT query_id, doc_id, {unit} AS u FROM dense_mapped
  ) GROUP BY query_id, doc_id
),
rrf_ranked AS (
  SELECT query_id, doc_id, units,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY units DESC, doc_id ASC) AS rnk
  FROM rrf
)""",
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS rrf_score
FROM rrf_ranked WHERE rnk <= {k}"""
    )


def bm25_topk_deleted_sql(queries: list[tuple[int, str]], k: int = 10,
                          dead_pred: str = "FALSE") -> str:
    """Tombstone-masked BM25 oracle (delete.delete_docs pre-compaction):
    stats over the FULL corpus, docs matching ``dead_pred`` (predicate over
    the docs alias ``d``) excluded before ranking."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(dead_pred=dead_pred),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def bm25_topk_compacted_sql(queries: list[tuple[int, str]], k: int = 10,
                            live_where: str = "TRUE") -> str:
    """Post-compaction BM25 oracle: identical to a from-scratch build over
    the surviving corpus (``live_where`` filters raw ``documents`` rows) —
    stats, df and ranks all recomputed from the live subset."""
    return (
        _with(
            corpus_from_documents_sql(where=live_where), DOCS_CTE,
            POSTINGS_CTE, DF_CTE, STATS_CTE, *_query_ctes(queries),
            _bm25_ranked_cte(),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def phrase_topk_sql(phrases: list[tuple[int, str]], k: int = 10) -> str:
    """Phrase search oracle (candidate + verify): BM25 over the phrase's
    terms, restricted to docs whose raw content contains the phrase as an
    exact (case-sensitive) substring.  Mirrors pipelines.phrase_topk —
    the classic scale shape for phrase queries without positional postings
    (candidate docs from the inverted index, substring verification on the
    forward content)."""
    verify = ("JOIN phrase_ok v ON v.query_id = q.query_id"
              " AND v.doc_id = p.doc_id")
    phrase_ok = f"""
phrase_ok AS (
  SELECT l.query_id,
         {doc_id63_sql('c.repo', 'c.path', 'c.commit_sha')} AS doc_id
  FROM query_lit l JOIN corpus c ON strpos(c.content, l.query) > 0
)"""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(phrases), phrase_ok,
            _bm25_ranked_cte(verify_join=verify),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


# Shared pieces of the positional-phrase oracles: the token-position CTE,
# the phrase_ok verify join, and SQL string quoting.
TOKPOS_CTE = """
tokpos AS (
  SELECT doc_id, unnest(tokens) AS term,
         generate_subscripts(tokens, 1) AS pos
  FROM docs
)"""

PHRASE_VERIFY_JOIN = ("JOIN phrase_ok v ON v.query_id = q.query_id"
                      " AND v.doc_id = p.doc_id")


def _sql_quote(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def phrase_topk_tokens_sql(phrases: list[tuple[int, str]], k: int = 10) -> str:
    """Token-level phrase oracle (pipelines.phrase_topk match='tokens'):
    the phrase's analyzed tokens must appear at CONSECUTIVE positions in the
    doc's token stream — replayed in SQL via unnest+generate_subscripts and
    one self-join per extra token.  Case/separator-insensitive by
    construction (both sides run the analyzer)."""
    from .analyzer import tokens_py

    q = _sql_quote
    legs = []
    for qid, ph in phrases:
        toks = tokens_py(ph)
        if not toks:
            continue
        joins = "".join(
            f"\n  JOIN tokpos x{j} ON x{j}.doc_id = x0.doc_id"
            f" AND x{j}.pos = x0.pos + {j} AND x{j}.term = {q(toks[j])}"
            for j in range(1, len(toks))
        )
        legs.append(
            f"SELECT {qid} AS query_id, x0.doc_id FROM tokpos x0{joins}"
            f"\n  WHERE x0.term = {q(toks[0])} GROUP BY x0.doc_id"
        )
    phrase_ok = "phrase_ok AS (" + "\nUNION ALL\n".join(legs) + ")"
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(phrases), TOKPOS_CTE, phrase_ok,
            _bm25_ranked_cte(verify_join=PHRASE_VERIFY_JOIN),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def phrase_near_topk_sql(near: list[tuple[int, str, str, int]],
                         k: int = 10, ordered: bool = True) -> str:
    """Proximity oracle (pipelines.phrase_near_topk): second term within
    ``slop`` positions after the first (``ordered``) or on either side,
    qualifying docs BM25-ranked on both terms.  Terms in a pair must
    differ (the unordered window has no self-position exclusion)."""
    q = _sql_quote
    legs = []
    for qid, a, b, slop in near:
        if a == b:
            raise ValueError("proximity pair terms must differ")
        window = (f"x1.pos > x0.pos AND x1.pos <= x0.pos + {slop}" if ordered
                  else f"x1.pos >= x0.pos - {slop}"
                       f" AND x1.pos <= x0.pos + {slop}")
        legs.append(
            f"SELECT {qid} AS query_id, x0.doc_id FROM tokpos x0"
            f"\n  JOIN tokpos x1 ON x1.doc_id = x0.doc_id"
            f" AND {window}"
            f" AND x1.term = {q(b)}"
            f"\n  WHERE x0.term = {q(a)} GROUP BY x0.doc_id"
        )
    phrase_ok = "phrase_ok AS (" + "\nUNION ALL\n".join(legs) + ")"
    lits = [(qid, f"{a} {b}") for qid, a, b, _ in near]
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(lits), TOKPOS_CTE, phrase_ok,
            _bm25_ranked_cte(verify_join=PHRASE_VERIFY_JOIN),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def span_near_topk_sql(spans: list[tuple[int, list[str], int]],
                       k: int = 10, ordered: bool = True) -> str:
    """Multi-term span-NEAR oracle (pipelines.span_near_topk replay; Lucene
    SpanNearQuery): one occurrence of EVERY listed term inside a window of
    <= ``window`` positions (max pos - min pos), in listed order when
    ``ordered``.  One +-window self-join per extra term keeps the join
    bounded; the greatest-least predicate enforces the true window."""
    q = _sql_quote
    legs = []
    for qid, terms, window in spans:
        if len(set(terms)) != len(terms):
            raise ValueError("span terms must be distinct")
        n = len(terms)
        alias_pos = [f"x{i}.pos" for i in range(n)]
        if ordered:
            bounds = "".join(
                f" AND x{i}.pos > x{i-1}.pos"
                f" AND x{i}.pos <= x0.pos + {window}"
                for i in range(1, n))
            widen = f"x{n-1}.pos - x0.pos <= {window}"
        else:
            bounds = "".join(
                f" AND x{i}.pos >= x0.pos - {window}"
                f" AND x{i}.pos <= x0.pos + {window}"
                for i in range(1, n))
            widen = (f"greatest({', '.join(alias_pos)})"
                     f" - least({', '.join(alias_pos)}) <= {window}")
        joins = "".join(
            f"\n  JOIN tokpos x{i} ON x{i}.doc_id = x0.doc_id"
            f" AND x{i}.term = {q(terms[i])}"
            for i in range(1, n))
        legs.append(
            f"SELECT {qid} AS query_id, x0.doc_id FROM tokpos x0{joins}"
            f"\n  WHERE x0.term = {q(terms[0])}{bounds}"
            f" AND {widen} GROUP BY x0.doc_id"
        )
    phrase_ok = "phrase_ok AS (" + "\nUNION ALL\n".join(legs) + ")"
    lits = [(qid, " ".join(terms)) for qid, terms, _ in spans]
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(lits), TOKPOS_CTE, phrase_ok,
            _bm25_ranked_cte(verify_join=PHRASE_VERIFY_JOIN),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def multi_phrase_topk_sql(queries: list[tuple[int, list[list[str]]]],
                          k: int = 10) -> str:
    """MultiPhraseQuery oracle (pipelines.multi_phrase_topk replay; Lucene
    MultiPhraseQuery): consecutive positions, each matched by ANY of its
    alternative terms (term IN (...) per join); scored over the full
    alternative bag (qtf = positions containing the term)."""
    q = _sql_quote
    legs, lits = [], []
    for qid, poss in queries:
        def _in(alts):
            return "(" + ", ".join(q(t) for t in alts) + ")"

        joins = "".join(
            f"\n  JOIN tokpos x{j} ON x{j}.doc_id = x0.doc_id"
            f" AND x{j}.pos = x0.pos + {j} AND x{j}.term IN {_in(poss[j])}"
            for j in range(1, len(poss)))
        legs.append(
            f"SELECT {qid} AS query_id, x0.doc_id FROM tokpos x0{joins}"
            f"\n  WHERE x0.term IN {_in(poss[0])} GROUP BY x0.doc_id")
        lits.append((qid, " ".join(t for alts in poss for t in alts)))
    phrase_ok = "phrase_ok AS (" + "\nUNION ALL\n".join(legs) + ")"
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(lits), TOKPOS_CTE, phrase_ok,
            _bm25_ranked_cte(verify_join=PHRASE_VERIFY_JOIN),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def span_contain_topk_sql(specs: list[tuple[int, str, str, int, list[str]]],
                          k: int = 10, score: str = "big") -> str:
    """SpanContaining / SpanWithin oracle (pipelines.span_containing_topk /
    span_within_topk replay; Lucene SpanContainingQuery /
    SpanWithinQuery): a (big_a, big_b) occurrence pair spanning
    <= ``window`` positions fully contains the little token-phrase match
    (ga.pos <= start AND end <= gb.pos).  Both queries share the doc
    condition; ``score`` selects which side's terms feed the BM25 bag
    ("big" = containing, "little" = within) — exactly the engine split."""
    q = _sql_quote
    legs, lits = [], []
    for qid, ba, bb, win, toks in specs:
        if ba == bb:
            raise ValueError("big span terms must differ")
        n = len(toks)
        joins = "".join(
            f"\n  JOIN tokpos x{j} ON x{j}.doc_id = x0.doc_id"
            f" AND x{j}.pos = x0.pos + {j} AND x{j}.term = {q(toks[j])}"
            for j in range(1, n))
        joins += (
            f"\n  JOIN tokpos ga ON ga.doc_id = x0.doc_id"
            f" AND ga.term = {q(ba)} AND ga.pos <= x0.pos"
            f"\n  JOIN tokpos gb ON gb.doc_id = x0.doc_id"
            f" AND gb.term = {q(bb)} AND gb.pos >= x0.pos + {n - 1}"
            f" AND gb.pos - ga.pos <= {win}")
        legs.append(
            f"SELECT {qid} AS query_id, x0.doc_id FROM tokpos x0{joins}"
            f"\n  WHERE x0.term = {q(toks[0])} GROUP BY x0.doc_id")
        lits.append((qid, f"{ba} {bb}" if score == "big"
                     else " ".join(toks)))
    phrase_ok = "phrase_ok AS (" + "\nUNION ALL\n".join(legs) + ")"
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(lits), TOKPOS_CTE, phrase_ok,
            _bm25_ranked_cte(verify_join=PHRASE_VERIFY_JOIN),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def phrase_prefix_topk_sql(queries: list[tuple[int, str]],
                           k: int = 10) -> str:
    """match_phrase_prefix oracle (pipelines.phrase_prefix_topk replay):
    head tokens exact-consecutive, the next position matched by any
    dictionary term with the last token as prefix; scored qtf=1 over the
    DISTINCT head + expansion terms."""
    from .analyzer import tokens_py

    q = _sql_quote
    legs, lit_rows, pre_rows = [], [], []
    for qid, text in queries:
        toks = tokens_py(text)
        if not toks:
            continue
        head, pre = toks[:-1], toks[-1]
        pre_rows.append(f"({qid}, {q(pre + '%')})")
        lit_rows.extend(f"({qid}, {q(t)})" for t in dict.fromkeys(head))
        n = len(head)
        if n == 0:
            legs.append(
                f"SELECT {qid} AS query_id, doc_id FROM tokpos"
                f"\n  WHERE term LIKE {q(pre + '%')} GROUP BY doc_id")
        else:
            joins = "".join(
                f"\n  JOIN tokpos x{j} ON x{j}.doc_id = x0.doc_id"
                f" AND x{j}.pos = x0.pos + {j} AND x{j}.term = {q(head[j])}"
                for j in range(1, n))
            joins += (
                f"\n  JOIN tokpos xp ON xp.doc_id = x0.doc_id"
                f" AND xp.pos = x0.pos + {n} AND xp.term LIKE {q(pre + '%')}")
            legs.append(
                f"SELECT {qid} AS query_id, x0.doc_id FROM tokpos x0{joins}"
                f"\n  WHERE x0.term = {q(head[0])} GROUP BY x0.doc_id")
    phrase_ok = "phrase_ok AS (" + "\nUNION ALL\n".join(legs) + ")"
    lit_src = (f"SELECT * FROM (VALUES {','.join(lit_rows)})"
               f" v(query_id, term)" if lit_rows
               else "SELECT CAST(NULL AS BIGINT), CAST(NULL AS VARCHAR)"
                    " WHERE FALSE")
    qterms = f"""
pp_lit(query_id, pre) AS (SELECT * FROM (VALUES {','.join(pre_rows)})),
qterms AS (
  SELECT DISTINCT query_id, term, CAST(1 AS BIGINT) AS qtf FROM (
    {lit_src}
    UNION ALL
    SELECT l.query_id, f.term FROM pp_lit l JOIN df f ON f.term LIKE l.pre
  )
)"""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            qterms, TOKPOS_CTE, phrase_ok,
            _bm25_ranked_cte(verify_join=PHRASE_VERIFY_JOIN),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def span_first_topk_sql(specs: list[tuple[int, str, int]],
                        k: int = 10) -> str:
    """SpanFirstQuery oracle (pipelines.span_first_topk replay): term
    within the first ``limit`` token positions (tokpos is 1-based:
    pos <= limit == the engine's 0-based pos < limit)."""
    q = _sql_quote
    legs = [
        f"SELECT {qid} AS query_id, doc_id FROM tokpos"
        f"\n  WHERE term = {q(t)} AND pos <= {lim} GROUP BY doc_id"
        for qid, t, lim in specs
    ]
    phrase_ok = "phrase_ok AS (" + "\nUNION ALL\n".join(legs) + ")"
    lits = [(qid, t) for qid, t, _ in specs]
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(lits), TOKPOS_CTE, phrase_ok,
            _bm25_ranked_cte(verify_join=PHRASE_VERIFY_JOIN),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def dis_max_topk_sql(specs: "list[tuple[int, list[str]]]", k: int = 10,
                     tie: "tuple[int, int]" = (3, 10)) -> str:
    """Disjunction-max oracle (pipelines.dis_max_topk replay; Lucene
    DisjunctionMaxQuery): each clause scores as its own BM25 bag (encoded
    as sub-query id = qid*100 + clause index through the standard chain),
    then per (query, doc): best clause + tie x (sum of the others), the
    tie_breaker an exact integer rational (floor division — matches the
    engine bit-for-bit)."""
    if any(len(clauses) > 100 for _, clauses in specs):
        raise ValueError("sub-id encoding supports at most 100 clauses")
    sub = [(qid * 100 + ci, clause)
           for qid, clauses in specs
           for ci, clause in enumerate(clauses)]
    tn, td = int(tie[0]), int(tie[1])
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(sub), _bm25_ranked_cte(),
        )
        + f"""
, dm AS (
  SELECT CAST(query_id // 100 AS BIGINT) AS query_id, doc_id,
         CAST(max(units)
              + ({tn} * (sum(units) - max(units))) // {td} AS BIGINT)
           AS units
  FROM scores WHERE units > 0
  GROUP BY query_id // 100, doc_id
),
dm_ranked AS (
  SELECT query_id, doc_id, units,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY units DESC, doc_id ASC) AS rnk
  FROM dm
)
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM dm_ranked WHERE rnk <= {k}"""
    )


def boosting_topk_sql(specs: "list[tuple[int, str, str]]", k: int = 10,
                      nb: "tuple[int, int]" = (1, 2)) -> str:
    """Boosting-query oracle (pipelines.boosting_topk replay; Lucene
    BoostingQuery): positive bag ranks by BM25; docs also matching the
    negative bag are demoted by the exact rational ``nb`` (floor
    division), never excluded.  Sub-id encoding: qid*2 positive,
    qid*2+1 negative, through the standard chain."""
    sub = []
    for qid, pos, neg in specs:
        sub.append((qid * 2, pos))
        sub.append((qid * 2 + 1, neg))
    bn, bd = int(nb[0]), int(nb[1])
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(sub), _bm25_ranked_cte(),
        )
        + f"""
, boosted AS (
  SELECT CAST(p.query_id // 2 AS BIGINT) AS query_id, p.doc_id,
         CASE WHEN n.doc_id IS NOT NULL
              THEN ({bn} * p.units) // {bd} ELSE p.units END AS units
  FROM scores p
  LEFT JOIN scores n ON n.query_id = p.query_id + 1
                    AND n.doc_id = p.doc_id AND n.units > 0
  WHERE p.query_id % 2 = 0 AND p.units > 0
),
b_ranked AS (
  SELECT query_id, doc_id, units,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY units DESC, doc_id ASC) AS rnk
  FROM boosted
)
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM b_ranked WHERE rnk <= {k}"""
    )


def function_score_topk_sql(queries: list[tuple[int, str]],
                            k: int = 10) -> str:
    """Function-score oracle (QueryEngine.search_function_score replay;
    ES ``function_score`` with ``field_value_factor`` on doc_len, factor
    1, modifier none, boost_mode multiply / Lucene FunctionScoreQuery):
    final units = summed BM25 units x doc_len — integer-exact, through
    the standard ranked chain re-cut on the multiplied units."""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(),
        )
        + f"""
, fs_ranked AS (
  SELECT s.query_id, s.doc_id,
         CAST(s.units * d.doc_len AS BIGINT) AS units,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY s.units * d.doc_len DESC,
                                     s.doc_id ASC) AS rnk
  FROM scores s JOIN docs d ON d.doc_id = s.doc_id
  WHERE s.units > 0
)
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM fs_ranked WHERE rnk <= {k}"""
    )


def span_or_topk_sql(specs: list[tuple[int, list[list[str]]]],
                     k: int = 10) -> str:
    """SpanOrQuery oracle (pipelines.span_or_topk replay; Lucene
    SpanOrQuery): a doc verifies when ANY clause token-phrase occurs
    (consecutive positions; 1-token clause = presence).  DISTINCT over the
    clause legs — a doc matching several clauses must join the scoring CTE
    once.  Scored over the multiplicity bag of all clause tokens."""
    q = _sql_quote
    legs = []
    for qid, clauses in specs:
        for toks in clauses:
            if not toks:
                continue
            joins = "".join(
                f"\n  JOIN tokpos x{j} ON x{j}.doc_id = x0.doc_id"
                f" AND x{j}.pos = x0.pos + {j} AND x{j}.term = {q(toks[j])}"
                for j in range(1, len(toks))
            )
            legs.append(
                f"SELECT {qid} AS query_id, x0.doc_id FROM tokpos x0{joins}"
                f"\n  WHERE x0.term = {q(toks[0])} GROUP BY x0.doc_id"
            )
    phrase_ok = ("phrase_ok AS (SELECT DISTINCT query_id, doc_id FROM ("
                 + "\nUNION ALL\n".join(legs) + "))")
    lits = [(qid, " ".join(t for toks in clauses for t in toks))
            for qid, clauses in specs]
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(lits), TOKPOS_CTE, phrase_ok,
            _bm25_ranked_cte(verify_join=PHRASE_VERIFY_JOIN),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def span_not_topk_sql(specs: list[tuple[int, list[str], str, int, int]],
                      k: int = 10) -> str:
    """SpanNotQuery oracle (pipelines.span_not_topk replay; Lucene
    SpanNotQuery): an include token-phrase match at positions
    [p, p+n-1] survives iff no exclude occurrence lies in
    [p-pre, p+n-1+post]; a doc verifies when any match survives.  tokpos
    is 1-based but the window arithmetic is relative, so the offsets are
    identical to the engine's 0-based packed keys (and "no token at
    pos < 1" mirrors the engine's doc-start clamp).  Scored over the
    include tokens only."""
    q = _sql_quote
    legs = []
    for qid, toks, ex, pre, post in specs:
        if not toks:
            continue
        n = len(toks)
        joins = "".join(
            f"\n  JOIN tokpos x{j} ON x{j}.doc_id = x0.doc_id"
            f" AND x{j}.pos = x0.pos + {j} AND x{j}.term = {q(toks[j])}"
            for j in range(1, n)
        )
        legs.append(
            f"SELECT {qid} AS query_id, x0.doc_id FROM tokpos x0{joins}"
            f"\n  WHERE x0.term = {q(toks[0])} AND NOT EXISTS ("
            f"\n    SELECT 1 FROM tokpos e WHERE e.doc_id = x0.doc_id"
            f" AND e.term = {q(ex)}"
            f"\n      AND e.pos >= x0.pos - {int(pre)}"
            f" AND e.pos <= x0.pos + {n - 1 + int(post)})"
            f"\n  GROUP BY x0.doc_id"
        )
    phrase_ok = "phrase_ok AS (" + "\nUNION ALL\n".join(legs) + ")"
    lits = [(qid, " ".join(toks)) for qid, toks, _ex, _pre, _post in specs]
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(lits), TOKPOS_CTE, phrase_ok,
            _bm25_ranked_cte(verify_join=PHRASE_VERIFY_JOIN),
        )
        + f"""
SELECT query_id, CAST(rnk AS BIGINT) AS rank, doc_id,
       units / {_f(float(SCORE_SCALE))} AS score
FROM ranked WHERE rnk <= {k}"""
    )


def scorer_eval_sql(queries: list[tuple[int, str]], k: int = 10,
                    dead_pred: str = "FALSE") -> str:
    """Retrieval-quality harness oracle (reference eval.py:238-247 computes
    retrieval metrics over a query set): per-query INTEGER agreement of each
    scorer against the BM25 ground truth — ``n_overlap`` (|top-k ∩ gt
    top-k|) and ``top1_rank`` (rank of gt's #1 doc in the scorer's list, 0
    if absent).  Integers only, so the driver hash is immune to float
    summation order; aggregate recall@k / MRR derive as n_overlap/k and
    1/top1_rank.  Scorers: ``bmw`` (rank-identity contract: same ranked
    CTE), ``idf_coord`` and ``sparse`` (the hash-projection learned-sparse
    encoder over the SAME 63-bit doc-id space) — the latter two genuinely
    different rankings; ``sharded`` (the doc-partitioned fan-out, also
    rank-identical) and ``masked`` (the tombstoned index, ``dead_pred``
    over docs alias ``d``) guard the serving and update paths' quality."""
    from .ops.contract import _sparse_proj_sql

    def legs(name: str) -> str:
        return f"""
ov_{name} AS (
  SELECT g.query_id, CAST(count(s.doc_id) AS BIGINT) AS n_overlap
  FROM gt g LEFT JOIN s_{name} s
    ON s.query_id = g.query_id AND s.doc_id = g.doc_id
  GROUP BY g.query_id
),
t1_{name} AS (
  SELECT g.query_id, CAST(coalesce(s.rnk, 0) AS BIGINT) AS top1_rank
  FROM gt g LEFT JOIN s_{name} s
    ON s.query_id = g.query_id AND s.doc_id = g.doc_id
  WHERE g.rnk = 1
)"""

    sparse_ctes = f"""
sdproj AS ({_sparse_proj_sql('postings')}),
sdenc AS (
  SELECT doc_id, dim, CAST(sum(sat * w) AS BIGINT) AS weight
  FROM sdproj GROUP BY doc_id, dim
),
sqpost AS (SELECT query_id, term, qtf AS tf FROM qterms),
sqproj AS ({_sparse_proj_sql('sqpost')}),
sqenc AS (
  SELECT query_id, dim, CAST(sum(sat * w) AS BIGINT) AS weight
  FROM sqproj GROUP BY query_id, dim
),
sp_scores AS (
  SELECT q.query_id, d.doc_id,
         CAST(sum(q.weight * d.weight) AS BIGINT) AS score
  FROM sqenc q JOIN sdenc d USING (dim)
  GROUP BY q.query_id, d.doc_id
),
sp_ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) AS rnk
  FROM sp_scores WHERE score > 0
)"""
    return (
        _with(
            CORPUS_FROM_DOCUMENTS, DOCS_CTE, POSTINGS_CTE, DF_CTE, STATS_CTE,
            *_query_ctes(queries), _bm25_ranked_cte(), _coord_ranked_cte(),
            _bm25_ranked_cte(dead_pred=dead_pred, prefix="m_"),
            sparse_ctes,
            f"""
gt AS (SELECT query_id, doc_id, rnk FROM ranked WHERE rnk <= {k}),
s_bmw AS (SELECT query_id, doc_id, rnk FROM ranked WHERE rnk <= {k}),
s_sharded AS (SELECT query_id, doc_id, rnk FROM ranked WHERE rnk <= {k}),
s_masked AS (SELECT query_id, doc_id, rnk FROM m_ranked WHERE rnk <= {k}),
s_coord AS (SELECT query_id, doc_id, rnk FROM coord_ranked WHERE rnk <= {k}),
s_sparse AS (SELECT query_id, doc_id, rnk FROM sp_ranked WHERE rnk <= {k})"""
            + "," + legs("bmw") + "," + legs("coord") + "," + legs("sparse")
            + "," + legs("sharded") + "," + legs("masked"),
        )
        + """
SELECT 'bmw' AS scorer, o.query_id, o.n_overlap, t.top1_rank
FROM ov_bmw o JOIN t1_bmw t ON t.query_id = o.query_id
UNION ALL
SELECT 'idf_coord' AS scorer, o.query_id, o.n_overlap, t.top1_rank
FROM ov_coord o JOIN t1_coord t ON t.query_id = o.query_id
UNION ALL
SELECT 'sparse' AS scorer, o.query_id, o.n_overlap, t.top1_rank
FROM ov_sparse o JOIN t1_sparse t ON t.query_id = o.query_id
UNION ALL
SELECT 'sharded' AS scorer, o.query_id, o.n_overlap, t.top1_rank
FROM ov_sharded o JOIN t1_sharded t ON t.query_id = o.query_id
UNION ALL
SELECT 'masked' AS scorer, o.query_id, o.n_overlap, t.top1_rank
FROM ov_masked o JOIN t1_masked t ON t.query_id = o.query_id"""
    )


def chunk_docs_recursive_sql(chunk_size: int = 1000, overlap: int = 100) -> str:
    """Recursive-CTE replay of pipelines._recursive_chunks.

    Last-occurrence-of-separator via reverse+strpos: for window W of length
    SIZE and separator at (1-based) start q occupying L chars,
    strpos(reverse(W), reverse(sep)) = SIZE - q - L + 2, so the chunk length
    including the separator is q + L - 1 = SIZE - strpos + 1.  All three
    separators are palindromes, so reverse(sep) = sep."""
    size, ov = chunk_size, overlap
    w = f"substr(text, s, {size})"
    seps = [f"chr(10) || chr(10)", "chr(10)", "' '"]

    def clause(sep: str) -> str:
        p = f"strpos(reverse({w}), {sep})"
        return f"WHEN {p} > 0 AND ({size} - {p} + 1) > {ov} THEN {size} - {p} + 1"

    cut = "CASE " + " ".join(clause(s) for s in seps) + f" ELSE {size} END"
    return f"""
WITH RECURSIVE base AS (
  SELECT doc_id, coalesce(text, '') AS text, len(coalesce(text, '')) AS n
  FROM documents
),
ch(doc_id, chunk_id, s, text, n) AS (
  SELECT doc_id, 0, 1, text, n FROM base
  UNION ALL
  SELECT doc_id, chunk_id + 1, s + ({cut}) - {ov}, text, n
  FROM ch
  WHERE n - s + 1 > {size}
)
SELECT doc_id, CAST(chunk_id AS BIGINT) AS chunk_id,
       CASE WHEN n - s + 1 <= {size} THEN substr(text, s)
            ELSE substr(text, s, {cut}) END AS chunk
FROM ch"""
