"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB
(row-count + schema + order-insensitive value-hash -> CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing here
(or in splade_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline on sf0.001: build the lang-tagged inverted index over
    the documents-derived corpus, answer the BM25 query set through the
    actor-pool engine, return the results Dataset."""
    from splade_ray import pipelines

    return pipelines.bm25_topk(SF_SMOKE, scorer="taat")


def queries() -> dict[str, Callable[[str], Any]]:
    from splade_ray import pipelines as p

    # Catalog ORDER is deliberate: the driver verifies ~50 entries per round
    # in catalog order, so never-driver-verified entries come first, then the
    # least-recently-verified (training-data ops + delete/compact family,
    # last green r3), then the round-4-green serving entries.  Every entry
    # is pytest-covered regardless of driver rotation.
    catalog: dict[str, Callable[[str], Any]] = {}
    # Entries with NO green driver row yet (pack/stratified + the round-4
    # closing session's ops additions) — always first
    never_ops = ("pack_sequences", "stratified_sample", "decontaminate",
                 "repetition_stats", "gopher_filter", "unigram_nll",
                 "bigram_nll",
                 "ann_range_search", "ann_grouped_topk", "ann_filtered_topk",
                 "line_dedup")
    ops_q: dict[str, Callable[[str], Any]] = {}
    try:
        from splade_ray.ops import contract as ops_contract

        ops_q = ops_contract.queries()
        for name in never_ops:
            if name in ops_q:
                catalog[name] = ops_q.pop(name)
    except ImportError:
        pass
    catalog.update({
        # never driver-verified — keep inside the ~50-entry cap: round 5's
        # serving additions (extended_stats/random_score/adjacency_matrix/
        # pinned/term-suggester), then the span class completion
        # (or/not/containing/within, multi-phrase), WeightedRanker fusion,
        # compound queries, and the doc-values agg family
        # (stats/range/cardinality/percentiles/mget)
        "ext_stats_agg": p.ext_stats_agg,
        "random_score_topk": p.random_score_topk,
        "adjacency_matrix": p.adjacency_matrix,
        "pinned_topk": p.pinned_topk,
        "term_suggest": p.term_suggest,
        "constant_score_topk": p.constant_score_topk,
        "rank_feature_topk": p.rank_feature_topk,
        "mad_agg": p.mad_agg,
        "composite_agg": p.composite_agg,
        "span_range_topk": p.span_range_topk,
        "term_vectors": p.term_vectors,
        "rank_eval": p.rank_eval,
        "span_or_topk": p.span_or_topk,
        "span_not_topk": p.span_not_topk,
        "span_containing_topk": p.span_containing_topk,
        "span_within_topk": p.span_within_topk,
        "multi_phrase_topk": p.multi_phrase_topk,
        "weighted_hybrid": p.weighted_hybrid,
        "query_string_topk": p.query_string_topk,
        "dis_max_topk": p.dis_max_topk,
        "boosting_topk": p.boosting_topk,
        "stats_agg": p.stats_agg,
        "range_agg": p.range_agg,
        "lang_stats_agg": p.lang_stats_agg,
        "cardinality_agg": p.cardinality_agg,
        "percentiles_agg": p.percentiles_agg,
        "mget_docs": p.mget_docs,
        "top_hits_agg": p.top_hits_agg,
        "sort_topk": p.sort_topk,
        "function_score_topk": p.function_score_topk,
        # round-5 closing session: boxplot/filters/weighted_avg/t_test
        # aggs, scroll deep pagination — never driver-verified, so ahead
        # of the sharded twins in the cap
        "boxplot_agg": p.boxplot_agg,
        "filters_agg": p.filters_agg,
        "weighted_avg_agg": p.weighted_avg_agg,
        "t_test_agg": p.t_test_agg,
        "scroll_topk": p.scroll_topk,
        "phrase_suggest": p.phrase_suggest,
        "multi_match_topk": p.multi_match_topk,
        "tfidf_keywords": p.tfidf_keywords,
        "analyze_api": p.analyze_api,
        "distance_feature_topk": p.distance_feature_topk,
        # never-verified sharded twins (same oracles as the single-pool
        # entries; pytest covers shard parity, so these rank below the
        # distinct operators)
        "mget_docs_sharded": p.mget_docs_sharded,
        "lang_stats_agg_sharded": p.lang_stats_agg_sharded,
        "cardinality_agg_sharded": p.cardinality_agg_sharded,
        "percentiles_agg_sharded": p.percentiles_agg_sharded,
        "stats_agg_sharded": p.stats_agg_sharded,
        "range_agg_sharded": p.range_agg_sharded,
        "top_hits_agg_sharded": p.top_hits_agg_sharded,
        "sort_topk_sharded": p.sort_topk_sharded,
        "function_score_topk_sharded": p.function_score_topk_sharded,
        "rescore_topk_sharded": p.rescore_topk_sharded,
        "dis_max_topk_sharded": p.dis_max_topk_sharded,
        "boosting_topk_sharded": p.boosting_topk_sharded,
        "ext_stats_agg_sharded": p.ext_stats_agg_sharded,
        "random_score_topk_sharded": p.random_score_topk_sharded,
        "adjacency_matrix_sharded": p.adjacency_matrix_sharded,
        "pinned_topk_sharded": p.pinned_topk_sharded,
        "constant_score_topk_sharded": p.constant_score_topk_sharded,
        "rank_feature_topk_sharded": p.rank_feature_topk_sharded,
        "mad_agg_sharded": p.mad_agg_sharded,
        "composite_agg_sharded": p.composite_agg_sharded,
        "boxplot_agg_sharded": p.boxplot_agg_sharded,
        "filters_agg_sharded": p.filters_agg_sharded,
        "weighted_avg_agg_sharded": p.weighted_avg_agg_sharded,
        "t_test_agg_sharded": p.t_test_agg_sharded,
        "phrase_suggest_sharded": p.phrase_suggest_sharded,
        "distance_feature_topk_sharded": p.distance_feature_topk_sharded,
    })
    # rest of the ops family (last green r3 — least-recently-verified next)
    catalog.update(ops_q)
    catalog.update({
        # delete/compact/eval family (last green r3)
        "bm25_topk_deleted": p.bm25_topk_deleted,
        "bm25_topk_compacted": p.bm25_topk_compacted,
        "scorer_eval": p.scorer_eval,
        # full-text core (SURVEY.md §2) — green r4
        "corpus_docs": p.corpus_docs,
        "postings": p.postings,
        "term_df": p.term_df,
        "corpus_stats": p.corpus_stats,
        "top_terms": p.top_terms,
        "bm25_topk_taat": lambda sf: p.bm25_topk(sf, scorer="taat"),
        "bm25_topk_bmw": lambda sf: p.bm25_topk(sf, scorer="bmw"),
        "bm25_topk_merged": p.bm25_topk_merged,
        "bm25_topk_sharded": p.bm25_topk_sharded,
        "idf_coord_topk": p.idf_coord_topk,
        "bm25_topk_docs": p.bm25_topk_docs,
        "rrf_hybrid": p.rrf_hybrid,
        "rrf_dense_sparse": p.rrf_dense_sparse,
        "chunk_docs": p.chunk_docs,
        "chunk_docs_recursive": p.chunk_docs_recursive,
        "phrase_topk": p.phrase_topk,
        "phrase_topk_tokens": lambda sf: p.phrase_topk(sf, match="tokens"),
        "phrase_near_topk": p.phrase_near_topk,
        "phrase_near_unordered": lambda sf: p.phrase_near_topk(
            sf, ordered=False),
        # positional-sidecar serving path (build_index(positions=True)):
        # same semantics + oracles as the candidate+verify pair above, but
        # verified and scored ENTIRELY from the index — no content fetch
        "phrase_topk_positional": p.phrase_topk_positional,
        "phrase_near_positional": p.phrase_near_positional,
        "phrase_near_positional_unordered": lambda sf: p.phrase_near_positional(
            sf, ordered=False),
        "span_near_topk": p.span_near_topk,
        "span_first_topk": p.span_first_topk,
        "phrase_prefix_topk": p.phrase_prefix_topk,
        "span_near_unordered": lambda sf: p.span_near_topk(sf, ordered=False),
        # dictionary-rewrite queries through the same index (Lucene
        # PrefixQuery / BooleanQuery class, no Milvus analogue)
        "prefix_topk": p.prefix_topk,
        "fuzzy_topk": p.fuzzy_topk,
        "fuzzy2_topk": p.fuzzy2_topk,
        "wildcard_topk": p.wildcard_topk,
        "suggest_topk": p.suggest_topk,
        "filtered_topk": p.filtered_topk,
        "bool_topk": p.bool_topk,
        "bool_msm_topk": p.bool_msm_topk,
        "mlt_topk": p.mlt_topk,
        "sig_terms": p.sig_terms,
        "search_facets": p.search_facets,
        # doc-values sidecar family (Lucene DocValues / ES collapse,
        # terms-agg, track_total_hits)
        "highlight_topk": p.highlight_topk,
        "synonym_topk": p.synonym_topk,
        "regexp_topk": p.regexp_topk,
        "search_after_topk": p.search_after_topk,
        "rescore_topk": p.rescore_topk,
        "percolate": p.percolate,
        "explain_top1": p.explain_top1,
        "collapse_topk": p.collapse_topk,
        "lang_terms_agg": p.lang_terms_agg,
        "collapse_topk_sharded": p.collapse_topk_sharded,
        "lang_terms_agg_sharded": p.lang_terms_agg_sharded,
        "total_hits": p.total_hits,
        "dl_histogram": p.dl_histogram,
    })
    return catalog


def oracle_sql() -> dict[str, str]:
    from splade_ray import sql
    from splade_ray import pipelines as p
    from splade_ray.pipelines import DOC_QUERIES, TOP_K

    catalog: dict[str, str] = {}
    try:  # mirror queries()' rotation order (see the comment there)
        from splade_ray.ops import contract as ops_contract

        ops_s = ops_contract.oracle_sql()
        for name in ("pack_sequences", "stratified_sample"):
            if name in ops_s:
                catalog[name] = ops_s.pop(name)
        catalog.update(ops_s)
    except ImportError:
        pass
    catalog.update({
        "ext_stats_agg": sql.ext_stats_agg_sql(DOC_QUERIES),
        "random_score_topk": sql.random_score_topk_sql(DOC_QUERIES, TOP_K,
                                                       seed=p.RS_SEED),
        "adjacency_matrix": sql.adjacency_matrix_sql(p.ADJ_PAIRS),
        "pinned_topk": sql.pinned_topk_sql(DOC_QUERIES, TOP_K, p.PIN_MOD,
                                           p.PIN_RESIDUE, p.PIN_N),
        "term_suggest": sql.term_suggest_sql(p.norm_suggest_tokens(),
                                             p.SUGGEST_N,
                                             p.SUGGEST_MAX_EDITS),
        "constant_score_topk": sql.constant_score_topk_sql(
            DOC_QUERIES, TOP_K, boost=p.CONST_BOOST),
        "rank_feature_topk": sql.rank_feature_topk_sql(
            DOC_QUERIES, TOP_K, pivot=p.RF_PIVOT),
        "mad_agg": sql.mad_agg_sql(DOC_QUERIES),
        "composite_agg": sql.composite_agg_sql(
            DOC_QUERIES, p.COMP_WIDTH, p.COMP_SIZE, p.COMP_AFTER),
        "span_range_topk": sql.span_range_topk_sql(p.SPAN_RANGE_QUERIES,
                                                   TOP_K),
        "term_vectors": sql.term_vectors_sql(p.TV_MOD, p.TV_RESIDUE),
        "rank_eval": sql.rank_eval_sql(DOC_QUERIES, TOP_K),
        "span_or_topk": sql.span_or_topk_sql(p.SPAN_OR_QUERIES, TOP_K),
        "span_not_topk": sql.span_not_topk_sql(p.SPAN_NOT_QUERIES, TOP_K),
        "span_containing_topk": sql.span_contain_topk_sql(
            p.SPAN_CONTAIN_QUERIES, TOP_K, score="big"),
        "span_within_topk": sql.span_contain_topk_sql(
            p.SPAN_CONTAIN_QUERIES, TOP_K, score="little"),
        "multi_phrase_topk": sql.multi_phrase_topk_sql(
            p.MULTI_PHRASE_QUERIES, TOP_K),
        "weighted_hybrid": sql.weighted_hybrid_sql(DOC_QUERIES, TOP_K,
                                                   *p.W_HYBRID),
        "query_string_topk": (lambda sb: sql.bool_topk_sql(
            sb[0], TOP_K, boosts=sb[1]))(p.parsed_qs_specs()),
        "dis_max_topk": sql.dis_max_topk_sql(p.DISMAX_QUERIES, TOP_K,
                                             tie=p.DISMAX_TIE),
        "boosting_topk": sql.boosting_topk_sql(p.BOOSTING_QUERIES, TOP_K,
                                               nb=p.NEG_BOOST),
        "stats_agg": sql.stats_agg_sql(DOC_QUERIES),
        "range_agg": sql.range_agg_sql(DOC_QUERIES, p.DL_RANGES),
        "lang_stats_agg": sql.lang_stats_agg_sql(DOC_QUERIES),
        "cardinality_agg": sql.cardinality_agg_sql(DOC_QUERIES),
        "percentiles_agg": sql.percentiles_agg_sql(DOC_QUERIES),
        "mget_docs": sql.mget_docs_sql(p.MGET_MOD, p.MGET_RESIDUE),
        "top_hits_agg": sql.top_hits_sql(DOC_QUERIES, p.TOP_HITS_N),
        "sort_topk": sql.sort_topk_sql(DOC_QUERIES, TOP_K),
        "function_score_topk": sql.function_score_topk_sql(DOC_QUERIES,
                                                           TOP_K),
        "boxplot_agg": sql.boxplot_agg_sql(DOC_QUERIES),
        "filters_agg": sql.filters_agg_sql(DOC_QUERIES, p.FILTER_BUCKETS),
        "weighted_avg_agg": sql.weighted_avg_agg_sql(DOC_QUERIES),
        "t_test_agg": sql.t_test_agg_sql(p.TT_PAIRS),
        "scroll_topk": sql.scroll_topk_sql(DOC_QUERIES, TOP_K,
                                           p.SCROLL_PAGES),
        "phrase_suggest": sql.phrase_suggest_sql(
            p.PHRASE_SUGGEST_QUERIES, p.PS_N, p.PS_MAX_EDITS, p.PS_CAND_N),
        "multi_match_topk": sql.multi_match_topk_sql(p.MM_QUERIES, TOP_K),
        "tfidf_keywords": sql.tfidf_keywords_sql(),
        "analyze_api": sql.analyze_api_sql(p.ANALYZE_TEXTS),
        "distance_feature_topk": sql.distance_feature_topk_sql(
            DOC_QUERIES, TOP_K, p.DF_ORIGIN),
        "bm25_topk_deleted": sql.bm25_topk_deleted_sql(
            DOC_QUERIES, TOP_K,
            dead_pred=(f"(CAST(d.path AS BIGINT) % {p.DEAD_MOD})"
                       f" = {p.DEAD_RESIDUE}"),
        ),
        "bm25_topk_compacted": sql.bm25_topk_compacted_sql(
            DOC_QUERIES, TOP_K,
            live_where=f"(doc_id % {p.DEAD_MOD}) <> {p.DEAD_RESIDUE}",
        ),
        "scorer_eval": sql.scorer_eval_sql(
            DOC_QUERIES, TOP_K,
            dead_pred=(f"(CAST(d.path AS BIGINT) % {p.DEAD_MOD})"
                       f" = {p.DEAD_RESIDUE}"),
        ),
        "corpus_docs": sql.corpus_docs_sql(),
        "postings": sql.postings_sql(),
        "term_df": sql.term_df_sql(),
        "corpus_stats": sql.corpus_stats_sql(),
        "top_terms": sql.top_terms_sql(20),
        "bm25_topk_taat": sql.bm25_topk_sql(DOC_QUERIES, TOP_K),
        "bm25_topk_bmw": sql.bm25_topk_sql(DOC_QUERIES, TOP_K),
        "bm25_topk_merged": sql.bm25_topk_sql(DOC_QUERIES, TOP_K),
        "idf_coord_topk": sql.idf_coord_topk_sql(DOC_QUERIES, TOP_K),
        "bm25_topk_docs": sql.bm25_topk_docs_sql(DOC_QUERIES, TOP_K),
        "rrf_hybrid": sql.rrf_hybrid_sql(DOC_QUERIES, TOP_K),
        "rrf_dense_sparse": sql.rrf_dense_sparse_sql(DOC_QUERIES, TOP_K),
        "chunk_docs": sql.chunk_docs_sql(),
        "chunk_docs_recursive": sql.chunk_docs_recursive_sql(),
        "phrase_topk": sql.phrase_topk_sql(p.PHRASE_QUERIES, TOP_K),
        "phrase_topk_tokens": sql.phrase_topk_tokens_sql(
            p.PHRASE_QUERIES, TOP_K),
        "phrase_near_topk": sql.phrase_near_topk_sql(p.NEAR_QUERIES, TOP_K),
        "phrase_near_unordered": sql.phrase_near_topk_sql(
            p.NEAR_QUERIES, TOP_K, ordered=False),
        "phrase_topk_positional": sql.phrase_topk_tokens_sql(
            p.PHRASE_QUERIES, TOP_K),
        "phrase_near_positional": sql.phrase_near_topk_sql(
            p.NEAR_QUERIES, TOP_K),
        "phrase_near_positional_unordered": sql.phrase_near_topk_sql(
            p.NEAR_QUERIES, TOP_K, ordered=False),
        "span_near_topk": sql.span_near_topk_sql(p.SPAN_QUERIES, TOP_K),
        "span_first_topk": sql.span_first_topk_sql(
            p.SPAN_FIRST_QUERIES, TOP_K),
        "phrase_prefix_topk": sql.phrase_prefix_topk_sql(
            p.PHRASE_PREFIX_QUERIES, TOP_K),
        "span_near_unordered": sql.span_near_topk_sql(
            p.SPAN_QUERIES, TOP_K, ordered=False),
        "prefix_topk": sql.prefix_topk_sql(p.norm_prefixes(), TOP_K),
        "fuzzy_topk": sql.fuzzy_topk_sql(p.norm_fuzzy(), TOP_K),
        "fuzzy2_topk": sql.fuzzy_topk_sql(p.norm_fuzzy2(), TOP_K,
                                          max_edits=2),
        "wildcard_topk": sql.wildcard_topk_sql(p.norm_wildcards(), TOP_K),
        "suggest_topk": sql.suggest_topk_sql(p.norm_prefixes(), 5),
        "filtered_topk": sql.filtered_topk_sql(p.FILTERED_QUERIES, TOP_K),
        "bool_topk": sql.bool_topk_sql(p.BOOL_QUERIES, TOP_K),
        "bool_msm_topk": sql.bool_topk_sql(
            [(q, m, s, n) for q, m, s, n, _ in p.BOOL_MSM_QUERIES], TOP_K,
            msm={q: mm for q, *_, mm in p.BOOL_MSM_QUERIES}),
        "mlt_topk": sql.mlt_topk_sql(p.MLT_N_SOURCES, p.MLT_MAX_TERMS,
                                     p.MLT_MIN_DF, TOP_K),
        "sig_terms": sql.sig_terms_sql(DOC_QUERIES, TOP_K,
                                       p.SIG_MAX_TERMS, p.SIG_MIN_FG),
        "search_facets": sql.search_facets_sql(DOC_QUERIES, TOP_K),
        "highlight_topk": sql.highlight_topk_sql(DOC_QUERIES, TOP_K,
                                                 p.HL_WINDOW),
        "synonym_topk": sql.qterms_topk_sql(
            p.expand_synonym_qterms(p.SYN_QUERIES), TOP_K),
        "regexp_topk": sql.regexp_topk_sql(p.norm_regexps(), TOP_K),
        "search_after_topk": sql.search_after_sql(DOC_QUERIES, TOP_K),
        "rescore_topk": sql.rescore_topk_sql(DOC_QUERIES, TOP_K,
                                             p.RESCORE_WINDOW),
        "percolate": sql.percolate_sql(DOC_QUERIES),
        "explain_top1": sql.explain_top1_sql(DOC_QUERIES),
        "collapse_topk": sql.collapse_topk_sql(DOC_QUERIES, TOP_K),
        "lang_terms_agg": sql.lang_terms_agg_sql(DOC_QUERIES),
        "total_hits": sql.total_hits_sql(DOC_QUERIES),
        "dl_histogram": sql.dl_histogram_sql(DOC_QUERIES, p.HIST_WIDTH),
    })
    # each doc-range twin answers with its single-pool entry's oracle
    twins = {f"{r.name}_sharded": r.name for r in p.SERVED if r.shard}
    twins["bm25_topk_sharded"] = "bm25_topk_taat"
    catalog.update({t: catalog[single] for t, single in twins.items()})
    return catalog
