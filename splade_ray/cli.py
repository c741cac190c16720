"""Command-line entry points — the reference's runnable scripts, re-expressed.

    python -m splade_ray.cli build  --corpus DIR --index DIR [--lang-tagged] [--positions]
    python -m splade_ray.cli query  --index DIR "free text query" [--lang py]
    python -m splade_ray.cli phrase --index DIR "exact phrase" | --near A B --slop N
    python -m splade_ray.cli eval   --index DIR --queries Q.csv --out R.csv
    python -m splade_ray.cli fuse   A.csv B.csv --ranker weighted --weights 0.7,0.3
    python -m splade_ray.cli merge  --index A --index B --out DIR
    python -m splade_ray.cli add    --index DIR --corpus NEW --out DIR2
    python -m splade_ray.cli delete --index DIR --ids 1,2,3 | --ids-file F
    python -m splade_ray.cli compact --index DIR --out DIR2
    python -m splade_ray.cli fields --index DIR
    python -m splade_ray.cli alias  NAME [--set DIR]
    python -m splade_ray.cli quality --data SF_DIR

Reference analogues: ``ingest.py`` (build), ``main.py`` chat loop (query),
``eval.py`` batch retrieval (eval, minus the LLM/RAGAS layers, which are out
of scope per SURVEY.md).  ``eval`` covers the S5/S6 CSV source/sink rows of
the operator inventory: queries come from a CSV with a ``question`` or
``query`` column (eval.py:31-33), results go to CSV (eval.py:248-249).

This module OWNS its Ray session (unlike the library): guarded init, shutdown
at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from typing import NamedTuple


_OWNS_SESSION = False


def _ensure_ray():
    global _OWNS_SESSION
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
        _OWNS_SESSION = True
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_build(args) -> int:
    import ray.data as rd

    from .build import build_index

    _ensure_ray()
    manifest = build_index(
        rd.read_parquet(args.corpus), args.index,
        lang_tagged=args.lang_tagged, n_shards=args.n_shards,
        overwrite=args.overwrite, positions=args.positions,
    )
    print(f"built {manifest['n_docs']} docs, {manifest['n_postings']} postings,"
          f" {len(manifest['segments'])} segments -> {args.index}")
    return 0


class _Mode(NamedTuple):
    """One ``query`` mode flag: the ``query.KINDS`` key it selects (None:
    --validate, which scores nothing) and its argparse keywords.  A set
    flag's value reaches the engine as the QueryEngine keyword ``kw`` and/or
    as ``cols(args, value)``, extra columns of the one-row query table;
    ``parse`` checks and converts it first (ValueError: usage error)."""

    flag: str
    kind: str | None
    arg: dict
    kw: str = ""
    cols: Callable | None = None
    parse: Callable | None = None


def _at_least_1(what: str) -> Callable:
    def parse(v: int) -> int:
        if v < 1:
            raise ValueError(f"{what} must be >= 1")
        return v
    return parse


def _pairs(what: str) -> Callable:
    """parse() for a repeatable ``KEY=VALUE`` flag -> [(key, value)]."""
    def parse(specs: list[str]) -> list[tuple[str, str]]:
        pairs = [spec.partition("=") for spec in specs]
        for spec, (_, _, val) in zip(specs, pairs):
            if not val:
                raise ValueError(f"{what} (got {spec!r})")
        return [(key.strip(), val) for key, _, val in pairs]
    return parse


def _synonyms(specs: list[str]) -> dict[str, list[str]]:
    return {t: [g.strip() for g in grp.split(",") if g]
            for t, grp in _pairs("--syn needs TERM=A,B")(specs)}


def _cursor(a, v) -> dict:
    from .build import SCORE_SCALE

    return {"cursor_units": int(round(float(v[0]) * SCORE_SCALE)),
            "cursor_doc": int(v[1])}


def _bool_cols(a, v) -> dict:
    # TEXT is the should clause
    return {"must": a.must, "should": [a.text] if a.text else [],
            "must_not": a.must_not, "exclude_ids": [],
            "min_should_match": a.msm}


def _pair_query(a, v) -> dict:
    return {"query": f"{a.text}|||{v}"}


def _switch(flag: str, kind: str | None, help: str, **how) -> _Mode:
    """A store_true mode flag."""
    return _Mode(flag, kind, dict(action="store_true", help=help), **how)


# every `query` mode flag, in --help order; a flag counts as set when its
# value differs from its argparse default, and one query takes one kind
_MODES = (
    _switch("--prefix", "prefix", "treat TEXT as a term prefix (PrefixQuery)"),
    _switch("--fuzzy", "fuzzy",
            "match terms within edit distance 1 (FuzzyQuery)"),
    _Mode("--must", "bool", dict(
        action="append", default=[],
        help="boolean mode: required token (repeatable); TEXT becomes the "
             "should-clause"), cols=_bool_cols),
    _Mode("--must-not", "bool", dict(
        action="append", default=[],
        help="boolean mode: excluded token (repeatable)"), cols=_bool_cols),
    _switch("--wildcard", "wildcard", "treat TEXT as a */? wildcard pattern"),
    _switch("--regexp", "regexp",
            "treat TEXT as an anchored regular expression"),
    _switch("--collapse", "collapse",
            "field-collapse: best doc per lang group"),
    _switch("--agg", "lang_agg",
            "terms aggregation over ALL hits: per-lang count + best score"),
    _switch("--count", "count", "print only the total matching-doc count"),
    _switch("--cardinality", "cardinality",
            "print the distinct-lang count over ALL hits (ES cardinality "
            "agg)"),
    _switch("--percentiles", "percentiles",
            "print exact doc_len percentiles over ALL hits (ES percentiles "
            "agg)"),
    _switch("--mget", "mget",
            "treat TEXT as a comma/space-separated doc-id list; print each "
            "live doc's doc_len + lang (ES mget / ids query)",
            cols=lambda a, v: {"query": a.text.replace(" ", ",")}),
    _switch("--qs", "query_string",
            "treat TEXT as a query-string mini-language: '+must -not "
            "term^boost prefix* fuzzy~1 lang:xx' (ES query_string / Lucene "
            "classic parser)"),
    _Mode("--explain", "explain", dict(
        type=int, metavar="DOC_ID", default=None,
        help="per-term score breakdown for TEXT vs DOC_ID"),
        cols=lambda a, v: {"doc_id": v}),
    _Mode("--after", "search_after", dict(
        nargs=2, metavar=("SCORE", "DOC_ID"), default=None,
        help="search_after cursor: next page strictly after (score, "
             "doc_id)"), cols=_cursor),
    _Mode("--syn", "synonym", dict(
        action="append", default=[], metavar="TERM=A,B",
        help="query-time synonym group (repeatable); implies synonym "
             "expansion"), kw="synonyms", parse=_synonyms),
    _Mode("--msm", "bool", dict(
        type=int, default=0,
        help="boolean mode: minimum_should_match over the should clause"),
        cols=_bool_cols),
    _Mode("--rescore", "rescore", dict(
        type=int, metavar="WINDOW", default=0,
        help="two-phase rescore: BM25 top-WINDOW re-ranked by combined "
             "bm25+coordination units"),
        kw="rescore_window", parse=_at_least_1("--rescore WINDOW")),
    _Mode("--clause", "dis_max", dict(
        action="append", default=[], metavar="QUERY",
        help="dis_max mode: repeatable clause queries; per doc best clause "
             "+ tie_breaker x rest (TEXT ignored)"),
        cols=lambda a, v: {"clauses": v}),
    _Mode("--negative", "boosting", dict(
        default="", metavar="QUERY",
        help="boosting mode: docs matching this bag are demoted (x "
             "negative_boost), never excluded"),
        cols=lambda a, v: {"negative": v}),
    _switch("--boost-by-len", "function_score",
            "function_score mode: final score = BM25 x doc_len (ES "
            "field_value_factor, boost_mode multiply)"),
    _switch("--ext-stats", "ext_stats",
            "extended_stats agg over the full hit set "
            "(n/min/max/sum/sum_sq/avg/variance/std_dev)"),
    _switch("--mad", "mad",
            "exact median-absolute-deviation agg of doc_len over the full "
            "hit set"),
    _switch("--suggest-term", "term_suggest",
            "term suggester: dictionary corrections within Levenshtein "
            "distance 2, ranked dist/df"),
    _Mode("--adjacent", "adjacency", dict(
        default="", metavar="QUERY_B",
        help="adjacency_matrix cell: count docs matching BOTH the text "
             "query and QUERY_B"), cols=_pair_query),
    _Mode("--pin", "pinned", dict(
        action="append", type=int, default=[], metavar="DOC_ID",
        help="pinned query: promote DOC_ID ahead of the organic ranking "
             "(repeatable)"), kw="pinned_ids"),
    _Mode("--shuffle", "random_score", dict(
        type=int, default=None, metavar="SEED",
        help="random_score mode: deterministic per-(seed, doc) hash ranking "
             "of the hit set"), kw="random_seed"),
    _Mode("--const-score", "constant_score", dict(
        type=float, default=None, metavar="BOOST",
        help="constant_score mode: filter-only, every hit scores BOOST, page "
             "in doc_id order"), kw="const_boost"),
    _Mode("--rank-feature", "rank_feature", dict(
        type=int, default=None, metavar="PIVOT",
        help="rank_feature mode: saturation doc_len/(doc_len+PIVOT), "
             "integer-quantized"), kw="rf_pivot"),
    _Mode("--distance-feature", "distance_feature", dict(
        type=int, default=None, metavar="ORIGIN",
        help="rank hits by |doc_len - ORIGIN| ASC (ES distance_feature)"),
        kw="df_origin"),
    _switch("--validate", None,
            "validate/inspect the query: analyzed terms with dictionary "
            "presence and df, no scoring (ES _validate/query + _analyze)"),
    _Mode("--multi-match", "multi_match", dict(
        default="", metavar="AUX_INDEX",
        help="best_fields multi-field search: max of this index's score and "
             "AUX_INDEX's per doc (ES multi_match)"), kw="aux_index_dir"),
    _switch("--suggest-phrase", "phrase_suggest",
            "phrase suggester: per-token fuzzy candidates, phrases ranked by "
            "exact co-occurrence collate (ES phrase suggester)"),
    _switch("--boxplot", "boxplot",
            "boxplot agg (min/q1/median/q3/max of doc_len) over the hit set "
            "(ES boxplot, exact)"),
    _switch("--weighted-avg", "weighted_avg",
            "weighted avg of doc_len, weight = tf of the query's first token "
            "(ES weighted_avg)"),
    _Mode("--t-test", "t_test", dict(
        default="", metavar="QUERY_B",
        help="Welch t-test on doc_len: population A = TEXT hits, B = QUERY_B "
             "hits (ES t_test)"), cols=_pair_query),
    _Mode("--scroll", "scroll", dict(
        type=int, default=None, metavar="PAGES",
        help="deep pagination: PAGES fixed-k pages from one scoring pass (ES "
             "scroll)"),
        kw="scroll_pages", parse=_at_least_1("--scroll PAGES")),
    _Mode("--filter-bucket", "filters", dict(
        action="append", default=[], metavar="NAME=QUERY",
        help="named filters-agg bucket over the hit set (repeatable; ES "
             "filters agg)"), kw="filter_buckets",
        parse=lambda v: [(nm, fq.strip()) for nm, fq in
                         _pairs("--filter-bucket needs NAME=QUERY")(v)]),
    _switch("--composite", "composite",
            "composite agg: (lang, doc_len-bucket) pages"),
)


def _query_plan(args) -> tuple[str | None, dict, dict]:
    """Parsed ``query`` args -> (kind, QueryEngine keywords, one-row query
    table columns).  ValueError: conflicting modes or a bad flag value."""
    vals = ((m, getattr(args, m.flag[2:].replace("-", "_"))) for m in _MODES)
    on = [(m, v) for m, v in vals if v != m.arg.get("default", False)]
    if len({m.kind for m, _ in on}) > 1:
        raise ValueError("conflicting query modes: "
                         + " ".join(sorted(m.flag for m, _ in on)))
    kw: dict = {}
    cols = {"query_id": 0, "query": args.text, "lang": args.lang}
    for m, v in on:
        v = m.parse(v) if m.parse else v
        if m.kw:
            kw[m.kw] = v
        if m.cols:
            cols.update(m.cols(args, v))
    return (on[0][0].kind if on else "text"), kw, cols


def _print_rows(t) -> None:
    """An answer table -> stdout: a header of its columns minus query_id,
    then one tab-separated line per row, floats to 9 places."""
    if not t.num_rows:
        print("no results")
        return
    names = [c for c in t.column_names if c != "query_id"]
    print("\t".join(names))
    for row in zip(*(t[c].to_pylist() for c in names)):
        print("\t".join(f"{v:.9f}" if isinstance(v, float) else str(v)
                        for v in row))


def cmd_query(args) -> int:
    """One query down the actor pool's own path, in process (no Ray
    session): the mode flag's ``query.KINDS`` kind answers a one-row query
    table."""
    import pyarrow as pa

    from .query import QueryEngine

    try:
        kind, kw, cols = _query_plan(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    engine = QueryEngine(args.index, k=args.k, scorer=args.scorer,
                         query_kind=kind or "text", **kw)
    if kind is None:  # --validate: analyzed terms and their df
        qterms = engine._query_terms(args.text, args.lang or None)
        _print_rows(pa.table({
            "term": list(qterms), "qtf": list(qterms.values()),
            "df": [engine._term_refs(t)[1] for t in qterms]}))
    else:
        _print_rows(engine(pa.table({c: [v] for c, v in cols.items()})))
    return 0


def cmd_phrase(args) -> int:
    """Phrase / NEAR search served entirely from a positional index
    (``build --positions``): exact consecutive-token phrases, or
    ``--near A B --slop N`` proximity, ranked by BM25 over the matched
    docs.  No content fetch — everything comes from the posting sidecar."""
    from collections import Counter

    import pyarrow as pa

    from .alias import resolve_index
    from .analyzer import LANG_SEP, tokens_py
    from .phrase import positional_topk, tag_spec

    # resolve an alias ONCE: the manifest read, the df lookup and the
    # positional fan-out must all see the same generation
    index = resolve_index(args.index)
    _ensure_ray()
    if args.multi:
        # MultiPhraseQuery: TEXT positions separated by whitespace, each
        # position a |-joined alternative set, e.g. "stream data|write"
        positions = [[t for alt in grp.split("|")
                      for t in tokens_py(alt)] for grp in args.text.split()]
        positions = [p for p in positions if p]
        if not positions:
            print("no results (empty positions)")
            return 0
        spec = {"qid": 0, "kind": "multi_phrase", "positions": positions}
        terms = [t for p in positions for t in p]
    elif args.containing:
        a, b = args.containing
        toks = tokens_py(args.text)
        if a == b or not toks:
            print("error: --containing needs two distinct big terms and a "
                  "little phrase in TEXT", file=sys.stderr)
            return 2
        spec = {"qid": 0, "kind": "contain", "big_a": a, "big_b": b,
                "window": args.window, "tokens": toks}
        # SpanContaining scores the big side, SpanWithin the little side
        terms = [a, b] if args.score_side == "big" else toks
    elif args.span_or:
        clauses = [tokens_py(c) for c in args.span_or]
        clauses = [c for c in clauses if c]
        if not clauses:
            print("no results (empty clauses)")
            return 0
        spec = {"qid": 0, "kind": "span_or", "clauses": clauses}
        terms = [t for c in clauses for t in c]
    elif args.span_not is not None:
        toks = tokens_py(args.text)
        ex = tokens_py(args.span_not)
        if not toks or len(ex) != 1:
            print("error: --span-not needs a phrase in TEXT and exactly "
                  "one exclude term", file=sys.stderr)
            return 2
        spec = {"qid": 0, "kind": "span_not", "tokens": toks,
                "exclude": ex[0], "pre": args.pre, "post": args.post}
        terms = toks
    elif args.span:
        terms = [t for s in args.span for t in tokens_py(s)]
        if len(set(terms)) != len(terms) or len(terms) < 2:
            print("error: --span needs >= 2 distinct terms", file=sys.stderr)
            return 2
        spec = {"qid": 0, "kind": "span", "terms": terms,
                "window": args.window, "ordered": not args.unordered}
    elif args.near:
        a, b = args.near
        if a == b:
            # the window kernel (and the SQL oracle) require distinct terms:
            # with a == b every occurrence self-matches in unordered mode
            print("error: --near terms must differ", file=sys.stderr)
            return 2
        spec = {"qid": 0, "kind": "near", "a": a, "b": b,
                "slop": args.slop, "ordered": not args.unordered}
        terms = [a, b]
    else:
        toks = tokens_py(args.text)
        if not toks:
            print("no results (empty phrase)")
            return 0
        spec = {"qid": 0, "kind": "phrase", "tokens": toks}
        terms = toks
    qtf = Counter(terms)
    # lang-tagged indexes store 'lg:tok' terms: expand the spec into one
    # per-language variant (same qid — a doc is single-language, so at
    # most one variant verifies it), mirroring analyze_query's expansion;
    # --lang scopes to that language only
    with open(os.path.join(index, "MANIFEST.json")) as f:
        man = json.load(f)
    if man.get("lang_tagged"):
        lgs = [args.lang] if args.lang else man["langs"]
        specs = [tag_spec(spec, lg) for lg in lgs]
        qtf = {f"{lg}{LANG_SEP}{t}": c
               for lg in lgs for t, c in qtf.items()}
    else:
        specs = [spec]
    res = positional_topk(index, specs,
                          [(0, t, c) for t, c in qtf.items()], args.k)
    _print_rows(pa.Table.from_pandas(res.to_pandas(), preserve_index=False))
    return 0


def cmd_eval(args) -> int:
    """Batch retrieval: queries CSV -> results CSV (reference eval.py shape)."""
    import pyarrow as pa
    import pyarrow.csv as pacsv

    import ray
    import ray.data as rd

    from .query import run_queries

    _ensure_ray()
    qt = pacsv.read_csv(args.queries)
    qcol = "query" if "query" in qt.column_names else "question"
    cols = {
        "query_id": (
            qt["query_id"]
            if "query_id" in qt.column_names
            else pa.array(range(qt.num_rows), type=pa.int64())
        ),
        "query": qt[qcol],
    }
    if "lang" in qt.column_names:
        cols["lang"] = qt["lang"]
    queries = rd.from_arrow(pa.table(cols))
    # the pool's num_cpus=1 actors must leave a CPU for the upstream
    # repartition tasks: a pool as large as the session never starts
    cpus = int(ray.cluster_resources().get("CPU", 1))
    res = run_queries(queries, args.index, k=args.k, scorer=args.scorer,
                      concurrency=max(min(args.concurrency, cpus - 1), 1))
    if args.out.endswith(".csv"):
        res.to_pandas().sort_values(["query_id", "rank"]).to_csv(
            args.out, index=False)
    else:
        res.write_parquet(args.out)
    print(f"wrote results -> {args.out}")
    return 0


def cmd_fuse(args) -> int:
    """Fuse N result lists into one ranking — the reference's --hybrid mode
    (main.py:190-192) with both Milvus rankers: RRFRanker (``--ranker rrf``,
    retrievers.py:135) and WeightedRanker (``--ranker weighted``,
    retrievers.py:9).  Inputs are ``eval``-shaped result files
    (query_id, rank, doc_id[, score]) in CSV or parquet."""
    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    import ray.data as rd

    from .ops.fusion import rrf_fuse, weighted_fuse

    _ensure_ray()
    legs = []
    for path in args.results:
        t = (pacsv.read_csv(path) if path.endswith(".csv")
             else pq.read_table(path))
        missing = {"query_id", "rank", "doc_id"} - set(t.column_names)
        if missing:
            print(f"error: {path} lacks columns {sorted(missing)}",
                  file=sys.stderr)
            return 2
        if args.ranker == "weighted" and "score" not in t.column_names:
            print(f"error: --ranker weighted needs a score column in {path}",
                  file=sys.stderr)
            return 2
        legs.append(rd.from_arrow(t))
    if len(legs) < 2:
        print("error: fuse needs at least 2 result files", file=sys.stderr)
        return 2
    if args.ranker == "rrf":
        fused = rrf_fuse(legs, k=args.rrf_k, top_k=args.k)
    else:
        weights = ([float(w) for w in args.weights.split(",") if w]
                   if args.weights else [1.0 / len(legs)] * len(legs))
        if len(weights) != len(legs):
            print("error: --weights count must match result-file count",
                  file=sys.stderr)
            return 2
        fused = weighted_fuse(legs, weights, top_k=args.k)
    df = fused.to_pandas().sort_values(["query_id", "rank"])
    if args.out:
        if args.out.endswith(".csv"):
            df.to_csv(args.out, index=False)
        else:
            fused.write_parquet(args.out)
        print(f"wrote fused results -> {args.out}")
    else:
        print(df.to_string(index=False))
    return 0


def cmd_merge(args) -> int:
    from .merge import merge_index_dirs

    _ensure_ray()
    m = merge_index_dirs(args.index, args.out)
    print(f"merged {len(args.index)} indexes: {m['n_docs']} docs,"
          f" {m['n_postings']} postings -> {args.out}")
    return 0


def cmd_add(args) -> int:
    """Incremental add: new docs -> new generation, merged with the base."""
    import ray.data as rd

    from .merge import add_generation

    _ensure_ray()
    m = add_generation(args.index, rd.read_parquet(args.corpus), args.out)
    print(f"added: merged index has {m['n_docs']} docs,"
          f" {m['n_postings']} postings -> {args.out}")
    return 0


def cmd_delete(args) -> int:
    """Tombstone docs by id (file of one id per line, or --ids).  Queries
    mask immediately; run ``compact`` to reclaim space and refresh stats."""
    from .delete import delete_docs

    ids = []
    if args.ids:
        ids.extend(int(x) for x in args.ids.split(","))
    if args.ids_file:
        with open(args.ids_file) as f:
            ids.extend(int(line) for line in f if line.strip())
    n = delete_docs(args.index, ids)
    print(f"tombstones now cover {n} docs in {args.index}")
    return 0


def cmd_fields(args) -> int:
    """Index introspection (Elasticsearch ``_field_caps`` + index-stats
    shape): the fields/capabilities a consumer can query, straight from
    the frozen MANIFEST — no postings touched.  ``--index`` may be an
    alias (resolved like every other index path)."""
    from .alias import resolve_index

    with open(os.path.join(resolve_index(args.index), "MANIFEST.json")) as f:
        m = json.load(f)
    has_pos = bool(m.get("positions"))
    rows = [
        ("content", "text", "searchable; BM25 scored"
         + ("; positions (phrase/span native)" if has_pos else "")),
        ("doc_len", "long", "doc-value: stats/range/sort/histogram aggs"),
        ("lang", "keyword", "doc-value: terms/filter/collapse aggs"
         + ("; lang-tagged scoring" if m.get("lang_tagged") else "")),
        ("doc_id", "long", "identity; mget/ids, cursor tiebreak"),
    ]
    for name, typ, caps in rows:
        print(f"{name}\t{typ}\t{caps}")
    print(f"-- n_docs={m['n_docs']}\tavgdl={m['avgdl']:.3f}\t"
          f"n_postings={m.get('n_postings')}\t"
          f"segments={len(m.get('segments', []))}\t"
          f"langs={','.join(m.get('langs', []))}")
    return 0


def cmd_alias(args) -> int:
    """Atomic alias management (ES alias API): ``--set`` repoints (or
    creates) the alias in one os.replace — the blue-green reindex
    cutover; without --set, prints the resolved target."""
    from .alias import read_alias, resolve_index, set_alias

    if args.set:
        try:
            set_alias(args.name, args.set)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(f"{args.name} -> {read_alias(args.name)}")
        return 0
    if not os.path.exists(args.name):
        print(f"error: no alias at {args.name}", file=sys.stderr)
        return 2
    print(resolve_index(args.name))
    return 0


def cmd_quality(args) -> int:
    """Scorer-agreement quality report over an sf-style data dir."""
    from .eval import summarize
    from .pipelines import TOP_K, scorer_eval

    _ensure_ray()
    ag = scorer_eval(args.data)
    print(summarize(ag, TOP_K).to_pandas().to_string(index=False))
    return 0


def cmd_compact(args) -> int:
    from .delete import compact_index

    _ensure_ray()
    m = compact_index(args.index, args.out)
    print(f"compacted: {m['n_docs']} live docs ({m['n_deleted']} removed),"
          f" {m['n_postings']} postings -> {args.out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="splade_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--corpus", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--lang-tagged", action="store_true")
    b.add_argument("--n-shards", type=int, default=32)
    b.add_argument("--overwrite", action="store_true")
    b.add_argument("--positions", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="store per-posting token positions (default ON — "
                        "the Lucene/ES serving profile: enables the "
                        "index-native `phrase` / NEAR / span commands at "
                        "~1 byte/token; measured build-cost +40%% at 200k "
                        "files, see BASELINE.md r5 — pass --no-positions "
                        "for pure-BM25 batch builds)")
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query")
    q.add_argument("text")
    q.add_argument("--index", required=True)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--lang", default="")
    q.add_argument("--scorer", default="taat", choices=["taat", "bmw"])
    for m in _MODES:
        q.add_argument(m.flag, **m.arg)
    q.set_defaults(fn=cmd_query)

    ph = sub.add_parser("phrase")
    ph.add_argument("text", nargs="?", default="",
                    help="exact phrase (token-consecutive)")
    ph.add_argument("--index", required=True,
                    help="index built with --positions")
    ph.add_argument("--k", type=int, default=10)
    ph.add_argument("--lang", default="",
                    help="lang-tagged indexes: scope the phrase to one "
                         "language (default: match in any language)")
    ph.add_argument("--near", nargs=2, metavar=("A", "B"),
                    help="proximity instead of phrase: terms A and B "
                         "within --slop tokens")
    ph.add_argument("--slop", type=int, default=8)
    ph.add_argument("--span", nargs="+", metavar="TERM",
                    help="span-NEAR: every term within --window positions "
                         "(ordered unless --unordered)")
    ph.add_argument("--span-or", action="append", dest="span_or",
                    metavar="CLAUSE",
                    help="SpanOr: repeatable clause phrases; a doc matches "
                         "when ANY clause occurs (TEXT ignored)")
    ph.add_argument("--span-not", dest="span_not", metavar="EXCLUDE",
                    default=None,
                    help="SpanNot: TEXT is the include phrase; matches "
                         "with EXCLUDE within --pre/--post positions of "
                         "the span are dropped")
    ph.add_argument("--pre", type=int, default=0,
                    help="SpanNot window before the include span")
    ph.add_argument("--post", type=int, default=0,
                    help="SpanNot window after the include span")
    ph.add_argument("--containing", nargs=2, metavar=("A", "B"),
                    default=None,
                    help="SpanContaining/Within: TEXT is the little "
                         "phrase; it must lie inside an (A ... B) pair "
                         "spanning <= --window positions")
    ph.add_argument("--score-side", dest="score_side", default="big",
                    choices=["big", "little"],
                    help="--containing scoring: 'big' = SpanContaining "
                         "(A/B terms), 'little' = SpanWithin (TEXT terms)")
    ph.add_argument("--multi", action="store_true",
                    help="MultiPhrase: TEXT positions separated by spaces, "
                         "alternatives |-joined (e.g. \"stream data|write\")")
    ph.add_argument("--window", type=int, default=8)
    ph.add_argument("--unordered", action="store_true",
                    help="NEAR in either order (default: A before B)")
    ph.set_defaults(fn=cmd_phrase)

    e = sub.add_parser("eval")
    e.add_argument("--index", required=True)
    e.add_argument("--queries", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--k", type=int, default=10)
    e.add_argument("--scorer", default="taat", choices=["taat", "bmw"])
    e.add_argument("--concurrency", type=int, default=4)
    e.set_defaults(fn=cmd_eval)

    fu = sub.add_parser("fuse")
    fu.add_argument("results", nargs="+",
                    help="2+ eval-shaped result files (csv/parquet) with "
                         "query_id,rank,doc_id[,score]")
    fu.add_argument("--ranker", default="rrf", choices=["rrf", "weighted"])
    fu.add_argument("--weights", default="",
                    help="comma list, one per file (weighted ranker; "
                         "default: equal)")
    fu.add_argument("--k", type=int, default=10)
    fu.add_argument("--rrf-k", type=int, default=60, dest="rrf_k")
    fu.add_argument("--out", default="",
                    help="output .csv or parquet dir (default: print)")
    fu.set_defaults(fn=cmd_fuse)

    m = sub.add_parser("merge")
    m.add_argument("--index", action="append", required=True)
    m.add_argument("--out", required=True)
    m.set_defaults(fn=cmd_merge)

    a = sub.add_parser("add")
    a.add_argument("--index", required=True, help="base index (unchanged)")
    a.add_argument("--corpus", required=True, help="parquet dir of NEW docs")
    a.add_argument("--out", required=True)
    a.set_defaults(fn=cmd_add)

    d = sub.add_parser("delete")
    d.add_argument("--index", required=True)
    d.add_argument("--ids", default="", help="comma-separated doc ids")
    d.add_argument("--ids-file", default="", help="file with one doc id per line")
    d.set_defaults(fn=cmd_delete)

    c = sub.add_parser("compact")
    c.add_argument("--index", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_compact)

    fi = sub.add_parser("fields")
    fi.add_argument("--index", required=True)
    fi.set_defaults(fn=cmd_fields)

    al = sub.add_parser("alias")
    al.add_argument("name", help="alias file path")
    al.add_argument("--set", default="",
                    help="index dir (or alias) to point the alias at; "
                         "atomic swap")
    al.set_defaults(fn=cmd_alias)

    qy = sub.add_parser("quality")
    qy.add_argument("--data", required=True,
                    help="sf-style dir with documents.parquet")
    qy.set_defaults(fn=cmd_quality)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    finally:
        import ray

        # only tear down a session this process created (the pytest fixture
        # and the driver own theirs)
        if _OWNS_SESSION and ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
