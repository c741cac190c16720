"""Command-line entry points — the reference's runnable scripts, re-expressed.

    python -m splade_ray.cli build  --corpus DIR --index DIR [--lang-tagged] [--positions]
    python -m splade_ray.cli query  --index DIR "free text query" [--lang py]
    python -m splade_ray.cli phrase --index DIR "exact phrase" | --near A B --slop N
    python -m splade_ray.cli eval   --index DIR --queries Q.csv --out R.csv
    python -m splade_ray.cli fuse   A.csv B.csv --ranker weighted --weights 0.7,0.3
    python -m splade_ray.cli merge  --index A --index B --out DIR
    python -m splade_ray.cli delete --index DIR --ids 1,2,3 | --ids-file F
    python -m splade_ray.cli compact --index DIR --out DIR2
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
import os
import sys


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


def cmd_query(args) -> int:
    import numpy as np

    from .build import SCORE_SCALE
    from .query import QueryEngine

    _ensure_ray()
    synonyms = {}
    for spec in getattr(args, "syn", []) or []:
        term, _, group = spec.partition("=")
        if not group:
            print(f"error: --syn needs TERM=A,B (got {spec!r})",
                  file=sys.stderr)
            return 2
        synonyms[term.strip()] = [g.strip() for g in group.split(",") if g]
    # mode flags are mutually exclusive — validate up front (not by elif
    # precedence, which would silently ignore the losing flag) and BEFORE
    # constructing the engine (so a bad --rescore window never reaches it)
    rescore = getattr(args, "rescore", 0) or 0
    modes = {
        "--count": bool(getattr(args, "count", False)),
        "--agg": bool(getattr(args, "agg", False)),
        "--cardinality": bool(getattr(args, "cardinality", False)),
        "--percentiles": bool(getattr(args, "percentiles", False)),
        "--mget": bool(getattr(args, "mget", False)),
        "--qs": bool(getattr(args, "qs", False)),
        "--explain": getattr(args, "explain", None) is not None,
        "--collapse": bool(getattr(args, "collapse", False)),
        "--after": bool(getattr(args, "after", None)),
        "--prefix": bool(args.prefix),
        "--fuzzy": bool(args.fuzzy),
        "--wildcard": bool(getattr(args, "wildcard", False)),
        "--regexp": bool(getattr(args, "regexp", False)),
        "--rescore": bool(rescore),
        "--must/--must-not/--msm": bool(args.must or args.must_not
                                        or getattr(args, "msm", 0)),
        "--syn": bool(synonyms),
        "--clause": bool(getattr(args, "clause", None)),
        "--negative": bool(getattr(args, "negative", None)),
        "--boost-by-len": bool(getattr(args, "boost_by_len", False)),
        "--ext-stats": bool(getattr(args, "ext_stats", False)),
        "--mad": bool(getattr(args, "mad", False)),
        "--suggest-term": bool(getattr(args, "suggest_term", False)),
        "--adjacent": bool(getattr(args, "adjacent", "")),
        "--pin": bool(getattr(args, "pin", None)),
        "--shuffle": getattr(args, "shuffle", None) is not None,
        "--const-score": getattr(args, "const_score", None) is not None,
        "--rank-feature": getattr(args, "rank_feature", None) is not None,
        "--composite": bool(getattr(args, "composite", False)),
        "--boxplot": bool(getattr(args, "boxplot", False)),
        "--suggest-phrase": bool(getattr(args, "suggest_phrase", False)),
        "--multi-match": bool(getattr(args, "multi_match", "")),
        "--validate": bool(getattr(args, "validate", False)),
        "--distance-feature": getattr(args, "distance_feature",
                                      None) is not None,
        "--weighted-avg": bool(getattr(args, "weighted_avg", False)),
        "--t-test": bool(getattr(args, "t_test", "")),
        "--scroll": getattr(args, "scroll", None) is not None,
        "--filter-bucket": bool(getattr(args, "filter_bucket", None)),
    }
    set_flags = sorted(k for k, v in modes.items() if v)
    if len(set_flags) > 1:
        print("error: conflicting query modes: " + " ".join(set_flags),
              file=sys.stderr)
        return 2
    if rescore and rescore < 1:
        print("error: --rescore WINDOW must be >= 1", file=sys.stderr)
        return 2
    scroll = getattr(args, "scroll", None)
    if scroll is not None and scroll < 1:
        print("error: --scroll PAGES must be >= 1", file=sys.stderr)
        return 2
    filter_buckets = []
    for spec in getattr(args, "filter_bucket", []) or []:
        nm, _, fq = spec.partition("=")
        if not fq:
            print(f"error: --filter-bucket needs NAME=QUERY (got {spec!r})",
                  file=sys.stderr)
            return 2
        filter_buckets.append((nm.strip(), fq.strip()))
    engine = QueryEngine(
        args.index, k=args.k, scorer=args.scorer, synonyms=synonyms,
        rescore_window=rescore or 50,
        pinned_ids=getattr(args, "pin", None) or [],
        random_seed=getattr(args, "shuffle", None) or 42,
        const_boost=(getattr(args, "const_score", None)
                     if getattr(args, "const_score", None) is not None
                     else 1.0),
        rf_pivot=getattr(args, "rank_feature", None) or 50,
        filter_buckets=filter_buckets,
        scroll_pages=scroll or 3,
        aux_index_dir=getattr(args, "multi_match", "") or None,
        df_origin=(getattr(args, "distance_feature", None)
                   if getattr(args, "distance_feature", None) is not None
                   else 64))
    lang = args.lang or None
    if getattr(args, "ext_stats", False):
        n, lo, hi, s, ss = engine.search_ext_stats(args.text, lang)
        if not n:
            print("no results")
            return 0
        avg, var, std = engine.ext_stats_floats(n, s, ss)
        print(f"n={n}\tmin={lo}\tmax={hi}\tsum={s}\tsum_sq={ss}\t"
              f"avg={avg:.6f}\tvariance={var:.6f}\tstd_dev={std:.6f}")
        return 0
    if getattr(args, "mad", False):
        n, med, mad = engine.search_mad(args.text, lang)
        if not n:
            print("no results")
            return 0
        print(f"n={n}\tmedian={med}\tmad={mad}")
        return 0
    if getattr(args, "suggest_term", False):
        rows = engine.suggest_terms(args.text, lang)
        if not rows:
            print("no suggestions")
            return 0
        for term, d, df in rows:
            print(f"{term}\tdist={d}\tdf={df}")
        return 0
    if getattr(args, "adjacent", ""):
        print(engine.search_adjacency(f"{args.text}|||{args.adjacent}",
                                      lang))
        return 0
    if getattr(args, "distance_feature", None) is not None:
        ids, dists = engine.search_distance_feature(args.text, lang)
        if not len(ids):
            print("no results")
            return 0
        for rank, (d, dv) in enumerate(zip(ids, dists), start=1):
            print(f"{rank}\t{int(d)}\tdist={int(dv)}")
        return 0
    if getattr(args, "validate", False):
        qterms = engine._query_terms(args.text, lang)
        if not qterms:
            print("valid: 0 terms (matches nothing)")
            return 0
        for term, qtf in qterms.items():
            df = engine._term_refs(term)[1]
            state = f"df={df}" if df else "NOT IN DICTIONARY"
            print(f"{term}\tqtf={qtf}\t{state}")
        return 0
    if getattr(args, "multi_match", ""):
        ids, units = engine.search_multi_match(args.text, lang)
        if not len(ids):
            print("no results")
            return 0
        for rank, (d, u) in enumerate(zip(ids, units), start=1):
            print(f"{rank}\t{int(d)}\t{int(u) / SCORE_SCALE:.9f}")
        return 0
    if getattr(args, "suggest_phrase", False):
        rows = engine.suggest_phrase(args.text, lang)
        if not rows:
            print("no suggestions")
            return 0
        for rank, (ph, n) in enumerate(rows, start=1):
            print(f"{rank}\t{ph}\tn_docs={n}")
        return 0
    if getattr(args, "boxplot", False):
        n, lo, q1, med, q3, hi = engine.search_boxplot(args.text, lang)
        if not n:
            print("no results")
            return 0
        print(f"n={n}\tmin={lo}\tq1={q1}\tmedian={med}\tq3={q3}\tmax={hi}")
        return 0
    if getattr(args, "weighted_avg", False):
        n, sw, swv = engine.search_weighted_avg(args.text, lang)
        if not sw:
            print("no results")
            return 0
        print(f"n={n}\tsum_w={sw}\tsum_wv={swv}\tweighted_avg={swv / sw:.6f}")
        return 0
    if getattr(args, "t_test", ""):
        n1, s1, ss1, n2, s2, ss2 = engine.search_t_test(
            f"{args.text}|||{args.t_test}", lang)
        if n1 < 2 or n2 < 2:
            print("no results (each side needs >= 2 hits)")
            return 0
        from .query import welch_t_floats

        m1, m2, t = welch_t_floats(n1, s1, ss1, n2, s2, ss2)
        print(f"n1={n1}\tmean1={m1:.6f}\tn2={n2}\tmean2={m2:.6f}\t"
              f"t={t:.6f}")
        return 0
    if getattr(args, "filter_bucket", None):
        names, counts = engine.search_filters(args.text, lang)
        if not names:
            print("no results")
            return 0
        for nm, n in zip(names, counts):
            print(f"{nm}\t{int(n)}")
        return 0
    if getattr(args, "scroll", None) is not None:
        ids, units = engine.search_scroll(args.text, lang)
        if not len(ids):
            print("no results")
            return 0
        for i, (d, u) in enumerate(zip(ids, units)):
            print(f"page={i // args.k + 1}\trank={i % args.k + 1}\t"
                  f"{int(d)}\t{int(u) / SCORE_SCALE:.9f}")
        return 0
    if getattr(args, "composite", False):
        lvs, buckets, counts = engine.search_composite(args.text, lang)
        if not lvs:
            print("no results")
            return 0
        for lv, b, c in zip(lvs, buckets, counts):
            print(f"{lv}\t{int(b)}\t{int(c)}")
        return 0
    if getattr(args, "pin", None):
        ids, units, flags = engine.search_pinned(args.text, lang)
        if not len(ids):
            print("no results")
            return 0
        for rank, (d, u, f) in enumerate(zip(ids, units, flags), start=1):
            tag = "pinned" if f else "organic"
            print(f"{rank}\t{int(d)}\t{int(u) / SCORE_SCALE:.9f}\t{tag}")
        return 0
    if getattr(args, "shuffle", None) is not None:
        ids, hs = engine.search_random_score(args.text, lang)
        if not len(ids):
            print("no results")
            return 0
        for rank, (d, h) in enumerate(zip(ids, hs), start=1):
            print(f"{rank}\t{int(d)}\t{int(h)}")
        return 0
    if getattr(args, "count", False):
        print(engine.count_hits(args.text, lang))
        return 0
    if getattr(args, "agg", False):
        lgs, ns, bests = engine.search_lang_agg(args.text, lang)
        for lg, n, b in zip(lgs, ns, bests):
            print(f"{lg}\t{int(n)}\t{int(b) / SCORE_SCALE:.9f}")
        return 0
    if getattr(args, "cardinality", False):
        print(len(engine.search_cardinality(args.text, lang)))
        return 0
    if getattr(args, "mget", False):
        req = [int(x) for x in args.text.replace(" ", ",").split(",") if x]
        d, dl, lgs = engine.mget(req)
        if not len(d):
            print("no results")
            return 0
        for dd, ll, lg in zip(d, dl, lgs):
            print(f"{int(dd)}\t{int(ll)}\t{lg}")
        return 0
    if getattr(args, "percentiles", False):
        from .query import PERCENTILE_QS, disc_percentiles

        vals, counts = engine.search_dl_value_counts(args.text, lang)
        if not len(vals):
            print("no results")
            return 0
        n, ps = disc_percentiles(vals, counts, PERCENTILE_QS)
        print("\t".join([f"n={n}"] + [
            f"p{int(round(q * 100))}={v}"
            for q, v in zip(PERCENTILE_QS, ps)]))
        return 0
    if getattr(args, "explain", None) is not None:
        rows = engine.explain(args.text, args.explain, lang)
        if not rows:
            print("no contributing terms")
            return 0
        for term, qtf, df, tf, u in rows:
            print(f"{term}\tqtf={qtf}\tdf={df}\ttf={tf}\t"
                  f"{u / SCORE_SCALE:.9f}")
        return 0
    if getattr(args, "collapse", False):
        ids, units, lgs = engine.search_collapse(args.text, lang)
        for rank, (d, u, lg) in enumerate(zip(ids, units, lgs), start=1):
            print(f"{rank}\t{int(d)}\t{u / SCORE_SCALE:.9f}\t{lg}")
        if not len(ids):
            print("no results")
        return 0
    if getattr(args, "after", None):
        cu = int(round(float(args.after[0]) * SCORE_SCALE))
        ids, units = engine.search_after(args.text, cu, int(args.after[1]),
                                         lang)
    elif args.prefix:
        ids, units = engine.search_prefix(args.text, lang)
    elif args.fuzzy:
        ids, units = engine.search_fuzzy(args.text, lang)
    elif getattr(args, "wildcard", False):
        ids, units = engine.search_wildcard(args.text, lang)
    elif getattr(args, "regexp", False):
        ids, units = engine.search_regexp(args.text, lang)
    elif rescore:
        ids, units = engine.search_rescore(args.text, lang)
    elif getattr(args, "clause", None):
        ids, units = engine.search_dis_max(args.clause, lang)
    elif getattr(args, "negative", None):
        ids, units = engine.search_boosting(args.text, args.negative, lang)
    elif getattr(args, "boost_by_len", False):
        ids, units = engine.search_function_score(args.text, lang)
    elif getattr(args, "const_score", None) is not None:
        ids = engine.search_constant_score(args.text, lang)
        units = np.full(len(ids),
                        int(round(engine.const_boost * SCORE_SCALE)),
                        dtype=np.int64)
    elif getattr(args, "rank_feature", None) is not None:
        ids, units = engine.search_rank_feature(args.text, lang)
    elif args.must or args.must_not or getattr(args, "msm", 0):
        should = [args.text] if args.text else []
        ids, units = engine.search_bool(
            args.must or [], should, args.must_not or [], lang,
            min_should_match=getattr(args, "msm", 0))
    elif synonyms:
        ids, units = engine.search_synonym(args.text, lang)
    elif getattr(args, "qs", False):
        ids, units = engine.search_query_string(args.text, lang)
    else:
        ids, units = engine.search_one(args.text, lang)
    if len(ids) == 0:
        print("no results")
        return 0
    for rank, (d, u) in enumerate(zip(ids, units), start=1):
        print(f"{rank}\t{int(d)}\t{u / SCORE_SCALE:.9f}")
    return 0


def cmd_phrase(args) -> int:
    """Phrase / NEAR search served entirely from a positional index
    (``build --positions``): exact consecutive-token phrases, or
    ``--near A B --slop N`` proximity, ranked by BM25 over the matched
    docs.  No content fetch — everything comes from the posting sidecar."""
    import math

    from .analyzer import tokens_py
    from .build import SCORE_SCALE
    from .phrase import index_stats, positional_units

    _ensure_ray()
    if getattr(args, "multi", False):
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
    elif getattr(args, "containing", None):
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
    elif getattr(args, "span_or", None):
        clauses = [tokens_py(c) for c in args.span_or]
        clauses = [c for c in clauses if c]
        if not clauses:
            print("no results (empty clauses)")
            return 0
        spec = {"qid": 0, "kind": "span_or", "clauses": clauses}
        terms = [t for c in clauses for t in c]
    elif getattr(args, "span_not", None) is not None:
        toks = tokens_py(args.text)
        ex = tokens_py(args.span_not)
        if not toks or len(ex) != 1:
            print("error: --span-not needs a phrase in TEXT and exactly "
                  "one exclude term", file=sys.stderr)
            return 2
        spec = {"qid": 0, "kind": "span_not", "tokens": toks,
                "exclude": ex[0], "pre": args.pre, "post": args.post}
        terms = toks
    elif getattr(args, "span", None):
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
    qtf: dict[str, int] = {}
    for t in terms:
        qtf[t] = qtf.get(t, 0) + 1
    # lang-tagged indexes store 'lg:tok' terms: expand the spec into one
    # per-language variant (same qid — a doc is single-language, so at
    # most one variant verifies it), mirroring analyze_query's expansion;
    # --lang scopes to that language only
    import json as _json

    from .phrase import tag_spec

    with open(os.path.join(args.index, "MANIFEST.json")) as f:
        man = _json.load(f)
    if man.get("lang_tagged"):
        from .analyzer import LANG_SEP

        lgs = ([args.lang] if getattr(args, "lang", "") else man["langs"])
        specs = [tag_spec(spec, lg) for lg in lgs]
        qtf = {f"{lg}{LANG_SEP}{t}": c
               for lg in lgs for t, c in qtf.items()}
    else:
        specs = [spec]
    n_docs, _avgdl, dfs = index_stats(args.index, sorted(qtf))
    weights = {0: [
        (t, c * math.log(1.0 + (n_docs - dfs[t] + 0.5) / (dfs[t] + 0.5)))
        for t, c in qtf.items() if t in dfs]}
    res = (positional_units(args.index, specs, weights)
           .groupby(["query_id", "doc_id"]).sum("units").to_pandas())
    if res.empty:
        print("no results")
        return 0
    res = res.sort_values(["sum(units)", "doc_id"],
                          ascending=[False, True]).head(args.k)
    for rank, (d, u) in enumerate(zip(res["doc_id"], res["sum(units)"]),
                                  start=1):
        print(f"{rank}\t{int(d)}\t{u / SCORE_SCALE:.9f}")
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
        import pandas as pd

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
    import json as _json

    from .alias import resolve_index

    with open(os.path.join(resolve_index(args.index), "MANIFEST.json")) as f:
        m = _json.load(f)
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


def main(argv=None) -> int:
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
    q.add_argument("--prefix", action="store_true",
                   help="treat TEXT as a term prefix (PrefixQuery)")
    q.add_argument("--fuzzy", action="store_true",
                   help="match terms within edit distance 1 (FuzzyQuery)")
    q.add_argument("--must", action="append", default=[],
                   help="boolean mode: required token (repeatable); "
                        "TEXT becomes the should-clause")
    q.add_argument("--must-not", action="append", default=[], dest="must_not",
                   help="boolean mode: excluded token (repeatable)")
    q.add_argument("--wildcard", action="store_true",
                   help="treat TEXT as a */? wildcard pattern")
    q.add_argument("--regexp", action="store_true",
                   help="treat TEXT as an anchored regular expression")
    q.add_argument("--collapse", action="store_true",
                   help="field-collapse: best doc per lang group")
    q.add_argument("--agg", action="store_true",
                   help="terms aggregation over ALL hits: per-lang count + "
                        "best score")
    q.add_argument("--count", action="store_true",
                   help="print only the total matching-doc count")
    q.add_argument("--cardinality", action="store_true",
                   help="print the distinct-lang count over ALL hits "
                        "(ES cardinality agg)")
    q.add_argument("--percentiles", action="store_true",
                   help="print exact doc_len percentiles over ALL hits "
                        "(ES percentiles agg)")
    q.add_argument("--mget", action="store_true",
                   help="treat TEXT as a comma/space-separated doc-id "
                        "list; print each live doc's doc_len + lang "
                        "(ES mget / ids query)")
    q.add_argument("--qs", action="store_true",
                   help="treat TEXT as a query-string mini-language: "
                        "'+must -not term^boost prefix* fuzzy~1 lang:xx' "
                        "(ES query_string / Lucene classic parser)")
    q.add_argument("--explain", type=int, metavar="DOC_ID", default=None,
                   help="per-term score breakdown for TEXT vs DOC_ID")
    q.add_argument("--after", nargs=2, metavar=("SCORE", "DOC_ID"),
                   default=None,
                   help="search_after cursor: next page strictly after "
                        "(score, doc_id)")
    q.add_argument("--syn", action="append", default=[],
                   metavar="TERM=A,B",
                   help="query-time synonym group (repeatable); implies "
                        "synonym expansion")
    q.add_argument("--msm", type=int, default=0,
                   help="boolean mode: minimum_should_match over the "
                        "should clause")
    q.add_argument("--rescore", type=int, metavar="WINDOW", default=0,
                   help="two-phase rescore: BM25 top-WINDOW re-ranked by "
                        "combined bm25+coordination units")
    q.add_argument("--clause", action="append", default=[],
                   metavar="QUERY",
                   help="dis_max mode: repeatable clause queries; per doc "
                        "best clause + tie_breaker x rest (TEXT ignored)")
    q.add_argument("--negative", default="",
                   metavar="QUERY",
                   help="boosting mode: docs matching this bag are demoted "
                        "(x negative_boost), never excluded")
    q.add_argument("--boost-by-len", action="store_true", dest="boost_by_len",
                   help="function_score mode: final score = BM25 x doc_len "
                        "(ES field_value_factor, boost_mode multiply)")
    q.add_argument("--ext-stats", action="store_true", dest="ext_stats",
                   help="extended_stats agg over the full hit set "
                        "(n/min/max/sum/sum_sq/avg/variance/std_dev)")
    q.add_argument("--mad", action="store_true",
                   help="exact median-absolute-deviation agg of doc_len "
                        "over the full hit set")
    q.add_argument("--suggest-term", action="store_true",
                   dest="suggest_term",
                   help="term suggester: dictionary corrections within "
                        "Levenshtein distance 2, ranked dist/df")
    q.add_argument("--adjacent", default="", metavar="QUERY_B",
                   help="adjacency_matrix cell: count docs matching BOTH "
                        "the text query and QUERY_B")
    q.add_argument("--pin", action="append", type=int, default=[],
                   metavar="DOC_ID",
                   help="pinned query: promote DOC_ID ahead of the "
                        "organic ranking (repeatable)")
    q.add_argument("--shuffle", type=int, default=None, metavar="SEED",
                   help="random_score mode: deterministic per-(seed, doc) "
                        "hash ranking of the hit set")
    q.add_argument("--const-score", type=float, default=None,
                   dest="const_score", metavar="BOOST",
                   help="constant_score mode: filter-only, every hit "
                        "scores BOOST, page in doc_id order")
    q.add_argument("--rank-feature", type=int, default=None,
                   dest="rank_feature", metavar="PIVOT",
                   help="rank_feature mode: saturation doc_len/(doc_len+"
                        "PIVOT), integer-quantized")
    q.add_argument("--distance-feature", type=int, default=None,
                   dest="distance_feature", metavar="ORIGIN",
                   help="rank hits by |doc_len - ORIGIN| ASC (ES "
                        "distance_feature)")
    q.add_argument("--validate", action="store_true",
                   help="validate/inspect the query: analyzed terms with "
                        "dictionary presence and df, no scoring (ES "
                        "_validate/query + _analyze)")
    q.add_argument("--multi-match", default="", dest="multi_match",
                   metavar="AUX_INDEX",
                   help="best_fields multi-field search: max of this "
                        "index's score and AUX_INDEX's per doc (ES "
                        "multi_match)")
    q.add_argument("--suggest-phrase", action="store_true",
                   dest="suggest_phrase",
                   help="phrase suggester: per-token fuzzy candidates, "
                        "phrases ranked by exact co-occurrence collate "
                        "(ES phrase suggester)")
    q.add_argument("--boxplot", action="store_true",
                   help="boxplot agg (min/q1/median/q3/max of doc_len) "
                        "over the hit set (ES boxplot, exact)")
    q.add_argument("--weighted-avg", action="store_true",
                   dest="weighted_avg",
                   help="weighted avg of doc_len, weight = tf of the "
                        "query's first token (ES weighted_avg)")
    q.add_argument("--t-test", default="", dest="t_test",
                   metavar="QUERY_B",
                   help="Welch t-test on doc_len: population A = TEXT "
                        "hits, B = QUERY_B hits (ES t_test)")
    q.add_argument("--scroll", type=int, default=None, metavar="PAGES",
                   help="deep pagination: PAGES fixed-k pages from one "
                        "scoring pass (ES scroll)")
    q.add_argument("--filter-bucket", action="append", default=[],
                   dest="filter_bucket", metavar="NAME=QUERY",
                   help="named filters-agg bucket over the hit set "
                        "(repeatable; ES filters agg)")
    q.add_argument("--composite", action="store_true",
                   help="composite agg: (lang, doc_len-bucket) pages")
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

    args = p.parse_args(argv)
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
