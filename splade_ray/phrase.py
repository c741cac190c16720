"""Index-assisted candidate generation for phrase / proximity search.

Round 3 answered phrase/NEAR queries by re-scanning and re-tokenizing the
WHOLE corpus once per query set (the old pipelines._query_stats +
full-corpus _bm25_over_verified pass) — defensible as a one-shot batch job,
a scale-killer as a *search* operator.  This module provides the serving
shape instead (reference analogue: Milvus answers every query through its
index, never a collection scan — /root/reference/retrievers.py:120-128):

  * stats (n_docs, avgdl) come from the built index's MANIFEST.json —
    persisted at build time, never recomputed from the corpus;
  * per-term df comes from the segment dictionaries (one binary search per
    term per segment — the same lazy lookup the query engine uses);
  * candidate doc ORDINALS come from the posting lists, computed by a
    fan-out over contiguous ordinal ranges (one task per range; each task
    decodes ONLY the posting blocks overlapping its range via
    QueryEngine._gather_range — the run_queries_sharded partitioning), so
    no task ever holds more than ~1/n_ranges of any posting list.

Candidate semantics (must mirror sql._bm25_ranked_cte's verify_join): a doc
can appear in a phrase result iff it VERIFIES and carries >= 1 analyzed
query term (a verified doc with zero exact query tokens contributes zero
posting rows and is absent either way).  Hence:

  * ``any_terms`` (substring phrases): a substring match can cross token
    boundaries ("merge sort" matches inside "xmerge sort", whose tokens are
    [xmerge, sort]), so a verified doc may hold only SOME analyzed terms —
    candidates are the UNION of the terms' posting lists.
  * ``groups`` (token phrases / NEAR windows): consecutive-position or
    window verification implies EVERY term of the query is present —
    candidates are the per-query INTERSECTION of posting lists, unioned
    across queries (much smaller).  Intersections are exact per range
    because every posting of an in-range doc lands in-range.

Tombstoned ordinals are masked out of the candidate set (a dead doc must
not be fetched, verified, or ranked).

Scale notes: |candidates| <= sum df(term) ('any') / min-per-query df
('all'); the driver holds only the candidate id array — the semi-join key
the fetch must broadcast anyway.  At 10^12 docs with stop-word phrase terms
the range tasks would spill their per-range candidate arrays to side files
and the fetch would become a distributed semi-join against them; the range
fan-out below already produces exactly those per-range pieces.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from .docmap import sorted_member
from .segments import SegmentReader


def index_stats(index_dir: str, terms: list[str]) -> tuple[int, float, dict]:
    """(n_docs, avgdl, {term: df}) with df > 0 only — n_docs/avgdl straight
    from MANIFEST.json, df summed over the segment dictionaries (salted
    sub-lists of a hot term each carry their own df; the sum is the
    corpus-wide document frequency, identical to the SQL DF_CTE)."""
    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        man = json.load(f)
    seg_root = os.path.join(index_dir, "segments")
    readers = [SegmentReader(os.path.join(seg_root, s["segment_id"]))
               for s in man["segments"]]
    dfs: dict[str, int] = {}
    for t in terms:
        df = 0
        for seg in readers:
            for ri in seg.term_rows(t):
                df += int(seg.df[ri])
        if df:
            dfs[t] = df
    return int(man["n_docs"]), float(man["avgdl"]), dfs


def _range_candidates_batch(t: pa.Table, *, index_dir: str,
                            any_terms: list[str] | None,
                            groups: list[list[str]] | None) -> pa.Table:
    """One task per ordinal range: gather (range-restricted) postings for
    the query terms, take union / per-group intersection, mask tombstones,
    return the range's candidate ordinals."""
    from .query import QueryEngine

    out: list[np.ndarray] = []
    for row in t.to_pylist():
        lo, hi = int(row["lo"]), int(row["hi"])
        eng = QueryEngine(index_dir, ord_range=(lo, hi))
        parts: list[np.ndarray] = []
        if any_terms is not None:
            for tm in any_terms:
                ids = eng._gather_range(tm)[0]
                if len(ids):
                    parts.append(ids)
        else:
            for toks in groups or []:
                lists = [eng._gather_range(tm)[0] for tm in sorted(set(toks))]
                if not lists or any(len(x) == 0 for x in lists):
                    continue  # a missing term empties the intersection
                lists.sort(key=len)  # smallest first bounds the work
                inter = lists[0]
                for arr in lists[1:]:
                    if not len(inter):
                        break
                    inter = inter[sorted_member(arr, inter)[0]]
                if len(inter):
                    parts.append(inter)
        if not parts:
            continue
        ords = np.unique(np.concatenate(parts))
        if len(eng.tomb):
            dead, _ = sorted_member(eng.tomb, ords)
            ords = ords[~dead]
        if len(ords):
            out.append(ords)
    merged = (np.unique(np.concatenate(out)) if out
              else np.empty(0, dtype=np.int64))
    return pa.table({"ord": pa.array(merged, type=pa.int64())})


# ------------------------------------------------------ positional serving --
#
# With a positional index (build_index(positions=True)) phrase / NEAR verify
# ENTIRELY from the posting sidecar — no candidate content fetch, no
# re-tokenize (the final step of VERDICT r3 #1's ladder: full-scan ->
# candidate+verify -> index-native).  Verification is one numpy pass over
# packed (ordinal << 32 | position) keys, which are globally sorted because
# postings are ordinal-sorted and positions ascend within a posting:
#
#   * phrase [t1..tk]:  S = K(t1); S = intersect(S + 1, K(tj)) for j = 2..k
#     — S always holds the key of the (j-1)-th matched token, so S + 1 is
#     "same doc, next position"; repeated tokens fall out naturally.
#   * NEAR(a, b, slop): for each key ka the window [ka+1, ka+slop] (ordered)
#     / [ka-slop, ka+slop] (unordered) against sorted K(b) — two
#     searchsorted calls, no per-doc work.  Windows can never leak across
#     docs: ordinals differ by >= 1 in the high 32 bits >> any slop.
#
# Scoring then reuses the gathered (ids, tfs): BM25 units for the query's
# terms over verified docs only — identical quantization to the engine and
# the SQL oracle (round(qtf*idf*sat*SCORE_SCALE)).


def _ordinal_ranges(n_docs: int, n_ranges: int | None) -> list[dict]:
    """Contiguous ordinal ranges for the fan-out tasks.  Default: one task
    per ~250k docs, capped at 128 (a task's fixed cost is one lazy
    QueryEngine init; its variable cost is the query terms' posting blocks
    overlapping the range, so more ranges = finer parallelism on a big
    cluster — callers pass n_ranges explicitly to go wider)."""
    if n_ranges is None:
        n_ranges = max(1, min(128, (n_docs + 249_999) // 250_000))
    n_ranges = max(1, min(n_ranges, n_docs))
    bounds = [(i * n_docs) // n_ranges for i in range(n_ranges + 1)]
    return [{"lo": bounds[i], "hi": bounds[i + 1]}
            for i in range(n_ranges) if bounds[i] < bounds[i + 1]]


def _packed_keys(ids: np.ndarray, tfs: np.ndarray,
                 pos: np.ndarray) -> np.ndarray:
    """(ordinal << 32 | within-doc position), sorted by construction."""
    return (np.repeat(ids.astype(np.int64), tfs) << 32) | pos


def positional_units_batch(t: pa.Table, *, index_dir: str,
                           specs: list[dict],
                           weights: dict[int, list[tuple[str, float]]]
                           ) -> pa.Table:
    """One task per ordinal range: verify each spec from the positional
    sidecar, score verified docs, return (query_id, doc_id, units) rows.

    ``specs`` kinds: "phrase" {tokens}, "near" {a, b, slop, ordered;
    a != b}, "span" {terms, window, ordered}, "span_or" {clauses},
    "span_not" {tokens, exclude, pre, post}, "first" {term, limit},
    "pos_range" {term, lo, hi},
    "phrase_prefix" {tokens, prefix}, "contain" {big_a, big_b, window,
    tokens}, "multi_phrase" {positions: [[alt, ...], ...]}.  Several specs may SHARE a qid (the
    per-language expansion of tag_spec relies on it).  ``weights``: per
    qid the (term, qtf*idf) rows (df from the whole index, computed once
    driver-side via index_stats)."""
    from .build import SCORE_SCALE
    from .codecs import tf_saturation
    from .query import QueryEngine

    out_q: list[np.ndarray] = []
    out_d: list[np.ndarray] = []
    out_u: list[np.ndarray] = []
    for row in t.to_pylist():
        lo, hi = int(row["lo"]), int(row["hi"])
        eng = QueryEngine(index_dir, ord_range=(lo, hi))
        gathered: dict[str, tuple] = {}

        def _g(term: str) -> tuple:
            hit = gathered.get(term)
            if hit is None:
                ids, tfs, pos = eng._gather_range_pos(term)
                hit = (ids, tfs, pos, _packed_keys(ids, tfs, pos))
                gathered[term] = hit
            return hit

        for spec in specs:
            qid = spec["qid"]
            if spec["kind"] == "phrase":
                toks = spec["tokens"]
                if not toks:
                    continue
                s = _g(toks[0])[3]
                for tok in toks[1:]:
                    if not len(s):
                        break
                    s = np.intersect1d(s + 1, _g(tok)[3],
                                       assume_unique=True)
                verified = np.unique(s >> 32) if len(s) else s[:0]
            elif spec["kind"] == "span":
                # multi-term span-NEAR (Lucene SpanNearQuery): one occurrence
                # of EVERY term inside a window of <= ``window`` positions
                # (max pos - min pos), in query order when ``ordered``.
                # Packed keys make doc-crossing windows impossible for free:
                # two keys within ``window`` (< 2^32) share their ordinal.
                terms = spec["terms"]
                if len(set(terms)) != len(terms):
                    raise ValueError("span terms must be distinct")
                win = int(spec["window"])
                occ = [_g(t)[3] for t in terms]
                if any(not len(o) for o in occ):
                    continue
                if spec.get("ordered", True):
                    # greedy chain DP over sorted occurrence lists: for each
                    # occurrence x of term i, the best (= maximal) start of
                    # a chain t0 < t1 < ... < x is the cummax of the
                    # previous term's best starts at its largest occurrence
                    # < x — one searchsorted per term
                    prev_occ, prev_start = occ[0], occ[0]
                    dead = False
                    for i in range(1, len(occ)):
                        cm = np.maximum.accumulate(prev_start)
                        xi = occ[i]
                        j = np.searchsorted(prev_occ, xi, side="left") - 1
                        ok_i = j >= 0
                        xi = xi[ok_i]
                        if not len(xi):
                            dead = True
                            break
                        prev_occ, prev_start = xi, cm[j[ok_i]]
                    if dead:
                        continue
                    hit = prev_occ[prev_occ - prev_start <= win]
                    verified = np.unique(hit >> 32) if len(hit) else hit[:0]
                else:
                    # unordered min-window: merge all occurrences with term
                    # labels; per label, the running last-occurrence key is
                    # one cummax; a position closes a valid window iff every
                    # label's last occurrence is within ``window`` behind it
                    merged = np.concatenate(occ)
                    labels = np.concatenate(
                        [np.full(len(o), i, dtype=np.int8)
                         for i, o in enumerate(occ)])
                    order = np.argsort(merged, kind="stable")
                    keys, labs = merged[order], labels[order]
                    minlast = None
                    for i in range(len(occ)):
                        m = np.maximum.accumulate(
                            np.where(labs == i, keys, -1))
                        minlast = m if minlast is None else \
                            np.minimum(minlast, m)
                    ok_w = (minlast >= 0) & (keys - minlast <= win)
                    hit = keys[ok_w]
                    verified = np.unique(hit >> 32) if len(hit) else hit[:0]
            elif spec["kind"] == "span_or":
                # SpanOrQuery (Lucene): the union of the clause spans — a
                # doc verifies when ANY clause phrase occurs.  Each clause
                # runs the same packed-key consecutive-position chain as
                # "phrase" (a 1-token clause degenerates to term presence);
                # the verified sets union
                parts = []
                for toks in spec["clauses"]:
                    if not toks:
                        continue
                    s = _g(toks[0])[3]
                    for tok in toks[1:]:
                        if not len(s):
                            break
                        s = np.intersect1d(s + 1, _g(tok)[3],
                                           assume_unique=True)
                    if len(s):
                        parts.append(np.unique(s >> 32))
                verified = (np.unique(np.concatenate(parts)) if parts
                            else np.empty(0, dtype=np.int64))
            elif spec["kind"] == "span_not":
                # SpanNotQuery (Lucene): include-phrase matches whose span,
                # widened by ``pre`` positions before and ``post`` after,
                # contains NO occurrence of the exclude term.  The include
                # chain yields the key of each match's LAST token; the
                # exclusion test is two searchsorted calls against the
                # exclude term's sorted keys.  The window lo is clamped to
                # the match's doc (packed keys: doc start = ordinal << 32),
                # mirroring SQL's "no token at pos < 1"
                toks = spec["tokens"]
                if not toks:
                    continue
                s = _g(toks[0])[3]
                for tok in toks[1:]:
                    if not len(s):
                        break
                    s = np.intersect1d(s + 1, _g(tok)[3],
                                       assume_unique=True)
                if not len(s):
                    continue
                start = s - (len(toks) - 1)
                ke = _g(spec["exclude"])[3]
                if len(ke):
                    lo_k = np.maximum(start - int(spec["pre"]),
                                      start & ~np.int64(0xFFFFFFFF))
                    hi_k = np.minimum(
                        s + int(spec["post"]),
                        (start | np.int64(0xFFFFFFFF)))
                    n_ex = (np.searchsorted(ke, hi_k, side="right")
                            - np.searchsorted(ke, lo_k, side="left"))
                    s = s[n_ex == 0]
                verified = np.unique(s >> 32) if len(s) else s[:0]
            elif spec["kind"] == "multi_phrase":
                # MultiPhraseQuery (Lucene): a consecutive-position chain
                # where EACH position matches any of an alternative term
                # SET (the phrase-with-synonyms / multi-token-analysis
                # query).  Same packed-key chain as "phrase" with a
                # per-position occurrence union (np.unique keeps the
                # intersect1d(assume_unique) invariant)
                positions = spec["positions"]
                if not positions or any(not alts for alts in positions):
                    continue

                def _union(alts):
                    parts = [_g(t)[3] for t in alts]
                    parts = [p for p in parts if len(p)]
                    if not parts:
                        return np.empty(0, dtype=np.int64)
                    if len(parts) == 1:
                        return parts[0]
                    return np.unique(np.concatenate(parts))

                s = _union(positions[0])
                for alts in positions[1:]:
                    if not len(s):
                        break
                    s = np.intersect1d(s + 1, _union(alts),
                                       assume_unique=True)
                verified = np.unique(s >> 32) if len(s) else s[:0]
            elif spec["kind"] == "contain":
                # SpanContainingQuery / SpanWithinQuery (Lucene): a "big"
                # span — an (a, b) occurrence pair with b - a <= window —
                # fully containing a "little" token-phrase match
                # (a <= start AND end <= b).  The doc-level existence test
                # is shared by both queries (they differ only in which
                # side's terms score — callers pass different qterms).
                # Over all (a, b) choices the minimal width is
                # (smallest b >= end) - (largest a <= start), so one
                # searchsorted per side decides existence; the doc-start/
                # doc-end clamps keep both ends in the little match's doc
                if spec["big_a"] == spec["big_b"]:
                    raise ValueError("big span terms must differ")
                toks = spec["tokens"]
                if not toks:
                    continue
                s = _g(toks[0])[3]
                for tok in toks[1:]:
                    if not len(s):
                        break
                    s = np.intersect1d(s + 1, _g(tok)[3],
                                       assume_unique=True)
                if not len(s):
                    continue
                start = s - (len(toks) - 1)
                ka = _g(spec["big_a"])[3]
                kb = _g(spec["big_b"])[3]
                if not len(ka) or not len(kb):
                    continue
                j = np.searchsorted(ka, start, side="right") - 1
                ok = j >= 0
                a = ka[np.maximum(j, 0)]
                ok &= a >= (start & ~np.int64(0xFFFFFFFF))
                i2 = np.searchsorted(kb, s, side="left")
                in_kb = i2 < len(kb)
                b = kb[np.minimum(i2, len(kb) - 1)]
                ok &= in_kb & (b <= (start | np.int64(0xFFFFFFFF)))
                ok &= (b - a) <= int(spec["window"])
                hit = s[ok]
                verified = np.unique(hit >> 32) if len(hit) else hit[:0]
            elif spec["kind"] == "phrase_prefix":
                # ES match_phrase_prefix: tokens[:-1] exact-consecutive,
                # the LAST position held by ANY dictionary term with the
                # given prefix (the autocomplete rewrite).  Expansion uses
                # the same sorted dictionary as the driver-side qterms, so
                # the two sides cannot drift
                toks = spec["tokens"]
                exp = eng.expand_prefix(spec["prefix"])
                if not exp:
                    continue
                union_parts = [_g(x)[3] for x in exp]
                union_parts = [u for u in union_parts if len(u)]
                if not union_parts:
                    continue
                union = np.unique(np.concatenate(union_parts))
                if toks:
                    s = _g(toks[0])[3]
                    for tok in toks[1:]:
                        if not len(s):
                            break
                        s = np.intersect1d(s + 1, _g(tok)[3],
                                           assume_unique=True)
                    if len(s):
                        s = np.intersect1d(s + 1, union,
                                           assume_unique=True)
                    hit = s
                else:
                    hit = union
                verified = np.unique(hit >> 32) if len(hit) else hit[:0]
            elif spec["kind"] == "first":
                # SpanFirstQuery: the term occurs within the first
                # ``limit`` tokens of the doc.  Engine positions are
                # 0-based (pos < limit); the SQL oracle's tokpos is
                # 1-based (pos <= limit) — same set
                kt = _g(spec["term"])[3]
                if not len(kt):
                    continue
                hit = kt[(kt & 0xFFFFFFFF) < int(spec["limit"])]
                verified = np.unique(hit >> 32) if len(hit) else hit[:0]
            elif spec["kind"] == "pos_range":
                # SpanPositionRangeQuery: the term occurs at some 0-based
                # position in [lo, hi) — "first" is the lo=0 special case;
                # the SQL oracle's 1-based tokpos uses pos > lo AND
                # pos <= hi, the same set
                kt = _g(spec["term"])[3]
                if not len(kt):
                    continue
                pos = kt & 0xFFFFFFFF
                hit = kt[(pos >= int(spec["lo"])) & (pos < int(spec["hi"]))]
                verified = np.unique(hit >> 32) if len(hit) else hit[:0]
            else:  # near
                if spec["a"] == spec["b"]:
                    raise ValueError(
                        "NEAR terms must differ (with a == b every "
                        "occurrence self-matches in the unordered window)"
                    )
                ka = _g(spec["a"])[3]
                kb = _g(spec["b"])[3]
                if not len(ka) or not len(kb):
                    continue
                slop = int(spec["slop"])
                win_lo = ka + 1 if spec["ordered"] else ka - slop
                lo_i = np.searchsorted(kb, win_lo, side="left")
                hi_i = np.searchsorted(kb, ka + slop, side="right")
                hit = ka[lo_i < hi_i]
                verified = np.unique(hit >> 32) if len(hit) else hit[:0]
            if not len(verified):
                continue
            if len(eng.tomb):
                dead, _ = sorted_member(eng.tomb, verified)
                verified = verified[~dead]
                if not len(verified):
                    continue
            for term, w in weights.get(qid, ()):
                ids, tfs, _pos, _k = _g(term)
                m, _ = sorted_member(verified, ids)
                if not m.any():
                    continue
                sids, stfs = ids[m], tfs[m]
                sat = tf_saturation(stfs, eng.docs.gather_lens(sids),
                                    eng.avgdl)
                out_q.append(np.full(len(sids), qid, dtype=np.int64))
                out_d.append(eng.docs.gather_ids(sids))
                out_u.append(np.round(w * sat * SCORE_SCALE).astype(np.int64))
    if not out_q:
        return pa.table({"query_id": pa.array([], type=pa.int64()),
                         "doc_id": pa.array([], type=pa.int64()),
                         "units": pa.array([], type=pa.int64())})
    return pa.table({
        "query_id": pa.array(np.concatenate(out_q)),
        "doc_id": pa.array(np.concatenate(out_d)),
        "units": pa.array(np.concatenate(out_u)),
    })


def tag_spec(spec: dict, lg: str) -> dict:
    """Rewrite an untagged positional spec's tokens to ``lg:tok`` keys —
    the per-language variant for a lang-tagged index.  Variants of one
    spec can SHARE its qid: a doc is single-language, so at most one
    variant can verify it (other languages' terms have no postings in it),
    and its term units are appended exactly once."""
    from .analyzer import LANG_SEP

    def t(tok: str) -> str:
        return f"{lg}{LANG_SEP}{tok}"

    out = dict(spec)
    kind = spec["kind"]
    if kind in ("phrase", "phrase_prefix"):
        out["tokens"] = [t(x) for x in spec["tokens"]]
        if kind == "phrase_prefix":
            out["prefix"] = t(spec["prefix"])
    elif kind == "near":
        out["a"], out["b"] = t(spec["a"]), t(spec["b"])
    elif kind == "span":
        out["terms"] = [t(x) for x in spec["terms"]]
    elif kind == "span_or":
        out["clauses"] = [[t(x) for x in c] for c in spec["clauses"]]
    elif kind == "span_not":
        out["tokens"] = [t(x) for x in spec["tokens"]]
        out["exclude"] = t(spec["exclude"])
    elif kind == "multi_phrase":
        out["positions"] = [[t(x) for x in alts]
                            for alts in spec["positions"]]
    elif kind == "contain":
        out["tokens"] = [t(x) for x in spec["tokens"]]
        out["big_a"], out["big_b"] = t(spec["big_a"]), t(spec["big_b"])
    elif kind in ("first", "pos_range"):
        out["term"] = t(spec["term"])
    else:
        raise ValueError(f"unknown positional spec kind {kind!r}")
    return out


def positional_units(index_dir: str, specs: list[dict],
                     weights: dict[int, list[tuple[str, float]]],
                     n_ranges: int | None = None):
    """(query_id, doc_id, units) Dataset from the positional index: same
    contiguous-ordinal-range fan-out as candidate_ordinals (each task decodes
    only its range's posting/position blocks), BM25 units complete per
    (query, doc) because every posting of an in-range doc lands in-range."""
    import ray.data as rd

    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        man = json.load(f)
    if not man.get("positions"):
        raise ValueError("positional_units requires build_index(positions=True)")
    items = _ordinal_ranges(man["n_docs"], n_ranges)
    return rd.from_items(items).map_batches(
        positional_units_batch, batch_format="pyarrow", batch_size=1,
        fn_kwargs={"index_dir": index_dir, "specs": specs,
                   "weights": weights})


def candidate_ordinals(index_dir: str, *, any_terms: list[str] | None = None,
                       groups: list[list[str]] | None = None,
                       n_ranges: int | None = None) -> np.ndarray:
    """Sorted candidate doc ordinals from the inverted index.

    Exactly one of ``any_terms`` (union semantics) / ``groups``
    (per-group intersection, unioned) must be given.  The fan-out uses
    ``n_ranges`` contiguous ordinal ranges (see _ordinal_ranges)."""
    if (any_terms is None) == (groups is None):
        raise ValueError("pass exactly one of any_terms / groups")
    import ray.data as rd

    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        n_docs = json.load(f)["n_docs"]
    items = _ordinal_ranges(n_docs, n_ranges)
    rows = (
        rd.from_items(items)
        .map_batches(_range_candidates_batch, batch_format="pyarrow",
                     batch_size=1,
                     fn_kwargs={"index_dir": index_dir,
                                "any_terms": any_terms, "groups": groups})
        .take_all()
    )
    if not rows:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.asarray([r["ord"] for r in rows], dtype=np.int64))
