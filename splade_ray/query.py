"""Query engine: stateful actor-pool BM25 top-k over the segment index.

Replaces the reference's query side — Milvus sparse inner-product search
behind ``collection.search`` / ``hybrid_search`` (retrievers.py:120-141) plus
the per-process BM25 refit (main.py:46-64, eval.py:92-109) — with a
``QueryEngine`` callable class used as a Ray Data actor pool:

    results = queries_ds.map_batches(QueryEngine, fn_constructor_kwargs=
        {"index_dir": ...}, batch_format="pyarrow", concurrency=N, batch_size=B)

State (dictionary, mmapped postings, corpus stats) loads ONCE per index
generation per process (``_IndexCore``, the ST1/ST3 state of SURVEY.md
§2.3) and is shared by every engine on it; per-batch work is pure
scoring.  Corpus stats come from the build manifest — never refit at query
time (the reference's per-process refit is a documented wart, SURVEY §2.1 S7).

Two scorers, parity-tested against each other and the oracle:

  * ``taat``  — vectorized term-at-a-time (numpy gather + segment-sort +
                unique/add.at).  Fastest in-Python path; bench default.
  * ``bmw``   — block-max WAND: document-at-a-time pivoting over per-block
                max-score bounds (codecs.PostingMeta.block_max_tfsat), the
                scale path for huge posting lists.

Scores are integer-quantized (build.SCORE_SCALE units) before summation so
rank and score are exactly reproducible across scorers, partitionings and
the DuckDB oracle; ties break by doc_id ascending (deterministic, matching
the rank-identity requirement of the north rule).
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import math
import os
import re
import threading
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .analyzer import LANG_SEP, analyze_query, tokens_py
from .build import SCORE_SCALE
from .codecs import decode_block_range, decode_postings_many, tf_saturation
from .ids import PLACEMENT, term_shard
from .segments import SegmentReader

# analyzer contract: terms are [a-z0-9]+ — this alphabet makes the edit-1
# neighborhood enumeration in expand_fuzzy exhaustive
_FUZZY_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

def wildcard_to_like(pattern: str) -> str:
    """``*``/``?`` wildcard -> SQL LIKE pattern (``%``/``_``).  No escaping
    needed: index terms and patterns are [a-z0-9] plus the wildcards, and
    the lang tag separator ':' is a literal in LIKE."""
    return pattern.replace("*", "%").replace("?", "_")


RESULT_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.int32()),
        ("doc_id", pa.int64()),
        ("score", pa.float64()),
    ]
)


# default discrete quantiles for the percentiles aggregation (ES
# ``percentiles`` agg; exact here — the doc_len doc-value domain is small
# enough that no t-digest approximation is needed)
PERCENTILE_QS = (0.25, 0.5, 0.75, 0.99)

# 63-bit mask shared with ops/contract.H63 — the sha256-derived hash both
# engine and DuckDB oracles reproduce bit-for-bit
MASK63 = (1 << 63) - 1


def h63(s: str) -> int:
    """sha256-derived 63-bit int (first 8 digest bytes, big-endian, sign
    bit cleared) — identical to ops/contract.H63's SQL rendering."""
    return int.from_bytes(hashlib.sha256(s.encode()).digest()[:8],
                          "big") & MASK63


def lev_dist(a: str, b: str, cap: int = 3) -> int:
    """Plain Levenshtein distance with an early-exit ``cap`` (terms the
    suggester scores are pre-filtered to distance <= 2 by the automaton,
    so the DP rows stay tiny) — DuckDB ``levenshtein()`` semantics."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) >= cap:
        return cap
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        best = i
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
            if cur[j] < best:
                best = cur[j]
        if best >= cap:
            return cap
        prev = cur
    # the row-min early exit proves every ROW held a value < cap, not
    # that the FINAL cell did (e.g. ("bb", "aaaaa", cap=4) ends at 5
    # with row minima 2..4) — clamp so the capped contract
    # min(true_distance, cap) holds on every path
    return min(prev[lb], cap)


def disc_percentiles(vals: np.ndarray, counts: np.ndarray,
                     qs) -> tuple[int, list[int]]:
    """Discrete percentiles from a sorted value histogram — DuckDB
    ``quantile_disc`` semantics: the element at 0-based index
    max(0, ceil(q*n) - 1) of the sorted multiset (validated against
    DuckDB across n and q, including q*n integer boundaries).  Shared by
    the engine kind and the sharded merge so both sides recompute the
    SAME values from summed histograms."""
    cum = np.cumsum(counts)
    n = int(cum[-1])
    out = []
    for q in qs:
        idx = max(0, math.ceil(q * n) - 1)
        out.append(int(vals[np.searchsorted(cum, idx + 1, side="left")]))
    return n, out


def mad_from_hist(vals: np.ndarray, counts: np.ndarray) -> tuple[int, int,
                                                                 int]:
    """(n, median, mad) from a SORTED value histogram — the shared kernel
    of search_mad and the sharded merge (summed per-shard histograms feed
    the identical discrete-quantile rule, so both paths agree exactly)."""
    n, (med,) = disc_percentiles(vals, counts, (0.5,))
    dev = np.abs(vals - med)
    order = np.argsort(dev, kind="stable")
    dvals, dcounts = dev[order], counts[order]
    # collapse duplicate deviation values (|m-x| == |m+x|)
    uvals, start = np.unique(dvals, return_index=True)
    ucounts = np.add.reduceat(dcounts, start)
    _, (mad,) = disc_percentiles(uvals, ucounts, (0.5,))
    return n, int(med), int(mad)


def boxplot_from_hist(vals: np.ndarray,
                      counts: np.ndarray) -> tuple[int, int, int, int,
                                                   int, int]:
    """(n, min, q1, median, q3, max) from a SORTED value histogram — the
    shared kernel of the boxplot kind and its sharded merge (Elasticsearch
    ``boxplot`` agg, but EXACT, not TDigest: the quartiles are discrete
    quantiles via disc_percentiles over the bounded doc_len domain, so
    summed per-shard histograms recompute identical values)."""
    n, (q1, med, q3) = disc_percentiles(vals, counts, (0.25, 0.5, 0.75))
    return n, int(vals[0]), q1, med, q3, int(vals[-1])


def welch_t_floats(n1: int, s1: int, ss1: int,
                   n2: int, s2: int, ss2: int) -> tuple[float, float, float]:
    """(mean1, mean2, t) for Welch's unequal-variance t-statistic, derived
    from the EXACT integer sufficient statistics (count, sum, sum of
    squares per side) in a FIXED operation order — the single float
    derivation both the engine kind, the sharded merge, and the SQL oracle
    replay, so merged-partial results are bit-identical (the ext_stats
    pattern).  Caller guarantees n1 >= 2 and n2 >= 2."""
    m1 = float(s1) / n1
    m2 = float(s2) / n2
    v1 = (float(ss1) - float(s1) * float(s1) / n1) / (n1 - 1)
    v2 = (float(ss2) - float(s2) * float(s2) / n2) / (n2 - 1)
    # non-negativity clamp mirrors ext_stats_floats (a tiny negative from
    # float cancellation would NaN the sqrt; literal +0.0 keeps -0.0 out
    # of the value hash)
    if v1 <= 0.0:
        v1 = 0.0
    if v2 <= 0.0:
        v2 = 0.0
    denom = math.sqrt(v1 / n1 + v2 / n2)
    t = (m1 - m2) / denom if denom > 0.0 else 0.0
    return m1, m2, t


def parse_query_string(q: str) -> dict:
    """Lucene classic-parser / Elasticsearch ``query_string`` subset:
    ``+piece`` must, ``-piece`` must_not, ``piece^N`` integer boost
    (N >= 1, applied as the scoring qtf), ``piece*`` trailing-wildcard
    prefix (bare pieces only), ``piece~`` / ``piece~2`` fuzzy at 1 or 2
    edits (bare pieces only), ``lang:xx`` language scope, bare pieces
    should.  Every piece runs through the analyzer; a piece that analyzes
    to several tokens contributes each of them under its operator (for a
    prefix piece the LAST token is the open prefix, the head tokens
    become shoulds — the match_phrase_prefix convention).  A token
    reachable through several pieces takes the MAX boost (so a role
    duplicate at default boost stays qtf=1, search_bool's rule).

    Returns {"must", "should", "must_not", "prefixes", "boosts", "lang"}.
    """
    from .analyzer import tokens_py as _tok

    must: list[str] = []
    should: list[str] = []
    must_not: list[str] = []
    prefixes: list[str] = []
    fuzzies: list[tuple[str, int]] = []
    boosts: dict[str, int] = {}
    lang = None
    for piece in q.split():
        if piece.lower().startswith("lang:"):
            lang = piece[5:] or None
            continue
        op = ""
        if piece[:1] in "+-":
            op, piece = piece[0], piece[1:]
        boost = 1
        stem, sep, b = piece.rpartition("^")
        if sep:
            try:
                boost = int(b)
            except ValueError:
                raise ValueError(
                    f"bad boost in {piece!r} (need piece^INTEGER)")
            if boost < 1:
                raise ValueError("boost must be >= 1")
            piece = stem
        fuzzy_edits = 0
        stem, sep, f = piece.rpartition("~")
        if sep:
            if op:
                raise ValueError(
                    "fuzzy pieces must be bare (no +/-): " + op + piece)
            try:
                fuzzy_edits = int(f) if f else 1
            except ValueError:
                raise ValueError(f"bad fuzziness in {piece!r} (need tok~1"
                                 " or tok~2)")
            if fuzzy_edits not in (1, 2):
                raise ValueError("fuzziness must be 1 or 2")
            piece = stem
        is_prefix = piece.endswith("*")
        if is_prefix:
            if op or fuzzy_edits:
                raise ValueError(
                    "prefix pieces must be bare (no +/- or ~): " + piece)
            piece = piece[:-1]
        toks = _tok(piece)
        if not toks:
            continue
        if is_prefix:
            head, pre = toks[:-1], toks[-1]
            prefixes.append(pre)
            toks = head
        if fuzzy_edits:
            head, ft = toks[:-1], toks[-1]
            fuzzies.append((ft, fuzzy_edits))
            toks = head
        for t in toks:
            if op == "+":
                must.append(t)
            elif op == "-":
                must_not.append(t)
            else:
                should.append(t)
            if op != "-" and boost > 1:
                boosts[t] = max(boosts.get(t, 1), boost)
    return {"must": must, "should": should, "must_not": must_not,
            "prefixes": prefixes, "fuzzies": fuzzies, "boosts": boosts,
            "lang": lang}


def idf(n_docs: int, df: int) -> float:
    """BM25 idf, Robertson/Lucene form (always > 0)."""
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


class _Caches:
    """Decoded-postings caches of one ``(core, ord_range, budget)`` bundle:
    ``full`` term -> (ids, tfs, dls), ``units`` term -> qtf=1 (ids, units),
    ``blocks`` (segment, row) -> {block: (ids, sat)}.  ONE counter charges
    all three, so the engines sharing the bundle never cache more than
    ``budget`` postings together.  Every entry is tombstone-independent
    (scorers mask dead docs after the lookup), so engines opened with
    different tombstone sets share it; a range engine caches only in-range
    postings, hence ``ord_range`` in the bundle key."""

    def __init__(self, core: "_IndexCore", budget: int):
        self.core = core  # holding a bundle keeps its core alive
        self.budget = budget
        self.full: dict[str, tuple] = {}
        self.units: dict[str, tuple] = {}
        self.blocks: dict[tuple, dict] = {}
        self.n = 0
        # engines in different threads may share the bundle
        self._lock = threading.Lock()

    def admit(self, n: int) -> bool:
        """Charge ``n`` postings if they fit the budget."""
        with self._lock:
            if self.budget > 0 and self.n + n <= self.budget:
                self.n += n
                return True
            return False


class _IndexCore:
    """What one index GENERATION fixes, shared by every engine (and
    ``TermSuggester``/``phrase.index_stats``) that opens it in the process:
    the resolved dir, the manifest, the segment readers, the doc arrays,
    the term-lookup router and memo and the ``_Caches`` bundles.
    Segments, docmap and MANIFEST never change within a generation
    (``delete_docs`` writes only tombstones, which each engine reads on
    open), so a refresh reuses all of it — Lucene's
    ``DirectoryReader.openIfChanged``.

    Router: when the MANIFEST names the build's ``placement`` rule
    (``ids.PLACEMENT``), a term can sit only in the segments of its home
    shard and, for a MANIFEST ``hot_terms`` entry, of its salt shards, so
    ``term_refs`` searches those alone (the map from shard to segments
    comes from MANIFEST ``segments[].shard``).  Without the record, or
    with one it does not know, every segment is searched.

    Key: the realpath of the dir plus ``MANIFEST.json``'s (st_dev, st_ino,
    st_mtime_ns, st_size) and the sha256 of its bytes (which cover every
    segment's ``postings_sha256``), so a rebuild, compaction or merge into
    a reused dir always opens a new core.

    Lifetime: live cores and bundles sit in weak registries; one strong
    slot holds the most recently opened one (a bundle holds its core),
    because callers usually drop the old engine before opening the next.
    So at most ONE core, with at most one bundle, outlives its engines in
    a process — also in a pooled Ray worker, where it stays resident until
    the worker opens another index generation or exits."""

    _live: "weakref.WeakValueDictionary[tuple, _IndexCore]" = (
        weakref.WeakValueDictionary())
    _last: "_IndexCore | _Caches | None" = None  # the strong slot

    def __init__(self, index_dir: str, manifest: dict):
        self.dir = index_dir
        self.manifest = manifest
        # a manifest without doc_ordinals is a pre-v3 index: postings would
        # misdecode (dl gone from the posting stream) — refuse it loudly
        # rather than crash later
        if not manifest.get("doc_ordinals"):
            raise ValueError(
                f"index at {index_dir} predates the ordinal-postings format "
                f"(manifest lacks doc_ordinals); rebuild required"
            )
        from .docmap import open_doc_arrays

        # ordinal -> real doc id translation (memmap-backed, flat or
        # per-range-sharded layout): O(1) in corpus size, and a range
        # engine only pages in the shards overlapping its slice
        self.docs = open_doc_arrays(index_dir)
        seg_root = os.path.join(index_dir, "segments")
        self.segments = [
            SegmentReader(os.path.join(seg_root, s["segment_id"]))
            for s in manifest["segments"]
        ]
        # term lookups are LAZY (term_refs): open is O(1) in vocabulary size
        self._refs: dict[str, tuple[list[tuple[int, int, int]], int]] = {}
        self._by_shard: "dict[int, list[int]] | None" = None
        if manifest.get("placement") == PLACEMENT:
            self._by_shard = {}
            for si, s in enumerate(manifest["segments"]):
                self._by_shard.setdefault(s["shard"], []).append(si)
            self._hot = frozenset(manifest.get("hot_terms", ()))
        self._bundles: "weakref.WeakValueDictionary[tuple, _Caches]" = (
            weakref.WeakValueDictionary())

    @classmethod
    def open(cls, index_dir: str) -> "_IndexCore":
        """The core of the generation ``index_dir`` (dir or alias) holds
        now: one MANIFEST read, a stat and a sha256 on a hit."""
        from .alias import resolve_index

        index_dir = resolve_index(index_dir)
        with open(os.path.join(index_dir, "MANIFEST.json"), "rb") as f:
            st = os.fstat(f.fileno())
            raw = f.read()
        key = (os.path.realpath(index_dir), st.st_dev, st.st_ino,
               st.st_mtime_ns, st.st_size, hashlib.sha256(raw).digest())
        core = cls._live.get(key)
        if core is None:
            core = cls._live[key] = cls(index_dir, json.loads(raw))
        last = _IndexCore._last
        if last is not core and getattr(last, "core", None) is not core:
            # a bundle of this core already in the slot stays there: the
            # engine about to ask for it is the refresh it is kept for
            _IndexCore._last = core
        return core

    def term_refs(self, term: str) -> tuple[list[tuple[int, int, int]], int]:
        """((salt, segment_idx, row_idx) list sorted by salt, summed df):
        one binary search per segment the term can sit in (``_segments_of``,
        every segment when the placement is unknown), memoized per core.

        Salt order matters: within one build generation a hot term's salted
        sub-lists cover disjoint ascending ordinal ranges, so salt-order
        concatenation is already doc-sorted (merged indexes may overlap and
        fall back to a sort in _gather).  Empty list <=> term absent."""
        hit = self._refs.get(term)
        if hit is not None:
            return hit
        refs: list[tuple[int, int, int]] = []
        df = 0
        for si in self._segments_of(term):
            seg = self.segments[si]
            for ri in seg.term_rows(term):
                refs.append((int(seg.salt[ri]), si, ri))
                df += int(seg.df[ri])
        refs.sort()
        out = (refs, df)
        self._refs[term] = out
        return out

    def _segments_of(self, term: str) -> "list[int] | range":
        """Indexes of the segments that can hold ``term``: those of its
        home shard, plus those of its salt shards when it is in MANIFEST
        ``hot_terms`` (the home shard stays: a merged index can hold the
        term cold in one generation and hot in another)."""
        if self._by_shard is None:
            return range(len(self.segments))
        n_shards = self.manifest["n_shards"]
        shards = {term_shard(term, None, n_shards)}
        if term in self._hot:
            shards.update(term_shard(term, s, n_shards)
                          for s in range(1 << self.manifest["salt_bits"]))
        return [si for sh in shards for si in self._by_shard.get(sh, ())]

    def caches(self, ord_range: "tuple[int, int] | None",
               budget: int) -> _Caches:
        """The shared cache bundle for ``(ord_range, budget)``."""
        key = (ord_range, budget)
        bundle = self._bundles.get(key)
        if bundle is None:
            bundle = self._bundles[key] = _Caches(self, budget)
        _IndexCore._last = bundle
        return bundle


class QueryEngine:
    """Callable-class stage: one instance per pool actor, init once per actor.

    Engines on one index generation share its ``_IndexCore`` (segment
    readers, doc arrays, term-lookup memo, postings caches); the tombstone
    set and every keyword option are per engine."""

    def __init__(self, index_dir: str, k: int = 10, scorer: str = "taat",
                 cache_postings_budget: int = 32_000_000,
                 ord_range: "tuple[int, int] | None" = None,
                 query_kind: str = "text",
                 synonyms: "dict[str, list[str]] | None" = None,
                 rescore_window: int = 50,
                 hist_width: int = 16,
                 dl_ranges: "list[tuple[int, int | None]] | None" = None,
                 dismax_tie: "tuple[int, int]" = (3, 10),
                 negative_boost: "tuple[int, int]" = (1, 2),
                 group_n: int = 3,
                 sort_ascending: bool = False,
                 percentile_qs: "tuple[float, ...]" = PERCENTILE_QS,
                 pinned_ids: "list[int] | None" = None,
                 random_seed: int = 42,
                 suggest_n: int = 5,
                 suggest_max_edits: int = 2,
                 const_boost: float = 1.0,
                 rf_pivot: int = 50,
                 comp_width: int = 16,
                 comp_size: int = 4,
                 comp_after: "tuple[str, int] | None" = None,
                 filter_buckets: "list[tuple[str, str]] | None" = None,
                 scroll_pages: int = 3,
                 phrase_cand_n: int = 8,
                 aux_index_dir: "str | None" = None,
                 df_origin: int = 64):
        """``cache_postings_budget``: max cached decoded postings (~16
        bytes each) held by all engines that share one cache bundle — every
        engine in the process on the same index generation, ``ord_range``
        and budget (see ``_IndexCore``).  Admission-without-eviction: once
        full, new terms are simply not cached — plain LRU degenerates on
        the cyclic access pattern of a repeated query workload (evicts
        exactly what the next round needs).  This is the reference's
        ``collection.load()`` index residency (ST3) scoped to an actor's
        memory budget; 0 disables.

        ``ord_range=(lo, hi)`` restricts this engine to doc ORDINALS in
        [lo, hi) — the doc-partitioned query fan-out (SURVEY §2.4 A4, the
        shape Milvus uses across query nodes, reference ingest.py:172).
        Only posting BLOCKS overlapping the range are ever decoded or
        cached (block_last_docid binary search), so an actor's resident
        set is ~1/n_shards of the index instead of all of it — the 100x
        residency fix.  Scores inside the range are complete and exact
        (every posting of an in-range doc lands in-range), so per-range
        top-k merge is globally exact; see ``run_queries_sharded``.

        ``index_dir`` may be an ALIAS file (alias.resolve_index) —
        resolved once here, so a blue-green swap takes effect for newly
        constructed actor pools while in-flight actors keep serving the
        generation they opened (the ES search-context semantics).

        Open cost: the MANIFEST read, the ``_IndexCore`` lookup (segment
        readers, doc arrays, term-lookup memo and postings caches are
        built once per generation and shared) and the tombstone read.
        Tombstones are read on EVERY open, so a new engine after
        ``delete_docs`` sees the deletes while an older engine keeps the
        tombstone set it opened with; neither changes the shared core."""
        core = _IndexCore.open(index_dir)
        self._core = core
        self.manifest = core.manifest
        self.n_docs = self.manifest["n_docs"]
        self.avgdl = self.manifest["avgdl"]
        self.langs = self.manifest["langs"]
        self.lang_tagged = self.manifest["lang_tagged"]
        self.k = k
        self.scorer = scorer
        if query_kind not in KINDS:
            raise ValueError(f"unknown query_kind {query_kind!r}; known: "
                             f"{', '.join(sorted(KINDS))}")
        self.query_kind = query_kind  # how __call__ reads the query column
        # query-time synonym map (term -> group, self NOT implied — pass
        # the full group); empty map = search_synonym degrades to BM25
        self.synonyms = synonyms or {}
        self.rescore_window = rescore_window  # phase-1 cut for search_rescore
        self.hist_width = hist_width  # bucket width for search_dl_hist
        # explicit [lo, hi) doc_len buckets for search_range (ES range agg;
        # hi=None = unbounded) — validated ascending, non-overlapping
        self.dl_ranges = [(int(lo), None if hi is None else int(hi))
                          for lo, hi in (dl_ranges or [])]
        for (lo, hi) in self.dl_ranges:
            if hi is not None and hi <= lo:
                raise ValueError(f"empty dl_range [{lo}, {hi})")
        # exact rationals (num, den), evaluated in integer units with floor
        # division on BOTH the engine and SQL sides — float tie_breakers
        # would break bit-identical rank parity on .5 rounding boundaries
        self.dismax_tie = (int(dismax_tie[0]), int(dismax_tie[1]))
        self.negative_boost = (int(negative_boost[0]),
                               int(negative_boost[1]))
        if self.dismax_tie[1] <= 0 or self.negative_boost[1] <= 0:
            raise ValueError("tie/boost denominators must be positive")
        self.group_n = int(group_n)  # per-bucket size for search_top_hits
        if self.group_n < 1:
            raise ValueError("group_n must be >= 1")
        self.sort_ascending = bool(sort_ascending)  # search_sort direction
        # discrete quantiles for search_percentiles (ES percentiles agg);
        # values must be in (0, 1]
        self.percentile_qs = tuple(float(q) for q in percentile_qs)
        if any(not (0.0 < q <= 1.0) for q in self.percentile_qs):
            raise ValueError("percentile_qs must be in (0, 1]")
        # explicit promoted-doc list for search_pinned (ES pinned query);
        # returned doc_id ASC ahead of the organic ranking
        self.pinned_ids = sorted(int(i) for i in (pinned_ids or []))
        self.random_seed = int(random_seed)  # search_random_score
        self.suggest_n = int(suggest_n)  # per-token cut, suggest_terms
        self.suggest_max_edits = int(suggest_max_edits)
        self.const_boost = float(const_boost)  # search_constant_score
        self.rf_pivot = int(rf_pivot)  # search_rank_feature saturation
        # composite-agg page spec: histogram width, page size, exclusive
        # (lang, bucket) after-key
        self.comp_width = int(comp_width)
        self.comp_size = int(comp_size)
        self.comp_after = (None if comp_after is None
                           else (str(comp_after[0]), int(comp_after[1])))
        # named (bucket, filter-query) specs for search_filters (ES
        # filters agg); each filter query runs through the analyzer at
        # query time like any other query string
        self.filter_buckets = [(str(nm), str(fq))
                               for nm, fq in (filter_buckets or [])]
        self._fbucket_memo: dict[tuple, np.ndarray] = {}  # (fq, lang) sets
        self.df_origin = int(df_origin)  # search_distance_feature pivot
        self.scroll_pages = int(scroll_pages)  # search_scroll page count
        if self.scroll_pages < 1:
            raise ValueError("scroll_pages must be >= 1")
        # per-position candidate cut for suggest_phrase (ES phrase
        # suggester's DirectCandidateGenerator max_candidates)
        self.phrase_cand_n = int(phrase_cand_n)
        if self.phrase_cand_n < 1:
            raise ValueError("phrase_cand_n must be >= 1")
        # second FIELD index for search_multi_match (ES multi-field
        # mapping: every field gets its own inverted index, df and avgdl
        # — Lucene per-field statistics).  A nested engine over the aux
        # index loads in THIS actor's __init__, so multi-field serving
        # stays one-pass per actor; doc identity joins by real doc_id
        # (both indexes are built over the same identity columns)
        self.aux = (QueryEngine(aux_index_dir, k=k, scorer=scorer)
                    if aux_index_dir else None)
        if query_kind == "multi_match" and self.aux is None:
            raise ValueError("multi_match needs aux_index_dir")
        self.ord_range = None
        if ord_range is not None:
            lo, hi = int(ord_range[0]), int(ord_range[1])
            if not (0 <= lo < hi <= self.n_docs):
                raise ValueError(f"ord_range {ord_range!r} outside [0, {self.n_docs}]")
            self.ord_range = (lo, hi)
        # ordinal -> real doc id translation and the segment readers come
        # from the generation's core; the caches from its bundle for this
        # (ord_range, budget) — opened after ``aux`` so the process's strong
        # slot keeps THIS engine's bundle
        self.docs = core.docs
        self.segments = core.segments
        self._caches = core.caches(self.ord_range, cache_postings_budget)
        # dense TAAT path available when postings are ordinals and one
        # bincount over N is affordable
        self._dense_ok = self.n_docs <= 50_000_000
        # tombstones (delete.delete_docs): dead doc ORDINALS, masked inside
        # every scorer BEFORE top-k / theta so masked answers are exact over
        # the live subset; stats stay frozen until compaction (Lucene
        # semantics).  Range-restricted engines keep only their slice.
        from .delete import tombstone_ordinals

        self.tomb = tombstone_ordinals(core.dir, self.docs,
                                       ord_range=self.ord_range)

    # ------------------------------------------------------------- lookup --
    def _term_refs(self, term: str) -> tuple[list[tuple[int, int, int]], int]:
        return self._core.term_refs(term)

    # ------------------------------------------------------------- gather --
    def _gather(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full postings for a term merged across segments/salts, doc-sorted.

        All the term's pieces are decoded in one batched varbyte pass
        (codecs.decode_postings_many) — the per-piece call overhead dominates
        otherwise once hot-term salting and lang expansion multiply pieces."""
        cached = self._caches.full.get(term)
        if cached is not None:
            return cached
        if self.ord_range is not None:
            ids, tfs = self._gather_range(term)
        else:
            regions = []
            for _salt, si, ri in self._term_refs(term)[0]:
                seg = self.segments[si]
                meta = seg.meta_at(ri)
                off = int(seg._offsets[ri])
                regions.append((seg.blob[off : off + meta.nbytes], meta))
            ids, tfs = decode_postings_many(regions)
            if len(regions) > 1 and not bool((ids[1:] >= ids[:-1]).all()):
                order = np.argsort(ids, kind="stable")
                ids, tfs = ids[order], tfs[order]
        dls = self.docs.gather_lens(ids)  # O(1) forward-array gather
        if self._caches.admit(len(ids)):
            self._caches.full[term] = (ids, tfs, dls)
        return ids, tfs, dls

    def _gather_range(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Range-restricted postings for ``term``: per piece, binary-search
        ``block_last_docid`` for the blocks overlapping [lo, hi), decode ONLY
        those (contiguous-range decode), and mask boundary blocks.  A shard
        engine therefore reads ~1/n_shards of every posting list — the mmap
        never pages the rest in."""
        lo, hi = self.ord_range
        parts_i: list[np.ndarray] = []
        parts_t: list[np.ndarray] = []
        for _salt, si, ri in self._term_refs(term)[0]:
            seg = self.segments[si]
            meta = seg.meta_at(ri)
            bl = meta.block_last_docid
            # block i covers ordinals (bl[i-1], bl[i]] — overlap iff
            # bl[i] >= lo and first_id(i) <= hi-1
            b_lo = int(np.searchsorted(bl, lo, side="left"))
            b_hi = min(int(np.searchsorted(bl, hi - 1, side="left")) + 1, len(bl))
            if b_lo >= b_hi:
                continue
            off = int(seg._offsets[ri])
            ids, tfs = decode_block_range(
                seg.blob[off : off + meta.nbytes], meta, b_lo, b_hi
            )
            m = (ids >= lo) & (ids < hi)
            if not bool(m.all()):
                ids, tfs = ids[m], tfs[m]
            if len(ids):
                parts_i.append(ids)
                parts_t.append(tfs)
        if not parts_i:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        ids = np.concatenate(parts_i)
        tfs = np.concatenate(parts_t)
        if len(parts_i) > 1 and not bool((ids[1:] >= ids[:-1]).all()):
            order = np.argsort(ids, kind="stable")
            ids, tfs = ids[order], tfs[order]
        return ids, tfs

    def _gather_range_pos(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Range-restricted POSITIONAL postings: (ids, tfs, flat within-doc
        positions with per-posting counts = tfs), decoding only the posting
        blocks (and their aligned position regions) overlapping the engine's
        ordinal range.  Requires an index built with positions=True."""
        if not self.manifest.get("positions"):
            raise ValueError(
                "index was built without positions=True; "
                "phrase/NEAR need the positional sidecar (build_index)"
            )
        from .codecs import take_slices

        lo, hi = self.ord_range or (0, self.n_docs)
        parts_i: list[np.ndarray] = []
        parts_t: list[np.ndarray] = []
        parts_p: list[np.ndarray] = []
        for _salt, si, ri in self._term_refs(term)[0]:
            seg = self.segments[si]
            meta = seg.meta_at(ri)
            bl = meta.block_last_docid
            b_lo = int(np.searchsorted(bl, lo, side="left"))
            b_hi = min(int(np.searchsorted(bl, hi - 1, side="left")) + 1, len(bl))
            if b_lo >= b_hi:
                continue
            off = int(seg._offsets[ri])
            ids, tfs = decode_block_range(
                seg.blob[off : off + meta.nbytes], meta, b_lo, b_hi
            )
            pos = seg.positions_range(ri, tfs, b_lo, b_hi)
            m = (ids >= lo) & (ids < hi)
            if not bool(m.all()):
                pos = take_slices(pos, tfs, np.flatnonzero(m))
                ids, tfs = ids[m], tfs[m]
            if len(ids):
                parts_i.append(ids)
                parts_t.append(tfs)
                parts_p.append(pos)
        if not parts_i:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32),
                    np.empty(0, dtype=np.int64))
        ids = np.concatenate(parts_i)
        tfs = np.concatenate(parts_t)
        pos = np.concatenate(parts_p)
        if len(parts_i) > 1 and not bool((ids[1:] >= ids[:-1]).all()):
            order = np.argsort(ids, kind="stable")
            pos = take_slices(pos, tfs, order)
            ids, tfs = ids[order], tfs[order]
        return ids, tfs, pos

    def _query_terms(self, query: str, lang: str | None) -> dict[str, int]:
        return analyze_query(
            query,
            lang if (self.lang_tagged and lang) else None,
            self.langs if self.lang_tagged else None,
        )

    # -------------------------------------------------------------- prefix --
    def expand_prefix(self, prefix: str, lang: str | None = None,
                      max_expansion: int = 1024) -> list[str]:
        """Distinct index terms starting with ``prefix`` (sorted).

        Lucene PrefixQuery's rewrite: the sorted dictionary makes the match
        set one contiguous row run per segment (SegmentReader.prefix_rows).
        Lang-tagged indexes scan one run per language (explicit ``lang``
        scopes it to that language's terms).  ``max_expansion`` is the
        TooManyClauses guard — a 1-char prefix over a web-scale vocabulary
        would otherwise expand to millions of scoring terms; erroring loudly
        is Lucene's (and our) contract, not silent truncation, so results
        stay oracle-exact whenever the call succeeds."""
        pre = prefix.strip()
        if not pre:
            raise ValueError("empty prefix")
        if self.lang_tagged:
            langs = [lang] if lang else self.langs
            keys = [f"{lg}{LANG_SEP}{pre}" for lg in langs]
        else:
            keys = [pre]
        terms: set[str] = set()
        for key in keys:
            for seg in self.segments:
                rows = seg.prefix_rows(key)
                # salted hot terms repeat over adjacent rows; the set dedups
                terms.update(seg._terms.slice(rows.start,
                                              rows.stop - rows.start)
                             .to_pylist())
                if len(terms) > max_expansion:
                    raise ValueError(
                        f"prefix {prefix!r} expands to more than "
                        f"{max_expansion} terms; use a longer prefix"
                    )
        return sorted(terms)

    def search_prefix(self, prefix: str, lang: str | None = None,
                      max_expansion: int = 1024):
        """BM25 top-k where the query is ``prefix*``: every matching
        dictionary term contributes its own idf-weighted BM25 units with
        qtf=1 (Lucene's scoring-BooleanQuery rewrite), summed per doc —
        exactly the semantics the SQL oracle (sql.prefix_topk_sql) replays.
        The prefix is normalized through the analyzer (first token), so
        "Spark" and "spark" expand identically."""
        toks = tokens_py(prefix)
        if not toks:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return self._bag_page(self.expand_prefix(toks[0], lang,
                                                 max_expansion))

    # ------------------------------------------------------------ wildcard --
    def expand_wildcard(self, pattern: str, lang: str | None = None,
                        max_expansion: int = 1024) -> list[str]:
        """Distinct index terms matching ``pattern`` (sorted), where ``*``
        matches any run and ``?`` exactly one character — Lucene
        WildcardQuery's dictionary rewrite.

        The literal prefix before the first wildcard bounds the scan to one
        contiguous dictionary run per segment (prefix_rows), and the run is
        filtered with ONE vectorized SQL-LIKE kernel (pyarrow
        ``match_like`` over the sliced term column) — no per-term Python.
        A LEADING wildcard degrades to a full-dictionary LIKE scan per
        segment (vectorized, but O(V) — the same cost Lucene pays, where
        the documented scale remedy is a reversed-term field); the
        ``max_expansion`` guard still bounds what can ever reach scoring.
        Patterns are lowercased; chars outside [a-z0-9*?] are rejected
        loudly (terms are analyzer-normalized ASCII alnum)."""
        pat = pattern.strip().lower()
        if not pat:
            raise ValueError("empty wildcard pattern")
        if not re.fullmatch(r"[a-z0-9*?]+", pat):
            raise ValueError(
                f"wildcard pattern {pattern!r} has characters outside "
                f"[a-z0-9*?]; index terms are analyzer-normalized alnum"
            )
        wc = min((pat.index(c) for c in "*?" if c in pat), default=len(pat))
        if wc == len(pat):  # no wildcard: Lucene's TermQuery rewrite
            keys = self._variants(pat, lang)
            return sorted(k for k in keys if self._term_refs(k)[0])
        lit = pat[:wc]
        like = wildcard_to_like(pat)
        if self.lang_tagged:
            langs = [lang] if lang else self.langs
            runs = [(f"{lg}{LANG_SEP}{lit}", f"{lg}{LANG_SEP}{like}")
                    for lg in langs]
        else:
            runs = [(lit, like)]
        terms: set[str] = set()
        for key_pre, key_like in runs:
            for seg in self.segments:
                rows = seg.prefix_rows(key_pre)
                if rows.stop <= rows.start:
                    continue
                sl = seg._terms.slice(rows.start, rows.stop - rows.start)
                terms.update(
                    sl.filter(pc.match_like(sl, key_like)).to_pylist()
                )
                if len(terms) > max_expansion:
                    raise ValueError(
                        f"wildcard {pattern!r} expands to more than "
                        f"{max_expansion} terms; add literal characters"
                    )
        return sorted(terms)

    def search_wildcard(self, pattern: str, lang: str | None = None,
                        max_expansion: int = 1024):
        """BM25 top-k for a ``*``/``?`` wildcard pattern: every matching
        dictionary term scores with qtf=1 (the same uniform
        scoring-BooleanQuery rewrite as search_prefix), summed per doc —
        the semantics sql.wildcard_topk_sql replays with LIKE."""
        if not pattern.strip():
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return self._bag_page(self.expand_wildcard(pattern, lang,
                                                   max_expansion))

    # --------------------------------------------------------------- fuzzy --
    def expand_fuzzy(self, token: str, lang: str | None = None) -> list[str]:
        """Index terms within Levenshtein distance 1 of ``token`` (sorted).

        Lucene FuzzyQuery at maxEdits=1, answered by EXHAUSTIVE
        neighborhood enumeration: every string one insertion / deletion /
        substitution away (~(2L+1)·|Σ| candidates, Σ = [a-z0-9] — complete
        because the analyzer contract guarantees ASCII-alnum terms), each
        probed against the sorted dictionary with the same O(log V) binary
        search as an exact term.  Per-query cost is therefore INDEPENDENT
        of vocabulary size — the property that matters at 10^8-term
        dictionaries, where a scan-and-levenshtein pass would be the
        scale-killer.  maxEdits=2 squares the candidate count, so that
        case instead walks a Levenshtein automaton over the sorted
        dictionary (expand_fuzzy_automaton — Lucene's FST intersect in
        array form); at maxEdits=1 this enumeration has the better
        constant (~(2L+1)·36 O(log V) probes, no automaton stepping)."""
        t = token
        if not t:
            return []
        cands = {t}
        for i in range(len(t)):
            cands.add(t[:i] + t[i + 1:])                # deletion
        for i in range(len(t)):
            for c in _FUZZY_ALPHABET:
                cands.add(t[:i] + c + t[i + 1:])        # substitution
        for i in range(len(t) + 1):
            for c in _FUZZY_ALPHABET:
                cands.add(t[:i] + c + t[i:])            # insertion
        cands.discard("")
        if self.lang_tagged:
            langs = [lang] if lang else self.langs
            keys = [f"{lg}{LANG_SEP}{c}" for c in cands for lg in langs]
        else:
            keys = list(cands)
        return sorted(k for k in keys if self._term_refs(k)[0])

    def search_fuzzy(self, query: str, lang: str | None = None):
        """BM25 top-k where the query term matches any index term within
        edit distance 1: the matched terms form a qtf=1 scoring bag (same
        uniform-weight rewrite as search_prefix; Lucene's similarity boost
        is deliberately absent so ranks stay integer-reproducible in the
        SQL oracle, which selects terms via levenshtein(term, q) <= 1).
        The query is analyzer-normalized; its FIRST token fuzzes."""
        toks = tokens_py(query)
        if not toks:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return self._bag_page(self.expand_fuzzy(toks[0], lang))

    # ------------------------------------------------------ fuzzy, edits=2 --
    def expand_fuzzy_automaton(self, token: str, lang: str | None = None,
                               max_edits: int = 2,
                               max_expansion: int = 1024) -> list[str]:
        """Index terms within Levenshtein distance ``max_edits`` of
        ``token`` (sorted) — Lucene FuzzyQuery's automaton rewrite.

        The edit-1 exhaustive neighborhood (expand_fuzzy) squares to ~400k
        probes at maxEdits=2; instead this INTERSECTS a Levenshtein
        automaton with the sorted dictionary (levenshtein.py): ask the
        automaton for the smallest accepted string >= the current term,
        leap-frog the dictionary there with one binary search
        (SegmentReader.seek_row), repeat.  Iterations = matches +
        automaton-language gaps — independent of vocabulary size, the same
        complexity Lucene gets from its FST intersect.  ``max_expansion``
        guards the scoring stage exactly like prefix/wildcard (short tokens
        at distance 2 can legitimately match thousands of terms)."""
        from .levenshtein import LevenshteinAutomaton

        t = token
        if not t:
            return []
        aut = LevenshteinAutomaton(t, max_edits)
        if self.lang_tagged:
            langs = [lang] if lang else self.langs
            key_prefixes = [f"{lg}{LANG_SEP}" for lg in langs]
        else:
            key_prefixes = [""]
        matched: set[str] = set()
        for kp in key_prefixes:
            npre = len(kp)
            for seg in self.segments:
                run = (seg.prefix_rows(kp) if kp
                       else range(0, len(seg._terms)))
                row = run.start
                while row < run.stop:
                    term = seg.term_at(row)[npre:]
                    nxt = aut.next_valid(term)
                    if nxt is None:
                        break
                    if nxt == term:
                        matched.add(kp + term)
                        if len(matched) > max_expansion:
                            raise ValueError(
                                f"fuzzy token {token!r} at maxEdits="
                                f"{max_edits} expands to more than "
                                f"{max_expansion} terms; use a longer token"
                            )
                        row += 1  # salted duplicates dedup via the set
                        continue
                    row = seg.seek_row(kp + nxt, row + 1, run.stop)
        return sorted(matched)

    def search_fuzzy2(self, query: str, lang: str | None = None,
                      max_expansion: int = 1024):
        """BM25 top-k at Levenshtein distance <= 2 (Lucene FuzzyQuery,
        maxEdits=2): matched terms form a qtf=1 scoring bag, identical
        rewrite to search_fuzzy — the SQL oracle selects terms via
        levenshtein(term, q) <= 2.  FIRST analyzed token fuzzes."""
        toks = tokens_py(query)
        if not toks:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return self._bag_page(self.expand_fuzzy_automaton(
            toks[0], lang, 2, max_expansion))

    # ------------------------------------------------------------- boolean --
    def _variants(self, tok: str, lang: str | None) -> list[str]:
        """Index keys a raw token matches under (lang expansion rules of
        analyze_query, applied to a single token)."""
        if self.lang_tagged:
            langs = [lang] if lang else self.langs
            return [f"{lg}{LANG_SEP}{tok}" for lg in langs]
        return [tok]

    def _token_doc_set(self, tok: str, lang: str | None) -> np.ndarray:
        """Sorted unique doc ordinals containing ``tok`` in any language —
        the PRESENCE set boolean filters operate on (scoring stays
        per-variant so per-language idf is preserved)."""
        arrs = [self._gather(v)[0] for v in self._variants(tok, lang)
                if self._term_refs(v)[0]]
        if not arrs:
            return np.empty(0, dtype=np.int64)
        if len(arrs) == 1:
            return arrs[0]
        return np.unique(np.concatenate(arrs))

    def search_bool(self, must=(), should=(), must_not=(),
                    lang: str | None = None,
                    exclude_ids=None, min_should_match: int = 0,
                    boosts: "dict[str, int] | None" = None,
                    extra_terms: "dict[str, int] | None" = None):
        """Lucene BooleanQuery: docs containing ALL ``must`` tokens and NO
        ``must_not`` token, scored by summed BM25 units (qtf=1) over the
        distinct must+should tokens present (must_not never contributes
        score).  Multi-word strings contribute each analyzed token.
        ``exclude_ids`` (real 63-bit doc ids) are banned outright — the
        more-like-this source-doc exclusion.  ``min_should_match`` > 0
        (Elasticsearch minimum_should_match) additionally requires at
        least that many DISTINCT should tokens present in the doc —
        counted over presence sets before any cut, like the other
        filters.

        Accumulation is the sparse TAAT path WITHOUT the dense top-k
        pre-cut: the filters must apply to complete per-doc sums before any
        cut, or a banned doc could set the cut and evict a qualifying one.
        Filter sets and postings are both doc-sorted, so the must/must_not
        masks are O(n log m) searchsorted probes, not hash joins."""
        def _toks(items) -> list[str]:
            out: list[str] = []
            for s in items:
                out.extend(tokens_py(s))
            return list(dict.fromkeys(out))

        from .docmap import sorted_member

        m_toks, s_toks = _toks(must), _toks(should)
        n_toks = _toks(must_not)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if not m_toks and not s_toks and not extra_terms:
            return empty
        allowed: np.ndarray | None = None
        for tok in m_toks:
            ids = self._token_doc_set(tok, lang)
            allowed = ids if allowed is None else np.intersect1d(
                allowed, ids, assume_unique=True)
            if not len(allowed):
                return empty
        ban_parts = [self._token_doc_set(t, lang) for t in n_toks]
        if exclude_ids is not None and len(exclude_ids):
            ban_parts.append(np.sort(self.docs.ords_of_ids(
                np.asarray(exclude_ids, dtype=np.int64))))
        banned = (np.unique(np.concatenate(ban_parts))
                  if ban_parts else np.empty(0, dtype=np.int64))
        qterms: dict[str, int] = {}
        for tok in dict.fromkeys(m_toks + s_toks):
            # scoring qtf: the token's boost (query_string ^N), default 1 —
            # role duplicates share one entry, so the bool rule (dup across
            # roles stays qtf 1) is the boosts-absent special case
            qtf = int((boosts or {}).get(tok, 1))
            for v in self._variants(tok, lang):
                qterms[v] = qtf
        # raw INDEX terms (already analyzed/tagged — prefix expansions):
        # scoring-only at their given qtf, never presence filters
        for term, qtf in (extra_terms or {}).items():
            qterms.setdefault(term, int(qtf))
        ids, units = self._sparse_sums(qterms)
        if not len(ids):
            return empty
        if allowed is not None and len(ids):
            member, _ = sorted_member(allowed, ids)
            ids, units = ids[member], units[member]
        if min_should_match > 0 and len(ids):
            if len(s_toks) < min_should_match:
                return empty
            # distinct-should-token presence count per candidate doc: one
            # union of presence sets + unique-with-counts (sets are
            # per-token distinct, so multiplicity == distinct tokens)
            parts = [self._token_doc_set(t, lang) for t in s_toks]
            cat = np.concatenate([p for p in parts if len(p)]
                                 or [np.empty(0, dtype=np.int64)])
            uniq, cnt = np.unique(cat, return_counts=True)
            ok_docs = uniq[cnt >= min_should_match]
            member, _ = sorted_member(ok_docs, ids)
            ids, units = ids[member], units[member]
            if not len(ids):
                return empty
        if len(banned) and len(ids):
            dead, _ = sorted_member(banned, ids)
            ids, units = ids[~dead], units[~dead]
        return self._page(ids, units)

    def _sparse_sums(self, qterms: dict[str, int]) -> tuple[np.ndarray,
                                                            np.ndarray]:
        """COMPLETE tombstone-masked per-doc unit sums for a {term: qtf}
        bag — no dense pre-cut, no top-k.  Filtering query kinds (boolean
        must/must_not, doc-value range filters) need full sums before any
        cut, or a filtered-out doc could set the cut and evict a
        qualifying one."""
        all_ids, all_units = [], []
        for term, qtf in qterms.items():
            if not self._term_refs(term)[0]:
                continue
            t_ids, t_units = self._term_units(term, qtf)
            all_ids.append(t_ids)
            all_units.append(t_units)
        if not all_ids:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        cat = np.concatenate(all_ids)
        uniq, inv = np.unique(cat, return_inverse=True)
        scores = np.bincount(
            inv, weights=np.concatenate(all_units).astype(np.float64),
            minlength=len(uniq)).astype(np.int64)
        return self._mask_dead(uniq, scores)

    def _hits(self, query: str,
              lang: str | None) -> tuple[np.ndarray, np.ndarray]:
        """(ordinals, units) of the live docs matching ``query``: complete
        sums (_sparse_sums) cut to positive quantized scores — the
        presence rule every hit-set kind shares."""
        ords, units = self._sparse_sums(self._query_terms(query, lang))
        keep = units > 0
        return ords[keep], units[keep]

    # ------------------------------------------------------ filtered search --
    def search_filtered(self, query: str, dl_lo: int, dl_hi: int,
                        lang: str | None = None):
        """BM25 top-k restricted to docs whose token count is in
        [dl_lo, dl_hi) — the Elasticsearch bool-query-with-range-filter /
        Lucene numeric-docvalues-filter shape.  The filter reads the
        ordinal->doc_len forward array ALREADY resident for scoring
        (docmap.gather_lens), so it costs one vectorized compare — no
        postings, no staging fetch.  Sums are complete before the filter
        (sparse path, _sparse_sums), so ranking among qualifying docs is
        exactly the oracle's filter-then-rank semantics; scores are the
        UNFILTERED BM25 values (a filter never rescales — Lucene filter
        clauses score 0)."""
        qterms = self._query_terms(query, lang)
        ids, units = self._sparse_sums(qterms)
        if len(ids):
            dls = self.docs.gather_lens(ids)
            keep = (dls >= dl_lo) & (dls < dl_hi)
            ids, units = ids[keep], units[keep]
        return self._page(ids, units)

    # ------------------------------------------------- doc-values queries --
    def _lang_of_codes(self, codes: np.ndarray) -> list[str]:
        vocab = self.langs
        return [vocab[c] if c < len(vocab) else "" for c in codes]

    def search_collapse(self, query: str, lang: str | None = None):
        """Field-collapsed BM25 top-k (Elasticsearch ``collapse`` / Lucene
        grouping): rank ALL matching live docs, keep only the best-ranked
        doc per lang doc-value group, then cut top-k over the group
        representatives.  The group key comes from the ordinal->lang
        doc-values sidecar resident in the actor (docmap.gather_langcodes)
        — one fancy-index gather, no postings re-read, no staging fetch,
        O(|matching docs|) per query at any corpus size."""
        ords, units = self._hits(query, lang)
        if not len(ords):
            e = np.empty(0, dtype=np.int64)
            return e, e, []
        codes = self.docs.gather_langcodes(ords)
        # global rank order: units desc, doc_id asc (ordinal order IS
        # doc-id order — the docmap is sorted by id)
        order = np.lexsort((ords, -units))
        # first occurrence of each code in rank order == the group's best
        _, first = np.unique(codes[order], return_index=True)
        reps = order[np.sort(first)][: min(self.k, len(first))]
        return (self.docs.gather_ids(ords[reps]), units[reps],
                self._lang_of_codes(codes[reps]))

    def search_sort(self, query: str, lang: str | None = None,
                    ascending: bool = False):
        """Field sort (Elasticsearch ``sort: [{doc_len: desc}]`` / Lucene
        SortField): the query acts as a FILTER (any matching live doc) and
        the page orders by the doc_len doc-value — descending by default —
        with doc_id ascending tiebreak, cut to k.  One forward-array
        gather + one lexsort over the hit set; no relevance scoring."""
        ords, _ = self._hits(query, lang)
        e = np.empty(0, dtype=np.int64)
        if not len(ords):
            return e, e
        dls = self.docs.gather_lens(ords).astype(np.int64)
        key = dls if ascending else -dls
        order = np.lexsort((ords, key))[: self.k]
        return self.docs.gather_ids(ords[order]), dls[order]

    def search_top_hits(self, query: str, lang: str | None = None):
        """Per-bucket top hits (Elasticsearch ``terms`` agg with a
        ``top_hits`` sub-agg / Lucene grouping TopGroups): rank ALL
        matching live docs, keep the best ``group_n`` per lang doc-value
        bucket (every bucket returned — buckets are bounded by the lang
        vocabulary, not the corpus).  Same resident-sidecar economics as
        search_collapse: one gather, no postings re-read."""
        ords, units = self._hits(query, lang)
        e = np.empty(0, dtype=np.int64)
        if not len(ords):
            return e, e, [], e
        codes = self.docs.gather_langcodes(ords)
        order = np.lexsort((ords, -units))
        csorted = codes[order]
        sel, granks = [], []
        for c in np.unique(codes):
            rows = order[csorted == c][: self.group_n]
            sel.append(rows)
            granks.append(np.arange(1, len(rows) + 1, dtype=np.int64))
        sel = np.concatenate(sel)
        granks = np.concatenate(granks)
        return (self.docs.gather_ids(ords[sel]), units[sel],
                self._lang_of_codes(codes[sel]), granks)

    def search_lang_agg(self, query: str, lang: str | None = None):
        """Terms aggregation over the FULL hit set (Elasticsearch
        ``terms`` agg with a ``max`` sub-agg, not the result page): per
        lang doc-value bucket, the live matching-doc count and the best
        BM25 score.  Millions of hits never leave the actor — one
        bincount + per-bucket max over resident doc-values."""
        ords, units = self._hits(query, lang)
        if not len(ords):
            return [], np.empty(0, np.int64), np.empty(0, np.int64)
        codes = self.docs.gather_langcodes(ords)
        counts = np.bincount(codes, minlength=256)
        live = np.nonzero(counts)[0]
        best = [int(units[codes == c].max()) for c in live]
        return (self._lang_of_codes(live), counts[live].astype(np.int64),
                np.asarray(best, dtype=np.int64))

    def search_dl_hist(self, query: str, lang: str | None = None):
        """Histogram aggregation over the FULL hit set (Elasticsearch
        ``histogram`` agg on a numeric doc-value): bucket = (doc_len //
        hist_width) * hist_width, per-bucket live matching-doc count —
        served from the resident ordinal->doc_len forward array, one
        gather + one bincount, hits never leave the actor."""
        ords, _ = self._hits(query, lang)
        if not len(ords):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        buckets = (self.docs.gather_lens(ords).astype(np.int64)
                   // self.hist_width) * self.hist_width
        vals, counts = np.unique(buckets, return_counts=True)
        return vals.astype(np.int64), counts.astype(np.int64)

    def search_stats(self, query: str, lang: str | None = None):
        """Stats aggregation over the FULL hit set (Elasticsearch ``stats``
        agg on a numeric doc-value): (n_hits, min, max, sum) of doc_len
        across every live matching doc — one gather over the resident
        forward array, numpy reductions, hits never leave the actor (the
        search_ext_stats pass without its sum of squares).  Returns
        (0, 0, 0, 0) for a zero-hit query (the caller decides row
        emission); avg derives as sum/n at the output layer."""
        return self.search_ext_stats(query, lang)[:4]

    def search_range(self, query: str, lang: str | None = None):
        """Range aggregation over the FULL hit set (Elasticsearch ``range``
        agg on a numeric doc-value): per configured [lo, hi) doc_len
        bucket (``dl_ranges``), the live matching-doc count.  Served like
        search_dl_hist (one gather + vectorized compares); empty buckets
        are omitted, mirroring the GROUP BY oracle."""
        ords, _ = self._hits(query, lang)
        out_b, out_n = [], []
        if len(ords) and self.dl_ranges:
            dls = self.docs.gather_lens(ords).astype(np.int64)
            for i, (lo, hi) in enumerate(self.dl_ranges):
                m = dls >= lo if hi is None else (dls >= lo) & (dls < hi)
                n = int(m.sum())
                if n:
                    out_b.append(i)
                    out_n.append(n)
        return (np.asarray(out_b, dtype=np.int64),
                np.asarray(out_n, dtype=np.int64))

    def search_lang_stats(self, query: str, lang: str | None = None):
        """Terms aggregation with a stats sub-agg (Elasticsearch
        ``terms`` + ``stats``): per lang doc-value bucket over the FULL
        hit set, (n_hits, min, max, sum) of doc_len — two gathers over
        the resident forward arrays + per-bucket numpy reductions, hits
        never leave the actor.  Returns (langs, n, min, max, sum)."""
        ords, _ = self._hits(query, lang)
        if not len(ords):
            return ([], np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty(0, np.int64), np.empty(0, np.int64))
        codes = self.docs.gather_langcodes(ords)
        dls = self.docs.gather_lens(ords).astype(np.int64)
        n = np.bincount(codes, minlength=256)
        s = np.bincount(codes, weights=dls.astype(np.float64),
                        minlength=256).astype(np.int64)
        mn = np.full(256, np.iinfo(np.int64).max, dtype=np.int64)
        mx = np.full(256, np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(mn, codes, dls)
        np.maximum.at(mx, codes, dls)
        live = np.nonzero(n)[0]
        return (self._lang_of_codes(live), n[live].astype(np.int64),
                mn[live], mx[live], s[live])

    def search_cardinality(self, query: str, lang: str | None = None):
        """Cardinality aggregation (Elasticsearch ``cardinality`` agg on
        the lang doc-value): the DISTINCT lang values over every live
        matching doc — one gather + np.unique, exact (the doc-value
        domain is small; no HLL approximation needed).  Returns the
        distinct lang NAMES so the sharded partial can emit them (the
        union across ordinal ranges is the exact merge)."""
        ords, _ = self._hits(query, lang)
        if not len(ords):
            return []
        return self._lang_of_codes(
            np.unique(self.docs.gather_langcodes(ords)))

    def search_dl_value_counts(self, query: str, lang: str | None = None):
        """Exact doc_len value histogram over the FULL hit set — the
        percentiles partial: (sorted values, counts).  doc_len's domain
        is bounded, so the partial stays tiny regardless of hit count and
        a shard merge recomputes EXACT percentiles from summed
        histograms (disc_percentiles)."""
        ords, _ = self._hits(query, lang)
        if not len(ords):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        dls = self.docs.gather_lens(ords).astype(np.int64)
        vals, counts = np.unique(dls, return_counts=True)
        return vals.astype(np.int64), counts.astype(np.int64)

    def search_query_string(self, q: str, lang: str | None = None):
        """Elasticsearch ``query_string`` / Lucene classic parser
        (subset — see parse_query_string): presence semantics are exactly
        search_bool's (complete sums before any cut), scoring is the
        distinct-token BM25 bag weighted by the integer ^boosts, with
        prefix expansions contributing at qtf=1 (the uniform
        scoring-BooleanQuery rewrite shared with prefix/wildcard).  A
        ``lang:xx`` piece scopes the whole query.  Oracle:
        sql.bool_topk_sql(..., boosts=...) over the parsed structure."""
        spec = parse_query_string(q)
        lang = spec["lang"] or lang
        extra: dict[str, int] = {}
        for pre in spec["prefixes"]:
            for term in self.expand_prefix(pre, lang):
                extra.setdefault(term, 1)
        for tok, edits in spec["fuzzies"]:
            exp = (self.expand_fuzzy(tok, lang) if edits == 1
                   else self.expand_fuzzy_automaton(tok, lang, max_edits=2))
            for term in exp:
                extra.setdefault(term, 1)
        return self.search_bool(
            spec["must"], spec["should"], spec["must_not"], lang,
            boosts=spec["boosts"], extra_terms=extra)

    def search_ext_stats(self, query: str, lang: str | None = None):
        """Extended-stats aggregation over the FULL hit set (Elasticsearch
        ``extended_stats`` agg on a numeric doc-value): search_stats plus
        the exact integer sum of squares — the sufficient statistic for
        variance/std_dev, which derive at the output layer from the exact
        sums (so shard merges recompute them losslessly by adding
        n/sum/sum_sq and re-deriving).  Returns (n, min, max, sum, sum_sq);
        (0, 0, 0, 0, 0) for a zero-hit query."""
        ords, _ = self._hits(query, lang)
        if not len(ords):
            return 0, 0, 0, 0, 0
        dls = self.docs.gather_lens(ords).astype(np.int64)
        return (int(len(dls)), int(dls.min()), int(dls.max()),
                int(dls.sum()), int((dls * dls).sum()))

    @staticmethod
    def ext_stats_floats(n: int, s: int, ss: int) -> tuple[float, float,
                                                           float]:
        """(avg, variance, std_dev) from the exact integer sums — ONE
        float division per term, the identical IEEE ops the SQL oracle
        performs (ints < 2^53, so the DOUBLE casts are exact).  Variance
        is the ES population form sum_sq/n - avg^2, clamped at 0 (the
        constant-value case can round to -1 ulp on both sides; the clamp
        writes literal +0.0 so -0.0 can never leak into the value hash)."""
        avg = s / n
        var = ss / n - avg * avg
        if var <= 0.0:
            var = 0.0
        return avg, var, math.sqrt(var)

    def search_random_score(self, query: str, lang: str | None = None):
        """function_score random_score (Elasticsearch ``random_score``
        with an explicit seed + field: deterministic per (seed, doc)):
        hits rank by the sha256-derived 63-bit hash of "{seed}:{doc_id}"
        DESC (ties doc_id ASC), cut to k — reproducible shuffling of the
        hit set, the deterministic-sampling serving shape.  Returns
        (doc_ids, hashes).  Per-shard top-k merges exactly (selection by a
        per-doc key).  The per-hit sha here is the oracle-twin path; a
        production pool would swap the vectorized mixer hash exactly like
        ops/dedup's hash_mode."""
        ords, _ = self._hits(query, lang)
        if not len(ords):
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        ids = self.docs.gather_ids(ords)
        seed = self.random_seed
        h = np.fromiter((h63(f"{seed}:{i}") for i in ids),
                        dtype=np.int64, count=len(ids))
        order = np.lexsort((ids, -h))[: self.k]
        return ids[order], h[order]

    def search_distance_feature(self, query: str,
                                lang: str | None = None):
        """Distance-feature query (Elasticsearch ``distance_feature`` on
        a numeric field / Lucene LongField.newDistanceFeatureQuery):
        hits rank by CLOSENESS of the doc_len doc-value to the
        configured origin — the integer distance |doc_len - df_origin|
        ASC, ties doc_id ASC, cut to k.  All-integer ranking (ES's
        boost/(boost + dist/pivot) is monotone in dist, so the rank
        order is identical and no float crosses the oracle boundary).
        Selection by a per-doc key — per-shard pages re-cut exactly
        (the random_score merge rule).  Returns (doc_ids, dists)."""
        ords, _ = self._hits(query, lang)
        if not len(ords):
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        dls = self.docs.gather_lens(ords).astype(np.int64)
        dist = np.abs(dls - self.df_origin)
        ids = self.docs.gather_ids(ords)
        order = np.lexsort((ids, dist))[: self.k]
        return ids[order], dist[order]

    def search_adjacency(self, pair: str, lang: str | None = None):
        """One adjacency-matrix cell (Elasticsearch ``adjacency_matrix``
        agg): the query column carries two filter queries joined by
        '|||'; the cell value is the count of live docs matching BOTH
        (presence = positive quantized BM25 sum, the shared hit rule).
        Both presence sets are complete per ordinal range, and every doc
        lives in exactly one range — so per-shard cells ADD, making this
        an exactly distributed set-intersection size."""
        qa, _, qb = pair.partition("|||")
        oa, _ = self._hits(qa, lang)
        if not len(oa):
            return 0
        ob, _ = self._hits(qb, lang)
        if not len(ob):
            return 0
        return int(len(np.intersect1d(oa, ob, assume_unique=True)))

    def search_pinned(self, query: str, lang: str | None = None):
        """Pinned query (Elasticsearch ``pinned`` query / Lucene-solr QEC
        elevation): the configured ``pinned_ids`` that resolve to LIVE
        docs rank first (doc_id ASC — the deterministic promotion order),
        then the organic BM25 ranking with pinned docs excluded; cut to k
        overall.  Pinned docs report their complete BM25 unit sum (0 when
        they don't match the query at all — they are still returned, the
        ES pinned contract).  Returns (doc_ids, units, pinned_flags)."""
        from .docmap import sorted_member

        qterms = self._query_terms(query, lang)
        ords, units = self._sparse_sums(qterms)
        # live, in-range pinned ordinals (absent ids drop, mget semantics)
        pords = self.docs.ords_of_ids(
            np.asarray(self.pinned_ids, dtype=np.int64))
        if self.ord_range is not None:
            lo, hi = self.ord_range
            pords = pords[(pords >= lo) & (pords < hi)]
        if len(self.tomb) and len(pords):
            dead, _ = sorted_member(self.tomb, pords)
            pords = pords[~dead]
        # complete unit sums for the pinned docs (0 if no term overlap)
        p_units = np.zeros(len(pords), dtype=np.int64)
        if len(ords) and len(pords):
            pos = np.searchsorted(ords, pords)
            pos_ok = (pos < len(ords)) & (ords[np.minimum(
                pos, len(ords) - 1)] == pords)
            p_units[pos_ok] = units[pos[pos_ok]]
        p_ids = (self.docs.gather_ids(pords) if len(pords)
                 else np.empty(0, dtype=np.int64))
        p_order = np.argsort(p_ids)  # promotion order: doc_id ASC
        p_ids, p_units = p_ids[p_order], p_units[p_order]
        # organic ranking excludes the pinned ordinals
        keep = units > 0
        if len(pords):
            member, _ = sorted_member(np.sort(pords), ords)
            keep &= ~member
        o_ords, o_units = ords[keep], units[keep]
        o_ords, o_units = self._topk(o_ords, o_units)
        o_ids = (self.docs.gather_ids(o_ords) if len(o_ords)
                 else np.empty(0, dtype=np.int64))
        ids = np.concatenate([p_ids, o_ids])[: self.k]
        u = np.concatenate([p_units, o_units])[: self.k]
        flags = np.zeros(len(ids), dtype=np.int64)
        flags[: min(len(p_ids), len(ids))] = 1
        return ids, u, flags

    def _bare_candidates(self, tok: str, lang: str | None,
                         min_dist: int) -> list[tuple[str, int, int]]:
        """Dictionary terms within [min_dist, suggest_max_edits] edits of
        the analyzed token — candidates from the same automaton-dictionary
        intersect FuzzyQuery uses (expand_fuzzy_automaton) — as (term,
        dist, df) ranked (distance ASC, df DESC, term ASC).  df is the
        frozen build-time document frequency summed across segments/salts
        (_term_refs), postings never decoded; lang-tagged dictionaries
        carry one variant per language, and a candidate is the BARE term,
        its df summed across variants."""
        by_bare: dict[str, list[int]] = {}
        for term in self.expand_fuzzy_automaton(tok, lang,
                                                self.suggest_max_edits):
            bare = term.rpartition(LANG_SEP)[2] if (
                self.lang_tagged and LANG_SEP in term) else term
            d = lev_dist(bare, tok, cap=self.suggest_max_edits + 1)
            if not (min_dist <= d <= self.suggest_max_edits):
                continue
            by_bare.setdefault(bare, [d, 0])[1] += self._term_refs(term)[1]
        return sorted(((bare, d, df) for bare, (d, df) in by_bare.items()),
                      key=lambda x: (x[1], -x[2], x[0]))

    def suggest_terms(self, token: str, lang: str | None = None):
        """Term suggester (Elasticsearch ``term`` suggester / Lucene
        DirectSpellChecker): dictionary terms within Levenshtein distance
        [1, suggest_max_edits] of the analyzed token (the token itself,
        d=0, is not a correction), cut to suggest_n (_bare_candidates).
        Returns [(term, dist, df)]."""
        toks = tokens_py(token)
        if not toks:
            return []
        return self._bare_candidates(toks[0], lang, 1)[: self.suggest_n]

    def _phrase_candidates(self, tok: str,
                           lang: str | None) -> list[str]:
        """Per-position candidate terms for suggest_phrase: dictionary
        terms within Levenshtein distance [0, suggest_max_edits] of the
        token — d=0 INCLUDED (the ES DirectCandidateGenerator keeps the
        original term), cut to phrase_cand_n (_bare_candidates)."""
        return [bare for bare, _, _ in
                self._bare_candidates(tok, lang, 0)[: self.phrase_cand_n]]

    def suggest_phrase(self, text: str, lang: str | None = None,
                       cut: bool = True):
        """Phrase suggester (Elasticsearch ``phrase`` suggester with
        ``collate`` pruning made exact): every analyzed token generates
        dictionary candidates within suggest_max_edits (d=0 kept — the
        generator includes the original), capped per position by
        _phrase_candidates; candidate phrases are the cross product,
        scored by their document CO-OCCURRENCE count (the size of the
        intersection of the candidates' live doc sets — a suggestion
        survives only if some document contains every corrected token,
        the collate query made a first-class score).  Ranked
        (n_docs DESC, phrase ASC), cut to suggest_n.

        Sharding: candidate generation scans the GLOBAL dictionary
        identically in every shard, presence sets are complete per
        ordinal range, and every doc lives in exactly one range — so
        per-shard co-occurrence counts ADD and the merge re-ranks
        summed counts (phrase_suggest_partial).  Returns
        [(phrase, n_docs)]."""
        toks = tokens_py(text)
        if not toks:
            return []
        cands = [self._phrase_candidates(t, lang) for t in toks]
        if any(not c for c in cands):
            return []
        n_combos = 1
        for c in cands:
            n_combos *= len(c)
        if n_combos > 4096:
            # Lucene BooleanQuery.TooManyClauses analogue: a suggestion
            # request whose candidate cross product explodes (many
            # tokens x phrase_cand_n each) is a config error — refuse
            # loudly instead of grinding through millions of intersects
            raise ValueError(
                f"phrase suggestion over {len(toks)} tokens expands to "
                f"{n_combos} candidate phrases (> 4096); shorten the "
                f"input or lower phrase_cand_n")
        sets = {}
        for c in set(t for cs in cands for t in cs):
            ds = self._token_doc_set(c, lang)
            ds, _ = self._mask_dead(ds, np.ones(len(ds), dtype=np.int64))
            sets[c] = ds
        out: list[tuple[str, int]] = []
        import itertools

        for combo in itertools.product(*cands):
            inter = sets[combo[0]]
            for c in combo[1:]:
                if not len(inter):
                    break
                inter = np.intersect1d(inter, sets[c],
                                       assume_unique=True)
            if len(inter):
                out.append((" ".join(combo), int(len(inter))))
        out.sort(key=lambda x: (-x[1], x[0]))
        # cut=False: the sharded pool's partial — every surviving phrase
        # flows to the merge, which re-ranks the SUMMED counts
        return out[: self.suggest_n] if cut else out

    def search_multi_match(self, query: str, lang: str | None = None):
        """Multi-field query (Elasticsearch ``multi_match`` with
        ``type: best_fields``, ``tie_breaker: 0`` — Lucene
        DisjunctionMaxQuery over per-field subqueries): the same analyzed
        query scores independently against THIS index (field 1) and the
        aux field index (field 2), each with its OWN df / avgdl corpus
        statistics (Lucene per-field semantics — a multi-field mapping IS
        several inverted indexes); a doc's score is the MAX of its
        per-field complete BM25 sums, cut to top-k under (units DESC,
        doc_id ASC).  Ordinal spaces differ between field indexes (each
        sorts its own live doc set), so the join is by REAL doc_id —
        both indexes were built over the same identity columns.
        Reference analogue: splade's Milvus collection holds one sparse
        field; Lucene/ES field mappings are the class this completes."""
        sides = []
        for eng in (self, self.aux):
            ords, units = eng._hits(query, lang)
            ids = (eng.docs.gather_ids(ords) if len(ords)
                   else np.empty(0, dtype=np.int64))
            sides.append((ids, units))
        ids = np.concatenate([s[0] for s in sides])
        units = np.concatenate([s[1] for s in sides])
        if not len(ids):
            return ids.astype(np.int64), units.astype(np.int64)
        uniq, inv = np.unique(ids, return_inverse=True)
        best = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(best, inv, units)
        order = np.lexsort((uniq, -best))[: self.k]
        return uniq[order], best[order]

    def search_constant_score(self, query: str, lang: str | None = None):
        """Constant-score query (Elasticsearch ``constant_score`` / Lucene
        ConstantScoreQuery): the text query acts purely as a FILTER —
        every live matching doc scores the configured boost, so the page
        is the first k hits in doc_id order (ordinal order IS doc-id
        order).  No idf/tf math survives; the scorer's only job is the
        presence set."""
        ords, _ = self._hits(query, lang)
        return self.docs.gather_ids(ords[: self.k]) if len(ords) else \
            np.empty(0, dtype=np.int64)

    def search_rank_feature(self, query: str, lang: str | None = None):
        """Rank-feature query (Elasticsearch ``rank_feature`` with the
        ``saturation`` function on a numeric doc-value): hits rank by the
        INTEGER-quantized saturation key (doc_len * SCALE) // (doc_len +
        pivot) DESC, ties doc_id ASC, cut to k — floor division on both
        engine and oracle sides, so the quantization is bit-exact.
        Returns (doc_ids, keys)."""
        ords, _ = self._hits(query, lang)
        e = np.empty(0, dtype=np.int64)
        if not len(ords):
            return e, e
        dls = self.docs.gather_lens(ords).astype(np.int64)
        key = (dls * SCORE_SCALE) // (dls + self.rf_pivot)
        order = np.lexsort((ords, -key))[: self.k]
        return self.docs.gather_ids(ords[order]), key[order]

    def search_mad(self, query: str, lang: str | None = None):
        """Median-absolute-deviation aggregation over the FULL hit set
        (Elasticsearch ``median_absolute_deviation`` agg — but EXACT, not
        t-digest): both medians are discrete quantiles (DuckDB
        quantile_disc semantics via disc_percentiles) over the bounded
        doc_len value histogram, so shard merges that sum histograms
        recompute identical values.  Returns (n_hits, median, mad);
        (0, 0, 0) for a zero-hit query."""
        vals, counts = self.search_dl_value_counts(query, lang)
        if not len(vals):
            return 0, 0, 0
        return mad_from_hist(vals, counts)

    def search_boxplot(self, query: str, lang: str | None = None):
        """Boxplot aggregation over the FULL hit set (Elasticsearch
        ``boxplot`` agg on a numeric doc-value — EXACT here, not TDigest:
        the quartiles are discrete quantiles, DuckDB quantile_disc
        semantics, over the bounded doc_len value histogram, so shard
        merges that sum histograms recompute identical values).  Returns
        (n_hits, min, q1, median, q3, max); zeros for a zero-hit query
        (the caller skips row emission)."""
        vals, counts = self.search_dl_value_counts(query, lang)
        if not len(vals):
            return 0, 0, 0, 0, 0, 0
        return boxplot_from_hist(vals, counts)

    def search_filters(self, query: str, lang: str | None = None):
        """Filters aggregation (Elasticsearch ``filters`` agg): per named
        (bucket, filter-query) spec in ``filter_buckets``, the count of
        live main-query hits whose doc ALSO matches the bucket filter
        (presence = positive quantized BM25 sum — the hit rule shared
        with search_adjacency).  Both presence sets are complete per
        ordinal range and every doc lives in exactly one range, so
        per-shard counts ADD.  Returns (names, counts); zero-count
        buckets are omitted (the GROUP-BY oracle shape)."""
        ords, _ = self._hits(query, lang)
        names: list[str] = []
        counts: list[int] = []
        if len(ords):
            for nm, fq in self.filter_buckets:
                # bucket presence depends only on (filter query, lang) —
                # memoize per actor so a Q-query batch does B scoring
                # passes for the buckets, not Q*B
                key = (fq, lang)
                ob = self._fbucket_memo.get(key)
                if ob is None:
                    ob, _ = self._hits(fq, lang)
                    self._fbucket_memo[key] = ob
                n = (int(len(np.intersect1d(ords, ob, assume_unique=True)))
                     if len(ob) else 0)
                if n:
                    names.append(nm)
                    counts.append(n)
        return names, counts

    def search_weighted_avg(self, query: str, lang: str | None = None):
        """Weighted-average aggregation (Elasticsearch ``weighted_avg``:
        value = doc_len, weight = the doc's tf of the query's FIRST
        analyzed token): over the full hit set, den = Σ tf and
        num = Σ doc_len·tf — exact integers, so per-shard partials ADD
        and the single float division re-derives bit-identically at any
        shard count.  Hits lacking the weight term contribute 0 to both
        sums (ES skips docs whose weight field is missing).  On a
        lang-tagged index a hit's weight is the tf of the first token's
        variant in the hit's OWN language: every variant's postings are
        gathered and merged (a doc has one language, so they are
        disjoint).  Returns (n_hits, sum_w, sum_wv); the caller derives
        the average and drops den == 0 rows (the SQL HAVING twin)."""
        qterms = self._query_terms(query, lang)
        if not qterms:
            return 0, 0, 0
        ords, units = self._sparse_sums(qterms)
        ords = ords[units > 0]
        if not len(ords):
            return 0, 0, 0
        def token(term):
            return term.partition(LANG_SEP)[2] if self.lang_tagged else term

        tok = token(next(iter(qterms)))
        parts = [self._gather(t)[:2] for t in qterms
                 if token(t) == tok and self._term_refs(t)[0]]
        if not parts:
            return int(len(ords)), 0, 0
        wi = np.concatenate([p[0] for p in parts])
        order = np.argsort(wi, kind="stable")
        wi, wt = wi[order], np.concatenate([p[1] for p in parts])[order]
        # align the weight postings with the hit set — both are
        # doc-ordinal-sorted, one searchsorted pass
        pos = np.searchsorted(wi, ords)
        pos_ok = pos < len(wi)
        hit = np.zeros(len(ords), dtype=bool)
        hit[pos_ok] = wi[pos[pos_ok]] == ords[pos_ok]
        tfs = wt[pos[hit]].astype(np.int64)
        dls = self.docs.gather_lens(ords[hit]).astype(np.int64)
        return int(len(ords)), int(tfs.sum()), int((dls * tfs).sum())

    def search_t_test(self, pair: str, lang: str | None = None):
        """Welch's t-test aggregation (Elasticsearch ``t_test`` agg,
        ``"type": "heteroscedastic"``, two term-filter populations over
        the doc_len metric): the query column carries the two filter
        queries joined by '|||' (the adjacency-cell convention); each
        side contributes the EXACT integer sufficient statistics
        (n, Σdl, Σdl²) of its live hit set.  Per-shard tuples ADD (every
        doc lives in exactly one ordinal range), and welch_t_floats
        derives the float statistic identically on every path.  Returns
        (n1, s1, ss1, n2, s2, ss2)."""
        qa, _, qb = pair.partition("|||")
        out: list[int] = []
        for q in (qa, qb):
            ords, _ = self._hits(q, lang)
            if len(ords):
                dls = self.docs.gather_lens(ords).astype(np.int64)
                out.extend((int(len(dls)), int(dls.sum()),
                            int((dls * dls).sum())))
            else:
                out.extend((0, 0, 0))
        return tuple(out)

    def search_scroll(self, query: str, lang: str | None = None):
        """Deep pagination (Elasticsearch ``scroll`` / point-in-time
        iteration): ONE complete-sums scoring pass cuts the hit set to
        scroll_pages·k under the global (units DESC, doc_id ASC) order,
        then the caller slices fixed-k pages — the snapshot batch-export
        serving shape (per-request stateless cursors live in
        search_after; scroll amortizes the posting traversal across all
        pages instead of re-scoring per page).  Complete sums
        (_sparse_sums), NOT the top-k-pruned _score: the page window
        exceeds k, the rescore-window rule.  Returns (doc_ids, units) in
        global rank order, length ≤ scroll_pages·k."""
        ids, units = self._hits(query, lang)
        if not len(ids):
            return ids, units
        n = self.scroll_pages * self.k
        if len(ids) > n * 4:
            cut = np.partition(units, len(units) - n)[len(units) - n]
            keep = units >= cut
            ids, units = ids[keep], units[keep]
        order = np.lexsort((ids, -units))[:n]
        ids, units = ids[order], units[order]
        return self.docs.gather_ids(ids), units

    def search_composite(self, query: str, lang: str | None = None):
        """Composite aggregation (Elasticsearch ``composite`` agg over two
        sources: lang terms ASC, doc_len histogram ASC) with after-key
        pagination: buckets strictly AFTER ``comp_after`` in (lang,
        bucket) tuple order, cut to ``comp_size``.  The bucket list is
        bounded by the doc-value domains (not the hit count), so pages
        merge exactly across shards by summing per-bucket counts before
        the after-filter + cut.  Returns (langs, buckets, counts)."""
        ords, _ = self._hits(query, lang)
        e = np.empty(0, dtype=np.int64)
        if not len(ords):
            return [], e, e
        codes = self.docs.gather_langcodes(ords)
        dls = self.docs.gather_lens(ords).astype(np.int64)
        buckets = (dls // self.comp_width) * self.comp_width
        pair = codes.astype(np.int64) * (1 << 32) + buckets
        upair, counts = np.unique(pair, return_counts=True)
        ulangs = self._lang_of_codes((upair >> 32).astype(codes.dtype))
        ubuckets = upair & 0xFFFFFFFF
        rows = sorted(
            zip(ulangs, (int(b) for b in ubuckets),
                (int(c) for c in counts)))
        if self.comp_after is not None:
            al, ab = self.comp_after
            rows = [r for r in rows if (r[0], r[1]) > (al, ab)]
        rows = rows[: self.comp_size]
        return ([r[0] for r in rows],
                np.array([r[1] for r in rows], dtype=np.int64),
                np.array([r[2] for r in rows], dtype=np.int64))

    def search_rank_eval(self, query: str, lang: str | None = None):
        """Ranking-quality evaluation (Elasticsearch ``_rank_eval`` API):
        judges the BM25 top-k page against a deterministic relevance rule
        — a doc is relevant iff it matches EVERY distinct query term (the
        conjunctive bool presence rule, SQL HAVING-count twin).  Returns
        the INTEGER sufficient statistics (n_rel, rel_in_topk,
        first_rel_rank) — precision@k = rel_in_topk/k and reciprocal rank
        = 1/first_rel_rank derive exactly at the consumer, so no float
        ever crosses the oracle boundary; first_rel_rank is 0 when no
        relevant doc is in the page.  None for a zero-token query (no
        judgment to make)."""
        qterms = self._query_terms(query, lang)
        if not qterms:
            return None
        ords, units = self._sparse_sums(qterms)
        keep = units > 0
        page_ords, _ = self._topk(ords[keep], units[keep])
        rel = None
        for t in qterms:
            o, u = self._sparse_sums({t: 1})
            o = o[u > 0]
            rel = o if rel is None else np.intersect1d(rel, o,
                                                       assume_unique=True)
            if not len(rel):
                break
        n_rel = int(len(rel))
        if not n_rel or not len(page_ords):
            return n_rel, 0, 0
        hit = np.isin(page_ords, rel, assume_unique=True)
        in_page = int(hit.sum())
        first = int(np.flatnonzero(hit)[0]) + 1 if in_page else 0
        return n_rel, in_page, first

    def mget(self, ids):
        """Forward-index multi-get (Elasticsearch mget / ids query; Milvus
        Collection.get, reference retrievers.py's pk metadata fetch):
        resolve explicit doc ids to their doc-values — (doc_id, doc_len,
        lang) for LIVE present ids, doc_id ascending.  One searchsorted
        over the memmapped docmap + two gathers, no posting access; absent
        ids and tombstoned docs drop silently (the ES mget found:false
        shape).  A range-restricted engine returns only its ordinal
        range's docs, so the sharded fan-out merges by plain union."""
        from .docmap import sorted_member

        ords = self.docs.ords_of_ids(np.asarray(list(ids), dtype=np.int64))
        if self.ord_range is not None:
            lo, hi = self.ord_range
            ords = ords[(ords >= lo) & (ords < hi)]
        if len(self.tomb):
            dead, _ = sorted_member(self.tomb, ords)
            ords = ords[~dead]
        if not len(ords):
            return (np.empty(0, np.int64), np.empty(0, np.int64), [])
        ids_out = self.docs.gather_ids(ords)
        lens = self.docs.gather_lens(ords).astype(np.int64)
        return ids_out, lens, self._lang_of_codes(
            self.docs.gather_langcodes(ords))

    def count_hits(self, query: str, lang: str | None = None) -> int:
        """Total live matching docs (ES ``track_total_hits``): the size of
        the tombstone-masked union of the query terms' posting lists with a
        positive quantized score."""
        return len(self._hits(query, lang)[0])

    # --------------------------------------------------- search-after page --
    def search_after(self, query: str, cursor_units: int, cursor_doc: int,
                     lang: str | None = None):
        """Deep pagination (Elasticsearch ``search_after``): the next top-k
        page strictly after the (score, doc_id) cursor in the global
        (units DESC, doc_id ASC) order.  The doc-id tiebreak runs in
        ORDINAL space — ordinals are ranks in the sorted id space, so
        ``id > cursor_doc`` is one searchsorted against the docmap
        (ord_upper_bound) and no id gather happens before the cut.  Unlike
        from+size paging, cost never grows with page depth: one full-sums
        pass + one top-k, page 1 or page 10^6."""
        ords, units = self._hits(query, lang)
        if len(ords):
            ub = self.docs.ord_upper_bound(int(cursor_doc))
            after = (units < cursor_units) | (
                (units == cursor_units) & (ords >= ub))
            ords, units = ords[after], units[after]
        return self._page(ords, units)

    # ---------------------------------------------------------- explain --
    def explain(self, query: str, doc_id: int, lang: str | None = None):
        """Score breakdown for one (query, doc) pair (Lucene/ES
        ``explain`` API): per matched query term, (term, qtf, df, tf,
        quantized units) — the exact integers the scorer summed.  Terms in
        sorted order; absent terms and terms missing from the doc are
        omitted (they contribute no units)."""
        qterms = self._query_terms(query, lang)
        ord_arr = self.docs.ords_of_ids(np.asarray([doc_id], dtype=np.int64))
        if not len(ord_arr):
            return []
        o = ord_arr[0]
        rows = []
        for term in sorted(qterms):
            qtf = qterms[term]
            refs, df = self._term_refs(term)
            if not refs:
                continue
            ids, tfs, dls = self._gather(term)
            # salted lists concatenate per-salt runs — not globally sorted,
            # so membership is one vectorized compare, not a searchsorted
            hit = np.nonzero(ids == o)[0]
            if not len(hit):
                continue
            i = hit[0]
            w = idf(self.n_docs, df)
            u = self._contrib_units(qtf, w, tfs[i:i + 1], dls[i:i + 1])[0]
            rows.append((term, int(qtf), int(df), int(tfs[i]), int(u)))
        return rows

    # ------------------------------------------------------- synonym query --
    def search_synonym(self, query: str, lang: str | None = None):
        """Query-time synonym expansion (ES ``synonym_graph`` token filter
        at search time): each analyzed query token expands to its synonym
        group (self included); a token appearing via several expansions
        accumulates qtf.  The expanded bag scores as plain BM25 — Lucene's
        SynonymQuery-as-BooleanQuery rewrite with per-term blended df.

        Lang-tagged indexes: _query_terms returns ``lg:tok`` keys, so the
        synonym map (plain tokens, the ES synonym-file shape) is consulted
        on the bare token and each expansion is re-tagged with the same
        language — per-language variants score with their own df."""
        qterms = self._query_terms(query, lang)
        exp: dict[str, int] = {}
        for t, qtf in qterms.items():
            if self.lang_tagged and LANG_SEP in t:
                lg, _, tok = t.partition(LANG_SEP)
                variants = [f"{lg}{LANG_SEP}{v}"
                            for v in self.synonyms.get(tok, (tok,))]
            else:
                variants = self.synonyms.get(t, (t,))
            for v in variants:
                exp[v] = exp.get(v, 0) + qtf
        ids, units = self._score(exp)
        return self._page(ids, units)

    # ------------------------------------------------------------- rescore --
    def search_rescore(self, query: str, lang: str | None = None):
        """Two-phase ranking (Elasticsearch ``rescore`` window / Lucene
        QueryRescorer): phase 1 takes the BM25 top-``rescore_window`` docs;
        phase 2 re-scores ONLY those with the IDF-coordination score
        (round(qtf·idf·SCALE) per matched term — tf/length-independent) and
        re-ranks by combined units (bm25 + coord, ES's default sum), doc_id
        tiebreak, cut to k.  The expensive scorer touches window docs, not
        the corpus — the standard serving shape for costly second-phase
        models (cross-encoders, proximity boosts)."""
        ords, units, coord = self._rescore_window_units(query, lang)
        if not len(ords):
            e = np.empty(0, dtype=np.int64)
            return e, e
        comb = units + coord
        order = np.lexsort((ords, -comb))[: self.k]
        return self.docs.gather_ids(ords[order]), comb[order]

    def _rescore_window_units(self, query: str, lang: str | None):
        """Phase-1 window + phase-2 coordination units, before the final
        combine: (window ORDINALS, bm25 units, coord units).

        COMPLETE sums for phase 1 (the same rule search_bool /
        search_filtered / search_after follow): the configured scorer
        (_score_taat dense path, _score_bmw) prunes candidates to top-k,
        which would silently truncate the window to ~k docs whenever
        rescore_window > k — docs bm25-ranked k+1..window would never be
        rescored, diverging from the rescore_topk_sql oracle.

        Under ord_range the per-range window is complete for its docs, so
        per-shard windows cover the global window — the sharded fan-out's
        merge re-cuts the union (run_queries_sharded kind "rescore")."""
        qterms = self._query_terms(query, lang)
        ords, units = self._sparse_sums(qterms)
        # phase-1 cut at the window (same ties-by-ordinal rule as _topk)
        w = self.rescore_window
        if len(ords) > w:
            order = np.lexsort((ords, -units))[:w]
            ords, units = ords[order], units[order]
        if not len(ords):
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        from .docmap import sorted_member

        coord = np.zeros(len(ords), dtype=np.int64)
        for term, qtf in qterms.items():
            refs, df = self._term_refs(term)
            if not refs:
                continue
            cu = int(round(qtf * idf(self.n_docs, df) * SCORE_SCALE))
            # exact-term presence set (qterms are already analyzed/tagged
            # — no _variants re-expansion); salted lists concatenate
            # per-salt runs, so sort before the membership searchsorted
            t_ids = self._gather(term)[0]
            if len(t_ids):
                present, _ = sorted_member(np.sort(t_ids), ords)
                coord[present] += cu
        return ords, units, coord

    # ------------------------------------------------------------- dis_max --
    def search_dis_max(self, clauses: "list[str]", lang: str | None = None):
        """Disjunction-max scoring (Lucene DisjunctionMaxQuery / ES
        ``dis_max``): each clause string scores as its own BM25 bag
        (COMPLETE sums — per-doc maxima need every clause's full score);
        per doc, combined = best clause + tie_breaker x (sum of the other
        clauses).  tie_breaker is the exact rational ``dismax_tie``
        evaluated in integer units with floor division, so ranks are
        bit-identical to sql.dis_max_topk_sql."""
        per = []
        for c in clauses:
            o, u = self._hits(c, lang)
            if len(o):
                per.append((o, u))
        if not per:
            e = np.empty(0, dtype=np.int64)
            return e, e
        cat_o = np.concatenate([o for o, _ in per])
        cat_u = np.concatenate([u for _, u in per])
        uniq, inv = np.unique(cat_o, return_inverse=True)
        total = np.bincount(inv, weights=cat_u.astype(np.float64),
                            minlength=len(uniq)).astype(np.int64)
        best = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(best, inv, cat_u)
        tn, td = self.dismax_tie
        comb = best + (tn * (total - best)) // td
        return self._page(uniq, comb)

    # ------------------------------------------------------------ boosting --
    def search_boosting(self, positive: str, negative: str,
                        lang: str | None = None):
        """Boosting query (Lucene BoostingQuery / ES ``boosting``): docs
        matching the positive bag rank by BM25, but any doc ALSO matching
        the negative bag is demoted — units x negative_boost (an exact
        rational, floor division) — never excluded.  Rank-identical to
        sql.boosting_topk_sql."""
        from .docmap import sorted_member

        pos_o, pos_u = self._hits(positive, lang)
        if not len(pos_o):
            e = np.empty(0, dtype=np.int64)
            return e, e
        neg_set, _ = self._hits(negative, lang)
        units = pos_u.copy()
        if len(neg_set):
            demote, _ = sorted_member(np.sort(neg_set), pos_o)
            bn, bd = self.negative_boost
            units[demote] = (bn * units[demote]) // bd
        return self._page(pos_o, units)

    # ------------------------------------------------------ function_score --
    def search_function_score(self, query: str, lang: str | None = None):
        """Function-score query (Elasticsearch ``function_score`` with a
        ``field_value_factor`` on the doc_len doc-value, factor 1,
        modifier none, boost_mode multiply / Lucene FunctionScoreQuery
        over a LongValuesSource): final units = BM25 units x doc_len —
        all integer arithmetic, so rank- and score-identical to
        sql.function_score_topk_sql.  Sums are complete (_sparse_sums)
        BEFORE the multiply so the cut sees final scores; the factor is
        one resident forward-array gather (docmap.gather_lens), no
        postings re-read."""
        ords, units = self._hits(query, lang)
        if len(ords):
            units = units * self.docs.gather_lens(ords).astype(np.int64)
        return self._page(ords, units)

    # -------------------------------------------------------------- regexp --
    _REGEXP_ALLOWED = r"[a-z0-9\*\+\?\.\[\]\(\)\|\-\^]+"

    def expand_regexp(self, pattern: str, lang: str | None = None,
                      max_expansion: int = 1024) -> list[str]:
        """Distinct index terms fully matching an anchored regular
        expression (Lucene RegexpQuery's dictionary rewrite).  The literal
        prefix before the first metacharacter bounds the scan to one
        contiguous dictionary run per segment (prefix_rows); the run is
        filtered with one vectorized RE2-style kernel
        (pyarrow.compute.match_substring_regex over the sliced term
        column, pattern anchored ^...$).  The pattern subset is restricted
        to what Python re and DuckDB/RE2 interpret identically
        ([a-z0-9*+?.[]()|-^]); a pattern with no literal prefix degrades
        to a full-dictionary scan per segment — Lucene's cost, same
        documented remedy (add literal characters)."""
        pat = pattern.strip().lower()
        if not pat:
            raise ValueError("empty regexp pattern")
        if not re.fullmatch(self._REGEXP_ALLOWED, pat):
            raise ValueError(
                f"regexp pattern {pattern!r} outside the supported subset "
                f"{self._REGEXP_ALLOWED}")
        re.compile(pat)  # reject malformed patterns loudly, driver-side
        meta = min((pat.index(c) for c in "*+?.[]()|^" if c in pat),
                   default=len(pat))
        lit = pat[:meta]
        if meta < len(pat) and pat[meta] in "*?":
            # a quantifier makes the PRECEDING char optional — it is not
            # part of the mandatory prefix ("merge?" must scan the "merg"
            # run or the term "merg" is silently dropped)
            lit = lit[:-1]
        # a TOP-LEVEL alternation anywhere ("ab|cd", "ab?|cd") means the
        # right alternative shares no prefix with the left — full scan
        depth = 0
        in_class = False
        for ch in pat:
            if in_class:
                in_class = ch != "]"
            elif ch == "[":
                in_class = True
            elif ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "|" and depth == 0:
                lit = ""
                break
        anchored = f"^(?:{pat})$"
        if self.lang_tagged:
            langs = [lang] if lang else self.langs
            runs = [(f"{lg}{LANG_SEP}{lit}",
                     f"^{re.escape(lg + LANG_SEP)}(?:{pat})$")
                    for lg in langs]
        else:
            runs = [(lit, anchored)]
        terms: set[str] = set()
        for key_pre, key_re in runs:
            for seg in self.segments:
                rows = seg.prefix_rows(key_pre)
                if rows.stop <= rows.start:
                    continue
                sl = seg._terms.slice(rows.start, rows.stop - rows.start)
                terms.update(
                    sl.filter(pc.match_substring_regex(sl, key_re))
                    .to_pylist())
                if len(terms) > max_expansion:
                    raise ValueError(
                        f"regexp {pattern!r} expands to more than "
                        f"{max_expansion} terms; add literal characters")
        return sorted(terms)

    def search_regexp(self, pattern: str, lang: str | None = None,
                      max_expansion: int = 1024):
        """BM25 top-k for a regexp pattern: every matching dictionary term
        scores with qtf=1 (the uniform scoring-BooleanQuery rewrite shared
        with prefix/wildcard/fuzzy) — the semantics sql.regexp_topk_sql
        replays with regexp_full_match."""
        if not pattern.strip():
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return self._bag_page(self.expand_regexp(pattern, lang,
                                                 max_expansion))

    def _contrib_units(self, qtf: int, w_idf: float, tfs, dls) -> np.ndarray:
        sat = tf_saturation(np.asarray(tfs), np.asarray(dls), self.avgdl)
        return np.round(qtf * w_idf * sat * SCORE_SCALE).astype(np.int64)

    def _term_units(self, term: str, qtf: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, quantized contribution units) for one query term.

        qtf == 1 units are cached per term (the common case — duplicate
        query tokens are rare); qtf > 1 recomputes the full expression so
        the quantization spec round((qtf*idf)*sat*1e9) holds exactly."""
        w = idf(self.n_docs, self._term_refs(term)[1])
        if qtf == 1:
            hit = self._caches.units.get(term)
            if hit is not None:
                return hit
        ids, tfs, dls = self._gather(term)
        units = self._contrib_units(qtf, w, tfs, dls)
        if qtf == 1 and self._caches.admit(len(ids)):
            self._caches.units[term] = (ids, units)
        return ids, units

    def _mask_dead(self, ids: np.ndarray,
                   units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Drop tombstoned ordinals (sorted-membership searchsorted); called
        inside each scorer before any top-k cut or theta update so a dead
        doc can never displace or prune a live one."""
        from .docmap import sorted_member

        tomb = self.tomb
        if not len(tomb) or not len(ids):
            return ids, units
        dead, _ = sorted_member(tomb, ids)
        if dead.any():
            return ids[~dead], units[~dead]
        return ids, units

    # ------------------------------------------------------------- scorers --
    def _score_taat(self, qterms: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
        all_ids, all_units = [], []
        for term, qtf in qterms.items():
            if not self._term_refs(term)[0]:
                continue
            ids, units = self._term_units(term, qtf)
            all_ids.append(ids)
            all_units.append(units)
        if not all_ids:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ids = np.concatenate(all_ids)
        units = np.concatenate(all_units)
        # integer sums via weighted bincount: float64 accumulation is exact
        # for our magnitudes (per-doc unit sums < 2^53 by construction) and
        # ~6x faster than np.add.at
        rlo, rhi = self.ord_range or (0, self.n_docs)
        width = rhi - rlo
        if self._dense_ok and len(ids) * 8 >= width:
            # dense path: when a large fraction of (in-range) docs match, one
            # bincount over the range + one partition beats sorting the K
            # matched postings; the accumulator is range-width, not corpus-wide
            acc = np.bincount(ids - rlo, weights=units.astype(np.float64),
                              minlength=width)
            if len(self.tomb):
                acc[self.tomb - rlo] = 0.0  # dead docs can't set the cut
            k = min(self.k, width)
            cut = np.partition(acc, width - k)[width - k]
            if cut <= 0:
                cand = np.nonzero(acc > 0)[0]
            else:
                cand = np.nonzero(acc >= cut)[0]  # >= keeps boundary ties
            return cand + rlo, acc[cand].astype(np.int64)
        uniq, inv = np.unique(ids, return_inverse=True)
        scores = np.bincount(inv, weights=units.astype(np.float64),
                             minlength=len(uniq))
        return self._mask_dead(uniq, scores.astype(np.int64))

    def _score_bmw(self, qterms: dict[str, int],
                   batch_segments: int = 64) -> tuple[np.ndarray, np.ndarray]:
        """Block-max scoring in VECTORIZED, decode-on-demand form.

        Classic cursor-based WAND walks documents one at a time — a Python
        loop that is orders of magnitude slower than the TAAT bincount even
        when it skips most postings.  This formulation keeps the block-max
        math but works at BLOCK granularity with numpy:

          1. metadata only (no decode): every piece's per-block upper bound
             (in integer units, +2 safety) defines a step function over doc
             space; its breakpoints cut [0, N) into disjoint segments with a
             constant upper bound UB(segment) = sum of covering block bounds.
          2. visit segments in DESCENDING UB.  For a batch of segments,
             decode ONLY the blocks overlapping them (contiguous-range
             decode, per-block cache), gather the postings inside the
             segment ranges from ALL pieces, and compute exact quantized
             scores (each doc's postings land wholly in its one segment,
             so scores are exact).
          3. theta = k-th best exact score so far.  Stop when the next
             segment's UB <= theta: any unvisited doc satisfies
             exact <= UB - 2 < theta (the +2 inflation per contributing
             block makes the prune strict), so it can neither beat nor tie
             into the top-k (ties resolve by _topk's doc_id order among the
             evaluated candidates).

        Worst case (theta never binds) degenerates to a full decode like
        TAAT plus small bookkeeping; typical top-k queries decode a few
        high-bound blocks per list.
        """
        pieces = []
        for term, qtf in qterms.items():
            refs, df = self._term_refs(term)
            if not refs:
                continue
            w = idf(self.n_docs, df)
            for _salt, si, ri in refs:
                seg = self.segments[si]
                meta = seg.meta_at(ri)
                bub = (
                    qtf * w * meta.block_max_tfsat.astype(np.float64)
                    * SCORE_SCALE + 2.0
                )
                bends = meta.block_last_docid
                bstarts = np.empty(len(bends), dtype=np.int64)
                bstarts[0] = 0
                bstarts[1:] = bends[:-1] + 1
                pieces.append({
                    "seg": seg, "ri": ri, "meta": meta, "qtf": qtf, "w": w,
                    "bstarts": bstarts, "bends": bends, "bub": bub,
                    # block idx -> (ids, sat): sat is query-INDEPENDENT, so
                    # the cache persists across queries (warm path skips the
                    # decode entirely); the budgeted overlay spills to a
                    # per-call dict once the shared budget is full
                    "cache": self._caches.blocks.setdefault((si, ri), {}),
                    "overlay": {},
                })
        if not pieces:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

        # step function of summed block bounds over doc-id space
        ev_pos = np.concatenate(
            [p["bstarts"] for p in pieces] + [p["bends"] + 1 for p in pieces]
        )
        ev_val = np.concatenate(
            [p["bub"] for p in pieces] + [-p["bub"] for p in pieces]
        )
        bpts = np.unique(ev_pos)
        delta = np.zeros(len(bpts), dtype=np.float64)
        np.add.at(delta, np.searchsorted(bpts, ev_pos), ev_val)
        ub = np.cumsum(delta)
        last_doc = max(int(p["bends"][-1]) for p in pieces)
        seg_lo = bpts
        seg_hi = np.r_[bpts[1:] - 1, last_doc]
        if self.ord_range is not None:
            # sharded engine: clip the step function to this actor's ordinal
            # range — out-of-range segments vanish before any decode, and the
            # in-range stab masks boundary blocks' stray postings below
            rlo, rhi = self.ord_range
            seg_lo = np.maximum(seg_lo, rlo)
            seg_hi = np.minimum(seg_hi, rhi - 1)
        keep = (ub > 1e-9) & (seg_hi >= seg_lo)
        seg_lo, seg_hi, ub = seg_lo[keep], seg_hi[keep], ub[keep]
        order = np.argsort(-ub, kind="stable")
        seg_lo, seg_hi, ub = seg_lo[order], seg_hi[order], ub[order]

        def _cached(p, b: int):
            hit = p["cache"].get(b)
            return hit if hit is not None else p["overlay"][b]

        def _decode_piece_blocks(p, needed: np.ndarray) -> None:
            """Decode (and cache) the piece's blocks in ``needed`` that are
            not cached yet, coalescing adjacent blocks into contiguous-range
            decodes.  >50% of the list needed -> decode it whole."""
            have = set(p["cache"]) | set(p["overlay"])
            missing = (needed[~np.isin(needed, np.fromiter(
                have, dtype=np.int64, count=len(have)))]
                if have else needed)
            if len(missing) == 0:
                return
            n_blocks = len(p["bends"])
            if len(have) + len(missing) > n_blocks // 2:
                missing = np.setdiff1d(
                    np.arange(n_blocks, dtype=np.int64),
                    np.fromiter(have, dtype=np.int64, count=len(have)),
                )
            blob = p["seg"].blob[int(p["seg"]._offsets[p["ri"]]):]
            run_bounds = np.flatnonzero(np.diff(missing) > 1) + 1
            for run in np.split(missing, run_bounds):
                f, t = int(run[0]), int(run[-1]) + 1
                ids, tfs = decode_block_range(blob, p["meta"], f, t)
                sat = tf_saturation(tfs, self.docs.gather_lens(ids),
                                    self.avgdl)
                splits = np.cumsum(p["meta"].block_count[f:t])[:-1]
                for bi, (i_a, s_a) in enumerate(
                    zip(np.split(ids, splits), np.split(sat, splits))
                ):
                    if self._caches.admit(len(i_a)):
                        p["cache"][f + bi] = (i_a, s_a)
                    else:
                        p["overlay"][f + bi] = (i_a, s_a)

        k = self.k
        cand_ids: list[np.ndarray] = []
        cand_units: list[np.ndarray] = []
        theta = -1.0
        n_seg = len(seg_lo)
        i = 0
        # fixed round schedule: a small probing round sets theta, one middle
        # round tightens it, the final round drains whatever still beats it.
        # Segments are DISJOINT doc ranges, so each round's scores are exact
        # and no doc is ever scored twice; theta only grows between rounds.
        for round_size in (batch_segments * 4, batch_segments * 128, n_seg):
            if i >= n_seg or ub[i] <= theta:
                break
            j = min(i + round_size, n_seg)
            # segments already under theta contribute nothing: drop them
            take = np.flatnonzero(ub[i:j] > theta) + i
            if len(take) == 0:
                break
            blo, bhi = seg_lo[take], seg_hi[take]
            o = np.argsort(blo)
            blo, bhi = blo[o], bhi[o]  # sorted, disjoint
            got_ids, got_units = [], []
            for p in pieces:
                # blocks overlapping ANY surviving range (vectorized stab:
                # ranges are disjoint+sorted, so the last range starting at
                # or before the block's end is the only overlap candidate)
                cand = np.searchsorted(blo, p["bends"], side="right") - 1
                ok = cand >= 0
                ok[ok] &= bhi[cand[ok]] >= p["bstarts"][ok]
                needed = np.flatnonzero(ok)
                if len(needed) == 0:
                    continue
                _decode_piece_blocks(p, needed)
                parts = [_cached(p, int(b)) for b in needed]
                ids = np.concatenate([x[0] for x in parts]) \
                    if len(parts) > 1 else parts[0][0]
                sat = np.concatenate([x[1] for x in parts]) \
                    if len(parts) > 1 else parts[0][1]
                units = np.round(
                    p["qtf"] * p["w"] * sat * SCORE_SCALE
                ).astype(np.int64)
                pos = np.searchsorted(blo, ids, side="right") - 1
                sel = pos >= 0
                sel[sel] &= ids[sel] <= bhi[pos[sel]]
                if sel.any():
                    got_ids.append(ids[sel])
                    got_units.append(units[sel])
            if got_ids:
                g_ids = np.concatenate(got_ids)
                g_units = np.concatenate(got_units).astype(np.float64)
                uniq, inv = np.unique(g_ids, return_inverse=True)
                exact = np.bincount(inv, weights=g_units,
                                    minlength=len(uniq)).astype(np.int64)
                # mask dead docs BEFORE theta: a tombstoned doc's score must
                # never raise the prune bar above a live top-k doc
                uniq, exact = self._mask_dead(uniq, exact)
                if not len(uniq):
                    i = j
                    continue
                cand_ids.append(uniq)
                cand_units.append(exact)
                allu = exact if len(cand_units) == 1 else np.concatenate(cand_units)
                if len(allu) >= k:
                    theta = float(
                        np.partition(allu, len(allu) - k)[len(allu) - k]
                    )
            i = j
        if not cand_ids:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(cand_ids), np.concatenate(cand_units)

    # --------------------------------------------------------------- topk --
    def _topk(self, ids: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = units > 0
        ids, units = ids[pos], units[pos]
        if len(ids) == 0:
            return ids, units
        if len(ids) > self.k * 4:
            # cheap pre-cut at the k-th largest score; >= keeps boundary ties
            # so the final lexsort can break them by doc_id
            cut = np.partition(units, len(units) - self.k)[len(units) - self.k]
            keep = units >= cut
            ids, units = ids[keep], units[keep]
        order = np.lexsort((ids, -units))[: self.k]
        return ids[order], units[order]

    def _page(self, ords: np.ndarray,
              units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Top-k cut (_topk) + ordinal -> real doc id: (doc_ids, units)."""
        ords, units = self._topk(ords, units)
        return (self.docs.gather_ids(ords) if len(ords) else ords), units

    def _bag_page(self, terms) -> tuple[np.ndarray, np.ndarray]:
        """Top-k page of a dictionary rewrite: every expanded term scores
        at qtf=1 (the uniform scoring-BooleanQuery rewrite)."""
        return self._page(*self._score({t: 1 for t in terms}))

    def _score(self, qterms: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
        """Dispatch to the configured scorer (shared by text / prefix / bool
        entry points — all three reduce to a {term: qtf} bag)."""
        if self.scorer == "taat":
            return self._score_taat(qterms)
        if self.scorer == "bmw":
            return self._score_bmw(qterms)
        raise ValueError(f"unknown scorer {self.scorer!r}")

    def search_one(self, query: str, lang: str | None = None):
        qterms = self._query_terms(query, lang)
        ids, units = self._score(qterms)
        ids, units = self._topk(ids, units)
        if len(ids):
            ids = self.docs.gather_ids(ids)  # ordinal -> real doc id
        return ids, units

    def __call__(self, batch: pa.Table) -> pa.Table:
        """One pool batch -> result rows: the kind's ``rows`` answers each
        query, then one vectorized Arrow emit in the kind's schema (KINDS
        declares both)."""
        spec = KINDS[self.query_kind]
        qids = batch["query_id"].to_numpy(zero_copy_only=False)
        *ins, langs = [_input_column(batch, c)
                       for c in spec.inputs + ("lang",)]
        results = [spec.rows(self, *args, lg or None)
                   for *args, lg in zip(*ins, langs)]
        return _emit(spec, self, qids, results)


class TermSuggester:
    """Callable-class stage: prefix -> top-n dictionary terms by document
    frequency (Elasticsearch completion/term-suggester analogue, served
    ENTIRELY from the sorted term dictionary — postings never touched).

    Init takes the manifest and dictionaries from the generation's shared
    ``_IndexCore`` (no tombstones; ``index_dir`` may be an alias): df is
    the FROZEN build-time document frequency (Lucene semantics —
    deletes don't lower df until compaction), summed across segments and
    hot-term salts.  Per suggestion the matching terms are one contiguous
    dictionary run per segment (SegmentReader.prefix_rows) aggregated with
    a vectorized slice — ranked df DESC, term ASC, cut to n.

    Lang-tagged indexes aggregate per RAW token: with ``lang`` the scan is
    that language's run only; without, one run per language and dfs sum
    across languages (a term's total document frequency)."""

    def __init__(self, index_dir: str, n: int = 10, lang: str | None = None,
                 max_scan: int = 65536):
        core = _IndexCore.open(index_dir)
        self.manifest = core.manifest
        self.n = n
        self.lang = lang
        self.max_scan = max_scan
        self.lang_tagged = self.manifest["lang_tagged"]
        self.langs = self.manifest["langs"]
        self.segments = core.segments

    def suggest_one(self, prefix: str) -> list[tuple[str, int]]:
        toks = tokens_py(prefix)
        if not toks:
            return []
        pre = toks[0]
        if self.lang_tagged:
            langs = [self.lang] if self.lang else self.langs
            keys = [(f"{lg}{LANG_SEP}{pre}", len(lg) + len(LANG_SEP))
                    for lg in langs]
        else:
            keys = [(pre, 0)]
        acc: dict[str, int] = {}
        scanned = 0
        for key, strip in keys:
            for seg in self.segments:
                rows = seg.prefix_rows(key)
                width = rows.stop - rows.start
                if width <= 0:
                    continue
                scanned += width
                if scanned > self.max_scan:
                    # a 1-char prefix over a web-scale vocabulary: loud
                    # guard, same contract as expand_prefix's TooManyClauses
                    raise ValueError(
                        f"suggest prefix {prefix!r} scans more than "
                        f"{self.max_scan} dictionary rows; use a longer "
                        f"prefix"
                    )
                terms = seg._terms.slice(rows.start, width).to_pylist()
                dfs = seg.df[rows.start : rows.stop].tolist()
                for t, d in zip(terms, dfs):  # salted rows sum here too
                    t = t[strip:]
                    acc[t] = acc.get(t, 0) + d
        ranked = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: self.n]

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _emit(_SUGGEST, self,
                     batch["query_id"].to_numpy(zero_copy_only=False),
                     [_transpose(self.suggest_one(q), 2)
                      for q in _input_column(batch, "query")])


def run_suggest(queries_ds, index_dir: str, *, n: int = 10,
                lang: str | None = None,
                concurrency: int | tuple[int, int] = 2,
                batch_size: int = 64):
    """(query_id, query) Dataset -> (query_id, rank, term, df) via the
    TermSuggester actor pool (one dictionary-resident actor per slot)."""
    # split small query tables so every actor gets work (run_queries shape)
    n_actors = concurrency if isinstance(concurrency, int) else concurrency[1]
    queries_ds = queries_ds.repartition(max(n_actors * 2, 4))
    return queries_ds.map_batches(
        TermSuggester,
        fn_constructor_kwargs={"index_dir": index_dir, "n": n, "lang": lang},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


# ---------------------------------------------------------------- kinds --
# Every query kind is declared ONCE, in KINDS below.  A KindSpec names the
# input columns the kind reads, the ``rows`` function that answers one
# query through the engine, the output schema, and — for kinds that shard
# — the partial kind each doc-range pool runs plus the reducer that merges
# one query's per-range rows.  QueryEngine validation, the actor emitter
# (QueryEngine.__call__), run_queries_sharded and the pipelines' sharded
# contract twins all read this one table.

_TYPES = {"": pa.int64(), "i32": pa.int32(), "f64": pa.float64(),
          "str": pa.string()}


def _schema(cols: str) -> pa.Schema:
    """``"name[:type] ..."`` -> Arrow schema; untyped columns are int64."""
    return pa.schema([(n, _TYPES[t]) for n, _, t in
                      (c.partition(":") for c in cols.split())])


@dataclass(frozen=True)
class KindSpec:
    """One query kind.

    ``rows(engine, *inputs, lang)`` answers ONE query and returns its
    output columns — the schema's fields minus ``query_id``, the generated
    ``rank`` (``ranked=True``) and the reducer-derived floats — as equal-
    length sequences, or None for no row.  ``merge(rows_of_one_query,
    cfg, spec)`` reduces the per-range rows of the ``partial`` kind (the
    kind itself when None) into this kind's final rows; a kind without a
    merge does not shard.  ``schema`` may depend on the engine config
    (percentiles names one column per quantile)."""

    rows: Callable
    schema: "pa.Schema | Callable[[Any], pa.Schema]"
    inputs: tuple[str, ...] = ("query",)
    ranked: bool = False
    partial: str | None = None
    merge: Callable | None = None

    def schema_for(self, cfg) -> pa.Schema:
        return self.schema(cfg) if callable(self.schema) else self.schema


# input columns a batch may omit (boolean clause lists); ``_NULL_AS`` is
# what a null input value means
_OPTIONAL_INPUTS = ("lang", "must", "should", "must_not", "exclude_ids",
                    "min_should_match")
_NULL_AS = {"query": "", "negative": "", "clauses": [], "must": [],
            "should": [], "must_not": [], "exclude_ids": [],
            "min_should_match": 0}


def _input_column(batch: pa.Table, name: str) -> list:
    if name not in batch.schema.names and name in _OPTIONAL_INPUTS:
        vals = [None] * batch.num_rows
    else:
        vals = batch[name].to_pylist()  # KeyError names a missing column
    if name not in _NULL_AS:
        return vals
    null = _NULL_AS[name]
    return [null if v is None else v for v in vals]


def _emit(spec: KindSpec, cfg, qids, results: list) -> pa.Table:
    """Per-query row columns -> one Arrow table in the kind's schema:
    numpy concatenation per column, ``query_id`` by np.repeat and ``rank``
    by arange.  Scores are ``units / SCORE_SCALE`` in float64 — exact
    images of the integer units (bit-identical to a per-row ``u /
    SCORE_SCALE`` while units stay below 2^53)."""
    schema = spec.schema_for(cfg)
    gsum = spec.merge if isinstance(spec.merge, GroupSum) else None
    skip = {"query_id", "rank" if spec.ranked else ""}
    skip.update(gsum.derived if gsum else ())
    counts = np.array([0 if r is None else len(r[0]) for r in results],
                      dtype=np.int64)
    got = [r for r in results if r is not None]
    cols = {"query_id": np.repeat(np.asarray(qids, dtype=np.int64), counts)}
    if spec.ranked:
        cols["rank"] = (np.arange(counts.sum())
                        - np.repeat(np.cumsum(counts) - counts, counts) + 1)
    for j, f in enumerate(x for x in schema if x.name not in skip):
        parts = [r[j] for r in got]
        if pa.types.is_string(f.type):
            cols[f.name] = list(itertools.chain.from_iterable(parts))
        else:
            dt = f.type.to_pandas_dtype()
            cols[f.name] = (np.concatenate([np.asarray(p, dtype=dt)
                                            for p in parts])
                            if parts else np.empty(0, dtype=dt))
    t = pa.table({f.name: pa.array(cols[f.name], type=f.type)
                  for f in schema if f.name in cols})
    return gsum.finish(t) if gsum else t


# ----------------------------------------------------- rows() factories --
def _one(*vals) -> list:
    """A single output row."""
    return [[v] for v in vals]


def _transpose(records: list, n: int) -> list:
    """Row tuples -> n column lists."""
    return [list(c) for c in zip(*records)] or [[] for _ in range(n)]


def _answer(method, scaled: int | None = None, order=None):
    """rows() for an engine method that already returns per-row columns:
    ``scaled`` turns that column's integer units into the float score,
    ``order`` permutes the columns into schema order.  ``method`` is an
    engine method NAME, looked up per call, or a callable."""
    call = method if callable(method) else (
        lambda e, *a: getattr(e, method)(*a))

    def rows(e, *args):
        cols = list(call(e, *args))
        if scaled is not None:
            cols[scaled] = (np.asarray(cols[scaled], dtype=np.int64)
                            / SCORE_SCALE)
        return cols if order is None else [cols[i] for i in order]
    return rows


def _row_if_hits(method: str):
    """rows() for a one-row aggregate whose first value is n_hits: zero-hit
    queries emit nothing (the GROUP-BY oracle shape)."""
    def rows(e, *args):
        vals = getattr(e, method)(*args)
        return _one(*vals) if vals[0] else None
    return rows


def _hist_rows(kernel):
    """rows() for an aggregate over the doc_len value histogram."""
    def rows(e, q, lg):
        vals, counts = e.search_dl_value_counts(q, lg)
        return _one(*kernel(vals, counts, e)) if len(vals) else None
    return rows


def _bool(e, must, should, must_not, exclude_ids, msm, lg):
    return e.search_bool(must, should, must_not, lg,
                         exclude_ids=exclude_ids,
                         min_should_match=int(msm))


def _constant_rows(e, q, lg):
    ids = e.search_constant_score(q, lg)
    return ids, np.full(len(ids), e.const_boost)


def _scroll_rows(e, q, lg):
    ids, units = e.search_scroll(q, lg)
    i = np.arange(len(ids))
    return i // e.k + 1, i % e.k + 1, ids, units / SCORE_SCALE


def _cardinality_rows(e, q, lg):
    lvs = e.search_cardinality(q, lg)
    return _one(len(lvs)) if lvs else None


def _rank_eval_rows(e, q, lg):
    res = e.search_rank_eval(q, lg)
    return None if res is None else _one(*res)


def _explain_rows(e, q, d, lg):
    # (query, doc_id) -> one row per contributing term: the exact integers
    # the scorer summed
    rows = e.explain(q, int(d), lg)
    term, qtf, df, tf, u = _transpose(rows, 5)
    return ([int(d)] * len(rows), term, qtf, df, tf,
            np.asarray(u, dtype=np.int64) / SCORE_SCALE)


def _rescore_partial_rows(e, q, lg):
    # sharded rescore's per-range leg: the range-local phase-1 window with
    # bm25 AND coord units (both exact per doc at any partitioning)
    ords, units, coord = e._rescore_window_units(q, lg)
    return (e.docs.gather_ids(ords) if len(ords) else ords), units, coord


# ---------------------------------------------------------- reducers --
# Each reducer gets ONE query's rows from every doc range (the output of
# the partial kind), the merge config (QueryEngine defaults + k + the
# engine_kwargs) and the kind's spec.  Shared exactness premise: every
# posting of an in-range doc is in-range, so each range's answers are
# complete and final for its own docs.

def _np(t: pa.Table, col: str) -> np.ndarray:
    return t[col].to_numpy(zero_copy_only=False)


def _pylists(t: pa.Table, *cols: str) -> list[list]:
    return [t[c].to_pylist() for c in cols]


def _qid(g: pa.Table) -> int:
    return g["query_id"][0].as_py()


def _renumber(t: pa.Table, col: str = "rank") -> pa.Table:
    return t.set_column(t.schema.get_field_index(col), col, pa.array(
        np.arange(1, t.num_rows + 1, dtype=np.int32)))


def _recut(key=None, distinct: str | None = None):
    """Re-cut by sort key: re-sort the union of per-range pages on the
    kind's key (doc_id ascending breaks ties, as in QueryEngine._topk) and
    cut to k.  Exact for every selection by a per-doc key: a doc in the
    global page has < k docs above it globally, hence < k above it in its
    own range, hence is in that range's page.  Float scores are exact
    images of the integer units, so score order IS unit order.

    ``distinct`` (collapse) keeps the best row per value first: if a
    group belongs in the global top-k representatives, fewer than k
    groups have better global reps; in the range holding its best doc,
    every rep ranked above it maps to a distinct group whose GLOBAL rep
    is at least as good — so it survives every range-local cut."""
    def merge(g, cfg, spec):
        ids = _np(g, "doc_id")
        order = np.lexsort((ids,) if key is None else (ids, key(g, cfg)))
        if distinct is not None:
            vals = np.asarray(g[distinct].to_pylist(), dtype=object)
            _, first = np.unique(vals[order], return_index=True)
            order = order[np.sort(first)]
        return _renumber(g.take(pa.array(order[: int(cfg.k)])))
    return merge


_merge_topk = _recut(lambda g, cfg: -_np(g, "score"))


def _merge_rescore(g, cfg, spec):
    # the rescore tail: per-range windows COVER the global window (per-
    # range sums are complete), so re-cut the global phase-1 window over
    # their union under the engine's (-bm25, doc_id) rule — ordinals are
    # order-isomorphic to doc ids — then combine and re-cut as top-k,
    # exactly QueryEngine.search_rescore's tail
    ids, bm25, coord = (_np(g, c) for c in
                        ("doc_id", "bm25_units", "coord_units"))
    win = np.lexsort((ids, -bm25))[: int(cfg.rescore_window)]
    page = pa.table({
        "query_id": g["query_id"].take(pa.array(win)),
        "rank": pa.array(np.zeros(len(win), dtype=np.int32)),
        "doc_id": pa.array(ids[win], type=pa.int64()),
        "score": pa.array((bm25[win] + coord[win]) / SCORE_SCALE,
                          type=pa.float64())})
    return _merge_topk(page, cfg, spec)


@dataclass(frozen=True)
class GroupSum:
    """Group-sum reducer: per-range rows are complete for their docs and
    every doc lives in exactly one range, so per group key counts and
    sums ADD, mins min, maxs max.  Floats never cross the merge:
    ``derive`` recomputes the ``derived`` columns from the merged EXACT
    integers with the op sequence the single-pool engine runs, and
    ``keep`` (the emission rule) applies AFTER the merge — a population
    may reach its threshold only globally.  The engine's own rows go
    through the same ``finish``, so both paths share one derivation."""

    keys: tuple[str, ...]
    aggs: tuple[tuple[str, str], ...]
    keep: Callable | None = None
    derived: tuple[str, ...] = ()
    derive: Callable | None = None

    def finish(self, t: pa.Table) -> pa.Table:
        if self.keep is not None:
            t = t.filter(pa.array(self.keep(t)))
        for name, vals in zip(self.derived,
                              self.derive(t) if self.derive else ()):
            t = t.append_column(name, pa.array(vals, type=pa.float64()))
        return t

    def __call__(self, g, cfg, spec):
        # select by the aggregate's GENERATED names (not positional
        # rename): pyarrow's key-vs-aggregate column ordering in
        # group_by().aggregate() output is a version-dependent detail
        keys = list(self.keys)
        t = g.group_by(keys).aggregate(list(self.aggs))
        t = t.select(keys + [f"{c}_{op}" for c, op in self.aggs])
        return self.finish(t.rename_columns(keys + [c for c, _ in self.aggs]))


def _sums(*cols: str) -> tuple[tuple[str, str], ...]:
    return tuple((c, "sum") for c in cols)


_DL_STATS = (("n_hits", "sum"), ("min_dl", "min"), ("max_dl", "max"),
             ("sum_dl", "sum"))


def _avg_dl(t: pa.Table) -> list:
    # avg recomputes from the exact integer sums (never averaged across
    # ranges); float64 division of ints < 2^53 == the per-row s / n
    return [_np(t, "sum_dl").astype(np.float64)
            / _np(t, "n_hits").astype(np.float64)]


def _ext_floats(t: pa.Table) -> list:
    # QueryEngine.ext_stats_floats per row — O(queries), not O(hits)
    return _transpose([QueryEngine.ext_stats_floats(n, s, ss) for n, s, ss
                       in zip(*_pylists(t, "n_hits", "sum_dl", "sum_sq"))],
                      3)


def _weighted_avg(t: pa.Table) -> list:
    # the single float division, re-derived from the merged integer sums
    return [[swv / sw for sw, swv in zip(*_pylists(t, "sum_w", "sum_wv"))]]


_TT = ("n1", "sum1", "sum_sq1", "n2", "sum2", "sum_sq2")


def _welch(t: pa.Table) -> list:
    return _transpose([welch_t_floats(*r) for r in zip(*_pylists(t, *_TT))],
                      3)


def _hist_merge(kernel):
    """Summed value histogram + the shared quantile kernel: per-range
    partials are exact (dl, count) histograms of their range (bounded by
    the doc_len domain, not the hit count); summed histograms recompute
    EXACT quantiles — no t-digest approximation at any shard count."""
    def merge(g, cfg, spec):
        vals, inv = np.unique(_np(g, "dl"), return_inverse=True)
        counts = np.zeros(len(vals), dtype=np.int64)
        np.add.at(counts, inv, _np(g, "n"))
        return _emit(spec, cfg, [_qid(g)], [_one(*kernel(vals, counts, cfg))])
    return merge


def _hist_kind(kernel, cols: str) -> KindSpec:
    schema = cols if callable(cols) else _schema(cols)
    return KindSpec(_hist_rows(kernel), schema, partial="percentiles_partial",
                    merge=_hist_merge(kernel))


def _percentiles(vals, counts, cfg):
    n, ps = disc_percentiles(vals, counts, tuple(cfg.percentile_qs))
    return (n, *ps)


def _percentiles_schema(cfg) -> pa.Schema:
    # one wide row per query: n_hits + one p{q} column per quantile
    return _schema("query_id n_hits " + " ".join(
        f"p{int(round(q * 100))}" for q in cfg.percentile_qs))


def _merge_explain(g, cfg, spec):
    # each (query, doc) lives in exactly one ordinal range: the union IS
    # the answer (deterministic order for stable output)
    idx = np.lexsort((np.asarray(g["term"].to_pylist(), dtype=object),
                      _np(g, "doc_id")))
    return g.take(pa.array(idx))


def _merge_mget(g, cfg, spec):
    # each doc lives in exactly one ordinal range: the union IS the answer;
    # re-sort by doc_id for the single pool's ascending order
    return g.take(pa.array(np.argsort(_np(g, "doc_id"))))


def _merge_top_hits(g, cfg, spec):
    # each doc lives in exactly one ordinal range, so per-range
    # per-(query, lang) top-group_n rows cover the global top-group_n;
    # re-rank per lang over the union and re-cut
    ids, scores = _np(g, "doc_id"), _np(g, "score")
    lgs = np.asarray(g["lang"].to_pylist(), dtype=object)
    order = np.lexsort((ids, -scores))
    sel = [order[lgs[order] == lv][: int(cfg.group_n)]
           for lv in np.unique(lgs)]
    t = g.take(pa.array(np.concatenate(sel)))
    return t.set_column(t.schema.get_field_index("grank"), "grank", pa.array(
        np.concatenate([np.arange(1, len(s) + 1, dtype=np.int32)
                        for s in sel])))


def _merge_pinned(g, cfg, spec):
    # each range owns its pinned ordinals (flag=1 rows, complete unit
    # sums) — their union is the full pinned set, re-sorted doc_id ASC;
    # organic rows re-cut as plain top-k; concatenate, cut k
    ids, scores, flags = (_np(g, c) for c in ("doc_id", "score", "pinned"))
    pin, org = np.flatnonzero(flags == 1), np.flatnonzero(flags == 0)
    sel = np.concatenate([pin[np.argsort(ids[pin])],
                          org[np.lexsort((ids[org], -scores[org]))]])
    return _renumber(g.take(pa.array(sel[: int(cfg.k)])))


def _merge_cardinality(g, cfg, spec):
    # per-range partials are the distinct (query, lang) pairs of their
    # range; the exact merge is the distinct-union's size
    return _emit(spec, cfg, [_qid(g)], [_one(len(set(g["lang"].to_pylist())))])


def _merge_composite(g, cfg, spec):
    # a global-page bucket survives every range-local cut (the range's
    # preceding buckets are a subset of the global ones), so ALL its
    # partial counts are present — sum per (lang, bucket), re-sort,
    # re-filter, re-cut
    acc: dict[tuple[str, int], int] = {}
    for lv, b, c in zip(*_pylists(g, "lang", "bucket", "n_hits")):
        acc[(lv, int(b))] = acc.get((lv, int(b)), 0) + int(c)
    rows = sorted((lv, b, c) for (lv, b), c in acc.items())
    if cfg.comp_after is not None:
        after = (str(cfg.comp_after[0]), int(cfg.comp_after[1]))
        rows = [r for r in rows if (r[0], r[1]) > after]
    return _emit(spec, cfg, [_qid(g)],
                 [_transpose(rows[: int(cfg.comp_size)], 3)])


def _merge_phrase_suggest(g, cfg, spec):
    # candidate generation is range-independent (global dictionary), so
    # per-range (phrase, n_docs) counts ADD; re-rank the sums under the
    # final kind's (n_docs DESC, phrase ASC) order, cut to suggest_n
    t = g.group_by("phrase").aggregate([("n_docs", "sum")])
    rows = sorted(zip(*_pylists(t, "phrase", "n_docs_sum")),
                  key=lambda x: (-int(x[1]), x[0]))[: int(cfg.suggest_n)]
    return _emit(spec, cfg, [_qid(g)], [_transpose(rows, 2)])


_SCORED = "query_id rank:i32 doc_id score:f64"


def _page_kind(method, inputs=("query",), shard: bool = True) -> KindSpec:
    """A (doc_id, score) top-k page.  Per-range sums are complete and every
    cursor / filter / demotion / factor is per-doc, so per-range pages are
    final for their docs and merge as a plain top-k re-cut."""
    return KindSpec(_answer(method, scaled=1), RESULT_SCHEMA, inputs,
                    ranked=True, merge=_merge_topk if shard else None)


KINDS: dict[str, KindSpec] = {
    "text": _page_kind("search_one"),
    "prefix": _page_kind("search_prefix"),
    "fuzzy": _page_kind("search_fuzzy"),
    "fuzzy2": _page_kind("search_fuzzy2"),
    "wildcard": _page_kind("search_wildcard"),
    "regexp": _page_kind("search_regexp"),
    "synonym": _page_kind("search_synonym"),
    "query_string": _page_kind("search_query_string"),
    "function_score": _page_kind("search_function_score"),
    # the float score is an exact image of the integer saturation key
    "rank_feature": _page_kind("search_rank_feature"),
    "bool": _page_kind(_bool, ("must", "should", "must_not", "exclude_ids",
                               "min_should_match")),
    "filtered": _page_kind("search_filtered", ("query", "dl_lo", "dl_hi")),
    "search_after": _page_kind("search_after",
                               ("query", "cursor_units", "cursor_doc")),
    "dis_max": _page_kind("search_dis_max", ("clauses",)),
    "boosting": _page_kind("search_boosting", ("query", "negative")),
    # two field indexes with different ordinal spaces: not range-shardable
    "multi_match": _page_kind("search_multi_match", shard=False),
    "rescore": KindSpec(_answer("search_rescore", scaled=1), RESULT_SCHEMA,
                        ranked=True, partial="rescore_partial",
                        merge=_merge_rescore),
    "rescore_partial": KindSpec(
        _rescore_partial_rows,
        _schema("query_id doc_id bm25_units coord_units")),
    "collapse": KindSpec(_answer("search_collapse", scaled=1),
                         _schema(_SCORED + " lang:str"), ranked=True,
                         merge=_recut(lambda g, cfg: -_np(g, "score"),
                                      distinct="lang")),
    "sort": KindSpec(
        _answer(lambda e, q, lg: e.search_sort(q, lg,
                                               ascending=e.sort_ascending)),
        _schema("query_id rank:i32 doc_id doc_len"), ranked=True,
        merge=_recut(lambda g, cfg: (_np(g, "doc_len") if cfg.sort_ascending
                                     else -_np(g, "doc_len")))),
    # selection by a per-doc key (hash DESC / distance ASC / doc_id ASC)
    "random_score": KindSpec(_answer("search_random_score"),
                             _schema("query_id rank:i32 doc_id rs"),
                             ranked=True,
                             merge=_recut(lambda g, cfg: -_np(g, "rs"))),
    "distance_feature": KindSpec(_answer("search_distance_feature"),
                                 _schema("query_id rank:i32 doc_id dist"),
                                 ranked=True,
                                 merge=_recut(lambda g, cfg: _np(g, "dist"))),
    # page = the first k hits in doc_id order; each range's first k
    # contain its rows of the global page
    "constant_score": KindSpec(_constant_rows, RESULT_SCHEMA, ranked=True,
                               merge=_recut()),
    "pinned": KindSpec(_answer("search_pinned", scaled=1),
                       _schema(_SCORED + " pinned"), ranked=True,
                       merge=_merge_pinned),
    "top_hits": KindSpec(
        _answer("search_top_hits", scaled=1, order=(2, 3, 0, 1)),
        _schema("query_id lang:str grank:i32 doc_id score:f64"),
        merge=_merge_top_hits),
    "scroll": KindSpec(_scroll_rows,
                       _schema("query_id page:i32 rank:i32 doc_id score:f64")),
    "explain": KindSpec(
        _explain_rows,
        _schema("query_id doc_id term:str qtf df tf contribution:f64"),
        inputs=("query", "doc_id"), merge=_merge_explain),
    "mget": KindSpec(
        lambda e, q, lg: e.mget([int(x) for x in q.split(",") if x]),
        _schema("query_id doc_id doc_len lang:str"), merge=_merge_mget),
    "term_suggest": KindSpec(
        lambda e, q, lg: _transpose(e.suggest_terms(q, lg), 3),
        _schema("query_id rank:i32 term:str dist df"), ranked=True),
    "phrase_suggest": KindSpec(
        lambda e, q, lg: _transpose(e.suggest_phrase(q, lg), 2),
        _schema("query_id phrase:str n_docs rank"), ranked=True,
        partial="phrase_suggest_partial", merge=_merge_phrase_suggest),
    # every surviving phrase with its range-local count (no rank — the
    # merge re-ranks summed counts)
    "phrase_suggest_partial": KindSpec(
        lambda e, q, lg: _transpose(e.suggest_phrase(q, lg, cut=False), 2),
        _schema("query_id phrase:str n_docs")),
    "lang_agg": KindSpec(_answer("search_lang_agg", scaled=2),
                         _schema("query_id lang:str n_hits best_score:f64"),
                         merge=GroupSum(("query_id", "lang"),
                                        (("n_hits", "sum"),
                                         ("best_score", "max")))),
    "count": KindSpec(lambda e, q, lg: _one(e.count_hits(q, lg)),
                      _schema("query_id n_hits"),
                      merge=GroupSum(("query_id",), _sums("n_hits"))),
    # one row per pair ALWAYS (zero-intersection cells emit 0, the
    # LEFT-JOIN oracle's shape); presence sets are complete per range
    "adjacency": KindSpec(lambda e, q, lg: _one(e.search_adjacency(q, lg)),
                          _schema("query_id n_both"),
                          merge=GroupSum(("query_id",), _sums("n_both"))),
    "dl_hist": KindSpec(_answer("search_dl_hist"),
                        _schema("query_id bucket n_hits"),
                        merge=GroupSum(("query_id", "bucket"),
                                       _sums("n_hits"))),
    "range": KindSpec(_answer("search_range"),
                      _schema("query_id bucket n_hits"),
                      merge=GroupSum(("query_id", "bucket"),
                                     _sums("n_hits"))),
    # intersection counts over disjoint ranges ADD; zero-count buckets
    # never appear
    "filters": KindSpec(_answer("search_filters"),
                        _schema("query_id bucket:str n_hits"),
                        merge=GroupSum(("query_id", "bucket"),
                                       _sums("n_hits"))),
    "composite": KindSpec(_answer("search_composite"),
                          _schema("query_id lang:str bucket n_hits"),
                          merge=_merge_composite),
    "stats": KindSpec(_row_if_hits("search_stats"),
                      _schema("query_id n_hits min_dl max_dl sum_dl "
                              "avg_dl:f64"),
                      merge=GroupSum(("query_id",), _DL_STATS,
                                     derived=("avg_dl",), derive=_avg_dl)),
    "lang_stats": KindSpec(_answer("search_lang_stats"),
                           _schema("query_id lang:str n_hits min_dl max_dl "
                                   "sum_dl avg_dl:f64"),
                           merge=GroupSum(("query_id", "lang"), _DL_STATS,
                                          derived=("avg_dl",),
                                          derive=_avg_dl)),
    "ext_stats": KindSpec(
        _row_if_hits("search_ext_stats"),
        _schema("query_id n_hits min_dl max_dl sum_dl sum_sq avg_dl:f64 "
                "variance:f64 std_dev:f64"),
        merge=GroupSum(("query_id",), _DL_STATS + _sums("sum_sq"),
                       derived=("avg_dl", "variance", "std_dev"),
                       derive=_ext_floats)),
    # weighted_avg: the sum_w > 0 emission rule is the SQL HAVING twin;
    # the partial drops it — a range with hits but no weight mass must
    # still contribute its n_hits
    "weighted_avg": KindSpec(
        _row_if_hits("search_weighted_avg"),
        _schema("query_id n_hits sum_w sum_wv weighted_avg:f64"),
        partial="weighted_avg_partial",
        merge=GroupSum(("query_id",), _sums("n_hits", "sum_w", "sum_wv"),
                       keep=lambda t: _np(t, "sum_w") > 0,
                       derived=("weighted_avg",), derive=_weighted_avg)),
    "weighted_avg_partial": KindSpec(_row_if_hits("search_weighted_avg"),
                                     _schema("query_id n_hits sum_w sum_wv")),
    # t_test: rows only where BOTH sides have n >= 2 (variance undefined
    # below); the partial keeps every pair — a range seeing n=1 of a
    # globally-large side must still contribute
    "t_test": KindSpec(
        lambda e, q, lg: _one(*e.search_t_test(q, lg)),
        _schema("query_id " + " ".join(_TT) + " mean1:f64 mean2:f64 "
                "t_stat:f64"),
        partial="t_test_partial",
        merge=GroupSum(("query_id",), _sums(*_TT),
                       keep=lambda t: (_np(t, "n1") >= 2) & (_np(t, "n2") >= 2),
                       derived=("mean1", "mean2", "t_stat"), derive=_welch)),
    "t_test_partial": KindSpec(lambda e, q, lg: _one(*e.search_t_test(q, lg)),
                               _schema("query_id " + " ".join(_TT))),
    "cardinality": KindSpec(_cardinality_rows,
                            _schema("query_id cardinality"),
                            partial="cardinality_partial",
                            merge=_merge_cardinality),
    # the distinct (query_id, lang) pairs themselves: the exact-union
    # partial
    "cardinality_partial": KindSpec(
        lambda e, q, lg: (e.search_cardinality(q, lg),),
        _schema("query_id lang:str")),
    # mad and boxplot need the full value histogram, which IS the
    # percentiles partial (bounded by the dl domain)
    "percentiles": _hist_kind(_percentiles, _percentiles_schema),
    "mad": _hist_kind(lambda v, c, cfg: mad_from_hist(v, c),
                      "query_id n_hits median_dl mad_dl"),
    "boxplot": _hist_kind(lambda v, c, cfg: boxplot_from_hist(v, c),
                          "query_id n_hits min_dl q1_dl median_dl q3_dl "
                          "max_dl"),
    "percentiles_partial": KindSpec(_answer("search_dl_value_counts"),
                                    _schema("query_id dl n")),
    "rank_eval": KindSpec(_rank_eval_rows,
                          _schema("query_id n_rel rel_in_topk "
                                  "first_rel_rank")),
}


# TermSuggester's (query_id, rank, term, df) rows, emitted the same way
_SUGGEST = KindSpec(TermSuggester.suggest_one,
                    _schema("query_id rank term:str df"), ranked=True)


def _engine_cfg(k: int, scorer: str, engine_kwargs: dict | None):
    """The merge-side view of a pool's engine config: QueryEngine's
    keyword defaults overlaid with k, scorer and the engine_kwargs."""
    params = inspect.signature(QueryEngine.__init__).parameters.values()
    cfg = {p.name: p.default for p in params
           if p.default is not inspect.Parameter.empty}
    cfg.update(k=k, scorer=scorer, **(engine_kwargs or {}))
    return SimpleNamespace(**cfg)


def _merge_group(g: pa.Table, kind: str, cfg) -> pa.Table:
    spec = KINDS[kind]
    return spec.merge(g, cfg, spec)


def _resolved(engine_kwargs: dict | None) -> dict:
    """engine_kwargs with ``aux_index_dir`` resolved ONCE at the driver —
    per-actor resolution could mix field-index generations inside one job
    when an alias swaps mid pool construction."""
    from .alias import resolve_index

    kw = dict(engine_kwargs or {})
    if kw.get("aux_index_dir"):
        kw["aux_index_dir"] = resolve_index(kw["aux_index_dir"])
    return kw


def run_queries(
    queries_ds,
    index_dir: str,
    *,
    k: int = 10,
    scorer: str = "taat",
    concurrency: int | tuple[int, int] = 4,
    batch_size: int = 64,
    ord_range: "tuple[int, int] | None" = None,
    query_kind: str = "text",
    engine_kwargs: dict | None = None,
):
    """Queries Dataset -> results Dataset via the QueryEngine actor pool.

    ``query_kind`` selects a KINDS entry (e.g. "prefix" treats each query
    string as a term prefix — Lucene PrefixQuery; QueryEngine.search_prefix).
    ``engine_kwargs`` pass through to the QueryEngine constructor (e.g.
    ``synonyms`` for query_kind="synonym")."""
    # resolve an alias ONCE at the driver, not per actor — a blue-green
    # swap mid-pool-construction must not mix index generations inside
    # one result Dataset (the same holds for a second field index)
    from .alias import resolve_index

    index_dir = resolve_index(index_dir)
    # a small query table often arrives as one block, which would starve the
    # pool (1 block -> 1 task); split so every actor gets work
    n_actors = concurrency if isinstance(concurrency, int) else concurrency[1]
    queries_ds = queries_ds.repartition(max(n_actors * 2, 4))
    return queries_ds.map_batches(
        QueryEngine,
        fn_constructor_kwargs={"index_dir": index_dir, "k": k, "scorer": scorer,
                               "ord_range": ord_range, "query_kind": query_kind,
                               **_resolved(engine_kwargs)},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def run_queries_sharded(
    queries_ds,
    index_dir: str,
    *,
    k: int = 10,
    scorer: str = "taat",
    n_query_shards: int = 4,
    concurrency_per_shard: int | tuple[int, int] = 1,
    batch_size: int = 64,
    query_kind: str = "text",
    engine_kwargs: dict | None = None,
):
    """Doc-partitioned query fan-out: the 100x-scale serving shape.

    Every kind with a KINDS merge shards exactly: prefix/fuzzy expansion
    scans the (global) dictionary identically in every shard, and boolean
    presence sets are complete per ordinal range because every posting of
    an in-range doc is in-range — so each shard's filters and scores are
    final for its docs.

    The index's doc-ordinal space [0, n_docs) is cut into ``n_query_shards``
    contiguous ranges; each range gets its OWN QueryEngine actor pool whose
    actors decode only the posting blocks overlapping their range (resident
    set ~ index/n_shards — on a multi-node cluster each pool's actors
    schedule wherever there is room and never page the rest of the index).
    Reference analogue: Milvus distributes the sparse index across query
    nodes transparently (reference ingest.py:172); SURVEY §2.4 A4 prescribes
    exactly this partial-top-k + tiny merge.

    Each range runs the kind's partial kind (KindSpec.partial — e.g. the
    rescore window with bm25 + coord units, or the doc_len value histogram
    for percentiles/mad/boxplot); the kind's reducer merges one query's
    per-range rows — rank- and score-identical to the single-pool path
    (tested across shard counts).

    The merge is ``groupby(query_id).map_groups`` over the per-range rows of
    one query — one tiny task per query, never a data-scale shuffle.
    """
    spec = KINDS.get(query_kind)
    if spec is None or spec.merge is None:
        shardable = sorted(n for n, s in KINDS.items() if s.merge)
        raise ValueError(
            f"query_kind {query_kind!r} is not shard-mergeable "
            f"(supported: {shardable}); run it through run_queries instead")
    from .alias import resolve_index

    index_dir = resolve_index(index_dir)
    engine_kwargs = _resolved(engine_kwargs)
    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        n_docs = json.load(f)["n_docs"]
    n_shards = max(1, min(n_query_shards, n_docs))
    bounds = [(i * n_docs) // n_shards for i in range(n_shards + 1)]
    parts = [
        run_queries(
            queries_ds, index_dir, k=k, scorer=scorer,
            concurrency=concurrency_per_shard, batch_size=batch_size,
            ord_range=(lo, hi), query_kind=spec.partial or query_kind,
            engine_kwargs=engine_kwargs,
        )
        for lo, hi in zip(bounds, bounds[1:]) if lo < hi
    ]
    merged = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    return merged.groupby("query_id").map_groups(
        _merge_group, fn_args=(query_kind, _engine_cfg(k, scorer,
                                                       engine_kwargs)),
        batch_format="pyarrow")
