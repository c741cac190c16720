"""Positional posting sidecar (build_index(positions=True)): codec
round-trips, analyzer position derivation, range-restricted gather, the
index-native phrase/NEAR verify+score path, and positions surviving
merge / delete+compact.

Ground truth everywhere is a brute-force Python pass over the same corpus
(tokens_py), so the tests pin SEMANTICS (within-doc 0-based token
positions, grouped per term in the terms list's order), not the encoding.
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from splade_ray.analyzer import tokens_py
from splade_ray.build import SCORE_SCALE, build_index
from splade_ray.codecs import (decode_positions_range, encode_positions,
                               encode_postings, take_slices, tf_saturation)
from splade_ray.corpus import generate_corpus
from splade_ray.docmap import open_doc_arrays
from splade_ray.phrase import index_stats, positional_units
from splade_ray.query import QueryEngine

IDX = "/tmp/splade_ray_positional_idx"
N_FILES = 220


# --------------------------------------------------------------- codecs ---


def test_take_slices_matches_python_loop():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 6, 40)
    flat = rng.integers(0, 1000, int(counts.sum()))
    starts = np.concatenate([[0], np.cumsum(counts)])
    for sel in ([], [0], [5, 2, 2, 39], list(rng.permutation(40))):
        sel = np.asarray(sel, dtype=np.int64)
        want = np.concatenate(
            [flat[starts[i]:starts[i + 1]] for i in sel]
            or [flat[:0]])
        got = take_slices(flat, counts, sel)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("max_pos", [120, 100_000])
def test_positions_codec_roundtrip(max_pos):
    """Full + every contiguous block-range decode equals the input; the
    small-max_pos case exercises the all-one-byte-delta fast path."""
    rng = np.random.default_rng(11)
    n = 700
    ids = np.sort(rng.choice(10 * n, n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 9, n).astype(np.int32)
    pos = np.concatenate([
        np.sort(rng.choice(max_pos, k, replace=False)) for k in tfs
    ]).astype(np.int64)
    dls = rng.integers(10, 500, n).astype(np.int32)
    blob, meta = encode_postings(ids, tfs, dls, 100.0)
    pblob, pnb = encode_positions(tfs, pos, meta.block_count)
    bc = np.asarray(meta.block_count)
    assert len(pnb) == len(bc)
    for b_lo in range(len(bc)):
        for b_hi in range(b_lo + 1, len(bc) + 1):
            lo_p, hi_p = int(bc[:b_lo].sum()), int(bc[:b_hi].sum())
            got = decode_positions_range(pblob, pnb, tfs[lo_p:hi_p],
                                         b_lo, b_hi)
            want = take_slices(pos, tfs, np.arange(lo_p, hi_p))
            assert np.array_equal(got, want), (b_lo, b_hi)


def test_positions_codec_rejects_mismatched_counts():
    tfs = np.array([2, 1], dtype=np.int32)
    _, meta = encode_postings(np.array([3, 9]), tfs,
                              np.array([5, 5]), 5.0)
    with pytest.raises(ValueError):
        encode_positions(tfs, np.array([0, 4]), meta.block_count)


# ------------------------------------------------------------- analyzer ---


def _brute_positions(text: str) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for i, tok in enumerate(tokens_py(text)):
        out.setdefault(tok, []).append(i)
    return out


def test_analyzer_positions_group_by_term_in_terms_order():
    from splade_ray.analyzer import (doc_token_positions_from_flat,
                                     tokenize_flat)
    import pyarrow.compute as pc

    texts = ["the cat sat on the mat", "", "a b a b a", "solo"]
    content = pa.array(texts)
    flat, parents = tokenize_flat(pc.fill_null(content, ""), None)
    terms, tfs, doc_len, positions = doc_token_positions_from_flat(
        flat, parents, len(texts))
    for row, text in enumerate(texts):
        want = _brute_positions(text)
        t_row = terms[row].as_py()
        tf_row = tfs[row].as_py()
        pos_row = positions[row].as_py()
        assert doc_len[row] == len(tokens_py(text))
        assert len(pos_row) == doc_len[row]
        off = 0
        for t, tf in zip(t_row, tf_row):
            assert pos_row[off:off + tf] == want[t], (row, t)
            off += tf
        assert set(t_row) == set(want)


def test_analyzer_positions_empty_input():
    from splade_ray.analyzer import doc_token_positions_from_flat

    flat = pa.array([], type=pa.string())
    terms, tfs, doc_len, positions = doc_token_positions_from_flat(
        flat, np.zeros(0, dtype=np.int64), 3)
    assert positions.to_pylist() == [[], [], []]


# ------------------------------------------------------------ index e2e ---


@pytest.fixture(scope="module")
def built(ray_session):
    tbl = generate_corpus(N_FILES, seed=91)
    shutil.rmtree(IDX, ignore_errors=True)
    man = build_index(rd.from_arrow(tbl).repartition(3), IDX,
                      lang_tagged=False, n_shards=4,
                      hot_df_min=30, hot_df_frac=0.05,
                      positions=True)
    return tbl, man


def _ordinal_tokens(tbl: pa.Table) -> dict[int, list[str]]:
    """doc ordinal -> token list, brute-force (ordinal = rank in sorted
    63-bit id space over kept rows, the build's numbering)."""
    from splade_ray.ids import doc_id63_column

    ids = doc_id63_column(tbl["repo"], tbl["path"], tbl["commit"]) \
        .to_numpy(zero_copy_only=False)
    texts = tbl["content"].to_pylist()
    kept = [(ids[i], txt) for i, txt in enumerate(texts)
            if txt is not None and txt.strip()]
    kept.sort(key=lambda kv: kv[0])
    return {o: tokens_py(txt) for o, (_, txt) in enumerate(kept)}


def test_manifest_flags_positions(built):
    _, man = built
    assert man["positions"] is True
    seg0 = os.path.join(IDX, "segments", man["segments"][0]["segment_id"])
    assert os.path.exists(os.path.join(seg0, "positions.bin"))


@pytest.mark.parametrize("term", ["def", "import", "data", "return"])
def test_gather_range_pos_matches_bruteforce(built, term):
    tbl, _ = built
    toks = _ordinal_tokens(tbl)
    eng = QueryEngine(IDX)
    ids, tfs, pos = eng._gather_range_pos(term)
    want = {o: [i for i, t in enumerate(ts) if t == term]
            for o, ts in toks.items() if term in ts}
    assert ids.tolist() == sorted(want)
    off = 0
    for o, tf in zip(ids, tfs):
        assert pos[off:off + tf].tolist() == want[int(o)]
        off += tf
    assert off == len(pos)


def test_gather_range_pos_range_restricted_equals_slice(built):
    tbl, man = built
    n = man["n_docs"]
    eng_full = QueryEngine(IDX)
    ids_f, tfs_f, pos_f = eng_full._gather_range_pos("def")
    lo, hi = n // 4, 3 * n // 4
    eng = QueryEngine(IDX, ord_range=(lo, hi))
    ids, tfs, pos = eng._gather_range_pos("def")
    m = (ids_f >= lo) & (ids_f < hi)
    assert np.array_equal(ids, ids_f[m])
    assert np.array_equal(tfs, tfs_f[m])
    assert np.array_equal(pos, take_slices(pos_f, tfs_f, np.flatnonzero(m)))


def test_gather_range_pos_requires_positional_index(ray_session, tmp_path):
    idx = str(tmp_path / "plain")
    build_index(rd.from_arrow(generate_corpus(40, seed=1)), idx,
                lang_tagged=False, n_shards=2)
    with pytest.raises(ValueError, match="positions"):
        QueryEngine(idx)._gather_range_pos("def")
    with pytest.raises(ValueError, match="positions"):
        positional_units(idx, [], {})


# ----------------------------------------------- phrase / NEAR semantics ---


def _brute_phrase_docs(toks: dict[int, list[str]],
                       phrase: list[str]) -> set[int]:
    k = len(phrase)
    return {o for o, ts in toks.items()
            if any(ts[i:i + k] == phrase for i in range(len(ts) - k + 1))}


def _brute_near_docs(toks: dict[int, list[str]], a: str, b: str,
                     slop: int, ordered: bool) -> set[int]:
    out = set()
    for o, ts in toks.items():
        pa_ = [i for i, t in enumerate(ts) if t == a]
        pb_ = [i for i, t in enumerate(ts) if t == b]
        for p in pa_:
            for q in pb_:
                d = q - p
                if (0 < d <= slop) if ordered else (abs(d) <= slop):
                    out.add(o)
    return out


def _units_by_qid_doc(idx: str, specs, weights, n_ranges=None):
    ds = positional_units(idx, specs, weights, n_ranges=n_ranges)
    agg: dict[tuple[int, int], int] = {}
    for row in ds.take_all():
        key = (row["query_id"], row["doc_id"])
        agg[key] = agg.get(key, 0) + row["units"]
    return agg


def _expected_units(toks, verified: set[int], qid: int, qterms, idx: str,
                    docs) -> dict[tuple[int, int], int]:
    """Brute-force BM25 units over verified ordinals, same quantization as
    the engine (round(qtf*idf*sat*SCALE) per term, summed)."""
    import math

    n_docs, avgdl, dfs = index_stats(idx, sorted({t for t, _ in qterms}))
    out: dict[tuple[int, int], int] = {}
    for o in verified:
        ts = toks[o]
        units = 0
        for t, qtf in qterms:
            tf = ts.count(t)
            if tf == 0 or t not in dfs:
                continue
            idf = math.log(1.0 + (n_docs - dfs[t] + 0.5) / (dfs[t] + 0.5))
            sat = tf_saturation(np.array([tf], dtype=np.int32),
                                np.array([len(ts)], dtype=np.int32), avgdl)
            units += int(np.round(qtf * idf * sat[0] * SCORE_SCALE))
        doc_id = int(docs.gather_ids(np.array([o], dtype=np.int64))[0])
        out[(qid, doc_id)] = units
    return out


@pytest.mark.parametrize("n_ranges", [1, 3])
def test_positional_phrase_matches_bruteforce(built, n_ranges):
    tbl, _ = built
    toks = _ordinal_tokens(tbl)
    docs = open_doc_arrays(IDX)
    import math

    phrases = {1: ["def", "main"], 2: ["import", "numpy"],
               3: ["the", "the"], 4: ["zzqq", "missing"]}
    specs = [{"qid": q, "kind": "phrase", "tokens": p}
             for q, p in phrases.items()]
    weights: dict[int, list] = {}
    n_docs, _, dfs = index_stats(
        IDX, sorted({t for p in phrases.values() for t in p}))
    for q, p in phrases.items():
        tf: dict[str, int] = {}
        for t in p:
            tf[t] = tf.get(t, 0) + 1
        weights[q] = [
            (t, c * math.log(1.0 + (n_docs - dfs[t] + 0.5) / (dfs[t] + 0.5)))
            for t, c in tf.items() if t in dfs]
    got = _units_by_qid_doc(IDX, specs, weights, n_ranges=n_ranges)
    want: dict[tuple[int, int], int] = {}
    for q, p in phrases.items():
        verified = _brute_phrase_docs(toks, p)
        qterms = [(t, p.count(t)) for t in dict.fromkeys(p)]
        want.update(_expected_units(toks, verified, q, qterms, IDX, docs))
    assert got == want


@pytest.mark.parametrize("ordered", [True, False])
def test_positional_near_matches_bruteforce(built, ordered):
    tbl, _ = built
    toks = _ordinal_tokens(tbl)
    docs = open_doc_arrays(IDX)

    cases = {1: ("def", "return", 20), 2: ("import", "data", 5)}
    specs = [{"qid": q, "kind": "near", "a": a, "b": b, "slop": s,
              "ordered": ordered} for q, (a, b, s) in cases.items()]
    weights = {}
    import math

    n_docs, _, dfs = index_stats(
        IDX, sorted({t for a, b, _ in cases.values() for t in (a, b)}))
    for q, (a, b, _) in cases.items():
        weights[q] = [
            (t, math.log(1.0 + (n_docs - dfs[t] + 0.5) / (dfs[t] + 0.5)))
            for t in (a, b) if t in dfs]
    got = _units_by_qid_doc(IDX, specs, weights)
    want: dict[tuple[int, int], int] = {}
    for q, (a, b, s) in cases.items():
        verified = _brute_near_docs(toks, a, b, s, ordered)
        want.update(_expected_units(toks, verified, q,
                                    [(a, 1), (b, 1)], IDX, docs))
    assert got == want


def _brute_span_docs(toks: dict[int, list[str]], terms: list[str],
                     window: int, ordered: bool) -> set[int]:
    """All-assignments brute force for the multi-term span window."""
    import itertools

    out = set()
    for o, ts in toks.items():
        pos = [[i for i, t in enumerate(ts) if t == q] for q in terms]
        if any(not p for p in pos):
            continue
        for combo in itertools.product(*pos):
            if ordered and any(combo[i] <= combo[i - 1]
                               for i in range(1, len(combo))):
                continue
            if max(combo) - min(combo) <= window:
                out.add(o)
                break
    return out


@pytest.mark.parametrize("ordered", [True, False])
@pytest.mark.parametrize("n_ranges", [1, 3])
def test_positional_span_matches_bruteforce(built, ordered, n_ranges):
    """Multi-term span-NEAR kernel (greedy chain DP / min-window sweep) vs
    the all-assignments brute force, across range fan-outs."""
    tbl, _ = built
    toks = _ordinal_tokens(tbl)
    docs = open_doc_arrays(IDX)
    import math

    cases = {1: (["def", "return"], 12), 2: (["import", "data", "def"], 25),
             3: (["def", "import", "zzqq"], 10)}
    specs = [{"qid": q, "kind": "span", "terms": t, "window": w,
              "ordered": ordered} for q, (t, w) in cases.items()]
    n_docs, _, dfs = index_stats(
        IDX, sorted({t for ts, _ in cases.values() for t in ts}))
    weights = {
        q: [(t, math.log(1.0 + (n_docs - dfs[t] + 0.5) / (dfs[t] + 0.5)))
            for t in ts if t in dfs]
        for q, (ts, _) in cases.items()
    }
    got = _units_by_qid_doc(IDX, specs, weights, n_ranges=n_ranges)
    want: dict[tuple[int, int], int] = {}
    for q, (ts, w) in cases.items():
        verified = _brute_span_docs(toks, ts, w, ordered)
        want.update(_expected_units(toks, verified, q,
                                    [(t, 1) for t in ts], IDX, docs))
    assert got == want


def test_positional_span_rejects_duplicate_terms(built):
    specs = [{"qid": 1, "kind": "span", "terms": ["def", "def"],
              "window": 5, "ordered": True}]
    import ray.exceptions

    with pytest.raises((ValueError, ray.exceptions.RayTaskError)):
        positional_units(IDX, specs, {1: [("def", 1.0)]}).take_all()


def test_positional_units_masks_tombstones(built):
    tbl, _ = built
    toks = _ordinal_tokens(tbl)
    from splade_ray.delete import delete_docs

    # a bigram guaranteed present: the first two tokens of some multi-token doc
    bigram = next(ts[:2] for ts in toks.values() if len(ts) >= 2)
    specs = [{"qid": 1, "kind": "phrase", "tokens": bigram}]
    weights = {1: [(t, 1.0) for t in dict.fromkeys(bigram)]}
    base = _units_by_qid_doc(IDX, specs, weights)
    assert base, "fixture corpus must contain the phrase"
    victim_doc = sorted(d for _, d in base)[0]
    docs = open_doc_arrays(IDX)
    try:
        delete_docs(IDX, [victim_doc])
        masked = _units_by_qid_doc(IDX, specs, weights)
        assert set(masked) == set(base) - {(1, victim_doc)}
    finally:
        os.remove(os.path.join(IDX, "tombstones.bin"))


# ------------------------------------------------- merge / compact / resume ---


def test_compact_preserves_positions(built, tmp_path, ray_session):
    """Delete docs, compact: the compacted index answers phrase queries
    equal to brute-force over the surviving docs (positions re-sliced and
    ordinals remapped correctly)."""
    tbl, man = built
    toks = _ordinal_tokens(tbl)
    from splade_ray.delete import compact_index, delete_docs

    src = str(tmp_path / "src")
    shutil.copytree(IDX, src)
    docs = open_doc_arrays(src)
    dead_ords = np.arange(0, man["n_docs"], 7, dtype=np.int64)
    delete_docs(src, docs.gather_ids(dead_ords))
    out = str(tmp_path / "compacted")
    cman = compact_index(src, out)
    assert cman["positions"] is True

    live_toks = {o: ts for o, ts in toks.items() if o % 7 != 0}
    # re-ordinal: surviving docs renumbered densely in old-ordinal order
    renum = {o: i for i, o in enumerate(sorted(live_toks))}
    eng = QueryEngine(out)
    for term in ["def", "import"]:
        ids, tfs, pos = eng._gather_range_pos(term)
        want = {renum[o]: [i for i, t in enumerate(ts) if t == term]
                for o, ts in live_toks.items() if term in ts}
        assert ids.tolist() == sorted(want)
        off = 0
        for o, tf in zip(ids, tfs):
            assert pos[off:off + tf].tolist() == want[int(o)]
            off += tf


def test_merge_propagates_positions(ray_session, tmp_path):
    """Two positional generations merge into a positional index whose
    per-term positions equal brute-force over the union corpus; merging
    positional with non-positional refuses."""
    from splade_ray.merge import merge_index_dirs

    union = generate_corpus(120, seed=7)
    t1, t2 = union.slice(0, 70), union.slice(70)
    i1, i2 = str(tmp_path / "i1"), str(tmp_path / "i2")
    build_index(rd.from_arrow(t1), i1, lang_tagged=False, n_shards=2,
                positions=True)
    build_index(rd.from_arrow(t2), i2, lang_tagged=False, n_shards=2,
                positions=True)
    out = str(tmp_path / "merged")
    mman = merge_index_dirs([i1, i2], out)
    assert mman["positions"] is True
    toks = _ordinal_tokens(union)
    eng = QueryEngine(out)
    for term in ["def", "return"]:
        ids, tfs, pos = eng._gather_range_pos(term)
        want = {o: [i for i, t in enumerate(ts) if t == term]
                for o, ts in toks.items() if term in ts}
        assert ids.tolist() == sorted(want)
        off = 0
        for o, tf in zip(ids, tfs):
            assert pos[off:off + tf].tolist() == want[int(o)]
            off += tf

    plain = str(tmp_path / "plain")
    build_index(rd.from_arrow(generate_corpus(30, seed=9)), plain,
                lang_tagged=False, n_shards=2)
    with pytest.raises(ValueError, match="positional"):
        merge_index_dirs([i1, plain], str(tmp_path / "bad"))


def test_positions_flag_invalidates_resume(ray_session, tmp_path):
    """A finished non-positional build must NOT fast-resume a
    positions=True request (and vice versa): the flag is part of the
    build identity."""
    import pyarrow.parquet as pq

    src = tmp_path / "c.parquet"
    pq.write_table(generate_corpus(40, seed=4), src)
    idx = str(tmp_path / "idx")
    m1 = build_index(rd.read_parquet(str(src)), idx, lang_tagged=False,
                     n_shards=2)
    assert not m1.get("positions")
    m2 = build_index(rd.read_parquet(str(src)), idx, lang_tagged=False,
                     n_shards=2, positions=True)
    assert m2["positions"] is True
    QueryEngine(idx)._gather_range_pos("def")  # really positional now
    m3 = build_index(rd.read_parquet(str(src)), idx, lang_tagged=False,
                     n_shards=2)
    assert not m3.get("positions")


def test_near_identical_terms_rejected(built):
    """NEAR with a == b would self-match every occurrence in unordered
    mode; the kernel refuses (the CLI rejects it earlier with an error)."""
    import ray.exceptions

    specs = [{"qid": 1, "kind": "near", "a": "def", "b": "def",
              "slop": 3, "ordered": False}]
    with pytest.raises((ValueError, ray.exceptions.RayTaskError)):
        positional_units(IDX, specs, {1: [("def", 1.0)]}).take_all()


def _brute_span_or_docs(toks: dict[int, list[str]],
                        clauses: list[list[str]]) -> set[int]:
    out: set[int] = set()
    for c in clauses:
        out |= _brute_phrase_docs(toks, c)
    return out


def _brute_span_not_docs(toks: dict[int, list[str]], inc: list[str],
                         ex: str, pre: int, post: int) -> set[int]:
    n = len(inc)
    out = set()
    for o, ts in toks.items():
        epos = {i for i, t in enumerate(ts) if t == ex}
        for i in range(len(ts) - n + 1):
            if ts[i:i + n] != inc:
                continue
            lo, hi = i - pre, i + n - 1 + post
            if not any(lo <= e <= hi for e in epos):
                out.add(o)
                break
    return out


def _bag_weights(idx: str, bags: dict[int, list[tuple[str, int]]]):
    import math

    n_docs, _, dfs = index_stats(
        idx, sorted({t for b in bags.values() for t, _ in b}))
    return {q: [(t, c * math.log(1.0 + (n_docs - dfs[t] + 0.5)
                                 / (dfs[t] + 0.5)))
                for t, c in bag if t in dfs]
            for q, bag in bags.items()}


@pytest.mark.parametrize("n_ranges", [1, 3])
def test_positional_span_or_matches_bruteforce(built, n_ranges):
    """SpanOrQuery: union of clause phrase matches; scored over the full
    clause-token bag restricted to verified docs."""
    tbl, _ = built
    toks = _ordinal_tokens(tbl)
    docs = open_doc_arrays(IDX)
    cases = {1: [["def", "main"], ["import", "numpy"]],
             2: [["return"], ["zzqq", "missing"]],
             3: [["the", "the"], ["def"]],
             4: [["zzqq"]]}
    specs = [{"qid": q, "kind": "span_or", "clauses": c}
             for q, c in cases.items()]
    bags = {}
    for q, c in cases.items():
        tf: dict[str, int] = {}
        for toks_c in c:
            for t in toks_c:
                tf[t] = tf.get(t, 0) + 1
        bags[q] = list(tf.items())
    got = _units_by_qid_doc(IDX, specs, _bag_weights(IDX, bags),
                            n_ranges=n_ranges)
    want: dict[tuple[int, int], int] = {}
    for q, c in cases.items():
        verified = _brute_span_or_docs(toks, c)
        want.update(_expected_units(toks, verified, q, bags[q], IDX, docs))
    want = {k: v for k, v in want.items() if v}
    got = {k: v for k, v in got.items() if v}
    assert got == want


@pytest.mark.parametrize("n_ranges", [1, 3])
def test_positional_span_not_matches_bruteforce(built, n_ranges):
    """SpanNotQuery: include phrase matches surviving the pre/post exclude
    window; the exclusion must actually kill docs (asserted) and windows
    must clamp at doc starts."""
    tbl, _ = built
    toks = _ordinal_tokens(tbl)
    docs = open_doc_arrays(IDX)
    cases = {1: (["def"], "return", 3, 3),
             2: (["import"], "def", 0, 2),
             3: (["the"], "the", 2, 2),    # self-exclude: nonadjacent 'the'
             4: (["def", "main"], "import", 1, 1)}
    specs = [{"qid": q, "kind": "span_not", "tokens": inc, "exclude": ex,
              "pre": pre, "post": post}
             for q, (inc, ex, pre, post) in cases.items()]
    bags = {q: [(t, inc.count(t)) for t in dict.fromkeys(inc)]
            for q, (inc, *_r) in cases.items()}
    got = _units_by_qid_doc(IDX, specs, _bag_weights(IDX, bags),
                            n_ranges=n_ranges)
    want: dict[tuple[int, int], int] = {}
    killed_any = False
    for q, (inc, ex, pre, post) in cases.items():
        verified = _brute_span_not_docs(toks, inc, ex, pre, post)
        plain = _brute_phrase_docs(toks, inc)
        if plain - verified:
            killed_any = True
        want.update(_expected_units(toks, verified, q, bags[q], IDX, docs))
    assert killed_any  # the exclusion is actually exercised
    want = {k: v for k, v in want.items() if v}
    got = {k: v for k, v in got.items() if v}
    assert got == want


def _brute_span_contain_docs(toks: dict[int, list[str]], ba: str, bb: str,
                             win: int, little: list[str]) -> set[int]:
    n = len(little)
    out = set()
    for o, ts in toks.items():
        apos = [i for i, t in enumerate(ts) if t == ba]
        bpos = [i for i, t in enumerate(ts) if t == bb]
        for i in range(len(ts) - n + 1):
            if ts[i:i + n] != little:
                continue
            end = i + n - 1
            if any(a <= i and b >= end and b - a <= win
                   for a in apos for b in bpos):
                out.add(o)
                break
    return out


@pytest.mark.parametrize("n_ranges", [1, 3])
def test_positional_span_contain_matches_bruteforce(built, n_ranges):
    """SpanContaining/SpanWithin doc condition: a (big_a, big_b) occurrence
    pair spanning <= window fully contains a little phrase match.  The
    window bound must actually kill docs where both spans exist but never
    nest (asserted), and big occurrences must come from the SAME doc."""
    tbl, _ = built
    toks = _ordinal_tokens(tbl)
    docs = open_doc_arrays(IDX)
    # (big_a, big_b, window, little): tight windows (q1-q3) exercise kills
    # (minimal containing widths in this corpus run 2..95); q4 dead big
    cases = {1: ("stream", "count", 6, ["doc"]),
             2: ("user", "rank", 10, ["min"]),
             3: ("data", "load", 4, ["handler"]),
             4: ("zzqq", "def", 5, ["main"])}
    specs = [{"qid": q, "kind": "contain", "big_a": a, "big_b": b,
              "window": w, "tokens": lt}
             for q, (a, b, w, lt) in cases.items()]
    # score the big side (the SpanContaining weight shape); the little-side
    # bag is the same kernel with different weights (contract oracles pin it)
    bags = {q: [(a, 1), (b, 1)] for q, (a, b, _w, _lt) in cases.items()}
    got = _units_by_qid_doc(IDX, specs, _bag_weights(IDX, bags),
                            n_ranges=n_ranges)
    want: dict[tuple[int, int], int] = {}
    killed_any = False
    for q, (a, b, w, lt) in cases.items():
        verified = _brute_span_contain_docs(toks, a, b, w, lt)
        loose = _brute_span_contain_docs(toks, a, b, 1 << 30, lt)
        if loose - verified:
            killed_any = True
        want.update(_expected_units(toks, verified, q, bags[q], IDX, docs))
    assert killed_any  # the window bound is actually exercised
    want = {k: v for k, v in want.items() if v}
    got = {k: v for k, v in got.items() if v}
    assert got == want


def test_span_contain_identical_big_terms_rejected(built):
    import ray.exceptions

    specs = [{"qid": 1, "kind": "contain", "big_a": "def", "big_b": "def",
              "window": 4, "tokens": ["main"]}]
    with pytest.raises((ValueError, ray.exceptions.RayTaskError)):
        positional_units(IDX, specs, {1: [("def", 1.0)]}).take_all()


def _brute_multi_phrase_docs(toks: dict[int, list[str]],
                             positions: list[list[str]]) -> set[int]:
    n = len(positions)
    out = set()
    for o, ts in toks.items():
        for i in range(len(ts) - n + 1):
            if all(ts[i + j] in positions[j] for j in range(n)):
                out.add(o)
                break
    return out


@pytest.mark.parametrize("n_ranges", [1, 3])
def test_positional_multi_phrase_matches_bruteforce(built, n_ranges):
    """MultiPhraseQuery: consecutive chain with per-position alternative
    sets; the union must recruit docs a single-alternative phrase misses
    (asserted)."""
    tbl, _ = built
    toks = _ordinal_tokens(tbl)
    docs = open_doc_arrays(IDX)
    # alternatives chosen so the union genuinely recruits: 'stream data'
    # and 'stream write' / 'doc import' and 'doc codec' are both frequent
    # bigrams with different doc sets in this corpus
    cases = {1: [["stream"], ["data", "write"]],
             2: [["doc"], ["import", "codec"]],
             3: [["import"], ["zzqq"], ["def"]],
             4: [["def", "return", "import"]]}
    specs = [{"qid": q, "kind": "multi_phrase", "positions": ps}
             for q, ps in cases.items()]
    bags = {}
    for q, ps in cases.items():
        tf: dict[str, int] = {}
        for alts in ps:
            for t in alts:
                tf[t] = tf.get(t, 0) + 1
        bags[q] = list(tf.items())
    got = _units_by_qid_doc(IDX, specs, _bag_weights(IDX, bags),
                            n_ranges=n_ranges)
    want: dict[tuple[int, int], int] = {}
    recruited = False
    for q, ps in cases.items():
        verified = _brute_multi_phrase_docs(toks, ps)
        if len(ps) > 1 and any(len(a) > 1 for a in ps):
            single = _brute_multi_phrase_docs(toks, [[a[0]] for a in ps])
            if verified - single:
                recruited = True
        want.update(_expected_units(toks, verified, q, bags[q], IDX, docs))
    assert recruited  # the alternatives actually widen the match set
    want = {k: v for k, v in want.items() if v}
    got = {k: v for k, v in got.items() if v}
    assert got == want
