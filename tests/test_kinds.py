"""The KINDS registry: each query kind is declared once, and that one
declaration drives QueryEngine validation, the actor emitter and the
sharded fan-out's partial kind + reducer."""

import shutil

import pyarrow as pa
import pytest
import ray.data as rd

from splade_ray.build import build_index
from splade_ray.corpus import generate_corpus
from splade_ray.query import KINDS, QueryEngine, run_queries_sharded

IDX = "/tmp/splade_ray_kinds_idx"
QUERIES = ["merge window", "def return value", "nonexistentzzterm"]


@pytest.fixture(scope="module")
def tiny(ray_session):
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(rd.from_arrow(generate_corpus(120, seed=5)), IDX,
                lang_tagged=False, n_shards=2)
    return IDX


def _input(kind: str, name: str, eng: QueryEngine) -> pa.Array:
    """One input column of a 3-query batch for ``kind``."""
    first_ids = [int(i) for i in eng.docs.gather_ids(
        pa.array(range(3)).to_numpy())]
    if name == "query":
        if kind == "mget":
            return pa.array([",".join(map(str, first_ids))] * 3)
        if kind.startswith(("adjacency", "t_test")):
            return pa.array([f"{q}|||def" for q in QUERIES])
        if kind in ("regexp", "wildcard"):  # patterns, not analyzed text
            return pa.array(["merg.*", "def", "zz[0-9]+"] if kind == "regexp"
                            else ["merg*", "def", "zz*"])
        return pa.array(QUERIES)
    lists = {"must": [["def"], [], ["zzz"]],
             "should": [["merge", "window"], ["return"], []],
             "must_not": [[], ["value"], []],
             "clauses": [[q, "merge"] for q in QUERIES]}
    if name in lists:
        return pa.array(lists[name], type=pa.list_(pa.string()))
    if name == "exclude_ids":
        return pa.array([first_ids[:1], [], []], type=pa.list_(pa.int64()))
    if name == "negative":
        return pa.array(["return", "", "merge"])
    ints = {"min_should_match": [1, 0, 0], "dl_lo": [0, 10, 20],
            "dl_hi": [100, 60, 30], "cursor_units": [10**10, 10**9, 0],
            "cursor_doc": [0, 0, 0], "doc_id": first_ids}
    return pa.array(ints[name], type=pa.int64())


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_emitted_batch_has_declared_schema(tiny, kind):
    spec = KINDS[kind]
    kw = {"aux_index_dir": tiny} if kind == "multi_match" else {}
    eng = QueryEngine(tiny, k=3, query_kind=kind, **kw)
    cols = {"query_id": pa.array([0, 1, 2], type=pa.int64())}
    cols.update({c: _input(kind, c, eng) for c in spec.inputs})
    batch = pa.table(cols)
    out = eng(batch)
    assert out.schema == spec.schema_for(eng)
    assert set(out["query_id"].to_pylist()) <= {0, 1, 2}
    # an empty batch still emits the declared schema
    assert eng(batch.slice(0, 0)).schema == spec.schema_for(eng)


def test_every_shardable_kind_has_partial_and_reducer():
    shardable = {n for n, s in KINDS.items() if s.merge is not None}
    # the 42 kinds that ride the doc-range fan-out exactly
    assert len(shardable) == 42
    for name in shardable:
        spec = KINDS[name]
        partial = spec.partial or name
        assert callable(spec.merge), name
        assert partial in KINDS, name
        # a partial kind is a per-range leg, never merged on its own
        if partial != name:
            assert KINDS[partial].merge is None, partial
    for name, spec in KINDS.items():
        if spec.merge is None:
            assert spec.partial is None, name


def test_unknown_kind_error_lists_registry(tiny):
    with pytest.raises(ValueError) as ei:
        QueryEngine(tiny, query_kind="no_such_kind")
    msg = str(ei.value)
    assert "no_such_kind" in msg
    assert all(name in msg for name in KINDS)
    q = pa.table({"query_id": pa.array([0], type=pa.int64()),
                  "query": ["merge"]})
    with pytest.raises(ValueError, match="not shard-mergeable") as ei:
        run_queries_sharded(rd.from_arrow(q), tiny, query_kind="no_such_kind")
    assert all(n in str(ei.value) for n, s in KINDS.items() if s.merge)


def test_vectorized_emit_matches_per_row_reference(tiny):
    """The emitter divides whole unit columns by SCORE_SCALE and derives
    avg_dl with float64 numpy; the reference is the per-row Python
    arithmetic the emitter replaced (exact while values stay < 2^53)."""
    import numpy as np

    from splade_ray.build import SCORE_SCALE
    from splade_ray.query import _avg_dl

    eng = QueryEngine(tiny, k=5)
    out = eng(pa.table({"query_id": pa.array([0, 1, 2], type=pa.int64()),
                        "query": QUERIES}))
    want = []
    for qid, q in enumerate(QUERIES):
        ids, units = eng.search_one(q)
        want += [(qid, r, int(d), int(u) / SCORE_SCALE)
                 for r, (d, u) in enumerate(zip(ids, units), start=1)]
    assert list(zip(*(out[c].to_pylist() for c in out.column_names))) == want
    rng = np.random.default_rng(3)
    units = rng.integers(0, 2**53, 10_000, dtype=np.int64)
    assert (units / SCORE_SCALE).tolist() == [int(u) / SCORE_SCALE
                                              for u in units]
    n = rng.integers(1, 2**20, 1000, dtype=np.int64)
    s = rng.integers(0, 2**52, 1000, dtype=np.int64)
    t = pa.table({"n_hits": n, "sum_dl": s})
    assert _avg_dl(t)[0].tolist() == [int(a) / int(b) for a, b in zip(s, n)]
