"""The served-entry table (pipelines.SERVED): each engine-served contract
entry is one row, and the module generates its function and doc-range
twin from it.  Everything here runs without building an index."""

import inspect
import os
import sys

import pyarrow as pa
import pytest

from splade_ray import pipelines as p
from splade_ray.query import KINDS, PERCENTILE_QS, QueryEngine, _engine_cfg

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import __ray_entry__ as entry  # noqa: E402

TWINS = [r.name + "_sharded" for r in p.SERVED if r.shard]
GENERATED = [r.name for r in p.SERVED] + TWINS


def test_rows_name_registered_kinds():
    assert len({r.name for r in p.SERVED}) == len(p.SERVED)
    for r in p.SERVED:
        assert r.kind in KINDS, r.name
        method = p._METHOD.get(r.kind, "search_" + r.kind)
        assert callable(getattr(QueryEngine, method)), (r.name, method)


def test_shard_rows_have_a_merge():
    for r in p.SERVED:
        if r.shard:
            assert KINDS[r.kind].merge is not None, r.name


def test_generated_entries_are_in_the_catalog():
    queries, oracles = entry.queries(), entry.oracle_sql()
    for name in GENERATED:
        fn = getattr(p, name)
        assert fn.__name__ == fn.__qualname__ == name
        assert fn.__doc__ and "\n" not in fn.__doc__
    for name in GENERATED + ["bm25_topk_sharded"]:
        assert name in queries and name in oracles, name
    # a twin answers with its single-pool entry's oracle, word for word
    for name in TWINS:
        assert oracles[name] == oracles[name[:-len("_sharded")]]
    assert oracles["bm25_topk_sharded"] == oracles["bm25_topk_taat"]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_serve_widens_every_int32_column(kind):
    cfg = _engine_cfg(p.TOP_K, "taat", None)
    assert cfg.percentile_qs == PERCENTILE_QS
    empty = KINDS[kind].schema_for(cfg).empty_table()
    wide = p._i64(empty, p._wide_ints(kind, cfg))
    assert pa.int32() not in wide.schema.types
    assert wide.schema.names == empty.schema.names


@pytest.mark.parametrize("name", GENERATED)
def test_generated_entry_takes_only_sf_dir(name):
    fn = getattr(p, name)
    assert list(inspect.signature(fn).parameters) == ["sf_dir"]
    with pytest.raises(TypeError):
        fn("unused", top_k=5)  # fails at the call, before any work


def test_removed_options_stay_removed():
    for fn, gone in ((p.bm25_topk, "n_query_shards"),
                     (p.mlt_topk, "top_k"),
                     (p.search_after_topk, "top_k"),
                     (p._serve, "k"), (p._serve, "ints"),
                     (p._serve, "concurrency")):
        assert gone not in inspect.signature(fn).parameters, (fn, gone)


def test_cache_dirs_are_per_checkout(monkeypatch):
    sf = "/data/sf0.01"
    monkeypatch.setattr(p, "_PKG", "/checkout/a/splade_ray")
    a = os.path.dirname(p._cache_dir("index", sf))
    monkeypatch.setattr(p, "_PKG", "/checkout/b/splade_ray")
    b = os.path.dirname(p._cache_dir("index", sf))
    assert a != b
    assert not a.startswith(b + os.sep) and not b.startswith(a + os.sep)
    assert os.path.dirname(p._cache_dir("index", "/data/sf0.1")) != b


def test_every_contract_index_lands_in_cache_dir(monkeypatch):
    """Each contract index helper (content, positional, source field,
    merge generations, deleted base) builds under _cache_dir."""
    from splade_ray import delete, merge

    sf = "/data/sf0.01"
    built = []

    class _Corpus:  # stands in for the corpus Dataset
        def map_batches(self, *a, **kw):
            return self

    def fake_build(_ds, idx, **kw):
        built.append(idx)
        return {"corpus_fp": kw.get("corpus_fp"), "n_docs": 1}

    monkeypatch.setattr(p, "build_index", fake_build)
    monkeypatch.setattr(p, "fingerprint_files", lambda paths: "fp")
    monkeypatch.setattr(p, "corpus_ds", lambda sf_dir: _Corpus())
    monkeypatch.setattr(p, "source_field_corpus_ds", lambda sf_dir: _Corpus())
    monkeypatch.setattr(p, "_dead_doc_ids", lambda idx: [])
    monkeypatch.setattr(delete, "delete_docs", lambda idx, ids: 0)
    monkeypatch.setattr(merge, "merge_index_dirs",
                        lambda gens, out: built.append(out))
    monkeypatch.setattr(p, "_serve", lambda idx, *a, **kw: idx)
    p._contract_index(sf)
    p._contract_index_pos(sf)
    p._contract_index_src(sf)
    p._deleted_index(sf)
    p.bm25_topk_merged(sf)
    root = os.path.dirname(p._cache_dir("index", sf))
    assert len(built) == 7  # merged: 2 generations + the merge
    assert all(d.startswith(root + os.sep) for d in built), built
    assert len(set(built)) == len(built)
