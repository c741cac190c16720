"""Merge and compaction into a directory that held another index.

The out dir below first holds a 200-file index whose forward arrays are in
the SHARDED layout (``docmap/``), which readers prefer over the flat files.
A merge or compaction into it must serve exactly what the same call into a
fresh dir serves: the writer removes the other layout.  An old sharded
tombstone layout (``tombstones.d/``) is refused where it would be read and
removed where a merge replaces the dir's contents.
"""

import json
import os
import shutil

import numpy as np
import pytest
import ray.data as rd

from splade_ray import build
from splade_ray.build import build_index
from splade_ray.corpus import generate_corpus, generate_queries
from splade_ray.delete import compact_index, delete_docs
from splade_ray.docmap import FlatDocArrays, open_doc_arrays
from splade_ray.merge import merge_index_dirs
from splade_ray.query import QueryEngine

ROOT = "/tmp/splade_ray_reused_dirs_test"
KW = dict(lang_tagged=True, n_shards=6, hot_df_min=40, hot_df_frac=0.05)


@pytest.fixture(scope="module")
def dirs(ray_session):
    """Inputs A and B (disjoint halves of one corpus) and STALE, a
    200-file index of another corpus in the sharded forward-array
    layout."""
    shutil.rmtree(ROOT, ignore_errors=True)
    tbl = generate_corpus(300, seed=12)
    a, b, stale = (os.path.join(ROOT, x) for x in ("a", "b", "stale"))
    build_index(rd.from_arrow(tbl.slice(0, 150)), a, **KW)
    build_index(rd.from_arrow(tbl.slice(150)), b, **KW)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build, "DRIVER_SORT_MAX_DOCS", 0)
        build_index(rd.from_arrow(generate_corpus(200, seed=13)), stale,
                    **KW)
    assert os.path.isdir(os.path.join(stale, "docmap"))
    yield {"a": a, "b": b, "stale": stale}
    shutil.rmtree(ROOT, ignore_errors=True)


def _reused(stale: str, name: str) -> str:
    out = os.path.join(ROOT, name)
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(stale, out)
    return out


def _fresh(name: str) -> str:
    out = os.path.join(ROOT, name)
    shutil.rmtree(out, ignore_errors=True)
    return out


def _assert_serves_alike(got: str, want: str) -> None:
    """Same forward arrays and MANIFEST n_docs, same answer to every
    generate_queries() query."""
    dg, dw = open_doc_arrays(got), open_doc_arrays(want)
    assert isinstance(dg, FlatDocArrays)
    with open(os.path.join(got, "MANIFEST.json")) as f:
        assert json.load(f)["n_docs"] == dg.n_docs == dw.n_docs
    for arrays in ("docmap_array", "doclens_array", "langvals_array"):
        np.testing.assert_array_equal(getattr(dg, arrays)(),
                                      getattr(dw, arrays)())
    eg, ew = QueryEngine(got, k=10), QueryEngine(want, k=10)
    q = generate_queries()
    for query, lang in zip(q["query"].to_pylist(), q["lang"].to_pylist()):
        rg, rw = (e.search_one(query, lang or None) for e in (eg, ew))
        assert rg[0].tolist() == rw[0].tolist(), query
        assert rg[1].tolist() == rw[1].tolist(), query


def test_merge_into_dir_with_sharded_docmap(dirs):
    out = _reused(dirs["stale"], "merged_reused")
    fresh = _fresh("merged_fresh")
    merge_index_dirs([dirs["a"], dirs["b"]], out)
    merge_index_dirs([dirs["a"], dirs["b"]], fresh)
    assert not os.path.exists(os.path.join(out, "docmap"))
    _assert_serves_alike(out, fresh)


def test_compact_into_dir_with_sharded_docmap(dirs):
    src = _fresh("compact_src")
    shutil.copytree(dirs["a"], src)
    ids = open_doc_arrays(src).docmap_array()
    delete_docs(src, ids[::4])
    out = _reused(dirs["stale"], "compacted_reused")
    fresh = _fresh("compacted_fresh")
    man = compact_index(src, out)
    compact_index(src, fresh)
    assert man["n_docs"] == len(ids) - len(ids[::4])
    assert not os.path.exists(os.path.join(out, "docmap"))
    _assert_serves_alike(out, fresh)


def test_old_sharded_tombstone_layout(dirs):
    """A dir holding tombstones.d/ refuses to serve, delete or compact
    (its deleted docs would come back); a merge into it removes it."""
    out = _reused(dirs["a"], "old_tombs")
    os.makedirs(os.path.join(out, "tombstones.d"))
    ids = open_doc_arrays(out).docmap_array()
    for call in (lambda: QueryEngine(out, k=10),
                 lambda: delete_docs(out, ids[:1]),
                 lambda: compact_index(out, _fresh("old_tombs_c"))):
        with pytest.raises(ValueError, match="tombstones.d"):
            call()
    merge_index_dirs([dirs["b"], dirs["stale"]], out)
    assert not os.path.exists(os.path.join(out, "tombstones.d"))
    assert len(QueryEngine(out, k=10).tomb) == 0
