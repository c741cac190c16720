"""Adversarial scorer parity on a ties-heavy corpus.

The driver's word-soup ``documents`` table produced massive score ties that
exposed a block-max WAND pivot bug the code-shaped synthetic corpus missed
(cursors sitting exactly at the pivot doc).  This test bakes that shape in:
a tiny vocabulary so nearly every doc shares terms and exact score ties are
everywhere, then checks taat == bmw == oracle on many queries.
"""

import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from splade_ray.build import SCORE_SCALE, build_index
from splade_ray.oracle import OracleIndex
from splade_ray.query import QueryEngine

VOCAB = ["the", "fast", "key", "order", "sort", "table", "scan", "merge",
         "part", "window", "small", "hash", "join", "batch", "stream"]
IDX = "/tmp/splade_ray_ties_idx"


@pytest.fixture(scope="module")
def ties_setup(ray_session):
    rng = np.random.default_rng(99)
    rows = []
    for i in range(400):
        n = int(rng.integers(5, 40))
        text = " ".join(np.array(VOCAB)[rng.integers(0, len(VOCAB), n)])
        rows.append(
            {"repo": "r", "path": f"p{i}", "commit": "c", "lang": "en",
             "content": text}
        )
    tbl = pa.Table.from_pylist(rows)
    shutil.rmtree(IDX, ignore_errors=True)
    build_index(rd.from_arrow(tbl), IDX, lang_tagged=False, n_shards=4,
                hot_df_min=20, hot_df_frac=0.01, sample_mod=2)
    return tbl


QUERIES = (
    VOCAB
    + ["the fast key", "sort sort sort", "merge join hash batch",
       "window small part stream scan", "the the fast fast",
       " ".join(VOCAB)]  # every list active at once
)


@pytest.mark.parametrize("scorer", ["bmw"])
def test_scorers_match_taat_and_oracle(ties_setup, scorer):
    oracle = OracleIndex(ties_setup.to_pylist(), lang_tagged=False)
    base = QueryEngine(IDX, k=10, scorer="taat")
    other = QueryEngine(IDX, k=10, scorer=scorer)
    for k in (1, 3, 10, 25):
        base.k = other.k = k
        for q in QUERIES:
            want = oracle.search(q, None, k=k)
            got_base = base.search_one(q)
            got_other = other.search_one(q)
            as_list = lambda r: [(int(d), u / SCORE_SCALE) for d, u in zip(*r)]
            assert as_list(got_base) == want, ("taat", k, q)
            assert as_list(got_other) == want, (scorer, k, q)
