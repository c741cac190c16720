"""splade_ray — a Ray-Data-native full-text (inverted index + BM25) engine.

Re-implements, from scratch and Ray-Data-first, the data-processing heart that
the reference (MadisonEvans94/splade) delegates to Milvus + milvus-model
(reference: ingest.py:111-129 sparse embedding, ingest.py:159-172
SPARSE_INVERTED_INDEX build, retrievers.py:120-141 sparse top-k search):

    tokenize/analyze -> (term, doc_id, tf) -> salted groupby(term) shuffle
      -> delta-gap + varbyte posting lists w/ block-max metadata
      -> per-partition segments + lineage manifests + LSM merge
      -> stateful actor-pool query engine (TAAT / block-max WAND)

plus the large-scale training-data operators (dedup, similarity search,
text stats, multimodal plumbing) under ``splade_ray.ops``.

No module in this package calls ``ray.init`` / ``ray.shutdown`` — sessions are
owned by bench.py / tests / the driver.
"""

__version__ = "0.1.0"

K1 = 1.2  # BM25 k1 (BASELINE.json north_star)
B = 0.75  # BM25 b
MASK63 = (1 << 63) - 1  # doc ids masked to 63 bits: int64-safe in pandas/duckdb

# The ONE whitespace set for the empty-document drop predicate.  All three
# renderings (Arrow utf8_trim in build.prepare_batch, str.strip in
# oracle.OracleIndex, the SQL trim set in sql.DOCS_CTE) derive from this
# constant — Unicode-whitespace variants (\x0b/\x0c/NBSP/\x85) deliberately
# do NOT count as blank, so a form-feed-only doc is kept by every path.
DROP_WS = " \t\n\r"
