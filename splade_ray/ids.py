"""Deterministic document ids + content hashes.

The reference keys rows by ``uuid.uuid4()`` (ingest.py:139) which makes
re-ingestion non-idempotent and results non-reproducible.  We instead derive
``doc_id`` from the identity columns:

    doc_id = int64( sha256(repo \\x00 path \\x00 commit)[:8] ) & (2^63 - 1)

Masked to 63 bits so the id is representable as int64 / BIGINT everywhere
(numpy, pandas, Arrow, DuckDB) with identical values.  SQL equivalent (used by
the oracle): ``(('0x' || substr(sha256(...), 1, 16))::UBIGINT & 9223372036854775807)::BIGINT``.

At 10^12-doc scale 63-bit ids are expected to collide (birthday bound); the
build collision-checks within each shard and a production deployment would
widen to 128-bit ids.  ``content_sha256`` carries the per-row invariant
required by BASELINE.json (content sha256 equality vs the input), as a hex
string for cross-engine comparability.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from . import MASK63

_SEP = b"\x00"


def doc_id63_sql(repo: str, path: str, commit: str) -> str:
    """SQL expression computing doc_id63 from three varchar column exprs."""
    concat = f"{repo} || chr(0) || {path} || chr(0) || {commit}"
    return (
        f"(('0x' || substr(sha256({concat}), 1, 16))::UBIGINT "
        f"& 9223372036854775807)::BIGINT"
    )


def doc_id63(repo: str, path: str, commit: str) -> int:
    h = hashlib.sha256(
        repo.encode() + _SEP + path.encode() + _SEP + commit.encode()
    ).digest()
    return int.from_bytes(h[:8], "big") & MASK63


def doc_id63_column(
    repos: pa.Array | pa.ChunkedArray,
    paths: pa.Array | pa.ChunkedArray,
    commits: pa.Array | pa.ChunkedArray,
) -> pa.Array:
    """Vectorized-enough doc_id column (hashing is C-speed; loop is cheap)."""
    out = np.empty(len(repos), dtype=np.int64)
    for i, (r, p, c) in enumerate(
        zip(repos.to_pylist(), paths.to_pylist(), commits.to_pylist())
    ):
        out[i] = doc_id63(r or "", p or "", c or "")
    return pa.array(out)


def sha256_hex_column(texts: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Per-row sha256(content) as lowercase hex (matches DuckDB ``sha256``)."""
    return pa.array(
        [hashlib.sha256((t or "").encode()).hexdigest() for t in texts.to_pylist()]
    )


def hash63_bytes(data: bytes) -> int:
    """Generic 63-bit hash of bytes via sha256 prefix (SQL-reproducible)."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big") & MASK63


# The term -> shard rule every build writes under, as MANIFEST ``placement``
# names it.  A reader that finds this exact record may look a term up in
# its placement shards only; any other record (or none) means "unknown
# placement: scan every segment".
PLACEMENT = "hash63-mod-v1"


def term_shard(term: str, salt: int | None, n_shards: int) -> int:
    """The shard a build places ``term``'s postings in: an unsalted (cold)
    term in ``hash63(term) % n_shards``, salt ``s`` of a hot term in
    ``hash63(term#s) % n_shards``."""
    key = term if salt is None else f"{term}#{salt}"
    return hash63_bytes(key.encode()) % n_shards
