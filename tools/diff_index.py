"""Compare the segment bytes of two index directories.

For every segment under ``A/segments`` and ``B/segments`` prints the sha256
of ``postings.bin``, of ``positions.bin`` (``-`` when absent) and of the
canonical ``dict.parquet`` rows (every column, row order kept, as JSON), one
line per segment and side, then ``same``/``DIFFERENT`` per segment.  Exits 1
on any mismatch, including a segment present on one side only.  Manifests
and lineage are not compared: they name their inputs and differ by design
between two builds of the same content.

Then prints each side's MANIFEST ``placement`` record (the term -> shard
rule queries route lookups by; ``-`` when absent) with ``placement match``
or ``placement MISMATCH``, and each side's ``hot_terms`` (the terms the
build salted over several shards) and their symmetric difference: two
builds whose hot sets differ write different dictionary rows for exactly
those terms, so a segment difference with a non-empty hot-set difference
may come from salting alone.  Neither changes the exit code.

Last, per side, the sha256 of the forward arrays (doc ids, doc lengths and
global lang codes by ordinal) and of the tombstone set, both read through
the library (``docmap.open_doc_arrays``, ``delete.read_tombstones``), so a
flat and a sharded forward-array layout of the same docs compare equal;
then ``docs same`` or ``docs DIFFERENT``.  Unlike manifests these do not
differ by design between two builds of the same content, so a difference
counts in the exit code.

Usage: python tools/diff_index.py A B
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _sha_file(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def segment_digest(seg_dir: str) -> tuple[str, str, str]:
    """(postings sha256, positions sha256 or '-', dict rows sha256)."""
    table = pq.read_table(os.path.join(seg_dir, "dict.parquet"))
    rows = json.dumps({c: table[c].to_pylist() for c in table.column_names},
                      sort_keys=True)
    return (_sha_file(os.path.join(seg_dir, "postings.bin")),
            _sha_file(os.path.join(seg_dir, "positions.bin")),
            hashlib.sha256(rows.encode()).hexdigest())


def docs_digest(index_dir: str) -> tuple[str, str]:
    """(forward arrays sha256, tombstones sha256)."""
    from splade_ray.delete import read_tombstones
    from splade_ray.docmap import open_doc_arrays

    docs = open_doc_arrays(index_dir)
    h = hashlib.sha256()
    for arr in (docs.docmap_array(), docs.doclens_array(),
                docs.langvals_array() if docs.has_langvals else []):
        h.update(np.ascontiguousarray(arr).tobytes())
    tombs = read_tombstones(index_dir)
    return h.hexdigest(), hashlib.sha256(tombs.tobytes()).hexdigest()


def _manifest(index_dir: str) -> dict:
    """The MANIFEST (empty when there is none)."""
    path = os.path.join(index_dir, "MANIFEST.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def _segments(index_dir: str) -> set[str]:
    root = os.path.join(index_dir, "segments")
    return {d for d in os.listdir(root)
            if os.path.isfile(os.path.join(root, d, "dict.parquet"))}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    a, b = argv
    segs_a, segs_b = _segments(a), _segments(b)
    bad = 0
    for seg in sorted(segs_a | segs_b):
        digests = []
        for side, root, segs in (("A", a, segs_a), ("B", b, segs_b)):
            d = (segment_digest(os.path.join(root, "segments", seg))
                 if seg in segs else ("missing",) * 3)
            digests.append(d)
            print(f"{seg} {side} postings={d[0]} positions={d[1]} "
                  f"dict={d[2]}")
        same = digests[0] == digests[1]
        bad += not same
        print(f"{seg} {'same' if same else 'DIFFERENT'}")
    print(f"{len(segs_a | segs_b)} segments, {bad} different")
    man = {"A": _manifest(a), "B": _manifest(b)}
    place = {side: m.get("placement", "-") for side, m in man.items()}
    for side, rule in place.items():
        print(f"{side} placement: {rule}")
    print(f"placement {'match' if place['A'] == place['B'] else 'MISMATCH'}")
    hot = {side: set(m.get("hot_terms", [])) for side, m in man.items()}
    for side, terms in hot.items():
        print(f"{side} hot_terms ({len(terms)}): {' '.join(sorted(terms))}")
    for side, other in (("A", "B"), ("B", "A")):
        only = sorted(hot[side] - hot[other])
        print(f"hot_terms only in {side} ({len(only)}): {' '.join(only)}")
    docs = []
    for side, root in (("A", a), ("B", b)):
        docs.append(docs_digest(root))
        print(f"{side} docs arrays={docs[-1][0]} tombstones={docs[-1][1]}")
    docs_same = docs[0] == docs[1]
    print(f"docs {'same' if docs_same else 'DIFFERENT'}")
    return 1 if bad or not docs_same else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
