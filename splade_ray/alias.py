"""Index aliases: atomic name -> index indirection for zero-downtime
reindex (the Elasticsearch alias API / blue-green deployment shape).

An alias is a tiny JSON file ``{"index": "<abs index dir>"}``; consumers
open it anywhere an index path is accepted (``QueryEngine`` resolves it
in ``__init__``).  Swapping is ``os.replace`` of a same-directory temp
file, unique per swap so concurrent swaps never share one — atomic on
POSIX, so a reader either sees the old target or the new one, never a
partial file.  The serving rollover recipe:

    build_index(corpus, idx_green)            # new generation, offline
    alias.set_alias("prod.alias", idx_green)  # atomic cutover
    # idx_blue can be deleted once draining actors retire

Actors resolve the alias ONCE in ``__init__`` (index residency is per
actor), so a swap takes effect for newly constructed pools — exactly
Elasticsearch's search-context semantics, where in-flight contexts pin
the old segments.  Reference analogue: splade recreates its Milvus
collection in place (ingest.py drop/create); the alias keeps the old
generation queryable until the new one is cut in.
"""

from __future__ import annotations

import json
import os
import tempfile

# an alias chain longer than this is a config error, not a use case
_MAX_HOPS = 4


def set_alias(alias_path: str, index_dir: str) -> None:
    """Create or atomically repoint ``alias_path`` at ``index_dir``.

    The target must look like an index or another alias NOW — catching a
    typo at swap time, not at first query.
    """
    index_dir = os.path.abspath(index_dir)
    if not (os.path.isfile(os.path.join(index_dir, "MANIFEST.json"))
            or _is_alias(index_dir)):
        raise ValueError(f"alias target {index_dir!r} is not an index "
                         f"(no MANIFEST.json) nor an alias")
    write_json_atomic(os.path.abspath(alias_path), {"index": index_dir})


def write_json_atomic(path: str, obj, indent: int | None = None) -> None:
    """Write ``obj`` as JSON to ``path`` so that readers see the old file
    or the whole new one, never a partial write: dump into a temp file in
    the same directory (``os.replace`` never crosses filesystems), fsync,
    then rename over ``path``.  The temp name is unique per call, so
    concurrent writers of one path never share (and steal) a temp file;
    a failed dump removes its temp file and leaves ``path`` untouched."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(obj, f, indent=indent)
            f.flush()
            os.fsync(f.fileno())
        os.chmod(tmp, 0o644)  # mkstemp creates 0600; index files are shared
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_alias(alias_path: str) -> str:
    with open(alias_path) as f:
        return json.load(f)["index"]


def _alias_target(path: str) -> str | None:
    """The index an alias file points at; None when ``path`` is not a
    file (a directory or nothing).  A file that does not parse as an
    alias raises ``ValueError`` naming it — silently treating it as an
    index would only fail later, as a missing MANIFEST."""
    if not os.path.isfile(path):
        return None
    try:
        with open(path) as f:
            target = json.load(f).get("index")
    except (ValueError, AttributeError) as e:
        raise ValueError(f"{path!r} is a file but not a readable alias "
                         f"(expected {{\"index\": \"<dir>\"}}): {e}") from e
    if not isinstance(target, str):
        raise ValueError(f"{path!r} is a file but not an alias (no "
                         f"\"index\" path in it)")
    return target


def _is_alias(path: str) -> bool:
    try:
        return _alias_target(path) is not None
    except ValueError:
        return False


def resolve_index(path: str) -> str:
    """Follow alias indirection(s) to a real index directory.

    A directory passes through untouched (the common case costs one
    isfile stat).  Chains of up to ``_MAX_HOPS`` aliases resolve (the
    +1 check below accepts the final non-alias target); longer ones —
    cycles — are refused loudly, naming the path the CALLER passed.  A
    file along the way that is not an alias raises ValueError."""
    start = path
    for _ in range(_MAX_HOPS + 1):
        target = _alias_target(path)
        if target is None:
            return path
        path = target
    raise ValueError(f"alias chain from {start!r} exceeds {_MAX_HOPS} "
                     f"hops (cycle?)")
