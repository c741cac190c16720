"""Blue-green alias swap: atomic name -> index indirection (ES alias API).

Two index generations over different corpora; the alias cuts queries
over atomically, pure-path helpers need no Ray.
"""

import os

import pytest
import ray.data as rd

from splade_ray.alias import read_alias, resolve_index, set_alias
from splade_ray.build import build_index
from splade_ray.corpus import generate_corpus
from splade_ray.query import QueryEngine

BASE = "/tmp/splade_ray_test_alias"


@pytest.fixture(scope="module")
def two_indexes(ray_session):
    import shutil

    shutil.rmtree(BASE, ignore_errors=True)
    os.makedirs(BASE)
    dirs = []
    for i, seed in enumerate((11, 99)):
        idx = os.path.join(BASE, f"gen{i}")
        build_index(rd.from_arrow(generate_corpus(120, seed=seed)), idx,
                    lang_tagged=False, n_shards=2)
        dirs.append(idx)
    return dirs


def test_alias_resolves_and_swaps_atomically(two_indexes):
    blue, green = two_indexes
    alias = os.path.join(BASE, "prod.alias")
    set_alias(alias, blue)
    assert read_alias(alias) == os.path.abspath(blue)
    assert resolve_index(alias) == os.path.abspath(blue)
    # a real directory passes through untouched
    assert resolve_index(blue) == blue

    e_blue = QueryEngine(alias, k=5)
    assert e_blue.n_docs > 0
    ids_blue, _ = e_blue.search_one("merge", None)

    set_alias(alias, green)  # blue-green cutover
    e_green = QueryEngine(alias, k=5)
    ids_green, _ = e_green.search_one("merge", None)
    # different corpus generations -> different doc ids behind one name
    assert set(int(i) for i in ids_blue) != set(int(i) for i in ids_green)
    # the already-open engine keeps serving its generation (ES
    # search-context semantics)
    again, _ = e_blue.search_one("merge", None)
    assert list(again) == list(ids_blue)


def test_alias_chain_and_errors(two_indexes, tmp_path):
    blue, _ = two_indexes
    a1 = os.path.join(BASE, "l1.alias")
    a2 = os.path.join(BASE, "l2.alias")
    set_alias(a1, blue)
    set_alias(a2, a1)  # alias -> alias -> index
    assert resolve_index(a2) == os.path.abspath(blue)
    # a chain of exactly _MAX_HOPS aliases ending at a real index is
    # legitimate and must resolve (the final non-alias target is checked
    # on the +1 iteration, not refused as a cycle)
    prev = blue
    for i in range(4):
        nxt = os.path.join(BASE, f"chain{i}.alias")
        set_alias(nxt, prev)
        prev = nxt
    assert resolve_index(prev) == os.path.abspath(blue)
    with pytest.raises(ValueError, match="not an index"):
        set_alias(os.path.join(BASE, "bad.alias"), str(tmp_path))
    # cycle refuses loudly instead of spinning
    import json

    c1, c2 = os.path.join(BASE, "c1.alias"), os.path.join(BASE, "c2.alias")
    for src, dst in ((c1, c2), (c2, c1)):
        with open(src, "w") as f:
            json.dump({"index": dst}, f)
    with pytest.raises(ValueError, match="hops"):
        resolve_index(c1)


def test_alias_cli_roundtrip(two_indexes):
    from splade_ray import cli

    blue, green = two_indexes
    alias = os.path.join(BASE, "cli.alias")
    assert cli.main(["alias", alias, "--set", blue]) == 0
    assert cli.main(["alias", alias]) == 0
    assert cli.main(["alias", alias, "--set", green]) == 0
    assert resolve_index(alias) == os.path.abspath(green)
    assert cli.main(["alias", os.path.join(BASE, "missing.alias")]) == 2
    assert cli.main(["alias", alias, "--set", "/nonexistent/idx"]) == 2


def test_concurrent_swaps_leave_parseable_alias_and_no_temp_files(
        two_indexes):
    """Each swap writes its own temp file: concurrent repoints of one
    alias never steal each other's temp (a shared fixed name made the
    loser's os.replace fail) and leave nothing behind."""
    from concurrent.futures import ThreadPoolExecutor

    blue, green = two_indexes
    d = os.path.join(BASE, "swaps")
    os.makedirs(d, exist_ok=True)
    alias = os.path.join(d, "hot.alias")
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(lambda i: set_alias(alias, (blue, green)[i % 2]),
                      range(40), timeout=120))
    assert resolve_index(alias) in (os.path.abspath(blue),
                                    os.path.abspath(green))
    assert os.listdir(d) == ["hot.alias"]
    assert oct(os.stat(alias).st_mode & 0o777) == oct(0o644)


def test_unparseable_alias_file_raises_naming_it(two_indexes, tmp_path):
    bad = tmp_path / "broken.alias"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="broken.alias"):
        resolve_index(str(bad))
    bad.write_text('{"other": "x"}')
    with pytest.raises(ValueError, match="broken.alias"):
        resolve_index(str(bad))
    # the engine surfaces the same error, not a missing MANIFEST
    with pytest.raises(ValueError, match="broken.alias"):
        QueryEngine(str(bad))
    # a missing path still passes through to the loud FileNotFoundError
    with pytest.raises(FileNotFoundError):
        QueryEngine(str(tmp_path / "nothing-here"))


def test_fields_cli_resolves_alias(two_indexes, capsys):
    from splade_ray import cli

    blue, _ = two_indexes
    alias = os.path.join(BASE, "fields.alias")
    set_alias(alias, blue)
    assert cli.main(["fields", "--index", alias]) == 0
    out = capsys.readouterr().out
    assert out.startswith("content\ttext")
    assert f"n_docs={QueryEngine(blue).n_docs}\t" in out


def test_run_queries_resolves_aux_alias_at_driver(two_indexes):
    """multi_match's second field index is resolved ONCE when the job is
    built: an alias swap before the lazy Dataset executes must not reach
    its actors (per-actor resolution could mix generations in one job)."""
    import pyarrow as pa

    from splade_ray.query import run_queries

    blue, green = two_indexes
    aux = os.path.join(BASE, "aux.alias")
    q = pa.table({"query_id": pa.array([0, 1, 2], type=pa.int64()),
                  "query": ["merge", "parse json value", "def return"]})

    def job(aux_dir):
        return run_queries(rd.from_arrow(q), blue, k=5, concurrency=1,
                           query_kind="multi_match",
                           engine_kwargs={"aux_index_dir": aux_dir})

    def rows(ds):
        return sorted(ds.to_pandas().itertuples(index=False))

    want_blue, want_green = rows(job(blue)), rows(job(green))
    assert want_blue != want_green  # the two generations answer differently
    set_alias(aux, blue)
    pending = job(aux)
    set_alias(aux, green)  # swap after the job is built, before it runs
    assert rows(pending) == want_blue
    assert rows(job(aux)) == want_green  # a job built afterwards sees it
