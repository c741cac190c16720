"""True kill-and-resume: SIGKILL a build mid-flight, resume, verify parity.

The north rule's resumability claim, exercised for real: a subprocess build
is killed while running; a fresh process resumes from validated checkpoints
and the finished index answers queries identically to an uninterrupted
build.  Also covers the CLI surface (build + query + eval commands).
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_FILES = 3000

BUILD_SNIPPET = """
import sys, ray, ray.data as rd
sys.path.insert(0, {repo!r})
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from splade_ray.corpus import corpus_parquet
from splade_ray.build import build_index
d = corpus_parquet({n}, seed=13)
m = build_index(rd.read_parquet(d), {idx!r}, lang_tagged=True, n_shards=8)
print("BUILT", m["n_postings"])
ray.shutdown()
"""


def _run_build(idx, timeout=None, kill_after=None):
    code = BUILD_SNIPPET.format(repo=REPO, n=N_FILES, idx=idx)
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    if kill_after is not None:
        time.sleep(kill_after)
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        return None
    out, _ = proc.communicate(timeout=timeout)
    assert proc.returncode == 0, out
    return out


@pytest.mark.timeout(600)
def test_sigkill_mid_build_then_resume(ray_session):
    base = "/tmp/splade_ray_kill_test"
    shutil.rmtree(base, ignore_errors=True)
    idx_killed = os.path.join(base, "killed")
    idx_clean = os.path.join(base, "clean")

    # measure an uninterrupted build first (also the parity reference)
    t0 = time.time()
    _run_build(idx_clean, timeout=300)
    full_dur = time.time() - t0

    # kill a second build roughly mid-flight
    _run_build(idx_killed, kill_after=max(2.0, full_dur * 0.5))
    assert not os.path.exists(os.path.join(idx_killed, "MANIFEST.json"))

    # resume: must complete and reuse whatever survived validation
    _run_build(idx_killed, timeout=300)
    with open(os.path.join(idx_killed, "MANIFEST.json")) as f:
        m_resumed = json.load(f)
    with open(os.path.join(idx_clean, "MANIFEST.json")) as f:
        m_clean = json.load(f)
    assert m_resumed["n_postings"] == m_clean["n_postings"]
    assert m_resumed["n_docs"] == m_clean["n_docs"]

    from splade_ray.build import SCORE_SCALE
    from splade_ray.corpus import generate_queries
    from splade_ray.query import QueryEngine

    a = QueryEngine(idx_killed, k=10)
    b = QueryEngine(idx_clean, k=10)
    q = generate_queries()
    for query, lang in zip(q["query"].to_pylist(), q["lang"].to_pylist()):
        ra = a.search_one(query, lang or None)
        rb = b.search_one(query, lang or None)
        assert [(int(d), u) for d, u in zip(*ra)] == \
            [(int(d), u) for d, u in zip(*rb)], query


def test_cli_build_query_eval(tmp_path):
    """CLI surface end-to-end in a subprocess (owns its own Ray session)."""
    from splade_ray.corpus import corpus_parquet

    corpus = corpus_parquet(400, seed=17)
    idx = str(tmp_path / "idx")
    env = dict(os.environ, PYTHONPATH=REPO)
    r = subprocess.run(
        [sys.executable, "-m", "splade_ray.cli", "build", "--corpus", corpus,
         "--index", idx, "--lang-tagged", "--n-shards", "4"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0 and "built" in r.stdout, r.stdout + r.stderr
    r = subprocess.run(
        [sys.executable, "-m", "splade_ray.cli", "query", "parse token",
         "--index", idx], capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0 and len(r.stdout.strip().splitlines()) > 0
    # lang-tagged positional phrase: specs expand per language ('lg:tok'
    # keys) instead of silently matching nothing; --lang scopes it
    r = subprocess.run(
        [sys.executable, "-m", "splade_ray.cli", "phrase", "parse",
         "--index", idx], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert "no results" not in r.stdout, r.stdout
    qcsv = tmp_path / "q.csv"
    qcsv.write_text("query_id,query\n0,parse token\n1,zzznope\n")
    out = tmp_path / "r.csv"
    r = subprocess.run(
        [sys.executable, "-m", "splade_ray.cli", "eval", "--index", idx,
         "--queries", str(qcsv), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0 and out.exists(), r.stdout + r.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "query_id,rank,doc_id,score"
    assert len(lines) > 1


def test_cli_positional_build_and_phrase(tmp_path):
    """`build --positions` + the `phrase` command (phrase and NEAR modes),
    end-to-end in subprocesses."""
    from splade_ray.analyzer import tokens_py
    from splade_ray.corpus import corpus_parquet, generate_corpus

    corpus = corpus_parquet(400, seed=17)
    idx = str(tmp_path / "idx")
    env = dict(os.environ, PYTHONPATH=REPO)
    r = subprocess.run(
        [sys.executable, "-m", "splade_ray.cli", "build", "--corpus", corpus,
         "--index", idx, "--n-shards", "4", "--positions"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0 and "built" in r.stdout, r.stdout + r.stderr
    # a phrase guaranteed present: first two tokens of some doc
    tbl = generate_corpus(400, seed=17)
    toks = next(t for t in (tokens_py(x) for x in tbl["content"].to_pylist()
                            if x and x.strip()) if len(t) >= 2)
    r = subprocess.run(
        [sys.executable, "-m", "splade_ray.cli", "phrase",
         " ".join(toks[:2]), "--index", idx],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert len(r.stdout.strip().splitlines()) > 0
    assert "no results" not in r.stdout
    r = subprocess.run(
        [sys.executable, "-m", "splade_ray.cli", "phrase", "--index", idx,
         "--near", toks[0], toks[1], "--slop", "5", "--unordered"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert len(r.stdout.strip().splitlines()) > 0
    # span_or: single-token clause guarantees hits; span_not with a
    # never-adjacent exclude keeps the include hits
    r = subprocess.run(
        [sys.executable, "-m", "splade_ray.cli", "phrase", "x", "--index",
         idx, "--span-or", toks[0], "--span-or", "zzqq missing"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0 and "no results" not in r.stdout, r.stderr
    r = subprocess.run(
        [sys.executable, "-m", "splade_ray.cli", "phrase", toks[0],
         "--index", idx, "--span-not", "zzqqmissing", "--post", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0 and "no results" not in r.stdout, r.stderr
    # span_containing: little = toks[1] between big pair (toks[0], toks[2])
    # with a generous window — present by construction in the source doc;
    # both scoring sides run
    if len(toks) >= 3 and len({toks[0], toks[1], toks[2]}) == 3:
        for side in ("big", "little"):
            r = subprocess.run(
                [sys.executable, "-m", "splade_ray.cli", "phrase", toks[1],
                 "--index", idx, "--containing", toks[0], toks[2],
                 "--window", "50", "--score-side", side],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert r.returncode == 0 and "no results" not in r.stdout, \
                r.stdout + r.stderr


@pytest.mark.timeout(300)
def test_changed_corpus_invalidates_checkpoints(ray_session):
    """Checkpoint binding (corpus_fp): re-running build_index into the same
    index_dir after the input file list changed must rebuild, not silently
    serve the stale staged docs/segments."""
    import ray.data as rd

    from splade_ray.build import build_index
    from splade_ray.corpus import corpus_parquet

    base = "/tmp/splade_ray_fp_test"
    shutil.rmtree(base, ignore_errors=True)
    idx = os.path.join(base, "idx")

    d1 = corpus_parquet(200, seed=21, root=base + "/c1")
    m1 = build_index(rd.read_parquet(d1), idx, lang_tagged=True, n_shards=4)
    assert m1["corpus_fp"] is not None

    # same corpus -> resume (staging reused, corpus_fp unchanged)
    m1b = build_index(rd.read_parquet(d1), idx, lang_tagged=True, n_shards=4)
    assert m1b["corpus_fp"] == m1["corpus_fp"]
    assert m1b["n_postings"] == m1["n_postings"]

    # different corpus, same index_dir -> full rebuild with the new docs
    d2 = corpus_parquet(300, seed=22, root=base + "/c2")
    m2 = build_index(rd.read_parquet(d2), idx, lang_tagged=True, n_shards=4)
    assert m2["corpus_fp"] != m1["corpus_fp"]
    assert m2["n_docs"] + m2["n_dropped_rows"] == 300
    with open(os.path.join(idx, "STAGING.json")) as f:
        assert json.load(f)["corpus_fp"] == m2["corpus_fp"]
    shutil.rmtree(base, ignore_errors=True)


@pytest.mark.timeout(300)
def test_in_memory_corpus_never_resumes_another(ray_session):
    """An in-memory corpus (from_arrow) has no fingerprint: a build into a
    dir staged from another corpus starts over instead of resuming it, so
    the dir ends up with the second corpus's docs — and add_generation into
    a reused out dir merges the new increment, not the previous one."""
    import numpy as np
    import ray.data as rd

    from splade_ray.build import build_index
    from splade_ray.corpus import generate_corpus
    from splade_ray.merge import add_generation
    from splade_ray.oracle import OracleIndex
    from splade_ray.query import QueryEngine

    base = "/tmp/splade_ray_inmem_test"
    shutil.rmtree(base, ignore_errors=True)
    idx, out = os.path.join(base, "idx"), os.path.join(base, "added")
    tbl = generate_corpus(200, seed=31)

    def want(*parts):
        return sorted(OracleIndex([r for p in parts for r in p.to_pylist()])
                      .docs)

    def got(d):
        eng = QueryEngine(d)
        return sorted(eng.docs.gather_ids(np.arange(eng.n_docs)).tolist())

    a, b = tbl.slice(0, 60), tbl.slice(60, 90)
    build_index(rd.from_arrow(a), idx, n_shards=2)
    m = build_index(rd.from_arrow(b), idx, n_shards=2)
    assert m["n_docs"] == len(want(b)) and got(idx) == want(b)
    for inc in (tbl.slice(150, 25), tbl.slice(175, 25)):
        add_generation(idx, rd.from_arrow(inc), out)
        assert got(out) == want(b, inc)
    shutil.rmtree(base, ignore_errors=True)
