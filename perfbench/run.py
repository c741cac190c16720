"""splade_ray benchmark: build, serve and update a long-tail code corpus.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (the directory holding ``splade_ray/``).
Each run sets up a local Ray session with ``CPUS`` CPUs, builds the base
index twice through the public API, runs one ``run_queries`` batch job and
checks its answers (oracle, pool rows, bmw, tombstones).  Load is a closed loop from the main thread, one call
outstanding at a time.  The workloads differ in what runs between those
steps; ``--seconds`` fixes its amount up front:

* ``serve``: one long-lived in-process engine answers a Zipf-repeated
  query stream, so its postings cache fills and then mostly hits.
* ``update``: cycles of ``delete_docs``, engine reopen and a short slice of
  the stream, so every engine is young and the decode and tombstone paths
  do the work.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
life cycle plus ``add_generation`` and ``compact_index`` with spans around
each layer's public callables, and prints the per-layer metrics.  The last
stdout line is the result JSON; the line before it gives each metric's
sample count.  ``perfbench_out/`` gets a detail file (and, traced, the
spans).  Scratch data lives in ``.perfbench_run/<pid>/``, removed at exit.
See ``METRICS.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

CPUS = 4
OBJECT_STORE_BYTES = 1_000_000_000
N_SHARDS = 8
N_BASE = 1_500  # base index files
N_INC = 200  # files added by add_generation
N_ORACLE_QUERIES = 60
N_POOL_QUERIES = 16_000  # stream queries in the run_queries batch job
N_POOL_CHECK = 3_000  # of them, compared with the in-process engine
N_BMW_CHECK = 40  # queries compared between scorers
POOL_QUERIES = 11_500  # query pool size (about 10k distinct after class caps)
STREAM_LEN = 200_000
# The window's work is fixed up front from --seconds, so every run of a seed
# measures the same queries on the same index state.  On a 4-vCPU VM each
# --second is about 1 s of serve work, or 1.5 s of update work.
SERVE_QPS = 3_000  # serve: stream queries per --second
SERVE_WARM = 3_000  # untimed serve queries; >= N_POOL_CHECK, the pool reference
CYCLES_PER_S = 1.25  # update: delete/refresh/query cycles per --second
DOSE_CYCLES = 12  # untimed-query update cycles after each step
DOSE_QUERIES = 10  # stream queries in each of those cycles
N_STEPS = 2  # steps of the life cycle between window slices (see bench)
DELETE_BATCH = 4
CYCLE_QUERIES = 300  # "a few hundred" queries per engine
MAX_DELETED_SHARE = 0.25  # of the base documents, over a whole run
K = 10
OVERHEAD_QUERIES = 1_000  # per round of the tracing-overhead probe

END_TO_END = {
    "setup_s": "s", "index_bytes_per_content_byte": "ratio", "query_p50_ms": "ms",
    "query_p99_ms": "ms", "pool_queries_per_s": "1/s",
    "delete_visible_p50_ms": "ms", "driver_peak_rss_mb": "MB",
}
PER_LAYER = {
    "build.staging_s": "s", "build.docmap_s": "s", "build.hot_detect_s": "s",
    "build.shuffle_build_s": "s", "analyzer.doc_tokens_per_s": "1/s",
    "analyzer.query_us": "us", "segments.n_terms": "count",
    "segments.n_postings": "count", "segments.lookups_per_query": "count",
    "segments.lookup_us": "us", "codecs.postings_decoded_per_query": "count",
    "codecs.decode_us": "us", "codecs.bytes_per_posting": "bytes",
    "query.cache_hit_share": "share", "query.self_us": "us",
    "query.open_ms": "ms", "docmap.gather_us": "us",
    "pool.first_batch_s": "s", "pool.steady_queries_per_s": "1/s",
    "delete.delete_ms": "ms", "delete.compact_s": "s",
    "merge.gen_build_s": "s", "merge.merge_s": "s",
    "merge.bytes_written_per_added_byte": "ratio",
    "trace.overhead_query_p50_ms": "ms",
}
WORKLOADS = ("serve", "update")


class Run:
    """One benchmark run: inputs, Ray session, metrics and check tallies."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tr = Tracer() if traced else None
        self.work = os.path.join(ROOT, ".perfbench_run", f"{os.getpid()}")
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.detail: dict = {"workload": workload, "seed": seed,
                             "seconds": seconds, "cpus": CPUS}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.session_dir = ""
        # phase -> [(first span, end span, wall s, counter deltas)], one
        # entry per time the phase ran
        self.phases: dict[str, list[tuple[int, int, float, dict]]] = {}

    # -- bookkeeping -----------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(n)

    @contextlib.contextmanager
    def phase(self, name: str):
        """Marks a measured phase: its wall goes to the detail file and,
        traced, its spans and counter deltas to ``phases``."""
        gc.collect()
        tr = self.tr
        if tr:
            lo, counts = len(tr.spans), dict(tr.counts)
            idx = tr.begin("phase." + name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            walls = self.detail.setdefault("phase_s", {})
            walls[name] = walls.get(name, 0.0) + wall
            if tr:
                tr.end(idx)
                delta = {k: v - counts.get(k, 0) for k, v in tr.counts.items()}
                self.phases.setdefault(name, []).append(
                    (lo, len(tr.spans), wall, delta))

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


def _content_bytes(table) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.binary_length(table["content"])).as_py() or 0)


def _blocks(table, n: int):
    import ray.data as rd

    per = max(1, -(-table.num_rows // n))
    return rd.from_arrow([table.slice(i, per)
                          for i in range(0, table.num_rows, per)])


def _pct(lat: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(lat), q))


# -- Ray session -------------------------------------------------------------
def start_ray(run: Run) -> None:
    import logging
    import warnings

    import ray
    import ray.data as rd

    warnings.filterwarnings("ignore")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    # Ray keeps its session (logs, Unix sockets) under its temp dir.  The
    # socket paths, about 64 characters below it, must fit in 107 bytes;
    # a checkout too deep for that falls back to Ray's default temp dir.
    tmp = run.path("r")
    kw = {"_temp_dir": tmp} if len(tmp) <= 40 else {}
    ray.init(num_cpus=CPUS, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, configure_logging=False, **kw)
    run.session_dir = ray._private.worker._global_node.get_session_dir_path()
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    # hand out blocks only once every pool actor is up; by default the
    # first actor up may take all of a small job's blocks, and job walls
    # then fall into two groups run to run
    ctx.wait_for_min_actors_s = 120
    for name in ("ray", "ray.data", "ray.data._internal"):
        logging.getLogger(name).setLevel(logging.ERROR)

    @ray.remote(num_cpus=1)
    def _import_engine():
        import splade_ray.build  # noqa: F401
        import splade_ray.delete  # noqa: F401
        import splade_ray.merge  # noqa: F401
        import splade_ray.query  # noqa: F401

        return os.getpid()

    # spawn workers and import the engine in them before anything is timed
    ray.get([_import_engine.remote() for _ in range(2 * CPUS)])


def stop_ray(run: Run) -> None:
    """Shut Ray down (this stops every process it started) and remove its
    session directory."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
        shutil.rmtree(run.session_dir, ignore_errors=True)


# -- tracing -----------------------------------------------------------------
def install_tracing(tr: Tracer) -> None:
    import splade_ray.build as build
    import splade_ray.codecs as codecs
    import splade_ray.delete as delete
    import splade_ray.docmap as docmap
    import splade_ray.merge as merge
    import splade_ray.query as query
    import splade_ray.segments as segments

    n_ids = lambda out: len(out[0])  # noqa: E731
    # the input Dataset each build and add reads (ray.data.from_arrow)
    tr.wrap(sys.modules[__name__], "_blocks", "input.from_arrow")
    tr.wrap(build, "build_index", "build.build_index")
    tr.wrap(query, "analyze_query", "analyzer.analyze_query")
    tr.wrap(segments.SegmentReader, "term_rows", "segments.term_rows")
    for mod in (codecs, query):
        tr.wrap(mod, "decode_postings_many", "codecs.decode_postings_many",
                count_out=n_ids)
        tr.wrap(mod, "decode_block_range", "codecs.decode_block_range",
                count_out=n_ids)
    for cls in (docmap.FlatDocArrays, docmap.ShardedDocArrays):
        tr.wrap(cls, "gather_ids", "docmap.gather_ids")
        tr.wrap(cls, "gather_lens", "docmap.gather_lens")
    tr.wrap(query.QueryEngine, "__init__", "query.open")
    tr.wrap(query.QueryEngine, "search_one", "query.search_one")
    tr.wrap(query.QueryEngine, "_term_units", "query.term_scored",
            span=False)
    tr.wrap(delete, "delete_docs", "delete.delete_docs")
    tr.wrap(delete, "compact_index", "delete.compact_index")
    tr.wrap(merge, "merge_index_dirs", "merge.merge_index_dirs")
    tr.wrap(merge, "add_generation", "merge.add_generation")


# -- phases ------------------------------------------------------------------
class Inputs:
    """The run's generated inputs, all from the seed."""

    def __init__(self, seed: int):
        parts = gen.parts_vocab(seed)
        self.corpus = gen.generate_corpus(N_BASE, seed, parts=parts)
        self.inc = gen.generate_corpus(N_INC, seed, tag="inc", parts=parts)
        self.pool = gen.generate_query_pool(POOL_QUERIES, seed, self.corpus)
        self.stream = gen.query_stream(self.pool, STREAM_LEN, seed)
        self.qs = self.pool["query"].to_pylist()
        self.ls = [lg or None for lg in self.pool["lang"].to_pylist()]

    def query(self, pos: int) -> tuple[str, str | None]:
        j = int(self.stream[pos % len(self.stream)])
        return self.qs[j], self.ls[j]


class Setup:
    """Set-up: a fresh ``build_index`` of the base corpus into its own
    directory plus a ``QueryEngine`` open.  Done twice per run."""

    def __init__(self, run: Run, inp: Inputs):
        self.run, self.inp = run, inp
        self.walls: list[float] = []
        self.mans: list[dict] = []
        self.dirs: list[str] = []

    def once(self) -> str:
        from splade_ray.build import build_index
        from splade_ray.query import QueryEngine

        base = self.run.path(f"base{len(self.dirs)}")
        with self.run.phase("setup"):
            t0 = time.perf_counter()
            man = build_index(_blocks(self.inp.corpus, 2 * CPUS), base,
                              lang_tagged=True, n_shards=N_SHARDS)
            QueryEngine(base, k=K)
            t1 = time.perf_counter()
        self.run.attempted += 1
        self.walls.append(t1 - t0)
        self.mans.append(man)
        self.dirs.append(base)
        return base

    def report(self) -> None:
        run, mans, base = self.run, self.mans, self.dirs[-1]
        run.check(len({m["n_postings"] for m in mans}) == 1,
                  "set-up builds disagree on n_postings")
        run.put("setup_s", statistics.median(self.walls), len(self.walls))
        run.put("index_bytes_per_content_byte",
                _dir_bytes(base) / _content_bytes(self.inp.corpus))
        run.detail["base_manifest_timings"] = [m["timings"] for m in mans]
        if not run.tr:
            return
        for stage in ("staging", "docmap", "hot_detect", "shuffle_build"):
            run.put(f"build.{stage}_s", statistics.median(
                m["timings"][f"{stage}_sec"] for m in mans), len(mans))
        man = mans[-1]
        run.put("segments.n_terms", sum(s["n_terms"] for s in man["segments"]))
        run.put("segments.n_postings", man["n_postings"])
        seg_bytes = sum(
            os.path.getsize(os.path.join(base, "segments", s["segment_id"],
                                         "postings.bin"))
            for s in man["segments"])
        run.put("codecs.bytes_per_posting", seg_bytes / man["n_postings"])


def oracle_check(run: Run, base: str, inp: Inputs) -> None:
    """The last N_ORACLE_QUERIES stream queries must be rank- and
    score-identical to the pure-Python oracle over the same corpus."""
    from splade_ray.build import SCORE_SCALE
    from splade_ray.oracle import OracleIndex
    from splade_ray.query import QueryEngine

    oracle = OracleIndex(inp.corpus.to_pylist(), lang_tagged=True)
    eng = QueryEngine(base, k=K)
    for i in range(N_ORACLE_QUERIES):
        q, lang = inp.query(-1 - i)
        ids, units = eng.search_one(q, lang)
        got = [(int(d), int(u)) for d, u in zip(ids, units)]
        exp = [(d, round(sc * SCORE_SCALE))
               for d, sc in oracle.search(q, k=K, lang=lang)]
        run.check(got == exp, f"oracle mismatch on {q!r}/{lang!r}")


def reference(run: Run, base: str, inp: Inputs) -> list:
    """In-process answers to the first N_POOL_CHECK stream queries, for
    the pool and bmw checks; each distinct query is answered once."""
    from splade_ray.query import QueryEngine

    eng = QueryEngine(base, k=K)
    ans: dict[tuple, tuple] = {}
    for i in range(N_POOL_CHECK):
        q = inp.query(i)
        if q not in ans:
            ans[q] = eng.search_one(*q)
    run.attempted += len(ans)
    return [ans[inp.query(i)] for i in range(N_POOL_CHECK)]


def _split(total: int, parts: int) -> list[int]:
    """``total`` units of work cut into ``parts`` near-equal slices."""
    return [total // parts + (i < total % parts) for i in range(parts)]


class ServeLoop:
    """One long-lived engine answering the stream in a closed loop.  The
    first SERVE_WARM stream queries fill its caches untimed (their answers,
    in ``warm``, are the pool check's reference); after them the cache
    mostly hits, and the misses left (first-seen queries) are spread evenly
    over the stream, so every slice sees its share of the tail."""

    def __init__(self, run: Run, base: str, inp: Inputs):
        from splade_ray.query import QueryEngine

        self.run, self.inp = run, inp
        self.eng = QueryEngine(base, k=K)
        self.warm = [self.eng.search_one(*inp.query(i))
                     for i in range(SERVE_WARM)]
        run.attempted += SERVE_WARM
        self.pos = SERVE_WARM
        self.lat: list[float] = []

    def slice(self, n: int) -> None:
        run, eng = self.run, self.eng
        with run.phase("serve"):
            for _ in range(n):
                q, lang = self.inp.query(self.pos)
                if run.tr:
                    run.tr.request = self.pos
                t0 = time.perf_counter()
                eng.search_one(q, lang)
                self.lat.append(time.perf_counter() - t0)
                self.pos += 1
        run.attempted += n


class UpdateLoop:
    """Cycles of ``delete_docs`` (DELETE_BATCH live ids), a new engine (the
    refresh) and CYCLE_QUERIES stream queries, each checked for deleted
    ids.  The doses between steps are cycles of DOSE_QUERIES queries whose
    latencies are not kept: they add samples of delete visibility only."""

    def __init__(self, run: Run, base: str, inp: Inputs):
        from splade_ray.docmap import open_doc_arrays

        self.run, self.base, self.inp = run, base, inp
        self.live = open_doc_arrays(base).docmap_array().copy()
        np.random.default_rng([run.seed, 7]).shuffle(self.live)
        self.deleted = np.empty(0, dtype=np.int64)
        self.vis: list[float] = []
        self.lat: list[float] = []
        self.pos = 0

    def cycle(self, n_queries: int = CYCLE_QUERIES, timed: bool = True
              ) -> None:
        from splade_ray.delete import delete_docs
        from splade_ray.query import QueryEngine

        run = self.run
        c = len(self.vis)
        batch = self.live[c * DELETE_BATCH:(c + 1) * DELETE_BATCH]
        if len(batch) < DELETE_BATCH:
            raise RuntimeError(f"no live documents left for cycle {c}")
        if run.tr:
            run.tr.request = -1 - c
        t0 = time.perf_counter()
        delete_docs(self.base, batch)
        eng = QueryEngine(self.base, k=K)
        self.vis.append(time.perf_counter() - t0)
        run.attempted += 1
        self.deleted = np.union1d(self.deleted, batch)
        lat = self.lat if timed else []
        for _ in range(n_queries):
            q, lang = self.inp.query(self.pos)
            if run.tr:
                run.tr.request = self.pos
            t0 = time.perf_counter()
            ids, _units = eng.search_one(q, lang)
            lat.append(time.perf_counter() - t0)
            run.check(not np.isin(ids, self.deleted).any(),
                      f"deleted id visible at stream position {self.pos}")
            self.pos += 1

    def slice(self, n: int) -> None:
        with self.run.phase("update"):
            for _ in range(n):
                self.cycle()


class PoolJob:
    """One ``run_queries`` batch job (2 actors) over the first
    N_POOL_QUERIES stream queries.  Its rows for the first N_POOL_CHECK
    queries must equal the in-process engine's."""

    def __init__(self, run: Run, inp: Inputs):
        import pyarrow as pa

        self.run = run
        idx = np.asarray(inp.stream[:N_POOL_QUERIES])
        self.table = pa.table({
            "query_id": pa.array(np.arange(N_POOL_QUERIES, dtype=np.int64)),
            "query": inp.pool["query"].take(idx),
            "lang": inp.pool["lang"].take(idx)})

    def run_job(self, base: str, ref: list) -> None:
        import ray.data as rd

        from splade_ray.build import SCORE_SCALE
        from splade_ray.query import run_queries

        run = self.run
        got: dict[int, list] = {}
        stamps = []
        with run.phase("pool"):
            span = run.tr.begin("pool.job") if run.tr else -1
            t0 = time.perf_counter()
            ds = run_queries(rd.from_arrow(self.table), base, k=K,
                             scorer="taat", concurrency=2)
            for b in ds.iter_batches(batch_format="pyarrow",
                                     batch_size=None):
                stamps.append((time.perf_counter(),
                               len(set(b["query_id"].to_pylist()))))
                for q, d, sc in zip(b["query_id"].to_pylist(),
                                    b["doc_id"].to_pylist(),
                                    b["score"].to_pylist()):
                    got.setdefault(q, []).append((d, sc))
            wall = time.perf_counter() - t0
            if run.tr:
                run.tr.end(span)
        for q, (ids, units) in enumerate(ref):
            exp = [(int(d), u / SCORE_SCALE) for d, u in zip(ids, units)]
            run.check(got.get(q, []) == exp, f"pool rows differ on query {q}")
        first = stamps[0][0] - t0
        rest = sum(n for _, n in stamps[1:])
        run.detail.update(pool_job_s=wall, pool_first_batch_s=first,
                          pool_batches=len(stamps))
        run.put("pool_queries_per_s", N_POOL_QUERIES / wall, N_POOL_QUERIES)
        if run.tr:
            run.put("pool.first_batch_s", first)
            steady = stamps[-1][0] - stamps[0][0]
            run.put("pool.steady_queries_per_s",
                    rest / steady if steady else 0.0, rest)


def bmw_check(run: Run, base: str, inp: Inputs, ref: list) -> None:
    """``scorer="bmw"`` must give the taat top-k on N_BMW_CHECK queries."""
    from splade_ray.query import QueryEngine

    eng = QueryEngine(base, k=K, scorer="bmw")
    for i in range(N_BMW_CHECK):
        ids, units = eng.search_one(*inp.query(i))
        run.check(np.array_equal(ids, ref[i][0])
                  and np.array_equal(units, ref[i][1]),
                  f"bmw differs from taat on stream query {i}")


def add_and_compact(run: Run, base: str, inp: Inputs, n_deleted: int) -> None:
    """``add_generation`` of the increment, then ``compact_index`` of the
    result; both rewrite every segment."""
    from splade_ray.delete import compact_index
    from splade_ray.merge import add_generation

    with open(os.path.join(base, "MANIFEST.json")) as f:
        n_base = json.load(f)["n_docs"]
    merged, compacted = run.path("merged"), run.path("compacted")
    with run.phase("add"):
        t0 = time.perf_counter()
        man = add_generation(base, _blocks(inp.inc, CPUS), merged)
        wall = time.perf_counter() - t0
    run.attempted += 1
    run.detail["add_s"] = wall
    n_added = man["n_docs"] - n_base
    run.check(n_added > 0, "add_generation added no documents")
    written = _dir_bytes(merged) + _dir_bytes(merged + ".gen")
    run.put("merge.bytes_written_per_added_byte",
            written / _content_bytes(inp.inc))
    with run.phase("compact"):
        t0 = time.perf_counter()
        cman = compact_index(merged, compacted)
        wall = time.perf_counter() - t0
    run.attempted += 1
    live = n_base - n_deleted + n_added
    run.check(cman["n_docs"] == live,
              f"compacted n_docs {cman['n_docs']} != live {live}")
    run.detail["compact_s"] = wall


def trace_overhead(run: Run, base: str, inp: Inputs) -> None:
    """The first OVERHEAD_QUERIES stream queries on one engine whose cache
    they have filled, tracing off and on in turn (ABBA order, 6 rounds a
    side); reports the difference of the two sides' median p50s."""
    from splade_ray.query import QueryEngine

    eng = QueryEngine(base, k=K)
    queries = [inp.query(i) for i in range(OVERHEAD_QUERIES)]
    for q, lang in queries:
        eng.search_one(q, lang)
    p50 = {False: [], True: []}
    for traced in (False, True, True, False) * 3:
        if traced:
            install_tracing(run.tr)
        lat = []
        for q, lang in queries:
            t0 = time.perf_counter()
            eng.search_one(q, lang)
            lat.append(time.perf_counter() - t0)
        run.tr.restore()
        p50[traced].append(_pct(lat, 50))
    run.put("trace.overhead_query_p50_ms",
            (statistics.median(p50[True]) - statistics.median(p50[False]))
            * 1e3, 6 * OVERHEAD_QUERIES)


def layer_metrics(run: Run, query_phase: str) -> None:
    """Per-layer metrics: query-path layers from the spans and counters of
    the workload's query phase, the rest from the whole run."""
    tr = run.tr
    st: dict[str, list] = {}
    cnt: dict[str, int] = {}
    for lo, hi, _wall, delta in run.phases[query_phase]:
        for name, (ns, n) in tr.self_ns(lo, hi).items():
            acc = st.setdefault(name, [0, 0])
            acc[0] += ns
            acc[1] += n
        for name, n in delta.items():
            cnt[name] = cnt.get(name, 0) + n
    n_queries = cnt["query.search_one"]
    allst = tr.self_ns()

    def put_mean(metric, table, *names, scale=1e-3):
        tot = sum(table.get(n, [0, 0])[0] for n in names)
        n = sum(table.get(n, [0, 0])[1] for n in names)
        run.put(metric, tot / n * scale if n else 0.0, n)

    put_mean("analyzer.query_us", st, "analyzer.analyze_query")
    put_mean("segments.lookup_us", st, "segments.term_rows")
    run.put("segments.lookups_per_query",
            cnt.get("segments.term_rows", 0) / n_queries, n_queries)
    dec = ("codecs.decode_postings_many", "codecs.decode_block_range")
    put_mean("codecs.decode_us", st, *dec)
    run.put("codecs.postings_decoded_per_query",
            sum(cnt.get(n + ".out", 0) for n in dec) / n_queries, n_queries)
    scored = cnt.get("query.term_scored", 0)
    n_dec = sum(cnt.get(n, 0) for n in dec)
    run.put("query.cache_hit_share",
            1.0 - n_dec / scored if scored else 0.0, scored)
    put_mean("query.self_us", st, "query.search_one")
    put_mean("docmap.gather_us", st, "docmap.gather_ids", "docmap.gather_lens")
    put_mean("query.open_ms", allst, "query.open", scale=1e-6)
    put_mean("delete.delete_ms", allst, "delete.delete_docs", scale=1e-6)
    put_mean("delete.compact_s", allst, "delete.compact_index", scale=1e-9)
    gen_build = [s for s in tr.spans if s[0] == "build.build_index"
                 and s[3] >= 0 and tr.spans[s[3]][0] == "merge.add_generation"]
    run.put("merge.gen_build_s", sum(s[2] - s[1] for s in gen_build) / 1e9,
            len(gen_build))
    put_mean("merge.merge_s", allst, "merge.merge_index_dirs", scale=1e-9)
    cover = {}
    for name, slices in run.phases.items():
        root = sum(tr.self_ns(lo, hi).get("phase." + name, [0, 0])[0]
                   for lo, hi, _w, _d in slices)
        cover[name] = 1.0 - root / 1e9 / sum(w for _l, _h, w, _d in slices)
    run.detail["phase_coverage"] = cover
    run.detail["layer_self_s"] = {k: v[0] / 1e9 for k, v in allst.items()}


# -- main --------------------------------------------------------------------
def window_work(workload: str, seconds: float) -> int:
    """Queries (``serve``) or update cycles (``update``) in the window."""
    if workload == "serve":
        return max(1, round(seconds * SERVE_QPS))
    return max(1, round(seconds * CYCLES_PER_S))


def bench(run: Run) -> None:
    """The life cycle: two set-ups, then a slice of the workload's window
    before the pool job, between it and the checks, and after them; each
    step is followed by a dose of update cycles.  On a
    shared VM the CPU speed drifts by up to about 40% within seconds, so
    spreading the window over the run keeps the run-to-run spread down."""
    inp = Inputs(run.seed)
    t0 = time.perf_counter()
    start_ray(run)
    run.detail["ray_start_s"] = time.perf_counter() - t0
    if run.tr:
        install_tracing(run.tr)
        from splade_ray.build import prepare_batch

        t0 = time.perf_counter()
        staged = prepare_batch(inp.corpus, lang_tagged=True)
        run.put("analyzer.doc_tokens_per_s", int(
            np.asarray(staged["doc_len"]).sum()) / (time.perf_counter() - t0))
    setup = Setup(run, inp)
    clean = setup.once()  # never gets deletes: serve, pool and checks use it
    updated = setup.once()  # gets the update cycles
    serving = run.workload == "serve"
    upd = UpdateLoop(run, updated, inp)
    if serving:
        loop = ServeLoop(run, clean, inp)
        ref = loop.warm[:N_POOL_CHECK]
    else:
        loop = upd
        ref = reference(run, clean, inp)
    pool = PoolJob(run, inp)

    def checks():
        oracle_check(run, clean, inp)
        bmw_check(run, clean, inp, ref)

    steps = [lambda: pool.run_job(clean, ref), checks]
    assert len(steps) == N_STEPS
    work = _split(window_work(run.workload, run.seconds), len(steps) + 1)
    loop.slice(work[0])
    for step, n in zip(steps, work[1:]):
        step()
        for _ in range(DOSE_CYCLES):  # for delete_visible_p50_ms
            upd.cycle(DOSE_QUERIES, timed=False)
        loop.slice(n)
    setup.report()
    run.put("query_p50_ms", _pct(loop.lat, 50) * 1e3, len(loop.lat))
    run.put("query_p99_ms", _pct(loop.lat, 99) * 1e3, len(loop.lat))
    run.put("delete_visible_p50_ms", _pct(upd.vis, 50) * 1e3, len(upd.vis))
    if run.tr:
        add_and_compact(run, updated, inp, len(upd.deleted))
        layer_metrics(run, run.workload)
        run.tr.restore()
        trace_overhead(run, clean, inp)
    run.put("driver_peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cycles = N_STEPS * DOSE_CYCLES + (window_work("update", args.seconds)
                                      if args.workload == "update" else 0)
    if cycles * DELETE_BATCH > MAX_DELETED_SHARE * N_BASE:
        print(f"--seconds {args.seconds} would delete more than "
              f"{MAX_DELETED_SHARE:.0%} of the base documents", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "splade_ray", "__init__.py")):
        print(f"no splade_ray package under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    # a plain kill must still shut Ray down (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    os.makedirs(run.work)
    t0 = time.perf_counter()
    try:
        bench(run)
    finally:
        stop_ray(run)
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.work))
        except OSError:
            pass
    names = PER_LAYER if run.tr else END_TO_END
    missing = [n for n in names if n not in run.metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 3
    out_dir = os.path.join(ROOT, "perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{run.workload}-seed{run.seed}"
                                 f"-trace{int(bool(run.tr))}")
    run.detail.update(wall_s=time.perf_counter() - t0, errors=run.errors,
                      metrics=run.metrics, samples=run.samples)
    with open(stem + ".json", "w") as f:
        json.dump(run.detail, f, indent=1)
    if run.tr:
        run.tr.dump(stem + ".spans.json")
    print(json.dumps({"cpus": CPUS,
                      "samples": {n: run.samples[n] for n in names}}))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": run.metrics[n], "unit": u}
                    for n, u in names.items()}}, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
