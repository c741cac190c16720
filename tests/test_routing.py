"""Dictionary lookups routed by the build's placement rule (``_IndexCore``).

Contracts under test:
  * routed ``term_refs`` equal a search of every segment, for every
    dictionary term and for absent terms, on a fresh build, on an
    ``add_generation`` whose generations salt different terms, after
    ``delete_docs`` + ``compact_index``, and after a resume from a
    differently partitioned input;
  * routing is really used: a lookup searches one segment for a cold term
    and at most ``1 + 2^salt_bits`` for a hot one;
  * an index whose MANIFEST lacks the ``placement`` record, or names a rule
    the reader does not know, is searched segment by segment with the same
    refs; a merge of inputs that disagree on it writes no record, and a
    rerun over a finished index without it keeps the segments and writes
    it;
  * ``tools/diff_index.py`` prints both records and flags a mismatch
    without changing its exit code.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import ray.data as rd

from splade_ray.build import build_index, read_docs
from splade_ray.corpus import generate_corpus
from splade_ray.delete import compact_index, delete_docs
from splade_ray.ids import PLACEMENT, term_shard
from splade_ray.merge import add_generation, merge_index_dirs
from splade_ray.query import _IndexCore
from splade_ray.segments import SegmentReader

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KW = dict(lang_tagged=True, n_shards=8, hot_df_frac=0.05, hot_df_min=40)


@pytest.fixture(scope="module")
def corpus_table():
    return generate_corpus(400, seed=11)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("routing")


@pytest.fixture(scope="module")
def base(corpus_table, root, ray_session):
    d = str(root / "base")
    build_index(rd.from_arrow(corpus_table), d, **KW)
    return d


def _manifest(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "MANIFEST.json")) as f:
        return json.load(f)


def _core(index_dir: str) -> _IndexCore:
    """A core of its own (empty lookup memo), not the process's shared one."""
    return _IndexCore(index_dir, _manifest(index_dir))


def _scan(core: _IndexCore, term: str):
    """``term_refs`` by a search of every segment."""
    refs, df = [], 0
    for si, seg in enumerate(core.segments):
        for ri in seg.term_rows(term):
            refs.append((int(seg.salt[ri]), si, ri))
            df += int(seg.df[ri])
    return sorted(refs), df


def _dictionary(core: _IndexCore) -> set[str]:
    return {seg.term_at(i) for seg in core.segments
            for i in range(len(seg.salt))}


def _absent(terms: set[str]) -> list[str]:
    """300 terms the dictionary lacks, half of them one edit off a real one."""
    near = sorted(({t + "q" for t in terms} | {t[:-1] for t in terms})
                  - terms)
    return near[:150] + [f"py:absent{i}" for i in range(150)]


def _assert_routed_equals_scan(index_dir: str) -> _IndexCore:
    core = _core(index_dir)
    assert core.manifest["placement"] == PLACEMENT
    terms = _dictionary(core)
    assert terms
    bad = [t for t in sorted(terms) + _absent(terms)
           if core.term_refs(t) != _scan(core, t)]
    assert bad == []
    return core


def test_fresh_build(base):
    core = _assert_routed_equals_scan(base)
    assert len(core.manifest["hot_terms"]) >= 24


def test_generations_with_different_hot_sets(corpus_table, root):
    """Generation A salts nothing, B salts its frequent terms: a term cold
    in A and hot in B sits in its home shard AND in its salt shards."""
    a, out = str(root / "gen_a"), str(root / "gen_ab")
    build_index(rd.from_arrow(corpus_table.slice(0, 200)), a,
                **{**KW, "hot_df_min": 10**9})
    add_generation(a, rd.from_arrow(corpus_table.slice(200)), out,
                   hot_df_min=20)
    man_a, man = _manifest(a), _manifest(out)
    assert man_a["hot_terms"] == []
    core_a = _core(a)
    cold_in_a = [t for t in man["hot_terms"] if core_a.term_refs(t)[0]]
    assert cold_in_a
    core = _assert_routed_equals_scan(out)
    t = cold_in_a[0]
    salts = {salt for salt, _si, _ri in core.term_refs(t)[0]}
    assert len(salts) > 1  # A's unsalted rows plus B's salted ones
    # inputs that disagree on the placement record merge into an index
    # without one, which is then searched segment by segment
    a_old = _with_placement(a, str(root / "gen_a_old"), None)
    mixed = merge_index_dirs([a_old, out + ".gen"], str(root / "mixed"))
    assert "placement" not in mixed


def test_delete_then_compact(base, root):
    d, out = str(root / "deleted"), str(root / "compacted")
    shutil.copytree(base, d)
    ids = np.sort(np.asarray([r["doc_id"] for r in
                              read_docs(d, columns=["doc_id"]).take_all()]))
    delete_docs(d, ids[::5])
    man = compact_index(d, out)
    assert man["placement"] == PLACEMENT
    assert man["hot_terms"] == _manifest(base)["hot_terms"]
    _assert_routed_equals_scan(out)


def test_resume_from_a_differently_partitioned_input(corpus_table, root):
    idx = str(root / "resumed")
    fp = "routing-resume"
    build_index(rd.from_arrow(corpus_table).repartition(4), idx,
                corpus_fp=fp, **KW)
    segs = sorted(os.listdir(os.path.join(idx, "segments")))
    for s in (segs[2], segs[5]):
        shutil.rmtree(os.path.join(idx, "segments", s))
    build_index(rd.from_arrow(corpus_table).repartition(3), idx,
                corpus_fp=fp, **KW)
    _assert_routed_equals_scan(idx)


def _with_placement(index_dir: str, out: "str | None",
                    record: "str | None") -> str:
    """``index_dir`` (or its copy at ``out``) with a MANIFEST that names
    ``record`` as its placement (None: no record)."""
    if out is not None:
        index_dir = shutil.copytree(index_dir, out)
    m = _manifest(index_dir)
    m.pop("placement")
    if record is not None:
        m["placement"] = record
    with open(os.path.join(index_dir, "MANIFEST.json"), "w") as f:
        json.dump(m, f)
    return index_dir


def test_rerun_records_the_placement_of_an_older_index(corpus_table, root):
    """A finished index whose MANIFEST predates the record is not returned
    as is by a rerun: the resume keeps its segments and writes the record."""
    idx = str(root / "older")
    build_index(rd.from_arrow(corpus_table), idx, corpus_fp="routing-older",
                **KW)
    ref = str(root / "older-ref")
    shutil.copytree(idx, ref)
    _with_placement(idx, None, None)
    man = build_index(rd.from_arrow(corpus_table), idx,
                      corpus_fp="routing-older", **KW)
    assert man["placement"] == PLACEMENT
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "diff_index.py"),
         ref, idx], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout
    assert "placement match\n" in out.stdout


@pytest.mark.parametrize("record", [None, "hash63-mod-v0"])
def test_unknown_placement_searches_every_segment(base, root, record):
    d = _with_placement(base, str(root / f"placement-{record}"), record)
    core, routed = _core(d), _core(base)
    terms = _dictionary(core)
    for t in sorted(terms) + _absent(terms):
        assert core.term_refs(t) == _scan(core, t) == routed.term_refs(t)
    calls = _count_term_rows(_core(d), sorted(terms)[:50])
    assert set(calls.values()) == {len(core.segments)}


def _count_term_rows(core: _IndexCore, terms) -> dict[str, int]:
    """``SegmentReader.term_rows`` calls per lookup of each of ``terms``."""
    calls = {"n": 0}
    orig = SegmentReader.term_rows

    def counted(self, term):
        calls["n"] += 1
        return orig(self, term)

    out = {}
    SegmentReader.term_rows = counted
    try:
        for t in terms:
            calls["n"] = 0
            core.term_refs(t)
            out[t] = calls["n"]
    finally:
        SegmentReader.term_rows = orig
    return out


def test_lookups_search_only_the_placement_shards(base):
    core = _core(base)
    man = core.manifest
    hot, n_salt = set(man["hot_terms"]), 1 << man["salt_bits"]
    assert len(core.segments) == man["n_shards"] > 1
    terms = _dictionary(core)
    calls = _count_term_rows(core, sorted(terms) + _absent(terms))
    for t, n in calls.items():
        if t in hot:
            shards = {term_shard(t, None, man["n_shards"])} | {
                term_shard(t, s, man["n_shards"]) for s in range(n_salt)}
            assert n == len(shards) <= 1 + n_salt, t
        else:
            assert n == 1, t
    assert sum(calls[t] for t in hot) > len(hot)  # hot terms fan out
    # the memo answers a repeated lookup without a search
    assert set(_count_term_rows(core, sorted(terms)[:20]).values()) == {0}


def test_diff_index_flags_a_placement_mismatch(base, root):
    d = _with_placement(base, str(root / "diff-no-placement"), None)
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "diff_index.py"),
         base, d], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout
    assert f"A placement: {PLACEMENT}\nB placement: -\n" in out.stdout
    assert "placement MISMATCH\n" in out.stdout
    same = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "diff_index.py"),
         base, base], capture_output=True, text=True)
    assert "placement match\n" in same.stdout
