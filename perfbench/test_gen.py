"""The generator is a pure function of the seed: python3 -m pytest perfbench"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402


def digest(*tables):
    h = hashlib.sha256()
    for t in tables:
        for name in t.column_names:
            h.update(name.encode())
            for v in t[name].to_pylist():
                h.update(repr(v).encode())
    return h.hexdigest()


def _inputs(seed):
    corpus = gen.generate_corpus(1000, seed)
    inc = gen.generate_corpus(40, seed, tag="inc")
    pool = gen.generate_query_pool(500, seed, corpus)
    return corpus, inc, pool, gen.query_stream(pool, 2000, seed)


def test_same_seed_same_bytes():
    a, b = _inputs(5), _inputs(5)
    assert digest(*a[:3]) == digest(*b[:3])
    assert a[3].tobytes() == b[3].tobytes()


def test_other_seed_other_bytes():
    assert digest(*_inputs(5)[:3]) != digest(*_inputs(6)[:3])


def test_increment_identities_disjoint_from_base():
    corpus, inc, _, _ = _inputs(5)
    key = lambda t: set(zip(t["repo"].to_pylist(), t["path"].to_pylist(),  # noqa: E731
                            t["commit"].to_pylist()))
    assert not key(corpus) & key(inc)


def test_edge_rows_and_query_classes_present():
    corpus, _, pool, stream = _inputs(5)
    contents = corpus["content"].to_pylist()
    assert "" in contents and " \n\t " in contents
    assert any(not c.isascii() for c in contents)
    assert len(set(contents)) < len(contents)  # duplicate content rows
    assert max(len(c.encode()) for c in contents) >= 64 * 1024  # wide rows
    classes = pool["cls"].to_pylist()
    assert set(classes) == set(gen.CLASSES)
    shares = [classes[i] for i in stream]
    for cls, share in gen.CLASSES.items():
        assert abs(shares.count(cls) / len(shares) - share) < 0.01
