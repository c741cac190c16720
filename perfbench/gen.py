"""Seeded inputs for the benchmark: a long-tail code corpus, a query stream
and update increments.

Everything here is a pure function of ``seed`` (and the sizes), so the same
seed gives byte-identical tables.  The engine under test only ever sees the
generated tables; nothing in this module imports it.

Corpus rows follow the ``input_hint`` schema
``(repo, path, commit, lang, content)``.  Identifiers are built from a
Zipfian sub-word vocabulary of ``N_PARTS`` parts (snake_case and camelCase,
which the analyzer splits back into parts), mixed with per-language
keywords, so the term dictionary has a realistic long tail instead of a few
thousand rows.  The edge rows of ``splade_ray.corpus.generate_corpus`` are
kept: empty, whitespace-only, unicode, duplicate-content and wide rows.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pyarrow as pa

# Taken from ``splade_ray.corpus.generate_corpus``, the repository's own
# corpus generator: the Zipf exponent of token draws, the language mix, the
# keyword lists and the log-normal tokens-per-file curve.  N_PARTS and the
# query-side constants below are assumptions (see METRICS.md).
N_PARTS = 40_000
ZIPF_S = 1.1
LANGS = ["py", "js", "go", "java", "rs", "md"]
LANG_P = [0.40, 0.20, 0.10, 0.10, 0.10, 0.10]
LEN_MU, LEN_SIGMA = 4.6, 0.7
KEYWORDS = {
    "py": ["def", "import", "class", "return", "self", "if", "else", "for",
           "in", "lambda", "yield", "none"],
    "js": ["function", "const", "let", "var", "return", "import", "export",
           "class", "this", "async", "await"],
    "go": ["func", "package", "import", "type", "struct", "interface",
           "range", "defer", "chan", "go"],
    "java": ["public", "private", "static", "void", "class", "import",
             "extends", "interface", "final", "new"],
    "rs": ["fn", "let", "mut", "impl", "struct", "enum", "match", "pub",
           "use", "trait"],
    "md": ["the", "a", "of", "and", "to", "in", "is", "usage", "example",
           "install"],
}
_SEPS = np.array([" ", " ", " ", "\n", "(", ") ", ": ", ", ", " = ", ".",
                  ";\n", "["], dtype=object)
_CONS = list("bcdfghjklmnprstvwz")
_VOWELS = list("aeiou")

N_HOT = 40  # parts with the highest document frequency
MID_DF = (0.005, 0.05)  # document-frequency band of "mid" parts
RARE_DF = (1, 3)  # document-count band of "rare" parts


def parts_vocab(seed: int, n: int = N_PARTS) -> list[str]:
    """``n`` distinct lowercase sub-words, most popular first.  The number
    of syllables at each rank is the same for every seed (so is the text's
    size); the seed picks the syllables."""
    rng = np.random.default_rng([seed, 1])
    syll = np.array([c + v for c in _CONS for v in _VOWELS], dtype=object)
    sizes = np.random.default_rng(0).choice([2, 3, 4], n, p=[0.1, 0.6, 0.3])
    seen = {k for ks in KEYWORDS.values() for k in ks}
    out = []
    for size in sizes.tolist():
        w = "".join(syll[rng.integers(0, len(syll), size)])
        while w in seen:
            w = "".join(syll[rng.integers(0, len(syll), size)])
        seen.add(w)
        out.append(w)
    return out


@functools.lru_cache(maxsize=None)
def _zipf_table(n: int, s: float, res: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** s
    cdf = np.cumsum(p / p.sum())
    return np.minimum(np.searchsorted(cdf, (np.arange(res) + 0.5) / res),
                      n - 1).astype(np.int32)


def _zipf_sampler(n: int, s: float = ZIPF_S, res: int = 1 << 20):
    """Returns ``draw(rng, size)`` giving Zipf(s) ranks in ``[0, n)``; an
    inverse-CDF lookup table keeps each draw a single gather."""
    table = _zipf_table(n, s, res)
    return lambda rng, size: table[rng.integers(0, res, size)]


def keyword_share(lang: str) -> float:
    """Share of keyword tokens in ``splade_ray.corpus.generate_corpus``,
    whose keywords head a Zipf(ZIPF_S) vocabulary of the language's
    keywords plus 1,500 identifiers."""
    n_kw = len(KEYWORDS[lang])
    p = 1.0 / np.arange(1, n_kw + 1_501) ** ZIPF_S
    return float(p[:n_kw].sum() / p.sum())


def _fixed_shape(n_files: int, rng: np.random.Generator):
    """Languages and tokens per file: the same multiset for every seed
    (exact LANG_P shares, log-normal lengths from a fixed generator), in a
    seeded order, so the corpus size does not vary with the seed."""
    cum = np.cumsum(LANG_P)
    langs = np.minimum(np.searchsorted(cum, (np.arange(n_files) + 0.5)
                                       / n_files), len(LANGS) - 1)
    n_toks = np.clip(np.random.default_rng(0).lognormal(
        LEN_MU, LEN_SIGMA, n_files).astype(np.int64), 5, 4000)
    order = rng.permutation(n_files)
    return np.array(LANGS)[langs[order]], rng.permutation(n_toks)


def _identifiers(rng: np.random.Generator, parts: list[str],
                 n: int) -> np.ndarray:
    """``n`` identifiers of 1-3 parts, each part Zipf-drawn from ``parts``,
    joined snake_case or camelCase.  Drawing every part independently keeps
    the rank-frequency curve, and so the index's shape, the same for every
    seed; only the strings change."""
    low = np.array(parts, dtype=object)
    cap = np.array([w.capitalize() for w in parts], dtype=object)
    ks = rng.choice([1, 2, 3], n, p=[0.4, 0.4, 0.2])
    picks = _zipf_sampler(len(parts))(rng, (3, n))
    camel = rng.random(n) < 0.5
    out = low[picks[0]]
    for j in (1, 2):
        m = ks > j
        out[m] = out[m] + np.where(camel[m], cap[picks[j][m]],
                                   "_" + low[picks[j][m]])
    return out


def generate_corpus(n_files: int, seed: int, *, tag: str = "base",
                    parts: list[str] | None = None) -> pa.Table:
    """``n_files`` rows of synthetic source code; ``tag`` namespaces the
    identity columns so increments never collide with the base.  Tokens
    are identifiers, with a ``keyword_share`` of language keywords mixed
    in, each followed by a separator."""
    parts = parts if parts is not None else parts_vocab(seed)
    rng = np.random.default_rng([seed, 2, int.from_bytes(
        hashlib.sha256(tag.encode()).digest()[:4], "little")])
    langs, n_toks = _fixed_shape(n_files, rng)
    contents = np.empty(n_files, dtype=object)
    for lang in LANGS:
        rows = np.flatnonzero(langs == lang)
        if not len(rows):
            continue
        total = int(n_toks[rows].sum())
        toks = _identifiers(rng, parts, total)
        kw = rng.random(total) < keyword_share(lang)
        kws = np.array(KEYWORDS[lang], dtype=object)
        toks[kw] = kws[rng.integers(0, len(kws), int(kw.sum()))]
        pieces = toks + _SEPS[rng.integers(0, len(_SEPS), total)]
        offs = np.concatenate([[0], np.cumsum(n_toks[rows])])
        for j, r in enumerate(rows.tolist()):
            contents[r] = "".join(pieces[offs[j]:offs[j + 1]])
    for i in range(n_files):  # edge rows at fixed positions
        if i % 211 == 0:
            contents[i] = ""
        elif i % 211 == 105:
            contents[i] = " \n\t "
        elif i % 151 == 3:
            contents[i] = "déjà_vu ναμε " + contents[i]
        elif i % 97 == 96:
            contents[i] = contents[i - 96]
        elif i % 1000 == 999:  # wide row of exactly 64 KiB
            contents[i] = (contents[i] * (65536 // len(contents[i]) + 1)
                           )[:65536]
    return pa.table({
        "repo": pa.array([f"org{i % 7}/repo{i % 23}" for i in range(n_files)]),
        "path": pa.array([f"{tag}/m{i // 97}/f{i}.{langs[i]}"
                          for i in range(n_files)]),
        "commit": pa.array([
            hashlib.sha256(f"{seed}:{tag}:{i}".encode()).hexdigest()[:40]
            for i in range(n_files)]),
        "lang": pa.array(langs.tolist()),
        "content": pa.array(contents.tolist(), type=pa.string()),
    })


CLASSES = {  # query class -> share of the pool and of the stream
    "hot": 0.10, "hot_rare": 0.25, "mid": 0.30, "camel": 0.15, "lang": 0.14,
    "absent": 0.03, "empty": 0.03,
}


def part_df(corpus: pa.Table) -> dict[str, int]:
    """Document frequency of each lowercase word part in ``corpus`` (the
    analyzer's camelCase / snake_case split, restricted to letters)."""
    import re

    split = re.compile(r"[A-Z]?[a-z]+")
    df: dict[str, int] = {}
    for text in corpus["content"].to_pylist():
        for w in {m.lower() for m in split.findall(text or "")}:
            df[w] = df.get(w, 0) + 1
    return df


def generate_query_pool(n_distinct: int, seed: int,
                        corpus: pa.Table) -> pa.Table:
    """About ``n_distinct`` distinct queries ``(query_id, query, lang, cls)``
    for ``corpus``, each class taking its ``CLASSES`` share.

    Classes: ``hot`` one of the most frequent parts or a keyword;
    ``hot_rare`` a hot part plus a part in 1-3 documents (the
    skewed-impact class); ``mid`` 2-4 parts of mid document frequency;
    ``camel`` a camelCase identifier of hot and mid parts; ``lang`` a
    lang-tagged keyword plus a mid part; ``absent`` tokens the corpus never
    contains; ``empty`` zero-token strings.  The small classes are capped
    by how many distinct strings they have."""
    rng = np.random.default_rng([seed, 3])
    keywords = sorted({k for ks in KEYWORDS.values() for k in ks})
    df = part_df(corpus)
    by_df = sorted((w for w in df if w not in keywords),
                   key=lambda w: (-df[w], w))
    n_docs = corpus.num_rows
    hot = by_df[:N_HOT]
    mid = [w for w in by_df[N_HOT:]
           if MID_DF[0] * n_docs <= df[w] <= MID_DF[1] * n_docs]
    rare = [w for w in by_df if RARE_DF[0] <= df[w] <= RARE_DF[1]]
    hot_words = hot + keywords
    empties = ["", "!!! ... ???", "  ", "()", "-- ;", "...", "#"]

    def pick(words, size=None):
        if size is None:
            return words[int(rng.integers(0, len(words)))]
        return [words[i] for i in rng.integers(0, len(words), size)]

    def make(cls: str) -> tuple[str, str]:
        if cls == "hot":
            return pick(hot_words), ""
        if cls == "hot_rare":
            return f"{pick(hot)} {pick(rare)}", ""
        if cls == "mid":
            return " ".join(pick(mid, int(rng.integers(2, 5)))), ""
        if cls == "camel":
            ws = [pick(hot)] + pick(mid, int(rng.integers(1, 3)))
            return ws[0] + "".join(w.capitalize() for w in ws[1:]), ""
        lang = LANGS[int(rng.integers(0, len(LANGS)))]
        if cls == "lang":
            return f"{pick(KEYWORDS[lang])} {pick(mid)}", lang
        if cls == "absent":
            return f"qzx{int(rng.integers(0, 10**9))} " \
                   f"xqj{int(rng.integers(0, 10**9))}", ""
        return pick(empties), lang

    rows: list[tuple[str, str, str]] = []
    for cls, share in CLASSES.items():
        seen: set[tuple[str, str]] = set()
        want = round(n_distinct * share)
        for _ in range(20 * want):
            if len(seen) == want:
                break
            q = make(cls)
            if q not in seen:
                seen.add(q)
                rows.append((q[0], q[1], cls))
    return pa.table({
        "query_id": pa.array(np.arange(len(rows), dtype=np.int64)),
        "query": pa.array([r[0] for r in rows]),
        "lang": pa.array([r[1] for r in rows]),
        "cls": pa.array([r[2] for r in rows]),
    })


def query_stream(pool: pa.Table, n: int, seed: int,
                 s: float = 0.8) -> np.ndarray:
    """Indices into ``pool`` for an ``n``-query stream.  Each class takes
    its ``CLASSES`` share of the stream exactly; within a class, popularity
    follows a Zipf(s) curve over a seeded permutation of its queries."""
    rng = np.random.default_rng([seed, 4])
    cls = np.asarray(pool["cls"].to_pylist())
    out = []
    for c, share in CLASSES.items():
        members = rng.permutation(np.flatnonzero(cls == c))
        out.append(members[_zipf_sampler(len(members), s)(
            rng, round(n * share))])
    return rng.permutation(np.concatenate(out))
