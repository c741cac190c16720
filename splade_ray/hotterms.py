"""Hot-term detection: one bounded Misra-Gries summary per staging block.

A term is *hot* when its document frequency reaches the build's threshold;
the shuffle salts a hot term's postings over several shards.  The hot set
only steers load balance, never results.

Each staging block reduces its ``terms`` column to at most ``capacity``
(term, count) rows (``block_summary``): one ``value_counts`` gives the
block's exact df (terms are unique per doc), and when the block has more
distinct terms than ``capacity`` the (capacity+1)-th largest count is
subtracted from every count and the non-positive rows dropped.  The driver
folds the block summaries into one ``MisraGries`` summary of the same
capacity with the same add-then-reduce step.

Guarantee (the mergeable Misra-Gries bound): every counter underestimates
its term's true df by at most ``N / (capacity + 1)``, N the number of
(doc, term) pairs summarized, whatever the block sizes or merge order.  So
``hot(threshold)`` holds every term with df >= threshold + N/(capacity+1)
and no term with df < threshold.  The fold keeps at most ``2 * capacity``
rows at any time, independent of the number of blocks, docs or terms.

Terms right at the threshold may come out either way depending on the
order the blocks are folded in, so a caller that needs the same hot set
twice (a resumed build must salt exactly like the segments it keeps) folds
the same blocks in the same order.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

COUNTERS_PER_SLOT = 1024  # capacity per unit of n_docs / threshold
MAX_CAPACITY = 1 << 15


def capacity_for(n_docs: int, threshold: int) -> int:
    """Summary capacity: ``COUNTERS_PER_SLOT * n_docs / threshold`` counters,
    at most ``MAX_CAPACITY``.  ``n_docs / threshold`` is at most
    ``1 / hot_df_frac`` (threshold >= hot_df_frac * n_docs), so the capacity
    does not grow with the corpus; the relative error bound it buys is
    (distinct terms per doc) / COUNTERS_PER_SLOT below the cap."""
    slots = n_docs / max(1, threshold)
    return int(min(MAX_CAPACITY, max(1, math.ceil(COUNTERS_PER_SLOT * slots))))


def mg_reduce(terms: pa.Array, counts: np.ndarray,
           capacity: int) -> tuple[pa.Array, np.ndarray]:
    """The Misra-Gries step: above ``capacity`` rows, subtract the
    (capacity+1)-th largest count from every count and keep the positive
    ones (at most ``capacity``).  The result depends only on the multiset
    of (term, count) rows, not on their order."""
    n = len(counts)
    if n <= capacity:
        return terms, counts
    cut = np.partition(counts, n - capacity - 1)[n - capacity - 1]
    keep = counts > cut
    return terms.filter(pa.array(keep)), counts[keep] - cut


def block_summary(terms, capacity: int) -> tuple[pa.Array, np.ndarray]:
    """A block's ``terms`` list column -> its Misra-Gries summary."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    vc = pc.value_counts(terms.flatten().cast(pa.string()))
    return mg_reduce(vc.field("values"),
                  vc.field("counts").to_numpy(zero_copy_only=False), capacity)


class MisraGries:
    """The driver-side fold of block summaries (``merge`` one at a time)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.terms = pa.array([], type=pa.string())
        self.counts = np.zeros(0, dtype=np.int64)
        self.peak_rows = 0

    def merge(self, terms: pa.Array, counts: np.ndarray) -> None:
        t = pa.table({"term": pa.concat_arrays([self.terms,
                                                 terms.cast(pa.string())]),
                      "n": np.concatenate([self.counts,
                                           np.asarray(counts, np.int64)])})
        self.peak_rows = max(self.peak_rows, t.num_rows)
        g = t.group_by("term").aggregate([("n", "sum")])
        self.terms, self.counts = mg_reduce(
            g["term"].combine_chunks(),
            g["n_sum"].to_numpy(zero_copy_only=False), self.capacity)

    @property
    def rows(self) -> int:
        return len(self.counts)

    def hot(self, threshold: int) -> list[str]:
        """Sorted terms whose counter reaches ``threshold``."""
        return sorted(self.terms.filter(
            pa.array(self.counts >= threshold)).to_pylist())


def n_hot_rows(vocab: pa.Array, rank: np.ndarray, salt: np.ndarray,
               hot_terms: frozenset[str]) -> int:
    """Dictionary rows of hot terms: their distinct (term, salt) lists."""
    if not hot_terms:
        return 0
    is_hot = pc.is_in(vocab, value_set=pa.array(sorted(hot_terms),
                                                pa.string()))
    is_hot = is_hot.to_numpy(zero_copy_only=False)
    rows = is_hot[rank]
    if not rows.any():
        return 0
    hot_idx = (np.cumsum(is_hot) - 1)[rank[rows]]
    keys = hot_idx * (int(salt.max()) + 1) + salt[rows]
    return int(np.count_nonzero(np.bincount(keys)))
