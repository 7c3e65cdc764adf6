"""Weighted np.bincount adds each bin's weights in input order, from 0.0.

BM25 block scoring (sparse.sparse_hits_each) sums each (query, passage)
cell's weight * impact products with one bincount, and relies on this to
give the bits of the per-term loop in sorted term order. A numpy release
that reorders, pairs or fuses these sums fails here, instead of silently
changing rankings and mined negatives.
"""

import numpy as np


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_each_bin_sums_its_weights_in_input_order():
    # Magnitudes far apart, so that each order of addition rounds
    # differently; three bins interleaved, one never hit.
    weights = np.array([1e16, 1.0, -1e16, 0.1, 1.0, 1e20, 3.0, -1e20, 0.3, 7.0, 1e-3, -1.0])
    bins = np.array([0, 0, 0, 2, 0, 2, 3, 2, 3, 2, 3, 3])
    sums = np.bincount(bins, weights=weights, minlength=5)
    for b in range(5):
        assert sums[b] == left_to_right(weights[bins == b].tolist())
    assert sums.tolist() == [1.0, 0.0, 7.0, 3.0 + 0.3 + 1e-3 - 1.0, 0.0]


def test_products_then_bincount_as_bm25_sums_them():
    # One query's weights at its terms in sorted order, times each posting's
    # impact, binned by passage. The last product of passage 0,
    # (1 + 2**-30)**2, is inexact: a fused multiply-add would keep its
    # 2**-60 and end on a different sum.
    odd = 1.0 + 2.0**-30
    weights = np.array([1e16, odd, -1e16, 0.5, 1e-3, -1.0])
    impacts = np.array([[1.0, 3.0], [odd, 1.0], [1.0, 3.0], [1.0, 1.0], [1.0, 7.0], [1.0, 1.0]])
    terms = [4, 0, 2, 5, 1]
    passages = np.tile([0, 1], len(terms))
    products = np.repeat(weights[terms], 2) * impacts[terms].ravel()
    scores = np.bincount(passages, weights=products, minlength=2)
    for doc in range(2):
        assert scores[doc] == left_to_right(float(weights[t]) * float(impacts[t, doc]) for t in terms)
    assert scores[0] == 2.0**-29


def test_random_bins_match_the_loop():
    rng = np.random.default_rng(0)
    magnitudes = np.array([1e-3, 1.0, 3.0, 1e8, 1e16, 1e20])
    for _ in range(50):
        size = int(rng.integers(1, 200))
        weights = rng.choice(magnitudes, size) * rng.choice([-1.0, 1.0], size) * (1.0 + rng.random(size))
        bins = rng.integers(0, 7, size)
        sums = np.bincount(bins, weights=weights, minlength=7)
        for b in range(7):
            assert sums[b] == left_to_right(weights[bins == b].tolist())
