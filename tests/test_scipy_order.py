"""scipy.sparse adds a product's terms in stored order, starting from 0.0.

The encoder's token bags rely on this to give the bits of the loops they
replaced. A scipy release that reorders or fuses these sums fails here,
instead of silently changing trained encoders. (BM25 scoring sums with
np.bincount instead; tests/test_bincount_order.py pins its order.)
"""

import numpy as np
from scipy.sparse import csr_array

# Magnitudes far apart, so that each order of addition rounds differently.
VALUES = np.array([
    [1e16, 1.0, 0.1],
    [1.0, 1e16, 0.2],
    [-1e16, -1e16, 0.3],
    [3.0, 7.0, 1e20],
    [1e-3, 2.0, -1e20],
    [-1.0, 5.0, 0.7],
])


def left_to_right(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


def test_rows_and_transposed_columns_sum_in_stored_order():
    # Four rows over six columns, with repeated and unsorted columns.
    rows = [[0, 1, 1, 5, 0, 2], [], [3, 3, 0], [4, 2, 0, 0, 1, 5, 3]]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    ones = csr_array((np.ones(indptr[-1]), np.concatenate(rows), indptr), shape=(4, 6))
    pooled = ones @ VALUES
    for i, cols in enumerate(rows):
        for j in range(3):
            assert pooled[i, j] == left_to_right(VALUES[c, j] for c in cols)

    shares = VALUES[:4] / 3.0
    scattered = ones.T @ shares
    for c in range(6):
        for j in range(3):
            assert scattered[c, j] == left_to_right(shares[i, j] for i, cols in enumerate(rows) for col in cols if col == c)


def test_sparse_product_sums_products_in_stored_order():
    # A query row times a terms x passages matrix, as in BM25 block scoring.
    # The last product, (1 + 2**-30)**2, is inexact: a fused multiply-add
    # would keep its 2**-60 and end on a different sum.
    odd = 1.0 + 2.0**-30
    weights = np.array([1e16, odd, -1e16, 0.5, 1e-3, -1.0])
    impacts = np.array([[1.0, 3.0], [odd, 1.0], [1.0, 3.0], [1.0, 1.0], [1.0, 7.0], [1.0, 1.0]])
    terms = [4, 0, 2, 5, 1]
    query = csr_array((weights[terms], terms, [0, len(terms)]), shape=(1, 6))
    scores = (query @ csr_array(impacts)).toarray()
    for doc in range(2):
        assert scores[0, doc] == left_to_right(float(weights[t]) * float(impacts[t, doc]) for t in terms)
    assert scores[0, 0] == 2.0**-29
