"""scipy.sparse adds a product's terms in stored order, starting from 0.0.

The encoder's token bags rely on this to give the bits of the loops they
replaced. They call the kernels behind `csr_array @ X` and `csr_array.T @ X`,
`csr_matvecs` and `csc_matvecs`, directly, without building a matrix. A
scipy release that reorders or fuses these sums, or renames, re-signs or
reorders those kernels, fails here instead of silently changing (or
breaking) trained encoders. The encoder loads the kernels' module from its
file without importing scipy.sparse; the first test checks that it loads
the file scipy.sparse imports, so these pins cover what training calls.
(BM25 scoring sums with np.bincount instead; tests/test_bincount_order.py
pins its order.)
"""

import numpy as np
from scipy.sparse import _sparsetools, csr_array
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from hyqa.encoder import _kernels

# Magnitudes far apart, so that each order of addition rounds differently.
VALUES = np.array([
    [1e16, 1.0, 0.1],
    [1.0, 1e16, 0.2],
    [-1e16, -1e16, 0.3],
    [3.0, 7.0, 1e20],
    [1e-3, 2.0, -1e20],
    [-1.0, 5.0, 0.7],
])


def test_encoder_loads_the_kernels_scipy_sparse_imports():
    assert _kernels().__file__ == _sparsetools.__file__


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


# The rows of the first test: an empty row, and repeated and unsorted columns.
ROWS = [[0, 1, 1, 5, 0, 2], [], [3, 3, 0], [4, 2, 0, 0, 1, 5, 3]]


def test_kernels_take_the_token_bag_arguments():
    # The encoder's _TokenBag passes intp indptr and indices and float64 ones,
    # in this order, and a C-contiguous float64 output to fill in place.
    indptr = np.zeros(len(ROWS) + 1, dtype=np.intp)
    np.cumsum([len(r) for r in ROWS], out=indptr[1:])
    slot = np.concatenate(ROWS).astype(np.intp)
    ones = np.ones(len(slot))
    matrix = csr_array((ones, slot, indptr), shape=(4, 6))

    pooled = np.zeros((4, 3))
    csr_matvecs(4, 6, 3, indptr, slot, ones, VALUES.ravel(), pooled.ravel())
    for i, cols in enumerate(ROWS):
        for j in range(3):
            assert pooled[i, j] == left_to_right(VALUES[c, j] for c in cols)
    assert pooled.tobytes() == (matrix @ VALUES).tobytes()

    shares = VALUES[:4] / 3.0
    scattered = np.zeros((6, 3))
    csc_matvecs(6, 4, 3, indptr, slot, ones, shares.ravel(), scattered.ravel())
    for c in range(6):
        for j in range(3):
            assert scattered[c, j] == left_to_right(shares[i, j] for i, cols in enumerate(ROWS) for col in cols if col == c)
    assert scattered.tobytes() == (matrix.T @ shares).tobytes()
