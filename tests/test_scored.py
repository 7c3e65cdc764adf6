import random

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from hyqa.scored import id_ranks, top_k


def full_sort_reference(scores, id_rank, k):
    return np.lexsort((id_rank, -scores))[:k]


class TestTopK:
    @given(
        st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0, 7.0, float("nan"), float("inf")]), max_size=40),
        st.integers(0, 45),
        st.randoms(use_true_random=False),
    )
    @example([], 0, None)
    @example([1.0, 1.0, 1.0], 2, None)
    @example([float("nan")] * 3 + [1.0], 2, None)
    @example([0.25] * 400 + [2.0] * 7 + [-1.5] * 30, 100, random.Random(0))
    @example([-1.5] * 300, 1, random.Random(1))
    @example([0.0] * 250 + [float("nan")] * 60 + [7.0] * 3, 120, random.Random(2))
    @example([float("nan")] * 300 + [2.0] * 2, 150, random.Random(3))
    @example([float("inf")] * 5 + [-1.5] * 200 + [float("nan")] * 200, 6, random.Random(4))
    def test_equals_full_sort(self, scores, k, rnd):
        order = list(range(len(scores)))
        if rnd is not None:
            rnd.shuffle(order)
        scores, id_rank = np.array(scores, dtype=np.float64), np.array(order, dtype=np.int64)
        np.testing.assert_array_equal(top_k(scores, id_rank, k), full_sort_reference(scores, id_rank, k))


def test_id_ranks():
    np.testing.assert_array_equal(id_ranks(["b", "c", "a", "ab"]), [2, 3, 0, 1])
    assert id_ranks([]).shape == (0,)
