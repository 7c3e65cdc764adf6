import random

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from hyqa.scored import id_ranks, top_k, top_set


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


class TestTopSet:
    @given(
        st.lists(st.one_of(st.integers(-3, 3).map(float), st.just(float("nan"))), max_size=40).flatmap(
            lambda scores: st.tuples(st.just(scores), st.integers(1, len(scores) + 2), st.permutations(range(len(scores))))
        )
    )
    @example(([1.0, 1.0, 2.0, 1.0, 0.0], 2, [4, 3, 2, 1, 0]))
    @example(([float("nan"), 1.0, float("nan")], 2, [2, 1, 0]))
    @example(([0.0] * 30 + [1.0] * 3, 5, list(range(33))[::-1]))
    def test_is_the_unsorted_top_k(self, case):
        scores, k, order = case
        scores, id_rank = np.array(scores, dtype=np.float64), np.array(order, dtype=np.int64)
        chosen, ranked = top_set(scores, id_rank, k), top_k(scores, id_rank, k)
        assert len(chosen) == min(k, len(scores))
        assert set(chosen.tolist()) == set(ranked.tolist())
        np.testing.assert_array_equal(ranked, chosen[np.lexsort((id_rank[chosen], -scores[chosen]))])


def test_id_ranks():
    np.testing.assert_array_equal(id_ranks(["b", "c", "a", "ab"]), [2, 3, 0, 1])
    assert id_ranks([]).shape == (0,)
