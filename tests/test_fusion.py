import numpy as np
import pytest

from hyqa.evalkit import GoldSet, match_at_k
from hyqa.fusion import FusionConfig, fuse, fuse_top_k, minmax_normalize, shared_rows, tune_weight
from hyqa.scored import ScoredPassage, top_k


def sp(pid, score, provenance="sparse"):
    return ScoredPassage(pid, score, provenance)


class TestMinMax:
    def test_hand_values(self):
        normalized = minmax_normalize([2.0, 4.0, 8.0])
        assert normalized.dtype == np.float64
        assert normalized.tolist() == [0.0, 1.0 / 3.0, 1.0]

    def test_constant_list_maps_to_half(self):
        assert minmax_normalize([3.0, 3.0, 3.0]).tolist() == [0.5, 0.5, 0.5]

    def test_singleton(self):
        assert minmax_normalize([7.0]).tolist() == [0.5]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            minmax_normalize([])


class TestConfig:
    def test_defaults(self):
        config = FusionConfig()
        assert config.pool_size == 2000
        assert config.weight == 0.5

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            FusionConfig(weight=-0.1)
        with pytest.raises(ValueError):
            FusionConfig(weight=1.1)


class TestFuse:
    def sparse_run(self):
        return [sp("a", 10.0), sp("b", 6.0), sp("c", 2.0)]

    def dense_run(self):
        return [sp("b", 0.9, "dense"), sp("d", 0.5, "dense"), sp("a", 0.1, "dense")]

    def test_hand_worked_combination(self):
        fused = {r.passage_id: r.score for r in fuse(self.sparse_run(), self.dense_run(), FusionConfig(weight=0.5))}
        # Sparse norms: a=1, b=0.5, c=0; dense norms: b=1, d=0.5, a=0.
        assert fused["a"] == pytest.approx(0.5)
        assert fused["b"] == pytest.approx(0.75)
        assert fused["c"] == pytest.approx(0.0)
        assert fused["d"] == pytest.approx(0.25)

    def test_missing_passage_floors_to_zero(self):
        fused = {r.passage_id: r.score for r in fuse(self.sparse_run(), self.dense_run(), FusionConfig(weight=1.0))}
        assert fused["d"] == 0.0

    def test_weight_one_is_sparse_ranking(self):
        fused = fuse(self.sparse_run(), self.dense_run(), FusionConfig(weight=1.0))
        sparse_order = [r.passage_id for r in self.sparse_run()]
        fused_known = [r.passage_id for r in fused if r.passage_id in sparse_order]
        assert fused_known == sparse_order

    def test_weight_zero_is_dense_ranking(self):
        fused = fuse(self.sparse_run(), self.dense_run(), FusionConfig(weight=0.0))
        dense_order = [r.passage_id for r in self.dense_run()]
        fused_known = [r.passage_id for r in fused if r.passage_id in dense_order]
        assert fused_known == dense_order

    def test_provenance_and_tie_order(self):
        fused = fuse([sp("b", 1.0), sp("a", 1.0)], [], FusionConfig(weight=1.0))
        assert [r.passage_id for r in fused] == ["a", "b"]
        assert all(r.provenance == "fused" for r in fused)

    def test_pool_size_truncates_inputs(self):
        fused = fuse(self.sparse_run(), self.dense_run(), FusionConfig(pool_size=1, weight=0.5))
        assert {r.passage_id for r in fused} == {"a", "b"}

    def test_both_empty(self):
        assert fuse([], [], FusionConfig()) == []


def dict_fuse_reference(sparse_results, dense_results, config):
    """fuse as it was before the array kernel: per-passage dicts and a
    sort on (-score, id); kept as the exact reference."""
    sparse_results = list(sparse_results)[: config.pool_size]
    dense_results = list(dense_results)[: config.pool_size]
    w = config.weight

    def normalized_map(results):
        if not results:
            return {}
        scores = [r.score for r in results]
        lo, hi = min(scores), max(scores)
        norms = [0.5] * len(scores) if hi == lo else [(x - lo) / (hi - lo) for x in scores]
        return {r.passage_id: n for r, n in zip(results, norms)}

    sparse_map = normalized_map(sparse_results)
    dense_map = normalized_map(dense_results)
    fused = [
        (pid, w * sparse_map.get(pid, 0.0) + (1 - w) * dense_map.get(pid, 0.0))
        for pid in set(sparse_map) | set(dense_map)
    ]
    fused.sort(key=lambda t: (-t[1], t[0]))
    return [(pid, score.hex()) for pid, score in fused]


class TestMatchesDictReference:
    def runs(self, rng, n_sparse, n_dense):
        ids = [f"p{i:03d}" for i in rng.permutation(60)]
        sparse_ids = rng.choice(ids, size=n_sparse, replace=False)
        dense_ids = rng.choice(ids, size=n_dense, replace=False)
        # Scores from a few levels, so both sides and the fused pool have ties.
        sparse = sorted((sp(pid, float(rng.integers(1, 6)) * 1.7) for pid in sparse_ids), key=lambda r: -r.score)
        dense = sorted((sp(pid, float(rng.integers(-3, 3)) / 3.0, "dense") for pid in dense_ids), key=lambda r: -r.score)
        return sparse, dense

    @pytest.mark.parametrize("pool_size", [1, 7, 2000])
    @pytest.mark.parametrize("weight", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_random_runs(self, pool_size, weight):
        rng = np.random.default_rng(int(weight * 10) + pool_size)
        config = FusionConfig(pool_size=pool_size, weight=weight)
        for n_sparse, n_dense in [(20, 25), (0, 10), (10, 0), (0, 0), (40, 40), (1, 1)]:
            sparse, dense = self.runs(rng, n_sparse, n_dense)
            got = [(r.passage_id, r.score.hex()) for r in fuse(sparse, dense, config)]
            assert got == dict_fuse_reference(sparse, dense, config)

    def test_constant_side(self):
        sparse = [sp("c", 2.0), sp("a", 2.0), sp("b", 2.0)]
        dense = [sp("b", 0.9, "dense"), sp("d", 0.4, "dense")]
        config = FusionConfig(weight=0.3)
        got = [(r.passage_id, r.score.hex()) for r in fuse(sparse, dense, config)]
        assert got == dict_fuse_reference(sparse, dense, config)


def union1d_fuse_reference(sparse_rows, sparse_scores, dense_rows, dense_scores, weight, id_rank, k):
    """fuse_top_k with its pool taken by np.union1d, as before the mask
    pool; kept as the exact reference."""

    def scatter(rows, scores):
        out = np.zeros(len(id_rank))
        if len(rows):
            out[rows] = minmax_normalize(scores)
        return out

    sparse, dense = scatter(sparse_rows, sparse_scores), scatter(dense_rows, dense_scores)
    pool = np.union1d(sparse_rows, dense_rows)
    scores = weight * sparse[pool] + (1 - weight) * dense[pool]
    top = top_k(scores, id_rank[pool], k)
    return pool[top], scores[top]


class TestFuseTopKPool:
    @pytest.mark.parametrize(
        "sparse_rows,dense_rows",
        [([4, 0, 7, 2], [2, 9, 4, 5, 1]), ([], [3, 1, 8]), ([6, 2], []), ([], [])],
        ids=["overlapping", "sparse-empty", "dense-empty", "both-empty"],
    )
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_matches_union1d_pool(self, sparse_rows, dense_rows, k):
        rng = np.random.default_rng(len(sparse_rows) * 7 + len(dense_rows))
        id_rank = rng.permutation(12)
        sparse_rows, dense_rows = np.array(sparse_rows, dtype=np.intp), np.array(dense_rows, dtype=np.intp)
        # Few score levels, so fused scores tie and id ranks decide.
        sparse_scores = rng.integers(0, 3, len(sparse_rows)).astype(np.float64)
        dense_scores = rng.integers(0, 3, len(dense_rows)) / 3.0
        args = (sparse_rows, sparse_scores, dense_rows, dense_scores, 0.4, id_rank, k)
        rows, scores = fuse_top_k(*args)
        ref_rows, ref_scores = union1d_fuse_reference(*args)
        assert rows.tolist() == ref_rows.tolist()
        assert [v.hex() for v in scores.tolist()] == [v.hex() for v in ref_scores.tolist()]
        if k >= 12:
            assert sorted(rows.tolist()) == np.union1d(sparse_rows, dense_rows).tolist()


class TestSharedRows:
    def test_first_seen_rows_and_id_ranks(self):
        (a, b), ids, id_rank = shared_rows(["c", "a"], ["b", "c", "d"])
        assert ids == ["c", "a", "b", "d"]
        assert a.tolist() == [0, 1] and b.tolist() == [2, 0, 3]
        assert id_rank.tolist() == [2, 0, 1, 3]

    def test_empty_lists(self):
        (a, b), ids, id_rank = shared_rows([], [])
        assert a.dtype == b.dtype == np.intp and len(a) == len(b) == 0
        assert ids == [] and len(id_rank) == 0


class TestTuneWeight:
    def runs(self):
        # q1 needs sparse evidence to push s1 past the dense distractor x2;
        # q2 needs dense evidence to keep d1 ahead of the sparse distractor y.
        # Only intermediate weights solve both at rank 1.
        texts = {
            "s1": "the answer alpha lives here",
            "d1": "the answer beta lives here",
            "x1": "nothing useful",
            "x2": "also nothing",
            "x3": "more nothing",
            "y": "distractor text",
            "y2": "last distractor",
        }
        golds = [
            GoldSet("q1", "where is alpha", ("alpha",)),
            GoldSet("q2", "where is beta", ("beta",)),
        ]
        sparse_runs = {
            "q1": [sp("s1", 5.0), sp("x1", 1.0)],
            "q2": [sp("y", 5.0), sp("d1", 4.5), sp("y2", 0.5)],
        }
        dense_runs = {
            "q1": [sp("x2", 0.9, "dense"), sp("s1", 0.8, "dense"), sp("x3", 0.1, "dense")],
            "q2": [sp("d1", 0.9, "dense"), sp("y2", 0.1, "dense")],
        }
        return golds, sparse_runs, dense_runs, texts

    def test_tuned_no_worse_than_endpoints(self):
        golds, sparse_runs, dense_runs, texts = self.runs()
        best_w, best_metric = tune_weight(golds, sparse_runs, dense_runs, texts, k=1, pool_size=10)
        endpoint = []
        for w in (0.0, 1.0):
            hits = 0
            for gold in golds:
                fused = fuse(sparse_runs[gold.query_id], dense_runs[gold.query_id], FusionConfig(weight=w))
                hits += match_at_k(fused, gold, 1, texts)
            endpoint.append(hits / len(golds))
        assert best_metric >= max(endpoint)

    def test_interior_weight_wins_here(self):
        golds, sparse_runs, dense_runs, texts = self.runs()
        best_w, best_metric = tune_weight(golds, sparse_runs, dense_runs, texts, k=1, pool_size=10)
        assert 0.0 < best_w < 1.0
        assert best_metric == 1.0

    def test_ties_prefer_smaller_weight(self):
        texts = {"a": "answer here"}
        golds = [GoldSet("q1", "q", ("answer",))]
        runs = {"q1": [sp("a", 1.0)]}
        best_w, best_metric = tune_weight(golds, runs, runs, texts, k=1, pool_size=10)
        assert best_w == 0.0
        assert best_metric == 1.0

    def test_grid_includes_endpoints(self):
        texts = {"s": "solo answer", "d": "irrelevant"}
        golds = [GoldSet("q1", "q", ("solo",))]
        sparse_runs = {"q1": [sp("s", 1.0), sp("d", 0.5)]}
        dense_runs = {"q1": [sp("d", 1.0, "dense"), sp("s", 0.5, "dense")]}
        best_w, best_metric = tune_weight(golds, sparse_runs, dense_runs, texts, k=1, pool_size=10)
        assert best_metric == 1.0

    def test_empty_dev_set_errors(self):
        with pytest.raises(ValueError):
            tune_weight([], {}, {}, {}, k=1, pool_size=10)
