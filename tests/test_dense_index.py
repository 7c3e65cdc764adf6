import warnings

import numpy as np
import pytest

from hyqa import container
from hyqa.container import ContainerError
from hyqa.dense_index import (
    DenseIndex,
    build_dense_index,
    build_ivf_index,
    dense_search,
    ivf_search,
)


def full_scan_top_k(ids, matrix, q, k):
    scores = matrix @ q
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], scores[i]) for i in order[:k]]


@pytest.fixture
def random_index():
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(1000, 32))
    ids = [f"p{i:04d}" for i in range(1000)]
    return build_dense_index(ids, matrix), rng


def separated_gaussians(n_clusters=8, per_cluster=50, d=16, seed=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=20.0, size=(n_clusters, d))
    rows = []
    for c in range(n_clusters):
        rows.append(centers[c] + rng.normal(scale=0.5, size=(per_cluster, d)))
    matrix = np.vstack(rows)
    ids = [f"g{i:04d}" for i in range(len(matrix))]
    return build_dense_index(ids, matrix), centers, rng


class TestBuild:
    def test_empty(self):
        index = build_dense_index([], np.zeros((0, 8)))
        assert index.n == 0
        assert dense_search(index, np.zeros(8), 3) == []

    def test_small_returns_all(self):
        index = build_dense_index(["a", "b", "c"], np.eye(3))
        assert len(dense_search(index, np.ones(3), 3)) == 3

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            build_dense_index(["a"], np.zeros((2, 4)))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            build_dense_index(["a", "a"], np.zeros((2, 4)))

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])
    def test_non_finite_row_is_refused(self, value):
        matrix = np.ones((4, 3))
        matrix[2, 0] = matrix[1, 2] = value
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^non-finite embedding for passage 'b'$"):
            build_dense_index(["a", "b", "c", "d"], matrix)

    def test_a_row_past_float32_is_refused_without_a_warning(self):
        matrix = np.ones((2, 3))
        matrix[1, 1] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^non-finite embedding for passage 'b'$"):
                build_dense_index(["a", "b"], matrix)

    def test_load_refuses_a_signalling_nan_without_a_warning(self, tmp_path):
        path = tmp_path / "idx.hyqa"
        matrix = np.ones((2, 2), dtype="<f4")
        matrix.view("<u4")[1, 0] = 0x7F800001
        container.save(path, "dense", {"ids": ["a", "b"]}, {"matrix": matrix})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContainerError) as raised:
                DenseIndex.load(path)
        assert str(raised.value) == f"{path}: non-finite embedding for passage 'b'"

    def test_load_refuses_non_finite_row(self, tmp_path):
        index = build_dense_index(["a", "b", "c"], np.ones((3, 2)))
        index.matrix[2, 1] = np.nan
        index.save(tmp_path / "idx.hyqa")
        with pytest.raises(ContainerError, match=r"^.*idx\.hyqa: non-finite embedding for passage 'c'$"):
            DenseIndex.load(tmp_path / "idx.hyqa")

    @pytest.mark.parametrize(
        "ids, matrix, reason",
        [
            (["a", "b", "c"], np.ones((2, 2)), "3 ids but 2 embedding rows"),
            (["a", "b", "a"], np.ones((3, 2)), "duplicate passage id 'a'"),
            (["a", "b"], np.ones(2), "embeddings must be a 2-D array"),
        ],
        ids=["count", "duplicate", "one-dimensional"],
    )
    def test_load_refuses_what_the_build_refuses(self, tmp_path, ids, matrix, reason):
        container.save(tmp_path / "idx.hyqa", "dense", {"ids": ids}, {"matrix": matrix.astype("<f4")})
        with pytest.raises(ContainerError) as raised:
            DenseIndex.load(tmp_path / "idx.hyqa")
        assert str(raised.value) == f"{tmp_path / 'idx.hyqa'}: {reason}"

    @pytest.mark.parametrize("dtype", [b",4", b"U1"], ids=["structured", "unicode"])
    def test_load_refuses_a_matrix_dtype_that_is_not_numeric(self, tmp_path, dtype):
        path = tmp_path / "idx.hyqa"
        build_dense_index(["a", "b"], np.ones((2, 2))).save(path)
        path.write_bytes(path.read_bytes().replace(b"\x02\x00f4", b"\x02\x00" + dtype, 1))
        with pytest.raises(ContainerError) as raised:
            DenseIndex.load(path)
        assert str(raised.value) == f"{path}: unsupported dtype {dtype.decode()!r} of array 'matrix'"

    @pytest.mark.parametrize("key", ["ids", "matrix"])
    def test_load_names_a_missing_key(self, tmp_path, key):
        meta, arrays = {"ids": ["a", "b"]}, {"matrix": np.ones((2, 2), dtype="<f4")}
        (meta if key in meta else arrays).pop(key)
        container.save(tmp_path / "idx.hyqa", "dense", meta, arrays)
        with pytest.raises(ContainerError) as raised:
            DenseIndex.load(tmp_path / "idx.hyqa")
        assert str(raised.value) == f"{tmp_path / 'idx.hyqa'}: missing key '{key}'"

    def test_rebuild_persists_identically(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(20, 8))
        ids = [f"p{i}" for i in range(20)]
        build_dense_index(ids, matrix).save(tmp_path / "a.hyqa")
        build_dense_index(ids, matrix).save(tmp_path / "b.hyqa")
        assert (tmp_path / "a.hyqa").read_bytes() == (tmp_path / "b.hyqa").read_bytes()

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        index = build_dense_index([f"p{i}" for i in range(10)], rng.normal(size=(10, 4)))
        index.save(tmp_path / "idx.hyqa")
        loaded = DenseIndex.load(tmp_path / "idx.hyqa")
        assert loaded.ids == index.ids
        np.testing.assert_array_equal(loaded.matrix, index.matrix)

    def test_reloaded_index_searches_identically(self, tmp_path):
        rng = np.random.default_rng(5)
        index = build_dense_index([f"p{i:03d}" for i in range(500)], rng.normal(size=(500, 16)))
        index.save(tmp_path / "idx.hyqa")
        loaded = DenseIndex.load(tmp_path / "idx.hyqa")
        for q in rng.normal(size=(50, 16)):
            assert dense_search(loaded, q, 10) == dense_search(index, q, 10)

    def test_empty_index_keeps_dimension(self, tmp_path):
        index = build_dense_index([], np.zeros((0, 8)))
        index.save(tmp_path / "idx.hyqa")
        loaded = DenseIndex.load(tmp_path / "idx.hyqa")
        assert (index.n, index.d) == (loaded.n, loaded.d) == (0, 8)
        assert dense_search(loaded, np.zeros(8), 3) == []


class TestDenseSearch:
    def test_matching_unit_vector_is_rank_one(self):
        index = build_dense_index(["a", "b", "c"], np.eye(3))
        results = dense_search(index, np.array([0.0, 1.0, 0.0]), 1)
        assert results[0].passage_id == "b"
        assert results[0].score == 1.0
        assert results[0].provenance == "dense"

    def test_zero_query_ties_by_ascending_id(self):
        index = build_dense_index(["c", "a", "b"], np.eye(3))
        results = dense_search(index, np.zeros(3), 3)
        assert [sp.passage_id for sp in results] == ["a", "b", "c"]
        assert all(sp.score == 0.0 for sp in results)

    def test_dimension_mismatch(self):
        index = build_dense_index(["a"], np.zeros((1, 4)))
        with pytest.raises(ValueError):
            dense_search(index, np.zeros(3), 1)

    def test_equals_full_scan_oracle(self, random_index):
        index, rng = random_index
        for _ in range(20):
            q = rng.normal(size=32)
            results = dense_search(index, q, 10)
            oracle = full_scan_top_k(index.ids, index.matrix, q, 10)
            assert [(sp.passage_id, sp.score) for sp in results] == [
                (pid, pytest.approx(s)) for pid, s in oracle
            ]


class TestIVF:
    def test_c1_equals_exact(self, random_index):
        index, rng = random_index
        ivf = build_ivf_index(index, C=1, n_probe=1, seed=0)
        q = rng.normal(size=32)
        assert ivf_search(ivf, q, 10) == dense_search(index, q, 10)

    def test_c_equals_n(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(10, 4))
        index = build_dense_index([f"p{i}" for i in range(10)], matrix)
        ivf = build_ivf_index(index, C=10, n_probe=10, seed=0)
        assert len(ivf.centroids) == 10
        # Each point sits in its own cluster.
        assert sorted(np.bincount(ivf.assignment, minlength=10)) == [1] * 10

    def test_c_greater_than_n_errors(self):
        index = build_dense_index(["a"], np.zeros((1, 2)))
        with pytest.raises(ValueError):
            build_ivf_index(index, C=2, n_probe=1)

    @pytest.mark.parametrize("n_probe", [0, -1])
    def test_n_probe_override_below_one_is_refused(self, n_probe):
        rng = np.random.default_rng(5)
        index = build_dense_index([f"p{i:02d}" for i in range(40)], rng.normal(size=(40, 4)))
        ivf = build_ivf_index(index, C=4, n_probe=2, seed=0)
        with pytest.raises(ValueError, match=f"^n_probe={n_probe} must be >= 1$"):
            ivf_search(ivf, rng.normal(size=4), 10, n_probe=n_probe)
        # An override above C still probes every cluster.
        assert ivf_search(ivf, np.ones(4), 40, n_probe=9) == dense_search(index, np.ones(4), 40)

    def test_fixed_seed_identical_assignments(self, random_index):
        index, _ = random_index
        a = build_ivf_index(index, C=16, n_probe=4, seed=7)
        b = build_ivf_index(index, C=16, n_probe=4, seed=7)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_full_probe_equals_exact(self, random_index):
        index, rng = random_index
        ivf = build_ivf_index(index, C=16, n_probe=16, seed=0)
        for _ in range(10):
            q = rng.normal(size=32)
            assert ivf_search(ivf, q, 10) == dense_search(index, q, 10)

    def test_separated_clusters_top1(self):
        index, centers, rng = separated_gaussians()
        ivf = build_ivf_index(index, C=8, n_probe=2, seed=0)
        for c in range(8):
            q = centers[c] + rng.normal(scale=0.3, size=centers.shape[1])
            exact = dense_search(index, q, 1)
            approx = ivf_search(ivf, q, 1)
            assert approx[0] == exact[0]

    def test_recall_at_10_with_quarter_probes(self):
        index, centers, rng = separated_gaussians()
        C = 8
        ivf = build_ivf_index(index, C=C, n_probe=C // 4, seed=0)
        recalls = []
        for _ in range(30):
            c = rng.integers(C)
            q = centers[c] + rng.normal(scale=0.5, size=centers.shape[1])
            exact_ids = {sp.passage_id for sp in dense_search(index, q, 10)}
            approx_ids = {sp.passage_id for sp in ivf_search(ivf, q, 10)}
            recalls.append(len(exact_ids & approx_ids) / 10)
        assert np.mean(recalls) >= 0.9

    def test_recall_monotone_in_n_probe(self):
        index, centers, rng = separated_gaussians(seed=9)
        C = 8
        queries = [centers[rng.integers(C)] + rng.normal(scale=1.0, size=centers.shape[1]) for _ in range(15)]
        exact = [
            {sp.passage_id for sp in dense_search(index, q, 10)} for q in queries
        ]
        ivf = build_ivf_index(index, C=C, n_probe=1, seed=0)
        prev = -1.0
        for probes in range(1, C + 1):
            hits = sum(
                len({sp.passage_id for sp in ivf_search(ivf, q, 10, n_probe=probes)} & ex)
                for q, ex in zip(queries, exact)
            )
            recall = hits / (10 * len(queries))
            assert recall >= prev
            prev = recall
        assert prev == 1.0

    def test_scores_are_exact_inner_products(self, random_index):
        index, rng = random_index
        ivf = build_ivf_index(index, C=16, n_probe=2, seed=1)
        q = rng.normal(size=32)
        idx_by_id = {pid: i for i, pid in enumerate(index.ids)}
        for sp in ivf_search(ivf, q, 10):
            assert sp.score == pytest.approx(float(index.matrix[idx_by_id[sp.passage_id]] @ q), abs=0)


def per_row_reference(ids, matrix, q, candidates, k):
    """The per-row `@` scoring and full lexsort that dense search used
    before it was vectorized, kept as the exact reference."""
    scores = np.array([matrix[i] @ q for i in candidates])
    id_arr = np.array(ids)[candidates]
    order = np.lexsort((id_arr, -scores))
    return [(str(id_arr[i]), float(scores[i]).hex()) for i in order[:k]]


def bits(results):
    return [(sp.passage_id, sp.score.hex()) for sp in results]


def ivf_candidates(ivf, q, n_probe):
    chosen = np.argsort(-(ivf.centroids @ q), kind="stable")[:n_probe]
    return np.concatenate([ivf.members[c] for c in chosen])


@pytest.fixture
def shuffled_index():
    """Ids out of sorted order, and every row repeated under two ids, so
    score ties are resolved by id."""
    rng = np.random.default_rng(5)
    half = rng.normal(size=(150, 24))
    ids = [f"p{i:04d}" for i in rng.permutation(300)]
    return build_dense_index(ids, np.vstack([half, half])), rng


class TestMatchesPerRowReference:
    @pytest.mark.parametrize("k", [1, 10, 299, 300, 1000])
    def test_dense_search(self, shuffled_index, k):
        index, rng = shuffled_index
        for q in [np.zeros(24), *rng.normal(size=(10, 24))]:
            expected = per_row_reference(index.ids, index.matrix, q, np.arange(index.n), k)
            assert bits(dense_search(index, q, k)) == expected

    @pytest.mark.parametrize("n_probe", [2, 16])
    @pytest.mark.parametrize("k", [10, 300])
    def test_ivf_search(self, shuffled_index, n_probe, k):
        index, rng = shuffled_index
        ivf = build_ivf_index(index, C=16, n_probe=n_probe, seed=2)
        for q in [np.zeros(24), *rng.normal(size=(10, 24))]:
            candidates = ivf_candidates(ivf, q, n_probe)
            expected = per_row_reference(index.ids, index.matrix, q, candidates, k)
            assert bits(ivf_search(ivf, q, k)) == expected

    def test_id_order_is_sorted_on_first_search(self, shuffled_index, tmp_path):
        index, rng = shuffled_index
        index.save(tmp_path / "d.hyqa")
        loaded = DenseIndex.load(tmp_path / "d.hyqa")
        assert "id_rank" not in vars(loaded)
        q = rng.normal(size=24)
        assert bits(dense_search(loaded, q, 50)) == bits(dense_search(index, q, 50))
        assert "id_rank" in vars(loaded)
