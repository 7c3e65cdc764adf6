import numpy as np
import pytest

from hyqa.container import ContainerError, load, load_artifact, save
from hyqa.corpus import Passage
from hyqa.dense_index import DenseIndex, build_dense_index
from hyqa.encoder import DualEncoder
from hyqa.sparse import SparseIndex, build_sparse_index


class TestRoundtrip:
    def test_arrays_and_meta(self, tmp_path):
        path = tmp_path / "x.hyqa"
        arrays = {
            "floats": np.arange(12, dtype=np.float64).reshape(3, 4),
            "ints": np.array([1, 2, 3], dtype=np.int64),
            "bytes": np.frombuffer(b"\x00\x01\xff", dtype=np.uint8),
        }
        meta = {"name": "demo", "nested": {"a": [1, 2]}}
        save(path, "sparse", meta, arrays)
        kind, got_meta, got_arrays = load(path)
        assert kind == "sparse"
        assert got_meta == meta
        assert set(got_arrays) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(got_arrays[name], arrays[name])
            assert got_arrays[name].dtype == arrays[name].dtype

    def test_empty_arrays(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "dense", {}, {"m": np.zeros((0, 4))})
        _, _, arrays = load(path)
        assert arrays["m"].shape == (0, 4)

    def test_scalar_zero_dim(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "dense", {}, {"s": np.float64(3.5)})
        _, _, arrays = load(path)
        assert arrays["s"] == 3.5

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"b": np.ones(3), "a": np.zeros(2)}
        meta = {"z": 1, "a": 2}
        save(tmp_path / "one.hyqa", "k", meta, arrays)
        save(tmp_path / "two.hyqa", "k", dict(reversed(meta.items())), dict(reversed(arrays.items())))
        assert (tmp_path / "one.hyqa").read_bytes() == (tmp_path / "two.hyqa").read_bytes()

    def test_loaded_arrays_own_aligned_writable_data(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {"pad": "x"}, {"a": np.arange(5, dtype=np.uint8), "b": np.arange(6.0).reshape(2, 3)})
        _, _, arrays = load(path)
        for arr in arrays.values():
            assert arr.flags.owndata and arr.flags.aligned and arr.flags.writeable

    def test_big_endian_input_normalized(self, tmp_path):
        path = tmp_path / "x.hyqa"
        arr = np.array([1.5, 2.5], dtype=">f8")
        save(path, "k", {}, {"a": arr})
        _, _, arrays = load(path)
        np.testing.assert_array_equal(arrays["a"], np.array([1.5, 2.5]))


class TestValidation:
    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "sparse", {}, {})
        with pytest.raises(ContainerError, match="expected kind"):
            load(path, kind="dense")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.hyqa"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ContainerError, match="magic"):
            load(path)

    def test_truncated_array(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(100, dtype=np.float64)})
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ContainerError, match="truncated"):
            load(path)


    def test_shape_past_end_of_file_raises(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(3, dtype=np.float64)})
        data = path.read_bytes()
        dims = data.index((3).to_bytes(8, "little"))
        path.write_bytes(data[:dims] + (2**62).to_bytes(8, "little") + data[dims + 8:])
        with pytest.raises(ContainerError, match="truncated"):
            load(path)

    def test_every_prefix_raises(self, tmp_path):
        path = tmp_path / "x.hyqa"
        arrays = {"m": np.arange(6, dtype=np.float32).reshape(2, 3), "ids": np.array([4, 5]), "s": np.float64(1.0)}
        save(path, "dense", {"n": 2}, arrays)
        data = path.read_bytes()
        cut = tmp_path / "cut.hyqa"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ContainerError, match="magic" if size < 4 else "truncated"):
                load(cut)

    def test_trailing_bytes_raise(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(3, dtype=np.float64)})
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(ContainerError, match="trailing bytes"):
            load(path)


class TestLoadArtifact:
    def test_returns_the_build_of_meta_and_arrays(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {"n": 2}, {"a": np.arange(3)})
        assert load_artifact(path, "k", lambda meta, arrays: (meta["n"], arrays["a"].tolist())) == (2, [0, 1, 2])

    def test_kind_is_checked_before_the_build(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "sparse", {}, {})
        with pytest.raises(ContainerError, match="expected kind 'dense', found 'sparse'"):
            load_artifact(path, "dense", lambda meta, arrays: pytest.fail("built a file of the wrong kind"))

    @pytest.mark.parametrize(
        "error, message",
        [(KeyError("ids"), "missing key 'ids'"), (TypeError("not a list"), "not a list"),
         (ValueError("3 ids but 2 rows"), "3 ids but 2 rows")],
        ids=["key", "type", "value"],
    )
    def test_build_errors_name_the_file(self, tmp_path, error, message):
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {})

        def build(meta, arrays):
            raise error

        with pytest.raises(ContainerError) as raised:
            load_artifact(path, "k", build)
        assert str(raised.value) == f"{path}: {message}"
        assert raised.value.__cause__ is error

    def test_other_errors_pass_through(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifact(tmp_path / "absent.hyqa", "k", lambda meta, arrays: None)

    def test_an_unknown_dtype_names_the_file(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(3, dtype=np.float64)})
        path.write_bytes(path.read_bytes().replace(b"\x02\x00f8", b"\x02\x00zz", 1))
        with pytest.raises(ContainerError) as raised:
            load_artifact(path, "k", lambda meta, arrays: arrays)
        assert str(raised.value) == f"{path}: data type '<zz' not understood"


def _sparse(path):
    build_sparse_index([Passage("p0", "d0", "alpha beta", 2)]).save(path)
    return SparseIndex.load


def _dense(path):
    build_dense_index(["p0"], np.ones((1, 2))).save(path)
    return DenseIndex.load


def _encoder(path):
    DualEncoder.create(["alpha"], d=2).save(path)
    return DualEncoder.load


@pytest.mark.parametrize("artifact", [_sparse, _dense, _encoder], ids=["sparse", "dense", "encoder"])
def test_a_meta_that_is_not_json_names_the_file(tmp_path, artifact):
    """Each artifact loads through load_artifact, so damaged meta bytes are
    a ContainerError naming the file, whichever artifact it is."""
    path = tmp_path / "x.hyqa"
    loader = artifact(path)
    path.write_bytes(path.read_bytes().replace(b'{"', b'{x', 1))
    with pytest.raises(ContainerError) as raised:
        loader(path)
    assert str(raised.value) == f"{path}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
