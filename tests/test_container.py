import os
import stat
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyqa
from hyqa import container
from hyqa.container import ContainerError, load, load_artifact, save
from hyqa.corpus import Passage
from hyqa.dense_index import DenseIndex, build_dense_index, dense_search
from hyqa.encoder import DualEncoder, encode_passage, encode_query
from hyqa.sparse import SparseIndex, build_sparse_index, sparse_search


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
        got_meta, got_arrays = load(path, "sparse")
        assert got_meta == meta
        assert set(got_arrays) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(got_arrays[name], arrays[name])
            assert got_arrays[name].dtype == arrays[name].dtype

    def test_empty_arrays(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "dense", {}, {"m": np.zeros((0, 4))})
        _, arrays = load(path, "dense")
        assert arrays["m"].shape == (0, 4)

    def test_scalar_zero_dim(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "dense", {}, {"s": np.float64(3.5)})
        _, arrays = load(path, "dense")
        assert arrays["s"] == 3.5

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"b": np.ones(3), "a": np.zeros(2)}
        meta = {"z": 1, "a": 2}
        save(tmp_path / "one.hyqa", "k", meta, arrays)
        save(tmp_path / "two.hyqa", "k", dict(reversed(meta.items())), dict(reversed(arrays.items())))
        assert (tmp_path / "one.hyqa").read_bytes() == (tmp_path / "two.hyqa").read_bytes()

    def test_loaded_arrays_are_aligned_and_writable(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {"pad": "x"}, {"a": np.arange(5, dtype=np.uint8), "b": np.arange(6.0).reshape(2, 3)})
        _, arrays = load(path, "k")
        for arr in arrays.values():
            assert arr.flags.aligned and arr.flags.writeable

    def test_big_endian_input_normalized(self, tmp_path):
        path = tmp_path / "x.hyqa"
        arr = np.array([1.5, 2.5], dtype=">f8")
        save(path, "k", {}, {"a": arr})
        _, arrays = load(path, "k")
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
            load(path, "k")

    def test_truncated_array(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(100, dtype=np.float64)})
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ContainerError, match="truncated"):
            load(path, "k")


    def test_shape_past_end_of_file_raises(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(3, dtype=np.float64)})
        data = path.read_bytes()
        dims = data.index((3).to_bytes(8, "little"))
        path.write_bytes(data[:dims] + (2**62).to_bytes(8, "little") + data[dims + 8:])
        with pytest.raises(ContainerError, match="truncated"):
            load(path, "k")

    def test_every_prefix_raises(self, tmp_path):
        path = tmp_path / "x.hyqa"
        arrays = {"m": np.arange(6, dtype=np.float32).reshape(2, 3), "ids": np.array([4, 5]), "s": np.float64(1.0)}
        save(path, "dense", {"n": 2}, arrays)
        data = path.read_bytes()
        cut = tmp_path / "cut.hyqa"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ContainerError, match="magic" if size < 4 else "truncated"):
                load(cut, "dense")

    def test_a_version_1_file_is_refused(self, tmp_path):
        """Version 1 is version 2 without the padding before each array."""
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(3, dtype=np.float64)})
        data = path.read_bytes()
        header_end = data.index((3).to_bytes(8, "little")) + 8
        path.write_bytes(data[:4] + struct.pack("<H", 1) + data[6:header_end] + data[-24:])
        with pytest.raises(ContainerError) as raised:
            load(path, "k")
        assert str(raised.value) == f"{path}: unsupported container version 1; rebuild the artifact"

    def test_nonzero_padding_is_refused(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(3, dtype=np.float64)})
        data = bytearray(path.read_bytes())
        header_end = data.index((3).to_bytes(8, "little")) + 8
        assert 0 < len(data) - 24 - header_end < 64
        data[header_end] = 1
        path.write_bytes(data)
        with pytest.raises(ContainerError) as raised:
            load(path, "k")
        assert str(raised.value) == f"{path}: nonzero padding before array 'a'"

    def test_trailing_bytes_raise(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(3, dtype=np.float64)})
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(ContainerError, match="trailing bytes"):
            load(path, "k")


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

    @pytest.mark.parametrize(
        "dtype, shown",
        [(b",4", ",4"), (b"U1", "U1"), (b"c16", "c16"), (b"O8", "O8"), (b"M8", "M8"), (b"S8", "S8"),
         (b"a4", "a4"), (b"(2,)f8", "(2,)f8"), (b"\xff8", "\ufffd8")],
        ids=["structured", "unicode", "complex", "object", "datetime", "bytes", "bytes-alias", "subarray", "not-ascii"],
    )
    def test_a_dtype_outside_the_numeric_kinds_is_refused(self, tmp_path, dtype, shown):
        """Only bool, int, uint and float arrays load; numpy's parser never
        sees a dtype string that is not a type code and width."""
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(3, dtype=np.float64)})
        path.write_bytes(path.read_bytes().replace(b"\x02\x00f8", struct.pack("<H", len(dtype)) + dtype, 1))
        for read in (lambda p: load(p, "k"), lambda p: load_artifact(p, "k", lambda meta, arrays: arrays)):
            with pytest.raises(ContainerError) as raised:
                read(path)
            assert str(raised.value) == f"{path}: unsupported dtype {shown!r} of array 'a'"


def _sparse(path):
    build_sparse_index([Passage("p0", "d0", "alpha beta", 2)]).save(path)
    return SparseIndex.load


def _dense(path):
    build_dense_index(["p0"], np.ones((1, 2))).save(path)
    return DenseIndex.load


def _encoder(path):
    DualEncoder.create(["alpha"], d=2, seed=0).save(path)
    return DualEncoder.load


def _unsorted_terms(path):
    meta, arrays = load(path, "sparse")
    save(path, "sparse", {**meta, "terms": meta["terms"][::-1]}, dict(arrays))
    return "terms not sorted and distinct"


def _nonzero_padding(path):
    """Set a padding byte before "tf", the last array, so that the load
    refuses the file after mapping every array before it."""
    data = bytearray(path.read_bytes())
    tf = load(path, "sparse")[1]["tf"]
    data_start = len(data) - tf.nbytes
    header_end = data.rindex(len(tf).to_bytes(8, "little"), 0, data_start) + 8
    assert header_end < data_start
    data[header_end] = 1
    path.write_bytes(data)
    return "nonzero padding before array 'tf'"


class TestMapping:
    """A loaded array is a copy-on-write view of the file; a save replaces
    the file whole."""

    def test_array_data_starts_at_a_multiple_of_64(self, tmp_path):
        path = tmp_path / "x.hyqa"
        arrays = {f"a{i}": np.arange(i + 1, dtype=dtype) for i, dtype in enumerate("u1 i2 f4 f8 u8".split())}
        save(path, "k", {"pad": "xyz"}, arrays)
        _, loaded = load(path, "k")
        for name, arr in loaded.items():
            np.testing.assert_array_equal(arr, arrays[name])
            assert arr.ctypes.data % 64 == 0, name

    def test_a_write_to_a_loaded_array_never_reaches_the_file(self, tmp_path):
        path = tmp_path / "x.hyqa"
        save(path, "k", {}, {"a": np.arange(4.0), "b": np.arange(3, dtype=np.uint8)})
        before = path.read_bytes()
        _, arrays = load(path, "k")
        for arr in arrays.values():
            arr[:] = 7
        assert arrays["a"].tolist() == [7.0] * 4
        assert path.read_bytes() == before
        assert load(path, "k")[1]["a"].tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("artifact", [_sparse, _encoder], ids=["sparse", "encoder"])
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_loaded_artifact_holds_one_file_descriptor_until_dropped(self, tmp_path, artifact):
        path = tmp_path / "x.hyqa"
        loader = artifact(path)

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        start = open_fds()
        for _ in range(500):
            loaded = loader(path)
            assert open_fds() == start + 1
            del loaded
        assert open_fds() == start

    @pytest.mark.parametrize("damage", [_unsorted_terms, _nonzero_padding], ids=["unsorted-terms", "nonzero-padding"])
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_kept_refusals_hold_no_file_descriptor(self, tmp_path, damage):
        """A refused load releases its map at once, whether the container
        (padding) or the build (terms) refuses it: a caller that keeps the
        errors holds no descriptor for them."""
        path = tmp_path / "x.hyqa"
        _sparse(path)
        message = damage(path)
        start = len(os.listdir("/proc/self/fd"))
        errors = []
        for _ in range(50):
            try:
                SparseIndex.load(path)
            except ContainerError as e:
                errors.append(e)
        assert len(errors) == 50 and str(errors[-1]) == f"{path}: {message}"
        assert len(os.listdir("/proc/self/fd")) == start

    def test_a_save_over_a_loaded_artifact_leaves_it_answering(self, tmp_path):
        """Run in its own process, so that a load whose file is cut under it
        (SIGBUS) fails this test instead of killing the test run."""
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from hyqa.corpus import Passage
            from hyqa.encoder import DualEncoder, encode_query
            from hyqa.sparse import SparseIndex, build_sparse_index, sparse_hits_each

            def artifacts(n):
                words = [f"w{i}" for i in range(n)]
                texts = [" ".join(words[i::7]) for i in range(n)]
                passages = [Passage(f"p{i}", "d", text, 0) for i, text in enumerate(texts)]
                return build_sparse_index(passages), DualEncoder.from_texts(texts, d=8, seed=n)

            def answers(index, encoder):
                hits = sparse_hits_each(index, ["w1 w8", "w3", "w2999 w5"])
                return [a.tobytes() for pair in hits for a in pair] + [encode_query(encoder, "w1 w2999").tobytes()]

            sparse_path, encoder_path = sys.argv[1:]
            first, second = artifacts(3000), artifacts(12)
            first[0].save(sparse_path)
            first[1].save(encoder_path)
            loaded = SparseIndex.load(sparse_path), DualEncoder.load(encoder_path)
            second[0].save(sparse_path)
            second[1].save(encoder_path)
            assert loaded[1] == first[1]
            assert answers(*loaded) == answers(*first)
            assert answers(SparseIndex.load(sparse_path), DualEncoder.load(encoder_path)) == answers(*second)
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(hyqa.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sparse"), str(tmp_path / "encoder")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["encoder", "sparse"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_saved_file_has_the_mode_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            save(tmp_path / "x.hyqa", "k", {}, {})
            with open(tmp_path / "ref", "wb"):
                pass
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "x.hyqa").stat().st_mode) == stat.S_IMODE((tmp_path / "ref").stat().st_mode)

    @pytest.mark.parametrize("fails", ["write", "rename"])
    def test_a_failed_save_keeps_the_old_file_and_leaves_no_other(self, tmp_path, monkeypatch, fails):
        path = tmp_path / "x.hyqa"
        save(path, "k", {"n": 1}, {"a": np.arange(3)})
        before = path.read_bytes()
        if fails == "write":
            # The name of the second array is not ascii: one array is written first.
            with pytest.raises(UnicodeEncodeError):
                save(path, "k", {"n": 2}, {"a": np.arange(4), "\xe9": np.arange(2)})
        else:
            def refuse(src, dst):
                raise PermissionError(dst)

            monkeypatch.setattr(container.os, "replace", refuse)
            with pytest.raises(PermissionError):
                save(path, "k", {"n": 2}, {"a": np.arange(4)})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["x.hyqa"]

    def test_a_save_into_a_missing_directory_names_the_path(self, tmp_path):
        # Not the temp file the save would have written first.
        path = tmp_path / "nodir" / "x.hyqa"
        with pytest.raises(FileNotFoundError) as caught:
            save(path, "k", {}, {"a": np.arange(3)})
        assert caught.value.filename == str(path)
        assert str(caught.value) == f"[Errno 2] No such file or directory: {str(path)!r}"
        assert os.listdir(tmp_path) == []

    def test_save_writes_each_array_without_copying_it(self, tmp_path):
        table = np.zeros((1024, 256))
        tracemalloc.start()
        try:
            save(tmp_path / "x.hyqa", "k", {}, {"table": table})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes // 4


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


@pytest.mark.parametrize(
    "artifact, kind, key, value",
    [
        (_sparse, "sparse", "doc_ids", [0]),
        (_sparse, "sparse", "doc_ids", "p"),
        (_dense, "dense", "ids", [7]),
        (_encoder, "encoder", "vocab", "a"),
        (_encoder, "encoder", "vocab", [1]),
    ],
    ids=["sparse-int-ids", "sparse-str-ids", "dense-int-ids", "encoder-str-vocab", "encoder-int-vocab"],
)
def test_meta_that_is_not_a_list_of_str_is_refused(tmp_path, artifact, kind, key, value):
    path = tmp_path / "x.hyqa"
    loader = artifact(path)
    meta, arrays = load(path, kind)
    save(path, kind, {**meta, key: value}, arrays)
    with pytest.raises(ContainerError) as raised:
        loader(path)
    assert str(raised.value) == f"{path}: meta {key!r} must be a list of 'str'"


@pytest.mark.parametrize("d, shown", [(2.0, "float"), (True, "bool"), ("2", "str")])
def test_an_encoder_width_that_is_not_an_int_is_refused(tmp_path, d, shown):
    path = tmp_path / "x.hyqa"
    DualEncoder.create(["alpha"], d=1 if d is True else 2, seed=0).save(path)
    meta, arrays = load(path, "encoder")
    save(path, "encoder", {**meta, "d": d}, arrays)
    with pytest.raises(ContainerError) as raised:
        DualEncoder.load(path)
    assert str(raised.value) == f"{path}: meta 'd' must be an int, not {shown!r}"


# Each artifact's loader, and one query of what it loads.
_QUERIES = {
    "sparse": (SparseIndex.load, lambda index: sparse_search(index, "alpha beta", 5)),
    "dense": (DenseIndex.load, lambda index: dense_search(index, np.ones(index.d), 5)),
    "encoder": (DualEncoder.load, lambda encoder: encode_query(encoder, "alpha beta")),
}


@pytest.fixture(scope="module")
def saved_artifacts(tmp_path_factory):
    """The bytes of the three artifacts of a small corpus, and a path to
    write damaged copies to."""
    texts = ["alpha beta gamma", "beta delta", "gamma alpha epsilon zeta", "eta theta alpha"]
    passages = [Passage(f"p{i}", "d0", text, len(text.split())) for i, text in enumerate(texts)]
    encoder = DualEncoder.from_texts(texts, d=4, seed=0)
    dense = build_dense_index([p.id for p in passages], np.stack([encode_passage(encoder, t) for t in texts]))
    out = tmp_path_factory.mktemp("artifacts")
    build_sparse_index(passages).save(out / "sparse")
    dense.save(out / "dense")
    encoder.save(out / "encoder")
    return {name: (out / name).read_bytes() for name in _QUERIES}, out / "damaged.hyqa"


@settings(max_examples=60)
@given(st.sampled_from(sorted(_QUERIES)), st.data())
def test_a_damaged_artifact_loads_and_answers_or_is_a_container_error(saved_artifacts, name, data):
    """A 1-3-byte mutation or a truncation of any artifact either loads to
    an object that answers one query, or is a ContainerError; numpy warns
    of nothing on the way."""
    artifacts, path = saved_artifacts
    damaged = bytearray(artifacts[name])
    if data.draw(st.booleans(), label="truncate"):
        del damaged[data.draw(st.integers(0, len(damaged) - 1), label="size") :]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="bytes changed")):
            damaged[data.draw(st.integers(0, len(damaged) - 1), label="at")] = data.draw(st.integers(0, 255))
    path.write_bytes(damaged)
    load_it, query = _QUERIES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            loaded = load_it(path)
        except ContainerError:
            return
        query(loaded)
