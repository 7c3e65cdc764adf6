import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hyqa import container
from hyqa.container import ContainerError
from hyqa.corpus import Document, Passage, chunk_retrieval_passages, terms, tokenize
from hyqa.scored import top_k
from hyqa import sparse
from hyqa.sparse import BM25Params, SparseIndex, build_sparse_index, sparse_hits_each, sparse_search, sparse_top_k_each


def passage(pid, text):
    import dataclasses

    p = chunk_retrieval_passages(Document(id=pid, title="", body=text), 120)[0]
    return dataclasses.replace(p, id=pid)


def postings(index):
    """The index's CSR arrays read back as term -> [(doc index, tf)]."""
    return {
        term: list(zip(index.docs[lo:hi].tolist(), index.tf[lo:hi].tolist()))
        for term, lo, hi in zip(index.terms, index.indptr[:-1].tolist(), index.indptr[1:].tolist())
    }


def brute_force_bm25(passages, query_text, params=BM25Params()):
    """Direct evaluation of the Okapi formula over whole passages."""
    docs = [[t.surface for t in tokenize(p.text)] for p in passages]
    N = len(docs)
    avg = sum(len(d) for d in docs) / N
    q_terms = [t.surface for t in tokenize(query_text)]
    scores = {}
    for p, d in zip(passages, docs):
        score = 0.0
        for term in q_terms:
            tf = d.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in docs if term in other)
            idf = math.log(1 + (N - df + 0.5) / (df + 0.5))
            score += idf * tf * (params.k1 + 1) / (tf + params.k1 * (1 - params.b + params.b * len(d) / avg))
        scores[p.id] = score
    return scores


@pytest.fixture
def small_index():
    passages = [
        passage("p1", "the cat sat on the mat"),
        passage("p2", "dogs chase the cat around"),
        passage("p3", "birds fly over mountains"),
    ]
    return build_sparse_index(passages), passages


class TestBuild:
    def test_empty_corpus(self):
        index = build_sparse_index([])
        assert index.N == 0
        assert index.terms == []
        assert index.indptr.tolist() == [0]
        assert index.docs.size == index.tf.size == index.doc_lengths.size == 0

    def test_shared_term_posting_length(self, small_index):
        index, _ = small_index
        assert len(postings(index)["cat"]) == 2

    def test_duplicate_id_rejected(self):
        p = passage("p1", "hello world")
        with pytest.raises(ValueError, match="duplicate"):
            build_sparse_index([p, p])

    def test_rebuild_persists_identically(self, small_index, tmp_path):
        index, passages = small_index
        index.save(tmp_path / "a.hyqa")
        build_sparse_index(passages).save(tmp_path / "b.hyqa")
        assert (tmp_path / "a.hyqa").read_bytes() == (tmp_path / "b.hyqa").read_bytes()

    def test_save_load_roundtrip(self, small_index, tmp_path):
        index, _ = small_index
        index.save(tmp_path / "idx.hyqa")
        loaded = SparseIndex.load(tmp_path / "idx.hyqa")
        assert_same_index(loaded, index)


def assert_same_index(a, b):
    assert a.terms == b.terms
    for name in ("indptr", "docs", "tf", "doc_lengths"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert a.doc_ids == b.doc_ids
    assert a.params == b.params
    assert list(a.dump_postings()) == list(b.dump_postings())


def search_scores(index, query_text):
    """Every passage's BM25 score for the query; passages sparse_search
    does not return score 0."""
    scores = {pid: 0.0 for pid in index.doc_ids}
    scores.update((sp.passage_id, sp.score) for sp in sparse_search(index, query_text, max(index.N, 1)))
    return scores


class TestScore:
    def test_no_overlap_scores_zero(self, small_index):
        index, _ = small_index
        assert sparse_search(index, "zebra", 5) == []
        assert search_scores(index, "zebra")["p1"] == 0.0

    def test_equal_tf_equal_length_symmetry(self):
        index = build_sparse_index(
            [passage("a", "virus spreads fast here"), passage("b", "virus grows slow there")]
        )
        scores = search_scores(index, "virus")
        assert scores["a"] == scores["b"] > 0.0

    def test_shorter_passage_scores_higher(self):
        # Equal tf, different lengths, b=0.75: length normalization favors
        # the shorter passage.
        passages = [
            passage("short", "fever chills"),
            passage("long", "fever chills headache nausea cough fatigue dizziness"),
            passage("other", "unrelated words entirely different content"),
        ]
        scores = search_scores(build_sparse_index(passages), "fever")
        assert scores["short"] > scores["long"]

    def test_scores_non_negative(self, small_index):
        index, passages = small_index
        scores = search_scores(index, "the cat fly")
        assert set(scores) == {p.id for p in passages}
        assert all(score >= 0.0 for score in scores.values())


class TestSearch:
    def test_only_match_is_rank_one(self, small_index):
        index, _ = small_index
        results = sparse_search(index, "mountains", 5)
        assert results[0].passage_id == "p3"
        assert results[0].provenance == "sparse"

    def test_k_larger_than_corpus(self, small_index):
        index, _ = small_index
        results = sparse_search(index, "the cat", 100)
        assert len(results) == 2  # only passages with a matching term

    def test_matches_brute_force_oracle_on_50_passages(self):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(40)]
        passages = [
            passage(f"p{i:02d}", " ".join(rng.choice(vocab, size=rng.integers(5, 30))))
            for i in range(50)
        ]
        index = build_sparse_index(passages)
        for query in ["w1 w2 w3", "w10 w10 w20", "w39", "w0 w5 w7 w9"]:
            oracle = brute_force_bm25(passages, query)
            results = sparse_search(index, query, 50)
            for sp in results:
                assert sp.score == pytest.approx(oracle[sp.passage_id], abs=1e-9)
            expected_order = sorted(
                [pid for pid, s in oracle.items() if s > 0], key=lambda pid: (-oracle[pid], pid)
            )
            assert [sp.passage_id for sp in results] == expected_order

    def test_adding_disjoint_passage_preserves_ranking(self, small_index):
        index, passages = small_index
        before = [sp.passage_id for sp in sparse_search(index, "the cat", 10)]
        extra = passage("p4", "quantum physics lecture notes")
        after_index = build_sparse_index(passages + [extra])
        after = [sp.passage_id for sp in sparse_search(after_index, "the cat", 10)]
        assert after == before

    def test_tie_break_by_ascending_id(self):
        index = build_sparse_index([passage("b", "same text"), passage("a", "same text")])
        results = sparse_search(index, "same", 2)
        assert [sp.passage_id for sp in results] == ["a", "b"]

    def test_reloaded_index_searches_identically(self, tmp_path):
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choice(vocab, size=rng.integers(3, 12))) for _ in range(30)]
        # Ids out of sorted order, and every text twice, so ties need the id order.
        ids = [f"p{i:02d}" for i in rng.permutation(60)]
        index = build_sparse_index([passage(pid, text) for pid, text in zip(ids, texts + texts)])
        index.save(tmp_path / "s.hyqa")
        loaded = SparseIndex.load(tmp_path / "s.hyqa")
        assert "id_rank" not in vars(loaded)  # sorted on first search, not on load
        for query in ["w1 w2 w3", "w10 w10 w20", "w29", "oov"]:
            for k in (1, 7, 60):
                got = [(sp.passage_id, sp.score.hex()) for sp in sparse_search(loaded, query, k)]
                assert got == [(sp.passage_id, sp.score.hex()) for sp in sparse_search(index, query, k)]


def test_default_params_match_expected():
    params = BM25Params()
    assert params.k1 == 1.2
    assert params.b == 0.75


@pytest.mark.parametrize("k1", [float("nan"), float("inf"), 0.0, -1.0])
def test_params_refuse_k1_not_finite_and_positive(k1):
    with pytest.raises(ValueError, match="^k1 must be finite and positive$"):
        BM25Params(k1=k1)


def test_dump_postings_readable(small_index):
    index, _ = small_index[0], small_index[1]
    lines = list(small_index[0].dump_postings())
    assert any(line.startswith("cat\tdf=2") for line in lines)


def raw_passage(pid, text):
    return Passage(id=pid, doc_id=pid, text=text, word_count=len(tokenize(text)))


class TestLoadErrors:
    @pytest.fixture
    def saved(self, small_index, tmp_path):
        path = tmp_path / "idx.hyqa"
        small_index[0].save(path)
        _, meta, arrays = container.load(path)
        return path, meta, dict(arrays)

    def test_old_varint_layout(self, saved):
        path, meta, arrays = saved
        meta["df"] = np.diff(arrays.pop("indptr")).tolist()
        del arrays["docs"], arrays["tf"]
        arrays["postings"] = np.zeros(3, dtype=np.uint8)
        container.save(path, "sparse", meta, arrays)
        with pytest.raises(ContainerError, match=r"idx\.hyqa: .*rebuild it with index-sparse"):
            SparseIndex.load(path)

    @pytest.mark.parametrize(
        "case, corrupt, message",
        [
            ("terms-unsorted", lambda m, a: m.update(terms=m["terms"][::-1]), "terms not sorted"),
            ("indptr-length", lambda m, a: a.update(indptr=a["indptr"][:-1]), "entries for"),
            ("indptr-decreasing", lambda m, a: a.update(indptr=a["indptr"][[0, 2, 1, *range(3, len(a["indptr"]))]]),
             "non-decreasing"),
            ("indptr-end", lambda m, a: a.update(indptr=np.minimum(a["indptr"], len(a["docs"]) - 1)), "non-decreasing"),
            ("tf-length", lambda m, a: a.update(tf=a["tf"][:-1]), "non-decreasing"),
            ("doc-out-of-range", lambda m, a: a.update(docs=np.full_like(a["docs"], len(m["doc_ids"]))), "out of range"),
            ("docs-not-ascending", lambda m, a: a.update(docs=np.zeros_like(a["docs"])), "strictly ascending"),
            ("doc-lengths", lambda m, a: a.update(doc_lengths=a["doc_lengths"][:-1]), "doc lengths for"),
            ("float-docs", lambda m, a: a.update(docs=a["docs"].astype(np.float64)), "integers"),
        ],
    )
    def test_inconsistent_arrays(self, saved, case, corrupt, message):
        path, meta, arrays = saved
        corrupt(meta, arrays)
        container.save(path, "sparse", meta, arrays)
        with pytest.raises(ContainerError, match=rf"idx\.hyqa: .*{message}"):
            SparseIndex.load(path)

    @pytest.mark.parametrize("k1", [float("nan"), float("inf"), "1.2"])
    def test_bad_k1_is_named(self, saved, k1):
        path, meta, arrays = saved
        meta["k1"] = k1
        container.save(path, "sparse", meta, arrays)
        with pytest.raises(ContainerError, match=r"idx\.hyqa: "):
            SparseIndex.load(path)

    @pytest.mark.parametrize("key", ["doc_ids", "terms", "k1", "b"])
    def test_missing_meta_key_is_named(self, saved, key):
        path, meta, arrays = saved
        del meta[key]
        container.save(path, "sparse", meta, arrays)
        with pytest.raises(ContainerError) as raised:
            SparseIndex.load(path)
        assert str(raised.value) == f"{path}: missing key '{key}'"

    def test_terms_that_are_not_strings_are_named(self, saved):
        path, meta, arrays = saved
        meta["terms"] = list(range(len(meta["terms"])))
        container.save(path, "sparse", meta, arrays)
        with pytest.raises(ContainerError) as raised:
            SparseIndex.load(path)
        assert str(raised.value).startswith(f"{path}: ") and "'str'" in str(raised.value)

    def test_every_prefix_raises(self, small_index, tmp_path):
        path = tmp_path / "idx.hyqa"
        small_index[0].save(path)
        data = path.read_bytes()
        cut = tmp_path / "cut.hyqa"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ContainerError):
                SparseIndex.load(cut)

    def test_narrowest_unsigned_dtypes(self, tmp_path):
        index = build_sparse_index([raw_passage("a", "x " * 300 + "y"), raw_passage("b", "y")])
        assert (index.docs.dtype, index.tf.dtype) == (np.uint8, np.uint16)
        index.save(tmp_path / "idx.hyqa")
        loaded = SparseIndex.load(tmp_path / "idx.hyqa")
        assert (loaded.docs.dtype, loaded.tf.dtype) == (np.uint8, np.uint16)
        assert postings(loaded) == {"x": [(0, 300)], "y": [(0, 1), (1, 1)]}


WORDS = ["alpha", "beta", "gamma", "delta", "x", "y2", "z3z"]
corpora = st.lists(
    st.lists(st.tuples(st.sampled_from(WORDS), st.integers(1, 300)), max_size=4),
    max_size=6,
).map(lambda docs: [
    raw_passage(f"p{i}", " ".join(w for word, n in doc for w in [word] * n)) for i, doc in enumerate(docs)
])
queries = st.lists(st.sampled_from(WORDS + ["oov", "missing9"]), min_size=1, max_size=6).map(" ".join)


class TestProperties:
    @given(corpora)
    @example([])
    @example([raw_passage("p0", "x"), raw_passage("p1", "x x x")])
    def test_save_load_identity(self, tmp_path_factory, passages):
        path = tmp_path_factory.mktemp("idx") / "idx.hyqa"
        index = build_sparse_index(passages)
        index.save(path)
        loaded = SparseIndex.load(path)
        assert_same_index(loaded, index)
        build_sparse_index(passages).save(path.with_name("rebuilt.hyqa"))
        loaded.save(path.with_name("resaved.hyqa"))
        assert path.with_name("rebuilt.hyqa").read_bytes() == path.read_bytes()
        assert path.with_name("resaved.hyqa").read_bytes() == path.read_bytes()

    @given(corpora, queries)
    @example([raw_passage("p0", "x " * 260), raw_passage("p1", "x")], "x x oov")
    def test_search_matches_oracle(self, passages, query):
        index = build_sparse_index(passages)
        results = sparse_search(index, query, max(len(passages), 1))
        if not any(p.text for p in passages):
            assert results == []
            return
        oracle = brute_force_bm25(passages, query)
        for sp in results:
            assert sp.score == pytest.approx(oracle[sp.passage_id], abs=1e-9)
        expected_order = sorted([pid for pid, s in oracle.items() if s > 0], key=lambda pid: (-oracle[pid], pid))
        assert [sp.passage_id for sp in results] == expected_order


def counter_index_arrays(passages):
    """Reference for build_sparse_index's arrays: one Counter of terms per
    passage, postings read term by term in sorted order."""
    counts = [Counter(terms(p.text)) for p in passages]
    vocab = sorted(set().union(*counts))
    docs = [d for term in vocab for d, c in enumerate(counts) if term in c]
    tf = [c[term] for term in vocab for c in counts if term in c]
    df = [sum(term in c for c in counts) for term in vocab]

    def narrow(values):
        return np.array(values, dtype=np.min_scalar_type(max(values, default=0)))

    return {
        "terms": vocab,
        "doc_lengths": np.array([sum(c.values()) for c in counts], dtype=np.int64),
        "indptr": np.concatenate([[0], np.cumsum(df, dtype=np.int64)]),
        "docs": narrow(docs),
        "tf": narrow(tf),
    }


# Surfaces that repeat within and across passages, with the characters on
# the non-ASCII path of terms: KELVIN SIGN (lowercases to ASCII k), dotted
# capital I (lowercases to two code points) and the no-break space.
_surface_texts = st.lists(
    st.sampled_from(["alpha", "Alpha", "ALPHA", "k", "\u212a", "\u212aelvin", "\u0130x", "i\u0307x", "b2", "-", "\xa0", " "]),
    max_size=30,
).map(" ".join) | st.just("") | st.text(max_size=20)


class TestInterning:
    @given(st.lists(_surface_texts, max_size=8))
    @example([])
    @example(["", "", ""])
    @example(["\u212a k K", "", "k\xa0\u212a \u0130 i\u0307"])
    @example(["x " * 300, "x"])
    def test_equals_counter_reference(self, texts):
        passages = [Passage(f"p{i}", f"d{i}", text, 0) for i, text in enumerate(texts)]
        index, expected = build_sparse_index(passages), counter_index_arrays(passages)
        assert index.terms == expected["terms"]
        for name in ("doc_lengths", "indptr", "docs", "tf"):
            got, want = getattr(index, name), expected[name]
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name

    @given(st.lists(_surface_texts, min_size=1, max_size=5), st.data())
    def test_duplicate_id_is_named(self, texts, data):
        ids = [f"p{i}" for i in range(len(texts))]
        dup = data.draw(st.sampled_from(ids))
        passages = [Passage(pid, pid, text, 0) for pid, text in zip(ids, texts)]
        passages.insert(data.draw(st.integers(ids.index(dup) + 1, len(passages))), Passage(dup, "other", "text", 1))
        with pytest.raises(ValueError, match=f"duplicate passage id '{dup}'"):
            build_sparse_index(passages)


def per_term_top_k(index, query_text, k):
    """Reference: the per-term loop that block scoring replaced. Each query
    term in sorted order adds mult * idf * tf(k1 + 1)/(tf + norm) to its
    postings' passages in a dense score array."""
    k1, b = index.params.k1, index.params.b
    scores = np.zeros(index.N)
    for term, mult in sorted(Counter(terms(query_text)).items()):
        t = index._term_index(term)
        if t is None:
            continue
        lo, hi = index.indptr[t], index.indptr[t + 1]
        docs = index.docs[lo:hi]
        tf = index.tf[lo:hi].astype(np.float64)
        norm = k1 * (1.0 - b + b * index.doc_lengths[docs] / index.avg_len)
        scores[docs] += mult * index.idf(term) * (tf * (k1 + 1.0) / (tf + norm))
    hits = np.flatnonzero(scores)
    top = hits[top_k(scores[hits], index.id_rank[hits], k)]
    return top, scores[top]


class TestBlockScoring:
    @given(corpora, st.lists(queries, min_size=1, max_size=5), st.integers(1, 8), st.booleans())
    @example([raw_passage("p0", "x x y2"), raw_passage("p1", "x"), raw_passage("p2", "alpha")],
             ["x x x y2", "oov missing9", "y2 x y2", "alpha"], 8, True)
    @example([], ["oov", "x"], 1, False)
    def test_equals_per_term_loop(self, tmp_path_factory, passages, texts, k, reload):
        index = build_sparse_index(passages)
        if reload:
            path = tmp_path_factory.mktemp("idx") / "idx.hyqa"
            index.save(path)
            index = SparseIndex.load(path)
        ranked = sparse_top_k_each(index, texts, k)
        assert len(ranked) == len(texts)
        for text, (top, scores) in zip(texts, ranked):
            expected_top, expected_scores = per_term_top_k(index, text, k)
            assert top.dtype == expected_top.dtype
            assert top.tolist() == expected_top.tolist()
            assert scores.tobytes() == expected_scores.tobytes()
            one_top, one_scores = sparse_top_k_each(index, [text], k)[0]
            assert one_top.tolist() == top.tolist() and one_scores.tobytes() == scores.tobytes()

    def test_blocks_of_a_larger_corpus(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(60)]
        passages = [raw_passage(f"p{i:03d}", " ".join(rng.choice(words, size=rng.integers(0, 40)))) for i in range(150)]
        texts = [" ".join(rng.choice(words + ["oov"], size=rng.integers(0, 8))) for _ in range(300)]
        index = build_sparse_index(passages)
        for k in (1, 10, 1000):
            for lo in range(0, len(texts), 128):
                block = texts[lo : lo + 128]
                for text, (top, scores) in zip(block, sparse_top_k_each(index, block, k)):
                    expected_top, expected_scores = per_term_top_k(index, text, k)
                    assert top.tolist() == expected_top.tolist()
                    assert scores.tobytes() == expected_scores.tobytes()

    @pytest.mark.parametrize("groups_of", [1, 2, 3, 7])
    def test_a_block_over_several_cell_groups(self, monkeypatch, groups_of):
        rng = np.random.default_rng(groups_of)
        words = [f"w{i}" for i in range(30)]
        passages = [raw_passage(f"p{i:02d}", " ".join(rng.choice(words, size=rng.integers(0, 20)))) for i in range(40)]
        texts = [" ".join(rng.choice(words + ["oov"], size=rng.integers(0, 6))) for _ in range(10)] + ["", "oov"]
        index = build_sparse_index(passages)
        # A group of `groups_of` queries holds fewer cells than one more query.
        monkeypatch.setattr(sparse, "_CELLS", groups_of * index.N + index.N - 1)
        bincounts, real = [], np.bincount
        monkeypatch.setattr(sparse.np, "bincount", lambda *a, **kw: bincounts.append(1) or real(*a, **kw))
        ranked = sparse_top_k_each(index, texts, 100)
        assert len(bincounts) == -(-len(texts) // groups_of)
        for text, (top, scores) in zip(texts, ranked):
            expected_top, expected_scores = per_term_top_k(index, text, 100)
            assert top.tolist() == expected_top.tolist()
            assert scores.dtype == np.float64 and scores.tobytes() == expected_scores.tobytes()

    def test_an_empty_index(self, tmp_path):
        index = build_sparse_index([])
        index.save(tmp_path / "idx.hyqa")
        for loaded in (index, SparseIndex.load(tmp_path / "idx.hyqa")):
            hits_each = sparse_hits_each(loaded, ["alpha", "", "alpha beta"])
            assert [(hits.dtype, hits.size, scores.dtype, scores.size) for hits, scores in hits_each] == [
                (np.dtype(np.intp), 0, np.dtype(np.float64), 0)
            ] * 3
            assert sparse_search(loaded, "alpha", 5) == []

    def test_no_queries_and_bad_k(self, small_index):
        index, _ = small_index
        assert sparse_top_k_each(index, [], 3) == []
        with pytest.raises(ValueError, match="k must be >= 1"):
            sparse_top_k_each(index, ["cat"], 0)
