import math

import numpy as np
import pytest

from hyqa.corpus import Document, chunk_retrieval_passages, tokenize
from hyqa.sparse import BM25Params, SparseIndex, build_sparse_index, sparse_search


def passage(pid, text):
    import dataclasses

    p = chunk_retrieval_passages(Document(id=pid, title="", body=text), 120)[0]
    return dataclasses.replace(p, id=pid)


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
        assert index.postings == {}

    def test_shared_term_posting_length(self, small_index):
        index, _ = small_index
        assert len(index.postings["cat"]) == 2

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
        assert loaded.postings == index.postings
        assert loaded.doc_ids == index.doc_ids
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.params == index.params


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


def test_default_params_match_expected():
    params = BM25Params()
    assert params.k1 == 1.2
    assert params.b == 0.75


def test_dump_postings_readable(small_index):
    index, _ = small_index[0], small_index[1]
    lines = list(small_index[0].dump_postings())
    assert any(line.startswith("cat\tdf=2") for line in lines)
