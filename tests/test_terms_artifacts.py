"""The saved indexes do not depend on how `terms` finds its tokens: the
sparse, encoder and dense artifacts built with the shipped `terms` equal,
byte for byte, those built with the regex reference below, and a reloaded
encoder, which tokenizes each passage, encodes it to the same bits."""

import random

import numpy as np

from hyqa import corpus, encoder, mrc, sparse
from hyqa.corpus import _TOKEN_RE, Document, chunk_retrieval_passages
from hyqa.dense_index import build_dense_index
from hyqa.encoder import DualEncoder, encode_passage
from hyqa.sparse import build_sparse_index


def regex_terms(text):
    """corpus.terms as a regex match loop: an ASCII text lowercased whole,
    any other text match by match; kept as the exact reference."""
    if text.isascii():
        return _TOKEN_RE.findall(text.lower())
    return [m.lower() for m in _TOKEN_RE.findall(text)]


_WORDS = ["virus", "Masks", "COVID-19", "ACE2", "cells", "e.g.", "Dr.", "p<0.05", "IL-6", "(n=12)", "spread", "Dose"]
# KELVIN SIGN and dotted capital I lowercase to ASCII letters; no-break
# space is whitespace but not ASCII; beta is a letter outside [0-9A-Za-z].
_NON_ASCII = ["5\u212a", "\u212aelvin", "\u0130stanbul", "\u03b2-coronavirus", "\u0130L-6", "\u03b2\u212a"]


def seeded_documents():
    """24 ASCII documents, then 8 that mix in the non-ASCII words and have
    their first spaces replaced by no-break spaces."""
    rng = random.Random(7)

    def body(words):
        sentences = []
        for _ in range(rng.randint(2, 9)):
            sentence = " ".join(rng.choice(words) for _ in range(rng.randint(3, 30)))
            sentences.append(sentence[0].upper() + sentence[1:] + rng.choice([".", "!", "?"]))
        return " ".join(sentences)

    docs = [Document(f"a{i}", "", body(_WORDS)) for i in range(24)]
    docs += [Document(f"u{i}", "", body(_WORDS + _NON_ASCII).replace(" ", "\xa0", i + 1)) for i in range(8)]
    return docs


def save_artifacts(out):
    passages = [p for d in seeded_documents() for p in chunk_retrieval_passages(d, 40)]
    model = DualEncoder.from_texts([p.text for p in passages], d=8, seed=3)
    embeddings = np.stack([encode_passage(model, p.text) for p in passages])
    out.mkdir()
    build_sparse_index(passages).save(out / "sparse.hyqa")
    model.save(out / "encoder.hyqa")
    build_dense_index([p.id for p in passages], embeddings).save(out / "dense.hyqa")
    # The reloaded encoder holds no token table, so it tokenizes every
    # passage; its rows equal those read from the table.
    loaded = DualEncoder.load(out / "encoder.hyqa")
    assert np.array_equal(np.stack([encode_passage(loaded, p.text) for p in passages]), embeddings)
    return passages


def test_artifacts_equal_regex_reference_build(tmp_path, monkeypatch):
    passages = save_artifacts(tmp_path / "shipped")
    texts = [p.text for p in passages]
    assert any(t.isascii() for t in texts) and not all(t.isascii() for t in texts)
    calls = []

    def counted(text):
        calls.append(text.isascii())
        return regex_terms(text)

    for module in (corpus, encoder, mrc, sparse):
        monkeypatch.setattr(module, "terms", counted)
    save_artifacts(tmp_path / "reference")
    # Both paths of the reference ran, twice per passage: once for the
    # table that the vocabulary and then BM25 are built from (the BM25
    # build takes the table from_texts just made), once for the reloaded
    # encoder.
    n_ascii = sum(map(str.isascii, texts))
    assert calls.count(True) == 2 * n_ascii and calls.count(False) == 2 * (len(texts) - n_ascii)
    for name in ("sparse.hyqa", "encoder.hyqa", "dense.hyqa"):
        assert (tmp_path / "shipped" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes(), name


def regex_bounds(text):
    """corpus.token_bounds as a regex match loop."""
    spans = np.array([m.span() for m in _TOKEN_RE.finditer(text)], dtype=np.intp).reshape(-1, 2)
    return spans[:, 0], spans[:, 1]


# CORD-19 typography: right single quotation marks inside and around words,
# en dashes in ranges and compounds, and non-ASCII units and letters.
_TYPOGRAPHIC = ["patient’s", "’Spike’", "2020–2021", "dose–response", "–", "5\xa0\xb5m",
                "37\xa0\xb0C", "α–helix", "ﬁbrosis"]


def typographic_documents():
    rng = random.Random(11)
    docs = []
    for i in range(16):
        sentences = [" ".join(rng.choice(_WORDS + _TYPOGRAPHIC) for _ in range(rng.randint(3, 30)))
                     for _ in range(rng.randint(2, 9))]
        docs.append(Document(f"t{i}", "", " ".join(s[0].upper() + s[1:] + rng.choice(".!?") for s in sentences)))
    return docs


def build_artifacts(out, documents):
    """Chunk, then save the three artifacts; return the passages and their
    embeddings read back through the reloaded encoder."""
    passages = [p for d in documents for p in chunk_retrieval_passages(d, 40)]
    model = DualEncoder.from_texts([p.text for p in passages], d=8, seed=3)
    out.mkdir()
    build_sparse_index(passages).save(out / "sparse.hyqa")
    model.save(out / "encoder.hyqa")
    build_dense_index([p.id for p in passages], np.stack([encode_passage(model, p.text) for p in passages])).save(
        out / "dense.hyqa"
    )
    loaded = DualEncoder.load(out / "encoder.hyqa")
    return passages, np.stack([encode_passage(loaded, p.text) for p in passages])


def test_typographic_artifacts_equal_regex_reference_build(tmp_path, monkeypatch):
    documents = typographic_documents()
    passages, embeddings = build_artifacts(tmp_path / "shipped", documents)
    assert sum(not p.text.isascii() for p in passages) > len(passages) // 2
    assert any(p.hard_split for p in passages)
    # Chunking reads token_bounds, every index and the reader read terms:
    # the reference build takes both from the regex.
    for module in (corpus, encoder, mrc, sparse):
        monkeypatch.setattr(module, "terms", regex_terms)
    monkeypatch.setattr(corpus, "token_bounds", regex_bounds)
    reference, reference_embeddings = build_artifacts(tmp_path / "reference", documents)
    assert reference == passages
    assert reference_embeddings.tobytes() == embeddings.tobytes()
    for name in ("sparse.hyqa", "encoder.hyqa", "dense.hyqa"):
        assert (tmp_path / "shipped" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes(), name
