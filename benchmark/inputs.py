"""Seeded benchmark inputs: Zipf-distributed text with planted facts.

Every document is a run of sentences whose words are drawn from a
Zipf-Mandelbrot distribution over a pseudo-word vocabulary. A share of the
documents carries one planted fact sentence: a unique entity token, a few
context words and a unique answer phrase. Each planted fact yields one
cloze question (the fact sentence minus its answer, subsampled to a varying
length), so every question has a gold answer that occurs in exactly one
passage. Questions vary in length and in the rarity of their context words,
so BM25 postings lengths vary from question to question.

Everything is a pure function of the seed; the program under test only
receives the JSONL document lines and the questions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Consonant-vowel syllables: words of 2-4 syllables end in a vowel, so no
# vocabulary word collides with the abbreviations that suppress sentence
# boundaries, or with the articles that answer normalization removes.
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# Answer tokens use closed syllables plus a digit suffix, so they never
# collide with vocabulary words or entity tokens.
_ANSWER_CODAS = "nrstx"
# Lowest Zipf rank of each rarity band that planted context words come from.
_BANDS = (0, 50, 500, 3000)
# Questions after which the rotation of bands and question shapes repeats.
SHAPE_CYCLE = 4 * 12


@dataclass(frozen=True)
class Fact:
    doc_id: str
    entity: str
    answer: str
    question: str


@dataclass(frozen=True)
class Inputs:
    lines: list[str]  # JSONL documents {id, title, text}
    facts: list[Fact]  # one cloze question per planted fact, in document order
    input_bytes: int  # UTF-8 bytes of the document bodies


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n = int(rng.integers(2, 5))
        c = rng.integers(0, len(_CONSONANTS), size=n)
        v = rng.integers(0, len(_VOWELS), size=n)
        word = "".join(_CONSONANTS[a] + _VOWELS[b] for a, b in zip(c, v))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _syllables(rng: np.random.Generator, n: int, coda: bool) -> str:
    out = []
    for _ in range(n):
        s = _CONSONANTS[int(rng.integers(len(_CONSONANTS)))] + _VOWELS[int(rng.integers(len(_VOWELS)))]
        if coda:
            s += _ANSWER_CODAS[int(rng.integers(len(_ANSWER_CODAS)))]
        out.append(s)
    return "".join(out)


def _sentence(words: list[str]) -> str:
    return words[0].capitalize() + " " + " ".join(words[1:]) + "."


def generate(
    seed: int,
    n_docs: int,
    sentences_per_doc: tuple[int, int],
    fact_share: float,
    vocab_size: int,
    zipf_s: float = 1.05,
) -> Inputs:
    """Documents with `sentences_per_doc` (inclusive range) sentences of
    6-18 words each; about `fact_share` of them carry a planted fact."""
    rng = np.random.default_rng(seed)
    vocab = _vocabulary(rng, vocab_size)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = 1.0 / (ranks + 2.7) ** zipf_s
    probs /= probs.sum()

    n_sent = rng.integers(sentences_per_doc[0], sentences_per_doc[1] + 1, size=n_docs)
    sent_len = rng.integers(6, 19, size=int(n_sent.sum()))
    word_ids = rng.choice(vocab_size, size=int(sent_len.sum()), p=probs)
    planted = rng.random(n_docs) < fact_share

    lines: list[str] = []
    facts: list[Fact] = []
    input_bytes = 0
    w = 0
    s = 0
    for d in range(n_docs):
        doc_id = f"d{d:06d}"
        sentences = []
        for _ in range(int(n_sent[d])):
            L = int(sent_len[s])
            sentences.append(_sentence([vocab[i] for i in word_ids[w : w + L]]))
            w += L
            s += 1
        if planted[d]:
            fact = _plant(rng, vocab, probs, doc_id, len(facts))
            sentences.insert(int(rng.integers(0, len(sentences) + 1)), fact[0])
            facts.append(fact[1])
        body = " ".join(sentences)
        input_bytes += len(body.encode("utf-8"))
        lines.append(json.dumps({"id": doc_id, "title": "", "text": body}, sort_keys=True))
    return Inputs(lines=lines, facts=facts, input_bytes=input_bytes)


def _plant(rng, vocab, probs, doc_id: str, idx: int) -> tuple[str, Fact]:
    """One fact sentence and its cloze question.

    Context words are drawn from one of four rarity bands, from the head of
    the Zipf distribution (long postings) to its tail (short ones); the
    question keeps 0 to 7 of the 2 to 7 before the entity and all 2 to 4
    after it. Facts take the bands and the shapes in a fixed rotation of SHAPE_CYCLE,
    so every run of SHAPE_CYCLE consecutive questions has the same mix, and
    a median over a whole number of such runs does not depend on how the
    seed happened to spread them; the seed picks only the words.
    """
    entity = _syllables(rng, 3, coda=False) + str(idx)
    n_answer = int(rng.integers(1, 3))
    answer_tokens = [_syllables(rng, 2, coda=True) + str(idx) for _ in range(n_answer)]
    band_lo = _BANDS[idx % len(_BANDS)]
    band = np.arange(band_lo, min(len(vocab), band_lo * 4 + 200))
    band_p = probs[band] / probs[band].sum()
    shape = (idx // len(_BANDS)) % 12
    n_before = 2 + shape % 6
    n_after = 2 + shape % 3
    before = [vocab[i] for i in rng.choice(band, size=n_before, p=band_p)]
    after = [vocab[i] for i in rng.choice(band, size=n_after, p=band_p)]
    # The answer sits between the entity and the trailing context, and the
    # question keeps both, so a lexical span reader can bracket the answer.
    sentence = _sentence(before + [entity] + answer_tokens + after)
    n_kept = (shape * 7) % (n_before + 1)
    kept = [before[i] for i in sorted(rng.choice(n_before, size=n_kept, replace=False))]
    question = "what " + " ".join(kept + [entity] + after)
    return sentence, Fact(doc_id=doc_id, entity=entity, answer=" ".join(answer_tokens), question=question)
