"""Synthetic QA-example machinery.

Covers the full chain that turns raw passages into retrieval training data:
target encoding/decoding for a sentence-answer-question generator, a
backoff n-gram generator compiled over its observed (context, token) pairs,
diversity-promoting top-p top-k sampling decoded on its rows,
generation with the answer-must-appear discard rule, roundtrip-consistency
filtering through a span scorer, BM25 hard-negative mining, and
training-set assembly.

One compile, _compile, fits every n-gram model, a chunk of models at a time
for generation and one for NgramLM.fit. One selector, _nuclei, computes
every nucleus: over the fitted rows of a chunk of models for generation,
and over one row, every column an entry, for the public
sample_top_p_top_k. One path, _sentence_terms, gives each sentence's terms
to target encoding, candidate targets and decoding.

generate_corpus and build_ir_training_set run their block loops through
one splitter, _sharded: contiguous shards of whole blocks, one per usable
CPU, all but the first in forked processes.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, NoReturn, Optional, Sequence, TypeVar

import numpy as np

from .corpus import Passage, TokenSpan, segment_sentences, terms, token_bounds
from .encoder import IRTrainInstance
from .evalkit import normalize_answer
from .mrc import MAX_ANSWER_LEN, best_span_each, logit_rows
from .sparse import SparseIndex, sparse_top_k_each

__all__ = [
    "QAExample",
    "GenTarget",
    "SamplerConfig",
    "FilterConfig",
    "NgramLM",
    "DecodeRejection",
    "GenerationResult",
    "FilterResult",
    "TrainingSetResult",
    "SEP_TOKEN",
    "EOS_TOKEN",
    "encode_generation_target",
    "decode_generation_target",
    "sample_top_p_top_k",
    "generate_examples",
    "generate_corpus",
    "example_to_record",
    "example_from_record",
    "roundtrip_filter",
    "filtered_records",
    "build_ir_training_set",
    "candidate_targets",
]

SEP_TOKEN = "[SEP]"
EOS_TOKEN = "<eos>"
MAX_GEN_TOKENS = 64
# Models generate_corpus compiles, and whose nuclei it selects, in one array
# pass, and so holds at once: about 5,600 rows and 10,000 observed pairs on
# short passages, enough to amortize the numpy calls, few enough that the
# held models (their pairs, not vocabulary-wide rows) add little to peak
# memory.
_NUCLEUS_CHUNK = 64
# Sequences whose uniforms generate_examples draws in one call, which bounds
# the block of draws held at once.
_DRAW_SEQUENCES = 64
# Examples roundtrip_filter scores per logit_rows pass. The block bounds
# the filter's memory, a few float64 arrays over the block's tokens (its
# logits and best_span_each's window maxima) and MAX_ANSWER_LEN cells per
# example, while keeping the numpy calls few.
_FILTER_BLOCK = 128
# Questions build_ir_training_set ranks per BM25 product. The product holds
# each question's matched passages, so the block bounds mining's memory as
# _FILTER_BLOCK bounds the filter's.
_MINE_BLOCK = 128

_T = TypeVar("_T")


def _sharded(n: int, block: int, work: Callable[[int, int], _T]) -> list[_T]:
    """work(lo, hi) over contiguous shards of range(n), their results in
    shard order.

    There is one shard per usable CPU (os.sched_getaffinity), each a whole
    number of `block`s and at least one, so every block holds the items a
    serial loop over range(0, n, block) gives it. Shard 0 runs here; each
    other shard runs in an os.fork child, which sends back only its pickled
    result, or its exception, through a pipe. With one usable CPU, fewer
    than two blocks, no os.fork or os.sched_getaffinity (off Linux), or
    another Python thread running in this process, work(0, n) runs here as
    the one shard: a lock another thread holds at the fork would stay held
    in the child for good.

    A stage's `work` reads only its own shard's items and state that no
    shard writes, and its blocks are the serial loop's, so no result
    depends on the split. The first exception in shard order is raised,
    which is the one a serial loop raises first; an exception a child
    cannot pickle, or a child that dies, is a RuntimeError. Every child is
    reaped before this returns or raises.
    """
    blocks = -(-n // block)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    shards = min(cpus, blocks)
    if shards < 2 or threading.active_count() > 1:
        return [work(0, n)]
    bounds = [min(n, s * blocks // shards * block) for s in range(shards + 1)]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), in shard order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _send(write, work, lo, hi)
            os.close(write)
            children.append((pid, read))
        results = [work(bounds[0], bounds[1])]
        results += [_receive(pid, read) for pid, read in children]
        return results
    finally:
        # A child whose result was read has exited or is exiting, so the
        # kill stops only those left running by an exception here.
        for pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(write: int, work: Callable[[int, int], _T], lo: int, hi: int) -> NoReturn:
    """In a forked child: write the pickled (True, work(lo, hi)), or
    (False, its exception), to the pipe `write`, then exit without running
    any of the parent's exit handlers."""
    status = 1
    try:
        try:
            reply = (True, work(lo, hi))
        except Exception as e:
            reply = (False, e)
        data = memoryview(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(write, data) :]
        # The end of file reaches the parent now, not once this process's
        # memory has been torn down.
        os.close(write)
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, read: int):
    """The result child `pid` sent through the pipe `read`; its exception
    is raised here."""
    chunks = []
    while chunk := os.read(read, 1 << 20):
        chunks.append(chunk)
    try:
        ok, value = pickle.loads(b"".join(chunks))
    except Exception:
        raise RuntimeError(f"shard process {pid} ended without a readable result") from None
    if not ok:
        raise value
    return value


@dataclass(frozen=True)
class QAExample:
    passage_id: str
    question: str
    answer: str
    answer_span: tuple[int, int]  # character offsets into the passage text


def example_to_record(ex: QAExample, **extra) -> dict:
    """JSONL record of an example; `extra` adds fields such as its
    answerability score."""
    return {
        "passage_id": ex.passage_id,
        "question": ex.question,
        "answer": ex.answer,
        "span_start": ex.answer_span[0],
        "span_end": ex.answer_span[1],
        **extra,
    }


def example_from_record(record: dict) -> QAExample:
    """The inverse of example_to_record. A field of the wrong type is a
    TypeError naming it."""
    for key in ("passage_id", "question", "answer"):
        if not isinstance(record[key], str):
            raise TypeError(f"{key!r} is not a string")
    for key in ("span_start", "span_end"):
        if type(record[key]) is not int:
            raise TypeError(f"{key!r} is not an integer")
    return QAExample(
        passage_id=record["passage_id"],
        question=record["question"],
        answer=record["answer"],
        answer_span=(record["span_start"], record["span_end"]),
    )


@dataclass(frozen=True)
class GenTarget:
    sentence_first: str
    sentence_last: str
    answer: str
    question: str

    def serialize(self) -> str:
        return (
            f"{self.sentence_first} {self.sentence_last} "
            f"{SEP_TOKEN} {self.answer} {SEP_TOKEN} {self.question}"
        )


@dataclass(frozen=True)
class SamplerConfig:
    p: float = 0.95
    k: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class FilterConfig:
    threshold: float = 7.0

    def __post_init__(self):
        if math.isnan(self.threshold):
            raise ValueError("threshold must be a number, not NaN")


@dataclass(frozen=True)
class DecodeRejection:
    reason: str  # "sentence-not-found" | "answer-not-found"


def encode_generation_target(passage: Passage, example: QAExample) -> GenTarget:
    """Locate the single sentence containing the answer span and record its
    first/last tokens alongside the answer and question."""
    a_start, a_end = example.answer_span
    if passage.text[a_start:a_end] != example.answer:
        raise ValueError("answer_span does not slice to the answer text")
    for sent, tokens in _sentence_terms(passage.text):
        if sent.start <= a_start and a_end <= sent.end:
            break
    else:
        raise ValueError("answer span does not lie within a single sentence")
    if not tokens:
        raise ValueError("containing sentence has no tokens")
    return GenTarget(
        sentence_first=tokens[0],
        sentence_last=tokens[-1],
        answer=example.answer,
        question=example.question,
    )


def _find_token_run(
    sentence: TokenSpan, sentence_terms: list[str], answer_tokens: list[str]
) -> Optional[tuple[int, int]]:
    """First contiguous run of the sentence's terms matching answer_tokens;
    returns character offsets relative to the sentence start, cut from
    token_bounds of the sentence only when a run matches."""
    n = len(answer_tokens)
    for i in range(len(sentence_terms) - n + 1):
        if sentence_terms[i : i + n] == answer_tokens:
            starts, ends = token_bounds(sentence.surface)
            return int(starts[i]), int(ends[i + n - 1])
    return None


def _sentence_terms(text: str) -> list[tuple[TokenSpan, list[str]]]:
    """Each sentence of `text`, in order, with its terms."""
    return [(sent, terms(sent.surface)) for sent in segment_sentences(text)]


def decode_generation_target(
    passage: Passage,
    serialized: str,
    sentences: Sequence[tuple[TokenSpan, list[str]]],
):
    """Parse "first last [SEP] answer [SEP] question" back into a QAExample.

    The first sentence whose first/last tokens match wins; the answer is
    located as the first matching token run inside that sentence. Returns a
    DecodeRejection (not an error) when no sentence matches or the answer
    text is absent. Malformed serializations raise ValueError.

    `sentences` is each sentence of passage.text with its terms, in order;
    a caller decoding many samples of one passage computes it once.
    """
    parts = serialized.split(SEP_TOKEN)
    if len(parts) != 3:
        raise ValueError(f"expected exactly two separators, got {len(parts) - 1}")
    head_tokens = terms(parts[0])
    if len(head_tokens) != 2:
        raise ValueError(f"sentence head must be two tokens, got {len(head_tokens)}")
    first, last = head_tokens
    answer_text = parts[1].strip()
    question = parts[2].strip()
    answer_tokens = terms(answer_text)
    if not answer_tokens or not question:
        raise ValueError("empty answer or question segment")

    for sentence, toks in sentences:
        if toks and toks[0] == first and toks[-1] == last:
            break
    else:
        return DecodeRejection("sentence-not-found")
    run = _find_token_run(sentence, toks, answer_tokens)
    if run is None:
        return DecodeRejection("answer-not-found")
    start = sentence.start + run[0]
    end = sentence.start + run[1]
    return QAExample(
        passage_id=passage.id,
        question=question,
        answer=passage.text[start:end],
        answer_span=(start, end),
    )


def _check_masses(row_of: np.ndarray, indptr: np.ndarray, masses: np.ndarray) -> None:
    """Reject CSR rows of distributions with negative mass or a row sum off
    1; row_of[i] is entry i's row. Each row sum is the one numpy gives the
    row as a 1-D array: the rows are first summed in stored order, and a
    row whose sum lies within 1e-9 of the tolerance, or beyond it, is
    summed again as an array, as no order of summation moves a sum of
    nonnegative masses near 1 that far."""
    if (masses < 0).any():
        raise ValueError("negative probability mass")
    totals = np.bincount(row_of, weights=masses, minlength=len(indptr) - 1)
    for row in np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-5)).tolist():
        totals[row] = masses[indptr[row] : indptr[row + 1]].sum()
    # np.isclose(total, 1.0, atol=1e-9) written out; NaN fails it too.
    bad = ~(np.abs(totals - 1.0) <= 1e-9 + 1e-5)
    if bad.any():
        raise ValueError(f"masses sum to {float(totals[bad][0])}, not 1")


def _nuclei(
    indptr: np.ndarray, tokens: np.ndarray, masses: np.ndarray, widths: np.ndarray, config: SamplerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nucleus of every row of a CSR of distributions in one array pass.
    Row r lists its entries, token ids `tokens` in ascending order with
    `masses`, over a vocabulary of widths[r] tokens; a token without an
    entry has zero mass. Each row is validated, its entries ranked by
    (-mass, token id), its k first kept, and the smallest prefix of them
    with cumulative mass >= p kept. Returns the rows' nucleus ids and CDFs,
    flat, and each row's nucleus size.

    The ranking is a stable argsort of the row's dense masses: a row whose
    entries stay below p takes zero-mass tokens in ascending id order, up to
    min(k, its vocabulary), as a dense row would. A row's CDF is the
    cumulative sum of its renormalized masses divided by its last entry, as
    Generator.choice(nucleus, p=weights) builds it; each nucleus is
    renormalized by a row sum over a contiguous copy of its masses, which
    numpy adds as it adds a 1-D array. A draw is one uniform and one CDF
    search, the comparisons that choice makes."""
    lens = np.diff(indptr)
    row_of = np.repeat(np.arange(len(lens)), lens)
    _check_masses(row_of, indptr, masses)
    # A stable sort keeps each row's ties in ascending token order.
    ranked = np.lexsort((-masses, row_of))
    rank = np.arange(len(ranked)) - indptr[row_of]
    top = np.flatnonzero(rank < config.k)
    kept_len = np.minimum(lens, config.k)
    # Each row's top k ids and masses, padded with zero mass to the longest.
    order = np.zeros((len(lens), kept_len.max(initial=0)), dtype=np.intp)
    kept = np.zeros(order.shape)
    cells = row_of[top], rank[top]
    order[cells] = tokens[ranked[top]]
    kept[cells] = masses[ranked[top]]
    count = np.count_nonzero(np.cumsum(kept, axis=1) < config.p - 1e-12, axis=1)
    cut = np.where(count < kept_len, count + 1, np.minimum(config.k, widths))
    if cut.max(initial=0) > order.shape[1]:
        pad = ((0, 0), (0, cut.max() - order.shape[1]))
        order, kept = np.pad(order, pad), np.pad(kept, pad)
        for row in np.flatnonzero(cut > kept_len).tolist():
            listed = set(tokens[indptr[row] : indptr[row + 1]].tolist())
            unlisted = [t for t in range(cut[row]) if t not in listed]
            order[row, kept_len[row] : cut[row]] = unlisted[: cut[row] - kept_len[row]]
    cdf = np.zeros_like(kept)
    for width in np.unique(cut).tolist():
        rows = np.flatnonzero(cut == width)
        nuclei = kept[rows, :width]
        weights = nuclei / nuclei.sum(axis=1, keepdims=True)
        sums = weights.cumsum(axis=1)
        cdf[rows, :width] = sums / sums[:, -1:]
    inside = np.arange(order.shape[1]) < cut[:, None]
    return order[inside], cdf[inside], cut


def sample_top_p_top_k(masses: np.ndarray, config: SamplerConfig, rng: np.random.Generator) -> int:
    """Keep the k highest-mass tokens, then the smallest high-mass prefix
    with cumulative mass >= p, renormalize, and sample. Mass ties break by
    ascending token index.

    The nucleus is _nuclei's one-row case, every column an entry, and the
    draw is one uniform searched in its CDF: the token, and the RNG state
    after it, of rng.choice(nucleus, p=weights)."""
    masses = np.asarray(masses, dtype=np.float64).reshape(-1)
    if masses.size == 0:
        raise ValueError("empty distribution")
    width = np.array([masses.size])
    ids, cdf, _ = _nuclei(np.array([0, masses.size]), np.arange(masses.size), masses, width, config)
    return ids.tolist()[bisect_right(cdf.tolist(), rng.random())]


def _select_nuclei(lms: Sequence["NgramLM"], config: SamplerConfig) -> None:
    """Select the nucleus of every fitted row of `lms` with one _nuclei
    pass, find the row each nucleus token leads to with one _Rows.step, and
    store each model's slice for `config`'s (p, k): the flat ids, CDFs and
    next rows, shared by the models of one call, and the model's own row
    offsets."""
    rows = _Rows(lms)
    ids, cdf, cut = _nuclei(rows.indptr, rows.tokens, rows.masses, rows.widths, config)
    source = np.repeat(np.arange(len(cut)), cut)
    nxt = rows.step(source, ids) - rows.base[source]
    ids, cdf, nxt = ids.tolist(), cdf.tolist(), nxt.tolist()
    offsets = [0, *np.cumsum(cut).tolist()]
    for lm, base in zip(lms, rows.base_of_model.tolist()):
        height = len(lm._indptr) - 1
        lm._nuclei[config.p, config.k] = ids, cdf, nxt, offsets[base : base + height + 1]


@dataclass
class GenerationResult:
    examples: list[QAExample]
    discards: dict[str, int] = field(default_factory=dict)


def generate_examples(
    passage: Passage,
    lm: NgramLM,
    n: int,
    config: SamplerConfig,
    *,
    sentences: Optional[Sequence[tuple[TokenSpan, list[str]]]] = None,
) -> GenerationResult:
    """Sample n target sequences from a fitted n-gram model and decode them.

    Rejected decodes (answer missing from the passage, unmatched sentence,
    malformed output) are dropped and tallied; duplicate (question, answer)
    pairs are deduplicated. Output may therefore be shorter than n.

    Decoding runs on the model's compiled rows: each token is one uniform
    and one CDF search in the row's nucleus, as sample_top_p_top_k draws
    it, and the next row is the one stored with the token drawn. The
    uniforms are drawn MAX_GEN_TOKENS per sequence at a time, so a token
    reads the value the next scalar draw would give. A model with no fitted
    rows is a ValueError. `sentences` is each sentence of passage.text with
    its terms, which decode_generation_target reads; when omitted, the
    passage is segmented here.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(lm._indptr) < 2:
        raise ValueError("the n-gram model has no fitted rows: fit it on at least one sequence")
    if (config.p, config.k) not in lm._nuclei:
        _select_nuclei([lm], config)
    ids, cdf, nxt, offsets = lm._nuclei[config.p, config.k]
    random = np.random.default_rng(config.seed).random
    draw = chain.from_iterable(random(MAX_GEN_TOKENS * min(_DRAW_SEQUENCES, n - s)).tolist()
                               for s in range(0, n, _DRAW_SEQUENCES)).__next__
    eos = lm._ids[EOS_TOKEN]
    vocab = lm.vocab
    if sentences is None:
        sentences = _sentence_terms(passage.text)
    result = GenerationResult(examples=[])
    seen: set[tuple[str, str]] = set()
    for _ in range(n):
        row, tokens = lm._start, []
        for _ in range(MAX_GEN_TOKENS):
            j = bisect_right(cdf, draw(), offsets[row], offsets[row + 1])
            if ids[j] == eos:
                break
            tokens.append(vocab[ids[j]])
            row = nxt[j]
        try:
            decoded = decode_generation_target(passage, " ".join(tokens), sentences)
        except ValueError:
            decoded = DecodeRejection("malformed")
        if isinstance(decoded, QAExample) and (decoded.question, decoded.answer) in seen:
            decoded = DecodeRejection("duplicate")
        if isinstance(decoded, DecodeRejection):
            result.discards[decoded.reason] = result.discards.get(decoded.reason, 0) + 1
            continue
        seen.add((decoded.question, decoded.answer))
        result.examples.append(decoded)
    return result


def generate_corpus(
    passages: Sequence[Passage],
    n: int,
    sampler: SamplerConfig,
    seed: int,
) -> GenerationResult:
    """Generation stage over a passage list: fit the bundled n-gram model on
    each passage's candidate targets and sample n sequences from it.

    Passage i draws from its own RNG seeded with seed ^ (i + 1); the
    sampler's own seed is ignored. Passages without targets are skipped;
    discards are summed over all passages. Each passage is segmented once,
    for its targets and its decoding. The models of each run of
    _NUCLEUS_CHUNK passages are compiled in one array pass (_compile, the
    pass NgramLM.fit makes for one model) and have their nuclei selected in
    another. The runs are split into shards, one per usable CPU
    (_sharded); as no passage's draws depend on another's, the examples,
    joined in passage order, and the discards are those of one loop.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def generate(lo: int, hi: int) -> GenerationResult:
        shard = GenerationResult(examples=[])
        for first in range(lo, hi, _NUCLEUS_CHUNK):
            chunk = []
            for i in range(first, min(first + _NUCLEUS_CHUNK, hi)):
                rng = np.random.default_rng(seed ^ (i + 1))
                sentences = _sentence_terms(passages[i].text)
                targets = candidate_targets(passages[i], rng, sentences=sentences)
                if targets:
                    chunk.append((passages[i], targets, sentences, replace(sampler, seed=int(rng.integers(0, 2**31)))))
            if not chunk:
                continue
            lms = [NgramLM(order=3) for _ in chunk]
            _compile(lms, [targets for _, targets, _, _ in chunk])
            _select_nuclei(lms, sampler)
            for (passage, _, sentences, config), lm in zip(chunk, lms):
                result = generate_examples(passage, lm, n=n, config=config, sentences=sentences)
                shard.examples.extend(result.examples)
                _add_discards(shard.discards, result.discards)
        return shard

    total = GenerationResult(examples=[])
    for shard in _sharded(len(passages), _NUCLEUS_CHUNK, generate):
        total.examples.extend(shard.examples)
        _add_discards(total.discards, shard.discards)
    return total


def _add_discards(total: dict[str, int], discards: dict[str, int]) -> None:
    """Add `discards` into `total`, a reason first seen here last, so the
    reasons of sums taken in passage order keep first-seen order."""
    for reason, count in discards.items():
        total[reason] = total.get(reason, 0) + count


@dataclass
class FilterResult:
    kept: list[QAExample]
    scores: list[Optional[float]]  # aligned with the input examples
    missing: int = 0


def roundtrip_filter(
    examples: Sequence[QAExample],
    scorer,
    config: FilterConfig,
    passage_texts: dict[str, str],
) -> FilterResult:
    """Keep examples whose answerability score reaches the threshold.

    An example's answerability is its best span score (mrc.best_span_each)
    over spans of at most mrc.MAX_ANSWER_LEN tokens of the logits of its
    question and passage, -inf for a passage without tokens. The examples
    are scored in blocks of _FILTER_BLOCK, each with one mrc.logit_rows and
    one best_span_each, which holds O(tokens + examples * MAX_ANSWER_LEN)
    float64 values of the block. An example the scorer cannot score
    (.logits returned None, as external sources do) scores None and is
    dropped and tallied, not fatal; an example whose passage is not in
    `passage_texts` is a KeyError, and one whose .logits cover more tokens
    than its passage has is the reader's ValueError (mrc.logit_rows).
    """
    result = FilterResult(kept=[], scores=[])
    for lo in range(0, len(examples), _FILTER_BLOCK):
        block = examples[lo : lo + _FILTER_BLOCK]
        for i, ex in enumerate(block, start=lo):
            if ex.passage_id not in passage_texts:
                raise KeyError(f"example passage {ex.passage_id!r} not in passage map (example {i})")
        ids = [ex.passage_id for ex in block]
        texts = [passage_texts[pid] for pid in ids]
        rows, scored = logit_rows(scorer, [ex.question for ex in block], ids, texts)
        read, rows = rows.nonempty()
        scores = np.full(len(block), -np.inf)
        if read.size:
            scores[read] = best_span_each(rows, MAX_ANSWER_LEN)[2]
        for ex, ok, score in zip(block, scored.tolist(), scores.tolist()):
            if not ok:
                result.scores.append(None)
                result.missing += 1
            else:
                result.scores.append(score)
                if score >= config.threshold:
                    result.kept.append(ex)
    return result


def filtered_records(examples: Sequence[QAExample], result: FilterResult) -> list[dict]:
    """Records of the examples `result` kept, in input order, each with its
    answerability score."""
    kept = {id(ex) for ex in result.kept}
    return [
        example_to_record(ex, answerability=score)
        for ex, score in zip(examples, result.scores)
        if id(ex) in kept
    ]


def _first_negative(
    ranked: np.ndarray, answer: str, index: SparseIndex, haystack: Callable[[str], str], exclude_id: str
) -> Optional[str]:
    """The first of the `ranked` passage indices, other than exclude_id,
    whose text does not contain the normalized answer, as
    evalkit.answer_test tests it: `haystack(passage_id)` is the passage's
    normalized text between single spaces, where the answer, normalized
    and between single spaces, matches exactly whole-token windows."""
    needle = normalize_answer(answer)
    needle = f" {needle} " if needle else None
    for i in ranked.tolist():
        passage_id = index.doc_ids[i]
        if passage_id != exclude_id and (needle is None or needle not in haystack(passage_id)):
            return passage_id
    return None


def _haystack(text: str) -> str:
    return f" {normalize_answer(text)} "


@dataclass
class TrainingSetResult:
    instances: list[IRTrainInstance]
    dropped: int = 0


def build_ir_training_set(
    examples: Sequence[QAExample],
    index: SparseIndex,
    passages: dict[str, Passage],
    depth: int,
) -> TrainingSetResult:
    """One training instance per example: positive = source passage, one
    mined hard negative, the highest-BM25-ranked passage among the
    question's top `depth`, other than the example's own, whose text does
    not contain the normalized answer (_first_negative). Examples whose
    negative cannot be mined are dropped and tallied. Every example's
    passage is looked up before any scoring; the questions are then ranked
    _MINE_BLOCK at a time with one sparse_top_k_each. Each candidate
    passage's text is normalized once per shard, at its first test. A depth
    below 1 is a ValueError, raised first.

    The blocks are split into shards, one per usable CPU (_sharded), each
    of which sends back its examples' negative passage ids only; the
    instances are then built here from `passages` itself."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for ex in examples:
        if ex.passage_id not in passages:
            raise KeyError(f"example passage {ex.passage_id!r} not in passage map")

    def mine(lo: int, hi: int) -> list[Optional[str]]:
        haystacks: dict[str, str] = {}

        def haystack(passage_id: str) -> str:
            hay = haystacks.get(passage_id)
            if hay is None:
                hay = haystacks[passage_id] = _haystack(passages[passage_id].text)
            return hay

        shard: list[Optional[str]] = []
        for first in range(lo, hi, _MINE_BLOCK):
            block = examples[first : min(first + _MINE_BLOCK, hi)]
            ranked = sparse_top_k_each(index, [ex.question for ex in block], depth)
            shard += [_first_negative(top, ex.answer, index, haystack, ex.passage_id) for ex, (top, _) in zip(block, ranked)]
        return shard

    result = TrainingSetResult(instances=[])
    for ex, neg_id in zip(examples, chain.from_iterable(_sharded(len(examples), _MINE_BLOCK, mine))):
        if neg_id is None:
            result.dropped += 1
            continue
        result.instances.append(
            IRTrainInstance(
                question=ex.question,
                positive=passages[ex.passage_id],
                hard_negatives=(passages[neg_id],),
            )
        )
    return result


# Stopwords excluded when picking salient question tokens for the bundled
# template targets.
_QUESTION_STOP = {
    "the", "a", "an", "and", "or", "of", "in", "on", "to", "is", "are",
    "was", "were", "for", "with", "that", "this", "it", "as", "by", "at",
}
_TARGETS_PER_SENTENCE = 2


def candidate_targets(
    passage: Passage,
    rng: np.random.Generator,
    *,
    sentences: Optional[Sequence[tuple[TokenSpan, list[str]]]] = None,
) -> list[list[str]]:
    """Derive plausible target token sequences from a passage.

    Used to fit the bundled n-gram generator: each sentence contributes
    templates of the form [first, last, SEP, answer tokens, SEP, "what",
    salient tokens, EOS] where the answer is a short token run from the
    sentence. `sentences` is as for generate_examples.
    """
    if sentences is None:
        sentences = _sentence_terms(passage.text)
    targets = []
    for _, tokens in sentences:
        if len(tokens) < 3:
            continue
        for _ in range(_TARGETS_PER_SENTENCE):
            span_len = int(rng.integers(1, min(4, len(tokens)) + 1))
            start = int(rng.integers(0, len(tokens) - span_len + 1))
            answer = tokens[start : start + span_len]
            salient = [t for t in tokens if t not in _QUESTION_STOP and t not in answer][:6]
            if not salient:
                salient = tokens[:3]
            targets.append(
                [tokens[0], tokens[-1], SEP_TOKEN, *answer, SEP_TOKEN, "what", *salient, EOS_TOKEN]
            )
    return targets


class NgramLM:
    """Backoff n-gram generator fit on target sequences.

    Fitting compiles the model into integer states over its observed (row,
    token) pairs. Row r is one fitted context: the empty one, then those of
    length 1, 2, ... up to order - 1. Its entries are the tokens seen after
    it, ascending, in _tokens[_indptr[r]:_indptr[r + 1]], with their
    probabilities in _masses; every other token has probability 0. Column
    len(vocab) is the padding marker when it is not itself a fitted token.
    _extensions lists each fitted context one token shorter than the order
    with a token that extends it into a fitted context: (row, token, row of
    the extension), sorted. _suffix[r] is the row of r's context without
    its first token (row 0 for row 0). The row after r and token t is the
    longest fitted suffix of (context + (t,))[-(order-1):]: r's extension
    by t when fitted, else the row after _suffix[r] and t, down to row 0.
    Decoding starts from _start, the row of the padding context.
    """

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.vocab: list[str] = []
        self._ids: dict[str, int] = {}  # token -> column, the padding marker included
        self._indptr = np.zeros(1, dtype=np.intp)
        self._tokens = np.zeros(0, dtype=np.intp)
        self._masses = np.zeros(0)
        self._extensions = np.zeros((3, 0), dtype=np.intp)
        self._suffix = np.zeros(0, dtype=np.intp)
        self._start = 0
        # (p, k) -> each row's nucleus ids, CDF and next rows, flat, with
        # row offsets.
        self._nuclei: dict[tuple[float, int], tuple[list[int], list[float], list[int], list[int]]] = {}

    _BOS = "<s>"  # internal padding marker, never emitted

    def fit(self, sequences: Sequence[Sequence[str]]) -> "NgramLM":
        """Compile the model on `sequences`: _compile's one-model case."""
        _compile([self], [sequences])
        return self

    def next(self, context: Sequence[str]) -> np.ndarray:
        """Distribution after the longest fitted suffix of `context`, as a
        read-only row: the row reached by stepping from the padding context
        through its tokens. No fitted context holds an unfitted token, so
        one leads back to the empty context."""
        if len(self._indptr) < 2:
            if not self.vocab:
                raise ValueError("the n-gram model is not fitted: call fit before next")
            # Fitted on no tokens: uniform over its vocabulary.
            uniform = np.full(len(self.vocab), 1.0 / len(self.vocab))
            uniform.setflags(write=False)
            return uniform
        rows = _Rows([self])
        row = np.array([self._start])
        for tok in context:
            token = self._ids.get(tok)
            row = np.zeros(1, dtype=np.intp) if token is None else rows.step(row, np.array([token]))
        lo, hi = self._indptr[row[0]], self._indptr[row[0] + 1]
        dense = np.zeros(len(self.vocab))
        dense[self._tokens[lo:hi]] = self._masses[lo:hi]
        dense.setflags(write=False)
        return dense


class _Rows:
    """The compiled rows of several models stacked, model m's row r as row
    base_of_model[m] + r, so one array pass serves them all."""

    def __init__(self, lms: Sequence[NgramLM]):
        heights = [len(lm._indptr) - 1 for lm in lms]
        self.base_of_model = np.cumsum([0, *heights[:-1]])
        self.base = np.repeat(self.base_of_model, heights)
        sizes = [len(lm._tokens) for lm in lms]
        self.indptr = np.zeros(len(self.base) + 1, dtype=np.intp)
        self.indptr[1:] = np.concatenate([lm._indptr[1:] for lm in lms])
        self.indptr[1:] += np.repeat(np.cumsum([0, *sizes[:-1]]), heights)
        self.tokens = np.concatenate([lm._tokens for lm in lms])
        self.masses = np.concatenate([lm._masses for lm in lms])
        self.widths = np.repeat([len(lm.vocab) for lm in lms], heights)
        self.suffix = np.concatenate([lm._suffix for lm in lms]) + self.base
        # A key numbers a (row, token) pair; a column past every vocabulary
        # holds each model's padding marker.
        self.columns = max(len(lm.vocab) for lm in lms) + 1
        src, tokens, extended = np.concatenate([lm._extensions for lm in lms], axis=1)
        base = np.repeat(self.base_of_model, [lm._extensions.shape[1] for lm in lms])
        self.keys = (src + base) * self.columns + tokens
        self.extended = extended + base

    def step(self, rows: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """The row after each of `rows` and the token at the same index:
        the row's fitted extension by the token, else the row after its
        suffix and the token, down to its model's row 0."""
        rows = rows.copy()
        out = np.empty_like(rows)
        todo = np.arange(len(rows))
        while todo.size:
            key = rows[todo] * self.columns + tokens[todo]
            at = np.searchsorted(self.keys, key)
            hit = at < len(self.keys)
            hit[hit] = self.keys[at[hit]] == key[hit]
            out[todo[hit]] = self.extended[at[hit]]
            todo = todo[~hit]
            up = self.suffix[rows[todo]]
            root = up == rows[todo]
            out[todo[root]] = up[root]
            rows[todo[~root]] = up[~root]
            todo = todo[~root]
        return out


def _compile(lms: Sequence[NgramLM], corpora: Sequence[Sequence[Sequence[str]]]) -> None:
    """Fit each model of `lms` (all of one order) on its sequences of
    `corpora` in one array pass over all of them.

    Each model's contexts of each length below the order are numbered with
    one np.unique over (context one token shorter, token) for all models,
    in the order a one-model fit numbers them; its (row, token) pairs are
    counted with one np.unique, and each entry's probability is its count
    over its row's integer sum."""
    width = lms[0].order - 1
    if any(lm.order != width + 1 for lm in lms):
        raise ValueError("models compiled together must have one order")
    stream: list[int] = []  # every sequence's token ids after `width` padding markers
    lengths: list[int] = []  # each sequence's token count
    pads: list[int] = []
    for lm, sequences in zip(lms, corpora):
        lm.vocab = sorted({EOS_TOKEN}.union(*sequences))
        v = len(lm.vocab)
        # A fitted "<s>" token is the padding marker: their contexts coincide.
        lm._ids = dict(zip(lm.vocab, range(v)))
        pad, eos = lm._ids.setdefault(lm._BOS, v), lm._ids[EOS_TOKEN]
        padding, column = [pad] * width, lm._ids.__getitem__
        for seq in sequences:
            toks = list(map(column, seq))
            if not toks or toks[-1] != eos:
                toks.append(eos)
            stream += padding
            stream += toks
            lengths.append(len(toks))
        pads.append(pad)
        lm._nuclei = {}
    ids = np.array(stream, dtype=np.intp)
    per_sequence = np.repeat(np.arange(len(lms)), [len(sequences) for sequences in corpora])
    model = np.repeat(per_sequence, lengths)
    # Token i of sequence j sits after j + 1 runs of padding markers.
    token_pos = np.arange(len(model)) + width * np.repeat(np.arange(1, len(lengths) + 1), lengths)
    tokens = ids[token_pos]
    columns = max(len(lm.vocab) for lm in lms) + 1

    # codes[n][i]: the length-n context before token i, as its rank among
    # every model's length-n contexts; level_models[n]: each rank's model.
    keys, code = np.unique(model, return_inverse=True)
    codes, level_models = [code], [keys]
    for n in range(1, width + 1):
        keys, code = np.unique(codes[-1] * columns + ids[token_pos - n], return_inverse=True)
        codes.append(code)
        level_models.append(level_models[-1][keys // columns])
    counts = np.array([np.bincount(m, minlength=len(lms)) for m in level_models])  # level x model
    heights = counts.sum(axis=0)
    row_ends = np.cumsum(heights)
    base = row_ends - heights
    level_start = np.cumsum(counts, axis=0) - counts
    rows = np.empty((width + 1, len(token_pos)), dtype=np.intp)
    for n, (m, code) in enumerate(zip(level_models, codes)):
        local = np.arange(len(m)) - np.searchsorted(m, m)
        rows[n] = (base[m] + level_start[n, m] + local)[code]
    total = int(row_ends[-1])

    pairs, pair_counts = np.unique((rows * columns + tokens).ravel(), return_counts=True)
    entry_rows = pairs // columns
    indptr = np.zeros(total + 1, dtype=np.intp)
    np.cumsum(np.bincount(entry_rows, minlength=total), out=indptr[1:])
    # Integer counts sum exactly, so no row depends on summation order.
    masses = pair_counts / np.bincount(entry_rows, weights=pair_counts, minlength=total)[entry_rows]
    masses.setflags(write=False)
    entry_tokens = pairs % columns

    # A context followed by token t, one position on, is one token longer;
    # the padding context grows by the padding marker.
    followed = np.flatnonzero(np.diff(token_pos) == 1)
    present = np.flatnonzero(heights)  # the models fit on at least one token
    firsts, pad_tokens = np.searchsorted(model, present), np.array(pads, dtype=np.intp)[present]
    suffix = np.arange(total)
    src, tok, dst = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for n in range(1, width + 1):
        src += [rows[n - 1, followed], rows[n - 1, firsts]]
        tok += [tokens[followed], pad_tokens]
        dst += [rows[n, followed + 1], rows[n, firsts]]
        suffix[rows[n]] = rows[n - 1]
    ext_keys, first = np.unique(np.concatenate(src) * columns + np.concatenate(tok), return_index=True)
    extensions = np.stack([ext_keys // columns, ext_keys % columns, np.concatenate(dst)[first]])
    starts = np.zeros(len(lms), dtype=np.intp)
    starts[present] = rows[width, firsts] - base[present]

    bounds = zip(base.tolist(), row_ends.tolist(), indptr[base].tolist(), indptr[row_ends].tolist(),
                 np.searchsorted(extensions[0], base).tolist(), np.searchsorted(extensions[0], row_ends).tolist())
    for lm, start, (lo, hi, a, b, e, f) in zip(lms, starts.tolist(), bounds):
        lm._indptr = indptr[lo : hi + 1] - a
        lm._tokens = entry_tokens[a:b]
        lm._masses = masses[a:b]
        lm._suffix = suffix[lo:hi] - lo
        lm._extensions = extensions[:, e:f] - [[lo], [0], [lo]]
        lm._start = start
