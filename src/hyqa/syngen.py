"""Synthetic QA-example machinery.

Covers the full chain that turns raw passages into retrieval training data:
target encoding/decoding for a sentence-answer-question generator, a
backoff n-gram generator compiled into integer states, diversity-promoting
top-p top-k sampling decoded on those states, generation with the
answer-must-appear discard rule, roundtrip-consistency filtering through a
span scorer, BM25 hard-negative mining, and training-set assembly.

One selector, _nuclei, computes every nucleus: over the fitted rows of a
chunk of models for generation, and over one row for the public
sample_top_p_top_k. One path, _sentence_terms, gives each sentence's terms
to target encoding, candidate targets and decoding.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import Passage, TokenSpan, segment_sentences, terms, token_bounds
from .encoder import IRTrainInstance
from .evalkit import answer_test
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
    "mine_negative",
    "build_ir_training_set",
    "candidate_targets",
]

SEP_TOKEN = "[SEP]"
EOS_TOKEN = "<eos>"
MAX_GEN_TOKENS = 64
# Models whose nuclei generate_corpus selects in one array pass, and so holds
# at once: about 1,400 rows on short passages, enough to amortize the numpy
# calls, few enough that the held models add nothing to peak memory.
_NUCLEUS_CHUNK = 16
# Examples roundtrip_filter scores per logit_rows pass. The block bounds
# the filter's memory, a few float64 arrays over the block's tokens (its
# logits and best_span_each's window maxima) and max_answer_len cells per
# example, while keeping the numpy calls few.
_FILTER_BLOCK = 128
# Questions build_ir_training_set ranks per BM25 product. The product holds
# each question's matched passages, so the block bounds mining's memory as
# _FILTER_BLOCK bounds the filter's.
_MINE_BLOCK = 128


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
    sentences: Optional[Sequence[tuple[TokenSpan, list[str]]]] = None,
):
    """Parse "first last [SEP] answer [SEP] question" back into a QAExample.

    The first sentence whose first/last tokens match wins; the answer is
    located as the first matching token run inside that sentence. Returns a
    DecodeRejection (not an error) when no sentence matches or the answer
    text is absent. Malformed serializations raise ValueError.

    `sentences` is each sentence of passage.text with its terms, in order;
    a caller decoding many samples of one passage computes it once. When
    omitted, the passage is segmented here.
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

    if sentences is None:
        sentences = _sentence_terms(passage.text)
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


def _check_masses(masses: np.ndarray) -> None:
    """Reject rows of distributions with negative mass or a row sum off
    1."""
    if (masses < 0).any():
        raise ValueError("negative probability mass")
    totals = masses.sum(axis=1)
    # np.isclose(total, 1.0, atol=1e-9) written out; NaN fails it too.
    bad = ~(np.abs(totals - 1.0) <= 1e-9 + 1e-5)
    if bad.any():
        raise ValueError(f"masses sum to {float(totals[bad][0])}, not 1")


def _nuclei(blocks: Sequence[np.ndarray], config: SamplerConfig) -> tuple[list[int], list[float], list[int]]:
    """The nucleus of every row of `blocks`, 2-D mass arrays each as wide
    as its vocabulary, in one array pass: each row is validated, its k
    highest-mass tokens kept by a stable ranking (mass ties by ascending
    id), and the smallest prefix of them with cumulative mass >= p kept.
    Returns the rows' ids and CDFs as flat lists with row offsets.

    A row's CDF is the cumulative sum of its renormalized masses divided by
    its last entry, as Generator.choice(nucleus, p=weights) builds it; each
    nucleus is renormalized by a row sum over a contiguous copy of its
    masses, which numpy adds as it adds a 1-D array. A draw is one uniform
    and one CDF search, the comparisons that choice makes."""
    heights = [len(masses) for masses in blocks]
    widths = [masses.shape[1] for masses in blocks]
    # Each block's top k by a stable argsort of -mass, padded with zero mass
    # to min(k, widest vocabulary) columns: no block's full width is padded
    # to the widest one's.
    order = np.zeros((sum(heights), min(config.k, max(widths))), dtype=np.intp)
    kept = np.zeros(order.shape)
    row = 0
    for masses, height in zip(blocks, heights):
        _check_masses(masses)
        top = np.argsort(-masses, axis=1, kind="stable")[:, : config.k]
        order[row : row + height, : top.shape[1]] = top
        kept[row : row + height, : top.shape[1]] = np.take_along_axis(masses, top, axis=1)
        row += height
    cum = np.cumsum(kept, axis=1)
    # The first prefix reaching p - 1e-12, never into the padding past a
    # block's vocabulary.
    limit = np.minimum(config.k, np.repeat(widths, heights))
    cut = np.minimum(np.count_nonzero(cum < config.p - 1e-12, axis=1) + 1, limit)
    cdf = np.zeros_like(kept)
    for width in np.unique(cut).tolist():
        rows = np.flatnonzero(cut == width)
        nuclei = kept[rows, :width]
        weights = nuclei / nuclei.sum(axis=1, keepdims=True)
        sums = weights.cumsum(axis=1)
        cdf[rows, :width] = sums / sums[:, -1:]
    inside = np.arange(order.shape[1]) < cut[:, None]
    return order[inside].tolist(), cdf[inside].tolist(), [0, *np.cumsum(cut).tolist()]


def sample_top_p_top_k(masses: np.ndarray, config: SamplerConfig, rng: np.random.Generator) -> int:
    """Keep the k highest-mass tokens, then the smallest high-mass prefix
    with cumulative mass >= p, renormalize, and sample. Mass ties break by
    ascending token index.

    The nucleus is _nuclei's one-row case, and the draw is one uniform
    searched in its CDF: the token, and the RNG state after it, of
    rng.choice(nucleus, p=weights)."""
    masses = np.asarray(masses, dtype=np.float64)
    if masses.size == 0:
        raise ValueError("empty distribution")
    ids, cdf, _ = _nuclei([masses.reshape(1, -1)], config)
    return ids[bisect_right(cdf, rng.random())]


def _select_nuclei(lms: Sequence["NgramLM"], config: SamplerConfig) -> None:
    """Select the nucleus of every fitted row of `lms` with one _nuclei
    pass and store each model's slice of it for `config`'s (p, k): the
    flat ids and CDFs, shared by the models of one call, and the model's
    own row offsets."""
    ids, cdf, offsets = _nuclei([lm._probs for lm in lms], config)
    row = 0
    for lm in lms:
        height = len(lm._probs)
        lm._nuclei[config.p, config.k] = ids, cdf, offsets[row : row + height + 1]
        row += height


@dataclass
class GenerationResult:
    examples: list[QAExample]
    discards: dict[str, int] = field(default_factory=dict)


def generate_examples(
    passage: Passage,
    lm: NgramLM,
    n: int = 5,
    config: SamplerConfig = SamplerConfig(),
) -> GenerationResult:
    """Sample n target sequences from a fitted n-gram model and decode them.

    Rejected decodes (answer missing from the passage, unmatched sentence,
    malformed output) are dropped and tallied; duplicate (question, answer)
    pairs are deduplicated. Output may therefore be shorter than n.

    Decoding runs on the model's compiled rows: each token is one uniform
    and one CDF search in the row's nucleus, as sample_top_p_top_k draws
    it, and one transition lookup. A model with no fitted rows is a
    ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not len(lm._probs):
        raise ValueError("the n-gram model has no fitted rows: fit it on at least one sequence")
    if (config.p, config.k) not in lm._nuclei:
        _select_nuclei([lm], config)
    ids, cdf, offsets = lm._nuclei[config.p, config.k]
    random = np.random.default_rng(config.seed).random
    step = lm._transitions.item
    vocab = lm.vocab
    sentences = _sentence_terms(passage.text)
    result = GenerationResult(examples=[])
    seen: set[tuple[str, str]] = set()
    for _ in range(n):
        row, tokens = lm._start, []
        for _ in range(MAX_GEN_TOKENS):
            token = ids[bisect_right(cdf, random(), offsets[row], offsets[row + 1])]
            tok = vocab[token]
            if tok == EOS_TOKEN:
                break
            tokens.append(tok)
            row = step(row, token)
        serialized = " ".join(tokens)
        try:
            decoded = decode_generation_target(passage, serialized, sentences)
        except ValueError:
            result.discards["malformed"] = result.discards.get("malformed", 0) + 1
            continue
        if isinstance(decoded, DecodeRejection):
            result.discards[decoded.reason] = result.discards.get(decoded.reason, 0) + 1
            continue
        key = (decoded.question, decoded.answer)
        if key in seen:
            result.discards["duplicate"] = result.discards.get("duplicate", 0) + 1
            continue
        seen.add(key)
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
    discards are summed over all passages. The models of each run of a few
    passages have their nuclei selected in one array pass.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = GenerationResult(examples=[])
    for first in range(0, len(passages), _NUCLEUS_CHUNK):
        chunk = []
        for i in range(first, min(first + _NUCLEUS_CHUNK, len(passages))):
            rng = np.random.default_rng(seed ^ (i + 1))
            targets = candidate_targets(passages[i], rng)
            if targets:
                lm = NgramLM(order=3).fit(targets)
                chunk.append((passages[i], lm, replace(sampler, seed=int(rng.integers(0, 2**31)))))
        if not chunk:
            continue
        _select_nuclei([lm for _, lm, _ in chunk], sampler)
        for passage, lm, config in chunk:
            result = generate_examples(passage, lm, n=n, config=config)
            total.examples.extend(result.examples)
            for reason, count in result.discards.items():
                total.discards[reason] = total.discards.get(reason, 0) + count
    return total


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
    max_answer_len: int = MAX_ANSWER_LEN,
) -> FilterResult:
    """Keep examples whose answerability score reaches the threshold.

    An example's answerability is its best span score (mrc.best_span_each)
    over the logits of its question and passage, -inf for a passage without
    tokens. The examples are scored in blocks of _FILTER_BLOCK, each with
    one mrc.logit_rows and one best_span_each, which holds O(tokens +
    examples * max_answer_len) float64 values of the block. An example the
    scorer cannot score (.logits returned None, as external sources do)
    scores None and is dropped and tallied, not fatal; an example whose
    passage is not in `passage_texts` is a KeyError, and one whose .logits
    cover more tokens than its passage has is the reader's ValueError
    (mrc.logit_rows). A max_answer_len below 1 is a ValueError, raised
    before any example is scored.
    """
    if max_answer_len < 1:
        raise ValueError("max_answer_len must be >= 1")
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
            scores[read] = best_span_each(rows, max_answer_len)[2]
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
    ranked: np.ndarray, answer: str, index: SparseIndex, passage_texts: dict[str, str], exclude_id: Optional[str]
) -> Optional[str]:
    """The first of the `ranked` passage indices, other than exclude_id,
    whose text does not contain the normalized answer."""
    contains = answer_test([answer])
    for i in ranked.tolist():
        passage_id = index.doc_ids[i]
        if passage_id != exclude_id and not contains(passage_texts[passage_id]):
            return passage_id
    return None


def mine_negative(
    question: str,
    answer: str,
    index: SparseIndex,
    passage_texts: dict[str, str],
    depth: int = 100,
    exclude_id: Optional[str] = None,
) -> Optional[str]:
    """Highest-BM25-ranked passage (top `depth`) for the question whose text
    does not contain the normalized answer; None if every candidate does."""
    return _first_negative(sparse_top_k_each(index, [question], depth)[0][0], answer, index, passage_texts, exclude_id)


@dataclass
class TrainingSetResult:
    instances: list[IRTrainInstance]
    dropped: int = 0


def build_ir_training_set(
    examples: Sequence[QAExample],
    index: SparseIndex,
    passages: dict[str, Passage],
    depth: int = 100,
) -> TrainingSetResult:
    """One training instance per example: positive = source passage, one
    mined hard negative, as mine_negative picks it with the example's own
    passage excluded. Examples whose negative cannot be mined are dropped
    and tallied. Every example's passage is looked up before any scoring;
    the questions are then ranked _MINE_BLOCK at a time with one
    sparse_top_k_each."""
    for ex in examples:
        if ex.passage_id not in passages:
            raise KeyError(f"example passage {ex.passage_id!r} not in passage map")
    texts = {pid: p.text for pid, p in passages.items()}
    result = TrainingSetResult(instances=[])
    for lo in range(0, len(examples), _MINE_BLOCK):
        block = examples[lo : lo + _MINE_BLOCK]
        ranked = sparse_top_k_each(index, [ex.question for ex in block], depth)
        for ex, (top, _) in zip(block, ranked):
            neg_id = _first_negative(top, ex.answer, index, texts, ex.passage_id)
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


def candidate_targets(passage: Passage, rng: np.random.Generator) -> list[list[str]]:
    """Derive plausible target token sequences from a passage.

    Used to fit the bundled n-gram generator: each sentence contributes
    templates of the form [first, last, SEP, answer tokens, SEP, "what",
    salient tokens, EOS] where the answer is a short token run from the
    sentence.
    """
    targets = []
    for _, tokens in _sentence_terms(passage.text):
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

    Fitting compiles the model into integer states. Row r of _probs is one
    fitted context: the empty one, then those of length 1, 2, ... up to
    order - 1. _transitions[r, t] is the row after context r is extended by
    token t: the longest fitted suffix of (context + (t,))[-(order-1):].
    Column len(vocab) is the padding marker when it is not itself a fitted
    token. Decoding starts from _start, the row of the padding context.
    """

    def __init__(self, order: int = 3):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.vocab: list[str] = []
        self._ids: dict[str, int] = {}  # token -> column, the padding marker included
        self._probs = np.zeros((0, 0))
        self._transitions = np.zeros((0, 1), dtype=np.int32)
        self._start = 0
        # (p, k) -> each row's nucleus ids and CDF, flat, with row offsets.
        self._nuclei: dict[tuple[float, int], tuple[list[int], list[float], list[int]]] = {}

    _BOS = "<s>"  # internal padding marker, never emitted

    def fit(self, sequences: Sequence[Sequence[str]]) -> "NgramLM":
        """Number the contexts of every length below `order` in arrays, one
        length at a time, count every (context, next token) pair in one
        bincount and normalize each context's row; then compile the
        transitions between contexts."""
        self.vocab = sorted({tok for seq in sequences for tok in seq} | {EOS_TOKEN})
        v = len(self.vocab)
        # A fitted "<s>" token is the padding marker: their contexts coincide.
        self._ids = {self._BOS: v, **{t: i for i, t in enumerate(self.vocab)}}
        pad, eos, width = self._ids[self._BOS], self._ids[EOS_TOKEN], self.order - 1
        ids: list[int] = []
        firsts: list[int] = []  # position of each sequence's first token
        for seq in sequences:
            toks = [self._ids[tok] for tok in seq]
            if not toks or toks[-1] != eos:
                toks.append(eos)
            ids += [pad] * width
            firsts.append(len(ids))
            ids += toks
        self._nuclei = {}
        if not ids:
            self._probs = np.zeros((0, v))
            self._transitions = np.zeros((0, v + 1), dtype=np.int32)
            return self
        ids = np.array(ids, dtype=np.intp)
        is_token = np.ones(len(ids) + 1, dtype=bool)
        is_token[(np.array(firsts)[:, None] - np.arange(1, width + 1)).ravel()] = False
        is_token[-1] = False  # one past the end
        pos = np.flatnonzero(is_token[:-1])
        # rows[n, i]: row of the length-n context before the token at pos[i].
        rows = np.zeros((self.order, len(pos)), dtype=np.intp)
        level = [0, 1]  # first row of each length
        code = np.zeros(len(pos), dtype=np.intp)
        for n in range(1, self.order):
            keys, code = np.unique(code * (v + 1) + ids[pos - n], return_inverse=True)
            rows[n] = level[-1] + code
            level.append(level[-1] + len(keys))
        tokens = ids[pos]
        total = level[-1]
        counts = np.bincount((rows * v + tokens).ravel(), minlength=total * v).reshape(total, v).astype(np.float64)
        # Integer counts sum exactly, so no row depends on summation order.
        self._probs = counts / counts.sum(axis=1, keepdims=True)
        self._probs.setflags(write=False)

        # A context followed by token t, one position on, is one token
        # longer; the padding context grows by the padding marker.
        transitions = np.full((total, v + 1), -1, dtype=np.int32)
        followed = np.flatnonzero(is_token[pos + 1])
        suffix = np.zeros(total, dtype=np.intp)
        for n in range(1, self.order):
            transitions[rows[n - 1, followed], tokens[followed]] = rows[n, followed + 1]
            transitions[rows[n - 1, 0], pad] = rows[n, 0]
            suffix[rows[n]] = rows[n - 1]
        # A prefix and a suffix of a fitted context are fitted too, so the
        # row after r and t is r's extension by t when fitted, else the row
        # after r's suffix and t, down to the empty context (row 0).
        transitions[0] = np.maximum(transitions[0], 0)
        for lo, hi in zip(level[1:], level[2:]):
            extended = transitions[lo:hi]
            transitions[lo:hi] = np.where(extended >= 0, extended, transitions[suffix[lo:hi]])
        self._transitions = transitions
        self._start = int(rows[width, 0])
        return self

    def next(self, context: Sequence[str]) -> np.ndarray:
        """Distribution after the longest fitted suffix of `context`, as a
        read-only row: the row reached by stepping from the padding context
        through its tokens. No fitted context holds an unfitted token, so
        one leads back to the empty context."""
        if not len(self._probs):
            if not self.vocab:
                raise ValueError("the n-gram model is not fitted: call fit before next")
            # Fitted on no tokens: uniform over its vocabulary.
            uniform = np.full(len(self.vocab), 1.0 / len(self.vocab))
            uniform.setflags(write=False)
            return uniform
        row = self._start
        for tok in context:
            token = self._ids.get(tok)
            row = 0 if token is None else self._transitions.item(row, token)
        return self._probs[row]
