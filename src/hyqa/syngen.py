"""Synthetic QA-example machinery.

Covers the full chain that turns raw passages into retrieval training data:
target encoding/decoding for a sentence-answer-question generator,
diversity-promoting top-p top-k sampling over a pluggable token
distribution (an n-gram model is bundled), generation with the
answer-must-appear discard rule, roundtrip-consistency filtering through a
span scorer, BM25 hard-negative mining, and training-set assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .corpus import Passage, TokenSpan, terms, tokenize
from .encoder import IRTrainInstance
from .evalkit import _contains_answer
from .mrc import ScorerConfig, answerability
from .sparse import SparseIndex, sparse_top_k

__all__ = [
    "QAExample",
    "GenTarget",
    "SamplerConfig",
    "FilterConfig",
    "TokenDistribution",
    "NgramLM",
    "DecodeRejection",
    "GenerationResult",
    "FilterResult",
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


@dataclass(frozen=True)
class DecodeRejection:
    reason: str  # "sentence-not-found" | "answer-not-found"


class TokenDistribution(Protocol):
    vocab: list[str]

    def next(self, context: Sequence[str]) -> np.ndarray: ...


def encode_generation_target(passage: Passage, example: QAExample) -> GenTarget:
    """Locate the single sentence containing the answer span and record its
    first/last tokens alongside the answer and question."""
    a_start, a_end = example.answer_span
    if passage.text[a_start:a_end] != example.answer:
        raise ValueError("answer_span does not slice to the answer text")
    containing = None
    for sent in passage.sentence_spans:
        if sent.start <= a_start and a_end <= sent.end:
            containing = sent
            break
    if containing is None:
        raise ValueError("answer span does not lie within a single sentence")
    tokens = tokenize(containing.surface)
    if not tokens:
        raise ValueError("containing sentence has no tokens")
    return GenTarget(
        sentence_first=tokens[0].surface,
        sentence_last=tokens[-1].surface,
        answer=example.answer,
        question=example.question,
    )


def _find_token_run(sentence: TokenSpan, answer_tokens: list[str]) -> Optional[tuple[int, int]]:
    """First contiguous token run in the sentence matching answer_tokens;
    returns character offsets relative to the sentence start."""
    sent_tokens = tokenize(sentence.surface)
    n = len(answer_tokens)
    if n == 0:
        return None
    surfaces = [t.surface for t in sent_tokens]
    for i in range(len(surfaces) - n + 1):
        if surfaces[i : i + n] == answer_tokens:
            return sent_tokens[i].start, sent_tokens[i + n - 1].end
    return None


def decode_generation_target(passage: Passage, serialized: str):
    """Parse "first last [SEP] answer [SEP] question" back into a QAExample.

    The first sentence whose first/last tokens match wins; the answer is
    located as the first matching token run inside that sentence. Returns a
    DecodeRejection (not an error) when no sentence matches or the answer
    text is absent. Malformed serializations raise ValueError.
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

    sentence = None
    for sent in passage.sentence_spans:
        toks = terms(sent.surface)
        if toks and toks[0] == first and toks[-1] == last:
            sentence = sent
            break
    if sentence is None:
        return DecodeRejection("sentence-not-found")
    run = _find_token_run(sentence, answer_tokens)
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


def _nucleus(masses: np.ndarray, config: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Validate a next-token distribution and select the nucleus that
    `sample_top_p_top_k` samples from: the kept token ids, highest mass
    first, and their renormalized weights."""
    masses = np.asarray(masses, dtype=np.float64)
    if masses.size == 0:
        raise ValueError("empty distribution")
    if (masses < 0).any():
        raise ValueError("negative probability mass")
    total = float(masses.sum())
    # np.isclose(total, 1.0, atol=1e-9) in scalar form; NaN fails it too.
    if not abs(total - 1.0) <= 1e-9 + 1e-5:
        raise ValueError(f"masses sum to {total}, not 1")
    order = np.lexsort((np.arange(masses.size), -masses))[: config.k]
    kept = masses[order]
    cum = np.cumsum(kept)
    cutoff = int(np.searchsorted(cum, config.p - 1e-12)) + 1
    nucleus = order[:cutoff]
    return nucleus, masses[nucleus] / masses[nucleus].sum()


def sample_top_p_top_k(masses: np.ndarray, config: SamplerConfig, rng: np.random.Generator) -> int:
    """Keep the k highest-mass tokens, then the smallest high-mass prefix
    with cumulative mass >= p, renormalize, and sample. Mass ties break by
    ascending token index."""
    nucleus, weights = _nucleus(masses, config)
    return int(rng.choice(nucleus, p=weights))


def _nucleus_sampler(config: SamplerConfig, rng: np.random.Generator) -> Callable[[np.ndarray], int]:
    """A draw function that returns what sample_top_p_top_k(masses, config,
    rng) would, but validates and selects each distinct distribution's
    nucleus once. Distributions are keyed by their bytes, never by `id()`:
    a model may build a fresh array per call. A draw is the CDF search that
    Generator.choice(nucleus, p=weights) makes on one uniform, so samples
    and the RNG stream stay in step with sample_top_p_top_k."""
    nuclei: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def draw(masses: np.ndarray) -> int:
        masses = np.asarray(masses, dtype=np.float64)
        key = masses.tobytes()
        if key not in nuclei:
            nucleus, weights = _nucleus(masses, config)
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            nuclei[key] = nucleus, cdf
        nucleus, cdf = nuclei[key]
        return int(nucleus[cdf.searchsorted(rng.random(), side="right")])

    return draw


@dataclass
class GenerationResult:
    examples: list[QAExample]
    discards: dict[str, int] = field(default_factory=dict)


def generate_examples(
    passage: Passage,
    lm: TokenDistribution,
    n: int = 5,
    config: SamplerConfig = SamplerConfig(),
) -> GenerationResult:
    """Sample n target sequences from the token distribution and decode them.

    Rejected decodes (answer missing from the passage, unmatched sentence,
    malformed output) are dropped and tallied; duplicate (question, answer)
    pairs are deduplicated. Output may therefore be shorter than n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    draw = _nucleus_sampler(config, np.random.default_rng(config.seed))
    result = GenerationResult(examples=[])
    seen: set[tuple[str, str]] = set()
    for _ in range(n):
        tokens: list[str] = []
        for _ in range(MAX_GEN_TOKENS):
            tok = lm.vocab[draw(lm.next(tokens))]
            if tok == EOS_TOKEN:
                break
            tokens.append(tok)
        serialized = " ".join(tokens)
        try:
            decoded = decode_generation_target(passage, serialized)
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
    discards are summed over all passages.
    """
    total = GenerationResult(examples=[])
    for i, passage in enumerate(passages):
        rng = np.random.default_rng(seed ^ (i + 1))
        targets = candidate_targets(passage, rng)
        if not targets:
            continue
        lm = NgramLM(order=3).fit(targets)
        result = generate_examples(passage, lm, n=n, config=replace(sampler, seed=int(rng.integers(0, 2**31))))
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
    scorer_config: ScorerConfig = ScorerConfig(),
) -> FilterResult:
    """Keep examples whose answerability score reaches the threshold.

    `scorer` provides .logits(question, passage_id, passage_text), returning
    None when logits are unavailable (external sources); such examples are
    dropped and tallied, not fatal.
    """
    result = FilterResult(kept=[], scores=[])
    for ex in examples:
        logits = scorer.logits(ex.question, ex.passage_id, passage_texts[ex.passage_id])
        if logits is None:
            result.scores.append(None)
            result.missing += 1
            continue
        score = answerability(logits, scorer_config)
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
    for i in sparse_top_k(index, question, depth)[0].tolist():
        passage_id = index.doc_ids[i]
        if passage_id != exclude_id and not _contains_answer(passage_texts[passage_id], [answer]):
            return passage_id
    return None


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
    mined hard negative. Examples whose negative cannot be mined are
    dropped and tallied."""
    texts = {pid: p.text for pid, p in passages.items()}
    result = TrainingSetResult(instances=[])
    for ex in examples:
        if ex.passage_id not in passages:
            raise KeyError(f"example passage {ex.passage_id!r} not in passage map")
        neg_id = mine_negative(ex.question, ex.answer, index, texts, depth, exclude_id=ex.passage_id)
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


def candidate_targets(passage: Passage, rng: np.random.Generator, per_sentence: int = 2) -> list[list[str]]:
    """Derive plausible target token sequences from a passage.

    Used to fit the bundled n-gram generator: each sentence contributes
    templates of the form [first, last, SEP, answer tokens, SEP, "what",
    salient tokens, EOS] where the answer is a short token run from the
    sentence.
    """
    targets = []
    for sent in passage.sentence_spans:
        tokens = terms(sent.surface)
        if len(tokens) < 3:
            continue
        for _ in range(per_sentence):
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
    """Backoff n-gram token distribution fit on target sequences."""

    def __init__(self, order: int = 3):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.vocab: list[str] = []
        self._rows: dict[tuple[str, ...], int] = {}
        self._probs = np.zeros((0, 0))

    _BOS = "<s>"  # internal padding marker, never emitted

    def fit(self, sequences: Sequence[Sequence[str]]) -> "NgramLM":
        """Count every (context, next token) pair of every context length
        below `order` in one bincount, then normalize each context's row."""
        self.vocab = sorted({tok for seq in sequences for tok in seq} | {EOS_TOKEN})
        index = {t: i for i, t in enumerate(self.vocab)}
        rows: dict[tuple[str, ...], int] = {}
        ctx_ids: list[int] = []
        tok_ids: list[int] = []
        pad = [self._BOS] * (self.order - 1)
        for seq in sequences:
            toks = list(seq)
            if not toks or toks[-1] != EOS_TOKEN:
                toks.append(EOS_TOKEN)
            padded = pad + toks
            for pos, tok in enumerate(toks, start=len(pad)):
                for ctx_len in range(self.order):
                    ctx_ids.append(rows.setdefault(tuple(padded[pos - ctx_len : pos]), len(rows)))
                    tok_ids.append(index[tok])
        v = len(self.vocab)
        keys = np.array(ctx_ids, dtype=np.intp) * v + np.array(tok_ids, dtype=np.intp)
        counts = np.bincount(keys, minlength=len(rows) * v).reshape(len(rows), v).astype(np.float64)
        # Integer counts sum exactly, so no row depends on summation order.
        self._probs = counts / counts.sum(axis=1, keepdims=True)
        self._probs.setflags(write=False)
        self._rows = rows
        return self

    def next(self, context: Sequence[str]) -> np.ndarray:
        """Distribution after the longest fitted suffix of `context`, as a
        read-only row."""
        ctx = [self._BOS] * (self.order - 1) + list(context)
        for ctx_len in range(self.order - 1, -1, -1):
            row = self._rows.get(tuple(ctx[len(ctx) - ctx_len :]) if ctx_len else ())
            if row is not None:
                return self._probs[row]
        # Unfit model: uniform.
        uniform = np.full(len(self.vocab), 1.0 / len(self.vocab))
        uniform.setflags(write=False)
        return uniform
