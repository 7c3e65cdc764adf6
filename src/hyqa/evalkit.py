"""Evaluation metrics: answer normalization, EM/F1, Match@k, Top-n F1,
open-version gold-set construction, and the paired t-test.
"""

from __future__ import annotations

import json
import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .corpus import read_jsonl
from .scored import ScoredPassage

__all__ = [
    "GoldSet",
    "MetricReport",
    "TTestResult",
    "normalize_answer",
    "exact_match",
    "token_f1",
    "haystack",
    "answer_test",
    "first_match_rank",
    "match_at_k",
    "top_n_f1",
    "open_version",
    "paired_t_test",
    "load_gold_jsonl",
    "load_gold_squad",
]


@dataclass(frozen=True)
class GoldSet:
    query_id: str
    question: str
    answers: tuple[str, ...]

    def __post_init__(self):
        if not self.answers:
            raise ValueError("GoldSet requires at least one answer")


@dataclass
class MetricReport:
    metrics: dict[str, float] = field(default_factory=dict)
    query_count: int = 0
    per_query: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"query_count": self.query_count, "metrics": self.metrics, "per_query": self.per_query},
            sort_keys=True,
            indent=2,
        )

    def format_table(self) -> str:
        width = max((len(k) for k in self.metrics), default=6)
        lines = [f"queries: {self.query_count}"]
        for name in sorted(self.metrics):
            lines.append(f"{name:<{width}}  {self.metrics[name]:.4f}")
        return "\n".join(lines)


_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    text = text.lower().translate(_PUNCT_TABLE)
    text = _ARTICLES_RE.sub(" ", text)
    return " ".join(text.split())


def exact_match(prediction: str, golds: Iterable[str]) -> int:
    norm_pred = normalize_answer(prediction)
    return int(any(norm_pred == normalize_answer(g) for g in golds))


def _f1_single(prediction: str, gold: str) -> float:
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def token_f1(prediction: str, golds: Iterable[str]) -> float:
    return max(_f1_single(prediction, g) for g in golds)


def haystack(text: str) -> str:
    """The text as answer_test searches it: normalized, between single spaces."""
    return f" {normalize_answer(text)} "


def answer_test(answers: Iterable[str], haystack_of: Callable[[str], str] = haystack) -> Callable[[str], bool]:
    """A test of whether a passage contains any of `answers` as a contiguous
    normalized token subsequence; it searches haystack_of(passage), by
    default the passage text's haystack. This one rule serves Match@k and
    hard-negative mining, as in DPR (Karpukhin et al., 2020).

    normalize_answer joins tokens with single spaces, so " a " in " p " on
    the normalized strings matches exactly whole-token windows. An answer
    that normalizes to empty matches nothing."""
    needles = [f" {a} " for a in map(normalize_answer, answers) if a]

    def contains(passage: str) -> bool:
        hay = haystack_of(passage)
        return any(n in hay for n in needles)

    return contains


def first_match_rank(passage_ids: Sequence[str], gold: GoldSet, depth: int, passage_texts: dict[str, str]) -> int:
    """0-based rank of the first of the top `depth` passage ids whose text
    contains a gold answer (see answer_test), or `depth` if none does;
    Match@k for k <= depth is then rank < k. A passage scanned before the
    first match that passage_texts lacks is a KeyError naming it."""
    if depth < 1:
        raise ValueError("k must be >= 1")
    contains = answer_test(gold.answers)
    try:
        for rank, passage_id in enumerate(passage_ids[:depth]):
            if contains(passage_texts[passage_id]):
                return rank
    except KeyError as e:
        raise KeyError(f"retrieved passage {e.args[0]!r} not in passage_texts") from None
    return depth


def match_at_k(
    retrieved: Sequence[ScoredPassage],
    gold: GoldSet,
    k: int,
    passage_texts: dict[str, str],
) -> int:
    """1 iff any top-k passage contains a gold answer (first_match_rank)."""
    return int(first_match_rank([sp.passage_id for sp in retrieved[:k]], gold, k, passage_texts) < k)


def top_n_f1(candidates: Sequence[str], gold: GoldSet, n: int) -> float:
    if not candidates:
        return 0.0
    return max(token_f1(c, gold.answers) for c in candidates[:n])


def open_version(rows: Iterable[tuple[str, str]]) -> list[GoldSet]:
    """Group (question, answer) rows by normalized question, in first-seen
    order, each under its first question; union answers."""
    grouped: dict[str, tuple[str, list[str]]] = {}
    for question, answer in rows:
        answers = grouped.setdefault(normalize_answer(question), (question, []))[1]
        if answer not in answers:
            answers.append(answer)
    return [GoldSet(f"q{i}", question, tuple(answers)) for i, (question, answers) in enumerate(grouped.values())]


@dataclass(frozen=True)
class TTestResult:
    t: float | None
    p_value: float | None
    df: int
    degenerate: bool = False


def _left_sum(values: Iterable[float]) -> float:
    """The floats added left to right from 0.0. The builtin sum compensates
    float sums from Python 3.12 on, so its last bits would depend on the
    interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def paired_t_test(scores_a: Sequence[float], scores_b: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test; p-value via the regularized incomplete beta."""
    from scipy.special import betainc  # imported here, its one user, as it costs ~18.6 MB and ~0.2 s

    if len(scores_a) != len(scores_b):
        raise ValueError("paired t-test requires equal-length score lists")
    n = len(scores_a)
    if n < 2:
        raise ValueError("paired t-test requires n >= 2")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    mean = _left_sum(diffs) / n
    var = _left_sum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    if var == 0.0:
        return TTestResult(t=None, p_value=None, df=df, degenerate=True)
    t = mean / math.sqrt(var / n)
    # Two-sided: P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2)
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t=t, p_value=p, df=df)


def load_gold_jsonl(lines: Iterable[str], source: Optional[str]) -> list[GoldSet]:
    """Line-delimited JSON {question, answers: [...], id?}: a string
    question and a list of string answers. An id-less record's id is q<k>,
    k its 0-based record index. A malformed record, or one whose id an
    earlier record has, raises IngestError (read_jsonl)."""
    seen: set[str] = set()  # one id per earlier record, so len(seen) is k

    def gold(rec: dict) -> GoldSet:
        question, answers = rec["question"], rec["answers"]
        query_id = rec.get("id", f"q{len(seen)}")
        if not isinstance(query_id, str):
            raise TypeError("'id' is not a string")
        if not isinstance(question, str):
            raise TypeError("'question' is not a string")
        if not isinstance(answers, list) or not all(isinstance(a, str) for a in answers):
            raise TypeError("'answers' is not a list of strings")
        if query_id in seen:
            raise ValueError(f"duplicate query id {query_id!r}")
        seen.add(query_id)
        return GoldSet(query_id=query_id, question=question, answers=tuple(answers))

    return read_jsonl(lines, gold, source)


def _squad_list(container, key: str, where: str) -> list:
    """container[key], [] when absent, of a SQuAD JSON object; `where` names
    the container in the ValueError a malformed one raises."""
    if not isinstance(container, dict):
        raise ValueError(f"malformed SQuAD {where}: not a JSON object")
    items = container.get(key, [])
    if not isinstance(items, list):
        raise ValueError(f"malformed SQuAD {where}: {key!r} is not a list")
    return items


def load_gold_squad(data: dict) -> list[GoldSet]:
    """SQuAD-style nested JSON: data -> paragraphs -> qas -> answers. A qa
    without answers is skipped. A malformed qa, one missing a key or whose
    question or answer text is not a string, raises ValueError naming its
    id, or its 0-based index over all qas when it has none, and the reason:
    "malformed SQuAD qa '2': missing key 'question'", "malformed SQuAD qa
    '1': 'question' is not a string". An id-less qa's id is
    the number of golds before it; a qa whose id an earlier gold has is
    malformed: "malformed SQuAD qa '0': duplicate id". The file, an article
    or a paragraph that is not a JSON object, or whose 'data', 'paragraphs'
    or 'qas' is not a list, raises ValueError naming it by 0-based index:
    "malformed SQuAD paragraph 0 of article 1: not a JSON object"."""
    qas = (
        qa
        for a, article in enumerate(_squad_list(data, "data", "file"))
        for p, para in enumerate(_squad_list(article, "paragraphs", f"article {a}"))
        for qa in _squad_list(para, "qas", f"paragraph {p} of article {a}")
    )
    golds = []
    seen: set[str] = set()
    for i, qa in enumerate(qas):
        try:
            if not isinstance(qa, dict):
                raise TypeError("qa is not a JSON object")
            answers = qa.get("answers", [])
            if not isinstance(answers, list) or not all(isinstance(a, dict) for a in answers):
                raise TypeError("'answers' is not a list of objects")
            answers = tuple(a["text"] for a in answers)
            if answers:
                if not isinstance(qa["question"], str):
                    raise TypeError("'question' is not a string")
                if not all(isinstance(a, str) for a in answers):
                    raise TypeError("'text' is not a string")
                query_id = str(qa.get("id", len(golds)))
                if query_id in seen:
                    raise ValueError("duplicate id")
                seen.add(query_id)
                golds.append(GoldSet(query_id=query_id, question=qa["question"], answers=answers))
        except (KeyError, TypeError, ValueError) as e:
            name = repr(str(qa["id"])) if isinstance(qa, dict) and "id" in qa else i
            reason = f"missing key {e}" if isinstance(e, KeyError) else e
            raise ValueError(f"malformed SQuAD qa {name}: {reason}") from e
    return golds
