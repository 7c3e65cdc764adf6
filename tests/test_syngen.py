import copy
import os
import threading
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hyqa.corpus import Document, Passage, chunk_generation_passages, tokenize
from hyqa.evalkit import GoldSet, answer_test
from hyqa.mrc import MAX_ANSWER_LEN, LexicalScorer, ScorerConfig, SpanLogits, answerability
from hyqa.sparse import build_sparse_index, sparse_top_k_each
from hyqa.syngen import (
    EOS_TOKEN,
    MAX_GEN_TOKENS,
    SEP_TOKEN,
    DecodeRejection,
    FilterConfig,
    GenTarget,
    NgramLM,
    QAExample,
    SamplerConfig,
    build_ir_training_set,
    candidate_targets,
    decode_generation_target,
    encode_generation_target,
    example_from_record,
    example_to_record,
    generate_corpus,
    generate_examples,
    roundtrip_filter,
    sample_top_p_top_k,
)
from hyqa import syngen
from hyqa.syngen import (
    _FILTER_BLOCK,
    _MINE_BLOCK,
    _NUCLEUS_CHUNK,
    _select_nuclei,
    _sentence_terms,
)


def make_passage(text, pid="p1"):
    import dataclasses

    p = chunk_generation_passages(Document(id=pid, title="", body=text), 288)[0]
    return dataclasses.replace(p, id=pid)


class TestEncodeTarget:
    def test_construction_by_definition(self):
        passage = make_passage("Covid spreads fast. Masks help a lot.")
        start = passage.text.index("Masks")
        ex = QAExample("p1", "What helps?", "Masks", (start, start + 5))
        target = encode_generation_target(passage, ex)
        assert target == GenTarget("masks", "lot", "Masks", "What helps?")

    def test_single_token_sentence(self):
        passage = make_passage("Wait. Masks help a lot.")
        ex = QAExample("p1", "q", "Wait", (0, 4))
        target = encode_generation_target(passage, ex)
        assert target.sentence_first == target.sentence_last == "wait"

    def test_answer_straddling_sentences_errors(self):
        passage = make_passage("Covid spreads fast. Masks help a lot.")
        bad = passage.text.index("fast")
        ex = QAExample("p1", "q", passage.text[bad : bad + 12], (bad, bad + 12))
        with pytest.raises(ValueError):
            encode_generation_target(passage, ex)

    def test_serialization_format(self):
        target = GenTarget("masks", "lot", "Masks", "What helps?")
        assert target.serialize() == "masks lot [SEP] Masks [SEP] What helps?"


class TestDecodeTarget:
    def test_roundtrip(self):
        passage = make_passage("Covid spreads fast. Masks help a lot.")
        start = passage.text.index("Masks")
        ex = QAExample("p1", "what helps", "Masks", (start, start + 5))
        decoded = decode_generation_target(passage, encode_generation_target(passage, ex).serialize(), _sentence_terms(passage.text))
        assert decoded == ex

    def test_first_matching_sentence_wins(self):
        # Both sentences start "masks" and end "lot".
        passage = make_passage("Masks help a lot. Masks block a lot.")
        decoded = decode_generation_target(passage, "masks lot [SEP] help [SEP] what", _sentence_terms(passage.text))
        assert decoded.answer_span[0] < passage.text.index(".")

    def test_answer_not_found_is_rejection(self):
        passage = make_passage("Masks help a lot.")
        result = decode_generation_target(passage, "masks lot [SEP] vaccines [SEP] what", _sentence_terms(passage.text))
        assert result == DecodeRejection("answer-not-found")

    def test_unmatched_sentence_is_rejection(self):
        passage = make_passage("Masks help a lot.")
        result = decode_generation_target(passage, "covid spreads [SEP] masks [SEP] what", _sentence_terms(passage.text))
        assert result == DecodeRejection("sentence-not-found")

    def test_malformed_serialization_errors(self):
        passage = make_passage("Masks help a lot.")
        with pytest.raises(ValueError):
            decode_generation_target(passage, "masks lot [SEP] only one sep", _sentence_terms(passage.text))
        with pytest.raises(ValueError):
            decode_generation_target(passage, "a b c [SEP] x [SEP] q", _sentence_terms(passage.text))

    def test_decoded_answer_slices_from_passage(self):
        passage = make_passage("The COVID-19 vaccine works well.")
        decoded = decode_generation_target(passage, "the well [SEP] covid 19 [SEP] what works", _sentence_terms(passage.text))
        s, e = decoded.answer_span
        assert passage.text[s:e] == decoded.answer == "COVID-19"


class TestSampler:
    def test_defaults(self):
        config = SamplerConfig()
        assert config.p == 0.95
        assert config.k == 10

    def test_k1_is_greedy(self):
        rng = np.random.default_rng(0)
        masses = np.array([0.2, 0.5, 0.3])
        for _ in range(20):
            assert sample_top_p_top_k(masses, SamplerConfig(k=1), rng) == 1

    def test_identity_filter_samples_everything(self):
        rng = np.random.default_rng(1)
        masses = np.array([0.25, 0.25, 0.25, 0.25])
        seen = {sample_top_p_top_k(masses, SamplerConfig(p=1.0, k=4), rng) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_mass_ties_break_by_index(self):
        rng = np.random.default_rng(3)
        masses = np.array([0.25, 0.25, 0.25, 0.25])
        # k=2, p small: support must be the two lowest-index tokens.
        seen = {sample_top_p_top_k(masses, SamplerConfig(p=0.5, k=2), rng) for _ in range(100)}
        assert seen <= {0, 1}

    def test_empty_distribution_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_top_p_top_k(np.array([]), SamplerConfig(), rng)

    def test_invalid_masses_error(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_top_p_top_k(np.array([0.5, 0.6]), SamplerConfig(), rng)


# Distributions with mass ties and zeros: small integer counts, normalized.
distributions = (
    st.lists(st.integers(0, 4), min_size=1, max_size=25)
    .filter(any)
    .map(lambda counts: np.array(counts, dtype=np.float64) / sum(counts))
)
sampler_configs = st.builds(
    SamplerConfig,
    p=st.sampled_from([0.25, 0.5, 0.95, 1.0]) | st.floats(0.0, 1.0, exclude_min=True),
    k=st.integers(1, 30),
)
seeds = st.integers(0, 2**32 - 1)


def reference_nucleus(masses, config):
    """The top-k, top-p selection in plain Python: ids by (mass desc, id
    asc), the first k, then the shortest prefix reaching mass p."""
    order = sorted(range(len(masses)), key=lambda i: (-masses[i], i))[: config.k]
    cum = list(accumulate(masses[i] for i in order))
    cutoff = next((j + 1 for j, c in enumerate(cum) if c >= config.p - 1e-12), len(order))
    nucleus = np.array(order[:cutoff])
    return nucleus, masses[nucleus] / masses[nucleus].sum()


class TestSamplerProperties:
    @given(distributions, sampler_configs, seeds)
    def test_equals_choice_over_reference_nucleus(self, masses, config, seed):
        rng = np.random.default_rng(seed)
        reference = copy.deepcopy(rng)
        nucleus, weights = reference_nucleus(masses, config)
        for _ in range(5):
            assert sample_top_p_top_k(masses, config, rng) == int(reference.choice(nucleus, p=weights))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_generate_draws_the_reference_token_stream(self):
        """The examples and discards are those of decoding, one by one, the
        sequences sample_top_p_top_k draws from lm.next at the default p
        and k."""
        passage = make_passage("Masks help a lot. Vaccines work well. Distancing slows spread quickly.")
        lm = NgramLM(order=3).fit(candidate_targets(passage, np.random.default_rng(1)))
        config = SamplerConfig(seed=3)
        result = generate_examples(passage, lm, n=30, config=config)
        rng, sentences = np.random.default_rng(config.seed), _sentence_terms(passage.text)
        examples, discards = [], Counter()
        for _ in range(30):
            tokens = []
            for _ in range(MAX_GEN_TOKENS):
                tok = lm.vocab[sample_top_p_top_k(lm.next(tokens), config, rng)]
                if tok == EOS_TOKEN:
                    break
                tokens.append(tok)
            try:
                decoded = decode_generation_target(passage, " ".join(tokens), sentences)
            except ValueError:
                discards["malformed"] += 1
                continue
            if isinstance(decoded, DecodeRejection):
                discards[decoded.reason] += 1
            elif any((ex.question, ex.answer) == (decoded.question, decoded.answer) for ex in examples):
                discards["duplicate"] += 1
            else:
                examples.append(decoded)
        assert result.examples == examples and examples
        assert result.discards == discards

    @pytest.mark.parametrize(
        "bad",
        [[float("nan"), 0.5, 0.5], [-0.5, 1.0, 0.5], [0.3, 0.3, 0.3], [float("inf"), 0.0, 0.0]],
        ids=["nan", "negative", "unnormalized", "inf"],
    )
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_invalid_masses_raise_in_generate(self, bad, at):
        """A fitted model whose row `at` holds invalid masses is rejected
        before any draw, whichever row is broken, as the dense oracle's
        nucleus selection rejects the same row."""
        passage = make_passage("Masks help a lot.")
        lm = NgramLM(order=3).fit([["a", "b"]])
        dense = DenseNgramLM(3).fit([["a", "b"]])
        assert lm.vocab == [EOS_TOKEN, "a", "b"] and len(lm._indptr) - 1 == len(dense.probs) > 3
        probs = compiled_rows(lm)
        probs[at] = bad
        set_rows(lm, probs)
        dense.probs = probs
        with pytest.raises(ValueError, match="negative probability mass|masses sum to") as oracle:
            dense_nuclei([dense.probs], SamplerConfig())
        with pytest.raises(ValueError, match="negative probability mass|masses sum to") as raised:
            generate_examples(passage, lm, n=2, config=SamplerConfig(seed=0))
        assert str(raised.value) == str(oracle.value)


class DenseNgramLM:
    """The dense compile that NgramLM's pair compile replaced, the oracle
    for it: `probs` holds every fitted row as a vocabulary-wide array, and
    transitions[r, t] is the row after row r and token t."""

    def __init__(self, order):
        self.order = order

    def fit(self, sequences):
        self.vocab = sorted({tok for seq in sequences for tok in seq} | {EOS_TOKEN})
        v = len(self.vocab)
        self.ids = {"<s>": v, **{t: i for i, t in enumerate(self.vocab)}}
        pad, eos, width = self.ids["<s>"], self.ids[EOS_TOKEN], self.order - 1
        ids, firsts = [], []
        for seq in sequences:
            toks = [self.ids[tok] for tok in seq]
            if not toks or toks[-1] != eos:
                toks.append(eos)
            ids += [pad] * width
            firsts.append(len(ids))
            ids += toks
        self.start = 0
        if not ids:
            self.probs = np.zeros((0, v))
            self.transitions = np.zeros((0, v + 1), dtype=np.int32)
            return self
        ids = np.array(ids, dtype=np.intp)
        is_token = np.ones(len(ids) + 1, dtype=bool)
        is_token[(np.array(firsts)[:, None] - np.arange(1, width + 1)).ravel()] = False
        is_token[-1] = False
        pos = np.flatnonzero(is_token[:-1])
        rows = np.zeros((self.order, len(pos)), dtype=np.intp)
        level = [0, 1]
        code = np.zeros(len(pos), dtype=np.intp)
        for n in range(1, self.order):
            keys, code = np.unique(code * (v + 1) + ids[pos - n], return_inverse=True)
            rows[n] = level[-1] + code
            level.append(level[-1] + len(keys))
        tokens = ids[pos]
        total = level[-1]
        counts = np.bincount((rows * v + tokens).ravel(), minlength=total * v).reshape(total, v).astype(np.float64)
        self.probs = counts / counts.sum(axis=1, keepdims=True)
        transitions = np.full((total, v + 1), -1, dtype=np.int32)
        followed = np.flatnonzero(is_token[pos + 1])
        suffix = np.zeros(total, dtype=np.intp)
        for n in range(1, self.order):
            transitions[rows[n - 1, followed], tokens[followed]] = rows[n, followed + 1]
            transitions[rows[n - 1, 0], pad] = rows[n, 0]
            suffix[rows[n]] = rows[n - 1]
        transitions[0] = np.maximum(transitions[0], 0)
        for lo, hi in zip(level[1:], level[2:]):
            extended = transitions[lo:hi]
            transitions[lo:hi] = np.where(extended >= 0, extended, transitions[suffix[lo:hi]])
        self.transitions = transitions
        self.start = int(rows[width, 0])
        return self

    def row(self, context):
        row = self.start
        for tok in context:
            token = self.ids.get(tok)
            row = 0 if token is None else int(self.transitions[row, token])
        return row


def dense_nuclei(blocks, config):
    """The dense nucleus selection the pair selection replaced, the oracle
    for it: a stable argsort of each vocabulary-wide row of `blocks`."""
    heights = [len(masses) for masses in blocks]
    widths = [masses.shape[1] for masses in blocks]
    order = np.zeros((sum(heights), min(config.k, max(widths))), dtype=np.intp)
    kept = np.zeros(order.shape)
    row = 0
    for masses, height in zip(blocks, heights):
        if (masses < 0).any():
            raise ValueError("negative probability mass")
        totals = masses.sum(axis=1)
        bad = ~(np.abs(totals - 1.0) <= 1e-9 + 1e-5)
        if bad.any():
            raise ValueError(f"masses sum to {float(totals[bad][0])}, not 1")
        top = np.argsort(-masses, axis=1, kind="stable")[:, : config.k]
        order[row : row + height, : top.shape[1]] = top
        kept[row : row + height, : top.shape[1]] = np.take_along_axis(masses, top, axis=1)
        row += height
    cum = np.cumsum(kept, axis=1)
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


def compiled_rows(lm):
    """The model's compiled rows as vocabulary-wide arrays."""
    probs = np.zeros((len(lm._indptr) - 1, len(lm.vocab)))
    rows = np.repeat(np.arange(len(probs)), np.diff(lm._indptr))
    probs[rows, lm._tokens] = lm._masses
    return probs


def set_rows(lm, probs):
    """Replace the model's rows by the nonzero entries of `probs` (NaN
    included), its states kept."""
    rows, tokens = np.nonzero(probs)
    lm._indptr = np.searchsorted(rows, np.arange(len(probs) + 1))
    lm._tokens, lm._masses = tokens, probs[rows, tokens]
    lm._nuclei = {}


def model_of_masses(probs):
    """An NgramLM holding the given rows of masses, whose every state leads
    back to row 0."""
    lm = NgramLM(order=3)
    lm.vocab = [f"t{i}" for i in range(len(probs[0]))]
    lm._ids = {t: i for i, t in enumerate(lm.vocab)}
    lm._suffix = np.zeros(len(probs), dtype=np.intp)
    set_rows(lm, np.asarray(probs, dtype=np.float64))
    return lm


def model_of(counts):
    """model_of_masses of count rows, each normalized as fit does."""
    counts = np.asarray(counts, dtype=np.float64)
    return model_of_masses(counts / counts.sum(axis=1, keepdims=True))


def reference_cdf(masses, config):
    """The nucleus ids and CDF of sample_top_p_top_k, as a draw searches
    them."""
    nucleus, weights = reference_nucleus(masses, config)
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return nucleus, cdf


def assert_nuclei_match(lms, config):
    _select_nuclei(lms, config)
    longest = 0
    for lm in lms:
        ids, cdf, nxt, offsets = lm._nuclei[config.p, config.k]
        probs = compiled_rows(lm)
        assert len(offsets) == len(probs) + 1
        for row, masses in enumerate(probs):
            want_ids, want_cdf = reference_cdf(masses, config)
            lo, hi = offsets[row], offsets[row + 1]
            assert np.array_equal(ids[lo:hi], want_ids)
            assert np.array(cdf[lo:hi]).tobytes() == want_cdf.tobytes()
            assert nxt[lo:hi] == [0] * (hi - lo)
            longest = max(longest, hi - lo)
    return longest


# Target sequences over a small vocabulary holding the padding marker and
# EOS, empty sequences included.
target_lists = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", EOS_TOKEN, "<s>"]), max_size=8), min_size=1, max_size=6
)


# Count rows with ties and zeros; every row has some mass. A model is 1-6
# rows of one width; a chunk mixes widths.
count_rows = st.integers(1, 25).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(0, 4), min_size=width, max_size=width).filter(any), min_size=1, max_size=6
    )
)


class TestChunkedNuclei:
    @given(st.lists(count_rows, min_size=1, max_size=5), sampler_configs)
    def test_equal_nucleus_row_for_row(self, models, config):
        assert_nuclei_match([model_of(rows) for rows in models], config)

    def test_long_nuclei_where_pairwise_summation_starts(self):
        rng = np.random.default_rng(0)
        models = [model_of(rng.integers(1, 5, size=(6, width))) for width in (9, 17, 25, 30, 3)]
        for p in (0.95, 1.0, 0.8):
            assert assert_nuclei_match(models, SamplerConfig(p=p, k=30)) >= 8

    def test_model_vocabulary_bounds_the_nucleus(self):
        # The narrow row sums to just under 1, within the validation
        # tolerance, so its mass never reaches p and k would keep more
        # tokens than the model has.
        narrow, wide = model_of_masses([[0.5, 0.5 - 1e-7]]), model_of([[1] * 12])
        config = SamplerConfig(p=1.0, k=30)
        assert_nuclei_match([narrow, wide], config)
        ids, _, _, offsets = narrow._nuclei[1.0, 30]
        assert ids[offsets[0] : offsets[1]] == [0, 1]

    def test_row_below_p_keeps_only_its_listed_tokens(self):
        # Two listed tokens whose mass stays under p: the nucleus ends at
        # the row's last listed token, and draws through it are those of
        # the public sampler on the same dense masses, whose zero-mass
        # tail is never drawn.
        dense = [0.0, 0.5, 0.0, 0.5 - 1e-7, 0.0]
        short = model_of_masses([dense])
        for k in (2, 3, 4, 30):
            config = SamplerConfig(p=1.0, k=k)
            _select_nuclei([short, model_of([[1, 2, 0]])], config)
            ids, cdf, _, offsets = short._nuclei[1.0, k]
            lo, hi = offsets[0], offsets[1]
            assert ids[lo:hi] == [1, 3]
            compiled, public = np.random.default_rng(k), np.random.default_rng(k)
            draws = [ids[bisect_right(cdf, compiled.random(), lo, hi)] for _ in range(10_000)]
            assert draws == [sample_top_p_top_k(np.array(dense), config, public) for _ in range(10_000)]
            assert len(set(draws)) == 2

    @given(target_lists, st.integers(1, 4), sampler_configs)
    def test_a_nucleus_holds_only_listed_tokens(self, sequences, order, config):
        lm = NgramLM(order=order).fit(sequences)
        _select_nuclei([lm], config)
        ids, cdf, _, offsets = lm._nuclei[config.p, config.k]
        for row in range(len(lm._indptr) - 1):
            lo, hi = offsets[row], offsets[row + 1]
            listed = lm._tokens[lm._indptr[row] : lm._indptr[row + 1]].tolist()
            assert hi > lo and set(ids[lo:hi]) <= set(listed)
            assert all(a <= b for a, b in zip(cdf[lo : hi - 1], cdf[lo + 1 : hi]))
            assert cdf[hi - 1] == 1.0

    def test_columns_bounded_by_the_widest_vocabulary_not_k(self):
        models = [model_of([[1, 2, 3], [0, 1, 0]]), model_of([[4, 4]])]
        assert_nuclei_match(models, SamplerConfig(p=1.0, k=10**12))

    @pytest.mark.parametrize("bad, message", [
        ([[0.5, 0.5], [-0.5, 1.5]], "negative probability mass"),
        ([[0.5, 0.5], [0.3, 0.3]], "masses sum to 0.6"),
        ([[float("nan"), 0.5]], "masses sum to nan"),
    ])
    def test_invalid_rows_raise_as_nucleus(self, bad, message):
        with pytest.raises(ValueError, match=message):
            _select_nuclei([model_of([[1, 2]]), model_of_masses(bad)], SamplerConfig())
        with pytest.raises(ValueError, match=message):
            sample_top_p_top_k(np.array(bad[-1]), SamplerConfig(), np.random.default_rng(0))


def assert_equals_dense_oracle(lm, sequences, config):
    """The model's rows, start row, nuclei and their next rows are those of
    the dense oracle fit on the same sequences."""
    dense = DenseNgramLM(lm.order).fit(sequences)
    assert lm.vocab == dense.vocab and lm._start == dense.start
    assert compiled_rows(lm).tobytes() == dense.probs.tobytes()
    ids, cdf, nxt, offsets = lm._nuclei[config.p, config.k]
    lo, hi = offsets[0], offsets[-1]
    want_ids, want_cdf, want_offsets = dense_nuclei([dense.probs], config)
    assert ids[lo:hi] == want_ids
    assert np.array(cdf[lo:hi]).tobytes() == np.array(want_cdf).tobytes()
    assert [o - lo for o in offsets] == want_offsets
    rows = np.repeat(np.arange(len(dense.probs)), np.diff(want_offsets))
    assert nxt[lo:hi] == dense.transitions[rows, want_ids].tolist()
    return dense


class TestCompiledStates:
    @given(
        st.lists(target_lists | st.just([]), min_size=1, max_size=4),
        st.integers(1, 4),
        sampler_configs,
        st.integers(0, 4),
    )
    @example([[["<s>", "a"], []], [[EOS_TOKEN, EOS_TOKEN, "a"]], [["<s>"]]], 3, SamplerConfig(p=1.0, k=30), 1)
    @example([[["a", "b"]], [], [["<s>", "c"]]], 2, SamplerConfig(p=1.0, k=30), 3)
    def test_chunk_compile_equals_dense_oracle(self, corpora, order, config, split):
        """Models compiled in one chunk, and nuclei selected over models of
        two chunks, equal the dense oracle model for model; so does each
        model fit on its own. A model fit on no sequence has no rows."""
        chunks = [corpora[:split], corpora[split:]]
        lms = []
        for chunk in chunks:
            if chunk:
                models = [NgramLM(order=order) for _ in chunk]
                syngen._compile(models, chunk)
                lms += models
        _select_nuclei(lms, config)
        alone = [NgramLM(order=order).fit(sequences) for sequences in corpora]
        for lm, one, sequences in zip(lms, alone, corpora):
            _select_nuclei([one], config)
            assert_equals_dense_oracle(lm, sequences, config)
            assert_equals_dense_oracle(one, sequences, config)

    @given(target_lists, st.integers(1, 4), st.lists(st.integers(0, 10), max_size=12))
    def test_stepping_lands_on_the_row_next_reads(self, sequences, order, walk):
        lm = NgramLM(order=order).fit(sequences)
        dense = DenseNgramLM(order).fit(sequences)
        reference = DictCountsNgramLM(order).fit(sequences)
        tokens = []
        for pick in [None, *walk]:
            if pick is not None:
                tokens.append(["<s>", "zz", *lm.vocab][pick % (len(lm.vocab) + 2)])
            got = lm.next(tokens).tobytes()
            assert got == dense.probs[dense.row(tokens)].tobytes() == reference.next(tokens).tobytes(), tokens

    def test_bare_ngram_draws_the_reference_token_stream(self, monkeypatch):
        passage = make_passage("Masks help a lot. Vaccines work well. Distancing slows spread quickly.")
        lm = NgramLM(order=3).fit(candidate_targets(passage, np.random.default_rng(1)))
        config = SamplerConfig(p=0.8, k=4, seed=5)
        serialized, made = [], []
        decode, default_rng = syngen.decode_generation_target, np.random.default_rng
        monkeypatch.setattr(syngen, "decode_generation_target", lambda p, s, *a: serialized.append(s) or decode(p, s, *a))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
        generate_examples(passage, lm, n=40, config=config)
        monkeypatch.undo()
        rng = np.random.default_rng(config.seed)
        expected = []
        for _ in range(40):
            tokens = []
            for _ in range(MAX_GEN_TOKENS):
                tok = lm.vocab[sample_top_p_top_k(lm.next(tokens), config, rng)]
                if tok == EOS_TOKEN:
                    break
                tokens.append(tok)
            expected.append(" ".join(tokens))
        assert serialized == expected
        # The uniforms come in one block of MAX_GEN_TOKENS per sequence.
        block = np.random.default_rng(config.seed)
        block.random(40 * MAX_GEN_TOKENS)
        assert len(made) == 1 and made[0].bit_generator.state == block.bit_generator.state


class TestGenerate:
    def test_greedy_deterministic_lm_dedups_to_one(self):
        passage = make_passage("Masks help a lot.")
        lm = NgramLM(order=3).fit([["masks", "lot", SEP_TOKEN, "help", SEP_TOKEN, "what", "helps"]])
        result = generate_examples(passage, lm, n=5, config=SamplerConfig(k=1, seed=0))
        assert len(result.examples) == 1
        assert result.discards.get("duplicate") == 4
        assert result.examples[0].answer == "help"

    def test_absent_answer_dropped_and_tallied(self):
        passage = make_passage("Masks help a lot.")
        lm = NgramLM(order=3).fit([["masks", "lot", SEP_TOKEN, "vaccines", SEP_TOKEN, "what"]])
        result = generate_examples(passage, lm, n=3, config=SamplerConfig(k=1, seed=0))
        assert result.examples == []
        assert result.discards["answer-not-found"] == 3

    def test_model_without_fitted_rows_raises(self):
        passage = make_passage("Masks help a lot.")
        for lm in (NgramLM(order=3), NgramLM(order=3).fit([])):
            with pytest.raises(ValueError, match="no fitted rows"):
                generate_examples(passage, lm, n=3, config=SamplerConfig())

    def test_fixed_seed_identical_output(self):
        passage = make_passage(
            "Masks help a lot. Vaccines work well. Distancing slows spread."
        )
        rng = np.random.default_rng(0)
        lm = NgramLM(order=3).fit(candidate_targets(passage, rng))
        config = SamplerConfig(seed=7)
        a = generate_examples(passage, lm, n=5, config=config)
        b = generate_examples(passage, lm, n=5, config=config)
        assert a.examples == b.examples
        assert a.discards == b.discards

    def test_every_example_satisfies_answer_invariant(self):
        passage = make_passage(
            "Masks help a lot. Vaccines work well. Distancing slows spread quickly."
        )
        rng = np.random.default_rng(1)
        lm = NgramLM(order=3).fit(candidate_targets(passage, rng))
        result = generate_examples(passage, lm, n=20, config=SamplerConfig(seed=3))
        for ex in result.examples:
            s, e = ex.answer_span
            assert passage.text[s:e] == ex.answer


class TestSegmentOnce:
    PASSAGE = "Masks help a lot. Vaccines work well. Distancing slows spread quickly."

    def test_one_segmentation_per_generate_examples_call(self, monkeypatch):
        passage = make_passage(self.PASSAGE)
        lm = NgramLM(order=3).fit(candidate_targets(passage, np.random.default_rng(1)))
        calls = []
        segment = syngen.segment_sentences
        monkeypatch.setattr(syngen, "segment_sentences", lambda text: calls.append(text) or segment(text))
        result = generate_examples(passage, lm, n=30, config=SamplerConfig(seed=3))
        assert calls == [passage.text]
        assert len(result.examples) + sum(result.discards.values()) == 30

    def test_generate_corpus_segments_each_passage_once(self, monkeypatch):
        # For its candidate targets and its decoding alike; "Hi." has no
        # targets and is segmented all the same.
        passages = [make_passage(text, f"p{i}") for i, text in enumerate([self.PASSAGE, "Hi.", self.PASSAGE])]
        calls = []
        segment = syngen.segment_sentences
        monkeypatch.setattr(syngen, "segment_sentences", lambda text: calls.append(text) or segment(text))
        result = generate_corpus(passages, 6, SamplerConfig(seed=3))
        assert calls == [p.text for p in passages]
        assert len(result.examples) + sum(result.discards.values()) == 12

    @pytest.mark.parametrize("serialized", [
        "masks lot [SEP] help [SEP] what helps",
        "vaccines well [SEP] work [SEP] what",
        "vaccines well [SEP] masks [SEP] what",
        "covid spreads [SEP] masks [SEP] what",
    ])
    def test_given_sentences_decode_as_segmenting(self, serialized):
        # A model fit on one sequence samples it: generate_examples decodes
        # it against the sentences given, or against its own segmentation.
        passage = make_passage(self.PASSAGE)
        lm = NgramLM(order=3).fit([[*serialized.split(), EOS_TOKEN]])
        given = generate_examples(passage, lm, 1, SamplerConfig(), sentences=_sentence_terms(passage.text))
        assert given == generate_examples(passage, lm, 1, SamplerConfig())


class TestGenerateCorpus:
    TEXTS = (
        "Masks help a lot. Vaccines work well. Distancing slows spread.",
        "Hi.",
        "Rivers carry silt to the delta. Farmers plant rice on the silt.",
    )

    def test_each_passage_draws_from_its_own_seed(self):
        # More passages than one nucleus chunk, so a chunk boundary is crossed.
        count = _NUCLEUS_CHUNK + len(self.TEXTS) + 1
        passages = [make_passage(self.TEXTS[i % len(self.TEXTS)], f"p{i}") for i in range(count)]
        result = generate_corpus(passages, 4, SamplerConfig(p=0.9, k=5, seed=11))
        expected, discards = [], Counter()
        for i, passage in enumerate(passages):
            rng = np.random.default_rng(11 ^ (i + 1))
            targets = candidate_targets(passage, rng)
            if not targets:
                continue
            lm = NgramLM(order=3).fit(targets)
            one = generate_examples(passage, lm, n=4, config=SamplerConfig(p=0.9, k=5, seed=int(rng.integers(0, 2**31))))
            expected.extend(one.examples)
            discards.update(one.discards)
        assert result.examples == expected
        assert result.discards == dict(discards)
        with_targets = sum(1 for p in passages if p.text != "Hi.")  # "Hi." has no targets
        assert len(result.examples) + sum(result.discards.values()) == 4 * with_targets

    def test_the_sampler_seed_decides_the_examples(self):
        passages = [make_passage(self.TEXTS[0])]
        a = generate_corpus(passages, 5, SamplerConfig(seed=2))
        assert generate_corpus(passages, 5, SamplerConfig(seed=2)).examples == a.examples
        assert generate_corpus(passages, 5, SamplerConfig(seed=99)).examples != a.examples

    @pytest.mark.parametrize("n, texts", [(0, ["Hi."]), (0, []), (-3, []), (0, TEXTS)])
    def test_rejects_n_below_one_before_any_passage(self, n, texts):
        passages = [make_passage(text, f"p{i}") for i, text in enumerate(texts)]
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate_corpus(passages, n, SamplerConfig(seed=0))


class TestExampleRecord:
    def test_roundtrip(self):
        ex = QAExample(passage_id="p1", question="what helps", answer="masks", answer_span=(0, 5))
        record = example_to_record(ex)
        assert record == {"passage_id": "p1", "question": "what helps", "answer": "masks", "span_start": 0, "span_end": 5}
        assert example_from_record(record) == ex

    def test_extra_fields(self):
        ex = QAExample(passage_id="p1", question="q", answer="a", answer_span=(0, 1))
        record = example_to_record(ex, answerability=2.5)
        assert record["answerability"] == 2.5
        assert example_from_record(record) == ex


class TestRoundtripFilter:
    def make_examples(self):
        passages = {
            "good": "Masks block droplets effectively indoors.",
            "bad": "Totally unrelated content about astronomy.",
        }
        examples = [
            QAExample("good", "do masks block droplets", "droplets", (12, 20)),
            QAExample("bad", "do masks block droplets", "content", (18, 25)),
        ]
        return examples, passages

    def test_threshold_extremes(self):
        examples, passages = self.make_examples()
        scorer = LexicalScorer()
        everything = roundtrip_filter(examples, scorer, FilterConfig(float("-inf")), passages)
        nothing = roundtrip_filter(examples, scorer, FilterConfig(float("inf")), passages)
        assert everything.kept == examples
        assert nothing.kept == []

    def test_hand_filtered_set_at_half(self):
        examples, passages = self.make_examples()
        result = roundtrip_filter(examples, LexicalScorer(), FilterConfig(0.5), passages)
        assert result.kept == [examples[0]]
        assert result.scores[0] > 0.5
        assert result.scores[1] == 0.0

    def test_monotone_in_threshold(self):
        examples, passages = self.make_examples()
        scorer = LexicalScorer()
        kept_sets = []
        for t in (float("-inf"), 0.0, 0.5, 7.0, float("inf")):
            kept = roundtrip_filter(examples, scorer, FilterConfig(t), passages).kept
            kept_sets.append({(ex.passage_id, ex.question) for ex in kept})
        for tighter, looser in zip(kept_sets[1:], kept_sets):
            assert tighter <= looser

    def test_default_threshold(self):
        assert FilterConfig().threshold == 7.0

    def test_nan_threshold_refused(self):
        with pytest.raises(ValueError, match="^threshold must be a number, not NaN$"):
            FilterConfig(float("nan"))

    def test_missing_logits_dropped_not_fatal(self):
        examples, passages = self.make_examples()

        class Sometimes:
            def logits(self, question, pid, text):
                return None if pid == "bad" else LexicalScorer().logits(question, pid, text)

        result = roundtrip_filter(examples, Sometimes(), FilterConfig(0.0), passages)
        assert result.missing == 1
        assert result.scores[1] is None
        assert [ex.passage_id for ex in result.kept] == ["good"]

    def test_unknown_passage_names_example(self):
        examples, passages = self.make_examples()
        examples.insert(1, QAExample("nope", "why", "x", (0, 1)))
        with pytest.raises(KeyError, match=r"example passage 'nope' not in passage map \(example 1\)"):
            roundtrip_filter(examples, LexicalScorer(), FilterConfig(0.0), passages)

    def test_logits_longer_than_the_passage_refused_as_the_reader_refuses(self):
        from hyqa.pipeline import PipelineConfig, Retriever, answer_question

        class FourTokens:
            def logits(self, question, pid, text):
                return SpanLogits((0.0, 1.0, 2.0, 9.0, 0.0), (0.0, 1.0, 2.0, 9.0, 0.0))

        texts = {"p": "two words"}
        message = "^logits for passage 'p' cover 4 tokens, more than the passage has$"
        with pytest.raises(ValueError, match=message):
            roundtrip_filter([QAExample("p", "which words", "words", (4, 9))], FourTokens(), FilterConfig(0.0), texts)
        retriever = Retriever(["p"], lambda q, k: (np.arange(1), np.ones(1)), "sparse")
        with pytest.raises(ValueError, match=message):
            answer_question("which words", retriever, FourTokens(), texts, PipelineConfig())


FILTER_WORDS = ["masks", "block", "droplets", "indoors", "astronomy", "Masks,", "(block)", "stars"]


class TableScorer:
    """A scorer with .logits only. Each (question, passage) pair has fixed
    logits drawn from its own seed, with nonzero CLS logits; a pair whose
    passage id is in `unscored` returns None."""

    def __init__(self, unscored):
        self.unscored = unscored

    def logits(self, question, passage_id, passage_text):
        if passage_id in self.unscored:
            return None
        n = len(passage_text.split())
        rng = np.random.default_rng([len(question), int(passage_id[1:]), n])
        start, end = rng.integers(-4, 5, size=(2, n + 1)) * 0.5
        return SpanLogits(start, end)


def filter_inputs(seed, n_examples, n_passages, n_questions):
    """Examples over a pool of passages (some without tokens) and a pool of
    questions, so questions and passages repeat."""
    rng = np.random.default_rng(seed)
    texts = {
        f"p{i}": " ".join(rng.choice(FILTER_WORDS, size=rng.choice([0, 1, 5, 40]))) for i in range(n_passages)
    }
    questions = [" ".join(rng.choice(FILTER_WORDS, size=rng.integers(0, 4))) for _ in range(n_questions)]
    examples = [
        QAExample(f"p{rng.integers(n_passages)}", questions[rng.integers(n_questions)], "x", (0, 1))
        for _ in range(n_examples)
    ]
    return examples, texts


class TestBlockedRoundtripFilter:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 3 * _FILTER_BLOCK),
        st.integers(1, 12),
        st.integers(1, 6),
        st.sampled_from(["lexical", "table"]),
        st.sampled_from([float("-inf"), 0.0, 1.0, 2.5]),
    )
    @example(1, _FILTER_BLOCK + 1, 12, 6, "table", 1.0)
    @example(2, 2 * _FILTER_BLOCK, 3, 2, "lexical", 1.0)
    def test_equals_per_example_answerability(self, seed, n_examples, n_passages, n_questions, kind, threshold):
        examples, texts = filter_inputs(seed, n_examples, n_passages, n_questions)
        scorer = LexicalScorer() if kind == "lexical" else TableScorer({f"p{i}" for i in range(0, n_passages, 3)})
        config = ScorerConfig(max_answer_len=MAX_ANSWER_LEN)
        result = roundtrip_filter(examples, scorer, FilterConfig(threshold), texts)
        expected = []
        for ex in examples:
            logits = scorer.logits(ex.question, ex.passage_id, texts[ex.passage_id])
            expected.append(None if logits is None else answerability(logits, config))
        assert [None if v is None else v.hex() for v in result.scores] == [
            None if v is None else v.hex() for v in expected
        ]
        assert result.kept == [ex for ex, v in zip(examples, expected) if v is not None and v >= threshold]
        assert result.missing == expected.count(None)

    def test_terms_once_per_distinct_question_and_once_per_example(self, monkeypatch):
        import hyqa.mrc

        examples, texts = filter_inputs(3, 2 * _FILTER_BLOCK + 5, 8, 5)
        calls, real = [], hyqa.mrc.terms
        monkeypatch.setattr(hyqa.mrc, "terms", lambda text: calls.append(text) or real(text))
        roundtrip_filter(examples, LexicalScorer(), FilterConfig(0.0), texts)
        blocks = [examples[lo : lo + _FILTER_BLOCK] for lo in range(0, len(examples), _FILTER_BLOCK)]
        # The scorer tokenizes each distinct passage text once over all
        # blocks, and each block the terms of its distinct questions.
        assert len(calls) == len({texts[ex.passage_id] for ex in examples}) + sum(
            len({ex.question for ex in block}) for block in blocks
        )
        # The first block interns its passages' texts, then maps its questions.
        first_texts = list(dict.fromkeys(texts[ex.passage_id] for ex in blocks[0]))
        first_questions = list(dict.fromkeys(ex.question for ex in blocks[0]))
        assert calls[: len(first_texts) + len(first_questions)] == first_texts + first_questions

    def test_lexical_scorer_needs_no_token_offsets(self, monkeypatch):
        import hyqa.mrc

        examples, texts = filter_inputs(3, 2 * _FILTER_BLOCK + 5, 8, 5)
        calls, real = [], hyqa.mrc.token_bounds
        for module in (hyqa.mrc, syngen):
            monkeypatch.setattr(module, "token_bounds", lambda text: calls.append(text) or real(text))
        roundtrip_filter(examples, LexicalScorer(), FilterConfig(0.0), texts)
        assert calls == []

    def test_no_span_band_wider_than_a_block(self, monkeypatch):
        from hyqa.pipeline import PipelineConfig, evaluate_run, make_sparse_retriever

        examples, texts = filter_inputs(4, 2 * _FILTER_BLOCK + 5, 8, 5)
        rows_per_call, real = [], syngen.best_span_each
        monkeypatch.setattr(syngen, "best_span_each", lambda rows, L: rows_per_call.append(len(rows.n)) or real(rows, L))
        result = roundtrip_filter(examples, LexicalScorer(), FilterConfig(0.0), texts)
        assert len(result.scores) == len(examples)
        assert len(rows_per_call) == 3
        assert max(rows_per_call) <= _FILTER_BLOCK
        golds = [GoldSet(f"q{i}", " ".join(FILTER_WORDS[i : i + 3]), ("x",)) for i in range(5)]
        index = build_sparse_index([Passage(pid, pid, text, len(tokenize(text))) for pid, text in texts.items()])
        report = evaluate_run(golds, make_sparse_retriever(index), LexicalScorer(), texts, PipelineConfig())
        assert len(report.per_query) == len(golds)


def mining_fixture():
    texts = {
        "a": "Fever is a common covid symptom reported widely.",
        "b": "Covid symptom lists often include fatigue and cough.",
        "c": "Gardening tips for growing tomatoes at home.",
    }
    passages = [make_passage(t, pid) for pid, t in texts.items()]
    return build_sparse_index(passages), texts


def mine_one(question, answer):
    """The hard negative build_ir_training_set mines for one example whose
    own passage, c, shares no word with the question; None when it drops
    the example."""
    index, texts = mining_fixture()
    passages = {pid: make_passage(t, pid) for pid, t in texts.items()}
    result = build_ir_training_set([QAExample("c", question, answer, (0, 1))], index, passages, depth=100)
    assert len(result.instances) + result.dropped == 1
    return result.instances[0].hard_negatives[0].id if result.instances else None


class TestMineNegative:
    def test_skips_answer_bearing_rank_one(self):
        # "fever" only in a; query hits a first but a contains the answer.
        assert mine_one("fever covid symptom", "fever") == "b"

    def test_no_candidate_contains_answer(self):
        assert mine_one("covid symptom", "vaccination") in ("a", "b")  # rank-1 admissible

    def test_all_contain_answer_returns_none(self):
        assert mine_one("covid symptom", "covid symptom") is None


class TestBuildTrainingSet:
    def test_all_negatives_found(self):
        index, texts = mining_fixture()
        passages = {pid: make_passage(t, pid) for pid, t in texts.items()}
        examples = [
            QAExample("a", "what is a common covid symptom", "Fever", (0, 5)),
            QAExample("b", "what do covid symptom lists include", "fatigue", (33, 40)),
        ]
        result = build_ir_training_set(examples, index, passages, depth=100)
        assert len(result.instances) == 2
        assert result.dropped == 0
        for inst in result.instances:
            assert inst.positive.id not in {n.id for n in inst.hard_negatives}

    def test_unminable_example_dropped(self):
        texts = {"a": "Covid covid covid.", "b": "Covid again covid."}
        passages = {pid: make_passage(t, pid) for pid, t in texts.items()}
        index = build_sparse_index(list(passages.values()))
        examples = [QAExample("a", "covid", "Covid", (0, 5))]
        result = build_ir_training_set(examples, index, passages, depth=100)
        assert result.instances == []
        assert result.dropped == 1

    def test_unknown_passage_errors(self):
        index, texts = mining_fixture()
        passages = {pid: make_passage(t, pid) for pid, t in texts.items()}
        with pytest.raises(KeyError):
            build_ir_training_set([QAExample("zz", "q", "a", (0, 1))], index, passages, depth=100)

    @pytest.mark.parametrize("depth", [0, -3])
    def test_depth_below_one_is_refused_first(self, depth):
        index, texts = mining_fixture()
        passages = {pid: make_passage(t, pid) for pid, t in texts.items()}
        # Refused before the unknown passage is looked up.
        with pytest.raises(ValueError, match="^depth must be >= 1$"):
            build_ir_training_set([QAExample("zz", "q", "a", (0, 1))], index, passages, depth=depth)


def mining_inputs(seed, n_examples, n_passages=30):
    """Examples over random passages of FILTER_WORDS; questions repeat words,
    and some hold no indexed word at all."""
    rng = np.random.default_rng(seed)
    passages = {
        f"p{i}": make_passage(" ".join(rng.choice(FILTER_WORDS, size=rng.integers(1, 12))), f"p{i}")
        for i in range(n_passages)
    }
    examples = [
        QAExample(
            f"p{rng.integers(n_passages)}",
            " ".join(rng.choice(FILTER_WORDS + ["zzz"], size=rng.integers(0, 5))),
            str(rng.choice(FILTER_WORDS)),
            (0, 1),
        )
        for _ in range(n_examples)
    ]
    return examples, passages


class TestBlockedMining:
    @pytest.mark.parametrize("seed, depth", [(0, 100), (1, 3), (2, 1)])
    def test_equals_per_example_mine_negative(self, seed, depth):
        """Mining the examples in blocks of _MINE_BLOCK mines each example's
        negative as a call on that example alone does."""
        examples, passages = mining_inputs(seed, 2 * _MINE_BLOCK + 3)
        index = build_sparse_index(list(passages.values()))
        result = build_ir_training_set(examples, index, passages, depth=depth)
        expected, dropped = [], 0
        for ex in examples:
            alone = build_ir_training_set([ex], index, passages, depth=depth)
            dropped += alone.dropped
            expected += [(inst.question, inst.positive.id, inst.hard_negatives[0].id) for inst in alone.instances]
        mined = [(inst.question, inst.positive.id, inst.hard_negatives[0].id) for inst in result.instances]
        assert mined == expected
        assert result.dropped == dropped > 0

    @pytest.mark.parametrize("seed, depth", [(4, 100), (5, 2)])
    def test_equals_answer_test_reference_normalizing_each_passage_once(self, seed, depth, monkeypatch, usable_cpus):
        """Each negative is the first ranked passage, the example's own
        excluded, that evalkit.answer_test finds without the answer; each
        passage text is normalized at most once per shard, and on one
        usable CPU the call is one shard."""
        usable_cpus(1)  # the blocks all run in this process, which counts the calls
        examples, passages = mining_inputs(seed, 2 * _MINE_BLOCK + 3)
        examples.append(QAExample("p0", "alpha beta", "the", (0, 1)))  # normalizes to empty: matches nothing
        index = build_sparse_index(list(passages.values()))
        expected, dropped = [], 0
        for ex in examples:
            contains = answer_test([ex.answer])
            ranked = [index.doc_ids[i] for i in sparse_top_k_each(index, [ex.question], depth)[0][0].tolist()]
            neg = next((pid for pid in ranked if pid != ex.passage_id and not contains(passages[pid].text)), None)
            if neg is None:
                dropped += 1
            else:
                expected.append((ex.question, ex.passage_id, neg))
        normalized, haystack = [], syngen._haystack
        monkeypatch.setattr(syngen, "_haystack", lambda text: normalized.append(text) or haystack(text))
        result = build_ir_training_set(examples, index, passages, depth=depth)
        assert [(inst.question, inst.positive.id, inst.hard_negatives[0].id) for inst in result.instances] == expected
        assert result.dropped == dropped > 0
        assert len(normalized) <= len(passages) < len(examples)

    def test_ranks_blocks_after_checking_every_passage(self, monkeypatch, usable_cpus):
        usable_cpus(1)  # the blocks all run in this process, which counts the calls
        examples, passages = mining_inputs(3, 2 * _MINE_BLOCK + 3)
        index = build_sparse_index(list(passages.values()))
        blocks, real = [], syngen.sparse_top_k_each
        monkeypatch.setattr(
            syngen, "sparse_top_k_each", lambda index, texts, k: blocks.append(len(texts)) or real(index, texts, k)
        )
        build_ir_training_set(examples, index, passages, depth=100)
        assert blocks == [_MINE_BLOCK, _MINE_BLOCK, 3]
        blocks.clear()
        with pytest.raises(KeyError, match="example passage 'zz' not in passage map"):
            build_ir_training_set(examples + [QAExample("zz", "q", "a", (0, 1))], index, passages, depth=100)
        assert blocks == []


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShardsAreInvisible:
    """Each sharded stage, generate and mine, equals its one-shard run
    field for field, on one, two and three usable CPUs."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_generate_corpus(self, small_blocks, usable_cpus, count_forks, cpus):
        texts = TestGenerateCorpus.TEXTS
        passages = [make_passage(texts[i % len(texts)], f"p{i}") for i in range(11)]
        usable_cpus(1)
        serial = generate_corpus(passages, 6, SamplerConfig(p=0.9, k=5, seed=3))
        usable_cpus(cpus)
        forks = count_forks()
        sharded = generate_corpus(passages, 6, SamplerConfig(p=0.9, k=5, seed=3))
        assert len(forks) == cpus - 1
        assert sharded.examples == serial.examples
        assert list(sharded.discards.items()) == list(serial.discards.items())
        assert len(serial.examples) > 5 and len(serial.discards) > 2

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_build_ir_training_set(self, small_blocks, usable_cpus, count_forks, cpus):
        examples, passages = mining_inputs(6, 20)
        index = build_sparse_index(list(passages.values()))
        usable_cpus(1)
        serial = build_ir_training_set(examples, index, passages, depth=5)
        usable_cpus(cpus)
        forks = count_forks()
        sharded = build_ir_training_set(examples, index, passages, depth=5)
        assert len(forks) == cpus - 1
        assert sharded == serial
        assert sharded.dropped > 0
        # Each instance holds the caller's own passages.
        for inst in sharded.instances:
            assert inst.positive is passages[inst.positive.id]
            assert inst.hard_negatives[0] is passages[inst.hard_negatives[0].id]

    def test_no_fork_while_another_thread_runs(self, small_blocks, usable_cpus, count_forks):
        # A lock the other thread held at a fork would never be released in
        # the child, so the stage runs in this process.
        examples, passages = mining_inputs(6, 20)
        index = build_sparse_index(list(passages.values()))
        usable_cpus(1)
        serial = build_ir_training_set(examples, index, passages, depth=5)
        usable_cpus(3)
        forks = count_forks()
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            threaded = build_ir_training_set(examples, index, passages, depth=5)
        finally:
            release.set()
            other.join()
        assert forks == []
        assert threaded == serial
        assert build_ir_training_set(examples, index, passages, depth=5) == serial
        assert len(forks) == 2  # the thread is gone, so the stage is split again


class TestFailingShards:
    """An exception in any shard reaches the caller as the one-shard run
    raises it, and no child process is left behind."""

    @pytest.mark.parametrize("refused", [[9], [9, 11], [1, 9], [10, 5]])
    def test_first_failing_passage_is_raised(self, small_blocks, usable_cpus, monkeypatch, refused):
        # Three shards of 12 passages in blocks of 2: passages 0-3, 4-7 and
        # 8-11. Shard 0 runs in this process, the others in children.
        passages = [make_passage(TestGenerateCorpus.TEXTS[0], f"p{i}") for i in range(12)]
        generate = syngen.generate_examples

        def refuse(passage, *args, **kwargs):
            if int(passage.id[1:]) in refused:
                raise ValueError(f"no examples for {passage.id!r}")
            return generate(passage, *args, **kwargs)

        monkeypatch.setattr(syngen, "generate_examples", refuse)
        raised = []
        for cpus in (1, 3):
            usable_cpus(cpus)
            with pytest.raises(ValueError) as caught:
                generate_corpus(passages, 2, SamplerConfig(seed=0))
            raised.append((type(caught.value), str(caught.value)))
            assert_no_child_left()
        assert raised[0] == raised[1] == (ValueError, f"no examples for 'p{min(refused)}'")

    def test_a_child_that_dies_is_a_runtime_error(self, small_blocks, usable_cpus, monkeypatch):
        examples, passages = mining_inputs(6, 20)
        index = build_sparse_index(list(passages.values()))
        parent, rank = os.getpid(), syngen.sparse_top_k_each
        monkeypatch.setattr(
            syngen, "sparse_top_k_each", lambda *a: os._exit(3) if os.getpid() != parent else rank(*a)
        )
        usable_cpus(2)
        with pytest.raises(RuntimeError, match=r"^shard process \d+ ended without a readable result$"):
            build_ir_training_set(examples, index, passages, depth=5)
        assert_no_child_left()

    def test_an_exception_that_cannot_be_pickled_is_a_runtime_error(self, small_blocks, usable_cpus, monkeypatch):
        class Local(Exception):  # a class pickle cannot find by name
            pass

        passages = [make_passage(TestGenerateCorpus.TEXTS[0], f"p{i}") for i in range(6)]
        parent, candidates = os.getpid(), syngen.candidate_targets

        def targets(passage, rng, **kw):
            if os.getpid() != parent:
                raise Local("unpicklable")
            return candidates(passage, rng, **kw)

        monkeypatch.setattr(syngen, "candidate_targets", targets)
        usable_cpus(3)
        with pytest.raises(RuntimeError, match="ended without a readable result"):
            generate_corpus(passages, 2, SamplerConfig(seed=0))
        assert_no_child_left()


class TestNgramLM:
    def test_never_fitted_next_is_a_value_error(self):
        with pytest.raises(ValueError, match="not fitted"):
            NgramLM(order=3).next([])
        assert NgramLM(order=3).fit([]).next([]).tolist() == [1.0]

    def test_masses_sum_to_one(self):
        lm = NgramLM(order=2).fit([["a", "b", "c"], ["a", "c"]])
        for ctx in ([], ["a"], ["b"], ["zzz"]):
            assert lm.next(ctx).sum() == pytest.approx(1.0, abs=1e-9)

    def test_learns_transitions(self):
        lm = NgramLM(order=2).fit([["a", "b"], ["a", "b"], ["a", "c"]])
        dist = lm.next(["a"])
        assert dist[lm.vocab.index("b")] == pytest.approx(2 / 3)
        assert dist[lm.vocab.index("c")] == pytest.approx(1 / 3)

    @given(
        st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", EOS_TOKEN, "<s>"]), max_size=8), max_size=6),
        st.integers(1, 4),
    )
    def test_equals_dict_of_counts_reference(self, sequences, order):
        lm = NgramLM(order=order).fit(sequences)
        reference = DictCountsNgramLM(order).fit(sequences)
        assert lm.vocab == reference.vocab
        fitted = [list(ctx) for ctx in reference.counts]
        prefixes = [list(seq[:i]) for seq in sequences for i in range(len(seq) + 1)]
        unseen = [[], ["zzz"], ["a", "zzz"], ["zzz", "a"], ["d", "c", "b", "a"]]
        for ctx in fitted + prefixes + unseen:
            got, want = lm.next(ctx), reference.next(ctx)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), ctx
            assert not got.flags.writeable


class DictCountsNgramLM:
    """NgramLM as one count vector per context, filled one token at a time:
    the reference for the array fit."""

    def __init__(self, order):
        self.order = order

    def fit(self, sequences):
        self.vocab = sorted({tok for seq in sequences for tok in seq} | {EOS_TOKEN})
        index = {t: i for i, t in enumerate(self.vocab)}
        self.counts = {}
        pad = ["<s>"] * (self.order - 1)
        for seq in sequences:
            toks = list(seq)
            if not toks or toks[-1] != EOS_TOKEN:
                toks.append(EOS_TOKEN)
            padded = pad + toks
            for i, tok in enumerate(toks):
                pos = i + len(pad)
                for ctx_len in range(self.order):
                    ctx = tuple(padded[pos - ctx_len : pos])
                    if ctx not in self.counts:
                        self.counts[ctx] = np.zeros(len(self.vocab))
                    self.counts[ctx][index[tok]] += 1.0
        return self

    def next(self, context):
        ctx = ["<s>"] * (self.order - 1) + list(context)
        for ctx_len in range(self.order - 1, -1, -1):
            counts = self.counts.get(tuple(ctx[len(ctx) - ctx_len :]) if ctx_len else ())
            if counts is not None and counts.sum() > 0:
                return counts / counts.sum()
        return np.full(len(self.vocab), 1.0 / len(self.vocab))
