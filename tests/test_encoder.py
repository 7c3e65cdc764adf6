import importlib.machinery
import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hyqa
import hyqa.encoder as encoder_module
from hyqa import container
from hyqa.container import ContainerError
from hyqa.corpus import Document, Passage, chunk_retrieval_passages, terms, tokenize
from hyqa.encoder import (
    DualEncoder,
    IRTrainInstance,
    TrainConfig,
    batch_loss,
    encode_passage,
    encode_query,
    loss_gradient,
    similarity,
    train,
)


def passage(pid, text):
    import dataclasses

    p = chunk_retrieval_passages(Document(id=pid, title="", body=text), 120)[0]
    return dataclasses.replace(p, id=pid)


VOCAB = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"]


def small_encoder(d=4, seed=0):
    return DualEncoder.create(VOCAB, d=d, seed=seed)


def random_batch(rng, encoder, size=2, negatives=1):
    def text(n):
        return " ".join(rng.choice(VOCAB, size=n))

    batch = []
    for i in range(size):
        batch.append(
            IRTrainInstance(
                question=text(3),
                positive=passage(f"pos{i}", text(4)),
                hard_negatives=tuple(passage(f"neg{i}_{j}", text(4)) for j in range(negatives)),
            )
        )
    return batch


class TestEncode:
    def test_all_oov_is_zeros(self):
        enc = small_encoder()
        out = encode_query(enc, "xyzzy qwerty")
        np.testing.assert_array_equal(out, np.zeros(enc.d))

    def test_identical_texts_identical_embeddings(self):
        enc = small_encoder()
        a = encode_passage(enc, "alpha beta gamma")
        b = encode_passage(enc, "alpha beta gamma")
        np.testing.assert_array_equal(a, b)

    def test_token_order_invariance(self):
        enc = small_encoder()
        a = encode_query(enc, "alpha beta gamma")
        b = encode_query(enc, "gamma alpha beta")
        np.testing.assert_allclose(a, b)

    def test_towers_differ(self):
        enc = small_encoder()
        assert not np.allclose(encode_query(enc, "alpha"), encode_passage(enc, "alpha"))

    def test_passage_matches_training_forward_row(self, monkeypatch):
        enc = small_encoder(d=8, seed=2)
        batch = random_batch(np.random.default_rng(4), enc, size=3, negatives=2)
        forwards = []

        def recording_project(encoder, means, side):
            out = original(encoder, means, side)
            forwards.append((side, (means, out)))
            return out

        original = encoder_module._project
        monkeypatch.setattr(encoder_module, "_project", recording_project)
        loss_gradient(enc, batch)
        monkeypatch.undo()
        (_, (_, q_out)), (_, (p_means, p_out)) = forwards
        candidates = [inst.positive for inst in batch] + [n for inst in batch for n in inst.hard_negatives]
        for row, p in enumerate(candidates):
            means = encoder_module._pool(enc, p.text, "p")
            out = encoder_module._project(enc, means, "p")
            # Pooling is the same computation; a multi-row GEMM may round
            # the projection's last bit differently from a one-row one.
            np.testing.assert_array_equal(means[0], p_means[row])
            np.testing.assert_array_equal(out[0], encode_passage(enc, p.text))
            np.testing.assert_allclose(encode_passage(enc, p.text), p_out[row], rtol=1e-12, atol=1e-15)
        for row, inst in enumerate(batch):
            np.testing.assert_allclose(encode_query(enc, inst.question), q_out[row], rtol=1e-12, atol=1e-15)


def mean_reference(encoder, text, side):
    """One text's tower output as table[ids].mean(axis=0), projected."""
    ids = [encoder.vocab[t] for t in terms(text) if t in encoder.vocab]
    mean = encoder.params[f"{side}_emb"][ids].mean(axis=0) if ids else np.zeros(encoder.d)
    return (mean[None] @ encoder.params[f"{side}_proj"].T)[0]


class TestOneTextPooling:
    # Texts long enough (8 or more tokens) that numpy's pairwise summation
    # of a single column at d = 1 differs from a row-by-row sum.
    @given(
        st.sampled_from([1, 2, 3, 64]),
        st.integers(0, 2**16),
        st.lists(st.sampled_from(VOCAB + ["OOV", "Alpha", "xyzzy"]), max_size=200).map(" ".join),
    )
    @example(1, 0, " ".join(VOCAB * 20))
    @example(64, 1, "")
    @example(3, 2, "xyzzy qwerty")
    def test_bit_equal_to_mean_reference(self, d, seed, text):
        enc = DualEncoder.create(VOCAB, d=d, seed=seed)
        for encode, side in ((encode_query, "q"), (encode_passage, "p")):
            out = encode(enc, text)
            assert out.shape == (d,) and out.dtype == np.float64
            assert out.tobytes() == mean_reference(enc, text, side).tobytes()
            if not any(t in enc.vocab for t in terms(text)):
                np.testing.assert_array_equal(out, np.zeros(d))


class TestSimilarity:
    def test_zero_vector(self):
        assert similarity(np.array([1.0, 2.0]), np.zeros(2)) == 0.0

    def test_direct_arithmetic(self):
        assert similarity(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0

    def test_linearity(self):
        q = np.array([0.3, -0.7, 1.1])
        p = np.array([2.0, 0.5, -0.2])
        assert similarity(2 * q, p) == pytest.approx(2 * similarity(q, p))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            similarity(np.zeros(2), np.zeros(3))


def nll_from_sims(pos_sim, neg_sims):
    z = math.exp(pos_sim) + sum(math.exp(s) for s in neg_sims)
    return -math.log(math.exp(pos_sim) / z)


class TestBatchLoss:
    def test_fixture_b1_two_negatives(self):
        # sims pos=2, negs=[1, 0]: loss = ln(1 + e^-1 + e^-2)
        expected = math.log(1 + math.exp(-1) + math.exp(-2))
        assert nll_from_sims(2.0, [1.0, 0.0]) == pytest.approx(expected, abs=1e-12)
        # Reproduce through the encoder: one-hot token means with an
        # identity-ish setup is fragile, so verify batch_loss against the
        # same closed form computed from its own similarities.
        enc = small_encoder(d=4, seed=3)
        batch = [
            IRTrainInstance(
                question="alpha beta",
                positive=passage("pos", "gamma delta"),
                hard_negatives=(passage("n1", "epsilon zeta"), passage("n2", "eta theta")),
            )
        ]
        q = encode_query(enc, "alpha beta")
        pos = similarity(q, encode_passage(enc, "gamma delta"))
        negs = [
            similarity(q, encode_passage(enc, "epsilon zeta")),
            similarity(q, encode_passage(enc, "eta theta")),
        ]
        assert batch_loss(enc, batch) == pytest.approx(nll_from_sims(pos, negs), abs=1e-9)

    def test_all_equal_sims_ln4(self):
        # 1 positive + 3 negatives, all similarities equal -> ln 4.
        enc = small_encoder(d=4, seed=1)
        batch = [
            IRTrainInstance(
                question="beta",
                positive=passage("pos", "alpha"),
                hard_negatives=(
                    passage("n1", "alpha"),
                    passage("n2", "alpha"),
                    passage("n3", "alpha"),
                ),
            )
        ]
        assert batch_loss(enc, batch) == pytest.approx(math.log(4), abs=1e-9)

    def test_dominant_positive_drives_loss_to_zero(self):
        assert nll_from_sims(50.0, [0.0]) < 1e-20

    def test_batch_of_two_uses_2b_logits(self):
        enc = small_encoder(d=4, seed=4)
        rng = np.random.default_rng(0)
        batch = random_batch(rng, enc, size=2, negatives=1)
        # Manual 2B-logit computation: own positive vs pooled candidates.
        pool = [batch[0].positive, batch[1].positive] + [
            n for inst in batch for n in inst.hard_negatives
        ]
        assert len(pool) == 4
        losses = []
        for inst in batch:
            q = encode_query(enc, inst.question)
            sims = {p.id: similarity(q, encode_passage(enc, p.text)) for p in pool}
            pos = sims[inst.positive.id]
            negs = [s for pid, s in sims.items() if pid != inst.positive.id]
            losses.append(nll_from_sims(pos, negs))
        assert batch_loss(enc, batch) == pytest.approx(sum(losses) / 2, abs=1e-9)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(5)
        enc = small_encoder(d=6, seed=5)
        for _ in range(10):
            batch = random_batch(rng, enc, size=int(rng.integers(1, 4)))
            assert batch_loss(enc, batch) >= 0.0

    def test_shift_invariance_of_softmax(self):
        # Adding a constant to every similarity in a logit row leaves the
        # loss unchanged.
        base = nll_from_sims(2.0, [1.0, 0.0])
        shifted = nll_from_sims(2.0 + 5.0, [6.0, 5.0])
        assert base == pytest.approx(shifted, abs=1e-12)


def loop_loss_gradient(enc, batch):
    """Reference: per-row pooling and a per-token scatter of the embedding
    gradient, in the same arithmetic order as `loss_gradient`."""
    vocab, params, d = enc.vocab, enc.params, enc.d
    cands = list({p.id: p for p in [i.positive for i in batch] + [n for i in batch for n in i.hard_negatives]}.values())
    pos_idx = [[p.id for p in cands].index(inst.positive.id) for inst in batch]
    toks = {
        "q": [[vocab[w] for w in inst.question.split() if w in vocab] for inst in batch],
        "p": [[vocab[w] for w in p.text.split() if w in vocab] for p in cands],
    }
    means, outs = {}, {}
    for side in "qp":
        means[side] = np.stack([params[f"{side}_emb"][t].mean(axis=0) if t else np.zeros(d) for t in toks[side]])
        outs[side] = means[side] @ params[f"{side}_proj"].T
    logits = outs["q"] @ outs["p"].T
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    loss = float((-shifted[np.arange(len(batch)), pos_idx] + np.log(exp.sum(axis=1))).mean())
    g_logits = exp / exp.sum(axis=1, keepdims=True)
    g_logits[np.arange(len(batch)), pos_idx] -= 1.0
    g_logits /= len(batch)
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    for side, g_out in (("q", g_logits @ outs["p"]), ("p", g_logits.T @ outs["q"])):
        grads[f"{side}_proj"] += g_out.T @ means[side]
        g_mean = g_out @ params[f"{side}_proj"]
        for row, idxs in enumerate(toks[side]):
            for i in idxs:
                grads[f"{side}_emb"][i] += g_mean[row] / len(idxs)
    return loss, grads


def finite_difference_grads(enc, batch, eps=1e-6):
    grads = {}
    for name, param in enc.params.items():
        g = np.zeros_like(param)
        flat = param.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = batch_loss(enc, batch)
            flat[i] = orig - eps
            down = batch_loss(enc, batch)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
        grads[name] = g
    return grads


class TestGradient:
    def test_unused_embedding_rows_get_zero_gradient(self):
        enc = small_encoder(d=4, seed=6)
        batch = [
            IRTrainInstance(
                question="alpha",
                positive=passage("p", "beta"),
                hard_negatives=(passage("n", "gamma"),),
            )
        ]
        grads = loss_gradient(enc, batch)
        unused = enc.vocab["kappa"]
        np.testing.assert_array_equal(grads["q_emb"][unused], 0.0)
        np.testing.assert_array_equal(grads["p_emb"][unused], 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        enc = small_encoder(d=4, seed=seed + 10)
        batch = random_batch(rng, enc, size=2, negatives=1)
        analytic = loss_gradient(enc, batch)
        numeric = finite_difference_grads(enc, batch)
        for name in analytic:
            denom = np.abs(numeric[name]) + 1e-8
            rel = np.abs(analytic[name] - numeric[name]) / denom
            assert rel.max() < 1e-4, name

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        enc = small_encoder(d=4, seed=3)
        batch = random_batch(rng, enc, size=2)
        a = loss_gradient(enc, batch)
        b = loss_gradient(enc, batch)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_carries_loss_of_its_forward(self):
        enc = small_encoder(d=4, seed=7)
        batch = random_batch(np.random.default_rng(7), enc, size=3, negatives=2)
        grads = loss_gradient(enc, batch)
        assert list(grads) == ["q_emb", "q_proj", "p_emb", "p_proj"]
        assert grads.loss == batch_loss(enc, batch)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_token_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        enc = small_encoder(d=6, seed=seed)
        batch = random_batch(rng, enc, size=4, negatives=2)
        batch.append(IRTrainInstance("xyzzy", passage("oov", "qwerty"), (batch[0].positive,)))
        expected_loss, expected = loop_loss_gradient(enc, batch)
        grads = loss_gradient(enc, batch)
        assert grads.loss == expected_loss
        for name in expected:
            np.testing.assert_array_equal(grads[name], expected[name])


class TestTouchedRows:
    def test_scatter_to_the_full_gradient(self):
        enc = small_encoder(d=5, seed=12)
        batch = random_batch(np.random.default_rng(12), enc, size=4, negatives=2)
        batch.append(IRTrainInstance("xyzzy", passage("oov", "alpha alpha alpha qwerty"), (batch[0].positive,)))
        full = loss_gradient(enc, batch)
        rows = loss_gradient(enc, batch, touched=True)
        assert list(rows) == list(full)
        assert rows.loss == full.loss
        assert set(rows.rows) == {"q_emb", "p_emb"}
        for name in full:
            if name in rows.rows:
                ids = rows.rows[name]
                assert (np.diff(ids) > 0).all()
                scattered = np.zeros_like(full[name])
                scattered[ids] = rows[name]
                assert scattered.tobytes() == full[name].tobytes()
            else:
                assert rows[name].tobytes() == full[name].tobytes()


def per_row_means(table, token_ids):
    """Reference: the per-row pooling loop that token bags replaced."""
    return np.stack([table[ids].mean(axis=0) if len(ids) else np.zeros(table.shape[1]) for ids in token_ids])


def flat_scatter(token_ids, g_means, d):
    """Reference: the touched rows and the flat np.add.at scatter, in (row,
    token) order, that token bags replaced."""
    lens = np.array([len(ids) for ids in token_ids])
    shares = g_means / np.maximum(lens, 1)[:, None]
    touched, slot = np.unique(np.concatenate(token_ids), return_inverse=True)
    g_rows = np.zeros((len(touched), d))
    np.add.at(g_rows.reshape(-1), (slot[:, None] * d + np.arange(d)).ravel(), np.repeat(shares, lens, axis=0).ravel())
    return touched, g_rows


def bag_of(token_ids):
    """The one token bag of `token_ids`, built as train builds each step's."""
    indptr = np.cumsum([0, *map(len, token_ids)])
    ids = np.concatenate([np.zeros(0, dtype=np.intp), *token_ids])
    return encoder_module._token_bags(indptr, ids, np.arange(len(token_ids)), np.array([0, len(token_ids)]))[0]


# Token ids of a batch's texts over a 12-row table: rows without tokens and
# repeated ids included.
token_batches = st.lists(st.lists(st.integers(0, 11), max_size=12), min_size=1, max_size=6)


class TestTokenBag:
    # d = 1 is left out: numpy sums a single column pairwise, not row by row.
    @given(token_batches, st.integers(2, 9), st.integers(0, 2**32 - 1))
    @example([[]], 3, 0)
    @example([[], [], []], 4, 1)
    @example([[5, 5, 5, 2, 5]], 2, 2)
    @example([[1, 1], [], [1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1]], 6, 3)
    def test_equals_per_row_mean_and_flat_scatter(self, rows, d, seed):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(12, d)) * 10.0 ** rng.integers(-6, 7, size=(12, 1))
        g_means = rng.normal(size=(len(rows), d))
        token_ids = [np.array(ids, dtype=np.intp) for ids in rows]
        bag = bag_of(token_ids)
        assert bag.means(table).tobytes() == per_row_means(table, token_ids).tobytes()
        touched, g_rows = flat_scatter(token_ids, g_means, d)
        assert bag.rows.tolist() == touched.tolist()
        assert bag.rows_gradient(g_means).tobytes() == g_rows.tobytes()


@pytest.mark.parametrize("ids", [[3, 12], [-1, 3]], ids=["past-the-end", "negative"])
def test_token_bag_refuses_an_id_outside_the_table(ids):
    # The pooling kernel reads table rows in place, with no bounds check of its own.
    bag = bag_of([np.array([0, 1], dtype=np.intp), np.array(ids, dtype=np.intp)])
    with pytest.raises(IndexError, match=r"^token ids -?\d+\.\.\d+ do not all index a table of 12 rows$"):
        bag.means(np.ones((12, 3)))


@pytest.mark.parametrize("contents", [None, b"not a shared object"], ids=["missing", "unloadable"])
def test_kernel_file_that_is_missing_or_fails_to_load_is_an_import_error(tmp_path, monkeypatch, contents):
    # A scipy install whose sparse kernels are absent or broken: no fallback.
    (tmp_path / "sparse").mkdir()
    kernels = tmp_path / "sparse" / "_sparsetools.so"
    if contents is not None:
        kernels.write_bytes(contents)
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy if name == "scipy" else None)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".so"])
    with pytest.raises(ImportError, match=re.escape(str(kernels))):
        encoder_module._kernels.__wrapped__()


def test_pipeline_and_cli_import_without_scipy():
    # Importing hyqa loads no scipy module and no hashlib (numpy.random
    # loads hashlib on its first use, so training does), and training loads
    # scipy's sparse kernels alone and leaves no scipy module behind. A later
    # import of scipy.sparse sets its _sparsetools attribute, loaded from the
    # same file, with the same bits.
    env = {**os.environ, "PYTHONPATH": str(Path(hyqa.__file__).parents[1])}
    code = """if True:
        import sys
        import numpy as np
        import hyqa.cli, hyqa.pipeline
        import hyqa.encoder as e
        from hyqa.corpus import Passage

        assert not [m for m in sys.modules if m.startswith(("scipy", "hashlib"))]
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        texts = ["alpha beta gamma", "delta beta", "epsilon"]
        passages = [Passage(f"p{i}", "d", text, len(text.split())) for i, text in enumerate(texts)]
        instances = [
            e.IRTrainInstance("alpha beta", passages[0], (passages[1],)),
            e.IRTrainInstance("delta gamma", passages[1], (passages[2],)),
        ]
        encoder = e.DualEncoder.create(words, d=3, seed=0)
        trained, _ = e.train(encoder, instances, e.TrainConfig(epochs=1, batch_size=2))
        assert not [m for m in sys.modules if m.startswith("scipy")]

        import scipy.sparse
        assert scipy.sparse._sparsetools.__file__ == e._kernels().__file__
        ((bag, _, _),) = e._plan(e._train_set(trained, instances), np.arange(2), np.array([0, 2]))
        table = trained.params["q_emb"]
        ones = scipy.sparse.csr_array((bag.ones, bag.ids, bag.indptr), shape=(len(bag.lens), len(table)))
        assert (ones @ table / bag.lens).tobytes() == bag.means(table).tobytes()
        print("ok")
    """
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout == "ok\n"


def dense_update_train(encoder, instances, config):
    """train as a loop over the public loss_gradient that updates every
    parameter in full: the reference for the touched-row updates."""
    model = encoder.copy()
    rng = np.random.default_rng(config.seed)
    trace, step = [], 0
    for _ in range(config.epochs):
        order = rng.permutation(len(instances))
        losses = []
        for start in range(0, len(instances), config.batch_size):
            grads = loss_gradient(model, [instances[i] for i in order[start : start + config.batch_size]])
            losses.append(grads.loss)
            lr = config.learning_rate
            if config.warmup_steps > 0:
                lr *= min(1.0, (step + 1) / config.warmup_steps)
            for name in model.params:
                model.params[name] -= lr * grads[name]
            step += 1
        trace.append(float(np.mean(losses)))
    return model, trace


class TestTrain:
    def make_instances(self, rng, count=12):
        return random_batch(rng, small_encoder(), size=count)

    @pytest.mark.parametrize(
        "config",
        [
            TrainConfig(epochs=3, batch_size=3, seed=5),
            TrainConfig(learning_rate=0.3, epochs=2, batch_size=4, warmup_steps=5, seed=1),
            TrainConfig(epochs=1, batch_size=16, warmup_steps=1, seed=0),
        ],
    )
    def test_equals_dense_update_reference(self, config):
        enc = small_encoder(d=6, seed=4)
        instances = random_batch(np.random.default_rng(11), enc, size=10, negatives=2)
        instances.append(
            IRTrainInstance(
                "alpha alpha alpha beta",
                passage("rep", "gamma gamma delta gamma"),
                (passage("oov_neg", "xyzzy qwerty"),),
            )
        )
        instances.append(IRTrainInstance("xyzzy", passage("oov", "qwerty plugh"), (instances[0].positive,)))
        trained, trace = train(enc, instances, config)
        expected, expected_trace = dense_update_train(enc, instances, config)
        assert trace == expected_trace
        for name in expected.params:
            assert trained.params[name].tobytes() == expected.params[name].tobytes(), name

    def test_block_plans_equal_dense_update_reference(self):
        """More steps per epoch than one planning block, a short last
        batch, passages that are one instance's positive and another's
        negative in one batch, and out-of-vocabulary texts."""
        rng = np.random.default_rng(21)
        enc = small_encoder(d=5, seed=21)
        positives = [passage(f"p{i}", " ".join(rng.choice(VOCAB, size=3))) for i in range(41)]
        instances = [
            IRTrainInstance(" ".join(rng.choice(VOCAB, size=2)), positives[i], (positives[(i + 1) % 41],))
            for i in range(40)
        ]
        instances.append(IRTrainInstance("xyzzy plugh", passage("oov", "qwerty"), (positives[0],)))
        config = TrainConfig(learning_rate=0.2, epochs=2, batch_size=2, warmup_steps=7, seed=3)
        steps = math.ceil(len(instances) / config.batch_size)
        assert steps > encoder_module._PLAN_STEPS and len(instances) % config.batch_size == 1
        # The first epoch's batches, as train draws them.
        order = np.random.default_rng(config.seed).permutation(len(instances))
        batches = [[instances[i] for i in order[s : s + config.batch_size]] for s in range(0, len(instances), 2)]
        assert any({i.positive.id for i in b} & {n.id for i in b for n in i.hard_negatives} for b in batches)
        trained, trace = train(enc, instances, config)
        expected, expected_trace = dense_update_train(enc, instances, config)
        assert trace == expected_trace
        for name in expected.params:
            assert trained.params[name].tobytes() == expected.params[name].tobytes(), name

    def test_zero_epochs_is_identity(self):
        rng = np.random.default_rng(0)
        enc = small_encoder(seed=0)
        instances = self.make_instances(rng)
        trained, trace = train(enc, instances, TrainConfig(epochs=0))
        assert trace == []
        for name in enc.params:
            np.testing.assert_array_equal(trained.params[name], enc.params[name])

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(1)
        enc = small_encoder(seed=1)
        instances = self.make_instances(rng)
        config = TrainConfig(epochs=2, batch_size=4, seed=42)
        a, trace_a = train(enc, instances, config)
        b, trace_b = train(enc, instances, config)
        assert trace_a == trace_b
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_loss_decreases_on_learnable_data(self):
        # Topic-separable data: questions share tokens with their positives.
        instances = []
        for i, (qword, pword, nword) in enumerate(
            [("alpha", "alpha", "zeta"), ("beta", "beta", "eta"), ("gamma", "gamma", "theta")]
        ):
            for j in range(4):
                instances.append(
                    IRTrainInstance(
                        question=f"{qword} {qword}",
                        positive=passage(f"p{i}_{j}", f"{pword} {pword} {pword}"),
                        hard_negatives=(passage(f"n{i}_{j}", f"{nword} {nword}"),),
                    )
                )
        enc = small_encoder(d=8, seed=0)
        _, trace = train(enc, instances, TrainConfig(epochs=6, batch_size=4, learning_rate=0.1, seed=0))
        assert trace[-1] < trace[0]

    def test_one_loss_gradient_per_step(self, monkeypatch):
        rng = np.random.default_rng(3)
        enc = small_encoder(seed=3)
        instances = self.make_instances(rng, count=10)
        calls = {"loss_gradient": 0, "batch_loss": 0}

        def counting(name):
            original = getattr(encoder_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(encoder_module, name, counting(name))
        train(enc, instances, TrainConfig(epochs=3, batch_size=4, seed=0))
        assert calls == {"loss_gradient": 3 * 3, "batch_loss": 0}

    def test_warmup_scales_early_steps(self):
        rng = np.random.default_rng(2)
        enc = small_encoder(seed=2)
        instances = self.make_instances(rng, count=4)
        cold = TrainConfig(epochs=1, batch_size=4, learning_rate=0.5, warmup_steps=100, seed=0)
        hot = TrainConfig(epochs=1, batch_size=4, learning_rate=0.5, warmup_steps=0, seed=0)
        a, _ = train(enc, instances, cold)
        b, _ = train(enc, instances, hot)
        # With warmup the single step uses lr/100, so parameters move less.
        moved_a = sum(np.abs(a.params[n] - enc.params[n]).sum() for n in enc.params)
        moved_b = sum(np.abs(b.params[n] - enc.params[n]).sum() for n in enc.params)
        assert moved_a < moved_b

    def test_divergence_is_refused_at_its_first_non_finite_step(self):
        # One step per epoch, at a learning rate that overflows within a few
        # steps: k epochs train to finite parameters, and epoch k's step is
        # refused by name, with no numpy warning (any warning is an error).
        enc = small_encoder(seed=2)
        instances = self.make_instances(np.random.default_rng(2), count=4)

        def config(epochs):
            return TrainConfig(learning_rate=1e10, epochs=epochs, batch_size=4, seed=0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = 0
            while True:
                try:
                    trained, trace = train(enc, instances, config(k + 1))
                except FloatingPointError as e:
                    assert str(e).startswith(f"training diverged at step {k} (epoch {k}): ")
                    break
                assert all(np.isfinite(p).all() for p in trained.params.values()) and np.isfinite(trace).all()
                k += 1
                assert k < 10, "the learning rate did not diverge"
        assert k >= 1


class TestFromTexts:
    # Kelvin sign and dotted capital I lowercase to other code points, and
    # Arabic-Indic digits and no-break spaces test the token pattern.
    @given(st.lists(st.text(alphabet="aK .-\u212a\u0130\u0663\xa0"), max_size=5))
    @example(["\u212a and \u0130 in \u0130stanbul at 5\u212a", "K k\xa0\u0663"])
    def test_vocabulary_is_the_sorted_tokenize_surfaces(self, texts):
        enc = DualEncoder.from_texts(texts, d=2, seed=0)
        want = sorted({t.surface for text in texts for t in tokenize(text)})
        assert sorted(enc.vocab, key=enc.vocab.get) == want


# Texts that repeat, that hold no tokens, and that take the non-ASCII path
# of terms: KELVIN SIGN, dotted capital I and the no-break space.
_held_texts = st.lists(
    st.sampled_from(["alpha", "Beta", "k", "K", "\u212a", "\u212aelvin", "\u0130stanbul", "i\u0307x", "5", "-", "\xa0"]),
    max_size=12,
).map(" ".join)


class TestHeldTable:
    """A from_texts encoder reads a text it was built from out of its token
    table; that gives the bits of tokenizing the text."""

    @given(st.lists(_held_texts, min_size=1, max_size=6), st.sampled_from([1, 2, 64]), st.integers(0, 2**16))
    @example(["alpha Beta", "alpha Beta", "", "- \xa0 -"], 1, 0)
    @example(["\u212a k K \u212aelvin", "\u0130stanbul\xa0i\u0307x " * 6], 64, 3)
    def test_equals_the_tokenizing_path(self, tmp_path_factory, texts, d, seed):
        enc = DualEncoder.from_texts(texts, d=d, seed=seed)
        path = tmp_path_factory.mktemp("held") / "enc.hyqa"
        enc.save(path)
        vocab = sorted(enc.vocab, key=enc.vocab.get)
        others = [DualEncoder.load(path), DualEncoder.create(vocab, d=d, seed=seed)]
        assert all(other._table is None for other in others)
        for text in texts:
            if terms(text):
                assert np.shares_memory(encoder_module._token_ids(enc, text), enc._table.ids)
        # A question is not a table text; it takes the tokenizing path everywhere.
        for text in texts + ["K alpha unseen"]:
            for encode in (encode_passage, encode_query):
                out = encode(enc, text)
                assert out.dtype == np.float64
                for other in others:
                    assert np.array_equal(out, encode(other, text))

        instances = [
            IRTrainInstance(f"K {text}", Passage(f"p{i}", "d", text, 0), (Passage(f"n{i}", "d", texts[0], 0),))
            for i, text in enumerate(texts)
        ]
        model = enc.copy()  # as train does
        assert model._table is enc._table
        held, tokenized = encoder_module._train_set(model, instances), encoder_module._train_set(others[0], instances)
        for a, b in zip(held, tokenized):
            assert a.tolist() == b.tolist()


class TestPresets:
    def test_desk_preset(self):
        assert TrainConfig().learning_rate == 0.05
        assert TrainConfig().epochs == 6
        assert TrainConfig().batch_size == 16
        assert TrainConfig().warmup_steps == 0


class TestPersistence:
    def test_checkpoint_roundtrip(self, tmp_path):
        enc = small_encoder(d=8, seed=9)
        enc.save(tmp_path / "enc.hyqa")
        loaded = DualEncoder.load(tmp_path / "enc.hyqa")
        assert loaded.vocab == enc.vocab
        assert loaded.d == enc.d
        for name in enc.params:
            np.testing.assert_array_equal(loaded.params[name], enc.params[name])
        np.testing.assert_array_equal(
            encode_query(loaded, "alpha beta"), encode_query(enc, "alpha beta")
        )

    def test_equality_is_by_value(self, tmp_path):
        enc = DualEncoder.from_texts(["alpha beta", "beta gamma delta"], d=4, seed=3)
        assert enc == enc.copy()
        enc.save(tmp_path / "enc.hyqa")
        loaded = DualEncoder.load(tmp_path / "enc.hyqa")
        assert loaded == enc and enc == loaded  # the held table is not compared
        changed = enc.copy()
        changed.params["p_proj"][0, 0] += 1.0
        assert changed != enc
        assert DualEncoder.from_texts(["alpha beta"], d=4, seed=3) != enc
        assert enc != "encoder"

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda meta, arrays: arrays.pop("q_proj"), "missing array 'q_proj'"),
            (lambda meta, arrays: arrays.update(q_emb=arrays["q_emb"][:-1]),
             f"array 'q_emb' has shape ({len(VOCAB) - 1}, 4), not ({len(VOCAB)}, 4)"),
            (lambda meta, arrays: arrays["p_proj"].__setitem__((1, 2), np.nan), "array 'p_proj' holds a non-finite value"),
            (lambda meta, arrays: arrays["q_proj"].__setitem__((3, 0), -np.inf), "array 'q_proj' holds a non-finite value"),
            (lambda meta, arrays: meta.update(d=5), f"array 'q_emb' has shape ({len(VOCAB)}, 4), not ({len(VOCAB)}, 5)"),
            (lambda meta, arrays: arrays.update(q_bias=np.zeros(4)),
             "array 'q_bias' is not an encoder parameter; retrain the encoder"),
        ],
        ids=["missing", "short-table", "nan", "inf", "meta-d", "old-bias"],
    )
    def test_load_refuses_a_damaged_file(self, tmp_path, damage, message):
        enc = small_encoder(d=4)
        meta = {"d": enc.d, "vocab": sorted(enc.vocab, key=enc.vocab.get)}
        arrays = {k: v.copy() for k, v in enc.params.items()}
        damage(meta, arrays)
        container.save(tmp_path / "enc.hyqa", "encoder", meta, arrays)
        with pytest.raises(ContainerError) as raised:
            DualEncoder.load(tmp_path / "enc.hyqa")
        assert str(raised.value) == f"{tmp_path / 'enc.hyqa'}: {message}"

    @pytest.mark.parametrize("d", [0, -1])
    def test_create_refuses_a_width_below_one(self, d):
        with pytest.raises(ValueError, match="^d must be >= 1$"):
            DualEncoder.create(VOCAB, d=d, seed=0)
        with pytest.raises(ValueError, match="^d must be >= 1$"):
            DualEncoder.from_texts(["alpha beta"], d=d, seed=0)

    @pytest.mark.parametrize("d", [0, -2])
    def test_load_refuses_a_width_below_one(self, tmp_path, d):
        # Empty arrays, which fit d = 0 as `create` used to build them.
        shapes = {"emb": (len(VOCAB), 0), "proj": (0, 0), "bias": (0,)}
        arrays = {name: np.zeros(shapes[name[2:]]) for name in encoder_module._PARAM_NAMES}
        container.save(tmp_path / "enc.hyqa", "encoder", {"d": d, "vocab": list(VOCAB)}, arrays)
        with pytest.raises(ContainerError) as raised:
            DualEncoder.load(tmp_path / "enc.hyqa")
        assert str(raised.value) == f"{tmp_path / 'enc.hyqa'}: meta 'd' must be >= 1"

    @pytest.mark.parametrize("key", ["vocab", "d"])
    def test_load_names_a_missing_meta_key(self, tmp_path, key):
        enc = small_encoder(d=4)
        meta = {"d": enc.d, "vocab": sorted(enc.vocab, key=enc.vocab.get)}
        del meta[key]
        container.save(tmp_path / "enc.hyqa", "encoder", meta, dict(enc.params))
        with pytest.raises(ContainerError) as raised:
            DualEncoder.load(tmp_path / "enc.hyqa")
        assert str(raised.value) == f"{tmp_path / 'enc.hyqa'}: missing key '{key}'"

    def test_load_refuses_a_repeated_term(self, tmp_path):
        enc = DualEncoder.create(["a", "b", "c"], d=2, seed=0)
        container.save(tmp_path / "enc.hyqa", "encoder", {"d": 2, "vocab": ["a", "b", "a"]}, dict(enc.params))
        with pytest.raises(ContainerError) as raised:
            DualEncoder.load(tmp_path / "enc.hyqa")
        assert str(raised.value) == f"{tmp_path / 'enc.hyqa'}: vocabulary repeats the term 'a'"

    def test_non_finite_table_entry_is_refused_where_used(self, tmp_path):
        from hyqa.pipeline import index_dense, make_dense_retriever

        enc = DualEncoder.from_texts(["alpha beta", "gamma"], d=4, seed=1)
        enc.params["p_emb"][enc.vocab["alpha"], 0] = np.nan
        enc.params["q_emb"][enc.vocab["gamma"], 1] = np.inf
        enc.save(tmp_path / "enc.hyqa")
        loaded = DualEncoder.load(tmp_path / "enc.hyqa")  # the tables are not scanned
        passages = [passage("p0", "alpha beta"), passage("p1", "gamma")]
        with pytest.raises(ValueError, match="^non-finite embedding for passage 'p0'$"):
            index_dense(loaded, passages)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^non-finite score for passage 'p1'$"):
            make_dense_retriever(index_dense(loaded, passages[1:]), loaded).ranked("gamma", 1)

    @pytest.mark.parametrize("name", ["epochs", "batch_size", "warmup_steps", "seed"])
    @pytest.mark.parametrize("value", [1.5, True, "3"], ids=["float", "bool", "str"])
    def test_count_that_is_not_an_integer_is_refused(self, name, value):
        # A bool is an int to Python, but the manifest would record it as
        # true; a numpy integer is accepted.
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(repr(value))}$"):
            TrainConfig(**{name: value})
        assert getattr(TrainConfig(**{name: np.int64(2)}), name) == 2

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="^learning_rate must be finite and positive$"):
            TrainConfig(learning_rate=rate)

    def test_positive_in_negatives_rejected(self):
        p = passage("same", "alpha")
        with pytest.raises(ValueError):
            IRTrainInstance(question="q", positive=p, hard_negatives=(p,))
