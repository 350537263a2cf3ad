import ctypes
import dataclasses
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entqa
import tensor_reference as ref
from entqa import model as mdl
from entqa import tensor as T
from entqa.model import Batch, ModelConfig, decode_span, init_params
from entqa.tensor import Tensor
from entqa.trainer import SYSTEMS, apply_system


@pytest.fixture(scope="module")
def small_config():
    return ModelConfig(vocab_size=40, hidden_dim=16, layers=2, heads=2,
                       entity_dim=12, entity_heads=2, dropout=0.0,
                       max_seq_len=16, ffn_mult=2)


@pytest.fixture(scope="module")
def small_params(small_config):
    return init_params(small_config, seed=0)


def make_batch(config, rng, b=2, l=12, entity_ids=None):
    mask = np.ones((b, l), dtype=bool)
    mask[:, -2:] = False
    ctx = np.zeros((b, l), dtype=bool)
    ctx[:, 4:l - 2] = True
    seg = np.zeros((b, l), dtype=np.int64)
    seg[:, 4:] = 1
    if entity_ids is None:
        entity_ids = rng.integers(0, config.entity_vocab_size, size=(b, l))
        entity_ids[~mask] = 0
    return Batch(
        token_ids=rng.integers(0, config.vocab_size, size=(b, l)),
        segment_ids=seg, attention_mask=mask, entity_ids=entity_ids,
        context_mask=ctx, answer_start=np.array([5] * b),
        answer_end=np.array([6] * b),
        lf_ids=rng.integers(0, config.num_lf_classes, size=b))


class TestConfig:
    def test_omega_bounds(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, omega=1.5)

    @pytest.mark.parametrize("name,value", [
        ("dropout", 1.0), ("dropout", -0.5), ("entity_heads", 0),
        ("ffn_mult", 0), ("ffn_mult", -1), ("entity_attention_layers", -1)])
    def test_out_of_range_is_refused(self, name, value):
        with pytest.raises(ValueError, match=name):
            ModelConfig(vocab_size=10, **{name: value})

    def test_range_edges_are_accepted(self):
        ModelConfig(vocab_size=10, dropout=0.0, entity_heads=1,
                    entity_dim=7, ffn_mult=1, entity_attention_layers=0)

    def test_digest_stable_and_sensitive(self):
        a = ModelConfig(vocab_size=10)
        b = ModelConfig(vocab_size=10)
        c = ModelConfig(vocab_size=11)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestEncoder:
    def test_pad_positions_do_not_affect_outputs(self, small_config,
                                                 small_params):
        rng = np.random.default_rng(0)
        batch = make_batch(small_config, rng)
        full = mdl.encode_tokens(small_params, small_config, batch).data

        short = Batch(
            token_ids=batch.token_ids[:, :-2],
            segment_ids=batch.segment_ids[:, :-2],
            attention_mask=batch.attention_mask[:, :-2],
            entity_ids=batch.entity_ids[:, :-2],
            context_mask=batch.context_mask[:, :-2])
        trunc = mdl.encode_tokens(small_params, small_config, short).data
        np.testing.assert_allclose(full[:, :-2], trunc, atol=1e-6)

    def test_permuting_pad_tokens_is_invariant(self, small_config,
                                               small_params):
        rng = np.random.default_rng(1)
        batch = make_batch(small_config, rng)
        out1 = mdl.encode_tokens(small_params, small_config, batch).data
        swapped = batch.token_ids.copy()
        swapped[:, [-2, -1]] = swapped[:, [-1, -2]]
        batch2 = Batch(token_ids=swapped, segment_ids=batch.segment_ids,
                       attention_mask=batch.attention_mask,
                       entity_ids=batch.entity_ids,
                       context_mask=batch.context_mask)
        out2 = mdl.encode_tokens(small_params, small_config, batch2).data
        np.testing.assert_allclose(out1[:, :-2], out2[:, :-2], atol=1e-9)

    def test_overlong_sequence_rejected(self, small_config, small_params):
        rng = np.random.default_rng(2)
        with pytest.raises(T.ShapeError):
            mdl.encode_tokens(small_params, small_config,
                              make_batch(small_config, rng, l=20))


class TestEntityEncoder:
    def test_out_of_range_entity_id(self, small_config, small_params):
        rng = np.random.default_rng(3)
        ids = np.full((2, 12), small_config.entity_vocab_size)
        batch = make_batch(small_config, rng, entity_ids=ids)
        with pytest.raises(IndexError):
            mdl.encode_entities(small_params, small_config, batch)

    def test_same_type_same_embedding_row(self, small_config, small_params):
        emb = T.embedding(small_params["ent_emb"], np.array([[3, 3]]))
        np.testing.assert_array_equal(emb.data[0, 0], emb.data[0, 1])

    def test_entity_embeddings_receive_gradient(self, small_config,
                                                small_params):
        rng = np.random.default_rng(4)
        batch = make_batch(small_config, rng)
        for p in small_params.values():
            p.grad = None
        out = mdl.forward(small_params, small_config, batch)
        loss = mdl.multitask_loss(out, batch.answer_start, batch.answer_end,
                                  batch.lf_ids, omega=0.3)
        loss.total.backward()
        assert np.abs(small_params["ent_emb"].grad).sum() > 0


class TestFusion:
    def test_zero_inputs_give_zero(self, small_config):
        params = {
            "fuse.wt": Tensor(np.zeros((4, 4))),
            "fuse.we": Tensor(np.zeros((3, 4))),
            "fuse.b": Tensor(np.zeros(4)),
        }
        out = mdl.fuse(params, Tensor(np.zeros((1, 2, 4))),
                       Tensor(np.zeros((1, 2, 3))), np.ones((1, 2), bool))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_scalar_case_matches_hand_computation(self):
        params = {
            "fuse.wt": Tensor([[2.0]]),
            "fuse.we": Tensor([[3.0]]),
            "fuse.b": Tensor([1.0]),
        }
        out = mdl.fuse(params, Tensor([[[0.5]]]), Tensor([[[1.0]]]),
                       np.ones((1, 1), bool))
        # pre-activation 2*0.5 + 3*1 + 1 = 5; GELU(5) ~ 4.99999
        assert out.data[0, 0, 0] == pytest.approx(4.99999, abs=1e-4)

    def test_unflagged_position_ignores_entity_state(self, small_config,
                                                     small_params):
        rng = np.random.default_rng(5)
        tok = Tensor(rng.normal(size=(1, 4, small_config.hidden_dim)))
        ent = rng.normal(size=(1, 4, small_config.entity_dim))
        flags = np.array([[True, False, True, False]])
        a = mdl.fuse(small_params, tok, Tensor(ent.copy()), flags).data
        ent2 = ent.copy()
        ent2[0, 1] += 100.0
        ent2[0, 3] -= 50.0
        b = mdl.fuse(small_params, tok, Tensor(ent2), flags).data
        np.testing.assert_array_equal(a[:, 1], b[:, 1])
        np.testing.assert_array_equal(a[:, 3], b[:, 3])
        assert not np.array_equal(a[:, 0], b[:, 0]) or \
            np.array_equal(ent[0, 0], ent2[0, 0])


class TestHeadsAndLosses:
    def test_omega_boundaries(self, small_config, small_params):
        rng = np.random.default_rng(6)
        batch = make_batch(small_config, rng)
        out = mdl.forward(small_params, small_config, batch)
        l0 = mdl.multitask_loss(out, batch.answer_start, batch.answer_end,
                                batch.lf_ids, omega=0.0)
        l1 = mdl.multitask_loss(out, batch.answer_start, batch.answer_end,
                                batch.lf_ids, omega=1.0)
        assert l0.total.item() == pytest.approx(l0.span, abs=1e-12)
        assert l1.total.item() == pytest.approx(l1.lf, abs=1e-12)

    def test_loss_arithmetic(self):
        out = mdl.HeadOutputs(
            start_logits=Tensor([[0.0, np.log(np.e - 1) * 0 + 0.0]]),
            end_logits=Tensor([[0.0, 0.0]]),
            lf_logits=Tensor([[0.0, 0.0]]))
        # span CE both ln 2, lf CE ln 2; omega 0.3
        parts = mdl.multitask_loss(out, [0], [1], [0], omega=0.3)
        expected = 0.3 * np.log(2) + 0.7 * np.log(2)
        assert parts.total.item() == pytest.approx(expected, abs=1e-12)

    def test_missing_lf_with_positive_omega(self, small_config, small_params):
        rng = np.random.default_rng(7)
        batch = make_batch(small_config, rng)
        out = mdl.forward(small_params, small_config, batch)
        with pytest.raises(ValueError):
            mdl.multitask_loss(out, batch.answer_start, batch.answer_end,
                               None, omega=0.3)

    def test_omega_zero_gives_lf_head_zero_grad(self, small_config,
                                                small_params):
        rng = np.random.default_rng(8)
        batch = make_batch(small_config, rng)
        for p in small_params.values():
            p.grad = None
        out = mdl.forward(small_params, small_config, batch)
        parts = mdl.multitask_loss(out, batch.answer_start, batch.answer_end,
                                   batch.lf_ids, omega=0.0)
        parts.total.backward()
        # L_lf is neither computed nor logged, and nothing flows back
        # through the LF head
        assert parts.lf is None
        assert parts.total.item() == parts.span
        assert small_params["lf.w"].grad is None
        assert small_params["lf.b"].grad is None
        assert np.abs(small_params["span.ws"].grad).max() > 0.0

    def test_omega_one_gives_span_head_zero_grad(self, small_config,
                                                 small_params):
        rng = np.random.default_rng(9)
        batch = make_batch(small_config, rng)
        for p in small_params.values():
            p.grad = None
        out = mdl.forward(small_params, small_config, batch)
        mdl.multitask_loss(out, batch.answer_start, batch.answer_end,
                           batch.lf_ids, omega=1.0).total.backward()
        assert np.abs(small_params["span.ws"].grad).max() == 0.0
        assert np.abs(small_params["lf.w"].grad).max() > 0.0

    def test_evidence_loss_arithmetic(self):
        out = mdl.HeadOutputs(evidence_logit=Tensor([0.0]),
                              lf_logits=Tensor([[0.0, 0.0]]))
        parts = mdl.evidence_loss(out, [1], [0], omega=0.2)
        expected = 0.2 * np.log(2) + 0.8 * np.log(2)
        assert parts.total.item() == pytest.approx(expected, abs=1e-12)

    def test_evidence_chance_level(self, small_config):
        rng = np.random.default_rng(10)
        config = mdl.ModelConfig(**{**small_config.__dict__, "mode": "evidence"})
        batch = make_batch(config, rng, b=8)
        out = mdl.forward(init_params(config, 0), config, batch)
        labels = rng.integers(0, 2, size=8)
        parts = mdl.evidence_loss(out, labels, batch.lf_ids, omega=0.0)
        assert parts.evidence == pytest.approx(np.log(2), abs=0.05)

    def test_start_logits_masked_outside_context(self, small_config,
                                                 small_params):
        rng = np.random.default_rng(11)
        batch = make_batch(small_config, rng)
        out = mdl.forward(small_params, small_config, batch)
        masked = out.start_logits.data[~batch.context_mask]
        assert (masked < -1e29).all()


class TestParameterSets:
    BLOCK = ("attn.wq", "attn.bq", "attn.wk", "attn.wv", "attn.bv",
             "attn.wo", "attn.bo", "ln1.g", "ln1.b", "ln2.g", "ln2.b",
             "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")

    def _block(self, prefix):
        return {f"{prefix}.{name}" for name in self.BLOCK}

    def expected(self, system):
        shared = ({"tok_emb", "seg_emb", "pos_emb", "enc_ln.g", "enc_ln.b",
                   "fuse.wt", "fuse.b", "lf.w", "lf.b"}
                  | self._block("enc0") | self._block("enc1"))
        entity = ({"ent_emb", "ent_ln.g", "ent_ln.b", "fuse.we"}
                  | self._block("ent0"))
        span = {"span.ws", "span.bs", "span.we", "span.be"}
        return {"baseline": shared | span,
                "fused": shared | entity | span,
                "multitask": shared | entity | span,
                "evidence": shared | entity | {"ev.w", "ev.b"}}[system]

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_exact_names(self, small_config, system):
        params = init_params(apply_system(small_config, system), seed=0)
        assert set(params) == self.expected(system)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_kept_arrays_match_fused_draw(self, small_config, system):
        fused = init_params(apply_system(small_config, "fused"), seed=5)
        params = init_params(apply_system(small_config, system), seed=5)
        for name in set(params) & set(fused):
            np.testing.assert_array_equal(params[name].data,
                                          fused[name].data, err_msg=name)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_parameter_gets_gradient(self, small_config, system):
        config = apply_system(small_config, system)
        params = init_params(config, seed=0)
        rng = np.random.default_rng(16)
        batch = make_batch(config, rng, b=4)
        out = mdl.forward(params, config, batch)
        if config.mode == "span":
            parts = mdl.multitask_loss(out, batch.answer_start,
                                       batch.answer_end, batch.lf_ids,
                                       omega=config.omega)
        else:
            parts = mdl.evidence_loss(out, np.array([1, 0, 1, 0]),
                                      batch.lf_ids, omega=config.omega)
        parts.total.backward()
        for name, p in params.items():
            # the LF head stays built at omega = 0: evaluation reads its
            # logits on every system
            if config.omega == 0 and name.startswith("lf."):
                assert p.grad is None, name
            else:
                assert p.grad is not None and np.abs(p.grad).sum() > 0, name


class TestBaselineReduction:
    def test_all_zero_entities_use_entity_free_path(self, small_config,
                                                    small_params):
        rng = np.random.default_rng(12)
        ids = np.zeros((2, 12), dtype=np.int64)
        batch = make_batch(small_config, rng, entity_ids=ids)
        fused_on = mdl.forward(small_params, small_config, batch)
        config_off = mdl.ModelConfig(**{**small_config.__dict__,
                                        "use_entities": False})
        fused_off = mdl.forward(small_params, config_off, batch)
        np.testing.assert_array_equal(fused_on.fused.data,
                                      fused_off.fused.data)

    def test_untagged_positions_ignore_fuse_we(self, small_config):
        params = init_params(small_config, seed=2)
        rng = np.random.default_rng(17)
        for _ in range(20):
            batch = make_batch(small_config, rng)
            batch.entity_ids[rng.random(batch.entity_ids.shape) < 0.5] = 0
            untagged = (batch.entity_ids == 0) | ~batch.attention_mask
            before = mdl.forward(params, small_config, batch).fused.data
            perturbed = {**params, "fuse.we": Tensor(
                params["fuse.we"].data
                + rng.normal(0.0, 1.0, params["fuse.we"].shape))}
            after = mdl.forward(perturbed, small_config, batch).fused.data
            np.testing.assert_array_equal(before[untagged], after[untagged])
            if (~untagged).any():
                assert not np.array_equal(before[~untagged], after[~untagged])


def _brute_force_span(s, e, mask, maxlen):
    """First (start, end) in row-major order with the highest score."""
    best, best_score = None, -np.inf
    for i in range(len(s)):
        for j in range(i, min(len(s), i + maxlen)):
            if mask[i] and mask[j] and s[i] + e[j] > best_score:
                best_score = s[i] + e[j]
                best = (i, j)
    return best


class TestDecodeSpan:
    def _check_batch(self, s, e, mask, maxlen):
        starts, ends = decode_span(s, e, mask, maxlen)
        assert starts.shape == ends.shape == (len(s),)
        for row in range(len(s)):
            assert (starts[row], ends[row]) == _brute_force_span(
                s[row], e[row], mask[row], maxlen)

    def test_one_hot(self):
        logits = np.full((1, 6), -10.0)
        logits[0, 3] = 5.0
        starts, ends = decode_span(logits, logits, np.ones((1, 6), bool), 4)
        assert (starts.tolist(), ends.tolist()) == ([3], [3])

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(13)
        L = 10
        maxlens = rng.integers(1, 5, size=200)
        s = rng.normal(size=(200, L))
        e = rng.normal(size=(200, L))
        mask = rng.random((200, L)) < 0.7
        mask[~mask.any(axis=1), 0] = True
        for maxlen in np.unique(maxlens):  # one batch per max_answer_len
            rows = maxlens == maxlen
            self._check_batch(s[rows], e[rows], mask[rows], int(maxlen))

    def test_ties_go_to_first_pair(self):
        rng = np.random.default_rng(15)
        s = rng.integers(-2, 3, size=(100, 9)).astype(float)
        e = rng.integers(-2, 3, size=(100, 9)).astype(float)
        mask = rng.random((100, 9)) < 0.8
        mask[:, 4] = True
        for maxlen in (1, 3, 9):
            self._check_batch(s, e, mask, maxlen)
        # all-equal logits: every valid pair ties, the first context token wins
        flat = np.zeros((1, 6))
        starts, ends = decode_span(flat, flat, np.ones((1, 6), bool), 3)
        assert (starts[0], ends[0]) == (0, 0)

    def test_max_len_beyond_sequence(self):
        rng = np.random.default_rng(16)
        s = rng.normal(size=(20, 7))
        e = rng.normal(size=(20, 7))
        mask = np.ones((20, 7), bool)
        mask[:, :2] = False
        self._check_batch(s, e, mask, 50)

    def test_max_len_one_forces_point_span(self):
        rng = np.random.default_rng(14)
        starts, ends = decode_span(rng.normal(size=(50, 8)),
                                   rng.normal(size=(50, 8)),
                                   np.ones((50, 8), bool), 1)
        np.testing.assert_array_equal(starts, ends)

    def test_empty_context_raises(self):
        with pytest.raises(mdl.DecodeError):
            decode_span(np.zeros((1, 4)), np.zeros((1, 4)),
                        np.zeros((1, 4), bool), 3)

    def test_one_empty_row_in_batch_raises(self):
        mask = np.ones((3, 5), bool)
        mask[1] = False
        with pytest.raises(mdl.DecodeError):
            decode_span(np.zeros((3, 5)), np.zeros((3, 5)), mask, 3)


class TestDeterminism:
    def test_forward_deterministic(self, small_config, small_params):
        rng = np.random.default_rng(15)
        batch = make_batch(small_config, rng)
        a = mdl.forward(small_params, small_config, batch,
                        train=True, rng=np.random.default_rng(7))
        b = mdl.forward(small_params, small_config, batch,
                        train=True, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.fused.data, b.fused.data)

    def test_init_deterministic(self, small_config):
        a = init_params(small_config, seed=3)
        b = init_params(small_config, seed=3)
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)


def _record_nodes(monkeypatch) -> list:
    """The list every later op result is appended to."""
    nodes = []
    make = Tensor._make

    def recording_make(data, inputs, vjp):
        out = make(data, inputs, vjp)
        nodes.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
    return nodes


class TestLeanGraph:
    """A full training forward and loss, walked by one backward."""

    @staticmethod
    def _train_step(config):
        params = init_params(config, seed=0)
        batch = make_batch(config, np.random.default_rng(16))
        out = mdl.forward(params, config, batch, train=True,
                          rng=np.random.default_rng(17))
        mdl.multitask_loss(out, batch.answer_start, batch.answer_end,
                           batch.lf_ids, omega=0.3).total.backward()
        return params

    def test_backward_frees_every_op_result(self, small_config, monkeypatch):
        config = dataclasses.replace(small_config, dropout=0.1)
        nodes = _record_nodes(monkeypatch)
        params = self._train_step(config)
        assert nodes
        for out in nodes:
            assert not out.requires_grad
            if out._node is not None:
                assert out._node.inputs == () and out._node.vjp is None
                assert out._node.grad is None
        assert all(p.grad is not None for p in params.values())

    def test_one_block_records_six_nodes(self, small_config, small_params,
                                         monkeypatch):
        # the attention and feed-forward sublayers, two dropouts and two
        # residual adds
        config = dataclasses.replace(small_config, dropout=0.1)
        batch = make_batch(config, np.random.default_rng(18))
        x = Tensor(np.random.default_rng(19).normal(size=(2, 12, 16)))
        nodes = _record_nodes(monkeypatch)
        out = mdl._attn_block(x, small_params, "enc0", config.heads,
                              batch.attention_mask, config,
                              np.random.default_rng(20), train=True)
        assert out.requires_grad
        assert len(nodes) == 6

    def test_block_holds_only_what_backward_reads(self):
        # one training-mode block keeps two sublayers' normalized rows and
        # inverse deviations, the feed-forward cdf, two dropout masks and
        # the mask bias, besides its output; an array kept twice (a layer
        # norm's output, q, k or v) would exceed the allowance
        config = ModelConfig(vocab_size=40, hidden_dim=64, layers=1, heads=4,
                             dropout=0.1, max_seq_len=32, ffn_mult=4)
        params = init_params(config, seed=0)
        B, L, d, n = 4, 32, 64, 256
        x = Tensor(np.random.default_rng(21).normal(size=(B, L, d)),
                   requires_grad=True)
        mask = np.ones((B, L), dtype=bool)
        mask[1:, 20:] = False
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = mdl._attn_block(x, params, "enc0", config.heads, mask,
                                  config, np.random.default_rng(22),
                                  train=True)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        floats = out.data.size + 2 * B * L * d + 2 * B * L + B * L * n + B * L
        masks = 2 * B * L * d
        expected = 8 * floats + masks
        assert expected <= held < expected + (32 << 10), held - expected

    def test_gradients_equal_the_unfused_graph(self, small_config,
                                               monkeypatch):
        # tensor_reference's chains of nodes stand in for each linear,
        # layer norm and pre-norm sublayer node of the package
        config = dataclasses.replace(small_config, dropout=0.1)
        lean = self._train_step(config)
        monkeypatch.setattr(T, "linear", ref.linear)
        monkeypatch.setattr(T, "attention", ref.pre_norm_attention)
        monkeypatch.setattr(T, "ffn", ref.pre_norm_ffn)
        monkeypatch.setattr(T, "layer_norm", ref.layer_norm)
        unfused = self._train_step(config)
        for name, p in lean.items():
            np.testing.assert_array_equal(p.grad, unfused[name].grad,
                                          err_msg=name)


class TestGradcheckFragments:
    def test_all_fragments_pass(self):
        errors = mdl.fragment_gradchecks(seed=1)
        assert {k.split("/")[0] for k in errors} == {
            "linear", "fusion", "entity_encoder", "encoder", "span_head",
            "lf_head", "full_model"}
        assert max(errors.values()) <= 1e-4, {
            k: v for k, v in errors.items() if v > 1e-4}


# Acceptance-size training steps and eval forwards in a fresh process: after
# warm-up, the minor page faults per call. In-suite, glibc's dynamic mmap
# threshold would already have been raised by earlier tests.
FAULT_PROBE = """
import resource

import numpy as np
from entqa import model as mdl
from entqa.model import Batch, ModelConfig, init_params

B, L = 32, 48
config = ModelConfig(vocab_size=200, hidden_dim=48, layers=1, heads=2,
                     entity_dim=12, entity_heads=2, dropout=0.1,
                     max_seq_len=L, ffn_mult=2)
params = init_params(config, seed=0)
rng = np.random.default_rng(0)
mask = np.arange(L) < rng.integers(L // 2, L + 1, size=(B, 1))
ctx = mask & (np.arange(L) >= 8)
batch = Batch(token_ids=rng.integers(1, config.vocab_size, size=(B, L)) * mask,
              segment_ids=ctx.astype(np.int64),
              attention_mask=mask, entity_ids=rng.integers(
                  0, config.entity_vocab_size, size=(B, L)) * mask,
              context_mask=ctx, answer_start=np.full(B, 9),
              answer_end=np.full(B, 11),
              lf_ids=rng.integers(0, config.num_lf_classes, size=B))


def train_step():
    out = mdl.forward(params, config, batch, train=True, rng=rng)
    mdl.multitask_loss(out, batch.answer_start, batch.answer_end,
                       batch.lf_ids, config.omega).total.backward()


def eval_forward():
    mdl.forward(params, config, batch)


def faults_per_call(fn, warm=5, timed=20):
    for _ in range(warm):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(timed):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / timed


print(faults_per_call(train_step), faults_per_call(eval_forward))
"""


class TestAllocator:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the thresholds are glibc's")
    def test_steps_fault_in_no_freed_heap(self):
        # without the thresholds a step faulted 1952-4080 times, a forward
        # up to 1952
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       filter(None, [str(root / "src"),
                                     os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=120)
        train, forward = map(float, run.stdout.split())
        assert train <= 100, f"{train} minor faults per training step"
        assert forward <= 100, f"{forward} minor faults per eval forward"

    def test_thresholds_are_set_once_each(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        entqa._keep_freed_heap()
        assert calls == [(-3, 64 << 20), (-1, 256 << 20)]

    @pytest.mark.parametrize("libc", ["unloadable", "without_mallopt"])
    def test_no_glibc_does_nothing(self, monkeypatch, libc):
        # musl and macOS: `import entqa` must still work
        calls = []

        def cdll(name):
            calls.append(name)
            if libc == "unloadable":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        entqa._keep_freed_heap()
        assert calls == [None]
