"""Each benchmark check passes on the program's real output and fails on
a deliberately corrupted copy of it.

Run with: python3 -m pytest -q perfbench/tests
"""

import copy
import math

import numpy as np
import pytest

import checks as C
from entqa import model as mdl
from entqa import trainer as tr
from entqa.checkpoint import load_checkpoint, save_checkpoint
from entqa.corpus import (build_paragraph_context, build_templates,
                          generate_corpus, instantiate_questions)
from entqa.metrics import evidence_scores
from entqa.model import ModelConfig
from entqa.textpipe import Vocab

L = 64


@pytest.fixture(scope="module")
def paragraphs():
    notes = generate_corpus(seed=3, num_notes=3)
    sent = instantiate_questions(notes, build_templates())
    by_id = {n.note_id: n for n in notes}
    rng = np.random.default_rng(4)
    examples = [build_paragraph_context(ex, by_id[ex.note_id], rng)
                for ex in sent[:60]]
    vocab = Vocab.build([e.question for e in examples]
                        + [e.context_text for e in examples])
    return examples, vocab, sent[:16]


@pytest.fixture(scope="module")
def scored(paragraphs):
    """A tiny untrained model, its pairs, logits and EvalReport."""
    examples, vocab, sentences = paragraphs
    config = ModelConfig(vocab_size=len(vocab), hidden_dim=16, layers=1,
                         heads=2, entity_dim=8, entity_heads=2,
                         max_seq_len=L, ffn_mult=2)
    params = mdl.init_params(config, 0)
    pairs = tr.encode_examples(examples, vocab, L)
    report = tr.evaluate_pairs(params, config, pairs, include_lf=True)
    batch = mdl.make_batch(pairs)
    out = mdl.forward(params, config, batch, train=False)
    by_id = {ex.id: ex for ex in examples}
    kept = [by_id[p.meta["id"]] for p in pairs]
    # sentence contexts leave most of each row padded
    padded = mdl.make_batch(tr.encode_examples(sentences, vocab, L))
    return dict(config=config, params=params, pairs=pairs, report=report,
                start=out.start_logits.data, end=out.end_logits.data,
                lf=out.lf_logits.data, kept=kept, padded=padded)


def _oracle(s, start=None):
    cfg = s["config"]
    span = C.oracle_span_scores(s["kept"], s["start"] if start is None else start,
                                s["end"], cfg.max_seq_len, cfg.max_answer_len)
    lf = (s["lf"].argmax(axis=1).tolist(), [ex.lf_id for ex in s["kept"]])
    return span, lf


# -- dropped questions -------------------------------------------------------

def test_dropped_count_agrees_with_encoder(paragraphs):
    examples, vocab, _ = paragraphs
    dropped = len(examples) - len(tr.encode_examples(examples, vocab, L))
    assert dropped > 0
    assert C.check_dropped(dropped, examples, L) == []


def test_wrong_dropped_count_fails(paragraphs):
    examples, vocab, _ = paragraphs
    dropped = len(examples) - len(tr.encode_examples(examples, vocab, L))
    assert C.check_dropped(dropped + 1, examples, L)
    assert C.check_dropped(dropped - 1, examples, L)


# -- scoring oracle -----------------------------------------------------------

def test_oracle_reproduces_report(scored):
    span, lf = _oracle(scored)
    assert C.check_scoring(scored["report"], n_expected=len(scored["pairs"]),
                           span=span, lf=lf) == []


def test_best_span_brute_force():
    start = np.array([0.0, 5.0, 1.0, 0.0, 9.0])
    end = np.array([0.0, 0.0, 4.0, 0.0, -9.0])
    assert C.best_span(start, end, first=1, count=4, max_answer_len=3) == (1, 2)
    # (1, 1) and (2, 2) tie at 5: the first in (start, end) order wins
    assert C.best_span(start, end, first=1, count=4, max_answer_len=1) == (1, 1)


def test_shifted_span_fails(scored):
    # a decoder that lands one token to the right of the best span
    shifted = np.roll(scored["start"], 1, axis=1)
    span, lf = _oracle(scored, start=shifted)
    assert C.check_scoring(scored["report"], n_expected=len(scored["pairs"]),
                           span=span, lf=lf)


@pytest.mark.parametrize("corrupt", [
    lambda r: setattr(r, "em", r.em + 1e-9),
    lambda r: setattr(r, "token_f1", r.token_f1 * (1 + 1e-9) + 1e-9),
    lambda r: setattr(r.lf_exact, "recall", r.lf_exact.recall + 1e-6),
    lambda r: r.confusion[0].__setitem__(0, r.confusion[0][0] + 1),
    lambda r: setattr(r, "n_examples", r.n_examples - 1),
])
def test_misscored_report_fails(scored, corrupt):
    report = copy.deepcopy(scored["report"])
    corrupt(report)
    span, lf = _oracle(scored)
    assert C.check_scoring(report, n_expected=len(scored["pairs"]),
                           span=span, lf=lf)


def test_evidence_oracle_matches_program():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        preds = rng.integers(0, 2, size=n).tolist()
        golds = rng.integers(0, 2, size=n).tolist()
        assert C.weighted_f1(preds, golds, (0, 1)) == pytest.approx(
            evidence_scores(preds, golds).f1, abs=1e-12)


# -- invariance -----------------------------------------------------------------

def test_model_is_padding_invariant(scored):
    cfg, params = scored["config"], scored["params"]
    fails = C.check_invariance(
        lambda b: mdl.forward(params, cfg, b, train=False), scored["padded"],
        np.random.default_rng(1), cfg.vocab_size, cfg.entity_vocab_size)
    assert fails == []


def test_perturbed_padded_position_fails(scored):
    cfg, params = scored["config"], scored["params"]

    def leaky(batch):
        # reads one padded position of every row into the LF logits
        out = mdl.forward(params, cfg, batch, train=False)
        pad = ~batch.attention_mask
        last = np.where(pad.any(axis=1), batch.token_ids[:, -1], 0)
        out.lf_logits.data = out.lf_logits.data + 1e-3 * last[:, None]
        return out

    fails = C.check_invariance(leaky, scored["padded"],
                               np.random.default_rng(1), cfg.vocab_size,
                               cfg.entity_vocab_size)
    assert any("padded" in f for f in fails)


def test_batch_dependence_fails(scored):
    cfg, params = scored["config"], scored["params"]

    def pooled(batch):
        out = mdl.forward(params, cfg, batch, train=False)
        out.lf_logits.data = out.lf_logits.data + out.lf_logits.data.mean(0)
        return out

    fails = C.check_invariance(pooled, scored["padded"],
                               np.random.default_rng(1), cfg.vocab_size,
                               cfg.entity_vocab_size)
    assert any("alone" in f for f in fails)


# -- checkpoint -------------------------------------------------------------------

def test_checkpoint_round_trip(scored, tmp_path):
    params = scored["params"]
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, params, "digest")
    arrays, _ = load_checkpoint(path)
    saved = {k: v.data for k, v in params.items()}
    assert C.check_checkpoint(saved, arrays, arrays) == []
    bad = dict(arrays)
    bad["fuse.b"] = arrays["fuse.b"] + 1e-6
    assert C.check_checkpoint(saved, bad, bad)
    assert C.check_checkpoint(saved, arrays, bad)
    assert C.check_checkpoint(saved, {k: v for k, v in arrays.items()
                                      if k != "lf.b"}, arrays)


# -- training -----------------------------------------------------------------------

def test_initial_loss_of_real_training(scored):
    cfg, pairs = scored["config"], scored["pairs"]
    tc = tr.TrainConfig(system="multitask", epochs=1, batch_size=16,
                        lr=1e-3, seed=0)
    result = tr.train(pairs, pairs[:8], cfg, tc)
    counts = C.context_counts(scored["kept"], L)
    expected = C.expected_initial_loss(cfg.omega, "span", counts, 16)
    assert C.check_initial_loss(result.log[0]["L_total"], expected) == []
    # omega wrong by 0.3: the LF and span terms are weighed differently
    wrong = C.expected_initial_loss(0.0, "span", counts, 16)
    assert C.check_initial_loss(result.log[0]["L_total"], wrong)
    assert C.check_initial_loss(result.log[0]["L_total"] * 1.05, expected)


def test_initial_loss_allows_for_the_batch():
    counts = [8] * 50 + [40] * 50
    value, allowance = C.expected_initial_loss(0.0, "span", counts, 16)
    assert value == pytest.approx(math.log(8 * 40) / 2)
    # a batch of short contexts sits within four standard errors
    assert C.check_initial_loss(value - 0.4, (value, allowance)) == []
    assert C.check_initial_loss(value - 0.4, (value, 0.0))


def test_training_behaviour_checks():
    good = [{"step": i, "L_total": 3.0 - 0.1 * i} for i in range(6)]
    assert C.check_training_behaves(good, 3, aborted=False) == []
    assert C.check_training_behaves(good, 3, aborted=True)
    flat = [{"step": i, "L_total": 3.0 + 0.01 * (i % 2)} for i in range(6)]
    assert C.check_training_behaves(flat, 3, aborted=False)
    nan = good[:5] + [{"step": 5, "L_total": math.nan}]
    assert C.check_training_behaves(nan, 3, aborted=False)
    assert C.check_training_helps(0.5, 0.2) == []
    assert C.check_training_helps(0.2, 0.2)


def test_evidence_initial_loss():
    assert C.expected_initial_loss(0.3, "evidence") == pytest.approx(
        (0.3 * math.log(9) + 0.7 * math.log(2), 0.0), abs=1e-15)
