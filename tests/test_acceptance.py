"""End-to-end acceptance gate.

Each test prints a one-line PASS summary with the measured numbers so a CI
log shows the margins, not just green dots. The directional comparisons
(criteria 6-8) train real models and take several minutes combined.
"""

import re
import string
import time
from collections import Counter

import numpy as np
import pytest

from entqa import model as mdl
from entqa import trainer as tr
from entqa.corpus import (LOGICAL_FORMS, build_paragraph_context,
                          build_templates, generate_corpus,
                          instantiate_questions)
from entqa.metrics import (evidence_scores, lf_exact_scores,
                           lf_relaxed_scores, span_em, token_f1)
from entqa.model import ModelConfig
from entqa.optim import AdamState, adam_step
from entqa.splits import (filter_examples, leakage_audit, make_assignment,
                          partition_templates)
from entqa.textpipe import Vocab
from entqa.trainer import TrainConfig


# ---------------------------------------------------------------------------
# Shared experiment setup for the directional criteria (6-8). One corpus,
# one vocabulary, one small-but-real model; everything seeded.
# ---------------------------------------------------------------------------

SMALL_MODEL = dict(hidden_dim=48, layers=1, heads=2, entity_dim=12,
                   entity_heads=2, dropout=0.1, max_seq_len=48, ffn_mult=2,
                   omega=0.3)
SMALL_TRAIN = dict(lr=5e-4, weight_decay=1e-5, epochs=4, batch_size=32,
                   patience=2)
# The evidence comparison is most sensitive at a slightly smaller width.
EVIDENCE_MODEL = {**SMALL_MODEL, "hidden_dim": 32, "entity_dim": 8}
MATRIX_SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def sentence_corpus():
    notes = generate_corpus(seed=0, num_notes=110)
    examples = instantiate_questions(notes, build_templates())
    assert len(examples) >= 5000
    vocab = Vocab.build([e.question for e in examples]
                        + [e.context_text for e in examples])
    return notes, examples, vocab


@pytest.fixture(scope="module")
def matrix(sentence_corpus):
    """Four-system comparison used by criteria 6 and 7."""
    notes, examples, vocab = sentence_corpus
    templates = build_templates()
    splits = {mode: filter_examples(
        examples, make_assignment(notes, templates, mode, seed=0))
        for mode in ("pl", "r")}
    mc = ModelConfig(vocab_size=len(vocab), **SMALL_MODEL)
    tc = TrainConfig(system="multitask", **SMALL_TRAIN)
    t0 = time.time()
    result = tr.run_matrix(splits, vocab, mc, tc, seeds=MATRIX_SEEDS)
    result["elapsed"] = time.time() - t0
    return result


def _cell_f1(matrix_result, system, mode):
    return float(np.mean(matrix_result["cells"][(system, mode)]["f1"]))


# ---------------------------------------------------------------------------
# Criterion 1: gradient fidelity.
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    worst = 0.0
    for seed in range(10):
        errors = mdl.fragment_gradchecks(seed=seed)
        assert max(errors.values()) <= 1e-4, f"seed {seed}: {errors}"
        worst = max(worst, *errors.values())
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"\nPASS criterion 1: gradcheck over 10 seeds, worst rel err "
          f"{worst:.2e} <= 1e-4, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# Criterion 2: metric implementations vs independent brute-force oracles.
# The oracles below are deliberately re-derived from scratch.
# ---------------------------------------------------------------------------

_ORACLE_WORDS = ["the", "a", "aspirin", "40", "mg", "daily", "pain", "x1!"]


def _oracle_normalize(text):
    text = text.lower()
    text = "".join(ch for ch in text if ch not in string.punctuation)
    toks = [t for t in text.split() if t not in ("a", "an", "the")]
    return toks


def _oracle_f1(pred_toks, gold_toks):
    if not pred_toks and not gold_toks:
        return 1.0
    overlap = sum(min(pred_toks.count(w), gold_toks.count(w))
                  for w in set(pred_toks))
    if overlap == 0:
        return 0.0
    p = overlap / len(pred_toks)
    r = overlap / len(gold_toks)
    return 2 * p * r / (p + r)


def _oracle_prf(preds, golds, classes):
    per, sup = [], []
    for c in classes:
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        pred_c = sum(1 for p in preds if p == c)
        gold_c = sum(1 for g in golds if g == c)
        p = tp / pred_c if pred_c else 0.0
        r = tp / gold_c if gold_c else 0.0
        per.append((p, r, 2 * p * r / (p + r) if p + r else 0.0))
        sup.append(gold_c)
    total = sum(sup)
    return tuple(sum(s / total * per[i][k] for i, s in enumerate(sup))
                 for k in range(3))


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(42)
    # span EM / token F1
    for _ in range(100):
        pred = " ".join(rng.choice(_ORACLE_WORDS,
                                   size=rng.integers(0, 6)))
        gold = " ".join(rng.choice(_ORACLE_WORDS,
                                   size=rng.integers(1, 6)))
        pt, gt = _oracle_normalize(pred), _oracle_normalize(gold)
        assert span_em(pred, gold) == int(pt == gt)
        assert token_f1(pred, gold) == pytest.approx(_oracle_f1(pt, gt),
                                                     abs=1e-12)
    # LF exact (support-weighted)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 9, size=n).tolist()
        golds = rng.integers(0, 9, size=n).tolist()
        got = lf_exact_scores(preds, golds)
        want = _oracle_prf(preds, golds, range(9))
        assert (got.precision, got.recall, got.f1) == \
            pytest.approx(want, abs=1e-12)
    # LF relaxed (per-example multiset overlap)
    toks = {lf.lf_id: lf.lf_tokens for lf in LOGICAL_FORMS}
    for _ in range(100):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 9, size=n).tolist()
        golds = rng.integers(0, 9, size=n).tolist()
        fs = []
        for p, g in zip(preds, golds):
            ov = sum(min(toks[p][w], toks[g][w]) for w in toks[p])
            pr = ov / sum(toks[p].values())
            rc = ov / sum(toks[g].values())
            fs.append(2 * pr * rc / (pr + rc) if pr + rc else 0.0)
        assert lf_relaxed_scores(preds, golds).f1 == \
            pytest.approx(np.mean(fs), abs=1e-12)
    # evidence (binary, support-weighted)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, size=n).tolist()
        golds = rng.integers(0, 2, size=n).tolist()
        got = evidence_scores(preds, golds)
        want = _oracle_prf(preds, golds, (0, 1))
        assert (got.precision, got.recall, got.f1) == \
            pytest.approx(want, abs=1e-12)
    print("\nPASS criterion 2: span EM/F1, LF exact, LF relaxed and "
          "evidence P/R/F1 all match brute-force oracles on 100 cases each")


# ---------------------------------------------------------------------------
# Criterion 3: relaxed dominance on random prediction vectors.
# ---------------------------------------------------------------------------

def test_criterion_3_relaxed_dominance():
    rng = np.random.default_rng(7)
    min_margin = np.inf
    for _ in range(1000):
        n = int(rng.integers(30, 200))
        preds = rng.integers(0, 9, size=n).tolist()
        golds = rng.integers(0, 9, size=n).tolist()
        exact = lf_exact_scores(preds, golds).f1
        relaxed = lf_relaxed_scores(preds, golds).f1
        assert relaxed >= exact - 1e-12
        min_margin = min(min_margin, relaxed - exact)
    print(f"\nPASS criterion 3: relaxed F1 >= exact F1 on 1000 random "
          f"vectors (smallest margin {min_margin:.3f})")


# ---------------------------------------------------------------------------
# Criterion 4: split integrity over 20 seeds + the 6 -> 4/2 partition.
# ---------------------------------------------------------------------------

def test_criterion_4_split_integrity():
    notes = generate_corpus(seed=0, num_notes=25)
    examples = instantiate_questions(notes, build_templates())
    templates = build_templates()
    for seed in range(20):
        assignment = make_assignment(notes, templates, "pl", seed=seed)
        train, val, test = filter_examples(examples, assignment)
        audit = leakage_audit(train, val + test, assignment)
        assert audit["note_overlap"] == 0, seed
        assert audit["template_overlap"] == 0, seed
    tr6, ev6 = partition_templates({0: [f"t{i}" for i in range(6)]}, 0.7,
                                   seed=0)
    assert len(tr6[0]) == 4 and len(ev6[0]) == 2
    print("\nPASS criterion 4: zero note/template leakage over 20 pl "
          "seeds; 6 templates partition 4/2")


# ---------------------------------------------------------------------------
# Criterion 5: single-batch overfit.
# ---------------------------------------------------------------------------

def test_criterion_5_overfit_sanity():
    t0 = time.time()
    notes = generate_corpus(seed=0, num_notes=2, facts_per_note=4)
    examples = instantiate_questions(notes, build_templates())
    rng = np.random.default_rng(0)
    chosen = [examples[i] for i in
              rng.choice(len(examples), size=8, replace=False)]
    vocab = Vocab.build([e.question for e in chosen]
                        + [e.context_text for e in chosen])
    pairs = tr.encode_examples(chosen, vocab, 48)
    assert len(pairs) == 8
    config = ModelConfig(vocab_size=len(vocab), **{**SMALL_MODEL,
                                                   "dropout": 0.0})
    params = mdl.init_params(config, seed=0)
    state = AdamState(weight_decay=0.0)
    batch = tr._slice_batch(mdl.make_batch(pairs), range(8))
    solved_at = None
    for step in range(300):
        out = mdl.forward(params, config, batch, train=False)
        parts = mdl.multitask_loss(out, batch.answer_start, batch.answer_end,
                                   batch.lf_ids, omega=config.omega)
        for p in params.values():
            p.grad = None
        parts.total.backward()
        adam_step(params, state, lr=1e-3)
        if step % 10 == 9:
            report = tr.evaluate_pairs(params, config, pairs)
            conf = np.array(report.confusion)
            lf_acc = np.trace(conf) / conf.sum()
            if report.em == 1.0 and lf_acc == 1.0:
                solved_at = step + 1
                break
    elapsed = time.time() - t0
    assert solved_at is not None, "did not overfit within 300 steps"
    assert elapsed < 60
    print(f"\nPASS criterion 5: 8 examples at EM 1.0 and LF acc 1.0 after "
          f"{solved_at} steps, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# Criterion 6: directional generalization on unseen paraphrases.
# ---------------------------------------------------------------------------

def test_criterion_6_directional_generalization(matrix):
    base = _cell_f1(matrix, "baseline", "pl")
    fused = _cell_f1(matrix, "fused", "pl")
    multi = _cell_f1(matrix, "multitask", "pl")
    assert fused - base >= 1.0, tr.format_matrix(matrix["cells"])
    assert multi - fused >= 1.0, tr.format_matrix(matrix["cells"])
    assert matrix["elapsed"] < 1800
    print(f"\nPASS criterion 6: fused {fused:.2f} > baseline {base:.2f} "
          f"(+{fused - base:.2f}) and multitask {multi:.2f} > fused "
          f"(+{multi - fused:.2f}) span F1 over {len(MATRIX_SEEDS)} seeds; "
          f"{matrix['elapsed']:.0f}s < 1800s")


# ---------------------------------------------------------------------------
# Criterion 7: the r split bounds the pl split from above.
# ---------------------------------------------------------------------------

def test_criterion_7_upper_bound_ordering(matrix):
    fused_pl = _cell_f1(matrix, "fused", "pl")
    fused_r = _cell_f1(matrix, "fused", "r")
    assert fused_r >= fused_pl, tr.format_matrix(matrix["cells"])
    print(f"\nPASS criterion 7: fused on r split {fused_r:.2f} >= fused on "
          f"pl split {fused_pl:.2f} on the shared test set (3 seeds)")


# ---------------------------------------------------------------------------
# Criterion 8: the LF auxiliary also helps evidence classification.
# ---------------------------------------------------------------------------

def test_criterion_8_evidence_mode():
    notes = generate_corpus(seed=0, num_notes=30)
    sent = instantiate_questions(notes, build_templates())
    by_id = {n.note_id: n for n in notes}
    prng = np.random.default_rng(1)
    paras = [build_paragraph_context(ex, by_id[ex.note_id], prng)
             for ex in sent]
    vocab = Vocab.build([e.question for e in paras]
                        + [e.context_text for e in paras])
    assignment = make_assignment(notes, build_templates(), "pl", seed=0)
    train_ex, val_ex, test_ex = filter_examples(paras, assignment)

    def encode(exs, seed):
        rng = np.random.default_rng(seed)
        return tr.encode_evidence_examples(
            tr.make_evidence_examples(exs, rng), vocab, 48)[0]

    train_pairs = encode(train_ex, 10)
    val_pairs = encode(val_ex, 11)
    test_pairs = encode(test_ex, 12)
    scores = {}
    for omega in (0.2, 0.0):
        mc = ModelConfig(vocab_size=len(vocab),
                         **{**EVIDENCE_MODEL, "omega": omega})
        f1s = []
        for seed in MATRIX_SEEDS:
            tc = TrainConfig(seed=seed, system="evidence", **SMALL_TRAIN)
            result = tr.train(train_pairs, val_pairs, mc, tc)
            report = tr.evaluate_pairs(result.params, result.model_config,
                                       test_pairs)
            f1s.append(report.evidence.f1)
        scores[omega] = float(np.mean(f1s))
    assert scores[0.2] >= scores[0.0], scores
    print(f"\nPASS criterion 8: evidence-mode multitask F1 "
          f"{scores[0.2]:.4f} >= no-auxiliary F1 {scores[0.0]:.4f} "
          f"(3 seeds)")


# ---------------------------------------------------------------------------
# Criterion 9: loss algebra at the 1e-12 level.
# ---------------------------------------------------------------------------

def test_criterion_9_loss_algebra():
    from entqa.tensor import Tensor
    ln2 = np.log(2.0)
    span_out = mdl.HeadOutputs(start_logits=Tensor([[0.0, 0.0]]),
                               end_logits=Tensor([[0.0, 0.0]]),
                               lf_logits=Tensor([[0.0, 0.0]]))
    for omega in (0.0, 0.3, 0.5, 1.0):
        parts = mdl.multitask_loss(span_out, [0], [1], [1], omega=omega)
        # span CE = LF CE = ln 2 here, so total must equal ln 2 exactly
        assert abs(parts.total.item()
                   - (omega * ln2 + (1 - omega) * ln2)) < 1e-12
        assert abs(parts.span - ln2) < 1e-12
        if omega == 0:   # L_lf is not computed at omega = 0
            assert parts.lf is None
        else:
            assert abs(parts.lf - ln2) < 1e-12
    # asymmetric components: three-way LF CE vs binary span CE
    span_out2 = mdl.HeadOutputs(start_logits=Tensor([[0.0, 0.0]]),
                                end_logits=Tensor([[0.0, 0.0]]),
                                lf_logits=Tensor([[0.0, 0.0, 0.0]]))
    parts = mdl.multitask_loss(span_out2, [0], [1], [2], omega=0.3)
    want = 0.3 * np.log(3.0) + 0.7 * ln2
    assert abs(parts.total.item() - want) < 1e-12
    ev_out = mdl.HeadOutputs(evidence_logit=Tensor([0.0]),
                             lf_logits=Tensor([[0.0, 0.0, 0.0]]))
    for omega in (0.0, 0.2, 1.0):
        parts = mdl.evidence_loss(ev_out, [1], [0], omega=omega)
        want = omega * np.log(3.0) + (1 - omega) * ln2
        assert abs(parts.total.item() - want) < 1e-12
    print("\nPASS criterion 9: multi-task and evidence loss arithmetic "
          "exact to 1e-12, including omega in {0, 1}")
