"""Correctness checks run after every benchmark workload.

Each check is derived apart from the program: text is re-tokenized with
this file's own regex, spans are re-decoded by brute force, answers are
re-normalized and re-scored here, and expected values come from
properties the method must have (near-uniform logits at initialization,
padding invariance, float32 checkpoint storage). Nothing is compared
against a stored copy of an earlier run's output.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter

import numpy as np

_TOKEN = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")
_PUNCT = set(string.punctuation)
NUM_LF_CLASSES = 9


def tokens(text: str) -> list[tuple[int, int]]:
    """Character spans of lowercased word and punctuation tokens."""
    return [(m.start(), m.end()) for m in _TOKEN.finditer(text.lower())]


def context_layout(question: str, context: str, max_seq_len: int):
    """Where the context sits in `[CLS] q [SEP] c [SEP]` after truncation.

    Returns (first context position, context spans kept, all context spans).
    """
    q = tokens(question)
    budget = max_seq_len - len(q) - 3
    spans = tokens(context)
    return len(q) + 2, spans[:budget], spans


def answer_span(example) -> tuple[int, int]:
    """Character span of the gold answer in the joined context."""
    idx = example.answer["sentence_index"]
    offset = sum(len(s) + 1 for s in example.context_sentences[:idx])
    return offset + example.answer["char_start"], offset + example.answer["char_end"]


def answer_survives(example, max_seq_len: int) -> bool:
    """True when every token of the answer lies inside the truncated context."""
    _, kept, spans = context_layout(example.question, example.context_text,
                                    max_seq_len)
    a0, a1 = answer_span(example)
    hit = [i for i, (s, e) in enumerate(spans) if s < a1 and e > a0]
    return bool(hit) and hit[-1] < len(kept)


def count_dropped(examples, max_seq_len: int) -> int:
    return sum(not answer_survives(ex, max_seq_len) for ex in examples)


def check_dropped(failed: int, examples, max_seq_len: int) -> list[str]:
    counted = count_dropped(examples, max_seq_len)
    if failed != counted:
        return [f"dropped questions: program dropped {failed}, "
                f"token lengths and answer spans give {counted}"]
    return []


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------

def expected_initial_loss(omega: float, mode: str, context_counts=(),
                          batch_size: int = 1) -> tuple[float, float]:
    """Loss of near-uniform logits, omega*ln 9 + (1-omega)*main term, and
    four standard errors of that value over a batch of `batch_size` rows.

    The span term is the mean log of the number of context tokens, taken
    over the training set since step 0 sees one batch of it; the evidence
    term is the binary ln 2.
    """
    if mode == "evidence":
        main, spread = math.log(2.0), 0.0
    else:
        logs = np.log(np.asarray(context_counts, dtype=float))
        main, spread = float(logs.mean()), float(logs.std())
    value = omega * math.log(NUM_LF_CLASSES) + (1.0 - omega) * main
    return value, 4.0 * (1.0 - omega) * spread / math.sqrt(batch_size)


def context_counts(examples, max_seq_len: int) -> list[int]:
    return [len(context_layout(ex.question, ex.context_text, max_seq_len)[1])
            for ex in examples]


def check_initial_loss(step0: float, expected: tuple[float, float],
                       rel_tol: float = 0.03) -> list[str]:
    """Step 0's loss is within `rel_tol` plus the batch allowance."""
    value, allowance = expected
    if not abs(step0 - value) <= rel_tol * value + allowance:
        return [f"initial loss {step0:.6f} is not within {rel_tol:.0%} + "
                f"{allowance:.4f} of the near-uniform value {value:.6f}"]
    return []


def check_training_behaves(log: list[dict], steps_per_epoch: int,
                           aborted: bool) -> list[str]:
    fails = []
    if aborted:
        fails.append("training aborted")
    if not log:
        return fails + ["training logged no steps"]
    for entry in log:
        if not math.isfinite(entry["L_total"]):
            fails.append(f"non-finite loss at step {entry['step']}")
            break
    last = [e["L_total"] for e in log[-steps_per_epoch:]]
    if not np.mean(last) < log[0]["L_total"]:
        fails.append(f"last epoch's mean loss {np.mean(last):.6f} is not "
                     f"below step 0's {log[0]['L_total']:.6f}")
    return fails


def check_training_helps(trained_f1: float, init_f1: float) -> list[str]:
    if not trained_f1 > init_f1:
        return [f"trained F1 {trained_f1:.4f} is not above the F1 "
                f"{init_f1:.4f} of its initial parameters"]
    return []


# ---------------------------------------------------------------------------
# Scoring oracle.
# ---------------------------------------------------------------------------

def normalize(text: str) -> list[str]:
    text = "".join(ch for ch in text.lower() if ch not in _PUNCT)
    return [w for w in text.split() if w not in ("a", "an", "the")]


def exact_match(pred: str, gold: str) -> float:
    return float(normalize(pred) == normalize(gold))


def overlap_f1(pred: str, gold: str) -> float:
    p, g = normalize(pred), normalize(gold)
    if not p and not g:
        return 1.0
    common = sum((Counter(p) & Counter(g)).values())
    if common == 0:
        return 0.0
    prec, rec = common / len(p), common / len(g)
    return 2 * prec * rec / (prec + rec)


def best_span(start: np.ndarray, end: np.ndarray, first: int, count: int,
              max_answer_len: int) -> tuple[int, int]:
    """Brute force over context positions; first maximum in (s, e) order."""
    best, arg = -math.inf, (first, first)
    for s in range(first, first + count):
        for e in range(s, min(s + max_answer_len, first + count)):
            score = float(start[s]) + float(end[e])
            if score > best:
                best, arg = score, (s, e)
    return arg


def oracle_span_scores(examples, start_logits, end_logits,
                       max_seq_len: int, max_answer_len: int):
    """Mean EM and F1 of brute-force decoded spans cut from the context."""
    ems, f1s = [], []
    for ex, st, en in zip(examples, start_logits, end_logits):
        context = ex.context_text
        first, kept, _ = context_layout(ex.question, context, max_seq_len)
        s, e = best_span(st, en, first, len(kept), max_answer_len)
        pred = context[kept[s - first][0]:kept[e - first][1]]
        ems.append(exact_match(pred, ex.answer["text"]))
        f1s.append(overlap_f1(pred, ex.answer["text"]))
    return float(np.mean(ems)), float(np.mean(f1s))


def weighted_f1(preds, golds, classes) -> float:
    """Support-weighted per-class F1."""
    total, out = len(golds), 0.0
    for c in classes:
        tp = sum(p == c and g == c for p, g in zip(preds, golds))
        n_pred = sum(p == c for p in preds)
        n_gold = sum(g == c for g in golds)
        prec = tp / n_pred if n_pred else 0.0
        rec = tp / n_gold if n_gold else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out += n_gold / total * f1
    return out


def check_scoring(report, *, n_expected: int, span=None, lf=None,
                  evidence=None, tol: float = 1e-12) -> list[str]:
    """Compare an EvalReport with oracle scores.

    `span` is (em, f1), `lf` is (predicted ids, gold ids) and `evidence`
    is (predicted labels, gold labels); any may be None.
    """
    fails = []
    if report.n_examples != n_expected:
        fails.append(f"report scores {report.n_examples} questions, "
                     f"{n_expected} were handed to it")
    if span is not None:
        em, f1 = span
        if not abs(report.em - em) <= tol:
            fails.append(f"EM {report.em!r} != oracle {em!r}")
        if not abs(report.token_f1 - f1) <= tol:
            fails.append(f"F1 {report.token_f1!r} != oracle {f1!r}")
    if lf is not None:
        preds, golds = lf
        acc = float(np.mean([p == g for p, g in zip(preds, golds)]))
        # support-weighted recall is accuracy
        if not abs(report.lf_exact.recall - acc) <= tol:
            fails.append(f"LF accuracy {report.lf_exact.recall!r} != "
                         f"oracle {acc!r}")
        if sum(map(sum, report.confusion)) != report.n_examples:
            fails.append(f"confusion matrix sums to "
                         f"{sum(map(sum, report.confusion))}, not "
                         f"{report.n_examples}")
    if evidence is not None:
        want = weighted_f1(*evidence, classes=(0, 1))
        if not abs(report.evidence.f1 - want) <= tol:
            fails.append(f"evidence F1 {report.evidence.f1!r} != "
                         f"oracle {want!r}")
    return fails


# ---------------------------------------------------------------------------
# Properties of the model.
# ---------------------------------------------------------------------------

def _logit_rows(out, real: np.ndarray) -> list[np.ndarray]:
    """Per-example logits at real positions, flattened."""
    rows = []
    for i in range(real.shape[0]):
        parts = [out.lf_logits.data[i]]
        if out.start_logits is not None:
            parts += [out.start_logits.data[i][real[i]],
                      out.end_logits.data[i][real[i]]]
        if out.evidence_logit is not None:
            parts.append(out.evidence_logit.data[i:i + 1])
        rows.append(np.concatenate(parts))
    return rows


def check_invariance(forward, batch, rng: np.random.Generator,
                     vocab_size: int, entity_vocab_size: int,
                     alone: int = 2, tol: float = 1e-9) -> list[str]:
    """Real-position logits ignore padded ids and the rest of the batch.

    `forward(batch)` returns HeadOutputs; `batch` is a model Batch.
    """
    from dataclasses import replace

    real = batch.attention_mask.astype(bool)
    pad = ~real
    if not pad.any():
        return ["invariance: sample batch has no padded position"]
    base = _logit_rows(forward(batch), real)
    tok = batch.token_ids.copy()
    ent = batch.entity_ids.copy()
    tok[pad] = rng.integers(0, vocab_size, size=int(pad.sum()))
    ent[pad] = rng.integers(0, entity_vocab_size, size=int(pad.sum()))
    noisy = _logit_rows(forward(replace(batch, token_ids=tok, entity_ids=ent)),
                        real)
    fails = []
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(base, noisy))
    if not worst <= tol:
        fails.append(f"invariance: randomizing padded ids moved real-position "
                     f"logits by {worst:.3e}")
    for i in range(min(alone, real.shape[0])):
        one = replace(batch, **{
            f: getattr(batch, f)[i:i + 1]
            for f in ("token_ids", "segment_ids", "attention_mask",
                      "entity_ids", "context_mask")})
        diff = float(np.max(np.abs(_logit_rows(forward(one), real[i:i + 1])[0]
                                   - base[i])))
        if not diff <= tol:
            fails.append(f"invariance: example {i} scored alone differs from "
                         f"its batch by {diff:.3e}")
    return fails


def check_checkpoint(saved: dict, loaded: dict, restored: dict) -> list[str]:
    """Reloaded arrays equal the saved float64 values rounded to float32."""
    fails = []
    if set(saved) != set(loaded):
        return [f"checkpoint names differ: {sorted(set(saved) ^ set(loaded))[:5]}"]
    for name, value in saved.items():
        want = np.asarray(value, dtype=np.float32).astype(np.float64)
        if not np.array_equal(loaded[name], want):
            fails.append(f"checkpoint: {name} does not round-trip as float32")
        if not np.array_equal(restored[name], loaded[name]):
            fails.append(f"checkpoint: restored {name} differs from the file")
    return fails
