"""Training and evaluation orchestration: batching, the warmup/decay
schedule, early stopping, checkpointing and the four-system experiment
matrix (baseline / entity-fused / multi-task / evidence mode)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as M
from . import model as mdl
from .corpus import LOGICAL_FORMS, QAExample, build_gazetteer
from .model import Batch, ModelConfig
from .optim import AdamState, adam_step
from .tensor import GradientError
from .textpipe import EntityTag, Vocab, encode_pair

SYSTEMS = ("baseline", "fused", "multitask", "evidence")


class TrainError(ValueError):
    pass


@dataclass
class TrainConfig:
    lr: float = 2e-5
    weight_decay: float = 1e-5
    warmup_frac: float = 0.10
    epochs: int = 10
    batch_size: int = 16
    seed: int = 0
    patience: int = 3
    system: str = "multitask"

    def __post_init__(self):
        if not 0.0 <= self.warmup_frac < 1.0:
            raise TrainError("warmup_frac must be in [0, 1)")
        if self.system not in SYSTEMS:
            raise TrainError(f"unknown system {self.system!r}")


def apply_system(config: ModelConfig, system: str) -> ModelConfig:
    """Specialize a model config to one of the four experiment systems."""
    if system == "baseline":
        return replace(config, use_entities=False, omega=0.0, mode="span")
    if system == "fused":
        return replace(config, use_entities=True, omega=0.0, mode="span")
    if system == "multitask":
        if config.omega <= 0:
            raise TrainError("multitask system requires omega > 0")
        return replace(config, use_entities=True, mode="span")
    if system == "evidence":
        return replace(config, use_entities=True, mode="evidence")
    raise TrainError(f"unknown system {system!r}")


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Linear warmup to the peak lr, then linear decay to zero."""
    if total_steps <= 0:
        raise TrainError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise TrainError(f"step {step} outside [0, {total_steps}]")
    warmup = config.warmup_frac * total_steps
    if warmup > 0 and step < warmup:
        return config.lr * step / warmup
    if total_steps == warmup:
        return config.lr
    return config.lr * (total_steps - step) / (total_steps - warmup)


# ---------------------------------------------------------------------------
# Example encoding.
# ---------------------------------------------------------------------------

def _tags(raw) -> list[EntityTag]:
    return [EntityTag(t, s, e) for t, s, e in raw]


def encode_examples(examples: list[QAExample], vocab: Vocab,
                    max_seq_len: int, drop_unanswerable: bool = True):
    """Encode QA examples for span training; dropped ones are skipped."""
    pairs = []
    for ex in examples:
        pair = encode_pair(
            ex.question, ex.context_text, vocab, max_seq_len,
            question_tags=_tags(ex.question_tags),
            context_tags=_tags(ex.context_tags),
            answer_char_span=ex.answer_char_span_in_context())
        pair.meta = {"id": ex.id, "context": ex.context_text,
                     "gold": ex.answer["text"], "lf_id": ex.lf_id}
        if drop_unanswerable and pair.answer_start_tok < 0:
            continue
        pairs.append(pair)
    return pairs


@dataclass
class EvidenceExample:
    question: str
    sentence: str
    label: int
    lf_id: int


def make_evidence_examples(examples: list[QAExample],
                           rng: np.random.Generator) -> list[EvidenceExample]:
    """Binary sentence-classification pairs: the evidence sentence (label
    1) and one non-evidence sentence from the same context (label 0)."""
    out = []
    for ex in examples:
        ev = ex.context_sentences[ex.evidence_idx]
        out.append(EvidenceExample(ex.question, ev, 1, ex.lf_id))
        negatives = [s for i, s in enumerate(ex.context_sentences)
                     if i != ex.evidence_idx]
        if negatives:
            out.append(EvidenceExample(
                ex.question, negatives[rng.integers(len(negatives))], 0,
                ex.lf_id))
    return out


def encode_evidence_examples(examples: list[EvidenceExample], vocab: Vocab,
                             max_seq_len: int):
    gazetteer = build_gazetteer()
    pairs, labels, lf_ids = [], [], []
    for ex in examples:
        pair = encode_pair(
            ex.question, ex.sentence, vocab, max_seq_len,
            question_tags=gazetteer.tag(ex.question),
            context_tags=gazetteer.tag(ex.sentence))
        pair.meta = {"lf_id": ex.lf_id, "label": ex.label}
        pairs.append(pair)
        labels.append(ex.label)
        lf_ids.append(ex.lf_id)
    return pairs, np.array(labels), np.array(lf_ids)


def _slice_batch(pairs, idxs) -> Batch:
    chosen = [pairs[i] for i in idxs]
    lf_ids = [p.meta["lf_id"] for p in chosen]
    labels = [p.meta.get("label") for p in chosen]
    has_labels = all(v is not None for v in labels)
    return mdl.make_batch(chosen, lf_ids=lf_ids,
                          evidence_labels=labels if has_labels else None)


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: dict
    model_config: ModelConfig
    log: list = field(default_factory=list)
    best_val_f1: float = float("-inf")
    stopped_early: bool = False
    aborted: bool = False


def _copy_params(params):
    return {k: v.data.copy() for k, v in params.items()}


def _restore(params, snapshot):
    for k, v in params.items():
        v.data = snapshot[k].copy()


def train(train_pairs, val_pairs, model_config: ModelConfig,
          train_config: TrainConfig, log_path=None) -> TrainResult:
    """Train one system; keeps the best-validation parameter snapshot.

    `train_pairs`/`val_pairs` are encoded pairs (see encode_examples /
    encode_evidence_examples); deterministic for a fixed seed.
    """
    if not train_pairs or not val_pairs:
        raise TrainError("train and validation sets must be non-empty")
    config = apply_system(model_config, train_config.system)
    if config.mode == "evidence":
        labels = {p.meta["label"] for p in train_pairs}
        if len(labels) < 2:
            raise TrainError(
                f"every evidence training pair has label {labels.pop()}: "
                "one-sentence contexts (the sentence setting) yield no "
                "negative sentences; train evidence mode on paragraph "
                "contexts")
    params = mdl.init_params(config, train_config.seed)
    state = AdamState(lr=train_config.lr,
                      weight_decay=train_config.weight_decay)
    shuffle_rng = np.random.default_rng(train_config.seed + 1)
    drop_rng = np.random.default_rng(train_config.seed + 2)

    n = len(train_pairs)
    bs = train_config.batch_size
    steps_per_epoch = math.ceil(n / bs)
    total_steps = steps_per_epoch * train_config.epochs
    result = TrainResult(params=params, model_config=config)
    best_snapshot = _copy_params(params)
    patience_left = train_config.patience
    step = 0
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for _epoch in range(train_config.epochs):
            order = shuffle_rng.permutation(n)
            for b0 in range(0, n, bs):
                batch = _slice_batch(train_pairs, order[b0:b0 + bs])
                lr = lr_at(step, total_steps, train_config)
                out = mdl.forward(params, config, batch, train=True,
                                  rng=drop_rng)
                if config.mode == "span":
                    parts = mdl.multitask_loss(
                        out, batch.answer_start, batch.answer_end,
                        batch.lf_ids, omega=config.omega)
                else:
                    parts = mdl.evidence_loss(
                        out, batch.evidence_labels, batch.lf_ids,
                        omega=config.omega)
                total = parts.total.item()
                if not math.isfinite(total):
                    result.aborted = True
                    _restore(params, best_snapshot)
                    return result
                for p in params.values():
                    p.grad = None
                parts.total.backward()
                try:
                    adam_step(params, state, lr=lr)
                except GradientError:
                    result.aborted = True
                    _restore(params, best_snapshot)
                    return result
                entry = {"step": step, "lr": lr, "L_span": parts.span,
                         "L_lf": parts.lf, "L_evidence": parts.evidence,
                         "L_total": total}
                result.log.append(entry)
                if log_fh:
                    log_fh.write(json.dumps(entry) + "\n")
                step += 1
            val_f1 = _validation_score(params, config, val_pairs)
            if val_f1 > result.best_val_f1:
                result.best_val_f1 = val_f1
                best_snapshot = _copy_params(params)
                patience_left = train_config.patience
            else:
                patience_left -= 1
                if patience_left <= 0:
                    result.stopped_early = True
                    break
    finally:
        if log_fh:
            log_fh.close()
    _restore(params, best_snapshot)
    return result


def _validation_score(params, config, val_pairs) -> float:
    report = evaluate_pairs(params, config, val_pairs)
    if config.mode == "span":
        return report.token_f1
    return report.evidence.f1


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def _predicted_text(pair, start_tok: int, end_tok: int) -> str:
    offs = pair.token_offsets
    s, e = offs[start_tok], offs[end_tok]
    if s is None or e is None:
        return ""
    return pair.meta["context"][s[0]:e[1]]


def evaluate_pairs(params, config: ModelConfig, pairs,
                   include_lf: bool | None = None,
                   batch_size: int = 32) -> M.EvalReport:
    """Greedy span decode (or evidence thresholding) plus LF argmax."""
    if not pairs:
        raise TrainError("cannot evaluate an empty split")
    if include_lf is None:
        include_lf = config.omega > 0
    ems, f1s = [], []
    lf_preds, lf_golds = [], []
    ev_preds, ev_golds = [], []
    per_lf: dict[int, dict] = {}
    for b0 in range(0, len(pairs), batch_size):
        chosen = pairs[b0:b0 + batch_size]
        batch = _slice_batch(pairs, range(b0, min(b0 + batch_size, len(pairs))))
        out = mdl.forward(params, config, batch, train=False)
        if include_lf:
            lf_hat = out.lf_logits.data.argmax(axis=1)
        for i, pair in enumerate(chosen):
            gold_lf = pair.meta["lf_id"]
            if include_lf:
                lf_preds.append(int(lf_hat[i]))
                lf_golds.append(gold_lf)
            if config.mode == "span":
                s, e = mdl.decode_span(
                    out.start_logits.data[i], out.end_logits.data[i],
                    batch.context_mask[i], config.max_answer_len)
                pred = _predicted_text(pair, s, e)
                em = M.span_em(pred, pair.meta["gold"])
                f1 = M.token_f1(pred, pair.meta["gold"])
                ems.append(em)
                f1s.append(f1)
                slot = per_lf.setdefault(gold_lf, {"em": 0.0, "f1": 0.0, "n": 0})
                slot["em"] += em
                slot["f1"] += f1
                slot["n"] += 1
            else:
                ev_preds.append(int(out.evidence_logit.data[i] > 0))
                ev_golds.append(pair.meta["label"])
    report = M.EvalReport(n_examples=len(pairs))
    if config.mode == "span":
        report.em = float(np.mean(ems))
        report.token_f1 = float(np.mean(f1s))
        for slot in per_lf.values():
            slot["em"] /= slot["n"]
            slot["f1"] /= slot["n"]
        report.per_lf = per_lf
    else:
        report.evidence = M.evidence_scores(ev_preds, ev_golds)
    if include_lf and lf_preds:
        report.lf_exact = M.lf_exact_scores(lf_preds, lf_golds,
                                            config.num_lf_classes)
        report.lf_exact_macro = M.lf_exact_scores(
            lf_preds, lf_golds, config.num_lf_classes, weighted=False)
        report.lf_relaxed = M.lf_relaxed_scores(lf_preds, lf_golds,
                                                LOGICAL_FORMS)
        report.confusion = M.confusion_matrix(
            lf_preds, lf_golds, config.num_lf_classes).tolist()
    return report


# ---------------------------------------------------------------------------
# Experiment matrix.
# ---------------------------------------------------------------------------

MATRIX_ROWS = (
    ("baseline", "pl"),
    ("fused", "pl"),
    ("multitask", "pl"),
    ("fused", "r"),
)


def run_matrix(splits_by_mode: dict, vocab: Vocab, model_config: ModelConfig,
               train_config: TrainConfig, seeds,
               out_dir=None) -> dict:
    """Train the four-system comparison over >= 3 seeds.

    `splits_by_mode` maps "pl"/"r" to (train, val, test) example lists
    sharing the same test set. Returns {(system, mode): {"f1": [...],
    "em": [...]}} plus formatted rows.
    """
    seeds = list(seeds)
    if len(seeds) < 3:
        raise TrainError("run_matrix needs at least 3 seeds")
    cells = {}
    for system, split_mode in MATRIX_ROWS:
        train_ex, val_ex, test_ex = splits_by_mode[split_mode]
        train_pairs = encode_examples(train_ex, vocab, model_config.max_seq_len)
        val_pairs = encode_examples(val_ex, vocab, model_config.max_seq_len)
        test_pairs = encode_examples(test_ex, vocab, model_config.max_seq_len)
        f1s, ems = [], []
        for seed in seeds:
            tc = replace(train_config, system=system, seed=seed)
            result = train(train_pairs, val_pairs, model_config, tc)
            report = evaluate_pairs(result.params, result.model_config,
                                    test_pairs)
            f1s.append(report.token_f1 * 100)
            ems.append(report.em * 100)
        cells[(system, split_mode)] = {"f1": f1s, "em": ems}
    table = format_matrix(cells)
    if out_dir is not None:
        import os
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "matrix.csv"), "w") as fh:
            fh.write("system,split,f1_mean,f1_sd,em_mean,em_sd\n")
            for (system, mode), cell in cells.items():
                fh.write(f"{system},{mode},{np.mean(cell['f1']):.2f},"
                         f"{np.std(cell['f1']):.2f},{np.mean(cell['em']):.2f},"
                         f"{np.std(cell['em']):.2f}\n")
        with open(os.path.join(out_dir, "matrix.txt"), "w") as fh:
            fh.write(table)
    return {"cells": cells, "table": table}


def format_matrix(cells: dict) -> str:
    lines = [f"{'system':<12}{'split':<7}{'F1':>16}{'EM':>16}"]
    for (system, mode), cell in cells.items():
        f1m, f1s = np.mean(cell["f1"]), np.std(cell["f1"])
        emm, ems = np.mean(cell["em"]), np.std(cell["em"])
        lines.append(f"{system:<12}{mode:<7}"
                     f"{f1m:>10.2f}±{f1s:<5.2f}{emm:>10.2f}±{ems:<5.2f}")
    return "\n".join(lines) + "\n"
