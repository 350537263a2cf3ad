"""Training and evaluation orchestration: batching, the warmup/decay
schedule, early stopping, checkpointing and the four-system experiment
matrix (baseline / entity-fused / multi-task / evidence mode)."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as M
from . import model as mdl
from .checkpoint import atomic_write, restore_params
from .corpus import QAExample
from .model import Batch, ModelConfig
from .optim import AdamState, adam_step
from .splits import SPLITS
from .tensor import GradientError, Tensor
from .textpipe import Vocab, encode_pair

SYSTEMS = {  # system -> (ModelConfig values it fixes, fields it never uses)
    "baseline": ({"use_entities": False, "mode": "span", "omega": 0.0},
                 ("entity_dim", "entity_heads", "entity_attention_layers")),
    "fused": ({"use_entities": True, "mode": "span", "omega": 0.0}, ()),
    "multitask": ({"use_entities": True, "mode": "span"}, ()),
    "evidence": ({"use_entities": True, "mode": "evidence"},
                 ("max_answer_len",)),
}


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
        for name, low in (("epochs", 1), ("batch_size", 1), ("patience", 1),
                          ("lr", 0), ("weight_decay", 0)):
            # NaN compares False with everything; JSON reads NaN and Infinity
            if not low <= getattr(self, name) < math.inf:
                raise TrainError(f"{name} must be finite and >= {low}, "
                                 f"got {getattr(self, name)}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise TrainError("warmup_frac must be in [0, 1)")
        if self.system not in SYSTEMS:
            raise TrainError(f"unknown system {self.system!r}")


def apply_system(config: ModelConfig, system: str) -> ModelConfig:
    """The values SYSTEMS fixes set on `config`; multitask needs omega > 0."""
    if system not in SYSTEMS:
        raise TrainError(f"unknown system {system!r}")
    config = replace(config, **SYSTEMS[system][0])
    if system == "multitask" and config.omega <= 0:
        raise TrainError("multitask system requires omega > 0")
    return config


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Linear warmup to the peak lr, then linear decay to zero."""
    if total_steps <= 0:
        raise TrainError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise TrainError(f"step {step} outside [0, {total_steps}]")
    warmup = config.warmup_frac * total_steps
    if warmup > 0 and step < warmup:
        return config.lr * step / warmup
    return config.lr * (total_steps - step) / (total_steps - warmup)


# ---------------------------------------------------------------------------
# Example encoding.
# ---------------------------------------------------------------------------

def encode_examples(examples: list[QAExample], vocab: Vocab,
                    max_seq_len: int):
    """Encode QA examples for span training; questions whose answer lies
    past the truncation are dropped."""
    pairs = []
    for ex in examples:
        pair = encode_pair(
            ex.question, ex.context_text, vocab, max_seq_len,
            question_tags=ex.question_tags, context_tags=ex.context_tags,
            answer_char_span=ex.answer_char_span_in_context())
        pair.lf_id = ex.lf_id
        pair.meta = {"id": ex.id, "context": ex.context_text,
                     "gold": ex.answer["text"]}
        if pair.answer_start_tok < 0:
            continue
        pairs.append(pair)
    return pairs


@dataclass
class EvidenceExample:
    question: str
    sentence: str
    label: int
    lf_id: int
    question_tags: list   # [type, start, end], as on QAExample
    sentence_tags: list   # offsets into `sentence`


def make_evidence_examples(examples: list[QAExample],
                           rng: np.random.Generator) -> list[EvidenceExample]:
    """Binary sentence-classification pairs: the evidence sentence (label
    1) and one non-evidence sentence from the same context (label 0),
    each carrying the example's entity tags that fall inside it."""
    out = []
    for ex in examples:
        picks = [(ex.evidence_idx, 1)]
        negatives = [i for i in range(len(ex.context_sentences))
                     if i != ex.evidence_idx]
        if negatives:
            picks.append((negatives[rng.integers(len(negatives))], 0))
        out += [EvidenceExample(ex.question, ex.context_sentences[i], label,
                                ex.lf_id, ex.question_tags, ex.sentence_tags(i))
                for i, label in picks]
    return out


def encode_evidence_examples(examples: list[EvidenceExample], vocab: Vocab,
                             max_seq_len: int):
    """(pairs, their labels, their LF ids); each pair carries its own."""
    pairs = []
    for ex in examples:
        pair = encode_pair(
            ex.question, ex.sentence, vocab, max_seq_len,
            question_tags=ex.question_tags, context_tags=ex.sentence_tags)
        pair.lf_id, pair.label = ex.lf_id, ex.label
        pairs.append(pair)
    return (pairs, np.array([p.label for p in pairs]),
            np.array([p.lf_id for p in pairs]))


def _slice_batch(packed: Batch, idxs) -> Batch:
    """Rows `idxs` of a packed batch, trimmed to their longest real row."""
    return packed.take(idxs)


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


def train(train_pairs, val_pairs, model_config: ModelConfig,
          train_config: TrainConfig, log_path=None) -> TrainResult:
    """Train one system; keeps the best-validation parameter snapshot.

    `train_pairs`/`val_pairs` are encoded pairs (see encode_examples /
    encode_evidence_examples); deterministic for a fixed seed.
    """
    if not train_pairs or not val_pairs:
        raise TrainError("train and validation sets must be non-empty")
    config = apply_system(model_config, train_config.system)
    packed = mdl.make_batch(train_pairs)
    if config.mode == "evidence":
        labels = set(packed.evidence_labels.tolist())
        if len(labels) < 2:
            raise TrainError(
                f"every evidence training pair has label {labels.pop()}: "
                "one-sentence contexts (the sentence setting) yield no "
                "negative sentences; train evidence mode on paragraph "
                "contexts")
    params = mdl.init_params(config, train_config.seed)
    state = AdamState(weight_decay=train_config.weight_decay)
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
                batch = _slice_batch(packed, order[b0:b0 + bs])
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
                finite = math.isfinite(total)
                if finite:
                    for p in params.values():
                        p.grad = None
                    parts.total.backward()
                    try:
                        adam_step(params, state, lr=lr)
                    except GradientError:  # a non-finite gradient
                        finite = False
                if not finite:
                    result.aborted = True
                    restore_params(params, best_snapshot)
                    return result
                entry = {"step": step, "lr": lr, "L_span": parts.span,
                         "L_lf": parts.lf, "L_evidence": parts.evidence,
                         "L_total": total,
                         "pad_frac": 1.0 - float(batch.attention_mask.mean())}
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
    restore_params(params, best_snapshot)
    return result


def _validation_score(params, config, val_pairs) -> float:
    report = evaluate_pairs(params, config, val_pairs, include_lf=False)
    if config.mode == "span":
        return report.token_f1
    return report.evidence.f1


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

EVAL_BATCH_SIZE = 32


def evaluate_pairs(params, config: ModelConfig, pairs,
                   include_lf: bool | None = None) -> M.EvalReport:
    """Greedy span decode (or evidence thresholding) plus LF argmax.

    Forwards over gradient-free views of `params`, so no graph is recorded.
    """
    if not pairs:
        raise TrainError("cannot evaluate an empty split")
    params = {k: Tensor(p.data) for k, p in params.items()}
    if include_lf is None:
        include_lf = config.omega > 0
    packed = mdl.make_batch(pairs)
    lf_golds = packed.lf_ids.tolist()
    lf_preds, ev_preds, texts = [], [], []
    for b0 in range(0, len(pairs), EVAL_BATCH_SIZE):
        rows = range(b0, min(b0 + EVAL_BATCH_SIZE, len(pairs)))
        batch = _slice_batch(packed, rows)
        out = mdl.forward(params, config, batch, train=False)
        if include_lf:
            lf_preds += out.lf_logits.data.argmax(axis=1).tolist()
        if config.mode != "span":
            ev_preds += (out.evidence_logit.data > 0).astype(int).tolist()
            continue
        starts, ends = mdl.decode_span(
            out.start_logits.data, out.end_logits.data, batch.context_mask,
            config.max_answer_len)
        for i, s, e in zip(rows, starts.tolist(), ends.tolist()):
            offs = pairs[i].token_offsets
            texts.append(pairs[i].meta["context"][offs[s, 0]:offs[e, 1]])
    report = M.EvalReport(n_examples=len(pairs))
    if config.mode == "span":
        golds = [p.meta["gold"] for p in pairs]
        em = np.array([M.span_em(t, g) for t, g in zip(texts, golds)])
        f1 = np.array([M.token_f1(t, g) for t, g in zip(texts, golds)])
        report.em = float(np.mean(em))
        report.token_f1 = float(np.mean(f1))
        for c in dict.fromkeys(lf_golds):  # first-seen order
            hit = packed.lf_ids == c
            n = int(hit.sum())
            report.per_lf[c] = {"em": sum(em[hit].tolist()) / n,
                                "f1": sum(f1[hit].tolist()) / n, "n": n}
    else:
        report.evidence = M.evidence_scores(
            ev_preds, packed.evidence_labels.tolist())
    if include_lf:
        report.lf_exact = M.lf_exact_scores(lf_preds, lf_golds)
        report.lf_exact_macro = M.lf_exact_scores(lf_preds, lf_golds,
                                                  weighted=False)
        report.lf_relaxed = M.lf_relaxed_scores(lf_preds, lf_golds)
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
               train_config: TrainConfig, seeds) -> dict:
    """Train the four-system comparison over >= 3 seeds; writes no file
    (save_matrix does).

    `splits_by_mode` maps "pl"/"r" to (train, val, test) example lists
    sharing the same test set. Returns {"cells": {(system, mode): {"f1":
    [...], "em": [...]}}, "coverage": {mode: {split: {"examples": handed
    to encode_examples, "pairs": kept}}}}.
    """
    seeds = list(seeds)
    if len(seeds) < 3:
        raise TrainError("run_matrix needs at least 3 seeds")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise TrainError(f"run_matrix seed {seed} is repeated")
    encoded, coverage = {}, {}
    for mode, split in splits_by_mode.items():
        encoded[mode] = [encode_examples(x, vocab, model_config.max_seq_len)
                         for x in split]
        coverage[mode] = {name: {"examples": len(x), "pairs": len(kept)}
                          for name, x, kept in zip(SPLITS, split,
                                                   encoded[mode])}
    cells = {}
    for system, split_mode in MATRIX_ROWS:
        train_pairs, val_pairs, test_pairs = encoded[split_mode]
        f1s, ems = [], []
        for seed in seeds:
            tc = replace(train_config, system=system, seed=seed)
            result = train(train_pairs, val_pairs, model_config, tc)
            report = evaluate_pairs(result.params, result.model_config,
                                    test_pairs)
            f1s.append(report.token_f1 * 100)
            ems.append(report.em * 100)
        cells[(system, split_mode)] = {"f1": f1s, "em": ems}
    return {"cells": cells, "coverage": coverage}


def save_matrix(cells: dict, out_dir) -> str:
    """Write `matrix.csv` and `matrix.txt` to `out_dir`; returns the
    table written to `matrix.txt` (format_matrix)."""
    os.makedirs(out_dir, exist_ok=True)
    with atomic_write(os.path.join(out_dir, "matrix.csv"),
                      encoding="utf-8") as fh:
        fh.write("system,split,f1_mean,f1_sd,em_mean,em_sd\n")
        for (system, mode), cell in cells.items():
            fh.write(f"{system},{mode},{np.mean(cell['f1']):.2f},"
                     f"{np.std(cell['f1']):.2f},{np.mean(cell['em']):.2f},"
                     f"{np.std(cell['em']):.2f}\n")
    with atomic_write(os.path.join(out_dir, "matrix.txt"),
                      encoding="utf-8") as fh:
        table = format_matrix(cells)
        fh.write(table)
    return table


def format_matrix(cells: dict) -> str:
    lines = [f"{'system':<12}{'split':<7}{'F1':>16}{'EM':>16}"]
    for (system, mode), cell in cells.items():
        f1m, f1s = np.mean(cell["f1"]), np.std(cell["f1"])
        emm, ems = np.mean(cell["em"]), np.std(cell["em"])
        lines.append(f"{system:<12}{mode:<7}"
                     f"{f1m:>10.2f}±{f1s:<5.2f}{emm:>10.2f}±{ems:<5.2f}")
    return "\n".join(lines) + "\n"
