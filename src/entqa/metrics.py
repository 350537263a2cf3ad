"""Evaluation: span EM / token F1, logical-form exact and relaxed scores,
and evidence-classification scores."""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .checkpoint import atomic_write
from .corpus import LOGICAL_FORMS, NUM_LF

_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class MetricError(ValueError):
    pass


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    text = text.lower().translate(_PUNCT_TABLE)
    text = _ARTICLES_RE.sub(" ", text)
    return " ".join(text.split())


def span_em(pred_text: str, gold_text: str) -> int:
    return int(normalize_answer(pred_text) == normalize_answer(gold_text))


def token_f1(pred_text: str, gold_text: str) -> float:
    pred = normalize_answer(pred_text).split()
    gold = normalize_answer(gold_text).split()
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    common = Counter(pred) & Counter(gold)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return 2 * precision * recall / (precision + recall)


@dataclass
class PRF:
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0


def _confusion(preds, golds, num_classes: int) -> np.ndarray:
    """Counts with gold classes as rows and predicted classes as columns."""
    n = num_classes
    cells = np.asarray(golds, dtype=np.int64) * n + np.asarray(preds, np.int64)
    return np.bincount(cells, minlength=n * n).reshape(n, n)


# The scores below call `_confusion`, so a wrapper put around the public
# name (a tracing profiler) sees no nested calls.
confusion_matrix = _confusion


def _class_scores(preds, golds, num_classes: int, weighted: bool) -> PRF:
    """Per-class P/R/F1 read off the confusion matrix (tp on the diagonal,
    predicted counts in the column sums, support in the row sums), then
    averaged in class order with support or uniform weights."""
    m = _confusion(preds, golds, num_classes)
    tp = np.diag(m).astype(float)
    predicted, support = m.sum(axis=0), m.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(predicted > 0, tp / predicted, 0.0)
        r = np.where(support > 0, tp / support, 0.0)
        f = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
    if weighted:
        w = support / support.sum()
    else:
        w = np.full(num_classes, 1.0 / num_classes)
    return PRF(*(sum((w * v).tolist()) for v in (p, r, f)))


def lf_exact_scores(preds, golds, weighted: bool = True) -> PRF:
    """Per-class P/R/F1 over the NUM_LF logical-form class ids, averaged
    with support weights (or uniform ones, `weighted=False`)."""
    preds, golds = list(preds), list(golds)
    if not preds or len(preds) != len(golds):
        raise MetricError(
            f"need equal non-empty prediction/gold lists, got "
            f"{len(preds)}/{len(golds)}")
    for v in preds + golds:
        if v not in range(NUM_LF):
            raise MetricError(f"unknown class id {v}")
    return _class_scores(preds, golds, NUM_LF, weighted)


def lf_relaxed_scores(preds, golds) -> PRF:
    """Per-example multiset overlap between predicted and gold LF tokens
    (those of LOGICAL_FORMS), averaged over examples."""
    preds, golds = list(preds), list(golds)
    if not preds or len(preds) != len(golds):
        raise MetricError("need equal non-empty prediction/gold lists")
    tokens = {lf.lf_id: lf.lf_tokens for lf in LOGICAL_FORMS}
    for v in list(preds) + list(golds):
        if v not in tokens:
            raise MetricError(f"class {v} has no tokenization")
    ps, rs, fs = [], [], []
    for p, g in zip(preds, golds):
        pt, gt = tokens[p], tokens[g]
        overlap = sum((pt & gt).values())
        prec = overlap / sum(pt.values()) if pt else 0.0
        rec = overlap / sum(gt.values()) if gt else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        ps.append(prec)
        rs.append(rec)
        fs.append(f1)
    return PRF(float(np.mean(ps)), float(np.mean(rs)), float(np.mean(fs)))


def evidence_scores(pred_labels, gold_labels) -> PRF:
    """Binary P/R/F1, support-weighted across the two classes."""
    preds, golds = list(pred_labels), list(gold_labels)
    if not preds or len(preds) != len(golds):
        raise MetricError("need equal non-empty prediction/gold lists")
    for v in list(preds) + list(golds):
        if v not in (0, 1):
            raise MetricError(f"evidence label must be 0 or 1, got {v}")
    return _class_scores(preds, golds, 2, weighted=True)


@dataclass
class EvalReport:
    """Scores for one dataset split; all fields live in [0, 1]."""

    n_examples: int = 0
    em: float | None = None
    token_f1: float | None = None
    lf_exact: PRF | None = None
    lf_exact_macro: PRF | None = None
    lf_relaxed: PRF | None = None
    evidence: PRF | None = None
    per_lf: dict = field(default_factory=dict)
    confusion: list = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)

    def save(self, path):
        with atomic_write(path, encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)

    def save_confusion_csv(self, path):
        with atomic_write(path, encoding="utf-8") as fh:
            n = len(self.confusion)
            fh.write("gold\\pred," + ",".join(str(i) for i in range(n)) + "\n")
            for g, row in enumerate(self.confusion):
                fh.write(f"{g}," + ",".join(str(v) for v in row) + "\n")
