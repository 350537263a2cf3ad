"""Train/val/test splitting with paraphrase-template partitioning.

Two modes: "pl" holds 30% of each logical form's question templates out
of training entirely (unseen-paraphrase evaluation), "r" lets training
see every template. Notes are partitioned disjointly in both modes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write
from .corpus import DatasetError


class SplitError(ValueError):
    pass


@dataclass
class SplitAssignment:
    mode: str                      # "pl" | "r"
    seed: int
    train_frac: float
    train_notes: set
    val_notes: set
    test_notes: set
    templates_train: dict = field(default_factory=dict)  # lf_id -> [tid]
    templates_eval: dict = field(default_factory=dict)   # lf_id -> [tid]

    def __post_init__(self):
        """Refuses a bad mode or seed, non-integer note ids, and a note or
        template id on both sides of the split, naming the id."""
        if self.mode not in ("pl", "r"):
            raise SplitError(f"unknown split mode {self.mode!r}")
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise SplitError(f"seed must be a non-negative integer, got "
                             f"{self.seed!r}")
        notes = {name: getattr(self, name)
                 for name in ("train_notes", "val_notes", "test_notes")}
        for name, ids in notes.items():
            if not all(type(i) is int for i in ids):
                raise SplitError(f"{name}: note ids must be integers")
        for (a, ids_a), (b, ids_b) in itertools.combinations(notes.items(), 2):
            if ids_a & ids_b:
                raise SplitError(f"note {min(ids_a & ids_b)} is in both "
                                 f"{a} and {b}")
        both = ({t for tids in self.templates_train.values() for t in tids}
                & {t for tids in self.templates_eval.values() for t in tids})
        if both:
            raise SplitError(f"template {min(both, key=str)!r} is in both "
                             "templates_train and templates_eval")

    def to_json(self) -> dict:
        return {
            "mode": self.mode, "seed": self.seed, "train_frac": self.train_frac,
            "train_notes": sorted(self.train_notes),
            "val_notes": sorted(self.val_notes),
            "test_notes": sorted(self.test_notes),
            "templates_train": {str(k): sorted(v)
                                for k, v in self.templates_train.items()},
            "templates_eval": {str(k): sorted(v)
                               for k, v in self.templates_eval.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SplitAssignment":
        return cls(
            mode=obj["mode"], seed=obj["seed"], train_frac=obj["train_frac"],
            train_notes=set(obj["train_notes"]),
            val_notes=set(obj["val_notes"]),
            test_notes=set(obj["test_notes"]),
            templates_train={int(k): list(v)
                             for k, v in obj["templates_train"].items()},
            templates_eval={int(k): list(v)
                            for k, v in obj["templates_eval"].items()},
        )

    def save(self, path):
        with atomic_write(path, encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "SplitAssignment":
        """A saved assignment; malformed JSON, a missing field or a bad
        value raises DatasetError naming the file."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_json(json.load(fh))
            except KeyError as exc:
                raise DatasetError(
                    f"bad split file {path}: missing field {exc}") from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise DatasetError(f"bad split file {path}: {exc}") from exc


SPLITS = ("train", "val", "test")   # the parts filter_examples returns
SPLIT_RATIOS = (0.7, 0.15, 0.15)   # train / val / test share of notes


def split_notes(note_ids, seed: int):
    """Seeded shuffle then a SPLIT_RATIOS cut into train/val/test id sets."""
    note_ids = sorted(note_ids)
    n = len(note_ids)
    if n < len(SPLITS):
        raise SplitError(f"only {n} notes for {len(SPLITS)} splits")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = round(SPLIT_RATIOS[0] * n)
    n_val = round(SPLIT_RATIOS[1] * n)
    shuffled = [note_ids[i] for i in order]
    train = set(shuffled[:n_train])
    val = set(shuffled[n_train:n_train + n_val])
    test = set(shuffled[n_train + n_val:])
    return train, val, test


def partition_templates(templates_by_lf: dict, train_frac: float, seed: int):
    """Per logical form, assign floor(frac * n) templates to training.

    Clamped so both sides are non-empty whenever the form has >= 2
    templates; a single-template form goes entirely to training.
    """
    if not 0.0 < train_frac < 1.0:
        raise SplitError(f"train_frac must be in (0, 1), got {train_frac}")
    rng = np.random.default_rng(seed)
    qt_train, qt_eval = {}, {}
    for lf_id in sorted(templates_by_lf):
        tids = sorted(templates_by_lf[lf_id])
        n = len(tids)
        k = math.floor(train_frac * n)
        if n >= 2:
            k = min(max(k, 1), n - 1)
        else:
            k = n
        order = rng.permutation(n)
        shuffled = [tids[i] for i in order]
        qt_train[lf_id] = sorted(shuffled[:k])
        qt_eval[lf_id] = sorted(shuffled[k:])
    return qt_train, qt_eval


def make_assignment(notes, templates, mode: str, seed: int,
                    train_frac: float = 0.7) -> SplitAssignment:
    note_ids = [n.note_id for n in notes]
    train_n, val_n, test_n = split_notes(note_ids, seed)
    by_lf: dict[int, list] = {}
    for t in templates:
        by_lf.setdefault(t.lf_id, []).append(t.template_id)
    qt_train, qt_eval = partition_templates(by_lf, train_frac, seed)
    return SplitAssignment(
        mode=mode, seed=seed, train_frac=train_frac,
        train_notes=train_n, val_notes=val_n, test_notes=test_n,
        templates_train=qt_train, templates_eval=qt_eval)


def filter_examples(examples, assignment: SplitAssignment):
    """Route examples to train/val/test per the assignment, in order.

    A train note keeps its train-side templates, or every template in r
    mode; a val or test note keeps its held-out templates, so the two modes
    share an evaluation set. An example whose template or note the
    assignment does not place raises DatasetError naming both ids.
    """
    part_of = {note: part for part, notes in enumerate((
        assignment.train_notes, assignment.val_notes, assignment.test_notes))
        for note in notes}
    train_side = {tid: side for side, by_lf in (
        (True, assignment.templates_train), (False, assignment.templates_eval))
        for tids in by_lf.values() for tid in tids}
    r_mode = assignment.mode == "r"
    parts = ([], [], [])
    for ex in examples:
        tid, note = ex.question_template_id, ex.note_id
        if tid not in train_side:
            raise DatasetError(f"example {ex.id} references unknown "
                               f"template {tid!r}")
        if note not in part_of:
            raise DatasetError(f"example {ex.id} is on note {note!r}, which "
                               "no part of the split holds")
        part = part_of[note]
        if train_side[tid] == (part == 0) or (part == 0 and r_mode):
            parts[part].append(ex)
    return parts


def leakage_audit(train, evals, assignment: SplitAssignment) -> dict:
    """Counts of template/note overlap between train and eval sets."""
    train_templates = {ex.question_template_id for ex in train}
    eval_templates = {ex.question_template_id for ex in evals}
    train_note_ids = {ex.note_id for ex in train}
    eval_note_ids = {ex.note_id for ex in evals}
    report = {
        "mode": assignment.mode,
        "note_overlap": len(train_note_ids & eval_note_ids),
        "template_overlap": (len(train_templates & eval_templates)
                             if assignment.mode == "pl" else None),
    }
    return report
