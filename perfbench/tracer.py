"""Span tracing for the benchmark's traced mode.

The tracer wraps public functions of entqa's modules from outside, by
replacing module and class attributes for the length of a run. Every
call records a span (name, start, end, parent, phase); spans stay in
memory and are written when the run ends. Counts taken at the same
boundaries (real tokens in built batches, questions dropped by the
encoder, checkpoint bytes) are kept beside them.

`per_layer` turns the spans into the metrics named in BENCHMARK.json.
Conventions: a `*_ms` metric is the mean per call over the set-up and
timed phases, a `*_calls` metric is calls per timed round, a set-up
metric `*_s` is seconds per set-up, and `trainer.validation_s` is
seconds per validation.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

# (module attribute path, span name); a name of None means "decided per call"
TARGETS = [
    ("corpus", "generate_corpus", "corpus.generate"),
    ("corpus", "instantiate_questions", "corpus.instantiate"),
    ("corpus", "build_paragraph_context", "corpus.paragraph"),
    ("splits", "filter_examples", "splits.filter"),
    ("trainer", "encode_examples", "trainer.encode"),
    ("trainer", "make_evidence_examples", "trainer.encode"),
    ("trainer", "encode_evidence_examples", "trainer.encode"),
    ("trainer", "_slice_batch", "trainer.batch"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "_validation_score", "trainer.validation"),
    ("trainer", "evaluate_pairs", "trainer.evaluate"),
    ("trainer", "adam_step", "optim.adam"),
    ("model", "forward", None),
    ("model", "encode_tokens", "model.encode_tokens"),
    ("model", "encode_entities", "model.encode_entities"),
    ("model", "fuse", "model.fuse"),
    ("model", "multitask_loss", "model.loss"),
    ("model", "evidence_loss", "model.loss"),
    ("model", "decode_span", "model.decode_span"),
    ("Tensor", "matmul", "tensor.matmul"),
    ("Tensor", "backward", "tensor.backward"),
    ("tensor", "attention", "tensor.attention"),
    ("tensor", "gelu", "tensor.gelu"),
    ("tensor", "layer_norm", "tensor.layer_norm"),
    ("metrics", "span_em", "metrics.span"),
    ("metrics", "token_f1", "metrics.span"),
    ("metrics", "lf_exact_scores", "metrics.lf"),
    ("metrics", "lf_relaxed_scores", "metrics.lf"),
    ("metrics", "confusion_matrix", "metrics.lf"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
]

MODEL_CHILDREN = ("model.encode_tokens", "model.encode_entities", "model.fuse")
TENSOR_OPS = ("matmul", "attention", "gelu", "layer_norm")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []   # [name, start, end, parent, phase]
        self.counts: dict = defaultdict(float)
        self.phase = "setup"
        self.n_setups = 0
        self.n_rounds = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name or ("model.forward_train" if kwargs.get("train")
                                 else "model.forward_eval")
            idx = len(spans)
            spans.append([span_name, clock(), 0.0,
                          stack[-1] if stack else -1, self.phase])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict):
        """Wrap every target; `modules` maps the short names in TARGETS."""
        hooks = {
            "trainer._slice_batch": self._on_batch,
            "trainer.encode_examples": self._on_encode,
            "checkpoint.save_checkpoint": self._on_save,
        }
        for owner_name, attr, name in TARGETS:
            owner = modules[owner_name]
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(
                original, name, hooks.get(f"{owner_name}.{attr}")))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _on_batch(self, batch, _args):
        mask = batch.attention_mask
        self.counts["real_tokens"] += float(mask.sum())
        self.counts["positions"] += float(mask.size)

    def _on_encode(self, pairs, args):
        self.counts[f"{self.phase}.dropped"] += len(args[0]) - len(pairs)

    def _on_save(self, _result, args):
        self.counts["checkpoint.bytes"] = float(os.path.getsize(args[0]))

    # -- reduction ------------------------------------------------------------

    def _durations(self, name, phases=("setup", "timed")):
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and s[4] in phases]

    def _mean_ms(self, name) -> float:
        d = self._durations(name)
        return 1e3 * float(np.mean(d)) if d else 0.0

    def _per_setup_s(self, name) -> float:
        return sum(self._durations(name, ("setup",))) / max(self.n_setups, 1)

    def _per_round_calls(self, name) -> float:
        return len(self._durations(name, ("timed",))) / max(self.n_rounds, 1)

    def _children(self) -> dict:
        kids = defaultdict(list)
        for i, s in enumerate(self.spans):
            kids[s[3]].append(i)
        return kids

    def step_intervals_ms(self) -> list[float]:
        """Start-to-start time of consecutive training batch builds.

        Intervals that contain a validation are left out.
        """
        kids = self._children()
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != "trainer.train":
                continue
            prev = None
            for k in kids[i]:
                child = self.spans[k]
                if child[0] == "trainer.validation":
                    prev = None
                elif child[0] == "trainer.batch":
                    if prev is not None:
                        out.append(1e3 * (child[1] - prev))
                    prev = child[1]
        return out

    def per_layer(self) -> dict:
        spans = self.spans
        kids = self._children()
        m = {}
        m["corpus.generate_s"] = self._per_setup_s("corpus.generate")
        m["corpus.instantiate_s"] = self._per_setup_s("corpus.instantiate")
        m["corpus.paragraph_s"] = self._per_setup_s("corpus.paragraph")
        m["splits.filter_s"] = self._per_setup_s("splits.filter")
        m["trainer.encode_s"] = self._per_setup_s("trainer.encode")
        m["trainer.questions_dropped"] = (self.counts["setup.dropped"]
                                          / max(self.n_setups, 1))
        m["trainer.batch_ms"] = self._mean_ms("trainer.batch")
        m["trainer.real_token_frac"] = (self.counts["real_tokens"]
                                        / max(self.counts["positions"], 1.0))
        steps = self.step_intervals_ms()
        m["trainer.step_ms_p50"] = float(np.percentile(steps, 50)) if steps else 0.0
        m["trainer.step_ms_p90"] = float(np.percentile(steps, 90)) if steps else 0.0
        m["trainer.validation_s"] = self._mean_ms("trainer.validation") / 1e3
        m["model.forward_train_ms"] = self._mean_ms("model.forward_train")
        m["model.forward_eval_ms"] = self._mean_ms("model.forward_eval")
        for part in ("encode_tokens", "encode_entities", "fuse"):
            m[f"model.{part}_ms"] = self._mean_ms(f"model.{part}")
        heads = []
        for i, s in enumerate(spans):
            if s[0].startswith("model.forward_") and s[4] in ("setup", "timed"):
                inner = sum(spans[k][2] - spans[k][1] for k in kids[i]
                            if spans[k][0] in MODEL_CHILDREN)
                heads.append(s[2] - s[1] - inner)
        m["model.heads_ms"] = 1e3 * float(np.mean(heads)) if heads else 0.0
        m["model.loss_ms"] = self._mean_ms("model.loss")
        m["model.decode_span_ms"] = self._mean_ms("model.decode_span")
        m["model.forward_eval_alloc_peak_mb"] = self.counts["alloc_peak_mb"]
        m["tensor.backward_ms"] = self._mean_ms("tensor.backward")
        for op in TENSOR_OPS:
            m[f"tensor.{op}_ms"] = self._mean_ms(f"tensor.{op}")
            m[f"tensor.{op}_calls"] = self._per_round_calls(f"tensor.{op}")
        m["optim.adam_ms"] = self._mean_ms("optim.adam")
        span_total = sum(self._durations("metrics.span"))
        n_scored = len(self._durations("metrics.span")) / 2
        m["metrics.span_ms"] = 1e3 * span_total / n_scored if n_scored else 0.0
        lf_per_eval = defaultdict(float)
        for s in spans:
            if s[0] == "metrics.lf" and s[4] in ("setup", "timed"):
                lf_per_eval[s[3]] += s[2] - s[1]
        m["metrics.lf_ms"] = (1e3 * float(np.mean(list(lf_per_eval.values())))
                              if lf_per_eval else 0.0)
        m["checkpoint.save_ms"] = self._mean_ms("checkpoint.save")
        m["checkpoint.load_ms"] = self._mean_ms("checkpoint.load")
        m["checkpoint.bytes"] = self.counts["checkpoint.bytes"]
        return m

    # -- output ---------------------------------------------------------------

    def write(self, out_dir, stem: str, per_layer: dict, units: dict,
              end_to_end: dict):
        """Write the span file and the per-layer table; returns their paths."""
        os.makedirs(out_dir, exist_ok=True)
        span_path = os.path.join(out_dir, f"{stem}-spans.jsonl")
        with open(span_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s",
                                            "parent", "phase"]}) + "\n")
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps([name, round(start - self.t0, 7),
                                     round(end - self.t0, 7), parent,
                                     phase]) + "\n")
        table_path = os.path.join(out_dir, f"{stem}-layers.tsv")
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write("metric\tvalue\tunit\n")
            for name, value in per_layer.items():
                fh.write(f"{name}\t{value!r}\t{units[name]}\n")
            fh.write(f"# set-ups\t{self.n_setups}\n# timed rounds\t"
                     f"{self.n_rounds}\n# step intervals\t"
                     f"{len(self.step_intervals_ms())}\n")
            for name, value in end_to_end.items():
                fh.write(f"# traced {name}\t{value!r}\n")
        return span_path, table_path
