import json
from dataclasses import fields, replace

import numpy as np
import pytest

from entqa import model as mdl
from entqa import trainer as tr
from entqa.corpus import (ENTITY_TYPES, QAExample, build_templates,
                          generate_corpus, instantiate_questions)
from entqa.metrics import span_em, token_f1
from entqa.model import ModelConfig
from entqa.textpipe import SEMANTIC_TYPE_IDS, Vocab
from entqa.trainer import (TrainConfig, TrainError, apply_system,
                           encode_evidence_examples, encode_examples, lr_at,
                           make_evidence_examples, train)


def tiny_dataset(seed=0, num_notes=4):
    notes = generate_corpus(seed=seed, num_notes=num_notes, facts_per_note=3,
                            distractor_rate=0.3)
    examples = instantiate_questions(notes, build_templates())
    vocab = Vocab.build([ex.question for ex in examples]
                        + [ex.context_text for ex in examples])
    return examples, vocab


def paragraph_dataset(seed=0, num_notes=4):
    from entqa.corpus import build_paragraph_context
    notes = generate_corpus(seed=seed, num_notes=num_notes, facts_per_note=3,
                            distractor_rate=0.3)
    examples = instantiate_questions(notes, build_templates())
    by_id = {n.note_id: n for n in notes}
    rng = np.random.default_rng(seed + 100)
    paras = [build_paragraph_context(ex, by_id[ex.note_id], rng)
             for ex in examples]
    vocab = Vocab.build([ex.question for ex in paras]
                        + [ex.context_text for ex in paras])
    return paras, vocab


def tiny_model(vocab, **kw):
    base = dict(vocab_size=len(vocab), hidden_dim=16, layers=1, heads=2,
                entity_dim=8, entity_heads=2, dropout=0.0, max_seq_len=48,
                ffn_mult=2)
    base.update(kw)
    return ModelConfig(**base)


class TestSchedule:
    def _config(self):
        return TrainConfig(lr=2e-5, warmup_frac=0.10)

    def test_starts_at_zero(self):
        assert lr_at(0, 100, self._config()) == 0.0

    def test_peak_at_end_of_warmup(self):
        assert lr_at(10, 100, self._config()) == pytest.approx(2e-5)

    def test_midpoint_of_decay(self):
        # decay spans steps 10..100; step 55 is halfway down
        assert lr_at(55, 100, self._config()) == pytest.approx(1e-5)

    def test_zero_at_final_step(self):
        assert lr_at(100, 100, self._config()) == 0.0

    def test_no_warmup(self):
        cfg = TrainConfig(lr=1e-3, warmup_frac=0.0)
        assert lr_at(0, 10, cfg) == pytest.approx(1e-3)

    def test_monotone_within_phases(self):
        cfg = self._config()
        values = [lr_at(s, 50, cfg) for s in range(51)]
        peak = int(np.argmax(values))
        assert all(a <= b for a, b in zip(values[:peak], values[1:peak + 1]))
        assert all(a >= b for a, b in zip(values[peak:], values[peak + 1:]))

    def test_step_out_of_range(self):
        with pytest.raises(TrainError):
            lr_at(11, 10, self._config())


class TestTrainConfig:
    @pytest.mark.parametrize("name,value", [
        ("epochs", 0), ("epochs", -1), ("batch_size", 0), ("patience", 0),
        ("lr", -1e-4), ("weight_decay", -1e-5)])
    def test_out_of_range_is_refused(self, name, value):
        with pytest.raises(TrainError, match=name):
            TrainConfig(**{name: value})

    def test_range_edges_are_accepted(self):
        TrainConfig(epochs=1, batch_size=1, patience=1, lr=0.0,
                    weight_decay=0.0)


class TestApplySystem:
    def test_baseline_disables_entities_and_lf(self):
        cfg = apply_system(ModelConfig(vocab_size=10), "baseline")
        assert not cfg.use_entities and cfg.omega == 0.0

    def test_fused_keeps_entities(self):
        cfg = apply_system(ModelConfig(vocab_size=10), "fused")
        assert cfg.use_entities and cfg.omega == 0.0

    def test_multitask_requires_positive_omega(self):
        with pytest.raises(TrainError):
            apply_system(ModelConfig(vocab_size=10, omega=0.0), "multitask")

    def test_evidence_switches_mode(self):
        cfg = apply_system(ModelConfig(vocab_size=10), "evidence")
        assert cfg.mode == "evidence"


class TestEncoding:
    def test_meta_carries_gold(self):
        examples, vocab = tiny_dataset()
        pairs = encode_examples(examples, vocab, 48)
        assert pairs
        by_id = {ex.id: ex for ex in examples}
        for pair in pairs:
            assert set(pair.meta) == {"id", "context", "gold"}
            assert pair.meta["gold"]
            assert pair.lf_id == by_id[pair.meta["id"]].lf_id
            assert 0 <= pair.lf_id < 9 and pair.label is None
            assert pair.answer_start_tok >= 0

    def test_unanswerable_dropped(self):
        examples, vocab = tiny_dataset()
        pairs = encode_examples(examples, vocab, 16)
        assert all(p.answer_start_tok >= 0 for p in pairs)
        assert len(pairs) < len(examples)

    def test_evidence_examples_balanced(self):
        examples, _ = paragraph_dataset()
        evs = make_evidence_examples(examples, np.random.default_rng(0))
        labels = [e.label for e in evs]
        assert labels.count(1) == len(examples)
        assert labels.count(0) == len(examples)
        evidence_by_q = {ex.question: ex.context_sentences[ex.evidence_idx]
                         for ex in examples}
        for e in evs:
            if e.label == 0:
                assert e.sentence != evidence_by_q[e.question]

    def test_evidence_pairs_carry_stored_tags(self):
        # tags the generator would not write: evidence pairs take the
        # example's own, shifted into the chosen sentence, as span pairs do
        ex = QAExample(
            id="x", note_id=0, question="which word?",
            question_template_id="t", lf_id=0,
            context_sentences=["alpha beta.", "gamma delta."], evidence_idx=1,
            answer={"sentence_index": 1, "char_start": 0, "char_end": 5,
                    "text": "gamma"},
            question_tags=[["sosy", 0, 5]],
            context_tags=[["topp", 6, 10], ["clnd", 18, 23]])
        assert not any(surface in t for surface in ENTITY_TYPES
                       for t in [ex.question] + ex.context_sentences)
        pos, neg = make_evidence_examples([ex], np.random.default_rng(0))
        assert (pos.label, pos.sentence_tags) == (1, [["clnd", 6, 11]])
        assert (neg.label, neg.sentence_tags) == (0, [["topp", 6, 10]])
        vocab = Vocab.build([ex.question] + ex.context_sentences)
        pairs = encode_evidence_examples([pos, neg], vocab, 16)[0]
        # [CLS] which word ? [SEP] <sentence tokens> [SEP]
        sosy, clnd, topp = (SEMANTIC_TYPE_IDS[c] for c in ("sosy", "clnd", "topp"))
        np.testing.assert_array_equal(pairs[0].entity_ids[:9],
                                      [0, sosy, 0, 0, 0, 0, clnd, 0, 0])
        np.testing.assert_array_equal(pairs[1].entity_ids[:9],
                                      [0, sosy, 0, 0, 0, 0, topp, 0, 0])

    def test_encode_evidence(self):
        examples, vocab = paragraph_dataset()
        evs = make_evidence_examples(examples[:4], np.random.default_rng(1))
        pairs, labels, lf_ids = encode_evidence_examples(evs, vocab, 48)
        assert len(pairs) == len(labels) == len(lf_ids) == len(evs)
        assert set(labels) == {0, 1}
        assert [(p.label, p.lf_id) for p in pairs] == \
            [(e.label, e.lf_id) for e in evs]
        assert all(p.meta == {} for p in pairs)


class TestTrainLoop:
    def _run(self, seed=0, **tc_kw):
        examples, vocab = tiny_dataset()
        pairs = encode_examples(examples, vocab, 48)
        config = tiny_model(vocab)
        kw = dict(lr=3e-4, epochs=2, batch_size=8, seed=seed,
                  system="multitask")
        kw.update(tc_kw)
        return train(pairs[:16], pairs[16:24], config, TrainConfig(**kw))

    def test_loss_curve_deterministic(self):
        a = self._run(seed=1)
        b = self._run(seed=1)
        assert [e["L_total"] for e in a.log] == [e["L_total"] for e in b.log]

    def test_seed_changes_curve(self):
        a = self._run(seed=1)
        b = self._run(seed=2)
        assert [e["L_total"] for e in a.log] != [e["L_total"] for e in b.log]

    def test_log_file_written(self, tmp_path):
        examples, vocab = tiny_dataset()
        pairs = encode_examples(examples, vocab, 48)
        config = tiny_model(vocab)
        log_path = tmp_path / "train.jsonl"
        result = train(pairs[:8], pairs[8:12], config,
                       TrainConfig(lr=3e-4, epochs=1, batch_size=8,
                                   system="multitask"),
                       log_path=log_path)
        entries = [json.loads(line) for line in log_path.read_text().split("\n")
                   if line]
        assert len(entries) == len(result.log)
        assert {"step", "lr", "L_span", "L_lf", "L_total",
                "pad_frac"} <= set(entries[0])

    def test_loss_decreases(self):
        result = self._run(epochs=6, lr=1e-3, patience=10)
        first = np.mean([e["L_total"] for e in result.log[:3]])
        last = np.mean([e["L_total"] for e in result.log[-3:]])
        assert last < first

    def test_early_stopping_patience_zero_epochs(self):
        # patience 1 with an lr of zero: validation never improves after
        # the first epoch, so training stops before all epochs run
        result = self._run(lr=0.0, epochs=8, patience=1)
        assert result.stopped_early
        steps = {e["step"] for e in result.log}
        assert len(steps) < 8 * 2  # fewer than epochs * steps_per_epoch

    @pytest.mark.parametrize("fault", ["loss", "gradient"])
    def test_non_finite_step_aborts_to_the_best_snapshot(self, monkeypatch,
                                                         fault):
        # step 2 of epoch 1 is non-finite, before any validation: training
        # stops there and keeps the initial parameters, undoing step 1 (step
        # 0 runs at lr 0) and a partly applied Adam update
        loss, step = mdl.multitask_loss, tr.adam_step

        def nan_loss(*args, **kwargs):
            parts = loss(*args, **kwargs)
            if len(calls) == 2:
                parts = replace(parts, total=parts.total * float("nan"))
            calls.append(fault)
            return parts

        def nan_gradient(params, state, lr):
            if len(calls) == 2:
                last = list(params.values())[-1]  # updated after the rest
                last.grad = np.full_like(last.data, np.nan)
            calls.append(fault)
            return step(params, state, lr=lr)

        calls = []
        if fault == "loss":
            monkeypatch.setattr(mdl, "multitask_loss", nan_loss)
        else:
            monkeypatch.setattr(tr, "adam_step", nan_gradient)
        result = self._run(seed=4, batch_size=4)
        assert result.aborted and len(calls) == 3
        assert [e["step"] for e in result.log] == [0, 1]
        assert result.best_val_f1 == float("-inf")
        initial = mdl.init_params(result.model_config, 4)
        for name, p in result.params.items():
            np.testing.assert_array_equal(p.data, initial[name].data)
            assert p.grad is None, name

    def test_returned_parameters_hold_no_gradient(self):
        # the last step's gradients belong to weights the best snapshot
        # replaced
        result = self._run(seed=1)
        assert len(result.log) == 4
        for name, p in result.params.items():
            assert p.grad is None, name

    def test_empty_split_rejected(self):
        examples, vocab = tiny_dataset()
        pairs = encode_examples(examples, vocab, 48)
        with pytest.raises(TrainError):
            train([], pairs[:4], tiny_model(vocab), TrainConfig())

    def test_evidence_system_trains(self):
        examples, vocab = paragraph_dataset()
        evs = make_evidence_examples(examples, np.random.default_rng(2))
        pairs, _, _ = encode_evidence_examples(evs, vocab, 48)
        config = tiny_model(vocab, mode="span")  # apply_system flips it
        result = train(pairs[:16], pairs[16:24], config,
                       TrainConfig(lr=3e-4, epochs=1, batch_size=8,
                                   system="evidence"))
        assert result.model_config.mode == "evidence"
        assert all(e["L_evidence"] is not None for e in result.log)


def _untrimmed(packed, idxs):
    """Rows `idxs` of a packed batch at full width."""
    return mdl.Batch(**{f.name: None if getattr(packed, f.name) is None
                        else getattr(packed, f.name)[np.asarray(idxs)]
                        for f in fields(packed)})


class TestTrimmedBatches:
    """Batches are cut to their longest real row; nothing real may change."""

    def _pairs(self):
        examples, vocab = tiny_dataset()
        return encode_examples(examples, vocab, 48), vocab

    def _evidence_pairs(self):
        examples, vocab = paragraph_dataset()
        evs = make_evidence_examples(examples, np.random.default_rng(2))
        return encode_evidence_examples(evs, vocab, 48)[0], vocab

    @pytest.mark.parametrize("kind", ["span", "evidence"])
    def test_slice_is_full_width_batch_cut_to_longest_row(self, kind):
        pairs, _ = self._pairs() if kind == "span" else self._evidence_pairs()
        packed = mdl.make_batch(pairs)
        rng = np.random.default_rng(0)
        widths = set()
        for size in (1, 3, 8, len(pairs)):
            idxs = rng.choice(len(pairs), size=size, replace=False)
            chosen = [pairs[i] for i in idxs]
            full = mdl.make_batch(chosen)
            np.testing.assert_array_equal(full.lf_ids,
                                          [p.lf_id for p in chosen])
            assert (full.evidence_labels is None) == (kind == "span")
            batch = tr._slice_batch(packed, idxs)
            width = int(full.attention_mask.sum(axis=1).max())
            widths.add(width)
            assert batch.token_ids.shape == (size, width)
            assert not full.attention_mask[:, width:].any()
            for f in fields(full):
                a, b = getattr(full, f.name), getattr(batch, f.name)
                if a is None:
                    assert b is None
                elif a.ndim == 2:
                    np.testing.assert_array_equal(b, a[:, :width])
                else:
                    np.testing.assert_array_equal(b, a)
        assert min(widths) < 48

    @pytest.mark.parametrize("system", ["baseline", "multitask", "evidence"])
    @pytest.mark.parametrize("train_mode", [False, True])
    def test_forward_matches_full_width_twin(self, system, train_mode):
        pairs, vocab = (self._evidence_pairs() if system == "evidence"
                        else self._pairs())
        config = apply_system(tiny_model(vocab, dropout=0.1), system)
        params = mdl.init_params(config, 0)
        idxs = np.arange(8)
        batch = tr._slice_batch(mdl.make_batch(pairs), idxs)
        full = _untrimmed(mdl.make_batch(pairs), idxs)
        w = batch.token_ids.shape[1]
        assert w < full.token_ids.shape[1]
        out = mdl.forward(params, config, batch, train=train_mode,
                          rng=np.random.default_rng(3))
        ref = mdl.forward(params, config, full, train=train_mode,
                          rng=np.random.default_rng(3))
        real = batch.attention_mask
        np.testing.assert_allclose(out.fused.data[real],
                                   ref.fused.data[:, :w][real], atol=1e-9)
        np.testing.assert_allclose(out.lf_logits.data, ref.lf_logits.data,
                                   atol=1e-9)
        if system == "evidence":
            np.testing.assert_allclose(out.evidence_logit.data,
                                       ref.evidence_logit.data, atol=1e-9)
        else:
            for name in ("start_logits", "end_logits"):
                np.testing.assert_allclose(
                    getattr(out, name).data[real],
                    getattr(ref, name).data[:, :w][real], atol=1e-9)

    def test_padded_ids_do_not_matter(self):
        pairs, vocab = self._pairs()
        config = apply_system(tiny_model(vocab), "multitask")
        params = mdl.init_params(config, 0)
        batch = _untrimmed(mdl.make_batch(pairs), np.arange(8))
        rng = np.random.default_rng(4)
        pad = ~batch.attention_mask
        noisy = replace(
            batch,
            token_ids=np.where(pad, rng.integers(0, config.vocab_size, pad.shape),
                               batch.token_ids),
            entity_ids=np.where(
                pad, rng.integers(1, config.entity_vocab_size, pad.shape),
                batch.entity_ids))
        assert (noisy.token_ids != batch.token_ids).any()
        out = mdl.forward(params, config, noisy)
        ref = mdl.forward(params, config, batch)
        real = batch.attention_mask
        for name in ("start_logits", "end_logits"):
            np.testing.assert_allclose(getattr(out, name).data[real],
                                       getattr(ref, name).data[real],
                                       atol=1e-9)
        np.testing.assert_allclose(out.lf_logits.data, ref.lf_logits.data,
                                   atol=1e-9)

    def test_training_matches_untrimmed_batches(self, monkeypatch):
        pairs, vocab = self._pairs()
        config = tiny_model(vocab, dropout=0.1)
        tc = TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=3,
                         system="multitask")
        trimmed = train(pairs[:24], pairs[24:32], config, tc)
        monkeypatch.setattr(tr, "_slice_batch", _untrimmed)
        full = train(pairs[:24], pairs[24:32], config, tc)
        assert len(trimmed.log) == len(full.log) == 6
        for a, b in zip(trimmed.log, full.log):
            assert abs(a["L_total"] - b["L_total"]) <= 1e-12
            assert 0.0 <= a["pad_frac"] < b["pad_frac"] < 1.0
        for k, p in trimmed.params.items():
            np.testing.assert_allclose(p.data, full.params[k].data, rtol=0,
                                       atol=1e-9)
        assert trimmed.best_val_f1 == full.best_val_f1


class TestEvaluatePairs:
    def test_report_fields_for_multitask(self):
        examples, vocab = tiny_dataset()
        pairs = encode_examples(examples, vocab, 48)
        result = train(pairs[:12], pairs[12:16], tiny_model(vocab),
                       TrainConfig(lr=3e-4, epochs=1, batch_size=8,
                                   system="multitask"))
        report = tr.evaluate_pairs(result.params, result.model_config,
                                   pairs[16:24])
        assert 0.0 <= report.em <= 1.0
        assert 0.0 <= report.token_f1 <= 1.0
        assert report.lf_exact is not None
        assert report.lf_relaxed.f1 >= 0.0
        assert len(report.confusion) == 9
        assert report.n_examples == 8

    def test_lf_skipped_when_omega_zero(self):
        examples, vocab = tiny_dataset()
        pairs = encode_examples(examples, vocab, 48)
        result = train(pairs[:12], pairs[12:16], tiny_model(vocab),
                       TrainConfig(lr=3e-4, epochs=1, batch_size=8,
                                   system="fused"))
        report = tr.evaluate_pairs(result.params, result.model_config,
                                   pairs[16:20])
        assert report.lf_exact is None

    def test_records_no_graph(self, monkeypatch):
        examples, vocab = tiny_dataset()
        pairs = encode_examples(examples, vocab, 48)[:20]
        config = apply_system(tiny_model(vocab), "multitask")
        params = mdl.init_params(config, 0)
        forward = mdl.forward
        seen = []

        def recording(*args, **kwargs):
            out = forward(*args, **kwargs)
            seen.extend(t for t in vars(out).values() if t is not None)
            return out

        monkeypatch.setattr(mdl, "forward", recording)
        monkeypatch.setattr(tr, "EVAL_BATCH_SIZE", 8)
        report = tr.evaluate_pairs(params, config, pairs)
        assert len(seen) == 3 * 4  # fused, LF, start and end per batch
        assert not any(t.requires_grad for t in seen)

        # the same evaluation over the gradient-requiring parameters
        seen.clear()
        monkeypatch.setattr(mdl, "forward", lambda _views, *args, **kwargs:
                            recording(params, *args, **kwargs))
        reference = tr.evaluate_pairs(params, config, pairs)
        assert all(t.requires_grad for t in seen)
        assert report == reference

    def test_matches_per_example_reference(self, monkeypatch):
        examples, vocab = tiny_dataset()
        pairs = encode_examples(examples, vocab, 48)
        result = train(pairs[:40], pairs[40:48], tiny_model(vocab),
                       TrainConfig(lr=3e-3, epochs=3, batch_size=8,
                                   system="multitask"))
        forward = mdl.forward
        logits = []

        def recording(params, config, batch, **kwargs):
            out = forward(params, config, batch, **kwargs)
            logits.extend(zip(out.start_logits.data, out.end_logits.data,
                              batch.context_mask))
            return out

        monkeypatch.setattr(mdl, "forward", recording)
        monkeypatch.setattr(tr, "EVAL_BATCH_SIZE", 8)
        test = pairs[40:]
        report = tr.evaluate_pairs(result.params, result.model_config, test)
        # per example: brute-force best span, text cut from the context,
        # then per-LF sums in example order
        ems, f1s, per_lf = [], [], {}
        for pair, (s, e, ctx) in zip(test, logits):
            best, best_score = None, -np.inf
            for i in np.flatnonzero(ctx):
                for j in np.flatnonzero(ctx):
                    if i <= j < i + result.model_config.max_answer_len \
                            and s[i] + e[j] > best_score:
                        best, best_score = (i, j), s[i] + e[j]
            offs = pair.token_offsets
            pred = pair.meta["context"][offs[best[0], 0]:offs[best[1], 1]]
            em = span_em(pred, pair.meta["gold"])
            f1 = token_f1(pred, pair.meta["gold"])
            ems.append(em)
            f1s.append(f1)
            slot = per_lf.setdefault(pair.lf_id,
                                     {"em": 0.0, "f1": 0.0, "n": 0})
            slot["em"] += em
            slot["f1"] += f1
            slot["n"] += 1
        for slot in per_lf.values():
            slot["em"] /= slot["n"]
            slot["f1"] /= slot["n"]
        assert len(logits) == len(test)
        assert 0.0 < report.em < 1.0 and len(per_lf) > 1
        assert report.em == float(np.mean(ems))
        assert report.token_f1 == float(np.mean(f1s))
        assert report.per_lf == per_lf


class TestFormatMatrix:
    def test_table_shape(self):
        cells = {("baseline", "pl"): {"f1": [50.0, 52.0], "em": [40.0, 42.0]},
                 ("fused", "pl"): {"f1": [60.0, 58.0], "em": [48.0, 50.0]}}
        table = tr.format_matrix(cells)
        lines = table.strip().split("\n")
        assert len(lines) == 3
        assert "baseline" in lines[1] and "51.00" in lines[1]
