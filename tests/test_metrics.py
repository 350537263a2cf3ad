import dataclasses
from collections import Counter

import numpy as np
import pytest

from entqa import metrics as M
from entqa.corpus import LOGICAL_FORMS, NUM_LF, lf_tokenize
from entqa.metrics import (EvalReport, MetricError, confusion_matrix,
                           evidence_scores, lf_exact_scores,
                           lf_relaxed_scores, normalize_answer, span_em,
                           token_f1)


class TestNormalize:
    def test_articles_and_punct(self):
        assert normalize_answer("The 40 mg, daily.") == "40 mg daily"

    def test_case(self):
        assert normalize_answer("Penicillin") == "penicillin"

    def test_whitespace_collapse(self):
        assert normalize_answer("a  b   c") == "b c"


class TestSpanScores:
    def test_em_exact(self):
        assert span_em("40 mg", "40 mg") == 1

    def test_em_normalized(self):
        assert span_em("the 40 MG.", "40 mg") == 1

    def test_em_miss(self):
        assert span_em("40 mg", "80 mg") == 0

    def test_f1_partial(self):
        # pred 3 tokens, gold 2, overlap 2: P=2/3, R=1, F1=0.8
        assert token_f1("40 mg daily", "40 mg") == pytest.approx(0.8)

    def test_f1_no_overlap(self):
        assert token_f1("aspirin", "nausea") == 0.0

    def test_f1_both_empty(self):
        assert token_f1("the", "a") == 1.0

    def test_f1_one_empty(self):
        assert token_f1("the", "aspirin") == 0.0

    def test_f1_multiset_counts(self):
        # repeated token counts once per copy in the bag intersection
        assert token_f1("mg mg", "mg") == pytest.approx(2 / 3)

    def test_f1_symmetric(self):
        rng = np.random.default_rng(0)
        words = ["a1", "b2", "c3", "d4"]
        for _ in range(50):
            x = " ".join(rng.choice(words, size=rng.integers(1, 5)))
            y = " ".join(rng.choice(words, size=rng.integers(1, 5)))
            assert token_f1(x, y) == pytest.approx(token_f1(y, x))

    def test_f1_oracle(self):
        # brute-force best bipartite bag overlap equals Counter intersection
        rng = np.random.default_rng(1)
        words = ["u", "v", "w"]
        for _ in range(100):
            pred = list(rng.choice(words, size=rng.integers(1, 6)))
            gold = list(rng.choice(words, size=rng.integers(1, 6)))
            overlap = sum(min(pred.count(t), gold.count(t))
                          for t in set(pred) | set(gold))
            if overlap == 0:
                expect = 0.0
            else:
                p, r = overlap / len(pred), overlap / len(gold)
                expect = 2 * p * r / (p + r)
            assert token_f1(" ".join(pred), " ".join(gold)) == \
                pytest.approx(expect)


def brute_force_prf(preds, golds, classes, weighted):
    """Reference implementation written the slow, obvious way."""
    rows = []
    support = []
    for c in classes:
        tp = sum(p == c and g == c for p, g in zip(preds, golds))
        fp = sum(p == c and g != c for p, g in zip(preds, golds))
        fn = sum(p != c and g == c for p, g in zip(preds, golds))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        rows.append((prec, rec, f1))
        support.append(sum(g == c for g in golds))
    if weighted:
        keep = [i for i, s in enumerate(support) if s > 0]
        total = sum(support[i] for i in keep)
        ws = [(i, support[i] / total) for i in keep]
    else:
        ws = [(i, 1.0 / len(classes)) for i in range(len(classes))]
    return tuple(sum(w * rows[i][k] for i, w in ws) for k in range(3))


class TestLfExact:
    def test_two_class_collapse(self):
        # predicting the majority class everywhere: class 1 has P=2/3,R=1,
        # class 0 P=R=0; weighted F1 = (1/3)*0 + (2/3)*0.8 (the other
        # forms have no support, so no weight)
        preds = [1, 1, 1]
        golds = [0, 1, 1]
        prf = lf_exact_scores(preds, golds)
        assert prf.f1 == pytest.approx((2 / 3) * 0.8)

    def test_perfect(self):
        prf = lf_exact_scores([0, 1, 2], [0, 1, 2])
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_weighted_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(2, 9))
            preds = rng.integers(0, k, size=n).tolist()
            golds = rng.integers(0, k, size=n).tolist()
            prf = lf_exact_scores(preds, golds)
            # same per-class arithmetic, summed in class order: exact
            assert (prf.precision, prf.recall, prf.f1) == brute_force_prf(
                preds, golds, range(NUM_LF), weighted=True)

    def test_macro_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(2, 9))
            preds = rng.integers(0, k, size=n).tolist()
            golds = rng.integers(0, k, size=n).tolist()
            # uniform weights over every form, those absent here included
            prf = lf_exact_scores(preds, golds, weighted=False)
            assert (prf.precision, prf.recall, prf.f1) == brute_force_prf(
                preds, golds, range(NUM_LF), weighted=False)

    def test_unknown_class(self):
        for bad in (9, -1, 2.5):
            with pytest.raises(MetricError):
                lf_exact_scores([bad], [0])

    def test_empty(self):
        with pytest.raises(MetricError):
            lf_exact_scores([], [])


class TestLfRelaxed:
    def test_hand_case(self, monkeypatch):
        inventory = [dataclasses.replace(LOGICAL_FORMS[0], lf_id=0,
                                         lf_string="Event (|x|) [a=b]"),
                     dataclasses.replace(LOGICAL_FORMS[1], lf_id=1,
                                         lf_string="Event (|x|) [c=b]")]
        monkeypatch.setattr(M, "LOGICAL_FORMS", inventory)
        # both forms tokenize to 4 tokens sharing 3: P=R=F1=0.75
        prf = lf_relaxed_scores([0], [1])
        assert prf.precision == pytest.approx(0.75)
        assert prf.recall == pytest.approx(0.75)
        assert prf.f1 == pytest.approx(0.75)

    def test_correct_prediction_is_perfect(self):
        prf = lf_relaxed_scores([4, 7], [4, 7])
        assert prf.f1 == 1.0

    def test_matches_counter_oracle(self):
        rng = np.random.default_rng(4)
        tokens = {lf.lf_id: lf.lf_tokens for lf in LOGICAL_FORMS}
        for _ in range(100):
            n = int(rng.integers(1, 30))
            preds = rng.integers(0, 9, size=n).tolist()
            golds = rng.integers(0, 9, size=n).tolist()
            prf = lf_relaxed_scores(preds, golds)
            fs = []
            for p, g in zip(preds, golds):
                ov = sum((tokens[p] & tokens[g]).values())
                prec = ov / sum(tokens[p].values())
                rec = ov / sum(tokens[g].values())
                fs.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
            assert prf.f1 == pytest.approx(np.mean(fs), abs=1e-12)

    def test_relaxed_dominates_exact_on_random_vectors(self):
        rng = np.random.default_rng(5)
        for trial in range(1000):
            n = int(rng.integers(30, 200))
            preds = rng.integers(0, 9, size=n).tolist()
            golds = rng.integers(0, 9, size=n).tolist()
            exact = lf_exact_scores(preds, golds)
            relaxed = lf_relaxed_scores(preds, golds)
            assert relaxed.f1 >= exact.f1 - 1e-12, trial

    def test_relaxed_dominates_exact_accuracy_always(self):
        # a correct class prediction earns full relaxed credit, so mean
        # relaxed F1 can never fall below exact-match accuracy
        rng = np.random.default_rng(6)
        for trial in range(1000):
            n = int(rng.integers(1, 20))
            preds = rng.integers(0, 9, size=n).tolist()
            golds = rng.integers(0, 9, size=n).tolist()
            acc = np.mean([p == g for p, g in zip(preds, golds)])
            assert lf_relaxed_scores(preds, golds).f1 >= acc - 1e-12, trial


class TestEvidence:
    def test_all_correct(self):
        assert evidence_scores([0, 1, 1], [0, 1, 1]).f1 == 1.0

    def test_hand_case(self):
        # preds [1,1,0,0] golds [1,0,0,0]:
        # class1 P=.5 R=1 F=2/3 sup=1; class0 P=1 R=2/3 F=.8 sup=3
        prf = evidence_scores([1, 1, 0, 0], [1, 0, 0, 0])
        assert prf.f1 == pytest.approx(0.25 * (2 / 3) + 0.75 * 0.8)

    def test_bad_label(self):
        with pytest.raises(MetricError):
            evidence_scores([2], [0])

    def test_matches_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            preds = rng.integers(0, 2, size=n).tolist()
            golds = rng.integers(0, 2, size=n).tolist()
            prf = evidence_scores(preds, golds)
            assert (prf.precision, prf.recall, prf.f1) == brute_force_prf(
                preds, golds, (0, 1), True)


class TestConfusionAndReport:
    def test_confusion_counts(self):
        m = confusion_matrix([0, 1, 1], [0, 0, 1], num_classes=2)
        assert m.tolist() == [[1, 1], [0, 1]]
        assert m.sum() == 3

    def test_report_roundtrip(self, tmp_path):
        report = EvalReport(n_examples=3, em=0.5, token_f1=0.6,
                            confusion=[[1, 0], [0, 2]])
        path = tmp_path / "report.json"
        report.save(path)
        import json
        back = json.loads(path.read_text())
        assert back["em"] == 0.5
        assert back["confusion"] == [[1, 0], [0, 2]]

    def test_confusion_csv(self, tmp_path):
        report = EvalReport(confusion=[[1, 2], [3, 4]])
        path = tmp_path / "confusion.csv"
        report.save_confusion_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[1] == "0,1,2"
        assert lines[2] == "1,3,4"
