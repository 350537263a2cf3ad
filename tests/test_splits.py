import pytest

from entqa.corpus import (DatasetError, build_templates, generate_corpus,
                          instantiate_questions)
from entqa.splits import (SplitAssignment, SplitError, filter_examples,
                          leakage_audit, make_assignment, partition_templates,
                          split_notes)


@pytest.fixture(scope="module")
def small_corpus():
    notes = generate_corpus(seed=0, num_notes=30)
    examples = instantiate_questions(notes, build_templates())
    return notes, examples


class TestSplitNotes:
    def test_exact_sizes(self):
        # 70 / 15 / 15 of 524 notes: 366.8 rounds to 367, 78.6 to 79, and
        # test takes the other 78
        train, val, test = split_notes(range(524), seed=0)
        assert (len(train), len(val), len(test)) == (367, 79, 78)

    def test_seed_stable(self):
        a = split_notes(range(100), seed=3)
        b = split_notes(range(100), seed=3)
        assert a == b

    def test_disjoint_exhaustive(self):
        train, val, test = split_notes(range(57), seed=1)
        assert train | val | test == set(range(57))
        assert not (train & val or train & test or val & test)

    def test_fewer_notes_than_splits(self):
        with pytest.raises(SplitError, match="only 2 notes for 3 splits"):
            split_notes(range(2), seed=0)


class TestPartitionTemplates:
    def test_six_templates_split_four_two(self):
        tr, ev = partition_templates({0: [f"t{i}" for i in range(6)]}, 0.7, seed=0)
        assert len(tr[0]) == 4 and len(ev[0]) == 2

    def test_ten_templates_split_seven_three(self):
        tr, ev = partition_templates({0: [f"t{i}" for i in range(10)]}, 0.7, seed=0)
        assert len(tr[0]) == 7 and len(ev[0]) == 3

    def test_single_template_goes_to_train(self):
        tr, ev = partition_templates({0: ["only"]}, 0.7, seed=0)
        assert tr[0] == ["only"] and ev[0] == []

    def test_both_sides_nonempty(self):
        for n in range(2, 12):
            tr, ev = partition_templates({0: [f"t{i}" for i in range(n)]},
                                         0.9, seed=1)
            assert tr[0] and ev[0]

    def test_bad_frac(self):
        with pytest.raises(SplitError):
            partition_templates({0: ["a", "b"]}, 1.0, seed=0)


class TestFilterExamples:
    def test_pl_zero_leakage(self, small_corpus):
        notes, examples = small_corpus
        asn = make_assignment(notes, build_templates(), "pl", seed=1)
        train, val, test = filter_examples(examples, asn)
        audit = leakage_audit(train, val + test, asn)
        assert audit["note_overlap"] == 0
        assert audit["template_overlap"] == 0

    def test_r_train_superset_of_pl_train(self, small_corpus):
        notes, examples = small_corpus
        pl = make_assignment(notes, build_templates(), "pl", seed=2)
        r = make_assignment(notes, build_templates(), "r", seed=2)
        tr_pl = {e.id for e in filter_examples(examples, pl)[0]}
        tr_r = {e.id for e in filter_examples(examples, r)[0]}
        assert tr_pl < tr_r

    def test_shared_eval_sets(self, small_corpus):
        notes, examples = small_corpus
        pl = make_assignment(notes, build_templates(), "pl", seed=3)
        r = make_assignment(notes, build_templates(), "r", seed=3)
        _, val_pl, test_pl = filter_examples(examples, pl)
        _, val_r, test_r = filter_examples(examples, r)
        assert {e.id for e in test_pl} == {e.id for e in test_r}
        assert {e.id for e in val_pl} == {e.id for e in val_r}

    def test_unknown_template_raises(self, small_corpus):
        notes, examples = small_corpus
        asn = make_assignment(notes, build_templates(), "pl", seed=4)
        bad = examples[0]
        bad.question_template_id = "lf0_nope"
        try:
            with pytest.raises(DatasetError, match=f"{bad.id}.*nope"):
                filter_examples(examples, asn)
        finally:
            bad.question_template_id = "lf0_t0"

    @pytest.mark.parametrize("mode", ["pl", "r"])
    def test_unplaced_note_raises(self, small_corpus, mode):
        # a split made from half the notes places none of the other half's
        notes, examples = small_corpus
        asn = make_assignment(notes[:15], build_templates(), mode, seed=4)
        first = next(ex for ex in examples if ex.note_id >= 15)
        with pytest.raises(DatasetError,
                           match=f"{first.id} is on note {first.note_id}"):
            filter_examples(examples, asn)
        placed = [ex for ex in examples if ex.note_id < 15]
        assert sum(map(len, filter_examples(placed, asn))) > 0

    @pytest.mark.parametrize("mode", ["pl", "r"])
    def test_routes_as_the_three_branch_rule(self, mode):
        # the acceptance corpus, five split seeds: each part holds exactly
        # the examples the rule below keeps, in corpus order
        notes = generate_corpus(seed=0, num_notes=110)
        examples = instantiate_questions(notes, build_templates())
        for seed in range(5):
            asn = make_assignment(notes, build_templates(), mode, seed=seed)
            train_tids = {t for ts in asn.templates_train.values() for t in ts}
            eval_tids = {t for ts in asn.templates_eval.values() for t in ts}
            want = (
                [ex for ex in examples if ex.note_id in asn.train_notes and (
                    mode == "r" or ex.question_template_id in train_tids)],
                [ex for ex in examples if ex.note_id in asn.val_notes
                 and ex.question_template_id in eval_tids],
                [ex for ex in examples if ex.note_id in asn.test_notes
                 and ex.question_template_id in eval_tids])
            got = filter_examples(examples, asn)
            assert [[ex.id for ex in part] for part in got] == \
                [[ex.id for ex in part] for part in want], seed
            assert all(want), seed

    def test_empty_corpus(self, small_corpus):
        notes, _ = small_corpus
        asn = make_assignment(notes, build_templates(), "pl", seed=5)
        assert filter_examples([], asn) == ([], [], [])


class TestManifest:
    def test_save_load_roundtrip(self, tmp_path, small_corpus):
        notes, _ = small_corpus
        asn = make_assignment(notes, build_templates(), "pl", seed=6)
        path = tmp_path / "split.json"
        asn.save(path)
        back = SplitAssignment.load(path)
        assert back.to_json() == asn.to_json()

    def test_mode_validation(self, small_corpus):
        notes, _ = small_corpus
        with pytest.raises(SplitError):
            make_assignment(notes, build_templates(), "xx", seed=0)
