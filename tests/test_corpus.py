import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest

from entqa import corpus as C
from entqa.corpus import (DatasetError, QAExample, build_paragraph_context,
                          build_templates, generate_corpus,
                          instantiate_questions, lf_tokenize, read_dataset,
                          write_dataset)
from entqa.textpipe import SEMANTIC_TYPE_IDS, tokenize


def oracle_tagger(entries: dict):
    """A reference tagger over `entries` (surface form -> semantic type):
    scans the tokens left to right, case-insensitively, preferring the
    longest surface form, with no overlaps, and returns [type, start, end]
    per mention."""
    by_tokens = {tuple(t for t, _, _ in tokenize(surface)): code
                 for surface, code in entries.items()}
    longest = max(map(len, by_tokens))

    def tag(text: str) -> list:
        toks = tokenize(text)
        tags, i = [], 0
        while i < len(toks):
            for n in range(min(longest, len(toks) - i), 0, -1):
                code = by_tokens.get(tuple(t for t, _, _ in toks[i:i + n]))
                if code is not None:
                    tags.append([code, toks[i][1], toks[i + n - 1][2]])
                    break
            else:
                n = 1
            i += n
        return tags
    return tag


# Built from the slot vocabularies, not from C.ENTITY_TYPES, so a wrong
# entry in the generator's map shows as a tag the oracle disagrees with.
ORACLE = oracle_tagger({
    **dict.fromkeys(C.MEDICATIONS, "clnd"),
    **dict.fromkeys(C.CONDITIONS, "fndg"),
    **dict.fromkeys(C.SYMPTOMS, "sosy"),
    **dict.fromkeys(C.PROCEDURES_DIAP, "diap"),
    **dict.fromkeys(C.PROCEDURES_LBPR, "lbpr"),
    **dict.fromkeys(C.PROCEDURES_TOPP, "topp"),
    **dict.fromkeys(C.DOSAGES, "qnco"),
})


class TestLfTokenize:
    def test_dosage_form(self):
        toks = lf_tokenize("MedicationEvent (|medication|) [dosage=x]")
        assert toks == Counter(
            {"MedicationEvent": 1, "|medication|": 1, "dosage": 1, "x": 1})

    def test_empty(self):
        assert lf_tokenize("") == Counter()

    def test_shared_tokens_across_forms(self):
        a = C.LOGICAL_FORMS[0].lf_tokens
        b = C.LOGICAL_FORMS[1].lf_tokens
        assert (a & b)["MedicationEvent"] == 1

    def test_nested_form(self):
        toks = lf_tokenize(
            "{MedicationEvent (x) CheckIfNull ([enddate])} given "
            "{ConditionEvent (|problem|)}")
        assert toks["CheckIfNull"] == 1
        assert toks["enddate"] == 1
        assert toks["|problem|"] == 1

    def test_inventory_size_and_consistency(self):
        assert len(C.LOGICAL_FORMS) == 9
        assert len({lf.lf_id for lf in C.LOGICAL_FORMS}) == 9
        for lf in C.LOGICAL_FORMS:
            assert lf.lf_tokens == lf_tokenize(lf.lf_string)


class TestTemplates:
    def test_every_lf_has_at_least_six(self):
        by_lf = Counter(t.lf_id for t in build_templates())
        assert set(by_lf) == set(range(9))
        assert min(by_lf.values()) >= 6

    def test_slots_are_consistent_with_lf(self):
        # every |slot| marker of a form, in its LF string and in each of
        # its paraphrases, names the one slot its questions ask about
        for t in build_templates():
            lf = C.LOGICAL_FORMS[t.lf_id]
            assert set(re.findall(r"\|([^|]+)\|", lf.lf_string)) == {t.slot}
            assert re.findall(r"\|([^|]+)\|", t.pattern) == [t.slot]

    def test_forms_draw_what_their_sentences_place(self):
        for i, lf in enumerate(C.LOGICAL_FORMS):
            assert lf.lf_id == i
            assert {lf.question_slot, lf.answer_slot} <= set(lf.draws)
            assert set(lf.draws.values()) <= set(C.SOURCES) | {"treatment"}
            for sentence in lf.sentences:
                assert sorted(re.findall(r"\{(\w+)\}", sentence)) == \
                    sorted(lf.draws)

    def test_fill(self):
        tpl = next(t for t in build_templates()
                   if t.pattern == "what is the dosage of |medication| ?")
        assert tpl.fill("aspirin") == "what is the dosage of aspirin ?"


class TestGenerateCorpus:
    def test_deterministic(self):
        a = generate_corpus(seed=5, num_notes=10)
        b = generate_corpus(seed=5, num_notes=10)
        assert [n.sentences for n in a] == [n.sentences for n in b]
        assert [[f.slots for f in n.facts] for n in a] == \
               [[f.slots for f in n.facts] for n in b]

    def test_distractor_count_binomial(self):
        notes = generate_corpus(seed=1, num_notes=1000, facts_per_note=5,
                                distractor_rate=0.5)
        counts = [len(n.sentences) - 5 for n in notes]
        for n in notes:
            assert len(n.facts) == 5
        assert 4.5 <= np.mean(counts) <= 5.5

    def test_fact_sentence_contains_both_surfaces(self):
        notes = generate_corpus(seed=2, num_notes=50)
        for note in notes:
            for fact in note.facts:
                sent = note.sentences[fact.sentence_idx]
                for surface in fact.slots.values():
                    assert surface in sent
                cs, ce = fact.answer_char_span
                answer_slot = C.LOGICAL_FORMS[fact.lf_id].answer_slot
                assert sent[cs:ce] == fact.slots[answer_slot]

    def test_bad_config(self):
        with pytest.raises(C.ConfigurationError):
            generate_corpus(seed=0, num_notes=0)

    @pytest.mark.parametrize("facts", [0, -2])
    def test_no_facts_per_note_is_refused(self, facts):
        # a note without facts answers no question: the corpus would be empty
        with pytest.raises(C.ConfigurationError, match="facts_per_note"):
            generate_corpus(seed=0, num_notes=3, facts_per_note=facts)


class TestInstantiateQuestions:
    def test_dosage_example(self):
        notes = generate_corpus(seed=3, num_notes=40)
        examples = instantiate_questions(notes, build_templates())
        dosage = [e for e in examples if e.lf_id == 0]
        assert dosage
        ex = next(e for e in dosage
                  if e.question_template_id == "lf0_t4")
        med = ex.question.replace(
            "what was the dosage prescribed of ", "").rstrip(" ?")
        assert med in C.MEDICATIONS
        assert ex.answer["text"].split()[-1] in C.DOSE_UNITS

    def test_answer_text_matches_offsets(self):
        notes = generate_corpus(seed=4, num_notes=30)
        for ex in instantiate_questions(notes, build_templates()):
            sent = ex.context_sentences[ex.answer["sentence_index"]]
            assert sent[ex.answer["char_start"]:ex.answer["char_end"]] == \
                ex.answer["text"]
            s, e = ex.answer_char_span_in_context()
            assert ex.context_text[s:e] == ex.answer["text"]

    def test_paraphrases_share_answer(self):
        notes = generate_corpus(seed=5, num_notes=30)
        examples = instantiate_questions(notes, build_templates())
        by_fact = {}
        for ex in examples:
            key = ex.id.rsplit("-", 1)[0] + f"-lf{ex.lf_id}"
            by_fact.setdefault(key, set()).add(ex.answer["text"])
        for answers in by_fact.values():
            assert len(answers) == 1

    def test_six_paraphrases_per_fact_at_least(self):
        notes = generate_corpus(seed=6, num_notes=5)
        examples = instantiate_questions(notes, build_templates())
        per_fact = Counter(ex.id.rsplit("-", 1)[0] for ex in examples)
        assert min(per_fact.values()) >= 6

    def test_gazetteer_tags_present(self):
        notes = generate_corpus(seed=7, num_notes=10)
        examples = instantiate_questions(notes, build_templates())
        tagged = sum(1 for ex in examples if ex.context_tags)
        assert tagged == len(examples)


class TestParagraphContext:
    def _one(self, seed):
        notes = generate_corpus(seed=seed, num_notes=10)
        examples = instantiate_questions(notes, build_templates())
        by_id = {n.note_id: n for n in notes}
        return notes, examples, by_id

    def test_window_lengths(self):
        notes, examples, by_id = self._one(8)
        rng = np.random.default_rng(0)
        for ex in examples[:50]:
            para = build_paragraph_context(ex, by_id[ex.note_id], rng)
            assert 15 <= len(para.context_sentences) <= 20
            ev = para.context_sentences[para.evidence_idx]
            assert para.answer["text"] in ev
            s, e = para.answer_char_span_in_context()
            assert para.context_text[s:e] == para.answer["text"]

    def test_evidence_position_near_uniform(self):
        notes, examples, by_id = self._one(9)
        rng = np.random.default_rng(1)
        ex = examples[0]
        note = by_id[ex.note_id]
        positions = []
        for _ in range(2000):
            para = build_paragraph_context(ex, note, rng)
            positions.append(para.evidence_idx / (len(para.context_sentences) - 1))
        hist, _ = np.histogram(positions, bins=4, range=(0, 1.0000001))
        # no quartile should dominate: uniform-ish, not centered
        assert hist.min() > 0.5 * hist.max()

    def test_boundaries_possible(self):
        notes, examples, by_id = self._one(10)
        ex = examples[0]
        note = by_id[ex.note_id]
        rng = np.random.default_rng(2)
        seen_first = seen_last = False
        for _ in range(500):
            para = build_paragraph_context(ex, note, rng)
            seen_first |= para.evidence_idx == 0
            seen_last |= para.evidence_idx == len(para.context_sentences) - 1
        assert seen_first and seen_last


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        notes = generate_corpus(seed=11, num_notes=5)
        examples = instantiate_questions(notes, build_templates())
        path = tmp_path / "data.jsonl"
        write_dataset(examples, path)
        back = list(read_dataset(path))
        assert [e.to_json() for e in back] == [e.to_json() for e in examples]

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        obj = {"id": "x", "note_id": 0}
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DatasetError, match="question"):
            list(read_dataset(path))

    def test_malformed_line_numbered(self, tmp_path):
        notes = generate_corpus(seed=12, num_notes=1)
        examples = instantiate_questions(notes, build_templates())[:1]
        path = tmp_path / "bad.jsonl"
        write_dataset(examples, path)
        with open(path, "a") as fh:
            fh.write("{broken\n")
        with pytest.raises(DatasetError, match="line 2"):
            list(read_dataset(path))

    def test_read_is_streaming(self, tmp_path):
        notes = generate_corpus(seed=13, num_notes=3)
        examples = instantiate_questions(notes, build_templates())
        path = tmp_path / "data.jsonl"
        write_dataset(examples, path)
        it = read_dataset(path)
        first = next(it)
        assert first.id == examples[0].id  # lazily yields without full load


# sha256 of write_dataset's output, as gen-data builds it: (seed, notes,
# facts per note, distractor rate, setting) -> digest. A refactor of the
# generator must keep these bytes. They depend on numpy's Generator
# streams (numpy 2.4.6); a numpy that changes those streams changes them.
CORPUS_DIGESTS = {
    (0, 6, 6, 0.4, "sentence"):
        "7ff78ffe5aad1f68a51652d6abf68a546d41905c35b101247bd6ebfb68232a71",
    (0, 6, 6, 0.4, "paragraph"):
        "d80ef0ab90a9d24245d71b0efe17f14ca263ebde149a661a6c612c4f98e700d3",
    (3, 5, 2, 0.7, "paragraph"):
        "80af8194239ae98218b318bf7678f95ab62b5251660692b73953951d0a771548",
}


@pytest.mark.parametrize("settings", list(CORPUS_DIGESTS))
def test_corpus_bytes_are_pinned(tmp_path, settings):
    seed, num_notes, facts, rate, setting = settings
    notes = generate_corpus(seed=seed, num_notes=num_notes,
                            facts_per_note=facts, distractor_rate=rate)
    examples = instantiate_questions(notes, build_templates())
    if setting == "paragraph":
        by_id = {n.note_id: n for n in notes}
        rng = np.random.default_rng(seed + 1)
        examples = [build_paragraph_context(ex, by_id[ex.note_id], rng)
                    for ex in examples]
    path = tmp_path / "corpus.jsonl"
    write_dataset(examples, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CORPUS_DIGESTS[settings]


RECORD = {
    "id": "x", "note_id": 0, "question": "dose of aspirin ?",
    "question_template_id": "lf0_t0", "lf_id": 0,
    "context_sentences": ["aspirin 40 mg daily ."], "evidence_idx": 0,
    "answer": {"sentence_index": 0, "char_start": 8, "char_end": 13,
               "text": "40 mg"},
    "question_tags": [["clnd", 8, 15]],
    "context_tags": [["clnd", 0, 7], ["qnco", 8, 13]],
}


class TestRecordCheck:
    def test_accepts_valid_record(self):
        assert QAExample(**RECORD).answer_char_span_in_context() == (8, 13)

    def test_rejects_empty_span(self):
        with pytest.raises(DatasetError, match=r"context_tags\[1\]"):
            QAExample(**{**RECORD, "context_tags": [["clnd", 0, 7],
                                                    ["qnco", 5, 5]]})

    def test_rejects_unknown_type(self):
        with pytest.raises(DatasetError, match=r"question_tags\[0\].*'nope'"):
            QAExample(**{**RECORD, "question_tags": [["nope", 0, 2]]})

    def test_rejects_non_integer_offset(self):
        with pytest.raises(DatasetError, match="question_tags"):
            QAExample(**{**RECORD, "question_tags": [["clnd", 8.0, 15]]})

    def test_rejects_answer_past_sentence(self):
        answer = {**RECORD["answer"], "char_end": 99}
        with pytest.raises(DatasetError, match="answer.char_start/char_end"):
            QAExample(**{**RECORD, "answer": answer})

    def test_rejects_lf_id_outside_inventory(self):
        with pytest.raises(DatasetError, match="lf_id"):
            QAExample(**{**RECORD, "lf_id": len(C.LOGICAL_FORMS)})

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_records_round_trip(self, tmp_path, seed):
        # both generators build records that pass the check and that
        # read_dataset gives back unchanged
        notes = generate_corpus(seed=seed, num_notes=3)
        examples = instantiate_questions(notes, build_templates())
        by_id = {n.note_id: n for n in notes}
        rng = np.random.default_rng(seed)
        examples += [build_paragraph_context(ex, by_id[ex.note_id], rng)
                     for ex in examples]
        path = tmp_path / "data.jsonl"
        write_dataset(examples, path)
        assert list(read_dataset(path)) == examples


class TestTagOracle:
    def test_longest_match(self):
        tag = oracle_tagger({"chest x ray": "diap", "chest": "bpoc"})
        assert tag("the chest x ray was clear") == \
            [["diap", 4, len("the chest x ray")]]

    def test_quantity_tag(self):
        assert oracle_tagger({"40 mg": "qnco"})("aspirin 40 mg daily") == \
            [["qnco", 8, 13]]

    def test_no_hits(self):
        assert oracle_tagger({"aspirin": "clnd"})("nothing to see here") == []

    def test_case_insensitive(self):
        assert oracle_tagger({"Aspirin": "clnd"})("ASPIRIN was held") == \
            [["clnd", 0, 7]]


class TestEntityTypes:
    def test_types_are_known(self):
        assert set(C.ENTITY_TYPES.values()) <= set(SEMANTIC_TYPE_IDS)

    def test_all_slot_surfaces_tagged(self):
        start = len("note mentions ")
        for surface in (C.MEDICATIONS + C.CONDITIONS + C.SYMPTOMS
                        + C.PROCEDURES + C.DOSAGES):
            tags = ORACLE(f"note mentions {surface} today")
            assert tags == [[C.ENTITY_TYPES[surface], start,
                             start + len(surface)]], surface

    @pytest.mark.parametrize("seed", range(5))
    def test_tags_match_oracle(self, seed):
        # the generator tags the values it places; the oracle finds them
        # again in the text, in both settings and in every note sentence
        notes = generate_corpus(seed=seed, num_notes=20)
        for note in notes:
            assert note.tags == [ORACLE(s) for s in note.sentences]
        examples = instantiate_questions(notes, build_templates())
        by_id = {n.note_id: n for n in notes}
        rng = np.random.default_rng(seed + 1)
        paragraphs = [build_paragraph_context(ex, by_id[ex.note_id], rng)
                      for ex in examples]
        for ex in examples + paragraphs:
            assert ex.question_tags == ORACLE(ex.question), ex.id
            assert ex.context_tags == ORACLE(ex.context_text), ex.id
        # each record owns its tag lists, as read records do
        owned = [t for ex in examples + paragraphs
                 for t in ex.question_tags + ex.context_tags]
        assert len({id(t) for t in owned}) == len(owned)
