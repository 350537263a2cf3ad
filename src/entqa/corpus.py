"""Synthetic clinical-style QA corpus: notes, facts, templates, logical forms.

Stands in for licensed EMR QA data with the same schema: each note is a
list of sentences realizing structured facts, questions are produced by
slot-filling paraphrase templates tied to logical forms, and answers are
character spans inside the evidence sentence.
"""

from __future__ import annotations

import functools
import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .checkpoint import atomic_write
from .textpipe import SEMANTIC_TYPE_IDS

# ---------------------------------------------------------------------------
# Logical forms: eight relation forms plus the dosage form. Each entry is
# the one definition of its form: the facts it generates, the sentences
# that realize them and the questions that ask about them.
# ---------------------------------------------------------------------------

_LF_TOKEN_RE = re.compile(r"\|[^|\s]+\||[^\s()\[\]{}=,]+")
_MARKER_RE = re.compile(r"\|([^|]+)\|")


def lf_tokenize(lf_string: str) -> Counter:
    """Token multiset of a logical-form string.

    Splits on whitespace and the delimiters ( ) [ ] { } = , while
    keeping |slot| markers as single tokens; empty fragments dropped.
    """
    return Counter(_LF_TOKEN_RE.findall(lf_string))


@dataclass(frozen=True)
class LogicalForm:
    """A fact of this form draws one value per slot of `draws`, in order,
    from the named source (see `_draw`); one of `sentences` realizes it,
    with its `answer_slot` value as the answer. Each paraphrase asks about
    the slot that `lf_string`'s |slot| marker names."""
    lf_id: int
    lf_string: str
    answer_slot: str
    draws: dict         # slot -> source, in draw order
    sentences: list     # templates with {slot} placeholders
    paraphrases: list   # questions with the |slot| marker

    @property
    def lf_tokens(self) -> Counter:
        return lf_tokenize(self.lf_string)

    @property
    def question_slot(self) -> str:
        return _MARKER_RE.search(self.lf_string).group(1)


# Paired forms share one sentence family so the sentence alone never
# reveals which slot is being asked about; the question has to decide.
_MED_DOSE_SIG = [
    "the patient was started on {medication} {dose} {sig} .",
    "{medication} {dose} {sig} was prescribed at discharge .",
    "current regimen includes {medication} {dose} taken {sig} .",
]
_MED_PROBLEM_SYMPTOM = [
    "{medication} was given for {problem} but caused {symptom} .",
    "the patient is on {medication} for {problem} and developed {symptom} .",
    "{medication} , prescribed to control {problem} , was linked to {symptom} .",
]
_TREAT_PROBLEM_SYMPTOM = [
    "{treatment} administered to treat {problem} improved the {symptom} .",
    "after {treatment} for {problem} the patient's {symptom} resolved .",
    "{treatment} , provided in response to {problem} , helped the {symptom} .",
]
_MED_SYMPTOM_PROBLEM = {"medication": "medication", "symptom": "symptom",
                        "problem": "condition"}
_TREAT_SYMPTOM_PROBLEM = {"symptom": "symptom", "problem": "condition",
                          "treatment": "treatment"}

LOGICAL_FORMS = [
    LogicalForm(
        0, "MedicationEvent (|medication|) [dosage=x]", answer_slot="dose",
        draws={"medication": "medication", "dose": "dose", "sig": "sig"},
        sentences=_MED_DOSE_SIG, paraphrases=[
            "what is the dosage of |medication| ?",
            "what dose of |medication| does the patient take ?",
            "how much |medication| does the patient take per day ?",
            "what is the current dose of |medication| ?",
            "what was the dosage prescribed of |medication| ?",
            "what amount of |medication| is the patient on ?",
            "at what strength is |medication| given ?",
            "how many milligrams of |medication| are prescribed ?",
        ]),
    LogicalForm(
        1, "MedicationEvent (|medication|) [sig=x]", answer_slot="sig",
        draws={"medication": "medication", "dose": "dose", "sig": "sig"},
        sentences=_MED_DOSE_SIG, paraphrases=[
            "how often does the patient take |medication| ?",
            "what is the sig of |medication| ?",
            "when should the patient take |medication| ?",
            "what is the dosing schedule for |medication| ?",
            "how frequently is |medication| taken ?",
            "what are the instructions for taking |medication| ?",
            "on what schedule is |medication| administered ?",
            "how is the patient supposed to take |medication| ?",
        ]),
    LogicalForm(
        2, "MedicationEvent (|medication|) causes {ConditionEvent (x) OR "
        "SymptomEvent (x)}", answer_slot="symptom",
        draws=_MED_SYMPTOM_PROBLEM, sentences=_MED_PROBLEM_SYMPTOM,
        paraphrases=[
            "what adverse reaction did |medication| cause ?",
            "what side effect did the patient have from |medication| ?",
            "what reaction was attributed to |medication| ?",
            "what symptom appeared after starting |medication| ?",
            "what problem did |medication| lead to ?",
            "what did |medication| cause ?",
            "which complaint followed the start of |medication| ?",
            "what adverse event is linked to |medication| ?",
        ]),
    LogicalForm(
        3, "MedicationEvent (|medication|) given {ConditionEvent (x) OR "
        "SymptomEvent (x)}", answer_slot="problem",
        draws=_MED_SYMPTOM_PROBLEM, sentences=_MED_PROBLEM_SYMPTOM,
        paraphrases=[
            "why is the patient on |medication| ?",
            "what is |medication| given for ?",
            "what condition is treated with |medication| ?",
            "for what reason was |medication| prescribed ?",
            "what diagnosis led to |medication| ?",
            "what is the indication for |medication| ?",
            "why was |medication| started ?",
            "what does |medication| treat in this patient ?",
        ]),
    LogicalForm(
        4, "[ProcedureEvent (|treatment|) given/conducted {ConditionEvent (x) "
        "OR SymptomEvent (x)}] OR [MedicationEvent (|treatment|) given "
        "{ConditionEvent (x) OR SymptomEvent (x)}]", answer_slot="problem",
        draws={"problem": "condition", "treatment": "procedure"}, sentences=[
            "{treatment} was conducted for {problem} .",
            "the patient underwent {treatment} for evaluation of {problem} .",
            "{treatment} was ordered because of {problem} .",
        ], paraphrases=[
            "why was |treatment| conducted ?",
            "what was the reason for the |treatment| ?",
            "what condition prompted the |treatment| ?",
            "for what was the |treatment| performed ?",
            "what was |treatment| done to evaluate ?",
            "what finding led to the |treatment| ?",
            "why did the patient undergo |treatment| ?",
            "what is the indication for the |treatment| ?",
        ]),
    LogicalForm(
        5, "{MedicationEvent (x) CheckIfNull ([enddate]) OR MedicationEvent "
        "(x) [enddate>currentDate] OR ProcedureEvent (x) [date=x]} given "
        "{ConditionEvent (|problem|) OR SymptomEvent (|problem|)}",
        answer_slot="treatment",
        draws={"problem": "condition", "treatment": "treatment"}, sentences=[
            "for {problem} the plan is to continue {treatment} .",
            "{problem} will be managed with {treatment} .",
            "the team decided to treat {problem} with {treatment} .",
        ], paraphrases=[
            "what is the plan for |problem| ?",
            "how will |problem| be managed ?",
            "what treatment is planned for |problem| ?",
            "what is being done about |problem| ?",
            "how is |problem| being addressed ?",
            "what therapy was chosen for |problem| ?",
            "what is the management strategy for |problem| ?",
            "what will the patient receive for |problem| ?",
        ]),
    LogicalForm(
        6, "{MedicationEvent (x) CheckIfNull ([enddate]) OR MedicationEvent "
        "(x) [enddate>currentDate]} given {ConditionEvent (|problem|) OR "
        "SymptomEvent (|problem|)}", answer_slot="medication",
        draws={"problem": "condition", "medication": "medication"}, sentences=[
            "for {problem} the patient remains on {medication} .",
            "ongoing {problem} is controlled with {medication} .",
            "{medication} continues to be taken for the patient's {problem} .",
        ], paraphrases=[
            "what medication is the patient on for |problem| ?",
            "which drug controls the patient's |problem| ?",
            "what does the patient take for |problem| ?",
            "what is prescribed for the |problem| ?",
            "which medication manages |problem| ?",
            "what current medication addresses |problem| ?",
            "what is the patient taking for |problem| ?",
            "which agent is used for |problem| ?",
        ]),
    LogicalForm(
        7, "{MedicationEvent (|treatment|) OR ProcedureEvent (|treatment|)} "
        "given {ConditionEvent (x) OR SymptomEvent (x)}", answer_slot="problem",
        draws=_TREAT_SYMPTOM_PROBLEM, sentences=_TREAT_PROBLEM_SYMPTOM,
        paraphrases=[
            "what was |treatment| administered for ?",
            "what problem did |treatment| address ?",
            "what was the |treatment| meant to treat ?",
            "which condition was |treatment| given for ?",
            "what was treated with |treatment| ?",
            "what illness required |treatment| ?",
            "what was the target of the |treatment| ?",
            "for which complaint did the patient receive |treatment| ?",
        ]),
    LogicalForm(
        8, "{MedicationEvent (|treatment|) OR ProcedureEvent (|treatment|)} "
        "improves/worsens/causes {ConditionEvent (x) OR SymptomEvent (x)}",
        answer_slot="symptom",
        draws=_TREAT_SYMPTOM_PROBLEM, sentences=_TREAT_PROBLEM_SYMPTOM,
        paraphrases=[
            "what symptom did |treatment| improve ?",
            "which complaint changed after |treatment| ?",
            "what got better with |treatment| ?",
            "what symptom responded to |treatment| ?",
            "which symptom was affected by |treatment| ?",
            "what complaint did the |treatment| help ?",
            "which symptom did the |treatment| alter ?",
            "what improved after the patient received |treatment| ?",
        ]),
]

NUM_LF = len(LOGICAL_FORMS)


# ---------------------------------------------------------------------------
# Slot vocabularies, and the semantic type of each tagged surface form.
# ---------------------------------------------------------------------------

MEDICATIONS = [
    "aspirin", "lisinopril", "metformin", "atorvastatin", "warfarin", "insulin",
    "amoxicillin", "penicillin", "ibuprofen", "acetaminophen", "prednisone",
    "albuterol", "omeprazole", "simvastatin", "levothyroxine", "amlodipine",
    "metoprolol", "furosemide", "gabapentin", "hydrochlorothiazide",
    "sertraline", "citalopram", "tramadol", "clopidogrel", "losartan",
    "pantoprazole", "azithromycin", "ciprofloxacin", "doxycycline", "naproxen",
    "digoxin", "heparin",
]

CONDITIONS = [
    "hypertension", "diabetes", "pneumonia", "asthma", "anemia",
    "hyperlipidemia", "hypothyroidism", "osteoporosis", "depression",
    "arthritis", "bronchitis", "cellulitis", "gout", "obesity", "insomnia",
]

SYMPTOMS = [
    "nausea", "headache", "dizziness", "fatigue", "cough", "fever",
    "vomiting", "rash", "chest pain", "shortness of breath", "diarrhea",
    "constipation", "palpitations", "itching", "swelling",
]

PROCEDURES_DIAP = [
    "chest x ray", "ct scan", "mri scan", "echocardiogram", "colonoscopy",
    "ultrasound", "biopsy",
]
PROCEDURES_LBPR = [
    "blood culture", "urinalysis", "lipid panel", "complete blood count",
]
PROCEDURES_TOPP = [
    "physical therapy", "dialysis", "chemotherapy", "radiation therapy",
    "wound debridement",
]
PROCEDURES = PROCEDURES_DIAP + PROCEDURES_LBPR + PROCEDURES_TOPP

DOSE_AMOUNTS = [5, 10, 20, 25, 40, 50, 75, 100, 150, 250, 500]
DOSE_UNITS = ["mg", "mcg", "units"]
DOSAGES = [f"{a} {u}" for a in DOSE_AMOUNTS for u in DOSE_UNITS]

SIGS = [
    "once daily", "twice daily", "three times daily", "every morning",
    "every night at bedtime", "every six hours", "as needed", "with meals",
]


# Sig values have no type and stay untagged.
ENTITY_TYPES = {
    **dict.fromkeys(MEDICATIONS, "clnd"),
    **dict.fromkeys(CONDITIONS, "fndg"),
    **dict.fromkeys(SYMPTOMS, "sosy"),
    **dict.fromkeys(PROCEDURES_DIAP, "diap"),
    **dict.fromkeys(PROCEDURES_LBPR, "lbpr"),
    **dict.fromkeys(PROCEDURES_TOPP, "topp"),
    **dict.fromkeys(DOSAGES, "qnco"),
}


def _tags_for(value: str, start: int) -> list:
    """The [type, start, end] tag of `value` placed at `start`, if it has
    a type."""
    code = ENTITY_TYPES.get(value)
    return [] if code is None else [[code, start, start + len(value)]]


# Each value source: its pool and the note's used-surface set that a draw
# avoids where it can (None: draws ignore it). Fact slots name a source in
# their form's `draws`; a distractor placeholder names its own.
SOURCES = {
    "medication": (MEDICATIONS, "med"),
    "condition": (CONDITIONS, "prob"),
    "symptom": (SYMPTOMS, "prob"),
    "procedure": (PROCEDURES, "proc"),
    "dose": (DOSAGES, None),
    "sig": (SIGS, None),
}

DISTRACTOR_TEMPLATES = [
    "family history is notable for {condition} .",
    "allergies include {medication} .",
    "{medication} was discontinued last year .",
    "the patient denies {symptom} .",
    "review of systems is negative for {symptom} .",
    "{procedure} from a prior admission was unremarkable .",
    "there is a remote history of {condition} .",
    "the patient previously declined {procedure} .",
]


# ---------------------------------------------------------------------------
# Question templates: the paraphrases of each logical form.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuestionTemplate:
    template_id: str
    lf_id: int
    pattern: str  # contains exactly one |slot| marker

    @property
    def slot(self) -> str:
        return _MARKER_RE.search(self.pattern).group(1)

    def fill(self, value: str) -> str:
        return self.pattern.replace(f"|{self.slot}|", value)


def build_templates() -> list[QuestionTemplate]:
    return [QuestionTemplate(f"lf{lf.lf_id}_t{j}", lf.lf_id, pattern)
            for lf in LOGICAL_FORMS for j, pattern in enumerate(lf.paraphrases)]


# ---------------------------------------------------------------------------
# Notes and facts.
# ---------------------------------------------------------------------------

@dataclass
class Fact:
    lf_id: int
    slots: dict            # slot name -> surface form
    sentence_idx: int
    answer_char_span: tuple  # (start, end) within the realizing sentence


@dataclass
class Note:
    note_id: int
    sentences: list
    facts: list
    tags: list  # per sentence, its [type, start, end] tags


class ConfigurationError(ValueError):
    pass


_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


@functools.cache
def _pieces(template: str) -> tuple:
    """The template's literals and placeholder names, alternating; each
    template is parsed once, since paragraphs render thousands."""
    return tuple(_PLACEHOLDER_RE.split(template))


def _render(template: str, values: dict,
            answer_key: str) -> tuple[str, tuple, list]:
    """Fill a sentence template, returning the answer's char span and a
    tag for each placed value that has a semantic type."""
    out = []
    pos = 0
    span = None
    tags = []
    for i, piece in enumerate(_pieces(template)):
        if i % 2:   # a placeholder's name
            name, piece = piece, values[piece]
            if name == answer_key:
                span = (pos, pos + len(piece))
            tags += _tags_for(piece, pos)
        out.append(piece)
        pos += len(piece)
    return "".join(out), span, tags


def _draw(rng, source: str, used: dict) -> str:
    """A value from `source` (see `SOURCES`), avoiding the surfaces its
    used set already holds where the pool has others. A "treatment" is a
    medication or a procedure by a coin flip."""
    if source == "treatment":
        source = "medication" if rng.random() < 0.5 else "procedure"
    pool, key = SOURCES[source]
    if key is None:
        return pool[rng.integers(len(pool))]
    free = [x for x in pool if x not in used[key]]
    choices = free if free else pool
    pick = choices[rng.integers(len(choices))]
    used[key].add(pick)
    return pick


def _make_distractor(rng, used: dict) -> tuple[str, list]:
    """A sentence that answers no question, and its tags."""
    tpl = DISTRACTOR_TEMPLATES[rng.integers(len(DISTRACTOR_TEMPLATES))]
    slot = _pieces(tpl)[1]   # its one placeholder
    sentence, _, tags = _render(tpl, {slot: _draw(rng, slot, used)}, slot)
    return sentence, tags


def generate_corpus(seed: int, num_notes: int, facts_per_note: int = 6,
                    distractor_rate: float = 0.4) -> list[Note]:
    """Deterministically generate `num_notes` synthetic notes.

    Each fact is realized by exactly one sentence; distractor sentences
    mention typed entities but answer no question. The number of
    distractors per note is binomial with mean
    facts_per_note * rate / (1 - rate).
    """
    if num_notes < 1:
        raise ConfigurationError("num_notes must be >= 1")
    if facts_per_note < 1:
        raise ConfigurationError("facts_per_note must be >= 1")
    if not 0.0 <= distractor_rate < 1.0:
        raise ConfigurationError("distractor_rate must be in [0, 1)")
    rng = np.random.default_rng(seed)
    notes = []
    for note_id in range(num_notes):
        used = {"med": set(), "prob": set(), "proc": set()}
        forms = [LOGICAL_FORMS[rng.integers(NUM_LF)]
                 for _ in range(facts_per_note)]
        rendered = []
        for lf in forms:
            vals = {slot: _draw(rng, source, used)
                    for slot, source in lf.draws.items()}
            tpl = lf.sentences[rng.integers(len(lf.sentences))]
            rendered.append((lf.lf_id, vals,
                             *_render(tpl, vals, lf.answer_slot)))
        if distractor_rate > 0:
            n_trials = max(1, round(2 * facts_per_note * distractor_rate
                                    / (1 - distractor_rate)))
            n_distractors = int(rng.binomial(n_trials, 0.5))
        else:
            n_distractors = 0
        tagged = [(sent, tags) for _, _, sent, _, tags in rendered]
        for _ in range(n_distractors):
            tagged.append(_make_distractor(rng, used))
        order = rng.permutation(len(tagged))
        placed = {old: new for new, old in enumerate(order)}
        sentences = [tagged[old][0] for old in order]
        tags = [tagged[old][1] for old in order]
        facts = [Fact(lf_id=lf_id, slots=vals, sentence_idx=placed[i],
                      answer_char_span=span)
                 for i, (lf_id, vals, _, span, _) in enumerate(rendered)]
        facts.sort(key=lambda f: f.sentence_idx)
        notes.append(Note(note_id=note_id, sentences=sentences, facts=facts,
                          tags=tags))
    return notes


# ---------------------------------------------------------------------------
# QA examples.
# ---------------------------------------------------------------------------

class DatasetError(ValueError):
    pass


ANSWER_KEYS = {"sentence_index", "char_start", "char_end", "text"}


def _is_span(start, end, length: int) -> bool:
    """Integer offsets with 0 <= start < end <= length."""
    return type(start) is int and type(end) is int and 0 <= start < end <= length


def _check_tags(name: str, tags, length: int):
    """Each tag a [type, start, end] list: a known semantic type over a
    span of a `length`-character text."""
    if not isinstance(tags, list):
        raise DatasetError(f"{name}: not a list of [type, start, end] tags")
    for i, tag in enumerate(tags):
        if not (isinstance(tag, list) and len(tag) == 3):
            raise DatasetError(
                f"{name}[{i}]: {tag!r} is not a [type, start, end] list")
        code, start, end = tag
        if not (isinstance(code, str) and code in SEMANTIC_TYPE_IDS):
            raise DatasetError(f"{name}[{i}]: unknown semantic type {code!r}")
        if not _is_span(start, end, length):
            raise DatasetError(f"{name}[{i}]: [{start!r}, {end!r}] is not a "
                               f"span of the {length}-character text")


@dataclass
class QAExample:
    id: str
    note_id: int
    question: str
    question_template_id: str
    lf_id: int
    context_sentences: list
    evidence_idx: int
    answer: dict   # {sentence_index, char_start, char_end, text}
    question_tags: list = field(default_factory=list)  # [type, start, end]
    context_tags: list = field(default_factory=list)

    def __post_init__(self):
        """Check what encoding and scoring rely on, naming the field at
        fault; generated and read records pass the same check."""
        if not isinstance(self.question, str):
            raise DatasetError("question: not a string")
        sentences = self.context_sentences
        if not (isinstance(sentences, list) and sentences
                and all(isinstance(s, str) for s in sentences)):
            raise DatasetError(
                "context_sentences: not a non-empty list of strings")
        if not (type(self.lf_id) is int and 0 <= self.lf_id < NUM_LF):
            raise DatasetError(f"lf_id: {self.lf_id!r} is not in [0, {NUM_LF})")
        n = len(sentences)
        if not (type(self.evidence_idx) is int and 0 <= self.evidence_idx < n):
            raise DatasetError(f"evidence_idx: {self.evidence_idx!r} does not "
                               f"index the {n} context sentences")
        answer = self.answer
        if not (isinstance(answer, dict) and answer.keys() == ANSWER_KEYS):
            raise DatasetError(
                f"answer: keys must be exactly {sorted(ANSWER_KEYS)}")
        index = answer["sentence_index"]
        if type(index) is not int or index != self.evidence_idx:
            raise DatasetError(f"answer.sentence_index: {index!r} is not "
                               f"evidence_idx {self.evidence_idx}")
        sentence = sentences[index]
        start, end = answer["char_start"], answer["char_end"]
        if not _is_span(start, end, len(sentence)):
            raise DatasetError(
                f"answer.char_start/char_end: [{start!r}, {end!r}] is not a "
                f"span of the {len(sentence)}-character evidence sentence")
        if answer["text"] != sentence[start:end]:
            raise DatasetError(
                f"answer.text: {answer['text']!r} is not the evidence "
                f"sentence's [{start}, {end}) slice {sentence[start:end]!r}")
        _check_tags("question_tags", self.question_tags, len(self.question))
        _check_tags("context_tags", self.context_tags, len(self.context_text))

    @property
    def context_text(self) -> str:
        return " ".join(self.context_sentences)

    def sentence_offset(self, i: int) -> int:
        """Character offset of sentence `i` in `context_text`."""
        return sum(len(s) + 1 for s in self.context_sentences[:i])

    def answer_char_span_in_context(self) -> tuple[int, int]:
        offset = self.sentence_offset(self.answer["sentence_index"])
        return (offset + self.answer["char_start"],
                offset + self.answer["char_end"])

    def sentence_tags(self, i: int) -> list:
        """The context tags inside sentence `i`, shifted to offsets into it."""
        start = self.sentence_offset(i)
        end = start + len(self.context_sentences[i])
        return [[t, s - start, e - start] for t, s, e in self.context_tags
                if start <= s and e <= end]

    def to_json(self) -> dict:
        return asdict(self)


def instantiate_questions(notes: list[Note],
                          templates: list[QuestionTemplate]) -> list[QAExample]:
    """Sentence-setting examples: one per (fact, template of its form)."""
    by_lf: dict[int, list[QuestionTemplate]] = {}
    for t in templates:
        by_lf.setdefault(t.lf_id, []).append(t)
    missing = set(range(NUM_LF)) - set(by_lf)
    if missing:
        raise ConfigurationError(f"templates missing for LFs {sorted(missing)}")
    examples = []
    for note in notes:
        for fi, fact in enumerate(note.facts):
            slot = LOGICAL_FORMS[fact.lf_id].question_slot
            slot_value = fact.slots[slot]
            sentence = note.sentences[fact.sentence_idx]
            sentence_tags = note.tags[fact.sentence_idx]
            for tpl in by_lf[fact.lf_id]:
                question = tpl.fill(slot_value)
                marker = tpl.pattern.index(f"|{slot}|")
                cs, ce = fact.answer_char_span
                ex = QAExample(
                    id=f"n{note.note_id}-f{fi}-{tpl.template_id}",
                    note_id=note.note_id,
                    question=question,
                    question_template_id=tpl.template_id,
                    lf_id=fact.lf_id,
                    context_sentences=[sentence],
                    evidence_idx=0,
                    answer={"sentence_index": 0, "char_start": cs,
                            "char_end": ce, "text": sentence[cs:ce]},
                    question_tags=_tags_for(slot_value, marker),
                    context_tags=[list(t) for t in sentence_tags],
                )
                examples.append(ex)
    return examples


PARA_MIN_SENTENCES, PARA_MAX_SENTENCES = 15, 20


def build_paragraph_context(example: QAExample, note: Note,
                            rng: np.random.Generator) -> QAExample:
    """Paragraph-setting variant: the evidence sentence at a random offset
    inside a window of `l_para` sentences drawn from the note.

    Draws l_para uniform in [PARA_MIN_SENTENCES, PARA_MAX_SENTENCES] and
    l_pre uniform in [0, l_para - 1]; the context is l_pre sentences before
    the evidence sentence, the evidence sentence, then l_para - l_pre - 1
    after, padding with distractors where the note runs short.
    """
    ev_sent = example.context_sentences[example.evidence_idx]
    ev_in_note = None
    for i, s in enumerate(note.sentences):
        if s == ev_sent:
            ev_in_note = i
            break
    if ev_in_note is None:
        raise ValueError(f"evidence sentence not found in note {note.note_id}")
    l_para = int(rng.integers(PARA_MIN_SENTENCES, PARA_MAX_SENTENCES + 1))
    l_pre = int(rng.integers(0, l_para))
    l_post = l_para - l_pre - 1

    used = {"med": set(), "prob": set(), "proc": set()}
    tagged = list(zip(note.sentences, note.tags))
    before = tagged[max(0, ev_in_note - l_pre):ev_in_note]
    while len(before) < l_pre:
        before.insert(0, _make_distractor(rng, used))
    after = tagged[ev_in_note + 1:ev_in_note + 1 + l_post]
    while len(after) < l_post:
        after.append(_make_distractor(rng, used))
    sentences, context_tags, offset = [], [], 0
    for sentence, tags in before + [tagged[ev_in_note]] + after:
        sentences.append(sentence)
        context_tags += [[t, s + offset, e + offset] for t, s, e in tags]
        offset += len(sentence) + 1
    answer = dict(example.answer)
    answer["sentence_index"] = l_pre
    out = QAExample(
        id=example.id, note_id=example.note_id, question=example.question,
        question_template_id=example.question_template_id, lf_id=example.lf_id,
        context_sentences=sentences, evidence_idx=l_pre, answer=answer,
        question_tags=[list(t) for t in example.question_tags],
        context_tags=context_tags,
    )
    return out


# ---------------------------------------------------------------------------
# Dataset serialization: JSON Lines, streaming reads.
# ---------------------------------------------------------------------------

REQUIRED_FIELDS = [f.name for f in fields(QAExample)]


def write_dataset(examples, path):
    with atomic_write(path, encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(ex.to_json(), sort_keys=True) + "\n")


def read_dataset(path):
    """Yield QAExamples one line at a time; a record that fails its
    check raises a DatasetError naming the line and the field, and a file
    that is not UTF-8 one naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DatasetError(
                        f"malformed JSON at line {lineno}: {e}") from e
                if not isinstance(obj, dict):
                    raise DatasetError(f"line {lineno}: not a JSON object")
                for key in REQUIRED_FIELDS:
                    if key not in obj:
                        raise DatasetError(
                            f"line {lineno}: missing required field '{key}'")
                unknown = [k for k in obj if k not in REQUIRED_FIELDS]
                if unknown:
                    raise DatasetError(
                        f"line {lineno}: unknown field '{unknown[0]}'")
                try:
                    example = QAExample(**obj)
                except DatasetError as e:
                    raise DatasetError(f"line {lineno}: {e}") from e
                yield example
        except UnicodeDecodeError as e:
            raise DatasetError(f"corpus {path} is not UTF-8 text: {e}") from e
