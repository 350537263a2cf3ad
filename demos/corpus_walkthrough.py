"""Walk through the synthetic clinical QA corpus: notes, entity tags,
question templates, logical forms, and the paraphrase-level split."""

from collections import Counter

from entqa.corpus import (LOGICAL_FORMS, build_templates, generate_corpus,
                          instantiate_questions, lf_tokenize)
from entqa.splits import filter_examples, leakage_audit, make_assignment

# ---------------------------------------------------------------------------
# 1. Generate a few notes. Each note mixes fact sentences (each carrying
#    one answerable fact) with distractor sentences.
# ---------------------------------------------------------------------------
notes = generate_corpus(seed=7, num_notes=20)
note = notes[0]
print(f"note 0 has {len(note.sentences)} sentences, {len(note.facts)} facts:")
for sent in note.sentences[:5]:
    print("  -", sent)

# ---------------------------------------------------------------------------
# 2. The generator tags each clinical value it writes with a semantic
#    type; the note keeps one tag list per sentence.
# ---------------------------------------------------------------------------
index = note.facts[0].sentence_idx
sentence = note.sentences[index]
print("\ntagged:", sentence)
for code, start, end in note.tags[index]:
    print(f"  [{code}] {sentence[start:end]!r}")

# ---------------------------------------------------------------------------
# 3. Every fact spawns one question per compatible template; paraphrases
#    of a question share a logical form.
# ---------------------------------------------------------------------------
examples = instantiate_questions(notes, build_templates())
print(f"\n{len(examples)} QA examples from {len(notes)} notes")
first_fact = [ex for ex in examples if ex.id.startswith("n0-f0-")]
for ex in first_fact[:3]:
    print(f"  Q: {ex.question}")
print(f"  A: {first_fact[0].answer['text']!r}  (LF {first_fact[0].lf_id})")

lf = LOGICAL_FORMS[first_fact[0].lf_id]
print("  LF string:", lf.lf_string)
print("  LF tokens:", dict(lf_tokenize(lf.lf_string)))

# ---------------------------------------------------------------------------
# 4. Paraphrase-level split: 70% of each LF's templates train, the rest
#    are only ever seen at evaluation time. The audit must report zero
#    overlap in both notes and templates.
# ---------------------------------------------------------------------------
assignment = make_assignment(notes, build_templates(), "pl", seed=0)
train, val, test = filter_examples(examples, assignment)
print(f"\npl split: train={len(train)} val={len(val)} test={len(test)}")
print("leakage audit:", leakage_audit(train, val + test, assignment))

train_templates = Counter(ex.question_template_id for ex in train)
eval_templates = Counter(ex.question_template_id for ex in val + test)
print("templates seen in training:", len(train_templates))
print("templates held out for eval:", len(eval_templates))
