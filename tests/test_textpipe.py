import numpy as np
import pytest

from entqa import textpipe as tp
from entqa.textpipe import RESERVED, EncodingError, Vocab, encode_pair, tokenize


class TestTokenize:
    def test_word_and_punct_split(self):
        toks = [t for t, _, _ in tokenize("Penicillin 40 mg.")]
        assert toks == ["penicillin", "40", "mg", "."]

    def test_hyphen_split(self):
        toks = [t for t, _, _ in tokenize("x-ray")]
        assert toks == ["x", "-", "ray"]

    def test_empty(self):
        assert tokenize("") == []

    def test_offsets_roundtrip(self):
        texts = [
            "Aspirin 40 mg was prescribed at discharge.",
            "the patient denies chest pain , nausea and x-ray trouble ...",
        ]
        for text in texts:
            pieces = [text[s:e] for _, s, e in tokenize(text)]
            assert "".join(pieces) == "".join(text.split())


class TestVocab:
    def test_reserved_ids(self):
        v = Vocab(["aspirin"])
        assert v.id_for("[PAD]") == 0
        assert v.id_for("[UNK]") == 1
        assert v.id_for("[CLS]") == 2
        assert v.id_for("[SEP]") == 3
        assert v.id_for("aspirin") == 4
        assert v.id_for("warfarin") == 1  # unknown

    def test_build_deterministic(self):
        texts = ["aspirin given for pain", "pain improved with rest"]
        a = Vocab.build(texts)
        b = Vocab.build(texts)
        assert all(a.id_for(t) == b.id_for(t) for t in ["aspirin", "pain"])
        assert len(a) == len(b)

    def test_save_load_roundtrip(self, tmp_path):
        v = Vocab.build(["aspirin for pain"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        v2 = Vocab.load(path)
        assert len(v) == len(v2)
        assert v2.id_for("aspirin") == v.id_for("aspirin")


# the tags a corpus record stores for CONTEXT
CONTEXT = "aspirin 40 mg daily"
CONTEXT_TAGS = [["clnd", 0, 7], ["qnco", 8, 13]]


class TestEncodePair:
    def setup_method(self):
        self.vocab = Vocab.build([
            "dose of aspirin ?", "aspirin 40 mg daily",
        ])

    def test_answer_token_span(self):
        pair = encode_pair(
            "dose of aspirin ?", CONTEXT, self.vocab, 32, [], CONTEXT_TAGS,
            answer_char_span=(8, 13))
        s, e = pair.answer_start_tok, pair.answer_end_tok
        assert s > 0 and e >= s
        toks = pair.token_offsets[s:e + 1]
        assert [CONTEXT[a:b] for a, b in toks] == ["40", "mg"]

    def test_no_tags_all_zero(self):
        pair = encode_pair("dose of aspirin ?", "aspirin 40 mg daily",
                           self.vocab, 32, [], [])
        assert (pair.entity_ids == 0).all()

    def test_padding_contract(self):
        pair = encode_pair("dose ?", "aspirin daily", self.vocab, 32, [], [])
        used = pair.attention_mask.sum()
        assert (pair.token_ids[used:] == 0).all()
        assert not pair.attention_mask[used:].any()
        assert (pair.entity_ids[~pair.attention_mask] == 0).all()
        assert len(pair.token_ids) == 32

    def test_entity_alignment_intersects(self):
        pair = encode_pair("dose ?", CONTEXT, self.vocab, 32, [],
                           CONTEXT_TAGS)
        ctx_positions = np.flatnonzero(pair.context_mask)
        types = pair.entity_ids[ctx_positions]
        # aspirin -> clnd(id), 40 mg -> qnco over two tokens, daily -> 0
        from entqa.textpipe import SEMANTIC_TYPE_IDS
        assert list(types) == [SEMANTIC_TYPE_IDS["clnd"],
                               SEMANTIC_TYPE_IDS["qnco"],
                               SEMANTIC_TYPE_IDS["qnco"], 0]

    def test_question_too_long(self):
        with pytest.raises(EncodingError):
            encode_pair("word " * 40, "ctx", self.vocab, 16, [], [])

    def test_truncation_drops_lost_answer(self):
        context = " ".join(["filler"] * 30) + " aspirin"
        pair = encode_pair("q ?", context, self.vocab, 16, [], [],
                           answer_char_span=(len(context) - 7, len(context)))
        assert pair.answer_start_tok == -1
        assert pair.answer_end_tok == -1

    def test_deterministic(self):
        a = encode_pair("dose ?", "aspirin 40 mg", self.vocab, 24, [], [])
        b = encode_pair("dose ?", "aspirin 40 mg", self.vocab, 24, [], [])
        np.testing.assert_array_equal(a.token_ids, b.token_ids)
        np.testing.assert_array_equal(a.segment_ids, b.segment_ids)

    def test_answer_inside_context_segment(self):
        context = "aspirin 40 mg daily"
        pair = encode_pair("dose of aspirin ?", context, self.vocab, 32,
                           [], [], answer_char_span=(8, 13))
        assert pair.segment_ids[pair.answer_start_tok] == 1
        assert pair.context_mask[pair.answer_end_tok]


def reference_encode(question, context, vocab, max_seq_len, question_tags,
                     context_tags, answer_char_span):
    """The per-position encoder encode_pair replaced: build the token
    sequence as a list, then write each position in turn. Returns the five
    arrays, the offsets as a list (None off the context) and the answer
    positions."""
    def entity_ids_for(tokens, tags):
        ids = [0] * len(tokens)
        for code, start, end in tags:
            for i, (_, s, e) in enumerate(tokens):
                if s < end and e > start:
                    ids[i] = tp.SEMANTIC_TYPE_IDS[code]
        return ids

    q_toks, c_toks = tokenize(question), tokenize(context)
    c_kept = c_toks[:max_seq_len - len(q_toks) - 3]
    q_ent = entity_ids_for(q_toks, question_tags)
    c_ent = entity_ids_for(c_kept, context_tags)
    arrays = {name: np.zeros(max_seq_len, dtype=dtype) for name, dtype in (
        ("token_ids", np.int64), ("segment_ids", np.int64),
        ("attention_mask", bool), ("entity_ids", np.int64),
        ("context_mask", bool))}
    offsets = [None] * max_seq_len
    seq = [(tp.CLS, 0, 0, None)]
    seq += [(t, 0, q_ent[i], None) for i, (t, _, _) in enumerate(q_toks)]
    seq += [(tp.SEP, 0, 0, None)]
    seq += [(t, 1, c_ent[i], (s, e)) for i, (t, s, e) in enumerate(c_kept)]
    seq += [(tp.SEP, 1, 0, None)]
    for pos, (tok, seg, ent, off) in enumerate(seq):
        arrays["token_ids"][pos] = vocab.id_for(tok)
        arrays["segment_ids"][pos] = seg
        arrays["attention_mask"][pos] = True
        arrays["entity_ids"][pos] = ent
        offsets[pos] = off
        arrays["context_mask"][pos] = off is not None
    a0, a1 = answer_char_span
    hit = [i for i, (_, s, e) in enumerate(c_kept) if s < a1 and e > a0]
    full_hit = [i for i, (_, s, e) in enumerate(c_toks) if s < a1 and e > a0]
    answer = (-1, -1)
    if hit and len(hit) == len(full_hit):
        answer = (len(q_toks) + 2 + hit[0], len(q_toks) + 2 + hit[-1])
    return arrays, offsets, answer


@pytest.fixture(scope="module")
def corpora():
    from entqa.corpus import (build_paragraph_context, build_templates,
                              generate_corpus, instantiate_questions)
    notes = generate_corpus(seed=0, num_notes=20)
    sentence = instantiate_questions(notes, build_templates())
    by_id = {n.note_id: n for n in notes}
    rng = np.random.default_rng(1)
    paragraph = [build_paragraph_context(ex, by_id[ex.note_id], rng)
                 for ex in sentence]
    vocab = Vocab.build([ex.question for ex in paragraph]
                        + [ex.context_text for ex in paragraph])
    return {"sentence": sentence, "paragraph": paragraph}, vocab


@pytest.mark.parametrize("max_seq_len", [48, 128])
@pytest.mark.parametrize("setting", ["sentence", "paragraph"])
def test_encode_pair_matches_reference(corpora, setting, max_seq_len):
    by_setting, vocab = corpora
    truncated = straddling = 0
    for ex in by_setting[setting]:
        args = (ex.question, ex.context_text, vocab, max_seq_len,
                ex.question_tags, ex.context_tags,
                ex.answer_char_span_in_context())
        pair = encode_pair(*args[:4], question_tags=args[4],
                           context_tags=args[5], answer_char_span=args[6])
        arrays, offsets, answer = reference_encode(*args)
        for name, expected in arrays.items():
            got = getattr(pair, name)
            assert got.dtype == expected.dtype, name
            np.testing.assert_array_equal(got, expected, err_msg=name)
        assert (pair.answer_start_tok, pair.answer_end_tok) == answer
        truncated += answer == (-1, -1)
        # lost answers whose first tokens were kept
        a0, a1 = args[6]
        straddling += answer == (-1, -1) and any(
            off[0] < a1 and off[1] > a0 for off in offsets if off)
        assert pair.token_offsets.shape == (max_seq_len, 2)
        assert [None if s < 0 else (s, e) for s, e in
                pair.token_offsets.tolist()] == offsets
        kept = tokenize(ex.context_text)[:int(pair.context_mask.sum())]
        assert [ex.context_text[s:e].lower() for s, e in
                pair.token_offsets[pair.context_mask]] == [t for t, _, _ in kept]
    # the paragraph setting truncates at both lengths, some answers part-way;
    # the sentence one never truncates
    assert (truncated > 0) == (straddling > 0) == (setting == "paragraph")


def test_vocab_build_matches_tokenize(corpora):
    # Vocab.build collects bare token strings; it must hold exactly the
    # tokens `tokenize` finds, in the same sorted order
    by_setting, _ = corpora
    for examples in (by_setting["sentence"], by_setting["paragraph"],
                     by_setting["sentence"] + by_setting["paragraph"]):
        texts = ([ex.question for ex in examples]
                 + [ex.context_text for ex in examples])
        expected = Vocab(sorted({tok for text in texts
                                 for tok, _, _ in tokenize(text)}))
        built = Vocab.build(texts)
        assert built._token_to_id == expected._token_to_id
        assert len(built) > len(RESERVED)
