import numpy as np
import pytest

from entqa import textpipe as tp
from entqa.textpipe import EncodingError, Vocab, encode_pair, tokenize


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
            "dose of aspirin ?", CONTEXT, self.vocab, 32,
            context_tags=CONTEXT_TAGS,
            answer_char_span=(8, 13))
        s, e = pair.answer_start_tok, pair.answer_end_tok
        assert s > 0 and e >= s
        toks = [pair.token_offsets[i] for i in range(s, e + 1)]
        assert [CONTEXT[a:b] for a, b in toks] == ["40", "mg"]

    def test_no_tags_all_zero(self):
        pair = encode_pair("dose of aspirin ?", "aspirin 40 mg daily",
                           self.vocab, 32)
        assert (pair.entity_ids == 0).all()

    def test_padding_contract(self):
        pair = encode_pair("dose ?", "aspirin daily", self.vocab, 32)
        used = pair.attention_mask.sum()
        assert (pair.token_ids[used:] == 0).all()
        assert not pair.attention_mask[used:].any()
        assert (pair.entity_ids[~pair.attention_mask] == 0).all()
        assert len(pair.token_ids) == 32

    def test_entity_alignment_intersects(self):
        pair = encode_pair("dose ?", CONTEXT, self.vocab, 32,
                           context_tags=CONTEXT_TAGS)
        ctx_positions = np.flatnonzero(pair.context_mask)
        types = pair.entity_ids[ctx_positions]
        # aspirin -> clnd(id), 40 mg -> qnco over two tokens, daily -> 0
        from entqa.textpipe import SEMANTIC_TYPE_IDS
        assert list(types) == [SEMANTIC_TYPE_IDS["clnd"],
                               SEMANTIC_TYPE_IDS["qnco"],
                               SEMANTIC_TYPE_IDS["qnco"], 0]

    def test_question_too_long(self):
        with pytest.raises(EncodingError):
            encode_pair("word " * 40, "ctx", self.vocab, 16)

    def test_truncation_drops_lost_answer(self):
        context = " ".join(["filler"] * 30) + " aspirin"
        pair = encode_pair("q ?", context, self.vocab, 16,
                           answer_char_span=(len(context) - 7, len(context)))
        assert pair.answer_start_tok == -1
        assert pair.answer_end_tok == -1

    def test_deterministic(self):
        a = encode_pair("dose ?", "aspirin 40 mg", self.vocab, 24)
        b = encode_pair("dose ?", "aspirin 40 mg", self.vocab, 24)
        np.testing.assert_array_equal(a.token_ids, b.token_ids)
        np.testing.assert_array_equal(a.segment_ids, b.segment_ids)

    def test_answer_inside_context_segment(self):
        context = "aspirin 40 mg daily"
        pair = encode_pair("dose of aspirin ?", context, self.vocab, 32,
                           answer_char_span=(8, 13))
        assert pair.segment_ids[pair.answer_start_tok] == 1
        assert pair.context_mask[pair.answer_end_tok]
