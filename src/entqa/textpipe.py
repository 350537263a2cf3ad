"""Tokenization, vocabulary and sequence encoding."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED = [PAD, UNK, CLS, SEP]

# Clinical semantic type codes an entity tag may carry.
SEMANTIC_TYPES = [
    "acab", "aggp", "anab", "anst", "bpoc", "cgab", "clnd", "diap", "emod",
    "evnt", "fndg", "inpo", "lbpr", "lbtr", "phob", "qnco", "sbst", "sosy",
    "topp",
]
# id 0 is reserved for "no entity"
SEMANTIC_TYPE_IDS = {code: i + 1 for i, code in enumerate(SEMANTIC_TYPES)}

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


class EncodingError(ValueError):
    """A pair over the length budget, or a vocabulary file not in UTF-8."""


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """Lowercased word/punctuation tokens with character offsets.

    Runs of alphanumerics become one token; every punctuation mark is
    its own single-character token. Offsets index the original text.
    """
    return [(m.group(0), m.start(), m.end())
            for m in _TOKEN_RE.finditer(text.lower())]


class Vocab:
    """Token-to-id map with fixed reserved ids."""

    def __init__(self, tokens: list[str]):
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(RESERVED)}
        for t in tokens:
            if t not in self._token_to_id:
                self._token_to_id[t] = len(self._token_to_id)
        self._id_to_token = {i: t for t, i in self._token_to_id.items()}

    def __len__(self):
        return len(self._token_to_id)

    def id_for(self, token: str) -> int:
        return self._token_to_id.get(token, self._token_to_id[UNK])

    @classmethod
    def build(cls, texts) -> "Vocab":
        """Every token of `texts`, in sorted order."""
        return cls(sorted({tok for text in texts
                           for tok in _TOKEN_RE.findall(text.lower())}))

    def save(self, path):
        with atomic_write(path, encoding="utf-8") as fh:
            for i in range(len(RESERVED), len(self._token_to_id)):
                fh.write(self._id_to_token[i] + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """A saved vocabulary; one not in UTF-8 raises EncodingError."""
        try:
            with open(path, encoding="utf-8") as fh:
                tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        except UnicodeDecodeError as exc:
            raise EncodingError(
                f"vocabulary {path} is not UTF-8 text: {exc}") from exc
        return cls(tokens)


@dataclass
class EncodedPair:
    """A model-ready [CLS] question [SEP] context [SEP] sequence."""

    token_ids: np.ndarray         # [max_seq_len] int64
    segment_ids: np.ndarray       # 0 question side, 1 context side
    attention_mask: np.ndarray    # bool
    entity_ids: np.ndarray        # 0 = no entity
    context_mask: np.ndarray      # True only on real context tokens
    token_offsets: np.ndarray     # [max_seq_len, 2] span in the context, -1 off it
    answer_start_tok: int = -1
    answer_end_tok: int = -1
    lf_id: int | None = None      # gold logical form
    label: int | None = None      # evidence label; None on span pairs
    meta: dict = field(default_factory=dict)


def _entity_ids_for(tokens, tags: list) -> list[int]:
    ids = [0] * len(tokens)
    for code, start, end in tags:
        tid = SEMANTIC_TYPE_IDS[code]
        for i, (_, s, e) in enumerate(tokens):
            if s < end and e > start:
                ids[i] = tid
    return ids


def encode_pair(question: str, context: str, vocab: Vocab, max_seq_len: int,
                question_tags: list, context_tags: list,
                answer_char_span: tuple[int, int] | None = None) -> EncodedPair:
    """Encode a question/context pair; context truncated from the right.

    Tags are [type, start, end] lists, as corpus records store them,
    with character offsets into the question or the context.

    The question is never truncated: if it alone exceeds the budget an
    EncodingError is raised. An answer whose tokens fall past the
    truncation point yields sentinel -1 start and end positions.
    """
    q_toks = tokenize(question)
    c_toks = tokenize(context)
    overhead = 3  # [CLS] .. [SEP] .. [SEP]
    if len(q_toks) + overhead > max_seq_len:
        raise EncodingError(
            f"question of {len(q_toks)} tokens exceeds max_seq_len={max_seq_len}")
    c_kept = c_toks[:max_seq_len - len(q_toks) - overhead]
    ctx = slice(len(q_toks) + 2, len(q_toks) + 2 + len(c_kept))
    n = ctx.stop + 1   # [CLS] q [SEP] c [SEP]

    token_ids = np.zeros(max_seq_len, dtype=np.int64)
    token_ids[:n] = [vocab.id_for(t) for t in [CLS] + [t for t, _, _ in q_toks]
                     + [SEP] + [t for t, _, _ in c_kept] + [SEP]]
    segment_ids = np.zeros(max_seq_len, dtype=np.int64)
    segment_ids[ctx.start:n] = 1
    attention_mask = np.zeros(max_seq_len, dtype=bool)
    attention_mask[:n] = True
    entity_ids = np.zeros(max_seq_len, dtype=np.int64)
    entity_ids[1:ctx.start - 1] = _entity_ids_for(q_toks, question_tags)
    entity_ids[ctx] = _entity_ids_for(c_kept, context_tags)
    context_mask = np.zeros(max_seq_len, dtype=bool)
    context_mask[ctx] = True
    token_offsets = np.full((max_seq_len, 2), -1, dtype=np.int64)
    token_offsets[ctx, 0] = [s for _, s, _ in c_kept]
    token_offsets[ctx, 1] = [e for _, _, e in c_kept]

    ans_start = ans_end = -1
    if answer_char_span is not None:
        a0, a1 = answer_char_span
        if not (0 <= a0 < a1 <= len(context)):
            raise EncodingError(f"answer span ({a0}, {a1}) outside context")
        hit = [i for i, (_, s, e) in enumerate(c_toks) if s < a1 and e > a0]
        if hit and hit[-1] < len(c_kept):  # else lost to truncation
            ans_start, ans_end = ctx.start + hit[0], ctx.start + hit[-1]

    return EncodedPair(
        token_ids=token_ids, segment_ids=segment_ids,
        attention_mask=attention_mask, entity_ids=entity_ids,
        context_mask=context_mask, token_offsets=token_offsets,
        answer_start_tok=ans_start, answer_end_tok=ans_end)
