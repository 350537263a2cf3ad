"""Tokenization, vocabulary, gazetteer entity tagging and sequence encoding."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED = [PAD, UNK, CLS, SEP]

# Clinical semantic type codes recognized by the gazetteer tagger.
SEMANTIC_TYPES = [
    "acab", "aggp", "anab", "anst", "bpoc", "cgab", "clnd", "diap", "emod",
    "evnt", "fndg", "inpo", "lbpr", "lbtr", "phob", "qnco", "sbst", "sosy",
    "topp",
]
# id 0 is reserved for "no entity"
SEMANTIC_TYPE_IDS = {code: i + 1 for i, code in enumerate(SEMANTIC_TYPES)}

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


class EncodingError(ValueError):
    """Raised when a pair cannot be encoded under the length budget."""


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """Lowercased word/punctuation tokens with character offsets.

    Runs of alphanumerics become one token; every punctuation mark is
    its own single-character token. Offsets index the original text.
    """
    return [(m.group(0), m.start(), m.end())
            for m in _TOKEN_RE.finditer(text.lower())]


class Vocab:
    """Token-to-id map with fixed reserved ids and a frequency floor."""

    def __init__(self, tokens: list[str] | None = None, min_frequency: int = 1):
        self.min_frequency = min_frequency
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(RESERVED)}
        for t in tokens or []:
            if t not in self._token_to_id:
                self._token_to_id[t] = len(self._token_to_id)
        self._id_to_token = {i: t for t, i in self._token_to_id.items()}

    def __len__(self):
        return len(self._token_to_id)

    def __contains__(self, token: str):
        return token in self._token_to_id

    def id_for(self, token: str) -> int:
        return self._token_to_id.get(token, self._token_to_id[UNK])

    @classmethod
    def build(cls, texts, min_frequency: int = 1) -> "Vocab":
        counts = Counter()
        for text in texts:
            counts.update(tok for tok, _, _ in tokenize(text))
        kept = sorted(t for t, c in counts.items() if c >= min_frequency)
        return cls(kept, min_frequency=min_frequency)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(RESERVED), len(self._token_to_id)):
                fh.write(self._id_to_token[i] + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens)


@dataclass(frozen=True)
class EntityTag:
    """One tagged mention: a semantic type over a character span."""

    semantic_type: str
    char_start: int
    char_end: int

    def __post_init__(self):
        if self.char_start >= self.char_end:
            raise ValueError(f"empty tag span [{self.char_start}, {self.char_end})")
        if self.semantic_type not in SEMANTIC_TYPE_IDS:
            raise ValueError(f"unknown semantic type {self.semantic_type!r}")


class Gazetteer:
    """Case-insensitive longest-match-first surface-form tagger."""

    def __init__(self, entries: dict[str, str]):
        for code in entries.values():
            if code not in SEMANTIC_TYPE_IDS:
                raise ValueError(f"unknown semantic type {code!r} in gazetteer")
        self.entries = dict(entries)
        self._by_tokens: dict[tuple, str] = {}
        self._max_len = 1
        for surface, code in entries.items():
            toks = tuple(t for t, _, _ in tokenize(surface))
            if toks:
                self._by_tokens[toks] = code
                self._max_len = max(self._max_len, len(toks))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh, indent=0, sort_keys=True)

    @classmethod
    def load(cls, path) -> "Gazetteer":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def tag(self, text: str) -> list[EntityTag]:
        """Scan left to right, preferring the longest match; no overlaps."""
        toks = tokenize(text)
        tags = []
        i = 0
        while i < len(toks):
            matched = 0
            for n in range(min(self._max_len, len(toks) - i), 0, -1):
                key = tuple(t for t, _, _ in toks[i:i + n])
                code = self._by_tokens.get(key)
                if code is not None:
                    tags.append(EntityTag(code, toks[i][1], toks[i + n - 1][2]))
                    matched = n
                    break
            i += matched if matched else 1
        return tags


@dataclass
class EncodedPair:
    """A model-ready [CLS] question [SEP] context [SEP] sequence."""

    token_ids: np.ndarray         # [max_seq_len] int64
    segment_ids: np.ndarray       # 0 question side, 1 context side
    attention_mask: np.ndarray    # bool
    entity_ids: np.ndarray        # 0 = no entity
    context_mask: np.ndarray      # True only on real context tokens
    token_offsets: list           # (start, end) into context text, or None
    answer_start_tok: int = -1
    answer_end_tok: int = -1
    dropped: bool = False
    meta: dict = field(default_factory=dict)


def _entity_ids_for(tokens, tags: list[EntityTag]) -> list[int]:
    ids = [0] * len(tokens)
    for tag in tags:
        tid = SEMANTIC_TYPE_IDS[tag.semantic_type]
        for i, (_, s, e) in enumerate(tokens):
            if s < tag.char_end and e > tag.char_start:
                ids[i] = tid
    return ids


def encode_pair(question: str, context: str, vocab: Vocab, max_seq_len: int,
                question_tags: list[EntityTag] | None = None,
                context_tags: list[EntityTag] | None = None,
                answer_char_span: tuple[int, int] | None = None) -> EncodedPair:
    """Encode a question/context pair; context truncated from the right.

    The question is never truncated: if it alone exceeds the budget an
    EncodingError is raised. An answer whose tokens fall past the
    truncation point yields sentinel -1 spans and dropped=True.
    """
    q_toks = tokenize(question)
    c_toks = tokenize(context)
    overhead = 3  # [CLS] .. [SEP] .. [SEP]
    if len(q_toks) + overhead > max_seq_len:
        raise EncodingError(
            f"question of {len(q_toks)} tokens exceeds max_seq_len={max_seq_len}")
    ctx_budget = max_seq_len - len(q_toks) - overhead
    c_kept = c_toks[:ctx_budget]

    q_ent = _entity_ids_for(q_toks, question_tags or [])
    c_ent = _entity_ids_for(c_kept, context_tags or [])

    token_ids = np.zeros(max_seq_len, dtype=np.int64)
    segment_ids = np.zeros(max_seq_len, dtype=np.int64)
    attention_mask = np.zeros(max_seq_len, dtype=bool)
    entity_ids = np.zeros(max_seq_len, dtype=np.int64)
    context_mask = np.zeros(max_seq_len, dtype=bool)
    token_offsets: list = [None] * max_seq_len

    seq = [(CLS, 0, 0, None)]
    seq += [(t, 0, q_ent[i], None) for i, (t, _, _) in enumerate(q_toks)]
    seq += [(SEP, 0, 0, None)]
    seq += [(t, 1, c_ent[i], (s, e)) for i, (t, s, e) in enumerate(c_kept)]
    seq += [(SEP, 1, 0, None)]

    ctx_start = len(q_toks) + 2
    for pos, (tok, seg, ent, off) in enumerate(seq):
        token_ids[pos] = vocab.id_for(tok)
        segment_ids[pos] = seg
        attention_mask[pos] = True
        entity_ids[pos] = ent
        token_offsets[pos] = off
        if off is not None:
            context_mask[pos] = True

    ans_start = ans_end = -1
    dropped = False
    if answer_char_span is not None:
        a0, a1 = answer_char_span
        if not (0 <= a0 < a1 <= len(context)):
            raise EncodingError(f"answer span ({a0}, {a1}) outside context")
        hit = [i for i, (_, s, e) in enumerate(c_kept) if s < a1 and e > a0]
        full_hit = [i for i, (_, s, e) in enumerate(c_toks) if s < a1 and e > a0]
        if hit and len(hit) == len(full_hit):
            ans_start = ctx_start + hit[0]
            ans_end = ctx_start + hit[-1]
        else:
            dropped = True  # answer lost to truncation

    return EncodedPair(
        token_ids=token_ids, segment_ids=segment_ids,
        attention_mask=attention_mask, entity_ids=entity_ids,
        context_mask=context_mask, token_offsets=token_offsets,
        answer_start_tok=ans_start, answer_end_tok=ans_end, dropped=dropped)
