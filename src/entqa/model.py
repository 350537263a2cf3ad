"""Token encoder, entity encoder, information fusion and task heads.

One parameter layout realizes all four systems: the plain encoder
baseline (entities off), the entity-fused encoder, the multi-task fused
model (span + logical-form losses), and the evidence-classification
variant; each system builds only the parameters it uses. Fusion follows

    h_j = gelu(W_t w_j + W_e e_k + b)        when token j has an entity
    h_j = gelu(W_t w_j + b)                  otherwise
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .textpipe import EncodedPair


@dataclass
class ModelConfig:
    vocab_size: int
    hidden_dim: int = 128
    layers: int = 4
    heads: int = 4
    entity_vocab_size: int = 20
    entity_dim: int = 100
    entity_attention_layers: int = 1
    entity_heads: int = 4
    num_lf_classes: int = 9
    omega: float = 0.3
    dropout: float = 0.1
    max_seq_len: int = 128
    max_answer_len: int = 30
    mode: str = "span"          # "span" | "evidence"
    use_entities: bool = True
    ffn_mult: int = 4

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {self.omega}")
        for name in ("vocab_size", "hidden_dim", "layers", "heads",
                     "entity_vocab_size", "entity_dim", "num_lf_classes",
                     "max_seq_len", "max_answer_len"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.hidden_dim % self.heads:
            raise ValueError("hidden_dim must be divisible by heads")
        if self.entity_dim % self.entity_heads:
            raise ValueError("entity_dim must be divisible by entity_heads")
        if self.mode not in ("span", "evidence"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ModelConfig":
        with open(path, encoding="utf-8") as fh:
            return cls(**json.load(fh))


@dataclass
class HeadOutputs:
    start_logits: Tensor | None = None   # [B, L], masked outside context
    end_logits: Tensor | None = None
    lf_logits: Tensor | None = None      # [B, C]
    evidence_logit: Tensor | None = None  # [B]
    fused: Tensor | None = None          # [B, L, d]


@dataclass
class Batch:
    token_ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    entity_ids: np.ndarray
    context_mask: np.ndarray
    answer_start: np.ndarray | None = None
    answer_end: np.ndarray | None = None
    lf_ids: np.ndarray | None = None
    evidence_labels: np.ndarray | None = None


def make_batch(pairs: list[EncodedPair], lf_ids=None, evidence_labels=None) -> Batch:
    return Batch(
        token_ids=np.stack([p.token_ids for p in pairs]),
        segment_ids=np.stack([p.segment_ids for p in pairs]),
        attention_mask=np.stack([p.attention_mask for p in pairs]),
        entity_ids=np.stack([p.entity_ids for p in pairs]),
        context_mask=np.stack([p.context_mask for p in pairs]),
        answer_start=np.array([p.answer_start_tok for p in pairs]),
        answer_end=np.array([p.answer_end_tok for p in pairs]),
        lf_ids=None if lf_ids is None else np.asarray(lf_ids),
        evidence_labels=(None if evidence_labels is None
                         else np.asarray(evidence_labels)),
    )


# ---------------------------------------------------------------------------
# Parameter initialization.
# ---------------------------------------------------------------------------

def _truncated_normal(rng, shape, std=0.02):
    """Normal(0, std) resampled until inside +-2 std."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


def _block_params(rng, prefix, dim, ffn_mult):
    p = {}
    for nm in ("wq", "wk", "wv", "wo"):
        p[f"{prefix}.attn.{nm}"] = Tensor(_truncated_normal(rng, (dim, dim)),
                                          requires_grad=True)
        if nm != "wk":
            # a key bias shifts every attention score by the same amount,
            # so softmax ignores it; omit the dead parameter
            p[f"{prefix}.attn.b{nm[1]}"] = Tensor(np.zeros(dim),
                                                  requires_grad=True)
    p[f"{prefix}.ln1.g"] = Tensor(np.ones(dim), requires_grad=True)
    p[f"{prefix}.ln1.b"] = Tensor(np.zeros(dim), requires_grad=True)
    p[f"{prefix}.ln2.g"] = Tensor(np.ones(dim), requires_grad=True)
    p[f"{prefix}.ln2.b"] = Tensor(np.zeros(dim), requires_grad=True)
    p[f"{prefix}.ffn.w1"] = Tensor(_truncated_normal(rng, (dim, ffn_mult * dim)),
                                   requires_grad=True)
    p[f"{prefix}.ffn.b1"] = Tensor(np.zeros(ffn_mult * dim), requires_grad=True)
    p[f"{prefix}.ffn.w2"] = Tensor(_truncated_normal(rng, (ffn_mult * dim, dim)),
                                   requires_grad=True)
    p[f"{prefix}.ffn.b2"] = Tensor(np.zeros(dim), requires_grad=True)
    return p


def init_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """The parameters of the config's system.

    Every system's tensors are drawn in one fixed order and the unused
    ones discarded, so a parameter's initial value does not depend on the
    system.
    """
    rng = np.random.default_rng(seed)
    d, de = config.hidden_dim, config.entity_dim
    p = {
        "tok_emb": Tensor(_truncated_normal(rng, (config.vocab_size, d)),
                          requires_grad=True),
        "seg_emb": Tensor(_truncated_normal(rng, (2, d)), requires_grad=True),
        "pos_emb": Tensor(_truncated_normal(rng, (config.max_seq_len, d)),
                          requires_grad=True),
    }
    for i in range(config.layers):
        p.update(_block_params(rng, f"enc{i}", d, config.ffn_mult))
    p["enc_ln.g"] = Tensor(np.ones(d), requires_grad=True)
    p["enc_ln.b"] = Tensor(np.zeros(d), requires_grad=True)

    p["ent_emb"] = Tensor(_truncated_normal(rng, (config.entity_vocab_size, de)),
                          requires_grad=True)
    for i in range(config.entity_attention_layers):
        p.update(_block_params(rng, f"ent{i}", de, config.ffn_mult))
    p["ent_ln.g"] = Tensor(np.ones(de), requires_grad=True)
    p["ent_ln.b"] = Tensor(np.zeros(de), requires_grad=True)

    p["fuse.wt"] = Tensor(_truncated_normal(rng, (d, d)), requires_grad=True)
    p["fuse.we"] = Tensor(_truncated_normal(rng, (de, d)), requires_grad=True)
    p["fuse.b"] = Tensor(np.zeros(d), requires_grad=True)

    p["span.ws"] = Tensor(_truncated_normal(rng, (d, 1)), requires_grad=True)
    p["span.bs"] = Tensor(np.zeros(1), requires_grad=True)
    p["span.we"] = Tensor(_truncated_normal(rng, (d, 1)), requires_grad=True)
    p["span.be"] = Tensor(np.zeros(1), requires_grad=True)

    p["lf.w"] = Tensor(_truncated_normal(rng, (d, config.num_lf_classes)),
                       requires_grad=True)
    p["lf.b"] = Tensor(np.zeros(config.num_lf_classes), requires_grad=True)

    p["ev.w"] = Tensor(_truncated_normal(rng, (d, 1)), requires_grad=True)
    p["ev.b"] = Tensor(np.zeros(1), requires_grad=True)
    unused = ("ev." if config.mode == "span" else "span.",)
    if not config.use_entities:
        unused += ("ent", "fuse.we")
    return {k: v for k, v in p.items() if not k.startswith(unused)}


# ---------------------------------------------------------------------------
# Forward pieces.
# ---------------------------------------------------------------------------

def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, l, d = x.shape
    return x.reshape(b, l, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: Tensor) -> Tensor:
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _attn_block(x: Tensor, params, prefix, heads, mask, drop, rng, train):
    xn = T.layer_norm(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    q = _split_heads(xn.matmul(params[f"{prefix}.attn.wq"])
                     + params[f"{prefix}.attn.bq"], heads)
    k = _split_heads(xn.matmul(params[f"{prefix}.attn.wk"]), heads)
    v = _split_heads(xn.matmul(params[f"{prefix}.attn.wv"])
                     + params[f"{prefix}.attn.bv"], heads)
    # key mask broadcast over heads and query positions
    att = T.attention(q, k, v, mask=mask[:, None, :])
    out = _merge_heads(att).matmul(params[f"{prefix}.attn.wo"]) \
        + params[f"{prefix}.attn.bo"]
    x = x + T.dropout(out, drop, rng, train)
    xn2 = T.layer_norm(x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    h = T.gelu(xn2.matmul(params[f"{prefix}.ffn.w1"]) + params[f"{prefix}.ffn.b1"])
    h = h.matmul(params[f"{prefix}.ffn.w2"]) + params[f"{prefix}.ffn.b2"]
    return x + T.dropout(h, drop, rng, train)


def encode_tokens(params, config: ModelConfig, batch: Batch,
                  train: bool = False, rng=None) -> Tensor:
    """Embed tokens and run the pre-norm self-attention stack."""
    L = batch.token_ids.shape[1]
    if L > config.max_seq_len:
        raise T.ShapeError(
            f"sequence length {L} exceeds learned positions {config.max_seq_len}")
    if rng is None:
        rng = np.random.default_rng(0)
    x = T.embedding(params["tok_emb"], batch.token_ids) \
        + T.embedding(params["seg_emb"], batch.segment_ids) \
        + params["pos_emb"][:L]
    x = T.dropout(x, config.dropout, rng, train)
    for i in range(config.layers):
        x = _attn_block(x, params, f"enc{i}", config.heads,
                        batch.attention_mask, config.dropout, rng, train)
    return T.layer_norm(x, params["enc_ln.g"], params["enc_ln.b"])


def encode_entities(params, config: ModelConfig, batch: Batch,
                    train: bool = False, rng=None) -> Tensor:
    """Entity-embedding lookup plus self-attention over the sequence."""
    if rng is None:
        rng = np.random.default_rng(0)
    x = T.embedding(params["ent_emb"], batch.entity_ids)
    for i in range(config.entity_attention_layers):
        x = _attn_block(x, params, f"ent{i}", config.entity_heads,
                        batch.attention_mask, config.dropout, rng, train)
    return T.layer_norm(x, params["ent_ln.g"], params["ent_ln.b"])


def fuse(params, token_states: Tensor, entity_states: Tensor | None,
         entity_flags: np.ndarray) -> Tensor:
    """Information fusion with an entity-free path for unflagged tokens;
    `entity_states=None` takes that path at every position."""
    pre = token_states.matmul(params["fuse.wt"]) + params["fuse.b"]
    if entity_states is not None:
        flags = np.asarray(entity_flags, dtype=float)[..., None]
        pre = pre + entity_states.matmul(params["fuse.we"]) * Tensor(flags)
    return T.gelu(pre)


def forward(params, config: ModelConfig, batch: Batch,
            train: bool = False, rng=None) -> HeadOutputs:
    tok = encode_tokens(params, config, batch, train=train, rng=rng)
    flags = (batch.entity_ids != 0) & batch.attention_mask
    ent = None
    if config.use_entities and flags.any():
        ent = encode_entities(params, config, batch, train=train, rng=rng)
    fused = fuse(params, tok, ent, flags)
    out = HeadOutputs(fused=fused)
    pooled = fused[:, 0]
    out.lf_logits = pooled.matmul(params["lf.w"]) + params["lf.b"]
    if config.mode == "span":
        b, l, _ = fused.shape
        mask_bias = np.where(batch.context_mask, 0.0, T.MASK_NEG)
        out.start_logits = (fused.matmul(params["span.ws"]).reshape(b, l)
                            + params["span.bs"]) + Tensor(mask_bias)
        out.end_logits = (fused.matmul(params["span.we"]).reshape(b, l)
                          + params["span.be"]) + Tensor(mask_bias)
    else:
        out.evidence_logit = (pooled.matmul(params["ev.w"])
                              + params["ev.b"]).reshape(fused.shape[0])
    return out


# ---------------------------------------------------------------------------
# Losses.
# ---------------------------------------------------------------------------

@dataclass
class LossParts:
    total: Tensor
    span: float = float("nan")
    lf: float = float("nan")
    evidence: float = float("nan")


def _mix_lf(outputs: HeadOutputs, main: Tensor, lf_ids,
            omega: float) -> tuple[Tensor, Tensor]:
    """(omega * L_lf + (1 - omega) * main, L_lf); L_lf is 0 without gold
    logical-form ids, which only omega = 0 allows."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    if lf_ids is None and omega > 0:
        raise ValueError("omega > 0 requires gold logical-form ids")
    if lf_ids is not None:
        l_lf = T.softmax_cross_entropy(outputs.lf_logits, lf_ids)
    else:
        l_lf = Tensor(0.0)
    return omega * l_lf + (1.0 - omega) * main, l_lf


def multitask_loss(outputs: HeadOutputs, answer_start, answer_end,
                   lf_ids, omega: float) -> LossParts:
    """omega * L_lf + (1 - omega) * L_span, with
    L_span = (CE(start) + CE(end)) / 2."""
    l_start = T.softmax_cross_entropy(outputs.start_logits, answer_start)
    l_end = T.softmax_cross_entropy(outputs.end_logits, answer_end)
    l_span = (l_start + l_end) * 0.5
    total, l_lf = _mix_lf(outputs, l_span, lf_ids, omega)
    return LossParts(total=total, span=l_span.item(), lf=l_lf.item())


def evidence_loss(outputs: HeadOutputs, evidence_labels, lf_ids,
                  omega: float) -> LossParts:
    """omega * L_lf + (1 - omega) * L_evidence (binary cross-entropy)."""
    l_ev = T.binary_cross_entropy_with_logits(outputs.evidence_logit,
                                              evidence_labels)
    total, l_lf = _mix_lf(outputs, l_ev, lf_ids, omega)
    return LossParts(total=total, evidence=l_ev.item(), lf=l_lf.item())


# ---------------------------------------------------------------------------
# Span decoding.
# ---------------------------------------------------------------------------

class DecodeError(ValueError):
    pass


def decode_span(start_logits: np.ndarray, end_logits: np.ndarray,
                context_mask: np.ndarray, max_answer_len: int) -> tuple[int, int]:
    """Best (start, end) with start <= end, span length <= max_answer_len
    and both endpoints inside the context."""
    valid = np.flatnonzero(context_mask)
    if valid.size == 0:
        raise DecodeError("empty context mask")
    s = np.where(context_mask, start_logits, -np.inf)
    e = np.where(context_mask, end_logits, -np.inf)
    scores = s[:, None] + e[None, :]
    L = len(s)
    ii, jj = np.indices((L, L))
    invalid = (jj < ii) | (jj - ii + 1 > max_answer_len)
    scores[invalid] = -np.inf
    flat = int(np.argmax(scores))
    return flat // L, flat % L


# ---------------------------------------------------------------------------
# Gradient-check fragments for CI.
# ---------------------------------------------------------------------------

def _tiny_batch(config: ModelConfig, rng) -> Batch:
    b, l = 2, min(12, config.max_seq_len)
    token_ids = rng.integers(0, config.vocab_size, size=(b, l))
    entity_ids = rng.integers(0, config.entity_vocab_size, size=(b, l))
    mask = np.ones((b, l), dtype=bool)
    mask[:, -2:] = False
    ctx = np.zeros((b, l), dtype=bool)
    ctx[:, 3:l - 2] = True
    seg = np.zeros((b, l), dtype=np.int64)
    seg[:, 3:] = 1
    return Batch(token_ids=token_ids, segment_ids=seg, attention_mask=mask,
                 entity_ids=entity_ids, context_mask=ctx,
                 answer_start=np.array([4, 5]), answer_end=np.array([5, 6]),
                 lf_ids=rng.integers(0, config.num_lf_classes, size=b))


def fragment_gradchecks(seed: int = 0, tolerance: float = 1e-4) -> dict:
    """Finite-difference checks for every differentiable fragment.

    Returns {fragment: report} where each report carries per-parameter
    max relative errors and an "all_passed" flag.
    """
    rng = np.random.default_rng(seed)
    config = ModelConfig(vocab_size=50, hidden_dim=16, layers=2, heads=2,
                         entity_dim=12, entity_heads=2, dropout=0.0,
                         max_seq_len=16, ffn_mult=2)
    params = init_params(config, seed)
    # jitter away from the tiny init so gradients are well above the
    # finite-difference noise floor
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.data.shape)
    batch = _tiny_batch(config, rng)
    reports = {}

    x = Tensor(rng.normal(size=(3, 8)))
    lin = {"w": Tensor(rng.normal(size=(8, 4)), requires_grad=True),
           "b": Tensor(rng.normal(size=4), requires_grad=True)}
    reports["linear"] = T.gradcheck(
        lambda: (x.matmul(lin["w"]) + lin["b"]).sum(), lin,
        tolerance=tolerance, rng=rng)

    fparams = {k: params[k] for k in ("fuse.wt", "fuse.we", "fuse.b")}
    ts = Tensor(rng.normal(size=(2, 6, config.hidden_dim)))
    es = Tensor(rng.normal(size=(2, 6, config.entity_dim)))
    fl = rng.random((2, 6)) < 0.5
    reports["fusion"] = T.gradcheck(
        lambda: fuse(params, ts, es, fl).sum(), fparams,
        tolerance=tolerance, rng=rng)

    # weighted sums keep the probe gradients from cancelling out
    b, l = batch.token_ids.shape
    w_ent = Tensor(rng.normal(size=(b, l, config.entity_dim)))
    w_tok = Tensor(rng.normal(size=(b, l, config.hidden_dim)))

    ent_names = [k for k in params if k.startswith(("ent_emb", "ent0", "ent_ln"))]
    eparams = {k: params[k] for k in ent_names}
    reports["entity_encoder"] = T.gradcheck(
        lambda: (encode_entities(params, config, batch) * w_ent).sum(),
        eparams, tolerance=tolerance, rng=rng)

    enc_names = [k for k in params
                 if k.startswith(("tok_emb", "seg_emb", "pos_emb", "enc"))]
    nparams = {k: params[k] for k in enc_names}
    reports["encoder"] = T.gradcheck(
        lambda: (encode_tokens(params, config, batch) * w_tok).sum(),
        nparams, tolerance=tolerance, rng=rng, max_elements=8)

    def span_loss():
        out = forward(params, config, batch)
        return multitask_loss(out, batch.answer_start, batch.answer_end,
                              batch.lf_ids, omega=0.0).total
    sparams = {k: params[k] for k in ("span.ws", "span.bs", "span.we", "span.be")}
    reports["span_head"] = T.gradcheck(span_loss, sparams,
                                       tolerance=tolerance, rng=rng)

    def lf_loss():
        out = forward(params, config, batch)
        return multitask_loss(out, batch.answer_start, batch.answer_end,
                              batch.lf_ids, omega=1.0).total
    lparams = {k: params[k] for k in ("lf.w", "lf.b")}
    reports["lf_head"] = T.gradcheck(lf_loss, lparams,
                                     tolerance=tolerance, rng=rng)

    def full_loss():
        out = forward(params, config, batch)
        return multitask_loss(out, batch.answer_start, batch.answer_end,
                              batch.lf_ids, omega=0.3).total
    fullparams = {k: params[k] for k in
                  ("fuse.wt", "fuse.we", "tok_emb", "ent_emb",
                   "enc0.attn.wq", "ent0.attn.wv", "span.ws", "lf.w")}
    reports["full_model"] = T.gradcheck(full_loss, fullparams,
                                        tolerance=tolerance, rng=rng,
                                        max_elements=6)
    reports["all_passed"] = all(r["all_passed"] for r in reports.values()
                                if isinstance(r, dict))
    return reports
