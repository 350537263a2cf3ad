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
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError, atomic_write
from .corpus import NUM_LF
from .tensor import Tensor
from .textpipe import SEMANTIC_TYPE_IDS, EncodedPair


@dataclass
class ModelConfig:
    vocab_size: int
    hidden_dim: int = 128
    layers: int = 4
    heads: int = 4
    entity_dim: int = 100
    entity_attention_layers: int = 1
    entity_heads: int = 4
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
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("vocab_size", "hidden_dim", "layers", "heads",
                     "entity_dim", "entity_heads", "max_seq_len",
                     "max_answer_len", "ffn_mult"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.entity_attention_layers < 0:
            raise ValueError("entity_attention_layers must be >= 0")
        if self.hidden_dim % self.heads:
            raise ValueError("hidden_dim must be divisible by heads")
        if self.entity_dim % self.entity_heads:
            raise ValueError("entity_dim must be divisible by entity_heads")
        if self.mode not in ("span", "evidence"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def entity_vocab_size(self) -> int:
        """Entity ids: 0 for no entity, then one per semantic type."""
        return len(SEMANTIC_TYPE_IDS) + 1

    @property
    def num_lf_classes(self) -> int:
        return NUM_LF

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def save(self, path):
        with atomic_write(path, encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ModelConfig":
        """A saved config; malformed JSON, an unknown or missing key or a
        bad value raises CheckpointError naming the file."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls(**json.load(fh))
            except (TypeError, ValueError) as exc:
                raise CheckpointError(f"bad model config {path}: {exc}") from exc


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

    def take(self, idxs) -> "Batch":
        """Rows `idxs`, with every [B, L] field cut after the last position
        any of them attends to. Real positions are a prefix of each row, so
        the cut keeps the longest real row and drops only padding."""
        idxs = np.asarray(idxs)
        width = int(np.flatnonzero(self.attention_mask[idxs].any(axis=0))[-1]) + 1
        rows = {}
        for f in fields(self):
            a = getattr(self, f.name)
            if a is not None:
                a = a[idxs, :width] if a.ndim == 2 else a[idxs]
            rows[f.name] = a
        return Batch(**rows)


def make_batch(pairs: list[EncodedPair]) -> Batch:
    """The pairs stacked into one full-width batch. LF ids and evidence
    labels are packed from the pairs; each is None when any pair lacks it."""
    def targets(name):
        values = [getattr(p, name) for p in pairs]
        return None if None in values else np.array(values)

    return Batch(
        token_ids=np.stack([p.token_ids for p in pairs]),
        segment_ids=np.stack([p.segment_ids for p in pairs]),
        attention_mask=np.stack([p.attention_mask for p in pairs]),
        entity_ids=np.stack([p.entity_ids for p in pairs]),
        context_mask=np.stack([p.context_mask for p in pairs]),
        answer_start=np.array([p.answer_start_tok for p in pairs]),
        answer_end=np.array([p.answer_end_tok for p in pairs]),
        lf_ids=targets("lf_id"),
        evidence_labels=targets("label"),
    )


# ---------------------------------------------------------------------------
# Parameter initialization.
# ---------------------------------------------------------------------------

INIT_STD = 0.02


def _truncated_normal(rng, shape):
    """Normal(0, INIT_STD) resampled until inside +-2 INIT_STD."""
    x = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(x) > 2 * INIT_STD
    while bad.any():
        x[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(x) > 2 * INIT_STD
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

def _dropout(x: Tensor, config: ModelConfig, rng, train) -> Tensor:
    """Dropout over [B, L, d] with the mask drawn at max_seq_len positions
    and cut to L: a trimmed batch's real positions get the masks they would
    get at full width, so seeded runs do not depend on the trimming."""
    b, _, d = x.shape
    return T.dropout(x, config.dropout, rng, train,
                     (b, config.max_seq_len, d))


def _attn_block(x: Tensor, params, prefix, heads, mask, config, rng, train):
    def p(*names):
        return (params[f"{prefix}.{n}"] for n in names)

    att = T.attention(x, *p("ln1.g", "ln1.b", "attn.wq", "attn.bq", "attn.wk",
                            "attn.wv", "attn.bv", "attn.wo", "attn.bo"),
                      heads, mask)
    x = x + _dropout(att, config, rng, train)
    h = T.ffn(x, *p("ln2.g", "ln2.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"))
    return x + _dropout(h, config, rng, train)


def _encode(x: Tensor, params, prefix, layers, heads, config: ModelConfig,
            batch: Batch, train, rng) -> Tensor:
    """Blocks `{prefix}0` .. over embedded `x`, then the `{prefix}_ln` norm."""
    for i in range(layers):
        x = _attn_block(x, params, f"{prefix}{i}", heads,
                        batch.attention_mask, config, rng, train)
    return T.layer_norm(x, params[f"{prefix}_ln.g"], params[f"{prefix}_ln.b"])


def encode_tokens(params, config: ModelConfig, batch: Batch,
                  train: bool = False, rng=None) -> Tensor:
    """Embed tokens and run the block stack; `rng` is read only in training."""
    L = batch.token_ids.shape[1]
    if L > config.max_seq_len:
        raise T.ShapeError(
            f"sequence length {L} exceeds learned positions {config.max_seq_len}")
    x = T.embedding(params["tok_emb"], batch.token_ids) \
        + T.embedding(params["seg_emb"], batch.segment_ids) \
        + params["pos_emb"][:L]
    x = _dropout(x, config, rng, train)
    return _encode(x, params, "enc", config.layers, config.heads, config,
                   batch, train, rng)


def encode_entities(params, config: ModelConfig, batch: Batch,
                    train: bool = False, rng=None) -> Tensor:
    """Entity-embedding lookup plus self-attention over the sequence."""
    x = T.embedding(params["ent_emb"], batch.entity_ids)
    return _encode(x, params, "ent", config.entity_attention_layers,
                   config.entity_heads, config, batch, train, rng)


def fuse(params, token_states: Tensor, entity_states: Tensor | None,
         entity_flags: np.ndarray) -> Tensor:
    """Information fusion with an entity-free path for unflagged tokens;
    `entity_states=None` takes that path at every position."""
    pre = T.linear(token_states, params["fuse.wt"], params["fuse.b"])
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
    out.lf_logits = T.linear(pooled, params["lf.w"], params["lf.b"])
    if config.mode == "span":
        b, l, _ = fused.shape
        mask_bias = np.where(batch.context_mask, 0.0, T.MASK_NEG)
        # the bias is added after the reshape, so its gradient sums over
        # [b, l]; T.linear would sum over [b, l, 1] in another float order
        out.start_logits = (fused.matmul(params["span.ws"]).reshape(b, l)
                            + params["span.bs"]) + Tensor(mask_bias)
        out.end_logits = (fused.matmul(params["span.we"]).reshape(b, l)
                          + params["span.be"]) + Tensor(mask_bias)
    else:
        out.evidence_logit = T.linear(pooled, params["ev.w"],
                                      params["ev.b"]).reshape(fused.shape[0])
    return out


# ---------------------------------------------------------------------------
# Losses.
# ---------------------------------------------------------------------------

@dataclass
class LossParts:
    """The loss to differentiate and its logged parts; a part the system
    does not compute is None (null in train_log.jsonl)."""

    total: Tensor
    span: float | None = None
    lf: float | None = None
    evidence: float | None = None


def _mix_lf(outputs: HeadOutputs, main: Tensor, lf_ids,
            omega: float) -> tuple[Tensor, float | None]:
    """(omega * L_lf + (1 - omega) * main, L_lf). At omega = 0 the loss is
    `main` and L_lf is None: nothing is computed that the loss does not
    use. omega > 0 requires gold logical-form ids."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    if omega == 0:
        return main, None
    if lf_ids is None:
        raise ValueError("omega > 0 requires gold logical-form ids")
    l_lf = T.softmax_cross_entropy(outputs.lf_logits, lf_ids)
    return omega * l_lf + (1.0 - omega) * main, l_lf.item()


def multitask_loss(outputs: HeadOutputs, answer_start, answer_end,
                   lf_ids, omega: float) -> LossParts:
    """omega * L_lf + (1 - omega) * L_span, with
    L_span = (CE(start) + CE(end)) / 2."""
    l_start = T.softmax_cross_entropy(outputs.start_logits, answer_start)
    l_end = T.softmax_cross_entropy(outputs.end_logits, answer_end)
    l_span = (l_start + l_end) * 0.5
    total, l_lf = _mix_lf(outputs, l_span, lf_ids, omega)
    return LossParts(total=total, span=l_span.item(), lf=l_lf)


def evidence_loss(outputs: HeadOutputs, evidence_labels, lf_ids,
                  omega: float) -> LossParts:
    """omega * L_lf + (1 - omega) * L_evidence (binary cross-entropy)."""
    l_ev = T.binary_cross_entropy_with_logits(outputs.evidence_logit,
                                              evidence_labels)
    total, l_lf = _mix_lf(outputs, l_ev, lf_ids, omega)
    return LossParts(total=total, evidence=l_ev.item(), lf=l_lf)


# ---------------------------------------------------------------------------
# Span decoding.
# ---------------------------------------------------------------------------

class DecodeError(ValueError):
    pass


def decode_span(start_logits: np.ndarray, end_logits: np.ndarray,
                context_mask: np.ndarray,
                max_answer_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Best (start, end) of every row of a [B, L] batch, with
    start <= end < start + max_answer_len and both inside the context.

    One argmax over the band scores[b, i, k] = start[b, i] + end[b, i + k],
    k < max_answer_len; ties go to the first (start, end) in row-major order.
    Returns [B] start and end index arrays.
    """
    if not context_mask.any(axis=1).all():
        raise DecodeError("empty context mask")
    B, L = context_mask.shape
    width = min(max_answer_len, L)
    s = np.where(context_mask, start_logits, -np.inf)
    e = np.concatenate([np.where(context_mask, end_logits, -np.inf),
                        np.full((B, width - 1), -np.inf)], axis=1)
    ends = np.arange(L)[:, None] + np.arange(width)
    flat = (s[:, :, None] + e[:, ends]).reshape(B, -1).argmax(axis=1)
    starts = flat // width
    return starts, starts + flat % width


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


def fragment_gradchecks(seed: int) -> dict:
    """Finite-difference checks for every differentiable fragment.

    Returns {"fragment/param": max relative error}.
    """
    # one stream per use, so a change to the parameter set or to one
    # fragment moves no other fragment's draws
    streams = ("jitter", "batch", "linear", "fusion", "entity_encoder",
               "encoder", "span_head", "lf_head", "full_model")
    rng = dict(zip(streams, map(np.random.default_rng,
                                np.random.SeedSequence(seed).spawn(len(streams)))))
    config = ModelConfig(vocab_size=50, hidden_dim=16, layers=2, heads=2,
                         entity_dim=12, entity_heads=2, dropout=0.0,
                         max_seq_len=16, ffn_mult=2)
    params = init_params(config, seed)
    # jitter away from the tiny init so gradients are well above the
    # finite-difference noise floor
    for p in params.values():
        p.data = p.data + rng["jitter"].normal(0.0, 0.05, size=p.data.shape)
    batch = _tiny_batch(config, rng["batch"])
    errors = {}

    def check(fragment, loss_fn, probed, **kwargs):
        for name, err in T.gradcheck(loss_fn, probed, rng=rng[fragment],
                                     **kwargs).items():
            errors[f"{fragment}/{name}"] = err

    def pick(names):
        return {k: params[k] for k in names}

    r = rng["linear"]
    x = Tensor(r.normal(size=(3, 8)))
    lin = {"w": Tensor(r.normal(size=(8, 4)), requires_grad=True),
           "b": Tensor(r.normal(size=4), requires_grad=True)}
    check("linear", lambda: T.linear(x, lin["w"], lin["b"]).sum(), lin)

    r = rng["fusion"]
    ts = Tensor(r.normal(size=(2, 6, config.hidden_dim)))
    es = Tensor(r.normal(size=(2, 6, config.entity_dim)))
    fl = r.random((2, 6)) < 0.5
    check("fusion", lambda: fuse(params, ts, es, fl).sum(),
          pick(("fuse.wt", "fuse.we", "fuse.b")))

    # weighted sums keep the probe gradients from cancelling out
    b, l = batch.token_ids.shape
    w_ent = Tensor(rng["entity_encoder"].normal(size=(b, l, config.entity_dim)))
    check("entity_encoder",
          lambda: (encode_entities(params, config, batch) * w_ent).sum(),
          pick(k for k in params if k.startswith(("ent_emb", "ent0", "ent_ln"))))

    w_tok = Tensor(rng["encoder"].normal(size=(b, l, config.hidden_dim)))
    check("encoder",
          lambda: (encode_tokens(params, config, batch) * w_tok).sum(),
          pick(k for k in params
               if k.startswith(("tok_emb", "seg_emb", "pos_emb", "enc"))),
          max_elements=8)

    def loss(omega):
        return lambda: multitask_loss(
            forward(params, config, batch), batch.answer_start,
            batch.answer_end, batch.lf_ids, omega=omega).total

    check("span_head", loss(0.0),
          pick(("span.ws", "span.bs", "span.we", "span.be")))
    check("lf_head", loss(1.0), pick(("lf.w", "lf.b")))
    check("full_model", loss(0.3),
          pick(("fuse.wt", "fuse.we", "tok_emb", "ent_emb", "enc0.attn.wq",
                "ent0.attn.wv", "span.ws", "lf.w")), max_elements=6)
    return errors
