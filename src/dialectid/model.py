"""Peephole LSTM and sigmoid-RNN cells and the one forward pass of the
classifier: input sequence, (bidirectional) unroll, pooled readout, softmax.

The LSTM cell follows the peephole formulation with diagonal cell-to-gate
weights:

    i = sigmoid(W_xi x + W_hi h_prev + p_i * c_prev + b_i)
    f = sigmoid(W_xf x + W_hf h_prev + p_f * c_prev + b_f)
    c = f * c_prev + i * tanh(W_xc x + W_hc h_prev + b_c)
    o = sigmoid(W_xo x + W_ho h_prev + p_o * c + b_o)
    h = o * tanh(c)

The backward direction of a bidirectional stack runs the same recursion
right-to-left, so its state at position t depends on inputs t..T only.

`forward_traced` is the only forward: inference (`forward_classify`) keeps
its probabilities, training keeps its per-step traces for BPTT.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import expit

from .data import LabelSet, Vocab, frame_dense, DENSE_WIDTH
from .errors import ConfigError, ShapeError
from .numerics import affine, make_stream, softmax, STREAM_INIT

MODES = ("char", "word", "dense")
CELLS = ("lstm", "rnn")
READOUT_MODES = ("last", "mean")


@dataclass
class ModelConfig:
    mode: str = "char"
    cell: str = "lstm"
    bidirectional: bool = True
    embed_dim: int = 32
    hidden_dim: int = 64
    readout_mode: str = "last"
    frame_size: int = 20
    class_count: int = 2

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.cell not in CELLS:
            raise ConfigError(f"cell must be one of {CELLS}, got {self.cell!r}")
        if self.readout_mode not in READOUT_MODES:
            raise ConfigError(
                f"readout_mode must be one of {READOUT_MODES}, got {self.readout_mode!r}"
            )
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("embed_dim and hidden_dim must be >= 1")
        if self.class_count < 2:
            raise ConfigError(f"class_count must be >= 2, got {self.class_count}")
        if self.mode == "dense" and (
            self.frame_size < 1 or DENSE_WIDTH % self.frame_size != 0
        ):
            raise ConfigError(f"frame_size {self.frame_size} does not divide {DENSE_WIDTH}")

    @property
    def input_dim(self) -> int:
        return self.frame_size if self.mode == "dense" else self.embed_dim

    @property
    def readout_width(self) -> int:
        return 2 * self.hidden_dim if self.bidirectional else self.hidden_dim


@dataclass
class LstmParams:
    w_xi: np.ndarray
    w_hi: np.ndarray
    w_xf: np.ndarray
    w_hf: np.ndarray
    w_xc: np.ndarray
    w_hc: np.ndarray
    w_xo: np.ndarray
    w_ho: np.ndarray
    p_i: np.ndarray
    p_f: np.ndarray
    p_o: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.w_xi.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_xi.shape[1]


@dataclass
class RnnParams:
    w_xh: np.ndarray
    w_hh: np.ndarray
    b_h: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.w_xh.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_xh.shape[1]


@dataclass
class ReadoutParams:
    w_out: np.ndarray   # (classes, readout_width)
    b_out: np.ndarray   # (classes,)


@dataclass
class EmbeddingTable:
    table: np.ndarray   # (vocab, embed_dim); row 0 is PAD, pinned to zero


@dataclass
class Model:
    config: ModelConfig
    labels: LabelSet
    readout: ReadoutParams
    fwd: LstmParams | RnnParams
    bwd: LstmParams | RnnParams | None = None
    embedding: EmbeddingTable | None = None
    vocab: Vocab | None = None


def param_blocks(model: Model) -> dict[str, np.ndarray]:
    """Flat name -> array view of every trainable parameter block.

    The dict order is fixed, so iterating it is deterministic; the arrays are
    live references into the model, not copies.
    """
    blocks: dict[str, np.ndarray] = {}
    if model.embedding is not None:
        blocks["embedding.table"] = model.embedding.table
    for prefix, params in (("fwd", model.fwd), ("bwd", model.bwd)):
        if params is None:
            continue
        for f in fields(params):
            blocks[f"{prefix}.{f.name}"] = getattr(params, f.name)
    blocks["readout.w_out"] = model.readout.w_out
    blocks["readout.b_out"] = model.readout.b_out
    return blocks


def _lstm_step(x, h_prev, c_prev, p: LstmParams):
    """One cell update; returns the full gate tuple for reuse in BPTT."""
    i = expit(p.w_xi @ x + p.w_hi @ h_prev + p.p_i * c_prev + p.b_i)
    f = expit(p.w_xf @ x + p.w_hf @ h_prev + p.p_f * c_prev + p.b_f)
    g = np.tanh(p.w_xc @ x + p.w_hc @ h_prev + p.b_c)
    c = f * c_prev + i * g
    o = expit(p.w_xo @ x + p.w_ho @ h_prev + p.p_o * c + p.b_o)
    tc = np.tanh(c)
    h = o * tc
    return i, f, g, o, c, tc, h


def _rnn_step(x, h_prev, p: RnnParams):
    return expit(p.w_xh @ x + p.w_hh @ h_prev + p.b_h)


@dataclass
class LstmTrace:
    """Per-step activations of one unrolled direction, kept for BPTT."""

    i: np.ndarray    # (T, H)
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


def unroll_lstm_traced(xs: np.ndarray, params: LstmParams) -> LstmTrace:
    steps = xs.shape[0]
    hid = params.hidden_dim
    out = LstmTrace(*(np.empty((steps, hid)) for _ in range(7)))
    h = np.zeros(hid)
    c = np.zeros(hid)
    for t in range(steps):
        i, f, g, o, c, tc, h = _lstm_step(xs[t], h, c, params)
        out.i[t], out.f[t], out.g[t], out.o[t] = i, f, g, o
        out.c[t], out.tanh_c[t], out.h[t] = c, tc, h
    return out


def unroll_rnn_traced(xs: np.ndarray, params: RnnParams) -> np.ndarray:
    steps = xs.shape[0]
    hs = np.empty((steps, params.hidden_dim))
    h = np.zeros(params.hidden_dim)
    for t in range(steps):
        h = _rnn_step(xs[t], h, params)
        hs[t] = h
    return hs


def embed_lookup(ids, emb: EmbeddingTable) -> np.ndarray:
    """Embedding rows for a token-id sequence; PAD (id 0) rows are zero."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ShapeError(f"embed_lookup: expected 1-D id sequence, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= emb.table.shape[0]):
        raise IndexError(
            f"embed_lookup: token id out of range 0..{emb.table.shape[0] - 1}"
        )
    return emb.table[ids]


def readout_feature(hf, hb, mask, readout_mode: str) -> np.ndarray:
    """Pool per-position states into one utterance feature vector.

    ``last``: forward state at the last valid position, concatenated (when
    bidirectional) with the backward state at the first valid position.
    ``mean``: mask-weighted mean of per-position (concatenated) states.
    """
    hf = np.asarray(hf, dtype=np.float64)
    if mask is None:
        valid = np.arange(hf.shape[0])
    else:
        valid = np.flatnonzero(np.asarray(mask, dtype=bool))
    if valid.size == 0:
        raise ShapeError("readout: no valid positions")
    if readout_mode == "last":
        feat = hf[valid[-1]]
        if hb is not None:
            feat = np.concatenate([feat, hb[valid[0]]])
        return feat
    if readout_mode == "mean":
        stack = hf[valid]
        if hb is not None:
            stack = np.concatenate([stack, np.asarray(hb)[valid]], axis=1)
        return stack.mean(axis=0)
    raise ConfigError(f"unknown readout_mode {readout_mode!r}")


def input_sequence(model: Model, features: np.ndarray) -> np.ndarray:
    """Per-step input vectors for one sample.

    Token-id features (char/word modes) go through the embedding table;
    dense features are cut into frames.  A feature kind that does not match
    the model mode is a shape error.
    """
    features = np.asarray(features)
    if model.config.mode == "dense":
        if features.dtype.kind not in "fiu" or features.ndim != 1 or features.shape[0] != DENSE_WIDTH:
            raise ShapeError(
                f"model expects a length-{DENSE_WIDTH} dense vector, got "
                f"shape {features.shape} dtype {features.dtype}"
            )
        return frame_dense(features, model.config.frame_size)
    if features.dtype.kind not in "iu" or features.ndim != 1:
        raise ShapeError(
            f"model expects a 1-D token-id sequence, got shape {features.shape} "
            f"dtype {features.dtype}"
        )
    if features.size == 0:
        raise ShapeError("cannot classify an empty token sequence")
    return embed_lookup(features, model.embedding)


@dataclass
class Forward:
    """One sample's forward pass plus everything BPTT needs to reverse it."""

    xs: np.ndarray                       # (T, D) per-step inputs
    fwd: LstmTrace | np.ndarray          # LSTM trace, or RNN states (T, H)
    bwd: LstmTrace | np.ndarray | None   # the same over xs[::-1], in its own step order
    feat: np.ndarray                     # pooled readout feature
    probs: np.ndarray                    # class probabilities


def forward_traced(model: Model, features) -> Forward:
    """The model's one forward path, shared by training and inference.

    The backward direction unrolls the reversed input; its states are read
    back in reverse so state t depends on inputs t..T only.
    """
    cfg = model.config
    lstm = cfg.cell == "lstm"
    unroll = unroll_lstm_traced if lstm else unroll_rnn_traced
    xs = input_sequence(model, features)
    trace_f = unroll(xs, model.fwd)
    hf = trace_f.h if lstm else trace_f
    trace_b = hb = None
    if cfg.bidirectional:
        trace_b = unroll(xs[::-1], model.bwd)
        hb = (trace_b.h if lstm else trace_b)[::-1]
    feat = readout_feature(hf, hb, None, cfg.readout_mode)
    probs = softmax(affine(model.readout.w_out, feat, model.readout.b_out))
    return Forward(xs, trace_f, trace_b, feat, probs)


def forward_classify(model: Model, features) -> np.ndarray:
    """Class probability vector for one sample; deterministic."""
    return forward_traced(model, features).probs


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _init_lstm(rng, hid: int, inp: int) -> LstmParams:
    return LstmParams(
        w_xi=_glorot(rng, hid, inp), w_hi=_glorot(rng, hid, hid),
        w_xf=_glorot(rng, hid, inp), w_hf=_glorot(rng, hid, hid),
        w_xc=_glorot(rng, hid, inp), w_hc=_glorot(rng, hid, hid),
        w_xo=_glorot(rng, hid, inp), w_ho=_glorot(rng, hid, hid),
        p_i=np.zeros(hid), p_f=np.zeros(hid), p_o=np.zeros(hid),
        b_i=np.zeros(hid), b_f=np.ones(hid), b_c=np.zeros(hid), b_o=np.zeros(hid),
    )


def _init_rnn(rng, hid: int, inp: int) -> RnnParams:
    return RnnParams(
        w_xh=_glorot(rng, hid, inp), w_hh=_glorot(rng, hid, hid), b_h=np.zeros(hid),
    )


def init_model(
    config: ModelConfig,
    labels: LabelSet,
    vocab: Vocab | None = None,
    seed: int = 0,
) -> Model:
    """Fresh model with Glorot-uniform recurrent weights.

    Peepholes start at zero, forget-gate biases at 1, embedding rows are
    uniform in (-0.1, 0.1) with the PAD row pinned to zero, and the readout
    is all-zero so an untrained model emits exactly uniform probabilities.
    """
    config = replace(config, class_count=len(labels))
    config.validate()
    if config.mode != "dense" and vocab is None:
        raise ConfigError(f"mode {config.mode!r} requires a vocabulary")
    if config.mode == "dense":
        vocab = None

    rng = make_stream(seed, STREAM_INIT)
    hid, inp = config.hidden_dim, config.input_dim
    init_cell = _init_lstm if config.cell == "lstm" else _init_rnn
    fwd = init_cell(rng, hid, inp)
    bwd = init_cell(rng, hid, inp) if config.bidirectional else None

    embedding = None
    if config.mode != "dense":
        table = rng.uniform(-0.1, 0.1, size=(len(vocab), config.embed_dim))
        table[0] = 0.0
        embedding = EmbeddingTable(table=table)

    ro = ReadoutParams(
        w_out=np.zeros((config.class_count, config.readout_width)),
        b_out=np.zeros(config.class_count),
    )
    return Model(
        config=config, labels=labels, readout=ro,
        fwd=fwd, bwd=bwd, embedding=embedding, vocab=vocab,
    )
