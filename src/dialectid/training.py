"""Exact analytic gradients through the recurrent stack, optimizers, a
finite-difference gradient checker, and the train/early-stop loop.

Gradients come from full backpropagation through time over each sample's
unpadded sequence, so padded positions never touch the math.  The forward
half is `model.forward_traced`, the same pass inference runs.  The loop is
single-threaded and bit-deterministic: one seeded shuffle stream drives
epoch order, and identical seeds reproduce identical per-epoch logs.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Batch, DENSE_WIDTH, LabelSet, Vocab, make_batches
from .errors import ConfigError, NumericError, ShapeError
from .model import (
    LstmParams,
    Model,
    ModelConfig,
    forward_classify,
    forward_traced,
    init_model,
    param_blocks,
)
from .numerics import STREAM_SHUFFLE, STREAM_SYNTH, cross_entropy, make_stream

OPTIMIZERS = ("sgd", "adam")

# grad_check sweeps every coordinate up to this many; larger models fall
# back to a deterministic evenly-spaced subsample of about this size
GRADCHECK_FULL_LIMIT = 1000
GRADCHECK_SUBSAMPLE = 800


@dataclass
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 50
    batch_size: int = 32
    clip_norm: float = 5.0
    seed: int = 0
    early_stop_patience: int = 5
    max_seq_len: int | None = None

    def validate(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("adam betas must be in [0, 1)")
        if self.eps <= 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        if self.clip_norm < 0:
            raise ConfigError(f"clip_norm must be >= 0 (0 disables), got {self.clip_norm}")
        if self.max_seq_len is not None and self.max_seq_len < 1:
            raise ConfigError(f"max_seq_len must be >= 1, got {self.max_seq_len}")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    train_accs: list[float] = field(default_factory=list)
    dev_accs: list[float] = field(default_factory=list)
    best_epoch: int = 0
    wall_time: float = 0.0
    first_batch_loss: float = math.nan

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)


def _lstm_backward(xs, trace, dhs, p: LstmParams, grads, prefix: str) -> np.ndarray:
    """BPTT through one unrolled LSTM direction.

    `dhs` holds the loss gradient w.r.t. each emitted hidden state;
    parameter gradients are accumulated into `grads` under `prefix` and
    the gradient w.r.t. the inputs is returned.
    """
    steps, hid = dhs.shape
    di = np.empty((steps, hid))
    df = np.empty((steps, hid))
    dg = np.empty((steps, hid))
    do = np.empty((steps, hid))
    dxs = np.empty((steps, xs.shape[1]))

    zero = np.zeros(hid)
    dh_carry = np.zeros(hid)
    dc_carry = np.zeros(hid)
    for t in range(steps - 1, -1, -1):
        dh = dhs[t] + dh_carry
        i, f, g, o = trace.i[t], trace.f[t], trace.g[t], trace.o[t]
        tc = trace.tanh_c[t]
        c_prev = trace.c[t - 1] if t > 0 else zero

        do_pre = dh * tc * o * (1.0 - o)
        dc = dc_carry + dh * o * (1.0 - tc * tc) + p.p_o * do_pre
        di_pre = dc * g * i * (1.0 - i)
        df_pre = dc * c_prev * f * (1.0 - f)
        dg_pre = dc * i * (1.0 - g * g)
        di[t], df[t], dg[t], do[t] = di_pre, df_pre, dg_pre, do_pre

        dh_carry = (
            p.w_hi.T @ di_pre + p.w_hf.T @ df_pre
            + p.w_hc.T @ dg_pre + p.w_ho.T @ do_pre
        )
        dc_carry = dc * f + p.p_i * di_pre + p.p_f * df_pre
        dxs[t] = (
            p.w_xi.T @ di_pre + p.w_xf.T @ df_pre
            + p.w_xc.T @ dg_pre + p.w_xo.T @ do_pre
        )

    h_prevs = np.vstack([np.zeros((1, hid)), trace.h[:-1]])
    c_prevs = np.vstack([np.zeros((1, hid)), trace.c[:-1]])
    for gate, d in (("i", di), ("f", df), ("c", dg), ("o", do)):
        grads[f"{prefix}.w_x{gate}"] += d.T @ xs
        grads[f"{prefix}.w_h{gate}"] += d.T @ h_prevs
        grads[f"{prefix}.b_{gate}"] += d.sum(axis=0)
    grads[f"{prefix}.p_i"] += (di * c_prevs).sum(axis=0)
    grads[f"{prefix}.p_f"] += (df * c_prevs).sum(axis=0)
    grads[f"{prefix}.p_o"] += (do * trace.c).sum(axis=0)
    return dxs


def _rnn_backward(xs, hs, dhs, p, grads, prefix: str) -> np.ndarray:
    """BPTT through one unrolled sigmoid-RNN direction."""
    steps, hid = dhs.shape
    da = np.empty((steps, hid))
    dxs = np.empty((steps, xs.shape[1]))
    dh_carry = np.zeros(hid)
    for t in range(steps - 1, -1, -1):
        h = hs[t]
        d = (dhs[t] + dh_carry) * h * (1.0 - h)
        da[t] = d
        dh_carry = p.w_hh.T @ d
        dxs[t] = p.w_xh.T @ d
    h_prevs = np.vstack([np.zeros((1, hid)), hs[:-1]])
    grads[f"{prefix}.w_xh"] += da.T @ xs
    grads[f"{prefix}.w_hh"] += da.T @ h_prevs
    grads[f"{prefix}.b_h"] += da.sum(axis=0)
    return dxs


def _sample_loss_and_backward(model: Model, features, label: int, weight: float, grads) -> float:
    """Forward + backward for one sample; gradient contributions are scaled
    by `weight` (the sample's share of the batch mean) and accumulated."""
    cfg = model.config
    fw = forward_traced(model, features)
    probs = fw.probs
    if not np.isfinite(probs).all():
        raise NumericError("non-finite activations in forward pass")
    loss = cross_entropy(probs, label)

    dlogits = probs.copy()
    dlogits[label] -= 1.0
    dlogits *= weight
    grads["readout.w_out"] += np.outer(dlogits, fw.feat)
    grads["readout.b_out"] += dlogits
    dfeat = model.readout.w_out.T @ dlogits

    steps, hid = fw.xs.shape[0], cfg.hidden_dim
    dhf = np.zeros((steps, hid))
    dhb = np.zeros((steps, hid)) if fw.bwd is not None else None
    if cfg.readout_mode == "last":
        dhf[-1] += dfeat[:hid]
        if dhb is not None:
            dhb[0] += dfeat[hid:]
    else:
        dhf += dfeat[None, :hid] / steps
        if dhb is not None:
            dhb += dfeat[None, hid:] / steps

    backward = _lstm_backward if cfg.cell == "lstm" else _rnn_backward
    dxs = backward(fw.xs, fw.fwd, dhf, model.fwd, grads, "fwd")
    if dhb is not None:
        dxs = dxs + backward(fw.xs[::-1], fw.bwd, dhb[::-1], model.bwd, grads, "bwd")[::-1]

    if cfg.mode != "dense":
        np.add.at(grads["embedding.table"], np.asarray(features), dxs)
    return loss


def zero_gradients(model: Model) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in param_blocks(model).items()}


def loss_and_gradients(model: Model, batch: Batch) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its exact analytic gradient.

    Each sample is unrolled over its own unpadded length, so masked
    positions contribute nothing; the pinned-zero PAD embedding row gets a
    forced-zero gradient.
    """
    size = len(batch)
    if size == 0:
        raise ShapeError("loss_and_gradients: empty batch")
    grads = zero_gradients(model)
    weight = 1.0 / size
    losses = [
        _sample_loss_and_backward(
            model, batch.row_features(i), int(batch.labels[i]), weight, grads
        )
        for i in range(size)
    ]
    if "embedding.table" in grads:
        grads["embedding.table"][0] = 0.0
    loss = math.fsum(losses) / size
    if not math.isfinite(loss):
        raise NumericError(f"non-finite batch loss {loss}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in block {name!r}")
    return loss, grads


def batch_loss(model: Model, batch: Batch) -> float:
    """Mean cross-entropy via the inference path only (no gradients)."""
    size = len(batch)
    if size == 0:
        raise ShapeError("batch_loss: empty batch")
    losses = [
        cross_entropy(
            forward_classify(model, batch.row_features(i)), int(batch.labels[i])
        )
        for i in range(size)
    ]
    return math.fsum(losses) / size


def finite_difference_error(
    blocks: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    loss_fn,
    epsilon: float,
    max_coords: int | None = None,
) -> float:
    """Max relative error between `analytic` and central differences of
    `loss_fn`, probing each chosen coordinate of `blocks` in place.

    Relative error: |ga - gn| / max(1e-8, |ga| + |gn|).  With `max_coords`
    set, coordinates are an evenly spaced deterministic subsample spread
    across blocks in proportion to their size.
    """
    total = sum(arr.size for arr in blocks.values())
    worst = 0.0
    for name, arr in blocks.items():
        if max_coords is None or total <= max_coords:
            coords = range(arr.size)
        else:
            n = max(1, round(max_coords * arr.size / total))
            coords = np.unique(np.linspace(0, arr.size - 1, n).round().astype(int))
        flat = arr.reshape(-1)
        ana = analytic[name].reshape(-1)
        for j in coords:
            saved = flat[j]
            flat[j] = saved + epsilon
            hi = loss_fn()
            flat[j] = saved - epsilon
            lo = loss_fn()
            flat[j] = saved
            gn = (hi - lo) / (2.0 * epsilon)
            ga = ana[j]
            err = abs(ga - gn) / max(1e-8, abs(ga) + abs(gn))
            if err > worst:
                worst = err
    return worst


def grad_check(model: Model, batch: Batch, epsilon: float = 1e-4) -> float:
    """Max relative error of the analytic gradient against central finite
    differences of the inference-path batch loss."""
    if not 1e-7 <= epsilon <= 1e-3:
        raise ConfigError(f"epsilon must be in [1e-7, 1e-3], got {epsilon}")
    _, analytic = loss_and_gradients(model, batch)
    blocks = param_blocks(model)
    total = sum(arr.size for arr in blocks.values())
    max_coords = None if total <= GRADCHECK_FULL_LIMIT else GRADCHECK_SUBSAMPLE
    return finite_difference_error(
        blocks, analytic, lambda: batch_loss(model, batch), epsilon, max_coords
    )


def make_gradcheck_case(
    mode: str,
    cell: str,
    bidirectional: bool,
    readout_mode: str,
    seed: int = 0,
) -> tuple[Model, Batch]:
    """Small randomized model + batch pair for gradient verification.

    The readout starts at zero after init, which would zero out every
    upstream gradient, so readout weights and LSTM peepholes are bumped to
    random values to exercise all paths.
    """
    rng = make_stream(seed, STREAM_SYNTH)
    labels = LabelSet(["c0", "c1", "c2"])
    if mode == "dense":
        config = ModelConfig(
            mode="dense", cell=cell, bidirectional=bidirectional,
            hidden_dim=4, readout_mode=readout_mode, frame_size=80,
        )
        model = init_model(config, labels, seed=seed)
        dense = rng.normal(0.0, 1.0, size=(3, DENSE_WIDTH))
        batch = Batch(labels=np.asarray([0, 1, 2], dtype=np.int64), dense=dense)
    else:
        vocab = Vocab(["<pad>", "<unk>", "a", "b", "c", "d", "e"])
        config = ModelConfig(
            mode=mode, cell=cell, bidirectional=bidirectional,
            embed_dim=3, hidden_dim=4, readout_mode=readout_mode,
        )
        model = init_model(config, labels, vocab=vocab, seed=seed)
        lengths = (6, 4, 3)
        rows, mask = [], []
        longest = max(lengths)
        for n in lengths:
            ids = rng.integers(1, len(vocab), size=n)
            rows.append(np.concatenate([ids, np.zeros(longest - n, dtype=np.int64)]))
            mask.append([True] * n + [False] * (longest - n))
        batch = Batch(
            labels=np.asarray([0, 1, 2], dtype=np.int64),
            ids=np.vstack(rows),
            mask=np.asarray(mask, dtype=bool),
        )
    model.readout.w_out[:] = rng.uniform(-0.5, 0.5, size=model.readout.w_out.shape)
    model.readout.b_out[:] = rng.uniform(-0.1, 0.1, size=model.readout.b_out.shape)
    for params in (model.fwd, model.bwd):
        if isinstance(params, LstmParams):
            for p in (params.p_i, params.p_f, params.p_o):
                p[:] = rng.uniform(-0.5, 0.5, size=p.shape)
    return model, batch


def gradient_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(math.fsum(float(np.dot(g.reshape(-1), g.reshape(-1))) for g in grads.values()))


def clip_global_norm(grads: dict[str, np.ndarray], threshold: float) -> dict[str, np.ndarray]:
    """Scale all blocks jointly so the global L2 norm is at most `threshold`."""
    if threshold <= 0:
        raise ConfigError(f"clip threshold must be > 0, got {threshold}")
    norm = gradient_norm(grads)
    if norm > threshold:
        scale = threshold / norm
        for g in grads.values():
            g *= scale
    return grads


def init_sgd_state(model: Model) -> dict:
    return {"v": zero_gradients(model)}


def init_adam_state(model: Model) -> dict:
    return {"m": zero_gradients(model), "v": zero_gradients(model), "t": 0}


def _repin_pad(blocks: dict[str, np.ndarray]) -> None:
    if "embedding.table" in blocks:
        blocks["embedding.table"][0] = 0.0


def sgd_step(
    blocks: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict,
    learning_rate: float,
    momentum: float = 0.0,
) -> None:
    """v <- momentum v + g; theta <- theta - lr v, in place."""
    for name, theta in blocks.items():
        v = state["v"][name]
        v *= momentum
        v += grads[name]
        theta -= learning_rate * v
    _repin_pad(blocks)


def adam_step(
    blocks: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict,
    config: TrainConfig,
) -> None:
    """Bias-corrected first/second-moment update, in place."""
    state["t"] += 1
    t = state["t"]
    b1, b2 = config.beta1, config.beta2
    for name, theta in blocks.items():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
    _repin_pad(blocks)


def evaluate_split(model: Model, pairs) -> tuple[float, list[tuple[int, int]]]:
    """Accuracy and (gold, predicted) id pairs; argmax ties go to the
    lowest label index."""
    if not pairs:
        raise ValueError("evaluate_split: empty dataset")
    out = []
    hits = 0
    for features, gold in pairs:
        pred = int(np.argmax(forward_classify(model, features)))
        out.append((int(gold), pred))
        hits += pred == int(gold)
    return hits / len(pairs), out


def _snapshot(blocks: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in blocks.items()}


def _restore(blocks: dict[str, np.ndarray], snap: dict[str, np.ndarray]) -> None:
    for name, arr in blocks.items():
        arr[...] = snap[name]


def train(
    model: Model,
    train_pairs,
    dev_pairs=None,
    config: TrainConfig | None = None,
    log_stream=None,
    epoch_callback=None,
) -> tuple[Model, TrainReport]:
    """Seeded epoch loop with clipping, early stopping, and best-dev
    parameter selection.

    Emits one log line per epoch: `epoch=<n> train_loss=<x> train_acc=<x>
    dev_acc=<x>` (floats in shortest round-trip form, so identical seeds
    give bit-identical logs).  With no dev pairs, selection falls back to
    train accuracy.  `early_stop_patience` <= 0 disables early stopping.
    Numeric failures abort with the offending epoch and batch.
    """
    config = config or TrainConfig()
    config.validate()
    if not train_pairs:
        raise ValueError("train: empty training set")
    if log_stream is None:
        log_stream = sys.stderr

    blocks = param_blocks(model)
    state = init_sgd_state(model) if config.optimizer == "sgd" else init_adam_state(model)
    shuffle_rng = make_stream(config.seed, STREAM_SHUFFLE)

    report = TrainReport()
    best_acc = -1.0
    best_snap = _snapshot(blocks)
    stale = 0
    started = time.perf_counter()

    for epoch in range(1, config.epochs + 1):
        batches = make_batches(
            train_pairs, config.batch_size, shuffle=True, rng=shuffle_rng
        )
        total = 0.0
        for b, batch in enumerate(batches):
            try:
                loss, grads = loss_and_gradients(model, batch)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {b}: {exc}") from exc
            if math.isnan(report.first_batch_loss):
                report.first_batch_loss = loss
            if config.clip_norm > 0:
                clip_global_norm(grads, config.clip_norm)
            if config.optimizer == "sgd":
                sgd_step(blocks, grads, state, config.learning_rate, config.momentum)
            else:
                adam_step(blocks, grads, state, config)
            total += loss * len(batch)
        train_loss = total / len(train_pairs)
        if not math.isfinite(train_loss):
            raise NumericError(f"epoch {epoch}: non-finite epoch loss {train_loss}")

        train_acc, _ = evaluate_split(model, train_pairs)
        dev_acc = evaluate_split(model, dev_pairs)[0] if dev_pairs else train_acc
        report.train_losses.append(train_loss)
        report.train_accs.append(train_acc)
        report.dev_accs.append(dev_acc)
        print(
            f"epoch={epoch} train_loss={train_loss!r} "
            f"train_acc={train_acc!r} dev_acc={dev_acc!r}",
            file=log_stream,
        )
        if epoch_callback is not None:
            epoch_callback(epoch, train_loss, train_acc, dev_acc)

        if dev_acc > best_acc:
            best_acc = dev_acc
            report.best_epoch = epoch
            best_snap = _snapshot(blocks)
            stale = 0
        else:
            stale += 1
            if config.early_stop_patience > 0 and stale >= config.early_stop_patience:
                break

    _restore(blocks, best_snap)
    report.wall_time = time.perf_counter() - started
    return model, report
