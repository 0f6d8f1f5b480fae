import itertools

import numpy as np
import pytest

from dialectid.data import LabelSet, Vocab, make_batches
from dialectid.errors import ConfigError
from dialectid.model import ModelConfig, init_model, param_blocks
from dialectid.training import (
    batch_loss,
    finite_difference_error,
    grad_check,
    loss_and_gradients,
    make_gradcheck_case,
)

ALL_COMBOS = sorted(
    itertools.product(("lstm", "rnn"), (False, True), ("char", "word", "dense"),
                      ("last", "mean"))
)

TOLERANCE = 1e-5


@pytest.mark.parametrize("cell,bidirectional,mode,readout", ALL_COMBOS)
def test_analytic_gradients_match_finite_differences(cell, bidirectional, mode, readout):
    model, batch = make_gradcheck_case(mode, cell, bidirectional, readout)
    assert grad_check(model, batch) < TOLERANCE
    # training and inference run one forward, so their losses agree
    assert abs(loss_and_gradients(model, batch)[0] - batch_loss(model, batch)) <= 1e-12


def test_tiny_lstm_passes_at_small_epsilon():
    # hand-sized case (2 tokens embedded in 2 dims, hidden 2, 3 steps) with
    # all-positive weights, so no gradient coordinate is small enough for
    # finite-difference roundoff to dominate even at a 1e-5 probe
    vocab = Vocab(("<pad>", "<unk>", "a", "b"))
    labels = LabelSet(["x", "y"])
    cfg = ModelConfig(mode="char", cell="lstm", bidirectional=False,
                      embed_dim=2, hidden_dim=2, readout_mode="last")
    model = init_model(cfg, labels, vocab=vocab, seed=4)
    rng = np.random.default_rng(4)
    for name, arr in param_blocks(model).items():
        if name == "embedding.table":
            arr[1:] = rng.uniform(0.5, 1.5, size=arr[1:].shape)
        else:
            arr[:] = rng.uniform(0.2, 0.9, size=arr.shape)
    pairs = [(np.array([2, 3, 2], dtype=np.int64), 0),
             (np.array([3, 3], dtype=np.int64), 1)]
    (batch,) = make_batches(pairs, batch_size=2)
    assert grad_check(model, batch, epsilon=1e-5) < TOLERANCE


def test_epsilon_range_is_enforced():
    model, batch = make_gradcheck_case("char", "lstm", True, "last")
    with pytest.raises(ConfigError):
        grad_check(model, batch, epsilon=1.0)
    with pytest.raises(ConfigError):
        grad_check(model, batch, epsilon=1e-8)


def test_grad_check_is_deterministic():
    model, batch = make_gradcheck_case("dense", "rnn", True, "mean")
    assert grad_check(model, batch) == grad_check(model, batch)


def test_finite_difference_error_on_quadratic():
    # loss = 0.5 sum w^2 has exact analytic gradient w; central differences
    # are exact for quadratics up to roundoff
    rng = np.random.default_rng(0)
    blocks = {"w": rng.uniform(0.5, 2.0, size=6), "v": rng.uniform(0.5, 2.0, size=(2, 2))}

    def loss():
        return 0.5 * sum(float(np.sum(a * a)) for a in blocks.values())

    analytic = {k: v.copy() for k, v in blocks.items()}
    assert finite_difference_error(blocks, analytic, loss, epsilon=1e-4) < 1e-8


def test_finite_difference_error_detects_faults():
    rng = np.random.default_rng(0)
    blocks = {"w": rng.uniform(0.5, 2.0, size=6)}

    def loss():
        return 0.5 * float(np.sum(blocks["w"] ** 2))

    wrong = {"w": blocks["w"] + 0.1}
    assert finite_difference_error(blocks, wrong, loss, epsilon=1e-4) > 1e-2


def test_fault_injection_in_model_gradients():
    model, batch = make_gradcheck_case("char", "lstm", True, "last")
    _, analytic = loss_and_gradients(model, batch)
    analytic["readout.b_out"] = analytic["readout.b_out"] + 0.1
    err = finite_difference_error(
        param_blocks(model), analytic, lambda: batch_loss(model, batch), 1e-4
    )
    assert err > 1e-2


def test_subsampling_only_probes_some_coordinates():
    # with max_coords smaller than the parameter count, the probe count per
    # block is proportional to block size and the result stays deterministic
    rng = np.random.default_rng(3)
    blocks = {"a": rng.uniform(0.5, 1.0, size=40), "b": rng.uniform(0.5, 1.0, size=10)}
    calls = []

    def loss():
        calls.append(1)
        return 0.5 * sum(float(np.sum(v * v)) for v in blocks.values())

    analytic = {k: v.copy() for k, v in blocks.items()}
    err = finite_difference_error(blocks, analytic, loss, 1e-4, max_coords=10)
    assert err < 1e-8
    assert len(calls) == 2 * (8 + 2)   # two evaluations per probed coordinate


def test_probe_restores_parameters():
    model, batch = make_gradcheck_case("word", "rnn", False, "last")
    before = {k: v.copy() for k, v in param_blocks(model).items()}
    grad_check(model, batch)
    for name, arr in param_blocks(model).items():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)
