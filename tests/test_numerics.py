import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from dialectid.errors import ShapeError
from dialectid.numerics import (
    PROB_FLOOR,
    STREAM_INIT,
    STREAM_SHUFFLE,
    STREAM_SYNTH,
    affine,
    cross_entropy,
    make_stream,
    softmax,
)

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
logit_vectors = st.lists(finite_floats, min_size=1, max_size=12).map(np.asarray)


def test_softmax_known_ratios():
    p = softmax(np.log([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(p, [1 / 6, 2 / 6, 3 / 6], rtol=0, atol=1e-15)


def test_softmax_uniform_on_constant_input():
    p = softmax(np.full(7, 3.25))
    np.testing.assert_array_equal(p, np.full(7, 1 / 7))


def test_softmax_rejects_matrix_input():
    with pytest.raises(ShapeError):
        softmax(np.zeros((2, 2)))


def test_softmax_survives_large_logits():
    p = softmax(np.array([1000.0, 1000.0, 0.0]))
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p[:2], 0.5, atol=1e-12)


@given(logit_vectors)
def test_softmax_normalizes(z):
    p = softmax(z)
    assert abs(p.sum() - 1.0) < 1e-12
    assert (p > 0.0).all()


@given(logit_vectors, st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_softmax_shift_invariance(z, c):
    np.testing.assert_allclose(softmax(z + c), softmax(z), rtol=0, atol=1e-12)


@given(logit_vectors)
def test_softmax_is_monotone(z):
    # The largest logit must receive the largest probability (ties allowed:
    # nearby logits may round to identical probabilities).
    p = softmax(z)
    assert p[int(np.argmax(z))] == p.max()


def test_cross_entropy_uniform_is_log_class_count():
    p = np.full(4, 0.25)
    assert cross_entropy(p, 2) == pytest.approx(math.log(4), abs=1e-15)


def test_cross_entropy_floor_value():
    # -log(1e-12); the 16-digit decimal rounding of the exact float is
    # 27.63102111592855, one print-precision step away.
    loss = cross_entropy(np.array([1.0, 0.0]), 1)
    assert loss == -math.log(PROB_FLOOR)
    assert abs(loss - 27.63102111592855) < 1e-13


def test_cross_entropy_certain_prediction_is_zero():
    assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0


def test_cross_entropy_bad_target():
    with pytest.raises(IndexError):
        cross_entropy(np.array([0.5, 0.5]), 2)


@given(logit_vectors, st.integers(min_value=0, max_value=11))
def test_cross_entropy_nonnegative(z, t):
    p = softmax(z)
    assert cross_entropy(p, t % len(p)) >= 0.0


# The cells call scipy's expit as their sigmoid; these pin the properties
# the LSTM gates rely on.
def test_sigmoid_center_and_symmetry():
    assert expit(np.array(0.0)) == 0.5
    x = np.linspace(-6, 6, 25)
    np.testing.assert_allclose(expit(x) + expit(-x), 1.0, atol=1e-15)


@given(st.floats(min_value=-500.0, max_value=500.0, allow_nan=False))
def test_sigmoid_bounded(x):
    y = float(expit(np.array(x)))
    assert 0.0 <= y <= 1.0


def test_sigmoid_open_interval_for_moderate_inputs():
    x = np.array([-30.0, 30.0])
    y = expit(x)
    assert 0.0 < y[0] and y[1] < 1.0


def test_affine_matches_manual_product():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 5))
    x = rng.normal(size=5)
    b = rng.normal(size=3)
    np.testing.assert_allclose(affine(w, x, b), w @ x + b, atol=1e-15)


def test_affine_shape_mismatch():
    with pytest.raises(ShapeError):
        affine(np.zeros((3, 5)), np.zeros(4), np.zeros(3))
    with pytest.raises(ShapeError):
        affine(np.zeros((3, 5)), np.zeros(5), np.zeros(2))


def test_stream_constants_are_distinct():
    assert len({STREAM_INIT, STREAM_SHUFFLE, STREAM_SYNTH}) == 3


def test_make_stream_reproducible_and_stream_separated():
    a = make_stream(7, STREAM_INIT).random(8)
    b = make_stream(7, STREAM_INIT).random(8)
    c = make_stream(7, STREAM_SHUFFLE).random(8)
    d = make_stream(8, STREAM_INIT).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
