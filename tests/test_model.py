import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from dialectid.data import DENSE_WIDTH, LabelSet, Vocab
from dialectid.errors import ConfigError, ShapeError
from dialectid.model import (
    EmbeddingTable,
    LstmParams,
    Model,
    ModelConfig,
    ReadoutParams,
    RnnParams,
    _lstm_step,
    _rnn_step,
    embed_lookup,
    forward_classify,
    forward_traced,
    init_model,
    input_sequence,
    param_blocks,
    readout_feature,
    unroll_lstm_traced,
    unroll_rnn_traced,
)

LSTM_FIELDS = (
    "w_xi", "w_hi", "w_xf", "w_hf", "w_xc", "w_hc", "w_xo", "w_ho",
    "p_i", "p_f", "p_o", "b_i", "b_f", "b_c", "b_o",
)


def random_lstm(rng, hid, inp, scale=0.6):
    kw = {}
    for name in LSTM_FIELDS:
        if name.startswith("w_x"):
            shape = (hid, inp)
        elif name.startswith("w_h"):
            shape = (hid, hid)
        else:
            shape = (hid,)
        kw[name] = rng.uniform(-scale, scale, size=shape)
    return LstmParams(**kw)


def random_rnn(rng, hid, inp, scale=0.6):
    return RnnParams(
        w_xh=rng.uniform(-scale, scale, size=(hid, inp)),
        w_hh=rng.uniform(-scale, scale, size=(hid, hid)),
        b_h=rng.uniform(-scale, scale, size=hid),
    )


def as_lists(params):
    return {name: np.asarray(getattr(params, name)).tolist() for name in LSTM_FIELDS}


def test_lstm_step_matches_scalar_oracle(rng):
    hid, inp = 3, 4
    p = random_lstm(rng, hid, inp)
    x = rng.normal(size=inp)
    h_prev = rng.normal(size=hid)
    c_prev = rng.normal(size=hid)
    *_, c, _, h = _lstm_step(x, h_prev, c_prev, p)
    h_ref, c_ref = oracle.lstm_step(x.tolist(), h_prev.tolist(), c_prev.tolist(), as_lists(p))
    np.testing.assert_allclose(h, h_ref, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(c, c_ref, rtol=1e-13, atol=1e-14)


def test_rnn_step_matches_scalar_oracle(rng):
    hid, inp = 5, 2
    p = random_rnn(rng, hid, inp)
    x = rng.normal(size=inp)
    h_prev = rng.normal(size=hid)
    h = _rnn_step(x, h_prev, p)
    h_ref = oracle.rnn_step(
        x.tolist(), h_prev.tolist(),
        {"w_xh": p.w_xh.tolist(), "w_hh": p.w_hh.tolist(), "b_h": p.b_h.tolist()},
    )
    np.testing.assert_allclose(h, h_ref, rtol=1e-13, atol=1e-14)


def test_lstm_zero_params_anchor():
    # all-zero parameters: gates sit at 1/2, candidate at 0, so from
    # c_prev = 2 one step gives c = 1 and h = tanh(1)/2.
    hid = 1
    p = LstmParams(**{
        name: np.zeros((hid, hid)) if name.startswith("w") else np.zeros(hid)
        for name in LSTM_FIELDS
    })
    *_, c, _, h = _lstm_step(np.zeros(1), np.zeros(1), np.array([2.0]), p)
    assert c[0] == 1.0
    assert h[0] == pytest.approx(math.tanh(1.0) / 2, abs=1e-16)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=2, max_value=6))
def test_lstm_unroll_matches_scalar_oracle(seed, steps):
    rng = np.random.default_rng(seed)
    hid, inp = 2, 3
    p = random_lstm(rng, hid, inp)
    xs = rng.normal(size=(steps, inp))
    trace = unroll_lstm_traced(xs, p)
    hs_ref, c_ref = oracle.unroll_lstm([row.tolist() for row in xs], as_lists(p))
    np.testing.assert_allclose(trace.h, hs_ref, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(trace.c[-1], c_ref, rtol=1e-12, atol=1e-13)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=6))
def test_causality_prefix_states_ignore_future_inputs(seed, cut):
    # Changing inputs strictly after position `cut` must leave states up to
    # `cut` bitwise unchanged in a forward unroll.
    rng = np.random.default_rng(seed)
    steps, hid, inp = 6, 3, 2
    p = random_lstm(rng, hid, inp)
    xs = rng.normal(size=(steps, inp))
    ys = xs.copy()
    ys[cut:] += rng.normal(size=(steps - cut, inp)) + 1.0
    ha = unroll_lstm_traced(xs, p).h
    hb = unroll_lstm_traced(ys, p).h
    np.testing.assert_array_equal(ha[:cut], hb[:cut])
    r = random_rnn(rng, hid, inp)
    np.testing.assert_array_equal(
        unroll_rnn_traced(xs, r)[:cut], unroll_rnn_traced(ys, r)[:cut]
    )


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from(["last", "mean"]))
def test_reversal_duality(seed, readout_mode):
    # The backward pass over xs equals the forward pass over reversed xs,
    # read back in reverse.
    rng = np.random.default_rng(seed)
    steps, hid, inp = 5, 2, 2
    model = init_model(
        ModelConfig(mode="char", embed_dim=inp, hidden_dim=hid, readout_mode=readout_mode),
        LabelSet(["x", "y"]), vocab=Vocab(("<pad>", "<unk>", "a", "b", "c")), seed=0,
    )
    model.fwd = random_lstm(rng, hid, inp)
    model.bwd = random_lstm(rng, hid, inp)
    ids = rng.integers(1, 5, size=steps)
    fw = forward_traced(model, ids)
    xs = model.embedding.table[ids]
    np.testing.assert_array_equal(fw.xs, xs)
    np.testing.assert_array_equal(fw.fwd.h, unroll_lstm_traced(xs, model.fwd).h)
    manual = unroll_lstm_traced(xs[::-1], model.bwd).h
    np.testing.assert_array_equal(fw.bwd.h, manual)
    hb = manual[::-1]
    np.testing.assert_array_equal(fw.feat, readout_feature(fw.fwd.h, hb, None, readout_mode))
    if readout_mode == "last":
        # backward state at position 0 is the reversed unroll's final state
        np.testing.assert_array_equal(fw.feat[hid:], manual[-1])


def test_readout_feature_last_and_mean(rng):
    hf = rng.normal(size=(4, 3))
    hb = rng.normal(size=(4, 3))
    mask = np.array([True, True, True, False])
    last = readout_feature(hf, hb, mask, "last")
    np.testing.assert_array_equal(last, np.concatenate([hf[2], hb[0]]))
    mean = readout_feature(hf, hb, mask, "mean")
    np.testing.assert_allclose(
        mean,
        np.concatenate([hf[:3], hb[:3]], axis=1).mean(axis=0),
        atol=1e-15,
    )
    uni = readout_feature(hf, None, None, "last")
    np.testing.assert_array_equal(uni, hf[-1])
    with pytest.raises(ConfigError):
        readout_feature(hf, hb, mask, "max")
    with pytest.raises(ShapeError):
        readout_feature(hf, hb, np.zeros(4, dtype=bool), "last")


def test_model_config_validation():
    ModelConfig(class_count=3).validate()
    with pytest.raises(ConfigError):
        ModelConfig(mode="audio", class_count=2).validate()
    with pytest.raises(ConfigError):
        ModelConfig(cell="gru", class_count=2).validate()
    with pytest.raises(ConfigError):
        ModelConfig(hidden_dim=0, class_count=2).validate()
    with pytest.raises(ConfigError):
        ModelConfig(mode="dense", frame_size=7, class_count=2).validate()
    with pytest.raises(ConfigError):
        ModelConfig(readout_mode="sum", class_count=2).validate()


def test_model_config_dims():
    cfg = ModelConfig(mode="char", embed_dim=8, hidden_dim=16, class_count=3)
    assert cfg.input_dim == 8
    assert cfg.readout_width == 32
    uni = ModelConfig(mode="dense", frame_size=20, hidden_dim=16,
                      bidirectional=False, class_count=3)
    assert uni.input_dim == 20
    assert uni.readout_width == 16


def fresh_text_model(cell="lstm", bidirectional=True, readout_mode="last", classes=3):
    vocab = Vocab(("<pad>", "<unk>", "a", "b", "c"))
    labels = LabelSet([f"c{i}" for i in range(classes)])
    cfg = ModelConfig(mode="char", cell=cell, bidirectional=bidirectional,
                      embed_dim=4, hidden_dim=5, readout_mode=readout_mode)
    return init_model(cfg, labels, vocab=vocab, seed=11)


def test_init_model_anchors():
    m = fresh_text_model()
    assert np.all(m.fwd.b_f == 1.0)
    assert np.all(m.fwd.p_i == 0.0) and np.all(m.bwd.p_o == 0.0)
    np.testing.assert_array_equal(m.embedding.table[0], np.zeros(4))
    assert np.abs(m.embedding.table[1:]).max() < 0.1
    assert np.all(m.readout.w_out == 0.0) and np.all(m.readout.b_out == 0.0)
    # zero readout means exactly uniform class probabilities
    p = forward_classify(m, np.array([2, 3, 4], dtype=np.int64))
    np.testing.assert_array_equal(p, np.full(3, 1 / 3))


def test_init_model_seed_determinism():
    a = fresh_text_model()
    b = fresh_text_model()
    np.testing.assert_array_equal(a.fwd.w_xi, b.fwd.w_xi)
    np.testing.assert_array_equal(a.embedding.table, b.embedding.table)
    c = init_model(a.config, a.labels, vocab=a.vocab, seed=12)
    assert not np.array_equal(a.fwd.w_xi, c.fwd.w_xi)


def test_init_model_requires_vocab_for_text():
    with pytest.raises(ConfigError):
        init_model(ModelConfig(mode="char"), LabelSet(["a", "b"]))


def test_param_blocks_are_live_views():
    m = fresh_text_model()
    blocks = param_blocks(m)
    expected = {"embedding.table", "readout.w_out", "readout.b_out"}
    expected |= {f"fwd.{f}" for f in LSTM_FIELDS}
    expected |= {f"bwd.{f}" for f in LSTM_FIELDS}
    assert set(blocks) == expected
    blocks["readout.b_out"][0] = 5.0
    assert m.readout.b_out[0] == 5.0

    uni = fresh_text_model(cell="rnn", bidirectional=False)
    names = set(param_blocks(uni))
    assert names == {"embedding.table", "readout.w_out", "readout.b_out",
                     "fwd.w_xh", "fwd.w_hh", "fwd.b_h"}


def test_embed_lookup_and_pad_row():
    m = fresh_text_model()
    xs = embed_lookup(np.array([2, 0, 4], dtype=np.int64), m.embedding)
    assert xs.shape == (3, 4)
    np.testing.assert_array_equal(xs[1], np.zeros(4))
    with pytest.raises(IndexError):
        embed_lookup(np.array([99]), m.embedding)


def test_input_sequence_mode_mismatch():
    m = fresh_text_model()
    with pytest.raises(ShapeError):
        input_sequence(m, np.zeros(DENSE_WIDTH))
    with pytest.raises(ShapeError):
        input_sequence(m, np.array([], dtype=np.int64))

    labels = LabelSet(["a", "b"])
    dense = init_model(ModelConfig(mode="dense", frame_size=20), labels, seed=0)
    with pytest.raises(ShapeError):
        input_sequence(dense, np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(ShapeError):
        input_sequence(dense, np.zeros(DENSE_WIDTH - 1))
    assert input_sequence(dense, np.zeros(DENSE_WIDTH)).shape == (20, 20)


def test_forward_classify_modes_agree_with_oracle(rng):
    m = fresh_text_model(readout_mode="mean")
    # give the readout nonzero weights so the comparison is nontrivial
    m.readout.w_out[:] = rng.uniform(-0.5, 0.5, size=m.readout.w_out.shape)
    m.readout.b_out[:] = rng.uniform(-0.1, 0.1, size=3)
    ids = np.array([2, 3, 4, 2], dtype=np.int64)
    p = forward_classify(m, ids)

    xs = [m.embedding.table[i].tolist() for i in ids]
    hs_f, _ = oracle.unroll_lstm(xs, as_lists(m.fwd))
    hs_b_rev, _ = oracle.unroll_lstm(xs[::-1], as_lists(m.bwd))
    hs_b = hs_b_rev[::-1]
    p_ref = oracle.classify_mean(hs_f, hs_b, m.readout.w_out.tolist(), m.readout.b_out.tolist())
    np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-13)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_classify_last_readout_against_oracle(rng):
    m = fresh_text_model(cell="rnn", bidirectional=False, readout_mode="last")
    m.readout.w_out[:] = rng.uniform(-0.5, 0.5, size=m.readout.w_out.shape)
    ids = np.array([4, 3, 2], dtype=np.int64)
    p = forward_classify(m, ids)
    xs = [m.embedding.table[i].tolist() for i in ids]
    hs = oracle.unroll_rnn(
        xs, {"w_xh": m.fwd.w_xh.tolist(), "w_hh": m.fwd.w_hh.tolist(), "b_h": m.fwd.b_h.tolist()}
    )
    p_ref = oracle.classify_last(hs, None, m.readout.w_out.tolist(), m.readout.b_out.tolist())
    np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-13)
