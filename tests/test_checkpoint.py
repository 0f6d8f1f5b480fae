import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from dialectid.data import LabelSet, Vocab
from dialectid.errors import FormatError
from dialectid.model import ModelConfig, forward_classify, init_model, param_blocks
from test_cli import run_cli


def build_model(cell="lstm", bidirectional=True, mode="char", seed=3):
    labels = LabelSet(["x", "y", "z"])
    vocab = Vocab(("<pad>", "<unk>", "a", "b")) if mode != "dense" else None
    cfg = ModelConfig(mode=mode, cell=cell, bidirectional=bidirectional,
                      embed_dim=3, hidden_dim=4, frame_size=80)
    m = init_model(cfg, labels, vocab=vocab, seed=seed)
    # perturb the readout so reloaded outputs are nontrivial
    rng = np.random.default_rng(seed)
    m.readout.w_out[:] = rng.uniform(-0.5, 0.5, size=m.readout.w_out.shape)
    m.readout.b_out[:] = rng.uniform(-0.5, 0.5, size=m.readout.b_out.shape)
    return m


@settings(max_examples=100)
@given(
    st.sampled_from(["lstm", "rnn"]),
    st.booleans(),
    st.sampled_from(["char", "dense"]),
    st.integers(min_value=0, max_value=10_000),
)
def test_round_trip_is_bitwise(tmp_path_factory, cell, bidirectional, mode, seed):
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    m = build_model(cell, bidirectional, mode, seed)
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert back.config == m.config
    assert back.labels == m.labels
    assert back.vocab == m.vocab
    a, b = param_blocks(m), param_blocks(back)
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


def test_round_trip_preserves_predictions(tmp_path):
    path = tmp_path / "m.json"
    m = build_model()
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    ids = np.array([2, 3, 2], dtype=np.int64)
    np.testing.assert_array_equal(forward_classify(m, ids), forward_classify(back, ids))


def test_save_is_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(build_model(), p1)
    save_checkpoint(build_model(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def corrupt(tmp_path, mutate):
    """Save a valid checkpoint, apply `mutate` to the parsed JSON, rewrite."""
    path = tmp_path / "m.json"
    save_checkpoint(build_model(), path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"format_version": 1,,}')
    with pytest.raises(FormatError, match=r"line 1 column \d+"):
        load_checkpoint(path)


def test_load_rejects_non_object_root(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[1, 2]")
    with pytest.raises(FormatError, match="root must be an object"):
        load_checkpoint(path)


def test_load_rejects_wrong_version(tmp_path):
    path = corrupt(tmp_path, lambda d: d.update(format_version=FORMAT_VERSION + 1))
    with pytest.raises(FormatError, match="unsupported format_version"):
        load_checkpoint(path)


def test_load_rejects_missing_sections(tmp_path):
    path = corrupt(tmp_path, lambda d: d.pop("labels"))
    with pytest.raises(FormatError, match="missing checkpoint field 'labels'"):
        load_checkpoint(path)


def test_load_rejects_unknown_config_field(tmp_path):
    path = corrupt(tmp_path, lambda d: d["config"].update(dropout=0.5))
    with pytest.raises(FormatError, match="config fields"):
        load_checkpoint(path)


def test_load_rejects_shape_mismatch(tmp_path):
    def chop(d):
        d["params"]["fwd"]["b_i"] = d["params"]["fwd"]["b_i"][:-1]
    path = corrupt(tmp_path, chop)
    with pytest.raises(FormatError, match=r"fwd\.b_i: shape"):
        load_checkpoint(path)


def test_load_rejects_non_finite(tmp_path):
    def poison(d):
        d["params"]["readout"]["b_out"][0] = 1e999   # serializes as Infinity
    path = corrupt(tmp_path, poison)
    with pytest.raises(FormatError, match="non-finite"):
        load_checkpoint(path)


def test_load_rejects_nonzero_pad_row(tmp_path):
    def poke(d):
        d["params"]["embedding"][0][1] = 0.25
    path = corrupt(tmp_path, poke)
    with pytest.raises(FormatError, match="PAD embedding row"):
        load_checkpoint(path)


def test_load_rejects_missing_bwd(tmp_path):
    path = corrupt(tmp_path, lambda d: d["params"].update(bwd=None))
    with pytest.raises(FormatError, match="lacks bwd"):
        load_checkpoint(path)


def test_load_rejects_label_count_mismatch(tmp_path):
    path = corrupt(tmp_path, lambda d: d.update(labels=["x", "y"]))
    with pytest.raises(FormatError, match="labels but class_count"):
        load_checkpoint(path)


def test_load_rejects_extra_param_field(tmp_path):
    path = corrupt(tmp_path, lambda d: d["params"]["fwd"].update(extra=[0.0]))
    with pytest.raises(FormatError, match="do not match"):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value", [
    ("hidden_dim", "2"),
    ("bidirectional", "no"),
    ("class_count", 2.0),
    ("embed_dim", True),
    ("mode", 1),
    ("bidirectional", 1),
])
def test_load_rejects_mistyped_config_value(tmp_path, field, value):
    path = corrupt(tmp_path, lambda d: d["config"].update({field: value}))
    with pytest.raises(FormatError, match=f"config field '{field}'"):
        load_checkpoint(path)


def test_predict_on_mistyped_config_is_a_data_error(tmp_path):
    path = corrupt(tmp_path, lambda d: d["config"].update(hidden_dim="2"))
    inputs = tmp_path / "in.txt"
    inputs.write_text("abba\n", encoding="utf-8")
    code, _, err = run_cli(["predict", "--model", str(path), "--input", str(inputs),
                            "--output", str(tmp_path / "out.tsv")])
    assert code == 2
    assert "hidden_dim" in err
