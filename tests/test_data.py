import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dialectid.data import (
    DENSE_WIDTH,
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Dataset,
    LabelSet,
    Sample,
    Vocab,
    build_vocab,
    default_max_seq_len,
    encode,
    encode_dataset,
    frame_dense,
    load_dense,
    load_labels_order,
    load_tsv,
    make_batches,
    save_tsv,
    tokenize,
    tokenize_chars,
    tokenize_words,
)
from dialectid.errors import ConfigError, FormatError, ShapeError
from dialectid.numerics import STREAM_SHUFFLE, make_stream


def small_vocab():
    return Vocab((PAD_TOKEN, UNK_TOKEN, "a", "b", "c"))


def test_tokenize_chars_keeps_whitespace():
    assert tokenize_chars("ab c") == ["a", "b", " ", "c"]


def test_tokenize_words_splits_on_any_whitespace():
    assert tokenize_words("a  b\tc\nd ") == ["a", "b", "c", "d"]


def test_tokenize_dispatch():
    assert tokenize("ab", "char") == ["a", "b"]
    assert tokenize("a b", "word") == ["a", "b"]
    with pytest.raises(ConfigError):
        tokenize("ab", "dense")


def test_label_set_rules():
    ls = LabelSet(["eg", "lb", "msa"])
    assert ls.id_of("lb") == 1
    assert ls.name_of(2) == "msa"
    assert "eg" in ls and "xx" not in ls
    with pytest.raises(ConfigError):
        LabelSet(["a", "a"])
    with pytest.raises(ConfigError):
        LabelSet([])
    with pytest.raises(KeyError):
        ls.id_of("xx")


def test_vocab_reserved_slots():
    v = small_vocab()
    assert v.encode_token(PAD_TOKEN) == PAD_ID == 0
    assert v.encode_token(UNK_TOKEN) == UNK_ID == 1
    assert v.encode_token("zzz") == UNK_ID
    with pytest.raises(ConfigError):
        Vocab(("a", "b"))
    with pytest.raises(ConfigError):
        Vocab((PAD_TOKEN, UNK_TOKEN, "a", "a"))


def test_build_vocab_orders_by_frequency_then_token():
    v = build_vocab([list("aab"), list("abc"), list("cb")])
    # counts: a=3, b=3, c=2 -> ties broken alphabetically
    assert v.tokens == (PAD_TOKEN, UNK_TOKEN, "a", "b", "c")


def test_build_vocab_min_freq_filters():
    v = build_vocab([list("aab"), list("ab")], min_freq=3)
    assert v.tokens == (PAD_TOKEN, UNK_TOKEN, "a")


def test_encode_maps_unknowns_and_truncates():
    v = small_vocab()
    ids = encode(["a", "z", "c"], v, max_seq_len=16)
    np.testing.assert_array_equal(ids, [2, UNK_ID, 4])
    assert ids.dtype == np.int64
    assert encode(list("abcabc"), v, max_seq_len=4).shape == (4,)


def test_encode_decode_identity_for_known_tokens():
    v = small_vocab()
    toks = ["a", "b", "c", "a"]
    assert v.decode(encode(toks, v, 16)) == toks


def test_default_max_seq_len():
    assert default_max_seq_len("char") == 256
    assert default_max_seq_len("word") == 128


def test_tsv_round_trip_bytes(tmp_path):
    labels = LabelSet(["hr", "sr"])
    ds = Dataset(
        [Sample(label=0, text="dobar dan"), Sample(label=1, text="zdravo svete")],
        labels,
        "text",
    )
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_tsv(ds, p1)
    back = load_tsv(p1)
    assert back.labels == labels
    assert [(s.label, s.text) for s in back.samples] == [(0, "dobar dan"), (1, "zdravo svete")]
    save_tsv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_tsv_reports_bad_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("ok\thr\nno tab here\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"line 2"):
        load_tsv(p)


def test_load_tsv_unknown_label_with_fixed_labels(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("x\thr\ny\tzz\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"unknown label 'zz' \(line 2\)"):
        load_tsv(p, labels=LabelSet(["hr", "sr"]))


def test_load_tsv_skips_blank_and_empty_text(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("x\thr\n\n\tsr\ny\tsr\n", encoding="utf-8")
    ds = load_tsv(p)
    assert [s.text for s in ds.samples] == ["x", "y"]


def test_load_tsv_rejects_non_utf8(tmp_path):
    p = tmp_path / "bin.tsv"
    p.write_bytes(b"\xff\xfe\x00\x00bad")
    with pytest.raises(FormatError, match="not valid UTF-8"):
        load_tsv(p)


def dense_line(uid, label, values):
    return " ".join([uid, label] + [repr(float(v)) for v in values])


def test_load_dense_round_values(tmp_path):
    p = tmp_path / "iv.txt"
    vec = np.linspace(-1, 1, DENSE_WIDTH)
    p.write_text(dense_line("utt1", "eg", vec) + "\n", encoding="utf-8")
    ds = load_dense(p)
    assert ds.samples[0].uid == "utt1"
    np.testing.assert_array_equal(ds.samples[0].dense, vec)


def test_load_dense_wrong_width(tmp_path):
    p = tmp_path / "iv.txt"
    p.write_text(dense_line("u", "eg", np.zeros(DENSE_WIDTH - 1)) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"expected 400 features, found 399 \(line 1\)"):
        load_dense(p)


def test_load_dense_overflow_literal(tmp_path):
    vals = ["0.0"] * DENSE_WIDTH
    vals[5] = "1e999"
    p = tmp_path / "iv.txt"
    p.write_text("u eg " + " ".join(vals) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"overflow.*\(line 1\)"):
        load_dense(p)


def test_load_dense_unparsable_feature(tmp_path):
    vals = ["0.0"] * DENSE_WIDTH
    vals[0] = "abc"
    p = tmp_path / "iv.txt"
    p.write_text("u eg " + " ".join(vals) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"unparsable feature value \(line 1\)"):
        load_dense(p)


def test_load_labels_order(tmp_path):
    p = tmp_path / "order.txt"
    p.write_text("msa\neg\nlb\n", encoding="utf-8")
    assert load_labels_order(p).names == ("msa", "eg", "lb")
    empty = tmp_path / "empty.txt"
    empty.write_text("\n", encoding="utf-8")
    with pytest.raises(FormatError, match="empty"):
        load_labels_order(empty)


def test_frame_dense_shapes_and_order():
    vec = np.arange(DENSE_WIDTH, dtype=np.float64)
    frames = frame_dense(vec, 20)
    assert frames.shape == (20, 20)
    np.testing.assert_array_equal(frames[0], np.arange(20))
    np.testing.assert_array_equal(frames[1], np.arange(20, 40))
    assert frame_dense(vec, 400).shape == (1, 400)
    with pytest.raises(ConfigError):
        frame_dense(vec, 7)
    with pytest.raises(ShapeError):
        frame_dense(np.zeros(399), 20)


def test_encode_dataset_drops_empty_sequences(tmp_path):
    labels = LabelSet(["x", "y"])
    ds = Dataset([Sample(0, text="ab"), Sample(1, text="cd")], labels, "text")
    v = small_vocab()
    pairs = encode_dataset(ds, v, "char")
    assert len(pairs) == 2
    np.testing.assert_array_equal(pairs[0][0], [2, 3])
    # word-mode text with no vocab hits still yields UNK ids, not drops
    pairs_w = encode_dataset(ds, v, "word")
    np.testing.assert_array_equal(pairs_w[0][0], [UNK_ID])


def test_make_batches_padding_and_mask():
    pairs = [
        (np.array([2, 3, 4], dtype=np.int64), 0),
        (np.array([3], dtype=np.int64), 1),
        (np.array([4, 2], dtype=np.int64), 0),
    ]
    batches = make_batches(pairs, batch_size=2)
    assert [len(b) for b in batches] == [2, 1]
    b0 = batches[0]
    np.testing.assert_array_equal(b0.ids, [[2, 3, 4], [3, PAD_ID, PAD_ID]])
    np.testing.assert_array_equal(b0.mask, [[True, True, True], [True, False, False]])
    np.testing.assert_array_equal(b0.labels, [0, 1])
    np.testing.assert_array_equal(b0.row_features(1), [3])


def test_make_batches_dense_block():
    pairs = [(np.full(DENSE_WIDTH, float(i)), i % 2) for i in range(3)]
    (b0, b1) = make_batches(pairs, batch_size=2)
    assert b0.dense.shape == (2, DENSE_WIDTH)
    assert b0.ids is None and b0.mask is None
    np.testing.assert_array_equal(b1.row_features(0), np.full(DENSE_WIDTH, 2.0))


def test_make_batches_shuffle_contract():
    pairs = [(np.array([i + 2], dtype=np.int64), 0) for i in range(10)]
    with pytest.raises(ConfigError):
        make_batches(pairs, batch_size=0)
    with pytest.raises(ConfigError):
        make_batches(pairs, batch_size=2, shuffle=True)
    a = make_batches(pairs, batch_size=2, shuffle=True, rng=make_stream(3, STREAM_SHUFFLE))
    b = make_batches(pairs, batch_size=2, shuffle=True, rng=make_stream(3, STREAM_SHUFFLE))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.ids, y.ids)


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=25,
    ),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=99),
)
def test_make_batches_preserves_samples(raw, batch_size, seed):
    pairs = [(np.asarray(ids, dtype=np.int64), y) for ids, y in raw]
    batches = make_batches(
        pairs, batch_size=batch_size, shuffle=True, rng=make_stream(seed, STREAM_SHUFFLE)
    )
    seen = []
    for b in batches:
        assert b.ids.shape == b.mask.shape
        for i in range(len(b)):
            row = b.row_features(i)
            assert (row != PAD_ID).all()
            # padded tail must be PAD everywhere the mask is off
            assert (b.ids[i][~b.mask[i]] == PAD_ID).all()
            seen.append((tuple(row.tolist()), int(b.labels[i])))
    expected = [(tuple(ids), y) for ids, y in raw]
    assert sorted(seen) == sorted(expected)
