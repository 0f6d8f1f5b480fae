"""Tokenization, vocabularies, dataset loading, and padded batching.

File formats (all UTF-8, LF line endings):

* text dataset:   one sample per line, ``<text>\\t<label>``
* dense dataset:  one sample per line, ``<utt-id> <label> <f1> ... <f400>``
                  with exactly 400 space-separated decimals
* labels-order:   one label name per line, fixes report/matrix ordering
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, ShapeError

log = logging.getLogger(__name__)

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

DENSE_WIDTH = 400

TEXT_MODE = "text"
DENSE_MODE = "dense"

# Truncation defaults when no explicit max_seq_len is configured.
DEFAULT_MAX_LEN = {"char": 256, "word": 128}


class LabelSet:
    """Ordered label names; the order is the canonical reporting order."""

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate label names in {names}")
        if not names:
            raise ConfigError("label set is empty")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelSet) and self.names == other.names

    def __repr__(self) -> str:
        return f"LabelSet({list(self.names)!r})"

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown label {name!r}") from None

    def name_of(self, label_id: int) -> str:
        return self.names[label_id]


class Vocab:
    """Token/id mapping with reserved PAD=0 and UNK=1 entries."""

    def __init__(self, tokens):
        tokens = tuple(tokens)
        if len(tokens) < 2 or tokens[0] != PAD_TOKEN or tokens[1] != UNK_TOKEN:
            raise ConfigError("vocab must start with the PAD and UNK tokens")
        if len(set(tokens)) != len(tokens):
            raise ConfigError("vocab contains duplicate tokens")
        self.tokens = tokens
        self._index = {tok: i for i, tok in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.tokens == other.tokens

    def __repr__(self) -> str:
        return f"Vocab(size={len(self.tokens)})"

    def encode_token(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]


def tokenize_chars(text: str) -> list[str]:
    """One token per Unicode scalar value; whitespace kept as tokens."""
    return list(text)


def tokenize_words(text: str) -> list[str]:
    """Split on runs of Unicode whitespace; no other normalization."""
    return text.split()


def tokenize(text: str, mode: str) -> list[str]:
    if mode == "char":
        return tokenize_chars(text)
    if mode == "word":
        return tokenize_words(text)
    raise ConfigError(f"unknown tokenization mode {mode!r}")


def build_vocab(token_seqs, min_freq: int = 1) -> Vocab:
    """Vocabulary of tokens with corpus frequency >= min_freq.

    Tokens are ordered by descending frequency, ties broken lexicographically,
    after the reserved PAD/UNK slots.
    """
    if min_freq < 1:
        raise ConfigError(f"min_freq must be >= 1, got {min_freq}")
    counts = Counter()
    for seq in token_seqs:
        counts.update(seq)
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocab([PAD_TOKEN, UNK_TOKEN, *kept])


def encode(tokens, vocab: Vocab, max_seq_len: int) -> np.ndarray:
    """Token ids with UNK fallback, truncated to the first max_seq_len tokens."""
    if max_seq_len < 1:
        raise ConfigError(f"max_seq_len must be >= 1, got {max_seq_len}")
    ids = [vocab.encode_token(tok) for tok in tokens[:max_seq_len]]
    return np.asarray(ids, dtype=np.int64)


@dataclass(eq=False)
class Sample:
    """One labeled utterance: raw text or a fixed-width dense feature vector."""

    label: int
    text: str | None = None
    dense: np.ndarray | None = None
    uid: str | None = None


@dataclass
class Dataset:
    samples: list[Sample]
    labels: LabelSet
    mode: str  # TEXT_MODE or DENSE_MODE

    def __len__(self) -> int:
        return len(self.samples)


def read_lines(path) -> list[str]:
    """The file's UTF-8 text split on LF; a decode failure is a FormatError."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc})") from exc


def load_tsv(path, labels: LabelSet | None = None) -> Dataset:
    """Load a `<text>\\t<label>` dataset; blank lines are skipped.

    With `labels` given, every label must be a member; otherwise labels are
    collected and ordered lexicographically.
    """
    rows = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(
                f"{path}: expected exactly one tab (line {lineno})"
            )
        text, label = parts
        if text == "":
            log.warning("%s: dropping empty-text sample (line %d)", path, lineno)
            continue
        rows.append((lineno, text, label))

    if labels is None:
        labels = LabelSet(sorted({label for _, _, label in rows}))
    samples = []
    for lineno, text, label in rows:
        if label not in labels:
            raise FormatError(f"{path}: unknown label {label!r} (line {lineno})")
        samples.append(Sample(label=labels.id_of(label), text=text))
    return Dataset(samples, labels, TEXT_MODE)


def save_tsv(dataset: Dataset, path) -> None:
    if dataset.mode != TEXT_MODE:
        raise ShapeError("save_tsv: dataset is not in text mode")
    with open(path, "w", encoding="utf-8", newline="") as f:
        for s in dataset.samples:
            f.write(f"{s.text}\t{dataset.labels.name_of(s.label)}\n")


def parse_dense(values: list[str], path, lineno: int) -> np.ndarray:
    """The DENSE_WIDTH finite feature values of one dense-format line."""
    if len(values) != DENSE_WIDTH:
        raise FormatError(
            f"{path}: expected {DENSE_WIDTH} features, found {len(values)} (line {lineno})"
        )
    try:
        vec = np.asarray([float(v) for v in values], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{path}: unparsable feature value (line {lineno}): {exc}") from exc
    if not np.isfinite(vec).all():
        raise FormatError(f"{path}: numeric overflow in features (line {lineno})")
    return vec


def load_dense(path, labels: LabelSet | None = None) -> Dataset:
    """Load a dense dataset of `<utt-id> <label> <400 decimals>` lines."""
    rows = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if line == "":
            continue
        fields = line.split()
        vec = parse_dense(fields[2:], path, lineno)
        rows.append((lineno, fields[0], fields[1], vec))

    if labels is None:
        labels = LabelSet(sorted({label for _, _, label, _ in rows}))
    samples = []
    for lineno, uid, label, vec in rows:
        if label not in labels:
            raise FormatError(f"{path}: unknown label {label!r} (line {lineno})")
        samples.append(Sample(label=labels.id_of(label), dense=vec, uid=uid))
    return Dataset(samples, labels, DENSE_MODE)


def load_labels_order(path) -> LabelSet:
    names = [line for line in read_lines(path) if line != ""]
    if not names:
        raise FormatError(f"{path}: labels-order file is empty")
    return LabelSet(names)


def frame_dense(vec: np.ndarray, frame_size: int) -> np.ndarray:
    """Cut a length-400 vector into contiguous frames of width frame_size."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != DENSE_WIDTH:
        raise ShapeError(f"frame_dense: expected length-{DENSE_WIDTH} vector, got shape {vec.shape}")
    if frame_size < 1 or DENSE_WIDTH % frame_size != 0:
        raise ConfigError(f"frame_size {frame_size} does not divide {DENSE_WIDTH}")
    return vec.reshape(DENSE_WIDTH // frame_size, frame_size)


def default_max_seq_len(mode: str) -> int:
    return DEFAULT_MAX_LEN[mode]


def encode_dataset(
    dataset: Dataset,
    vocab: Vocab,
    mode: str,
    max_seq_len: int | None = None,
) -> list[tuple[np.ndarray, int]]:
    """Tokenize and encode every text sample to (ids, label) pairs.

    Samples that encode to an empty sequence are dropped with a warning.
    """
    if dataset.mode != TEXT_MODE:
        raise ShapeError("encode_dataset: dataset is not in text mode")
    if max_seq_len is None:
        max_seq_len = default_max_seq_len(mode)
    out = []
    for i, s in enumerate(dataset.samples):
        ids = encode(tokenize(s.text, mode), vocab, max_seq_len)
        if ids.size == 0:
            log.warning("dropping sample %d: empty after tokenization", i)
            continue
        out.append((ids, s.label))
    return out


def dense_pairs(dataset: Dataset) -> list[tuple[np.ndarray, int]]:
    if dataset.mode != DENSE_MODE:
        raise ShapeError("dense_pairs: dataset is not in dense mode")
    return [(s.dense, s.label) for s in dataset.samples]


@dataclass
class Batch:
    """Padded batch: token ids + mask for text features, or a dense block."""

    labels: np.ndarray                 # (B,) int64
    ids: np.ndarray | None = None      # (B, T) int64, PAD-filled
    mask: np.ndarray | None = None     # (B, T) bool, True at real positions
    dense: np.ndarray | None = None    # (B, 400) float64

    def __len__(self) -> int:
        return self.labels.shape[0]

    def row_features(self, i: int) -> np.ndarray:
        """Unpadded feature array for sample `i` of the batch."""
        if self.dense is not None:
            return self.dense[i]
        return self.ids[i, : int(self.mask[i].sum())]


def make_batches(
    pairs: list[tuple[np.ndarray, int]],
    batch_size: int,
    shuffle: bool = False,
    rng: np.random.Generator | None = None,
) -> list[Batch]:
    """Group (features, label) pairs into padded batches.

    Shuffling draws one permutation from `rng`; with shuffle off the input
    order is preserved.  The final batch may be short.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(pairs))
    if shuffle:
        if rng is None:
            raise ConfigError("make_batches: shuffle requires rng")
        order = rng.permutation(len(pairs))

    batches = []
    for start in range(0, len(pairs), batch_size):
        chunk = [pairs[i] for i in order[start : start + batch_size]]
        labels = np.asarray([y for _, y in chunk], dtype=np.int64)
        feats = [f for f, _ in chunk]
        if feats and feats[0].dtype.kind == "f":
            batches.append(Batch(labels=labels, dense=np.stack(feats)))
        else:
            width = max(f.shape[0] for f in feats)
            ids = np.full((len(chunk), width), PAD_ID, dtype=np.int64)
            mask = np.zeros((len(chunk), width), dtype=bool)
            for i, f in enumerate(feats):
                ids[i, : f.shape[0]] = f
                mask[i, : f.shape[0]] = True
            batches.append(Batch(labels=labels, ids=ids, mask=mask))
    return batches
