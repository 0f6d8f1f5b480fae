"""Checkpoint save/load: one JSON document holding config, labels, vocab,
and every parameter block.

Format, frozen at version 1:

    {
      "format_version": 1,
      "config":  {mode, cell, bidirectional, embed_dim, hidden_dim,
                  readout_mode, frame_size, class_count},
      "labels":  ["egy", ...],
      "vocab":   ["<pad>", "<unk>", ...] or null (dense mode),
      "params": {
        "embedding": [[...]] or null,
        "fwd":  {"w_xi": [[...]], ...},
        "bwd":  {...} or null,
        "readout": {"w_out": [[...]], "b_out": [...]}
      }
    }

Numbers are written as shortest round-trip decimals (at most 17 significant
digits), so load(save(model)) reproduces every parameter bit for bit.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np

from .data import LabelSet, Vocab
from .errors import FormatError
from .model import (
    EmbeddingTable,
    LstmParams,
    Model,
    ModelConfig,
    ReadoutParams,
    RnnParams,
)

FORMAT_VERSION = 1


def _params_to_lists(params) -> dict:
    return {
        f.name: getattr(params, f.name).tolist() for f in dataclasses.fields(params)
    }


def save_checkpoint(model: Model, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "config": dataclasses.asdict(model.config),
        "labels": list(model.labels.names),
        "vocab": list(model.vocab.tokens) if model.vocab is not None else None,
        "params": {
            "embedding": (
                model.embedding.table.tolist() if model.embedding is not None else None
            ),
            "fwd": _params_to_lists(model.fwd),
            "bwd": _params_to_lists(model.bwd) if model.bwd is not None else None,
            "readout": _params_to_lists(model.readout),
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def _array(raw, name: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint field {name}: not a numeric array ({exc})") from exc
    if arr.shape != shape:
        raise FormatError(f"checkpoint field {name}: shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise FormatError(f"checkpoint field {name}: non-finite entries")
    return arr


def _load_params(cls, raw, prefix: str, shapes: dict[str, tuple[int, ...]]):
    if not isinstance(raw, dict):
        raise FormatError(f"checkpoint field {prefix}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)}
    if set(raw) != names:
        raise FormatError(
            f"checkpoint field {prefix}: fields {sorted(raw)} do not match {sorted(names)}"
        )
    return cls(**{
        name: _array(raw[name], f"{prefix}.{name}", shapes[name]) for name in names
    })


def _cell_shapes(cell: str, hid: int, inp: int) -> dict[str, tuple[int, ...]]:
    if cell == "lstm":
        shapes = {}
        for gate in "ifco":
            shapes[f"w_x{gate}"] = (hid, inp)
            shapes[f"w_h{gate}"] = (hid, hid)
        shapes.update({f"p_{g}": (hid,) for g in "ifo"})
        shapes.update({f"b_{g}": (hid,) for g in "ifco"})
        return shapes
    return {"w_xh": (hid, inp), "w_hh": (hid, hid), "b_h": (hid,)}


def load_checkpoint(path) -> Model:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid checkpoint JSON at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos})"
        ) from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: checkpoint root must be an object")

    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported format_version {version!r}, expected {FORMAT_VERSION}"
        )
    for key in ("config", "labels", "params"):
        if key not in doc:
            raise FormatError(f"{path}: missing checkpoint field {key!r}")

    raw_config = doc["config"]
    config_fields = dataclasses.fields(ModelConfig)
    field_names = {f.name for f in config_fields}
    if not isinstance(raw_config, dict) or set(raw_config) != field_names:
        raise FormatError(f"{path}: config fields do not match {sorted(field_names)}")
    for f in config_fields:
        # exact type match: a JSON true is no int, and 2.0 is no int either
        expected = type(f.default)
        if type(raw_config[f.name]) is not expected:
            raise FormatError(
                f"{path}: config field {f.name!r} must be a {expected.__name__}, "
                f"got {raw_config[f.name]!r}"
            )
    config = ModelConfig(**raw_config)
    try:
        config.validate()
    except ValueError as exc:
        raise FormatError(f"{path}: invalid config ({exc})") from exc

    try:
        labels = LabelSet(doc["labels"])
    except ValueError as exc:
        raise FormatError(f"{path}: invalid labels ({exc})") from exc
    if len(labels) != config.class_count:
        raise FormatError(
            f"{path}: {len(labels)} labels but class_count={config.class_count}"
        )

    vocab = None
    if config.mode != "dense":
        if not doc.get("vocab"):
            raise FormatError(f"{path}: mode {config.mode!r} requires a vocab")
        try:
            vocab = Vocab(doc["vocab"])
        except ValueError as exc:
            raise FormatError(f"{path}: invalid vocab ({exc})") from exc

    params = doc["params"]
    if not isinstance(params, dict):
        raise FormatError(f"{path}: params must be an object")
    hid, inp = config.hidden_dim, config.input_dim
    cell_cls = LstmParams if config.cell == "lstm" else RnnParams
    shapes = _cell_shapes(config.cell, hid, inp)

    fwd = _load_params(cell_cls, params.get("fwd"), "fwd", shapes)
    bwd = None
    if config.bidirectional:
        if params.get("bwd") is None:
            raise FormatError(f"{path}: bidirectional model lacks bwd params")
        bwd = _load_params(cell_cls, params["bwd"], "bwd", shapes)

    embedding = None
    if config.mode != "dense":
        table = _array(
            params.get("embedding"), "embedding", (len(vocab), config.embed_dim)
        )
        if np.any(table[0] != 0.0):
            raise FormatError(f"{path}: PAD embedding row must be zero")
        embedding = EmbeddingTable(table=table)

    ro = _load_params(
        ReadoutParams, params.get("readout"), "readout",
        {"w_out": (config.class_count, config.readout_width),
         "b_out": (config.class_count,)},
    )
    return Model(
        config=config, labels=labels, readout=ro,
        fwd=fwd, bwd=bwd, embedding=embedding, vocab=vocab,
    )
