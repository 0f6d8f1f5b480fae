"""Command-line entry point: train, eval, predict, metrics, gradcheck, synth.

Logs go to standard error; results go to standard output or named files.
Exit codes: 0 success, 1 usage/config error, 2 data format error, 3 numeric
failure.  Every command is deterministic given its flags, config, and seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    DENSE_WIDTH,
    LabelSet,
    build_vocab,
    default_max_seq_len,
    dense_pairs,
    encode,
    encode_dataset,
    load_dense,
    load_labels_order,
    load_tsv,
    parse_dense,
    read_lines,
    save_tsv,
    tokenize,
)
from .errors import ConfigError, FormatError, ShapeError
from .metrics import (
    compute_report,
    confusion_from_pairs,
    load_cm,
    permuted,
    render_heatmap,
    render_text,
    summary_line,
)
from .model import ModelConfig, forward_classify, init_model
from .synth import SynthSpec, gen_synthetic, split_dataset
from .training import TrainConfig, evaluate_split, grad_check, make_gradcheck_case, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

GRADCHECK_TOLERANCE = 1e-5

_GRADCHECK_CELLS = ("lstm", "rnn")
_GRADCHECK_DIRECTIONS = ("uni", "bi")
_GRADCHECK_FEATURES = ("char", "word", "dense")
_GRADCHECK_READOUTS = ("last", "mean")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; the exit-code contract
    reserves 2 for data problems, so usage errors must exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _coerce_value(name: str, default, value, where: str):
    """Coerce a config value (JSON-typed or --set string) to the type of
    the dataclass default for that field."""
    if isinstance(value, str) and not isinstance(default, str):
        text = value.strip()
        lowered = text.lower()
        try:
            if isinstance(default, bool):
                if lowered in ("true", "1", "yes"):
                    return True
                if lowered in ("false", "0", "no"):
                    return False
                raise ValueError(f"not a boolean: {text!r}")
            if default is None or lowered in ("none", "null"):
                return None if lowered in ("none", "null") else int(text)
            if isinstance(default, int):
                return int(text)
            if isinstance(default, float):
                return float(text)
        except ValueError as exc:
            raise ConfigError(f"{where}.{name}: {exc}") from exc
        return text
    if isinstance(default, bool) and not isinstance(value, bool):
        raise ConfigError(f"{where}.{name}: expected a boolean, got {value!r}")
    if isinstance(default, float) and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def _apply_section(instance, section: dict, where: str):
    names = {f.name for f in dataclasses.fields(instance)}
    unknown = sorted(set(section) - names)
    if unknown:
        raise ConfigError(f"unknown keys in {where} section: {unknown}")
    for key, value in section.items():
        setattr(instance, key, _coerce_value(key, getattr(instance, key), value, where))
    return instance


def load_run_config(path=None, overrides=()) -> tuple[ModelConfig, TrainConfig, int]:
    """Resolve a run configuration from an optional JSON file plus
    `section.key=value` overrides.

    The file holds `model` and `train` sections mirroring the config
    dataclasses; `train.min_freq` additionally sets the vocabulary
    frequency cutoff.  Unknown sections or keys are rejected.
    """
    model_section: dict = {}
    train_section: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid config JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config root must be an object")
        unknown = sorted(set(raw) - {"model", "train"})
        if unknown:
            raise ConfigError(f"{path}: unknown config sections: {unknown}")
        model_section.update(raw.get("model", {}))
        train_section.update(raw.get("train", {}))

    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, dot, field_name = key.partition(".")
        if not dot or section not in ("model", "train") or not field_name:
            raise ConfigError(
                f"override key {key!r} must be model.<field> or train.<field>"
            )
        (model_section if section == "model" else train_section)[field_name] = value

    min_freq = train_section.pop("min_freq", 1)
    if isinstance(min_freq, str):
        try:
            min_freq = int(min_freq)
        except ValueError as exc:
            raise ConfigError(f"train.min_freq: {exc}") from exc
    if not isinstance(min_freq, int) or min_freq < 1:
        raise ConfigError(f"train.min_freq must be an integer >= 1, got {min_freq!r}")

    model_cfg = _apply_section(ModelConfig(), model_section, "model")
    train_cfg = _apply_section(TrainConfig(), train_section, "train")
    model_cfg.validate()
    train_cfg.validate()
    return model_cfg, train_cfg, min_freq


def _echo_config(model_cfg: ModelConfig, train_cfg: TrainConfig, min_freq: int) -> None:
    resolved = {
        "model": dataclasses.asdict(model_cfg),
        "train": {**dataclasses.asdict(train_cfg), "min_freq": min_freq},
    }
    print(f"config={json.dumps(resolved, sort_keys=True)}", file=sys.stderr)


def _read_dataset(path, mode: str, labels: LabelSet | None = None):
    """The labeled dataset at `path`, in the file format of model `mode`."""
    return load_dense(path, labels) if mode == "dense" else load_tsv(path, labels)


def _dataset_pairs(dataset, vocab, mode: str, max_seq_len: int | None = None):
    """(features, label) pairs of `dataset` as a model of `mode` reads them."""
    if mode == "dense":
        return dense_pairs(dataset)
    return encode_dataset(dataset, vocab, mode, max_seq_len)


def cmd_train(args) -> int:
    model_cfg, train_cfg, min_freq = load_run_config(args.config, args.set)
    _echo_config(model_cfg, train_cfg, min_freq)
    if args.threads != 1:
        print("note: --threads has no effect; training runs serially", file=sys.stderr)

    mode, max_len = model_cfg.mode, train_cfg.max_seq_len
    train_ds = _read_dataset(args.train, mode)
    labels = train_ds.labels
    vocab = None
    if mode != "dense":
        vocab = build_vocab((tokenize(s.text, mode) for s in train_ds.samples), min_freq)
    train_pairs = _dataset_pairs(train_ds, vocab, mode, max_len)
    dev_pairs = (
        _dataset_pairs(_read_dataset(args.dev, mode, labels), vocab, mode, max_len)
        if args.dev
        else None
    )
    if not train_pairs:
        raise FormatError(f"{args.train}: no usable training samples")

    model = init_model(model_cfg, labels, vocab=vocab, seed=train_cfg.seed)
    model, report = train(model, train_pairs, dev_pairs, train_cfg, log_stream=sys.stderr)
    save_checkpoint(model, args.out)
    best_dev = report.dev_accs[report.best_epoch - 1]
    print(f"best_epoch={report.best_epoch} dev_acc={best_dev!r}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    mode = model.config.mode
    pairs = _dataset_pairs(
        _read_dataset(args.test, mode, model.labels), model.vocab, mode
    )
    if not pairs:
        raise FormatError(f"{args.test}: no usable samples")
    _, gold_pred = evaluate_split(model, pairs)
    cm = confusion_from_pairs(gold_pred, model.labels)
    if args.labels_order:
        cm = permuted(cm, load_labels_order(args.labels_order))
    report = compute_report(cm)
    with open(args.report, "w", encoding="utf-8", newline="") as f:
        f.write(render_text(cm, report))
    if args.heatmap:
        render_heatmap(cm, args.heatmap)
    print(summary_line(report))
    return EXIT_OK


def _looks_dense(line: str) -> bool:
    fields = line.split()
    if len(fields) != 1 + DENSE_WIDTH:
        return False
    try:
        for v in fields[1:]:
            float(v)
    except ValueError:
        return False
    return True


def cmd_predict(args) -> int:
    model = load_checkpoint(args.model)
    mode = model.config.mode
    lines = read_lines(args.input)
    out_rows: list[str] = []

    if mode == "dense":
        for lineno, line in enumerate(lines, start=1):
            if line == "":
                continue
            fields = line.split()
            probs = forward_classify(model, parse_dense(fields[1:], args.input, lineno))
            pred = int(np.argmax(probs))
            out_rows.append(f"{fields[0]}\t{model.labels.name_of(pred)}\t{probs[pred]:.6f}")
    else:
        nonblank = [line for line in lines if line != ""]
        if nonblank and all(_looks_dense(line) for line in nonblank):
            raise FormatError(
                f"{args.input}: every line parses as `<id> <{DENSE_WIDTH} values>` "
                f"dense features, but the model expects raw {mode}-mode text"
            )
        for lineno, line in enumerate(lines, start=1):
            if line == "":
                continue
            ids = encode(tokenize(line, mode), model.vocab, default_max_seq_len(mode))
            if ids.size == 0:
                print(f"skipping line {lineno}: no tokens", file=sys.stderr)
                continue
            probs = forward_classify(model, ids)
            pred = int(np.argmax(probs))
            out_rows.append(f"{lineno}\t{model.labels.name_of(pred)}\t{probs[pred]:.6f}")

    with open(args.output, "w", encoding="utf-8", newline="") as f:
        for row in out_rows:
            f.write(row + "\n")
    return EXIT_OK


def _pairs_cm(path, order: LabelSet | None):
    """Confusion matrix from a `<gold>\\t<pred>` label-name pairs file."""
    rows = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}: expected exactly one tab (line {lineno})")
        rows.append((lineno, parts[0], parts[1]))
    if not rows:
        raise FormatError(f"{path}: no gold/predicted pairs")
    labels = order or LabelSet(sorted({name for _, g, p in rows for name in (g, p)}))
    pairs = []
    for lineno, gold, pred in rows:
        if gold not in labels or pred not in labels:
            raise FormatError(
                f"{path}: label not in the label order (line {lineno}): "
                f"{(gold if gold not in labels else pred)!r}"
            )
        pairs.append((labels.id_of(gold), labels.id_of(pred)))
    return confusion_from_pairs(pairs, labels)


def cmd_metrics(args) -> int:
    order = load_labels_order(args.labels_order) if args.labels_order else None
    if args.cm:
        cm = load_cm(args.cm)
        if order is not None:
            cm = permuted(cm, order)
    else:
        cm = _pairs_cm(args.pairs, order)
    print(summary_line(compute_report(cm)))
    return EXIT_OK


def _gradcheck_combos(mode: str):
    if mode == "all":
        return [
            (cell, direction, features, readout)
            for cell in _GRADCHECK_CELLS
            for direction in _GRADCHECK_DIRECTIONS
            for features in _GRADCHECK_FEATURES
            for readout in _GRADCHECK_READOUTS
        ]
    parts = mode.split("-")
    if (
        len(parts) != 4
        or parts[0] not in _GRADCHECK_CELLS
        or parts[1] not in _GRADCHECK_DIRECTIONS
        or parts[2] not in _GRADCHECK_FEATURES
        or parts[3] not in _GRADCHECK_READOUTS
    ):
        raise ConfigError(
            f"--mode must be 'all' or <cell>-<direction>-<features>-<readout> "
            f"with cell in {_GRADCHECK_CELLS}, direction in {_GRADCHECK_DIRECTIONS}, "
            f"features in {_GRADCHECK_FEATURES}, readout in {_GRADCHECK_READOUTS}; "
            f"got {mode!r}"
        )
    return [tuple(parts)]


def cmd_gradcheck(args) -> int:
    worst = 0.0
    for cell, direction, features, readout in _gradcheck_combos(args.mode):
        model, batch = make_gradcheck_case(
            features, cell, direction == "bi", readout, seed=args.seed
        )
        err = grad_check(model, batch, args.epsilon)
        worst = max(worst, err)
        print(
            f"gradcheck cell={cell} direction={direction} features={features} "
            f"readout={readout} max_rel_err={err:.3e}"
        )
    if worst >= GRADCHECK_TOLERANCE:
        print(
            f"error: max relative error {worst:.3e} >= {GRADCHECK_TOLERANCE:.0e}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        classes=args.classes,
        alphabet=args.alphabet,
        samples_per_class=args.samples,
        seed=args.seed,
    )
    dataset = gen_synthetic(spec)
    parts = split_dataset(dataset, (0.8, 0.1, 0.1))
    for part, split in zip(parts, ("train", "dev", "test")):
        path = f"{args.out_prefix}.{split}.tsv"
        save_tsv(part, path)
        print(f"wrote {path} ({len(part)} samples)", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dialectid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", help="JSON config with model/train sections")
    p.add_argument("--train", required=True, help="training data file")
    p.add_argument("--dev", help="development data for model selection")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument(
        "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config value, e.g. model.hidden_dim=32",
    )
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; training always runs serially",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled data")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--test", required=True, help="labeled test data file")
    p.add_argument("--labels-order", help="file fixing report label order")
    p.add_argument("--report", required=True, help="metric report output path")
    p.add_argument("--heatmap", help="optional confusion heatmap (PGM) path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="label unlabeled inputs")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--input", required=True, help="unlabeled input file")
    p.add_argument("--output", required=True, help="prediction output path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("metrics", help="score a confusion matrix or pairs file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cm", help="confusion-matrix TSV")
    group.add_argument("--pairs", help="gold/predicted label pairs TSV")
    p.add_argument("--labels-order", help="file fixing label order")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mode", default="all",
        help="'all' or <cell>-<direction>-<features>-<readout>, e.g. lstm-bi-char-last",
    )
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic dialect corpus")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--alphabet", type=int, default=8)
    p.add_argument("--samples", type=int, default=100, help="samples per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, ShapeError, UnicodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
