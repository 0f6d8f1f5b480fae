"""In-memory spans around dialectid's public functions, recorded from outside
the package.

A traced run replaces each function at the module attribute its callers look
it up by (``train`` calls ``dialectid.training.loss_and_gradients``, so that
attribute is the one patched) with a wrapper that records a span: name,
start, end and parent.  Nothing under ``src/`` is edited.  Spans stay in a
list until the run ends.
"""
from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; the parent of a span is the span open
    when it started."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def _wrap(self, fn, name: str, note):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                # outside the span, so the bookkeeping is not timed
                self.spans[idx].attrs = note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets) -> int:
        """Patch every (module, attribute, span name, note) target; `note`
        maps the call's arguments and result to span attributes.  Returns
        how many were patched, for a matching `uninstall`."""
        for module, attr, name, note in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))
        return len(targets)

    def uninstall(self, count: int | None = None) -> None:
        """Undo the last `count` patches (all of them by default)."""
        count = len(self._patched) if count is None else count
        for _ in range(count):
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def suspended(self):
        """Run the benchmark's own reference computations unpatched."""
        saved = [(m, a, getattr(m, a)) for m, a, _ in self._patched]
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        try:
            yield
        finally:
            for module, attr, wrapper in saved:
                setattr(module, attr, wrapper)

    def top_level(self) -> list[int]:
        """Index of each span's outermost ancestor (itself when top level)."""
        top = []
        for i, s in enumerate(self.spans):
            top.append(i if s.parent < 0 else top[s.parent])
        return top

    def write_jsonl(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent if s.parent >= 0 else None}
                if s.attrs:
                    rec["attrs"] = s.attrs
                f.write(json.dumps(rec) + "\n")


def _batch_tokens(args, result):
    return {"tokens": int(args[1].mask.sum())}


def _feature_tokens(args, result):
    return {"tokens": len(args[1])}


def _pad_counts(args, result):
    positions = pads = 0
    for batch in result:
        if batch.mask is not None:
            positions += batch.mask.size
            pads += batch.mask.size - int(batch.mask.sum())
    return {"positions": positions, "pads": pads}


def _saved_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _clip_threshold(args, result):
    return {"threshold": args[1]}


def _norm_value(args, result):
    return {"norm": result}


ENCODE_NAMES = ("tokenize", "encode", "encode_dataset", "build_vocab")
REPORT_NAMES = ("confusion_from_pairs", "compute_report", "render_text", "summary_line")


def batching_targets(dl):
    """The one hook kept in untraced runs: a span per epoch around
    make_batches, so every result can state its padding fraction."""
    return [(dl.training, "make_batches", "data.make_batches", _pad_counts)]


def layer_targets(dl):
    """Every layer boundary the traced run records, as (module, attribute,
    span name, note).  A function imported into several modules is patched
    in each module whose code calls it."""
    t = [
        (dl.cli, "train", "training.train", None),
        (dl.training, "loss_and_gradients", "training.fwdbwd", _batch_tokens),
        (dl.training, "evaluate_split", "training.evaluate_split", None),
        (dl.cli, "evaluate_split", "training.evaluate_split", None),
        (dl.training, "adam_step", "training.optimizer", None),
        (dl.training, "sgd_step", "training.optimizer", None),
        (dl.training, "clip_global_norm", "training.clip", _clip_threshold),
        (dl.training, "gradient_norm", "training.gradient_norm", _norm_value),
        (dl.cli, "load_tsv", "data.load_tsv", None),
        (dl.synth, "gen_synthetic", "synth.gen", None),
    ]
    for module in (dl.training, dl.cli, dl.model):
        t.append((module, "forward_classify", "model.forward", _feature_tokens))
    for module in (dl.cli, dl.checkpoint):
        t.append((module, "save_checkpoint", "checkpoint.save", _saved_bytes))
        t.append((module, "load_checkpoint", "checkpoint.load", None))
    for module in (dl.cli, dl.data):
        for attr in ENCODE_NAMES:
            if hasattr(module, attr):
                t.append((module, attr, "data.encode", None))
    for attr in REPORT_NAMES:
        t.append((dl.cli, attr, "metrics.report", None))
    return t


def pad_fraction(tracer: Tracer, under: str = "cycle") -> float:
    """Padded share of batch positions over make_batches calls inside
    `under` spans (base: batch positions)."""
    top = tracer.top_level()
    pads = positions = 0
    for i, s in enumerate(tracer.spans):
        if s.name == "data.make_batches" and tracer.spans[top[i]].name == under:
            pads += s.attrs["pads"]
            positions += s.attrs["positions"]
    return pads / positions if positions else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans of traced cycles, per cycle unless
    the name says otherwise; a layer that did not run reads 0."""
    spans = tracer.spans
    top = tracer.top_level()
    # a cycle's wall without the benchmark's own reference computations
    wall = {i: s.seconds for i, s in enumerate(spans) if s.name == "cycle"}
    for s in spans:
        if s.name == "reference" and s.parent in wall:
            wall[s.parent] -= s.seconds
    traced = [w for i, w in wall.items() if spans[i].attrs["traced"]]
    untraced = [w for i, w in wall.items() if not spans[i].attrs["traced"]]
    n = len(traced)
    inside = [
        (i, s) for i, s in enumerate(spans)
        if s.name != "cycle" and spans[top[i]].name == "cycle"
        and spans[top[i]].attrs["traced"]
    ]

    def total(name, keep=lambda s: True):
        return sum(s.seconds for _, s in inside if s.name == name and keep(s))

    def count(name):
        return sum(1 for _, s in inside if s.name == name)

    def per_token_us(name):
        tokens = sum(s.attrs["tokens"] for _, s in inside if s.name == name)
        return 1e6 * total(name) / tokens if tokens else 0.0

    clips = {i for i, s in inside if s.name == "training.clip"}
    fired = sum(
        1 for i, s in inside
        if s.name == "training.gradient_norm" and s.parent in clips
        and s.attrs["norm"] > spans[s.parent].attrs["threshold"]
    )
    saved_bytes = [s.attrs["bytes"] for _, s in inside if s.name == "checkpoint.save"]
    synth = [s.seconds for i, s in enumerate(spans)
             if s.name == "synth.gen" and spans[top[i]].name == "setup"]
    cli_spans = [i for i, s in inside if s.name.startswith("cli.")]
    children = {}
    for i, s in inside:
        children[s.parent] = children.get(s.parent, 0.0) + s.seconds

    return {
        "training.train_s": total("training.train") / n,
        "training.fwdbwd_s": total("training.fwdbwd") / n,
        "training.fwdbwd_calls": count("training.fwdbwd") / n,
        "training.fwdbwd_us_per_token": per_token_us("training.fwdbwd"),
        "training.reeval_s": total(
            "training.evaluate_split",
            lambda s: spans[s.parent].name == "training.train",
        ) / n,
        "training.optimizer_s": total("training.optimizer") / n,
        "training.clip_s": total("training.clip") / n,
        "training.clip_fired_ratio": fired / len(clips) if clips else 0.0,
        "model.forward_s": total("model.forward") / n,
        "model.forward_calls": count("model.forward") / n,
        "model.forward_us_per_token": per_token_us("model.forward"),
        "checkpoint.load_s": total("checkpoint.load") / n,
        "checkpoint.save_s": total("checkpoint.save") / n,
        "checkpoint.bytes": float(max(saved_bytes, default=0)),
        "data.load_tsv_s": total("data.load_tsv") / n,
        # encode_dataset calls tokenize and encode: nested spans count once
        "data.encode_s": total("data.encode", lambda s: spans[s.parent].name != "data.encode") / n,
        "data.make_batches_s": total("data.make_batches") / n,
        "data.pad_fraction": pad_fraction(tracer),
        "metrics.report_s": total("metrics.report") / n,
        "synth.gen_s": statistics.median(synth) if synth else 0.0,
        "cli.train_s": total("cli.train") / n,
        "cli.predict_s": total("cli.predict") / n,
        "cli.eval_s": total("cli.eval") / n,
        "cli.self_s": sum(spans[i].seconds - children.get(i, 0.0) for i in cli_spans) / n,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
