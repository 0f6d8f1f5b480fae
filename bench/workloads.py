"""Inputs, op cycles and correctness checks of the dialectid benchmark.

Every workload is a closed loop with one caller in one process: it repeats
one fixed cycle of ops, each started after the previous one returned.  All
inputs come from the workload seed.  Each op checks its own output, and an
op whose check fails or that raises counts as failed; its timing is dropped.
"""
from __future__ import annotations

import hashlib
import io
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
WORD_LABELS = ("egy", "glf", "lav", "msa", "nor")


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def fsync_files(paths) -> None:
    for path in paths:
        if os.path.exists(path):
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Ops:
    """Runs ops, counts attempted and failed ones, and keeps each metric's
    samples.  Op spans are recorded only while `traced` is set."""

    def __init__(self, tracer, dl):
        self.tracer = tracer
        self.dl = dl
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.written: set[str] = set()

    @contextmanager
    def op(self, kind: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # one failed op must not end the run
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    def writes(self, *paths) -> None:
        """Remove the files the next op writes, outside its timing, and keep
        them for the fsync at the end of the cycle.  Overwriting a file whose
        pages are still being written back waits a variable time.  An fsync
        after every op would put disk work right before the next timed op;
        on the few-millisecond checkpoint round trips that made the timings
        bimodal."""
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        self.written.update(paths)

    def sync(self) -> None:
        """Fsync every file the cycle wrote, so that no writeback lands in
        the next cycle's ops."""
        fsync_files(sorted(self.written))
        self.written.clear()

    def span(self, name: str):
        return self.tracer.span(name) if self.traced else nullcontext()

    def timed(self, name: str, fn, *args):
        with self.span(name):
            t0 = time.perf_counter()
            out = fn(*args)
            seconds = time.perf_counter() - t0
        return out, seconds

    def cli(self, command: str, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc, seconds = self.timed(f"cli.{command}", self.dl.cli.main, [command, *argv])
        return rc, out.getvalue(), err.getvalue(), seconds

    def record(self, metric: str, value: float) -> None:
        self.samples[metric].append(value)


# ---------------------------------------------------------------- inputs


def random_words(rng, n: int, lo: int = 3, hi: int = 10) -> list[str]:
    lengths = rng.integers(lo, hi + 1, size=n)
    text = "".join(LETTERS[rng.integers(0, 26, size=int(lengths.sum()))])
    ends = np.cumsum(lengths)
    return [text[e - k:e] for e, k in zip(ends.tolist(), lengths.tolist())]


def distinct_words(rng, n: int) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < n:
        words.update(dict.fromkeys(random_words(rng, n - len(words))))
    return list(words)


def line_lengths(rng, count: int) -> list[int]:
    """5 to 30 words, each length equally often, in seeded order: every seed
    gives the same token count, so throughput does not follow the seed."""
    return rng.permutation(np.resize(np.arange(5, 31), count)).tolist()


def marker_lines(rng, counts, labels, marker_share: float, markers_per_class: int):
    """One list of labeled lines of 5-30 words per count: a `marker_share`
    of tokens come from a small per-class word list shared by all lists, the
    rest are fresh random words, so almost every such token is a new
    vocabulary type."""
    markers = distinct_words(rng, markers_per_class * len(labels))
    parts = []
    for count in counts:
        rows = []
        for i, n in enumerate(line_lengths(rng, count)):
            k = i % len(labels)
            words = random_words(rng, n)
            for j in np.flatnonzero(rng.random(n) < marker_share).tolist():
                words[j] = markers[k * markers_per_class + int(rng.integers(markers_per_class))]
            rows.append((" ".join(words), labels[k]))
        parts.append(rows)
    return parts


def zipf_lines(rng, count: int, vocab_words: list[str], oov_share: float, labels):
    """Labeled lines of 5-30 words drawn Zipf(1) over `vocab_words`, with a
    share of out-of-vocabulary words; labels are uniform."""
    weights = 1.0 / np.arange(1, len(vocab_words) + 1)
    lengths = line_lengths(rng, count)
    draws = rng.choice(len(vocab_words), size=sum(lengths), p=weights / weights.sum())
    words = [vocab_words[r] for r in draws.tolist()]
    for j in np.flatnonzero(rng.random(len(words)) < oov_share).tolist():
        words[j] = random_words(rng, 1, 11, 14)[0]   # longer than any vocabulary word
    ends = np.cumsum(lengths).tolist()
    return [
        (" ".join(words[end - n:end]), labels[int(k)])
        for end, n, k in zip(ends, lengths, rng.integers(len(labels), size=count))
    ]


def write_rows(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        for text, label in rows:
            f.write(f"{text}\t{label}\n")


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        for line in lines:
            f.write(line + "\n")


# ---------------------------------------------------------------- state


@dataclass
class Files:
    """Paths and line counts one workload's cycle reads."""

    work: str
    mode: str
    train: str
    dev: str
    train_samples: int
    train_tokens: int
    epochs: int
    train_sets: list[str]
    train_out: str            # checkpoint the train op writes
    checkpoint: str           # checkpoint the serving ops read
    predict_input: str
    eval_input: str
    eval_lines: int
    classify_lines: list[str]
    ckpt_reps: int            # save/load round trips per cycle
    train_reps: int = 1       # train ops per cycle

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


class State:
    """What a run learns as it goes: reference outputs per checkpoint digest,
    and the first train op's epoch log and checkpoint digest."""

    def __init__(self, files: Files):
        self.files = files
        self.train_digest = None
        self.ref_sha = None
        self.ref_predict = None
        self.ref_eval = None
        self.reference_s = 0.0   # time spent on references, which no metric counts
        self.classify_ms: list[list[float]] = [[] for _ in files.classify_lines]
        self.facts: dict = {}


def set_args(items) -> list[str]:
    return [arg for item in items for arg in ("--set", item)]


def train_sets(mode: str, embed_dim: int, hidden_dim: int, epochs: int, seed: int):
    """BiLSTM, Adam, B=32, a fixed number of epochs: early stopping is off."""
    return [
        f"model.mode={mode}", "model.cell=lstm", "model.bidirectional=true",
        f"model.embed_dim={embed_dim}", f"model.hidden_dim={hidden_dim}",
        "train.optimizer=adam", "train.batch_size=32",
        f"train.epochs={epochs}", "train.early_stop_patience=0", f"train.seed={seed}",
    ]


def warm_up(dl, files: Files) -> None:
    """First calls of every command path on a few lines, so lazy imports
    and cold caches land in set-up rather than in the first timed op."""
    with open(files.train, encoding="utf-8") as f:
        lines = f.readlines()
    head = lines[::max(1, len(lines) // 16)][:16]   # spread, so every label shows
    tiny = files.path("warm.train.tsv")
    with open(tiny, "w", encoding="utf-8", newline="") as f:
        f.writelines(head)
    ckpt = files.path("warm.json")
    argv = ["train", "--train", tiny, "--out", ckpt, *set_args(files.train_sets),
            "--set", "train.epochs=1"]
    inp = files.path("warm.txt")
    write_lines(inp, [line.split("\t")[0] for line in head[:8]])
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rcs = [
            dl.cli.main(argv),
            dl.cli.main(["predict", "--model", ckpt, "--input", inp,
                         "--output", files.path("warm.out")]),
            dl.cli.main(["eval", "--model", ckpt, "--test", tiny,
                         "--report", files.path("warm.report")]),
        ]
    if any(rcs):
        raise RuntimeError(f"warm-up commands exited {rcs}")


# ---------------------------------------------------------------- ops


def train_op(ops: Ops, state: State) -> None:
    """CLI `train`; its epoch log and checkpoint must repeat byte for byte."""
    files = state.files
    with ops.op("train"):
        ops.writes(files.train_out)
        rc, _, err, seconds = ops.cli(
            "train", ["--train", files.train, "--dev", files.dev, "--out", files.train_out,
                      *set_args(files.train_sets)])
        expect(rc == 0, f"train exited {rc}: {err[-500:]}")
        epochs = [line for line in err.splitlines() if line.startswith("epoch=")]
        expect(len(epochs) == files.epochs,
               f"ran {len(epochs)} epochs, asked for {files.epochs}")
        digest = ("\n".join(epochs), sha256_file(files.train_out))
        if state.train_digest is None:
            state.train_digest = digest
        expect(digest[0] == state.train_digest[0], "epoch log differs from the first run")
        expect(digest[1] == state.train_digest[1], "checkpoint differs from the first run")
        ops.record("train_samples_per_s", files.epochs * files.train_samples / seconds)


def same_model(dl, a, b) -> bool:
    if a.config != b.config or a.labels != b.labels or a.vocab != b.vocab:
        return False
    pa, pb = dl.model.param_blocks(a), dl.model.param_blocks(b)
    return list(pa) == list(pb) and all(
        pa[k].shape == pb[k].shape and pa[k].tobytes() == pb[k].tobytes() for k in pa
    )


@dataclass
class CheckpointTimes:
    """One cycle's save_checkpoint and load_checkpoint timings."""

    save: list[float]
    load: list[float]


def load_op(ops: Ops, state: State, times: CheckpointTimes):
    """Load the cycle's checkpoint, as `predict` and `eval` do."""
    dl, files = ops.dl, state.files
    model = None
    with ops.op("load"):
        model, seconds = ops.timed("op.load", dl.checkpoint.load_checkpoint, files.checkpoint)
        times.load.append(seconds)
    if model is None:
        return None
    state.facts["checkpoint_bytes"] = os.path.getsize(files.checkpoint)
    state.facts["vocab_size"] = len(model.vocab)
    state.facts["param_count"] = sum(
        a.size for a in dl.model.param_blocks(model).values()
    )
    return model


def round_trip_op(ops: Ops, state: State, model, times: CheckpointTimes) -> None:
    """Save the model and load it back; the reload must equal the saved
    model on every block, bit for bit."""
    dl = ops.dl
    copy = state.files.path("roundtrip.json")
    with ops.op("save"):
        ops.writes(copy)
        _, seconds = ops.timed("op.save", dl.checkpoint.save_checkpoint, model, copy)
        times.save.append(seconds)
    with ops.op("load"):
        back, seconds = ops.timed("op.load", dl.checkpoint.load_checkpoint, copy)
        expect(same_model(dl, model, back), "load(save(m)) differs from m")
        times.load.append(seconds)


def classify_one(dl, model, line: str):
    mode = model.config.mode
    ids = dl.data.encode(dl.data.tokenize(line, mode), model.vocab,
                         dl.data.default_max_seq_len(mode))
    return dl.model.forward_classify(model, ids)


def references(ops: Ops, state: State, model) -> None:
    """In-process expectations for `predict` and `eval`, computed once per
    checkpoint digest with tracing suspended."""
    dl, files = ops.dl, state.files
    sha = sha256_file(files.checkpoint)
    if sha == state.ref_sha:
        return
    with ops.tracer.span("reference") as span, ops.tracer.suspended():
        with open(files.predict_input, encoding="utf-8") as f:
            lines = f.read().split("\n")
        state.ref_predict = []
        for lineno, line in enumerate(lines, start=1):
            if line:
                probs = classify_one(dl, model, line)
                pred = int(np.argmax(probs))
                state.ref_predict.append((str(lineno), model.labels.name_of(pred), probs[pred]))
        pairs = dl.data.encode_dataset(
            dl.data.load_tsv(files.eval_input, model.labels), model.vocab, files.mode
        )
        _, gold_pred = dl.training.evaluate_split(model, pairs)
        cm = dl.metrics.confusion_from_pairs(gold_pred, model.labels)
        report = dl.metrics.compute_report(cm)
        state.ref_eval = (dl.metrics.summary_line(report), dl.metrics.render_text(cm, report))
    state.ref_sha = sha
    state.reference_s += span.seconds


def predict_op(ops: Ops, state: State) -> None:
    """CLI `predict`; labels and probabilities must match in-process
    encode + forward_classify on the same lines."""
    files = state.files
    out = files.path("predict.out.tsv")
    with ops.op("predict"):
        ops.writes(out)
        rc, _, err, seconds = ops.cli(
            "predict", ["--model", files.checkpoint, "--input", files.predict_input,
                        "--output", out])
        expect(rc == 0, f"predict exited {rc}: {err[-500:]}")
        with open(out, encoding="utf-8") as f:
            rows = [line.split("\t") for line in f.read().splitlines()]
        expect(len(rows) == len(state.ref_predict),
               f"predict wrote {len(rows)} rows, expected {len(state.ref_predict)}")
        for row, (lineno, label, prob) in zip(rows, state.ref_predict):
            expect(len(row) == 3 and row[0] == lineno and row[1] == label
                   and abs(float(row[2]) - prob) <= 1e-6,
                   f"predict row {row} != ({lineno}, {label}, {prob:.6f})")
        ops.record("predict_lines_per_s", len(rows) / seconds)


def eval_op(ops: Ops, state: State) -> None:
    """CLI `eval`; its summary and report must match the in-process
    evaluate_split accuracy and confusion matrix."""
    files = state.files
    report = files.path("eval.report.txt")
    with ops.op("eval"):
        ops.writes(report)
        rc, out, err, seconds = ops.cli(
            "eval", ["--model", files.checkpoint, "--test", files.eval_input,
                     "--report", report])
        expect(rc == 0, f"eval exited {rc}: {err[-500:]}")
        summary, text = state.ref_eval
        expect(out.strip() == summary, f"eval printed {out.strip()!r}, expected {summary!r}")
        with open(report, encoding="utf-8", newline="") as f:
            expect(f.read() == text, "eval report differs from the in-process report")
        ops.record("eval_lines_per_s", files.eval_lines / seconds)


def classify_ops(ops: Ops, state: State, model, times: CheckpointTimes) -> None:
    """One utterance at a time: encode(tokenize(line)) then forward_classify,
    once per classify line; each line's latencies gather across cycles.

    The cycle's checkpoint round trips are spread evenly over this loop.
    The host runs in slow spells of tens of milliseconds or more, so round
    trips made back to back would all share one spell's speed."""
    dl, files = ops.dl, state.files
    lines = files.classify_lines
    trips = {len(lines) * i // files.ckpt_reps for i in range(files.ckpt_reps)}
    for i, (line, latency) in enumerate(zip(lines, state.classify_ms)):
        if i in trips:
            round_trip_op(ops, state, model, times)
        with ops.op("classify"):
            probs, seconds = ops.timed("op.classify", classify_one, dl, model, line)
            expect(bool(np.isfinite(probs).all()) and abs(float(probs.sum()) - 1.0) <= 1e-9,
                   f"classify gave probabilities {probs}")
            latency.append(1e3 * seconds)


def classify_quantiles(state: State) -> tuple[float, float]:
    """p50 and p99 over utterances of each utterance's median latency.

    Sub-millisecond timings on a shared machine come in slow spells lasting
    seconds, which would set any tail percentile of single timings; the
    median over cycles keeps the tail to what the inputs cause (long
    utterances).  With 1000 utterances, 10 lie beyond p99."""
    per_line = [statistics.median(v) for v in state.classify_ms if v]
    if len(per_line) < 2:
        return (per_line or [0.0])[0], (per_line or [0.0])[0]
    q = statistics.quantiles(per_line, n=100, method="inclusive")
    return q[49], q[98]


def serve_ops(ops: Ops, state: State) -> None:
    """The serving ops.  Each checkpoint metric gets one sample per cycle:
    the mean of the cycle's calls."""
    times = CheckpointTimes(save=[], load=[])
    model = load_op(ops, state, times)
    if model is not None:
        references(ops, state, model)
        predict_op(ops, state)
        eval_op(ops, state)
        classify_ops(ops, state, model, times)
    if times.save:
        ops.record("ckpt_save_s", statistics.fmean(times.save))
    if times.load:
        ops.record("ckpt_load_s", statistics.fmean(times.load))


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def setup(self, dl, work: str, tracer) -> State:
        """Generate the inputs under `work`.  Generation the package does not
        do itself is spanned as synth.gen, like dialectid.synth's."""
        raise NotImplementedError

    def cycle(self, ops: Ops, state: State) -> None:
        for _ in range(state.files.train_reps):
            train_op(ops, state)
        serve_ops(ops, state)
        ops.sync()


def _count_tokens(dl, rows, mode: str) -> int:
    return sum(len(dl.data.tokenize(text, mode)) for text, _ in rows)


class TrainCharBilstm(Workload):
    """Criterion-6 shape: 3-class Markov corpus, alphabet 8, lengths 20-40,
    char BiLSTM E=H=16, B=32, Adam, one epoch per train call."""

    name = "train-char-bilstm"

    def setup(self, dl, work: str, tracer) -> State:
        per_class = 12 if self.smoke else 340
        spec = dl.synth.SynthSpec(classes=3, alphabet=8, samples_per_class=per_class,
                                  seed=self.seed)
        corpus = dl.synth.gen_synthetic(spec)
        train, dev, test = dl.synth.split_dataset(corpus, (0.45, 0.1, 0.45))
        paths = {k: os.path.join(work, f"char.{k}.tsv") for k in ("train", "dev", "test")}
        for part, key in ((train, "train"), (dev, "dev"), (test, "test")):
            dl.data.save_tsv(part, paths[key])
        test_lines = [s.text for s in test.samples]
        predict_input = os.path.join(work, "char.predict.txt")
        write_lines(predict_input, test_lines)
        files = Files(
            work=work, mode="char", train=paths["train"], dev=paths["dev"],
            train_samples=len(train), epochs=1,
            train_tokens=sum(len(s.text) for s in train.samples),
            train_sets=train_sets("char", 16, 16, 1, self.seed),
            train_out=os.path.join(work, "char.json"), checkpoint=os.path.join(work, "char.json"),
            predict_input=predict_input, eval_input=paths["test"], eval_lines=len(test),
            classify_lines=[s.text for s in corpus.samples], ckpt_reps=32,
        )
        return State(files)


class TrainWordBigvocab(Workload):
    """Word BiLSTM E=32, H=64 on a corpus whose training file has tens of
    thousands of word types, so the embedding table holds most parameters."""

    name = "train-word-bigvocab"

    def setup(self, dl, work: str, tracer) -> State:
        rng = np.random.default_rng(self.seed)
        n_train, n_dev, n_test = (40, 10, 20) if self.smoke else (1500, 150, 300)
        with tracer.span("synth.gen"):
            train, dev, test = marker_lines(rng, (n_train, n_dev, n_test), WORD_LABELS, 0.15, 40)
        paths = {k: os.path.join(work, f"word.{k}.tsv") for k in ("train", "dev", "test")}
        for part, key in ((train, "train"), (dev, "dev"), (test, "test")):
            write_rows(paths[key], part)
        predict_input = os.path.join(work, "word.predict.txt")
        write_lines(predict_input, [text for text, _ in test])
        files = Files(
            work=work, mode="word", train=paths["train"], dev=paths["dev"],
            train_samples=len(train), epochs=1,
            train_tokens=_count_tokens(dl, train, "word"),
            train_sets=train_sets("word", 32, 64, 1, self.seed),
            train_out=os.path.join(work, "word.json"),
            checkpoint=os.path.join(work, "word.json"),
            predict_input=predict_input, eval_input=paths["test"], eval_lines=len(test),
            classify_lines=[text for text, _ in test + dev + train][:1000], ckpt_reps=1,
        )
        return State(files)


class ServeWordBigvocab(Workload):
    """A seeded, readout-perturbed 50k-vocabulary word model (E=32, H=64)
    served through checkpoint save/load, CLI predict/eval and a one-line
    classify loop.  The cycle also runs a 64-line, one-epoch word train
    three times, so the train metric exists here too; it is a small share
    of the cycle."""

    name = "serve-word-bigvocab"

    def setup(self, dl, work: str, tracer) -> State:
        rng = np.random.default_rng(self.seed)
        vocab_size, n_lines, n_classify, n_train = (
            (400, 30, 20, 16) if self.smoke else (50_000, 2000, 1000, 64)
        )
        with tracer.span("synth.gen"):
            words = distinct_words(rng, vocab_size - 2)
            eval_rows = zipf_lines(rng, n_lines, words, 0.02, WORD_LABELS)
            predict_rows = zipf_lines(rng, n_lines, words, 0.02, WORD_LABELS)
            classify_rows = zipf_lines(rng, n_classify, words, 0.02, WORD_LABELS)
            train_rows = zipf_lines(rng, n_train, words, 0.02, WORD_LABELS)
            dev_rows = zipf_lines(rng, 16, words, 0.02, WORD_LABELS)
        labels = dl.data.LabelSet(WORD_LABELS)
        model = dl.model.init_model(
            dl.model.ModelConfig(mode="word", embed_dim=32, hidden_dim=64),
            labels, vocab=dl.data.Vocab(["<pad>", "<unk>", *words]), seed=self.seed,
        )
        model.readout.w_out[:] = rng.normal(0.0, 1.0, size=model.readout.w_out.shape)
        model.readout.b_out[:] = rng.normal(0.0, 0.1, size=model.readout.b_out.shape)
        checkpoint = os.path.join(work, "serve.json")
        dl.checkpoint.save_checkpoint(model, checkpoint)
        paths = {k: os.path.join(work, f"serve.{k}.tsv") for k in ("train", "dev", "eval")}
        write_rows(paths["train"], train_rows)
        write_rows(paths["dev"], dev_rows)
        write_rows(paths["eval"], eval_rows)
        predict_input = os.path.join(work, "serve.predict.txt")
        write_lines(predict_input, [text for text, _ in predict_rows])
        files = Files(
            work=work, mode="word", train=paths["train"], dev=paths["dev"],
            train_samples=n_train, epochs=1,
            train_tokens=_count_tokens(dl, train_rows, "word"),
            train_sets=train_sets("word", 32, 64, 1, self.seed),
            train_out=os.path.join(work, "serve.small-train.json"), checkpoint=checkpoint,
            predict_input=predict_input, eval_input=paths["eval"], eval_lines=n_lines,
            classify_lines=[text for text, _ in classify_rows], ckpt_reps=1, train_reps=3,
        )
        return State(files)


WORKLOADS = {w.name: w for w in (TrainCharBilstm, TrainWordBigvocab, ServeWordBigvocab)}


def input_digest(files: Files) -> str:
    """Digest of every generated input, to show set-up is deterministic."""
    h = hashlib.sha256("\n".join(files.classify_lines).encode())
    for path in (files.train, files.dev, files.predict_input, files.eval_input,
                 files.checkpoint):
        if os.path.exists(path):
            h.update(sha256_file(path).encode())
    return h.hexdigest()
