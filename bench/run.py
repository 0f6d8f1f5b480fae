#!/usr/bin/env python3
"""Benchmark of the dialectid package, run from the root of a source checkout.

    python3 bench/run.py --workload train-char-bilstm --seed 1 --seconds 20 --trace 0

Builds every input from --seed, runs the workload's op cycle in a closed
loop for --seconds (at least three cycles, two when traced), checks every op's
output, and prints a facts line and then, as the last line of standard
output, one JSON result: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, timed with no
instrumentation; with --trace 1 they are the per-layer ones, from spans
recorded around the package's public functions on every other cycle.
--smoke shrinks every input to toy size.  The package is imported from
./src only; without it the benchmark exits 2 and prints no result.
"""
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, batching_targets, layer_metrics, layer_targets, pad_fraction  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Ops, classify_quantiles, fsync_files, input_digest, warm_up,
)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3

E2E_UNITS = {
    "train_samples_per_s": "1/s",
    "ckpt_save_s": "s",
    "ckpt_load_s": "s",
    "predict_lines_per_s": "1/s",
    "eval_lines_per_s": "1/s",
    "classify_ms_p50": "ms",
    "classify_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "training.train_s": "s",
    "training.fwdbwd_s": "s",
    "training.fwdbwd_calls": "count",
    "training.fwdbwd_us_per_token": "us",
    "training.reeval_s": "s",
    "training.optimizer_s": "s",
    "training.clip_s": "s",
    "training.clip_fired_ratio": "ratio",
    "model.forward_s": "s",
    "model.forward_calls": "count",
    "model.forward_us_per_token": "us",
    "checkpoint.load_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "data.load_tsv_s": "s",
    "data.encode_s": "s",
    "data.make_batches_s": "s",
    "data.pad_fraction": "ratio",
    "metrics.report_s": "s",
    "synth.gen_s": "s",
    "cli.train_s": "s",
    "cli.predict_s": "s",
    "cli.eval_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="toy-size inputs")
    return p.parse_args(argv)


class SourceError(Exception):
    """The checkout holds no importable dialectid sources."""


def import_package():
    src = ROOT / "src"
    if not (src / "dialectid" / "__init__.py").is_file():
        raise SourceError(f"no dialectid package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import dialectid
    from dialectid import checkpoint, cli, data, metrics, model, synth, training

    if Path(dialectid.__file__).resolve().parent != (src / "dialectid").resolve():
        raise SourceError(f"dialectid imported from {dialectid.__file__}, not {src}")
    return types.SimpleNamespace(checkpoint=checkpoint, cli=cli, data=data, metrics=metrics,
                                 model=model, synth=synth, training=training)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def set_up(workload, dl, work: str, tracer: Tracer, layers):
    """Build inputs and fixtures and warm up, SETUP_REPS times; every
    repeat must produce the same inputs.  Returns the median time."""
    times, digests = [], []
    for _ in range(SETUP_REPS):
        # a fresh directory each time; see Ops.writes for why
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        patched = tracer.install(layers)
        with tracer.span("setup"):
            t0 = time.perf_counter()
            state = workload.setup(dl, work, tracer)
            warm_up(dl, state.files)
            times.append(time.perf_counter() - t0)
        tracer.uninstall(patched)
        fsync_files([os.path.join(work, name) for name in os.listdir(work)])
        digests.append(input_digest(state.files))
    if len(set(digests)) != 1:
        raise RuntimeError("set-up gave different inputs on repeats with one seed")
    return statistics.median(times), state


def e2e_metrics(ops: Ops, state, setup_s: float) -> dict:
    def median(name):
        values = ops.samples.get(name)
        return statistics.median(values) if values else 0.0

    p50, p99 = classify_quantiles(state)
    return {
        "train_samples_per_s": median("train_samples_per_s"),
        "ckpt_save_s": median("ckpt_save_s"),
        "ckpt_load_s": median("ckpt_load_s"),
        "predict_lines_per_s": median("predict_lines_per_s"),
        "eval_lines_per_s": median("eval_lines_per_s"),
        "classify_ms_p50": p50,
        "classify_ms_p99": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def run(args) -> int:
    dl = import_package()
    import_s = time.perf_counter() - STARTED
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    tracer = Tracer()
    ops = Ops(tracer, dl)
    layers = layer_targets(dl) if args.trace else []
    tracer.install(batching_targets(dl))
    try:
        setup_s, state = set_up(workload, dl, str(work), tracer, layers)
        durations = []
        start = time.perf_counter()
        # no cycle starts that would, at the median pace so far, end past
        # --seconds; three cycles at least give the per-line classify medians
        # and the metric medians something to work on, two suffice when traced
        min_cycles = 2 if args.trace else 3
        while len(durations) < min_cycles or (
            time.perf_counter() - start + statistics.median(durations) <= args.seconds
        ):
            ops.traced = bool(args.trace) and len(durations) % 2 == 1
            patched = tracer.install(layers) if ops.traced else 0
            reference_s = state.reference_s
            with tracer.span("cycle") as span:
                span.attrs = {"traced": ops.traced}
                workload.cycle(ops, state)
            tracer.uninstall(patched)
            durations.append(span.seconds - (state.reference_s - reference_s))
        measured_s = time.perf_counter() - start
        cycles = len(durations)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    files = state.files
    if args.trace:
        values, units = layer_metrics(tracer), LAYER_UNITS
        tracer.write_jsonl(str(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"))
    else:
        values, units = e2e_metrics(ops, state, import_s + setup_s), E2E_UNITS
    facts = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "measured_s": measured_s, "cycles": cycles,
        "import_s": import_s, "setup_reps": SETUP_REPS,
        "machine": machine_facts(),
        "input": {
            "train_samples": files.train_samples, "train_tokens": files.train_tokens,
            "epochs": files.epochs, "eval_lines": files.eval_lines,
            "classify_lines": len(files.classify_lines),
            "classify_samples": sum(len(v) for v in state.classify_ms),
            "pad_fraction": pad_fraction(tracer),
            **state.facts,
        },
        "samples": {k: len(v) for k, v in sorted(ops.samples.items())},
        "errors": ops.errors,
    }
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"facts": facts, "result": result, "samples": ops.samples}, f, indent=1)
    for line in ops.errors:
        print(f"failed op: {line}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
