"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  The workload is set up several times (``setup_s`` is the
median), then repeated in whole rounds for about ``--seconds`` seconds
(every other figure is the median over rounds).  With ``--trace 1`` the
rounds alternate untraced and traced, the per-layer metrics come from the
traced rounds, and ``trace.overhead_pct`` compares the two.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A results file with the
environment, every round's figures and a hash of every prediction goes to
``.perfbench/results/`` under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "atomslot")):
    # never benchmark an installed copy in place of the checkout's source
    sys.exit(f"error: no package source under {SRC}; run from a source checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, write_spans  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "experiment_s": "s",
    "train_sents_per_s": "sents/s",
    "decode_sents_per_s": "sents/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, how it is read from one snapshot of the trace)
SETUP_PHASE = ("corpus.generate_synthetic.s", "neural.save_params.s")


def _self(name):
    return lambda snap: snap["self"].get(name, 0.0)


def _calls(name):
    return lambda snap: float(snap["calls"].get(name, 0))


def _count(name):
    return lambda snap: snap["counts"].get(name, 0.0)


def _ratio(numerator, denominator):
    def read(snap):
        den = denominator(snap)
        return numerator(snap) / den if den else 0.0
    return read


def _training_s(snap):
    return sum(snap["total"].get(n, 0.0) for n in ("models.train", "models.train_acd"))


PER_LAYER = {
    "corpus.generate_synthetic.s": ("s", _self("corpus.generate_synthetic")),
    "corpus.preprocess.s": ("s", _self("corpus.preprocess")),
    "corpus.encode.calls": ("count", _calls("corpus.encode")),
    "corpus.encode.s": ("s", _self("corpus.encode")),
    "corpus.read_corpus.s": ("s", _self("corpus.read_corpus")),
    "corpus.write_corpus.s": ("s", _self("corpus.write_corpus")),
    "neural.loss_and_gradients.calls": ("count", _calls("neural.loss_and_gradients")),
    "neural.loss_and_gradients.tokens": (
        "count", _count("neural.loss_and_gradients.tokens")),
    "neural.loss_and_gradients.s": ("s", _self("neural.loss_and_gradients")),
    "neural.sgd_step.s": ("s", _self("neural.sgd_step")),
    "neural.make_dropout_masks.s": ("s", _self("neural.make_dropout_masks")),
    "neural.sequence_loss.calls": ("count", _calls("neural.sequence_loss")),
    "neural.sequence_loss.s": ("s", _self("neural.sequence_loss")),
    "neural.blstm_forward.stage1.s": ("s", _self("neural.blstm_forward.stage1")),
    "neural.blstm_forward.stage2.s": ("s", _self("neural.blstm_forward.stage2")),
    "neural.blstm_forward.tokens": ("count", _count("neural.blstm_forward.tokens")),
    "neural.head_forward.s": ("s", _self("neural.head_forward")),
    "neural.load_params.s": ("s", _self("neural.load_params")),
    "neural.save_params.s": ("s", _self("neural.save_params")),
    "neural.checkpoint_bytes": ("bytes", _count("neural.load_params.bytes")),
    "models.train.self_s": ("s", _self("models.train")),
    "models.train_acd.self_s": ("s", _self("models.train_acd")),
    "models.validation.s": ("s", lambda snap: snap["total"].get("models.validation", 0.0)),
    "models.validation_share": ("ratio", _ratio(
        lambda snap: snap["total"].get("models.validation", 0.0), _training_s)),
    "models.decode.self_s": ("s", _self("models.decode")),
    "ontology.branch_to_slot.calls": ("count", _calls("ontology.branch_to_slot")),
    "ontology.branch_to_slot.s": ("s", _self("ontology.branch_to_slot")),
    "models.load_model.s": ("s", _self("models.load_model")),
    "cli.decode.self_s": ("s", _self("cli.decode")),
    "models.gather_sequence.s": ("s", _self("models.gather_sequence")),
    "models.gather_ratio": ("ratio", _ratio(
        _count("models.gather.gathered_tokens"),
        _count("models.gather.original_tokens"))),
    "models.adjust_nn_arch.s": ("s", _self("models.adjust_nn_arch")),
    "evaluation.evaluate.calls": ("count", _calls("evaluation.evaluate")),
    "evaluation.evaluate.s": ("s", _self("evaluation.evaluate")),
}
OVERHEAD = "trace.overhead_pct"


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# environment

def _git_sha(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> dict:
    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    libs_dir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def environment() -> dict:
    return {
        "git_sha": _git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; returns the results record."""
    env = environment()
    workdir = os.path.join(ROOT, ".perfbench", "work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, sizes, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, sizes, workdir, env) -> dict:
    wl = workloads.WORKLOADS[workload](
        seed, sizes or workloads.SIZES[workload], workdir
    )
    tracer = Tracer() if trace else None

    def traced():
        return tracer.install() if tracer is not None else contextlib.nullcontext()

    setup_s, setup_figures, setup_snaps = [], [], []
    for _ in range(wl.setup_repeats):
        started = time.perf_counter()
        with traced():
            setup_figures.append(wl.setup())
        setup_s.append(time.perf_counter() - started)
        if tracer is not None:
            setup_snaps.append(tracer.snapshot())

    rounds, untraced, plain_s, traced_s, round_snaps = [], [], [], [], []
    hashes = set()
    started = time.perf_counter()
    while True:
        for with_trace in ((False, True) if trace else (False,)):
            if with_trace:
                tracer.keep_spans = not round_snaps
            t = time.perf_counter()
            with traced() if with_trace else contextlib.nullcontext():
                rnd = wl.round()
            (traced_s if with_trace else plain_s).append(time.perf_counter() - t)
            if with_trace:
                tracer.keep_spans = False
                round_snaps.append(tracer.snapshot())
            rnd.run_checks()
            rounds.append(rnd)
            if not with_trace:
                untraced.append(rnd)
            hashes.add(oracle.prediction_hash(rnd.predictions))
        used = time.perf_counter() - started
        if used + used / len(plain_s) > seconds:
            break

    problems = [p for rnd in rounds for p in rnd.problems]
    if len(hashes) != 1:
        problems.append(f"predictions differ between rounds ({len(hashes)} hashes)")
    problems.extend(wl.final_checks())
    for snap in round_snaps:
        problems.extend(wl.trace_checks(snap["calls"]))

    problems = sorted(set(problems))  # one fault seen in every round, once
    figures = {}
    for key in sorted({k for f in setup_figures for k in f}):
        figures[key] = _median([f[key] for f in setup_figures if key in f])
    for key in sorted({k for r in untraced for k in r.figures}):
        figures[key] = _median([r.figures[key] for r in untraced if key in r.figures])
    figures["setup_s"] = _median(setup_s)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        metrics = {}
        for name, (unit, read) in PER_LAYER.items():
            snaps = setup_snaps if name in SETUP_PHASE else round_snaps
            metrics[name] = {"value": _median([read(s) for s in snaps]), "unit": unit}
        overhead = 100.0 * (_median(traced_s) / _median(plain_s) - 1.0)
        metrics[OVERHEAD] = {"value": overhead, "unit": "%"}
        spans_path = os.path.join(
            ROOT, ".perfbench", "results", f"{workload}-seed{seed}-spans.tsv"
        )
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        write_spans(tracer.spans, spans_path)
    else:
        metrics = {
            name: {"value": figures[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": wl.sizes,
        "environment": env,
        "rounds": len(rounds),
        "setup_s": setup_s,
        "round_s": {"untraced": plain_s, "traced": traced_s},
        "round_figures": [r.figures for r in untraced],
        "figures": figures,
        "prediction_sha256": sorted(hashes),
        "problems": problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in sorted(record["figures"].items()):
        print(f"# {args.workload} {name} = {value:.6g}")
    for name, m in record["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(result_line(record))
    return 0


def result_line(record: dict) -> str:
    """The JSON object the last line of output carries."""
    return json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


if __name__ == "__main__":
    sys.exit(main())
