"""End-to-end gate for the shipped behaviors.

Each check prints one ``ACCEPTANCE <name>: PASS/FAIL`` line on the real
stdout so the verdicts survive output capture.  The transfer-trend checks
share one module-scoped experiment run (a few minutes of training); the
rest are quick.
"""

import filecmp
import functools
import itertools
import math
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from atomslot import models, neural
from atomslot.corpus import (
    Corpus,
    SlotSpan,
    TaggedUtterance,
    TokenVocabulary,
    builtin_flight_grammar,
    generate_synthetic,
    iob_to_spans,
    perturb_test_set,
    preprocess,
    relabel_collapse,
    spans_to_iob,
    subset_corpus,
)
from atomslot.evaluation import evaluate, round2
from atomslot.models import (
    AC,
    ACD_KINDS,
    JS,
    PRESETS,
    TaggerModel,
    adjust_nn_arch,
    evaluate_model,
    run_experiment,
    save_model,
    train,
)
from atomslot.neural import ShapeSpec, TrainingConfig, gradient_check, init_params
from atomslot.ontology import build_ontology, collapse_ontology
from atomslot.workers import usable_cpus

from conlleval_oracle import read_fixture, score_sentences

FIXTURE = Path(__file__).parent / "data" / "conll_fixture.txt"


def announce(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# gradient correctness

def test_gradient_correctness(capsys):
    started = time.monotonic()
    rng = neural.rng_stream(0, 1)
    shape = ShapeSpec(
        tables=((20, 8),),
        hidden=8,
        heads=(tuple(f"a{i}" for i in range(5)), tuple(f"b{i}" for i in range(3))),
    )
    params = init_params(shape, rng)
    ids = rng.integers(0, 20, size=5)
    gold = (rng.integers(0, 5, size=5), rng.integers(0, 3, size=5))
    report = gradient_check(params, [(ids, gold)], epsilon=1e-4, tolerance=1e-4)
    elapsed = time.monotonic() - started
    ok = report.passed and elapsed < 60.0
    announce(
        capsys, "gradient-correctness", ok,
        f"max rel err {report.max_relative_error:.3e}, {elapsed:.1f}s",
    )
    assert report.max_relative_error < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# decode oracle

def test_componentwise_argmax_is_product_argmax(capsys):
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(200):
        k = int(rng.integers(2, 4))
        sizes = [int(rng.integers(2, 7)) for _ in range(k)]
        probs = [rng.random(size) for size in sizes]
        probs = [p / p.sum() for p in probs]
        componentwise = tuple(int(np.argmax(p)) for p in probs)
        brute = max(
            itertools.product(*[range(size) for size in sizes]),
            key=lambda combo: math.prod(probs[d][c] for d, c in enumerate(combo)),
        )
        if brute != componentwise:
            mismatches += 1
    announce(
        capsys, "decode-oracle", mismatches == 0,
        f"200 random lattices, {mismatches} mismatches",
    )
    assert mismatches == 0


# ---------------------------------------------------------------------------
# span codec round trip

def test_span_round_trip(capsys):
    rng = np.random.default_rng(11)
    slots = ("city", "state", "time.at", "day")
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        spans = []
        pos = 0
        while pos < n:
            start = pos + int(rng.integers(0, 4))
            if start >= n:
                break
            length = int(rng.integers(1, min(3, n - start) + 1))
            spans.append(
                SlotSpan(slots[int(rng.integers(len(slots)))], start, start + length)
            )
            pos = start + length
        tokens = tuple(f"w{i}" for i in range(n))
        back = iob_to_spans(tokens, spans_to_iob(tokens, spans))
        if tuple((s.slot, s.start, s.end) for s in back) != tuple(
            (s.slot, s.start, s.end) for s in spans
        ):
            failures += 1
    announce(
        capsys, "span-round-trip", failures == 0,
        f"1000 random span sets, {failures} failures",
    )
    assert failures == 0


# ---------------------------------------------------------------------------
# scorer parity

def test_scorer_parity_on_fixture(capsys):
    sentences = read_fixture(FIXTURE)
    oracle = score_sentences([(gold, pred) for _, gold, pred in sentences])
    reference = Corpus(
        tuple(TaggedUtterance(tokens, gold) for tokens, gold, _ in sentences)
    )
    report = evaluate(reference, [pred for _, _, pred in sentences])
    counts_ok = (
        report.overall.reference,
        report.overall.predicted,
        report.overall.correct,
    ) == oracle.totals()
    scores_ok = (
        round2(report.precision) == round2(oracle.precision())
        and round2(report.recall) == round2(oracle.recall())
        and round2(report.f1) == round2(oracle.f1())
    )
    announce(
        capsys, "scorer-parity", counts_ok and scores_ok,
        f"fixture F1 {round2(report.f1):.2f} both routes, counts {oracle.totals()}",
    )
    assert counts_ok
    assert scores_ok


# ---------------------------------------------------------------------------
# optimizer capacity

def test_training_reaches_one_percent_loss(capsys):
    started = time.monotonic()
    grammar, ontology = builtin_flight_grammar()
    corpus, _ = preprocess(generate_synthetic(grammar, ontology, 50, seed=21))
    config = TrainingConfig(epochs=100, dropout=0.0, emb_dim=32, hidden=32, seed=0)
    _, log = train(JS, ontology, corpus, corpus, config)
    ratios = [
        min(stats.train_loss for stats in cand.epochs) / cand.initial_loss
        for cand in log.candidates
    ]
    best = min(ratios)
    elapsed = time.monotonic() - started
    ok = best < 0.01 and elapsed < 300.0
    announce(
        capsys, "fit-capacity", ok,
        f"best loss ratio {best:.4%} across {len(ratios)} learning rates, {elapsed:.0f}s",
    )
    assert best < 0.01
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# transfer trends (one shared experiment run)

SEEDS = (101, 102, 103, 104, 105)
SIZES = (50, 100, 500)
SYSTEMS = ("JS_T", "JS_TS", "AC_TS", "ACD_TS_1")


# Per seed the fixture trains three independent chains; AC_TS and ACD_TS_1
# share one source model, so they form one chain.  Longest chains first.
CHAINS = (("AC_TS", "ACD_TS_1"), ("JS_TS",), ("JS_T",))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.lru_cache(maxsize=None)
def transfer_corpora():
    grammar, ontology = builtin_flight_grammar()
    source_ontology, mapping = collapse_ontology(ontology, 1)
    target_pool = generate_synthetic(grammar, ontology, 600, seed=11, role="target")
    target_valid = generate_synthetic(
        grammar, ontology, 100, seed=12, role="validation"
    )
    test = generate_synthetic(grammar, ontology, 300, seed=13, role="test")
    source_train = relabel_collapse(
        generate_synthetic(grammar, ontology, 2000, seed=14, role="source"), mapping
    )
    source_valid = relabel_collapse(
        generate_synthetic(grammar, ontology, 200, seed=15, role="validation"), mapping
    )
    return (ontology, source_ontology, source_train, source_valid,
            target_pool, target_valid, test)


def transfer_chain(seed, chain):
    """Train each system of ``chain`` at every size for one seed; returns
    the test F1 per (system, size) and the unseen-value F1 per system."""
    (ontology, source_ontology, source_train, source_valid,
     target_pool, target_valid, test) = transfer_corpora()
    config = TrainingConfig(
        learning_rate=0.08, epochs=20, dropout=0.1,
        emb_dim=32, hidden=32, seed=seed,
    )
    perturbed = perturb_test_set(
        subset_corpus(target_pool, 100, seed), test, ontology, seed
    )
    matched: dict[tuple[str, int], float] = {}
    unmatched: dict[str, float] = {}
    cache: dict[tuple, TaggerModel] = {}
    for system in chain:
        kind, uses_source = PRESETS[system]
        key = None
        if uses_source:
            stage1 = AC if kind in ACD_KINDS else kind
            key = (stage1, 1 if kind in ACD_KINDS else source_ontology.depth)
        for size in SIZES:
            result = run_experiment(
                system, source_ontology, ontology,
                source_train, source_valid, target_pool, target_valid,
                config, subset=size,
                source_model=cache.get(key) if key is not None else None,
            )
            if key is not None and result.source_model is not None:
                cache[key] = result.source_model
            matched[(system, size)] = evaluate_model(result.model, test).f1
            if size == 100:
                unmatched[system] = evaluate_model(result.model, perturbed).f1
    return matched, unmatched


def run_chains(tasks):
    """``transfer_chain`` of each task, in task order: in a spawn pool of
    two processes, each with one BLAS thread, or in process on one CPU."""
    processes = min(2, usable_cpus())
    if processes < 2:
        return [transfer_chain(*task) for task in tasks]
    saved = {name: os.environ.get(name) for name in THREAD_VARS}
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    try:
        pool = multiprocessing.get_context("spawn").Pool(processes)
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    with pool:
        return pool.starmap(transfer_chain, tasks, chunksize=1)


@pytest.fixture(scope="module")
def transfer_runs():
    started = time.monotonic()
    tasks = [(seed, chain) for chain in CHAINS for seed in SEEDS]
    by_seed = {seed: ({}, {}) for seed in SEEDS}
    for (seed, _), (chain_matched, chain_unmatched) in zip(tasks, run_chains(tasks)):
        by_seed[seed][0].update(chain_matched)
        by_seed[seed][1].update(chain_unmatched)
    matched = {
        (system, size): [by_seed[seed][0][(system, size)] for seed in SEEDS]
        for system in SYSTEMS for size in SIZES
    }
    unmatched = {system: [by_seed[seed][1][system] for seed in SEEDS] for system in SYSTEMS}
    return {
        "matched": matched,
        "unmatched": unmatched,
        "elapsed": time.monotonic() - started,
    }


def mean(values):
    return sum(values) / len(values)


def test_refinement_trend(transfer_runs, capsys):
    matched = transfer_runs["matched"]
    elapsed = transfer_runs["elapsed"]
    with capsys.disabled():
        print(f"\ntransfer experiment table (mean F1, {len(SEEDS)} seeds):")
        print("system      " + "".join(f"{n:>8}" for n in SIZES))
        for system in SYSTEMS:
            cells = "".join(f"{mean(matched[(system, n)]):8.1f}" for n in SIZES)
            print(f"{system:<12}{cells}")
    at100 = {system: mean(matched[(system, 100)]) for system in SYSTEMS}
    ordered = (
        at100["ACD_TS_1"] >= at100["AC_TS"] >= at100["JS_TS"] >= at100["JS_T"]
    )
    margin = at100["ACD_TS_1"] - at100["JS_T"]
    ok = ordered and margin >= 5.0 and elapsed < 1800.0
    announce(
        capsys, "refinement-trend", ok,
        f"at 100 sentences: "
        + " >= ".join(f"{system} {at100[system]:.1f}" for system in
                      ("ACD_TS_1", "AC_TS", "JS_TS", "JS_T"))
        + f"; margin {margin:.1f}, {elapsed:.0f}s",
    )
    assert ordered, at100
    assert margin >= 5.0, at100
    assert elapsed < 1800.0


def test_unmatched_value_robustness(transfer_runs, capsys):
    unmatched = transfer_runs["unmatched"]
    means = {system: mean(unmatched[system]) for system in SYSTEMS}
    margin = means["ACD_TS_1"] - means["JS_T"]
    ok = margin >= 3.0
    announce(
        capsys, "unmatched-robustness", ok,
        f"unseen-value test at 100 sentences: ACD_TS_1 {means['ACD_TS_1']:.1f}"
        f" vs JS_T {means['JS_T']:.1f}, margin {margin:.1f}",
    )
    assert margin >= 3.0, means


# ---------------------------------------------------------------------------
# extension safety

def random_model(kind, ontology, dims_used, seed):
    from atomslot.models import _stage1_head_labels

    vocab = TokenVocabulary(f"t{i}" for i in range(30))
    heads = _stage1_head_labels(kind, ontology, dims_used)
    params = init_params(
        ShapeSpec(tables=((len(vocab), 8),), hidden=8, heads=heads), seed
    )
    return TaggerModel(kind, ontology, vocab, params, dims_used)


def test_extension_preserves_old_classes(capsys):
    _, ontology = builtin_flight_grammar()
    source_ontology, _ = collapse_ontology(ontology, 1)
    rng = np.random.default_rng(13)
    inputs = [rng.integers(0, 32, size=8) for _ in range(100)]
    worst = 0
    for seed, (kind, dims) in enumerate(((JS, 0), (AC, 1))):
        model = random_model(kind, source_ontology, dims, seed)
        adjusted = adjust_nn_arch(model, source_ontology, ontology, seed=5)
        for ids in inputs:
            feats_old = neural.blstm_forward(model.stage1, ids)
            feats_new = neural.blstm_forward(adjusted.stage1, ids)
            for head_old, head_new in zip(model.stage1.heads, adjusted.stage1.heads):
                k = len(head_old.labels)
                logits_old = feats_old @ head_old.w.T + head_old.b
                logits_new = (feats_new @ head_new.w.T + head_new.b)[:, :k]
                if not np.array_equal(logits_old, logits_new):
                    worst += 1
                elif not np.array_equal(
                    logits_old.argmax(axis=1), logits_new.argmax(axis=1)
                ):
                    worst += 1
    announce(
        capsys, "extension-safety", worst == 0,
        f"100 random inputs x JS and AC heads, {worst} logit deviations",
    )
    assert worst == 0


# ---------------------------------------------------------------------------
# determinism

def test_identical_runs_are_byte_identical(capsys, tmp_path):
    grammar, ontology = builtin_flight_grammar()
    source_ontology, mapping = collapse_ontology(ontology, 1)
    target_train = generate_synthetic(grammar, ontology, 40, seed=31, role="target")
    target_valid = generate_synthetic(
        grammar, ontology, 15, seed=32, role="validation"
    )
    source_train = relabel_collapse(
        generate_synthetic(grammar, ontology, 60, seed=33, role="source"), mapping
    )
    source_valid = relabel_collapse(
        generate_synthetic(grammar, ontology, 15, seed=34, role="validation"), mapping
    )
    test = generate_synthetic(grammar, ontology, 30, seed=35, role="test")
    config = TrainingConfig(
        learning_rate=0.05, epochs=2, dropout=0.1, emb_dim=8, hidden=8, seed=0
    )
    for run in ("one", "two"):
        result = run_experiment(
            "AC_TS", source_ontology, ontology, source_train, source_valid,
            target_train, target_valid, config, subset=15,
        )
        out = tmp_path / run
        save_model(result.model, out / "model", config)
        report = evaluate_model(result.model, test)
        (out / "report.tsv").write_text("\n".join(report.machine_lines()) + "\n")
        (out / "log.txt").write_text(
            models.format_train_log(result.logs["target"]) + "\n"
        )
    files = sorted(
        p.relative_to(tmp_path / "one")
        for p in (tmp_path / "one").rglob("*")
        if p.is_file()
    )
    different = [
        str(rel)
        for rel in files
        if not filecmp.cmp(tmp_path / "one" / rel, tmp_path / "two" / rel, shallow=False)
    ]
    announce(
        capsys, "determinism", not different,
        f"{len(files)} files compared, differing: {different or 'none'}",
    )
    assert not different


# ---------------------------------------------------------------------------
# optional check against the real benchmark (opt-in, not gating)

ATIS_DIR = os.environ.get("ATIS_DIR")


def derive_ontology_from_tags(corpora):
    slots = set()
    for corpus in corpora:
        for u in corpus:
            for span in u.spans:
                slots.add(span.slot)
    depth = max(len(slot.split(".")) for slot in slots)
    entries = []
    for slot in sorted(slots):
        parts = slot.split(".")
        branch = tuple(reversed(parts)) + ("null",) * (depth - len(parts))
        entries.append((slot, branch))
    return build_ontology(depth, entries)


@pytest.mark.skipif(
    ATIS_DIR is None, reason="set ATIS_DIR to a directory with train/valid/test files"
)
def test_real_benchmark_alignment(capsys):
    from atomslot.corpus import read_corpus

    train_raw = read_corpus(os.path.join(ATIS_DIR, "train.txt"))
    valid_raw = read_corpus(os.path.join(ATIS_DIR, "valid.txt"))
    test_raw = read_corpus(os.path.join(ATIS_DIR, "test.txt"))
    ontology = derive_ontology_from_tags([train_raw, valid_raw, test_raw])
    source_ontology, mapping = collapse_ontology(ontology, 1)
    config = TrainingConfig(seed=0)
    js = run_experiment(
        "JS_T", None, ontology, None, None, train_raw, valid_raw, config
    )
    js_f1 = evaluate_model(js.model, test_raw).f1
    acd = run_experiment(
        "ACD_TS_2", source_ontology, ontology,
        relabel_collapse(train_raw, mapping), relabel_collapse(valid_raw, mapping),
        train_raw, valid_raw, config,
    )
    acd_f1 = evaluate_model(acd.model, test_raw).f1
    ok = abs(js_f1 - 95.4) <= 0.5 and acd_f1 > js_f1
    announce(
        capsys, "real-benchmark", ok,
        f"JS_T {js_f1:.2f} (want 95.4 +- 0.5), ACD_TS_2 {acd_f1:.2f}",
    )
    assert abs(js_f1 - 95.4) <= 0.5
    assert acd_f1 > js_f1
