"""Batch command-line surface for the experiment pipeline.

Every subcommand is a one-shot batch job: read inputs, write results under
``--out``, and persist a ``manifest.json`` holding the full flag set and
seed so a rerun reproduces the result files byte for byte.  Exit codes:
0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import models, neural
from .corpus import (
    Corpus,
    CorpusError,
    TaggedUtterance,
    builtin_flight_grammar,
    generate_synthetic,
    perturb_test_set,
    preprocess,
    read_corpus,
    read_grammar,
    relabel_collapse,
    write_corpus,
)
from .evaluation import EvalError, evaluate
from .models import PRESETS, ModelError
from .neural import NeuralError, ShapeSpec, TrainingConfig
from .ontology import (
    OntologyError,
    collapse_ontology,
    read_ontology,
    write_ontology,
)

BUILTIN = "builtin"

_DATA_ERRORS = (
    CorpusError,
    OntologyError,
    ModelError,
    NeuralError,
    EvalError,
    OSError,
    json.JSONDecodeError,
)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# shared helpers

def _load_ontology(arg: str):
    if arg == BUILTIN:
        return builtin_flight_grammar()[1]
    return read_ontology(arg)


def _load_grammar(args):
    if args.grammar == BUILTIN:
        grammar, ontology = builtin_flight_grammar()
        if args.ontology not in (BUILTIN, None):
            raise UsageError("--grammar builtin pairs with --ontology builtin")
        return grammar, ontology
    if args.ontology in (BUILTIN, None):
        raise UsageError("a grammar file needs an explicit --ontology file")
    return read_grammar(args.grammar), read_ontology(args.ontology)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x)
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _non_negative_int(text: str) -> int:
    """argparse type for counts and corpus seeds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_sizes(text: str) -> list[int | None]:
    sizes: list[int | None] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "all":
            sizes.append(None)
        elif part.isdecimal():
            sizes.append(int(part))
        else:
            raise UsageError(f"bad subset size {part!r} (use integers or 'all')")
    if not sizes:
        raise UsageError("no subset sizes given")
    return sizes


def _training_config(args) -> TrainingConfig:
    kwargs = dict(
        learning_rate=args.lr,
        epochs=args.epochs,
        dropout=args.dropout,
        seed=args.seed,
        emb_dim=args.emb_dim,
        hidden=args.hidden,
        concept_emb_dim=args.concept_emb_dim,
        teacher_forcing=args.teacher_forcing,
    )
    if args.lr_grid is not None:
        kwargs["lr_grid"] = _parse_floats(args.lr_grid)
    try:
        return TrainingConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write_manifest(args, out_dir: str) -> None:
    skip = {"func"}
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"command": args.command, "config": config}, fh,
                  sort_keys=True, indent=2)
        fh.write("\n")


def _write_eval(report, out_dir: str, name: str = "eval") -> None:
    with open(os.path.join(out_dir, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.text_report())
        fh.write("\n")
    with open(os.path.join(out_dir, f"{name}.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.machine_lines()))
        fh.write("\n")


def _write_log(log, out_dir: str, name: str) -> None:
    with open(os.path.join(out_dir, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(models.format_train_log(log))
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args) -> int:
    grammar, ontology = _load_grammar(args)
    corpus = generate_synthetic(grammar, ontology, args.n, args.seed)
    _write_manifest(args, args.out)
    write_corpus(corpus, os.path.join(args.out, "corpus.txt"))
    write_ontology(ontology, os.path.join(args.out, "ontology.txt"))
    print(f"wrote {len(corpus)} utterances to {args.out}/corpus.txt")
    return 0


def _cmd_collapse(args) -> int:
    ontology = _load_ontology(args.ontology)
    collapsed, mapping = collapse_ontology(ontology, args.keep_dims)
    _write_manifest(args, args.out)
    write_ontology(collapsed, os.path.join(args.out, "source_ontology.txt"))
    with open(os.path.join(args.out, "mapping.tsv"), "w", encoding="utf-8") as fh:
        for original in sorted(mapping):
            fh.write(f"{original}\t{mapping[original]}\n")
    for flag in ("train", "valid", "test"):
        path = getattr(args, flag)
        if path is not None:
            corpus = relabel_collapse(read_corpus(path), mapping)
            write_corpus(corpus, os.path.join(args.out, f"{flag}.txt"))
    print(f"collapsed to {args.keep_dims} dimension(s): {len(collapsed)} slots")
    return 0


def _cmd_perturb(args) -> int:
    ontology = _load_ontology(args.ontology)
    train = read_corpus(args.train)
    test = read_corpus(args.test)
    perturbed = perturb_test_set(train, test, ontology, args.seed)
    _write_manifest(args, args.out)
    write_corpus(perturbed, os.path.join(args.out, "test.txt"))
    print(f"wrote perturbed test set ({len(perturbed)} utterances)")
    return 0


def _finish_run(args, model, config, logs, summary: str | None) -> int:
    """Write the manifest, the model bundle and one file per training log,
    print ``summary``, then score on ``--test`` when given."""
    _write_manifest(args, args.out)
    models.save_model(model, os.path.join(args.out, "model"), config)
    for name, log in logs.items():
        _write_log(log, args.out, name)
    if summary is not None:
        print(summary)
    if args.test is not None:
        report = models.evaluate_model(model, read_corpus(args.test))
        _write_eval(report, args.out)
        print(f"test F1 {report.f1:.2f}")
    return 0


def _cmd_train(args) -> int:
    ontology = _load_ontology(args.ontology)
    config = _training_config(args)
    # training from scratch is the preset that skips the source steps
    result = models.run_experiment(
        f"{args.kind}_T", None, ontology, None, None,
        read_corpus(args.train),
        read_corpus(args.valid),
        config, subset=args.subset,
    )
    best = result.logs["target"].best
    return _finish_run(
        args, result.model, config, {"train_log": result.logs["target"]},
        None if best.best_f1 is None
        else f"best lr {best.learning_rate:g}, valid F1 {best.best_f1:.2f}",
    )


def _check_source_flags(args, preset: str) -> None:
    """A ``*_TS`` preset needs every source flag; one missing is a usage
    error, found before any file is read."""
    missing = [flag for flag in ("--source-ontology", "--source-train", "--source-valid")
               if not getattr(args, flag[2:].replace("-", "_"))]
    if PRESETS[preset][1] and missing:
        raise UsageError(f"{preset} needs {', '.join(missing)}")


def _read_adapt_corpora(args):
    target_train = read_corpus(args.train)
    target_valid = read_corpus(args.valid)
    source_train = source_valid = None
    if args.source_train is not None:
        source_train = read_corpus(args.source_train)
    if args.source_valid is not None:
        source_valid = read_corpus(args.source_valid)
    return source_train, source_valid, target_train, target_valid


def _cmd_adapt(args) -> int:
    _check_source_flags(args, args.preset)
    target_ontology = _load_ontology(args.ontology)
    source_ontology = (
        _load_ontology(args.source_ontology) if args.source_ontology else None
    )
    config = _training_config(args)
    source_train, source_valid, target_train, target_valid = _read_adapt_corpora(args)
    result = models.run_experiment(
        args.preset, source_ontology, target_ontology,
        source_train, source_valid, target_train, target_valid,
        config, subset=args.subset,
    )
    return _finish_run(
        args, result.model, config,
        {f"{phase}_log": log for phase, log in result.logs.items()},
        f"preset {args.preset} done; phases: {', '.join(result.logs) or 'none'}",
    )


def _cmd_decode(args) -> int:
    model = models.load_model(args.model)
    corpus = read_corpus(args.test)
    prepared, _ = preprocess(corpus, model.vocab)
    predictions = models.predict_corpus(model, prepared)
    decoded = Corpus(
        tuple(TaggedUtterance(u.tokens, tags) for u, tags in zip(corpus, predictions))
    )
    _write_manifest(args, args.out)
    write_corpus(decoded, os.path.join(args.out, "decoded.txt"))
    print(f"decoded {len(decoded)} utterances")
    return 0


def _cmd_eval(args) -> int:
    if (args.pred is None) == (args.model is None):
        raise UsageError("eval needs exactly one of --pred or --model")
    reference = read_corpus(args.test)
    if args.pred is not None:
        predicted = read_corpus(args.pred)
        for index, (ref, pred) in enumerate(zip(reference, predicted)):
            if ref.tokens != pred.tokens:
                raise EvalError(
                    f"utterance {index}: predicted tokens differ from the reference"
                )
        report = evaluate(reference, [u.tags for u in predicted])
    else:
        report = models.evaluate_model(models.load_model(args.model), reference)
    print(report.text_report())
    if args.out is not None:
        _write_manifest(args, args.out)
        _write_eval(report, args.out)
    return 0


def _cmd_gradcheck(args) -> int:
    rng = neural.rng_stream(args.seed, 9)
    shape = ShapeSpec(
        tables=((7, 5), (4, 3)),
        hidden=4,
        heads=(("O", "B", "I"), ("null", "a", "b")),
        frozen_rows=(2, 0),
    )
    params = neural.init_params(shape, rng, 0.2)
    batch = []
    for length in (5, 3):
        ids = (
            rng.integers(0, 7, size=length),
            rng.integers(0, 4, size=length),
        )
        gold = (
            rng.integers(0, 3, size=length),
            rng.integers(0, 3, size=length),
        )
        batch.append((ids, gold))
    report = neural.gradient_check(params, batch)
    print(f"max relative error {report.max_relative_error:.3e}")
    print("PASS" if report.passed else "FAIL")
    if args.out is not None:
        _write_manifest(args, args.out)
        lines = [
            f"{block}\t{err:.6e}" for block, err in sorted(report.block_errors.items())
        ]
        lines.append(f"max\t{report.max_relative_error:.6e}")
        lines.append("PASS" if report.passed else "FAIL")
        with open(os.path.join(args.out, "gradcheck.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if report.passed else 2


def _cmd_curve(args) -> int:
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    for system in systems:
        if system not in PRESETS:
            raise UsageError(f"unknown system {system!r}; choose from {sorted(PRESETS)}")
        _check_source_flags(args, system)
    sizes = _parse_sizes(args.sizes)
    target_ontology = _load_ontology(args.ontology)
    source_ontology = (
        _load_ontology(args.source_ontology) if args.source_ontology else None
    )
    config = _training_config(args)
    source_train, source_valid, target_train, target_valid = _read_adapt_corpora(args)
    test = read_corpus(args.test)
    rows = ["system\tsize\tf1"]
    for system, size, result in models.learning_curve(
        systems, sizes, source_ontology, target_ontology,
        source_train, source_valid, target_train, target_valid, config,
    ):
        report = models.evaluate_model(result.model, test)
        label = "all" if size is None else str(size)
        rows.append(f"{system}\t{label}\t{report.f1:.2f}")
    table = "\n".join(rows)
    print(table)
    _write_manifest(args, args.out)
    with open(os.path.join(args.out, "curve.tsv"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=None,
                   help="single learning rate (overrides the grid)")
    p.add_argument("--lr-grid", default=None,
                   help="comma-separated learning rates")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--emb-dim", type=int, default=100)
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--concept-emb-dim", type=int, default=20)
    p.add_argument("--teacher-forcing", action="store_true")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomslot",
        description="slot-filling experiments over atomic-concept ontologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus from a grammar")
    p.add_argument("--grammar", default=BUILTIN)
    p.add_argument("--ontology", default=BUILTIN)
    p.add_argument("--n", type=_non_negative_int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("collapse",
                       help="derive the source ontology and relabeled corpora")
    p.add_argument("--ontology", required=True)
    p.add_argument("--keep-dims", type=int, required=True)
    p.add_argument("--train")
    p.add_argument("--valid")
    p.add_argument("--test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("perturb", help="rewrite test spans to unseen values")
    p.add_argument("--ontology", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("train", help="train a single tagger from scratch")
    p.add_argument("--kind", required=True, choices=("JS", "AC"))
    p.add_argument("--ontology", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--test")
    p.add_argument("--subset", type=_non_negative_int, default=None)
    p.add_argument("--out", required=True)
    _add_training_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("adapt", help="run one transfer preset end to end")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--ontology", required=True, help="target ontology")
    p.add_argument("--source-ontology")
    p.add_argument("--train", required=True, help="target training corpus")
    p.add_argument("--valid", required=True, help="target validation corpus")
    p.add_argument("--source-train")
    p.add_argument("--source-valid")
    p.add_argument("--test")
    p.add_argument("--subset", type=_non_negative_int, default=None)
    p.add_argument("--out", required=True)
    _add_training_flags(p)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("decode", help="tag a corpus with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("eval", help="score predictions against a reference")
    p.add_argument("--test", required=True)
    p.add_argument("--pred")
    p.add_argument("--model")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check on a tiny random model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("curve", help="F1 per system per target subset size")
    p.add_argument("--systems", required=True,
                   help="comma-separated preset names")
    p.add_argument("--sizes", required=True,
                   help="comma-separated sizes, 'all' for the full set")
    p.add_argument("--ontology", required=True)
    p.add_argument("--source-ontology")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--source-train")
    p.add_argument("--source-valid")
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    _add_training_flags(p)
    p.set_defaults(func=_cmd_curve)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
