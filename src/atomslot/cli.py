"""Batch command-line surface for the experiment pipeline.

Every subcommand is a one-shot batch job in four phases: check its flags
(a usage error, exit 1), read every input (a data error, exit 2), compute,
and only then write.  ``_write_outputs`` writes everything under ``--out``,
including a ``manifest.json`` holding the full flag set and seed so a
rerun reproduces the result files byte for byte.  A run that stops on a
usage or data error has created nothing; a ``gradcheck`` FAIL still
writes its report.  Exit codes: 0 success, 1 usage error, 2 data error.
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
    format_corpus,
    generate_synthetic,
    perturb_test_set,
    preprocess,
    read_corpus,
    read_grammar,
    relabel_collapse,
)
from .evaluation import EvalError, evaluate
from .models import PRESETS, ModelError
from .neural import NeuralError, ShapeSpec, TrainingConfig
from .ontology import (
    OntologyError,
    collapse_ontology,
    format_ontology,
    read_ontology,
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


def _non_negative_int(text: str, minimum: int = 0) -> int:
    """argparse type for counts and corpus seeds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that are never 0."""
    return _non_negative_int(text, 1)


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


def _write_outputs(args, files: dict[str, str], model=None, config=None) -> None:
    """Write everything a run leaves under ``--out``: the bundle of
    ``model`` (trained with ``config``) as ``model/``, ``manifest.json``
    with every flag, then each of ``files`` (file name: text).  Nothing
    is written when the command was given no ``--out``."""
    if args.out is None:
        return
    if model is not None:
        models.save_model(model, os.path.join(args.out, "model"), config)
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = json.dumps({"command": args.command, "config": flags}, sort_keys=True, indent=2)
    os.makedirs(args.out, exist_ok=True)
    for name, text in {"manifest.json": manifest + "\n", **files}.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _eval_files(report) -> dict[str, str]:
    return {
        "eval.txt": report.text_report() + "\n",
        "eval.tsv": "\n".join(report.machine_lines()) + "\n",
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args) -> int:
    grammar, ontology = _load_grammar(args)
    corpus = generate_synthetic(grammar, ontology, args.n, args.seed)
    _write_outputs(args, {
        "corpus.txt": format_corpus(corpus),
        "ontology.txt": format_ontology(ontology),
    })
    print(f"wrote {len(corpus)} utterances to {args.out}/corpus.txt")
    return 0


def _cmd_collapse(args) -> int:
    ontology = _load_ontology(args.ontology)
    flags = ("train", "valid", "test")
    corpora = dict(zip(flags, _read_corpora(args, *flags)))
    collapsed, mapping = collapse_ontology(ontology, args.keep_dims)
    files = {
        "source_ontology.txt": format_ontology(collapsed),
        "mapping.tsv": "".join(f"{slot}\t{mapping[slot]}\n" for slot in sorted(mapping)),
    }
    for flag, corpus in corpora.items():
        if corpus is not None:
            files[f"{flag}.txt"] = format_corpus(relabel_collapse(corpus, mapping))
    _write_outputs(args, files)
    print(f"collapsed to {args.keep_dims} dimension(s): {len(collapsed)} slots")
    return 0


def _cmd_perturb(args) -> int:
    ontology = _load_ontology(args.ontology)
    train, test = _read_corpora(args, "train", "test")
    perturbed = perturb_test_set(train, test, ontology, args.seed)
    _write_outputs(args, {"test.txt": format_corpus(perturbed)})
    print(f"wrote perturbed test set ({len(perturbed)} utterances)")
    return 0


def _finish_run(args, model, config, logs, test, summary: str | None) -> int:
    """Score ``model`` on ``test`` when given, write the bundle, one file
    per training log and the test report, then print ``summary`` and the
    test F1."""
    files = {f"{name}.txt": models.format_train_log(log) + "\n" for name, log in logs.items()}
    report = None if test is None else models.evaluate_model(model, test)
    if report is not None:
        files.update(_eval_files(report))
    _write_outputs(args, files, model, config)
    if summary is not None:
        print(summary)
    if report is not None:
        print(f"test F1 {report.f1:.2f}")
    return 0


def _cmd_train(args) -> int:
    config = _training_config(args)
    ontology = _load_ontology(args.ontology)
    train, valid, test = _read_corpora(args, "train", "valid", "test")
    # training from scratch is the preset that skips the source steps
    result = models.run_experiment(
        f"{args.kind}_T", None, ontology, None, None, train, valid,
        config, subset=args.subset,
    )
    best = result.logs["target"].best
    return _finish_run(
        args, result.model, config, {"train_log": result.logs["target"]}, test,
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


def _read_corpora(args, *flags) -> tuple:
    """The corpus each of ``flags`` names, read in that order; None for a
    flag that was not given."""
    paths = [getattr(args, flag) for flag in flags]
    return tuple(None if path is None else read_corpus(path) for path in paths)


def _read_transfer_inputs(args):
    """The ontologies and corpora of ``adapt`` and ``curve`` in the order
    ``run_experiment`` takes them, and the ``--test`` corpus or None."""
    target_ontology = _load_ontology(args.ontology)
    source_ontology = (
        _load_ontology(args.source_ontology) if args.source_ontology else None
    )
    train, valid, source_train, source_valid, test = _read_corpora(
        args, "train", "valid", "source_train", "source_valid", "test"
    )
    return (source_ontology, target_ontology, source_train, source_valid, train, valid), test


def _cmd_adapt(args) -> int:
    _check_source_flags(args, args.preset)
    config = _training_config(args)
    inputs, test = _read_transfer_inputs(args)
    result = models.run_experiment(args.preset, *inputs, config, subset=args.subset)
    return _finish_run(
        args, result.model, config,
        {f"{phase}_log": log for phase, log in result.logs.items()}, test,
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
    _write_outputs(args, {"decoded.txt": format_corpus(decoded)})
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
    _write_outputs(args, _eval_files(report))
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
    lines = [
        f"{block}\t{err:.6e}" for block, err in sorted(report.block_errors.items())
    ]
    lines.append(f"max\t{report.max_relative_error:.6e}")
    lines.append("PASS" if report.passed else "FAIL")
    # a FAIL is a finding, so its report is written too
    _write_outputs(args, {"gradcheck.txt": "\n".join(lines) + "\n"})
    return 0 if report.passed else 2


def _cmd_curve(args) -> int:
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    for system in systems:
        if system not in PRESETS:
            raise UsageError(f"unknown system {system!r}; choose from {sorted(PRESETS)}")
        _check_source_flags(args, system)
    sizes = _parse_sizes(args.sizes)
    config = _training_config(args)
    inputs, test = _read_transfer_inputs(args)
    rows = ["system\tsize\tf1"]
    for system, size, result in models.learning_curve(systems, sizes, *inputs, config):
        report = models.evaluate_model(result.model, test)
        label = "all" if size is None else str(size)
        rows.append(f"{system}\t{label}\t{report.f1:.2f}")
    table = "\n".join(rows)
    print(table)
    _write_outputs(args, {"curve.tsv": table + "\n"})
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
    p.add_argument("--keep-dims", type=_positive_int, required=True)
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
