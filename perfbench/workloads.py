"""The benchmark's three workloads.

Each workload builds its inputs from the built-in flight grammar at seeds
derived from the benchmark seed, then exposes

* ``setup()``: input generation (and, for ``decode``, training and saving
  the bundles); run several times per run, and returns figures measured
  while setting up;
* ``round()``: the timed operations, repeated in whole rounds; returns a
  ``Round`` with the round's figures, operation counts, predictions and
  the output checks, which the runner calls after the round so that a
  traced round traces only the timed operations;
* ``final_checks()``: checks too slow to repeat every round;
* ``trace_checks(calls)``: checks on the traced per-round call counts.

Every check compares against a computation made here, apart from the
package (``oracle``), or against a property the method must have.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from atomslot import cli, corpus, evaluation, models, neural, ontology
from atomslot.models import AC, ACD_KINDS, PRESETS
from atomslot.neural import TrainingConfig

import oracle


@dataclass
class Round:
    figures: dict[str, float]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    predictions: list[tuple[str, ...]] = field(default_factory=list)
    checks: list = field(default_factory=list)  # callables returning problems

    def run_checks(self) -> list[str]:
        for check in self.checks:
            self.problems.extend(check())
        self.checks = []
        return self.problems


def _corpus_seed(seed: int, k: int) -> int:
    """Seed of the k-th corpus drawn for benchmark seed ``seed``."""
    return (seed % 2**32) * 100 + k


def _cache_key(system: str, source_ontology):
    """The source-model cache key ``atomslot curve`` uses."""
    kind, uses_source = PRESETS[system]
    if not uses_source:
        return None
    stage1 = AC if kind in ACD_KINDS else kind
    return (stage1, 1 if kind in ACD_KINDS else source_ontology.depth)


def _sentence_updates(result, phase_sizes: dict[str, int]) -> int:
    """Sentences x epochs x candidates over the phases the run trained."""
    return sum(
        phase_sizes[phase] * sum(len(c.epochs) for c in log.candidates)
        for phase, log in result.logs.items()
    )


class _Base:
    name = ""
    setup_repeats = 15

    def __init__(self, seed: int, sizes: dict, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.grammar, self.ontology = corpus.builtin_flight_grammar()
        self.source_ontology, self.mapping = ontology.collapse_ontology(self.ontology, 1)
        self.slots = oracle.slot_names(
            self.ontology.branches, [d.atoms for d in self.ontology.dimensions]
        )

    def _corpora(self):
        s, g, o = self.sizes, self.grammar, self.ontology
        self.source_train = corpus.relabel_collapse(
            corpus.generate_synthetic(g, o, s["source"], _corpus_seed(self.seed, 1), "source"),
            self.mapping,
        )
        self.source_valid = corpus.relabel_collapse(
            corpus.generate_synthetic(
                g, o, s["source_valid"], _corpus_seed(self.seed, 2), "validation"
            ),
            self.mapping,
        )
        self.target_pool = corpus.generate_synthetic(
            g, o, s["target"], _corpus_seed(self.seed, 3), "target"
        )
        self.target_valid = corpus.generate_synthetic(
            g, o, s["target_valid"], _corpus_seed(self.seed, 4), "validation"
        )
        self.test = corpus.generate_synthetic(g, o, s["test"], _corpus_seed(self.seed, 5), "test")

    def _score(self, model, data, what: str, rnd: Round):
        """Tag and score ``data`` as ``evaluate_model`` does; returns the
        package's F1 and the seconds spent tagging.  The checks of the
        tags and of the score are added to ``rnd``."""
        started = time.perf_counter()
        prepared, _ = corpus.preprocess(data, model.vocab)
        predicted = models.predict_corpus(model, prepared)
        elapsed = time.perf_counter() - started
        report = evaluation.evaluate(data, predicted)
        rnd.predictions.extend(predicted)
        rnd.checks.append(lambda: self._check_scored(data, predicted, report, what))
        return report.f1, elapsed

    def _check_scored(self, data, predicted, report, what) -> list[str]:
        problems = self._check_tags(data, predicted, what)
        counts = oracle.chunk_counts(zip((u.tags for u in data), predicted))
        if not oracle.agrees_with(report, counts):
            problems.append(
                f"{what}: package scorer {report.overall} disagrees with "
                f"the oracle {counts}"
            )
        return problems

    def _check_tags(self, data, predicted, what) -> list[str]:
        if len(predicted) != len(data):
            return [f"{what}: {len(predicted)} predictions for {len(data)} sentences"]
        for i, (u, tags) in enumerate(zip(data, predicted)):
            problems = oracle.tag_problems(u.tokens, tags, self.slots)
            if problems:
                return [f"{what} sentence {i}: {problems[0]}"]
        return []

    def final_checks(self) -> list[str]:
        return []

    def trace_checks(self, calls: dict[str, float]) -> list[str]:
        return []


# ---------------------------------------------------------------------------

class Transfer(_Base):
    """One learning-curve seed at the acceptance configuration."""

    name = "transfer"
    systems = ("JS_T", "JS_TS", "AC_TS", "ACD_TS_1")

    def config(self) -> TrainingConfig:
        s = self.sizes
        return TrainingConfig(
            learning_rate=0.08, epochs=s["epochs"], dropout=0.1,
            emb_dim=s["hidden"], hidden=s["hidden"], seed=self.seed,
        )

    def setup(self) -> dict[str, float]:
        self._corpora()
        self.perturbed = corpus.perturb_test_set(
            corpus.subset_corpus(self.target_pool, self.sizes["subset"], self.seed),
            self.test, self.ontology, self.seed,
        )
        return {}

    def round(self) -> Round:
        config = self.config()
        rnd = Round({})
        phase_sizes = {
            "source": len(self.source_train),
            "target": min(self.sizes["subset"], len(self.target_pool)),
        }
        cache = {}
        f1 = {}
        updates = 0
        train_s = tag_s = 0.0
        tagged = 0
        started = time.perf_counter()
        for system in self.systems:
            key = _cache_key(system, self.source_ontology)
            rnd.attempted += 3
            t = time.perf_counter()
            try:
                result = models.run_experiment(
                    system, self.source_ontology, self.ontology,
                    self.source_train, self.source_valid,
                    self.target_pool, self.target_valid,
                    config, subset=self.sizes["subset"],
                    source_model=cache.get(key) if key is not None else None,
                )
            except Exception as exc:  # counted, and the round goes on
                rnd.failed += 3
                rnd.problems.append(f"{system}: {type(exc).__name__}: {exc}")
                continue
            train_s += time.perf_counter() - t
            updates += _sentence_updates(result, phase_sizes)
            if key is not None and result.source_model is not None:
                cache[key] = result.source_model
            for data, what in ((self.test, "test"), (self.perturbed, "unseen")):
                try:
                    score, seconds = self._score(
                        result.model, data, f"{system} {what}", rnd
                    )
                except Exception as exc:
                    rnd.failed += 1
                    rnd.problems.append(f"{system} {what}: {type(exc).__name__}: {exc}")
                    continue
                tag_s += seconds
                tagged += len(data)
                rnd.figures[f"f1_{what}_{system}"] = score
                if what == "test":
                    f1[system] = score
        rnd.figures["experiment_s"] = time.perf_counter() - started
        rnd.figures["train_sents_per_s"] = updates / train_s if train_s else 0.0
        rnd.figures["decode_sents_per_s"] = tagged / tag_s if tag_s else 0.0
        for system in ("ACD_TS_1", "AC_TS", "JS_TS"):
            if system in f1 and "JS_T" in f1 and not f1[system] > f1["JS_T"]:
                rnd.problems.append(
                    f"{system} test F1 {f1[system]:.2f} does not beat "
                    f"JS_T {f1['JS_T']:.2f} at {self.sizes['subset']} sentences"
                )
        return rnd

    def trace_checks(self, calls):
        if calls.get("models.gather_sequence", 0) == 0:
            return ["the ACD two-stage path gathered no sentence"]
        return []


# ---------------------------------------------------------------------------

class GridAdapt(_Base):
    """``run_experiment("AC_TS")`` at the CLI defaults, 5-rate grid."""

    name = "grid-adapt"

    def config(self) -> TrainingConfig:
        s = self.sizes
        return TrainingConfig(
            epochs=s["epochs"], seed=self.seed,
            emb_dim=s["hidden"], hidden=s["hidden"],
        )

    def setup(self) -> dict[str, float]:
        self._corpora()
        self.target_train = corpus.subset_corpus(
            self.target_pool, self.sizes["subset"], self.seed
        )
        return {}

    def planned_updates(self) -> int:
        config = self.config()
        return (
            (len(self.source_train) + len(self.target_train))
            * config.epochs * len(config.grid())
        )

    def round(self) -> Round:
        config = self.config()
        rnd = Round({}, attempted=2)
        started = time.perf_counter()
        try:
            result = models.run_experiment(
                "AC_TS", self.source_ontology, self.ontology,
                self.source_train, self.source_valid,
                self.target_train, self.target_valid, config,
            )
        except Exception as exc:
            rnd.failed = 2
            rnd.problems.append(f"AC_TS: {type(exc).__name__}: {exc}")
            return rnd
        train_s = time.perf_counter() - started
        phase_sizes = {"source": len(self.source_train), "target": len(self.target_train)}
        updates = _sentence_updates(result, phase_sizes)
        try:
            _, tag_s = self._score(result.model, self.test, "test", rnd)
        except Exception as exc:
            rnd.failed += 1
            rnd.problems.append(f"test: {type(exc).__name__}: {exc}")
            tag_s = 0.0
        rnd.figures["experiment_s"] = time.perf_counter() - started
        rnd.figures["train_sents_per_s"] = updates / train_s
        rnd.figures["decode_sents_per_s"] = len(self.test) / tag_s if tag_s else 0.0
        if updates != self.planned_updates():
            rnd.problems.append(
                f"{updates} sentence updates logged, {self.planned_updates()} planned"
            )
        rnd.checks.append(lambda: self._check_logs(result, config))
        self.result = result
        return rnd

    def _check_logs(self, result, config) -> list[str]:
        problems = []
        valid_sets = {
            "source": (result.source_model, self.source_valid),
            "target": (result.model, self.target_valid),
        }
        for phase, log in result.logs.items():
            if len(log.candidates) != len(config.grid()):
                problems.append(f"{phase}: {len(log.candidates)} candidates trained")
            for ci, cand in enumerate(log.candidates):
                if len(cand.epochs) != config.epochs:
                    problems.append(f"{phase} candidate {ci}: {len(cand.epochs)} epochs")
                elif not cand.epochs[-1].train_loss < cand.initial_loss:
                    problems.append(
                        f"{phase} candidate {ci}: last-epoch loss "
                        f"{cand.epochs[-1].train_loss:.4f} is not below the "
                        f"initial {cand.initial_loss:.4f}"
                    )
            scores = [c.best_f1 for c in log.candidates]
            best = scores.index(max(scores))
            if log.chosen != best:
                problems.append(
                    f"{phase}: chose candidate {log.chosen}, the highest "
                    f"validation F1 is candidate {best}'s"
                )
            model, valid = valid_sets[phase]
            prepared, _ = corpus.preprocess(valid, model.vocab)
            counts = oracle.chunk_counts(
                zip((u.tags for u in valid), models.predict_corpus(model, prepared))
            )
            if abs(oracle.f1_of(counts) - log.best.best_f1) > 1e-9:
                problems.append(
                    f"{phase}: returned model scores {oracle.f1_of(counts):.4f} on "
                    f"validation, the log says {log.best.best_f1:.4f}"
                )
        return problems

    def final_checks(self) -> list[str]:
        """Random gradient coordinates of the trained model against central
        differences of ``neural.sequence_loss`` (dropout off)."""
        model = self.result.model
        prepared, _ = corpus.preprocess(self.target_train, model.vocab)
        heads = [h.labels for h in model.stage1.heads]
        batch = []
        for u in list(prepared)[:4]:
            gold = []
            for d, labels in enumerate(heads):
                index = {label: i for i, label in enumerate(labels)}
                row = []
                for tag in u.tags:
                    if d == 0:
                        row.append(index[tag[0]])
                    elif tag == "O":
                        row.append(index["null"])
                    else:
                        row.append(index[self.ontology.branches[tag[2:]][d - 1]])
                gold.append(np.asarray(row, dtype=np.int64))
            batch.append((model.vocab.encode(u.tokens), tuple(gold)))
        params = model.stage1.copy()
        _, grads = neural.loss_and_gradients(params, batch)
        pairs = list(zip(params.blocks(), grads.blocks()))
        rng = np.random.default_rng(self.seed)
        epsilon = 1e-5
        problems = []
        for _ in range(8):
            (name, p), (_, g) = pairs[int(rng.integers(len(pairs)))]
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            index = int(rng.integers(flat_p.size))
            original = flat_p[index]
            flat_p[index] = original + epsilon
            above = neural.sequence_loss(params, batch)
            flat_p[index] = original - epsilon
            below = neural.sequence_loss(params, batch)
            flat_p[index] = original
            numeric = (above - below) / (2 * epsilon)
            analytic = flat_g[index]
            if abs(analytic - numeric) > 1e-5 * max(1.0, abs(analytic) + abs(numeric)):
                problems.append(
                    f"gradient {name}[{index}]: analytic {analytic:.8g}, "
                    f"central difference {numeric:.8g}"
                )
        return problems

    def trace_checks(self, calls):
        planned = self.planned_updates()
        if calls.get("neural.sgd_step", 0) != planned:
            return [f"{calls.get('neural.sgd_step', 0)} SGD steps, {planned} planned"]
        return []


# ---------------------------------------------------------------------------

class Decode(_Base):
    """``atomslot decode`` with one saved bundle of each kind."""

    name = "decode"
    setup_repeats = 3
    presets = (("js", "JS_T"), ("ac", "AC_T"), ("acd1", "ACD_TS_1"), ("acd2", "ACD_TS_2"))

    def config(self) -> TrainingConfig:
        s = self.sizes
        return TrainingConfig(
            learning_rate=0.04, epochs=s["epochs"], seed=self.seed,
            emb_dim=s["hidden"], hidden=s["hidden"],
        )

    def setup(self) -> dict[str, float]:
        self._corpora()
        self.test_path = os.path.join(self.workdir, "test.txt")
        corpus.write_corpus(self.test, self.test_path)
        config = self.config()
        phase_sizes = {
            "source": len(self.source_train),
            "target": min(self.sizes["subset"], len(self.target_pool)),
        }
        self.models = {}
        cache = {}
        updates = 0
        train_s = 0.0
        for label, preset in self.presets:
            key = _cache_key(preset, self.source_ontology)
            started = time.perf_counter()
            result = models.run_experiment(
                preset, self.source_ontology, self.ontology,
                self.source_train, self.source_valid,
                self.target_pool, self.target_valid, config,
                subset=self.sizes["subset"],
                source_model=cache.get(key) if key is not None else None,
            )
            train_s += time.perf_counter() - started
            updates += _sentence_updates(result, phase_sizes)
            if key is not None:
                cache[key] = result.source_model
            models.save_model(result.model, self._bundle(label), config)
            self.models[label] = result.model
        return {"train_sents_per_s": updates / train_s}

    def _bundle(self, label: str) -> str:
        return os.path.join(self.workdir, f"bundle_{label}")

    def round(self) -> Round:
        rnd = Round({})
        total_s = 0.0
        for label, _ in self.presets:
            out = os.path.join(self.workdir, f"decoded_{label}")
            argv = ["decode", "--model", self._bundle(label),
                    "--test", self.test_path, "--out", out]
            rnd.attempted += 1
            started = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run_command(argv)
            elapsed = time.perf_counter() - started
            if code != 0:
                rnd.failed += 1
                rnd.problems.append(f"decode {label}: exit code {code}")
                continue
            total_s += elapsed
            rnd.figures[f"decode_{label}_sents_per_s"] = len(self.test) / elapsed
            tokens, predicted = _read_tagged(os.path.join(out, "decoded.txt"))
            rnd.predictions.extend(predicted)
            rnd.checks.append(
                functools.partial(self._check_output, label, tokens, predicted)
            )
        rnd.figures["experiment_s"] = total_s
        rnd.figures["decode_sents_per_s"] = (
            len(self.test) * len(self.presets) / total_s if total_s else 0.0
        )
        return rnd

    def _check_output(self, label: str, tokens, predicted) -> list[str]:
        """Checks of one ``decoded.txt``, read as token and tag tuples."""
        if tokens != [u.tokens for u in self.test]:
            return [f"decode {label}: tokens differ from the input"]
        problems = self._check_scored(
            self.test, predicted, evaluation.evaluate(self.test, predicted),
            f"decode {label}",
        )
        model = self.models[label]
        sample = corpus.subset_corpus(self.test, self.sizes["reload_sample"], self.seed)
        prepared, _ = corpus.preprocess(sample, model.vocab)
        index = {u.tokens: i for i, u in enumerate(self.test)}
        for raw, u in zip(sample, prepared):
            if models.decode(model, u.tokens) != predicted[index[raw.tokens]]:
                problems.append(
                    f"decode {label}: the reloaded bundle tags {raw.tokens} "
                    "unlike the in-memory model"
                )
                break
        return problems

    def trace_checks(self, calls):
        problems = []
        for name in ("neural.loss_and_gradients", "neural.sgd_step",
                     "neural.sequence_loss", "models.train", "models.train_acd"):
            if calls.get(name, 0):
                problems.append(f"{name} ran {calls[name]} times while decoding")
        return problems


def _read_tagged(path: str):
    """Token and tag tuples per sentence of a ``token<TAB>tag`` file with a
    blank line between sentences."""
    tokens, tags = [], []
    with open(path, encoding="utf-8") as fh:
        for block in fh.read().split("\n\n"):
            pairs = [line.split("\t") for line in block.split("\n") if line]
            if pairs:
                tokens.append(tuple(p[0] for p in pairs))
                tags.append(tuple(p[1] for p in pairs))
    return tokens, tags


WORKLOADS = {w.name: w for w in (Transfer, GridAdapt, Decode)}

SIZES = {
    "transfer": dict(source=150, source_valid=40, target=300, target_valid=40,
                     test=150, subset=100, epochs=3, hidden=32),
    "grid-adapt": dict(source=60, source_valid=20, target=150, target_valid=20,
                       test=600, subset=30, epochs=2, hidden=100),
    "decode": dict(source=100, source_valid=20, target=150, target_valid=20,
                   test=1000, subset=80, epochs=2, hidden=100, reload_sample=20),
}

TINY = {
    "transfer": dict(source=30, source_valid=10, target=40, target_valid=10,
                     test=15, subset=20, epochs=1, hidden=8),
    "grid-adapt": dict(source=20, source_valid=8, target=30, target_valid=8,
                       test=10, subset=10, epochs=1, hidden=8),
    "decode": dict(source=20, source_valid=8, target=30, target_valid=8,
                   test=20, subset=15, epochs=1, hidden=8, reload_sample=5),
}
