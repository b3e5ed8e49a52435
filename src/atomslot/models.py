"""Slot taggers over atomic-concept trees.

Three factorizations share one BLSTM encoder recipe:

    JS    one softmax head over every IOB slot tag
    AC    an IOB head plus one independent head per concept dimension
    ACD*  a dimension-1 stage whose predictions feed a second stage that
          labels dimension 2 (ACD1 gathers predicted spans into bracketed
          concept tokens, ACD1U into one unified symbol, ACD2 concatenates
          a learned concept embedding to frozen word embeddings)

Transfer runs in four steps: initialize, train on the source task, extend
the output layers for the target ontology (`adjust_nn_arch`), fine-tune on
the target data.  Presets ending in ``_T`` skip the source steps.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
import types
from dataclasses import dataclass, field

import numpy as np

from . import neural, workers
from .corpus import (
    Corpus,
    CorpusError,
    TokenVocabulary,
    iob_to_spans,
    parse_tag,
    preprocess,
    subset_corpus,
)
from .evaluation import EvalReport, evaluate
from .neural import (
    ModelParams,
    ShapeSpec,
    TrainingConfig,
)
from .ontology import (
    NULL_ATOM,
    Ontology,
    OntologyError,
    branch_to_slot,
    format_ontology,
    ontology_diff,
    ontology_hash,
    parse_ontology,
)

JS = "JS"
AC = "AC"
ACD1 = "ACD1"
ACD1U = "ACD1U"
ACD2 = "ACD2"
KINDS = (JS, AC, ACD1, ACD1U, ACD2)
ACD_KINDS = (ACD1, ACD1U, ACD2)

IOB_LABELS = ("O", "B", "I")
UNIFIED_CONCEPT_TOKEN = "<CCC>"

# preset name -> (model kind, uses the source task)
PRESETS: dict[str, tuple[str, bool]] = {
    "JS_T": (JS, False),
    "AC_T": (AC, False),
    "JS_TS": (JS, True),
    "AC_TS": (AC, True),
    "ACD_TS_1": (ACD1, True),
    "ACD_TS_1U": (ACD1U, True),
    "ACD_TS_2": (ACD2, True),
}

MODEL_FORMAT = "atomslot-model v2"

_SALT_SOURCE = 11
_SALT_TARGET = 12
_SALT_STAGE2 = 13
_SALT_INIT = 101
_SALT_SHUFFLE = 201
_SALT_ADJUST = 301


class ModelError(Exception):
    """Base error for model assembly and training."""


class EmptyCorpus(ModelError):
    """A corpus that must carry utterances is empty."""


class LabelNotInOntology(ModelError):
    """A corpus tag names a slot the ontology does not register."""


class TrainingDiverged(ModelError):
    """Every learning-rate candidate met a non-finite gradient."""


# ---------------------------------------------------------------------------
# head layouts

def js_head_labels(ontology: Ontology) -> tuple[str, ...]:
    """``O`` first, then B/I tags per slot in sorted slot order."""
    labels = ["O"]
    for slot in sorted(ontology.branches):
        labels.append(f"B-{slot}")
        labels.append(f"I-{slot}")
    return tuple(labels)


def dim_head_labels(ontology: Ontology, dim: int) -> tuple[str, ...]:
    """``null`` first, then the dimension's atoms sorted.  ``dim`` is 0-based."""
    atoms = ontology.dimensions[dim].atoms
    return (NULL_ATOM,) + tuple(sorted(atoms - {NULL_ATOM}))


def _stage1_head_labels(
    kind: str, ontology: Ontology, dims_used: int
) -> tuple[tuple[str, ...], ...]:
    if kind == JS:
        return (js_head_labels(ontology),)
    return (IOB_LABELS,) + tuple(dim_head_labels(ontology, d) for d in range(dims_used))


def _index(labels) -> dict[str, int]:
    return {label: i for i, label in enumerate(labels)}


@dataclass
class TaggerModel:
    """A trained or trainable tagger; ACD kinds carry a second stage."""

    kind: str
    ontology: Ontology
    vocab: TokenVocabulary
    stage1: ModelParams
    dims_used: int = 0
    stage2: ModelParams | None = None
    stage2_vocab: TokenVocabulary | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")


# ---------------------------------------------------------------------------
# decoding: one batched path for every kind and every caller

def _offsets(items) -> np.ndarray:
    """Where each item's positions start in a stack of all of them, plus
    the total."""
    return np.cumsum([0] + [_item_length(ids) for ids in items], dtype=np.int64)


def _head_outputs(params: ModelParams, items) -> list[np.ndarray]:
    """Per head, stacked over the positions of all ``items`` in order, the
    index of the most probable class (ties to the lowest index).

    The BLSTM runs in equal-length groups.  Tagging needs only the argmax,
    which holds one integer per position instead of one float per class.
    """
    offsets = _offsets(items)
    outputs = [np.empty(offsets[-1], dtype=np.int64) for _ in params.heads]
    for members, features in neural.blstm_forward_batch(params, items):
        n = features.shape[1]
        rows = (offsets[members][:, None] + np.arange(n)).reshape(-1)
        flat = features.reshape(len(members) * n, -1)
        for out, head in zip(outputs, params.heads):
            out[rows] = neural.head_forward(head, flat).argmax(axis=1)
    return outputs


def _per_utterance(values, offsets) -> list:
    return [values[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def bracket_token(atom: str) -> str:
    return f"[{atom}]"


def gather_sequence(tokens, iob, dim1, unified: bool):
    """Collapse each predicted span of one non-null dimension-1 concept to a
    single concept token.

    Returns the gathered token list plus, per gathered position, the list
    of original positions it covers.
    """
    pseudo = [
        "O" if iob[t] == "O" or dim1[t] == NULL_ATOM else f"{iob[t]}-{dim1[t]}"
        for t in range(len(tokens))
    ]
    spans = {s.start: s for s in iob_to_spans(tokens, pseudo)}
    gathered: list[str] = []
    groups: list[list[int]] = []
    pos = 0
    while pos < len(tokens):
        span = spans.get(pos)
        if span is not None:
            gathered.append(
                UNIFIED_CONCEPT_TOKEN if unified else bracket_token(span.slot)
            )
            groups.append(list(range(span.start, span.end)))
            pos = span.end
        else:
            gathered.append(tokens[pos])
            groups.append([pos])
            pos += 1
    return gathered, groups


def _stage2_inputs(model: TaggerModel, token_seqs, word_ids, iobs, dim1s):
    """Stage-2 ids per utterance, and per stage-2 position the original
    positions it covers.

    ACD1/ACD1U gather the spans that the IOB and dimension-1 labels mark;
    ACD2 pairs every word with the id of its dimension-1 concept.
    """
    items, groups = [], []
    if model.kind == ACD2:
        concept_index = _index(model.stage1.heads[1].labels)
        for ids, dim1 in zip(word_ids, dim1s):
            n = len(ids)
            concept_ids = np.fromiter(
                (concept_index[a] for a in dim1), dtype=np.int64, count=n
            )
            items.append((ids, concept_ids))
            groups.append([[t] for t in range(n)])
        return items, groups
    unified = model.kind == ACD1U
    for tokens, iob, dim1 in zip(token_seqs, iobs, dim1s):
        gathered, covered = gather_sequence(tokens, iob, dim1, unified)
        items.append((model.stage2_vocab.encode(gathered),))
        groups.append(covered)
    return items, groups


def _label_seqs(labels, choices, offsets) -> list:
    """Per utterance, the labels of the chosen classes."""
    return _per_utterance(np.array(labels, dtype=object)[choices], offsets)


def _stage1_labels(model: TaggerModel, choices, offsets):
    """Per utterance, the chosen IOB prefixes and dimension-1 atoms."""
    heads = model.stage1.heads
    return (
        _label_seqs(heads[0].labels, choices[0], offsets),
        _label_seqs(heads[1].labels, choices[1], offsets),
    )


def _predict(model: TaggerModel, token_seqs):
    """Head labels, per-head argmaxes stacked over every position of
    ``token_seqs`` (see ``_head_outputs``), and each utterance's offset.

    Stage 1 runs over the whole batch; ACD kinds then build the stage-2
    inputs from the stage-1 argmaxes, run stage 2 over the whole batch and
    project its dimension-2 outputs back onto the original positions.
    """
    if model.kind in ACD_KINDS:
        if model.stage2 is None:
            raise ModelError("stage-2 parameters are missing; run adjust_nn_arch first")
        if model.ontology.depth != 2:
            raise ModelError("ACD decoding is defined for two-level ontologies")
    word_ids = [model.vocab.encode(tokens) for tokens in token_seqs]
    offsets = _offsets(word_ids)
    outputs = _head_outputs(model.stage1, word_ids)
    labels = [head.labels for head in model.stage1.heads]
    if model.kind in ACD_KINDS:
        iobs, dim1s = _stage1_labels(model, outputs, offsets)
        items, groups = _stage2_inputs(model, token_seqs, word_ids, iobs, dim1s)
        sizes = [len(positions) for covered in groups for positions in covered]
        stage2 = _head_outputs(model.stage2, items)[0]
        outputs.append(stage2[np.repeat(np.arange(len(sizes)), sizes)])
        labels.append(model.stage2.heads[0].labels)
    return tuple(labels), outputs, offsets


def _assemble_tags(model: TaggerModel, labels, choices, offsets) -> list[tuple[str, ...]]:
    """Tags from the chosen class of every head at every position.

    JS reads the joint tag head directly.  AC and ACD take the IOB head and
    one head per dimension componentwise: maximizing each factor
    independently maximizes the product of the head probabilities, so this
    is the top-best hypothesis.  Unregistered branches keep their canonical
    name and simply score as wrong.
    """
    if model.kind == JS:
        return [tuple(tags) for tags in _label_seqs(labels[0], choices[0], offsets)]
    chosen = [np.array(l, dtype=object)[c] for l, c in zip(labels, choices)]
    # one string per distinct (IOB, branch), shared by every position
    memo: dict[tuple, str] = {}
    tags = []
    for key in zip(*chosen):
        tag = memo.get(key)
        if tag is None:
            iob, *branch = key
            tag = memo[key] = (
                "O" if iob == "O" else f"{iob}-{branch_to_slot(model.ontology, tuple(branch))}"
            )
        tags.append(tag)
    return [tuple(t) for t in _per_utterance(tags, offsets)]


def decode(model: TaggerModel, tokens) -> tuple[str, ...]:
    """Tags of one utterance, through the same path as ``predict_corpus``."""
    return _assemble_tags(model, *_predict(model, [tokens]))[0]


def predict_corpus(model: TaggerModel, corpus: Corpus) -> list[tuple[str, ...]]:
    """Tags of every utterance, with each stage batched over the corpus."""
    token_seqs = [u.tokens for u in corpus]
    return _assemble_tags(model, *_predict(model, token_seqs))


def evaluate_model(model: TaggerModel, corpus: Corpus) -> EvalReport:
    """Preprocess with the model's vocabulary, decode, and score."""
    prepared, _ = preprocess(corpus, model.vocab)
    return evaluate(corpus, predict_corpus(model, prepared))


# ---------------------------------------------------------------------------
# gold-label encoding

def gold_branches(
    ontology: Ontology, utterance
) -> tuple[list[str], list[tuple[str, ...]]]:
    """The gold IOB prefix and branch at every position of a tagged
    utterance; ``O`` positions get the all-null branch.  A tag naming a
    slot the ontology does not register raises LabelNotInOntology."""
    outside = (NULL_ATOM,) * ontology.depth
    prefixes, branches = [], []
    for tag in utterance.tags:
        prefix, slot = parse_tag(tag)
        prefixes.append(prefix)
        if prefix == "O":
            branches.append(outside)
            continue
        branch = ontology.branches.get(slot)
        if branch is None:
            raise LabelNotInOntology(f"slot {slot!r} is not in the ontology")
        branches.append(branch)
    return prefixes, branches


def _label_ids(index: dict[str, int], labels, head: str) -> np.ndarray:
    """Class ids of ``labels`` in one head; a label the head lacks raises
    LabelNotInOntology."""
    try:
        return np.fromiter(
            (index[label] for label in labels), dtype=np.int64, count=len(labels)
        )
    except KeyError as exc:
        raise LabelNotInOntology(
            f"label {exc.args[0]!r} is missing from the {head} head"
        ) from None


# ---------------------------------------------------------------------------
# training

@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_f1: float


@dataclass
class CandidateLog:
    learning_rate: float
    initial_loss: float
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_f1: float | None = None
    # the epoch in which a gradient went non-finite; training stopped there
    diverged_epoch: int | None = None


@dataclass
class TrainLog:
    candidates: list[CandidateLog]
    chosen: int

    @property
    def best(self) -> CandidateLog:
        return self.candidates[self.chosen]


def format_train_log(log: TrainLog) -> str:
    lines = ["candidate\tlr\tepoch\ttrain_loss\tvalid_f1"]
    for ci, cand in enumerate(log.candidates):
        lines.append(f"{ci}\t{cand.learning_rate:g}\t0\t{cand.initial_loss:.6f}\t-")
        for stats in cand.epochs:
            lines.append(
                f"{ci}\t{cand.learning_rate:g}\t{stats.epoch}"
                f"\t{stats.train_loss:.6f}\t{stats.valid_f1:.2f}"
            )
        if cand.diverged_epoch is not None:
            lines.append(
                f"{ci}\t{cand.learning_rate:g}\t{cand.diverged_epoch}\tdiverged\t-"
            )
    lines.append(f"# chosen candidate: {log.chosen}")
    return "\n".join(lines)


def _require_nonempty(corpus: Corpus, what: str) -> None:
    if len(corpus) == 0:
        raise EmptyCorpus(f"the {what} corpus is empty")


def _item_length(ids) -> int:
    return len(ids[0]) if isinstance(ids, tuple) else len(ids)


def _mean_loss(params: ModelParams, encoded) -> float:
    if not encoded:
        return 0.0
    total = neural.sequence_loss(params, encoded)
    return total / len(encoded)


def _run_candidate(ci, lr, start, encoded, valid_f1, config: TrainingConfig,
                   rng_salt: int, shared_loss):
    """Train grid candidate ``ci`` at learning rate ``lr``; returns its log
    and its best snapshot.

    ``start`` is a template to copy, whose mean loss ``shared_loss`` the
    caller computed once, or a function drawing fresh parameters from the
    candidate's RNG.  The candidate draws from its own RNG stream; shuffling
    depends only on (seed, epoch), so every candidate sees the same data
    order.  A gradient that goes non-finite stops the candidate there; it
    is logged as diverged and keeps its best snapshot so far.
    """
    rng = neural.rng_stream(config.seed, _SALT_INIT, rng_salt, ci)
    if shared_loss is None:
        params = start(rng)
        log = CandidateLog(lr, _mean_loss(params, encoded))
    else:
        params = start.copy()
        log = CandidateLog(lr, shared_loss)
    best_params = params.copy()
    for epoch in range(1, config.epochs + 1):
        order = neural.rng_stream(config.seed, _SALT_SHUFFLE, epoch).permutation(
            len(encoded)
        )
        total = 0.0
        try:
            for i in order:
                ids, gold = encoded[i]
                masks = neural.make_dropout_masks(
                    rng, config.dropout, _item_length(ids),
                    params.input_dim, params.hidden,
                )
                loss, grads = neural.loss_and_gradients(
                    params, [(ids, gold)], [masks] if masks is not None else None
                )
                neural.sgd_step(params, grads, lr)
                total += loss
        except neural.NonFiniteGradient:
            log.diverged_epoch = epoch
            break
        f1 = valid_f1(params)
        log.epochs.append(EpochStats(epoch, total / len(encoded), f1))
        if log.best_f1 is None or f1 > log.best_f1:
            log.best_f1 = f1
            log.best_epoch = epoch
            best_params = params.copy()
    return log, best_params


def _worker_count(rates: int) -> int:
    """Processes that train a grid of ``rates`` candidates: one per usable
    CPU, at most one per candidate.  One means in process, as for a single
    rate or a single CPU, and also when a function the candidates call has
    been replaced at run time (a profiler's wrapper, a test's stand-in),
    which a worker importing the package afresh would not see."""
    if any(getattr(module, name) is not fn for (module, name), fn in _CANDIDATE_CALLS.items()):
        return 1
    return min(rates, workers.usable_cpus())


def _fit(start, encoded, valid_f1, config: TrainingConfig, rng_salt: int):
    """Grid search over learning rates with per-epoch validation snapshots.

    ``start`` is either a template every candidate copies, whose initial
    loss is then computed once, or a function drawing fresh parameters from
    the candidate's RNG (see ``_run_candidate``).  With two or more
    candidates and CPUs, the candidates train in worker processes
    (``workers.run``), each with single-threaded BLAS; results do not
    depend on where they ran.  The best validation F1 wins, ties going to
    the earlier grid entry, whatever order the candidates finish in.  Only
    when every candidate diverges does training fail.
    """
    grid = config.grid()
    shared_loss = _mean_loss(start, encoded) if isinstance(start, ModelParams) else None
    shared = (start, encoded, valid_f1, config, rng_salt, shared_loss)
    count = _worker_count(len(grid))
    if count > 1:
        results = workers.run(count, _run_candidate, shared, list(enumerate(grid)))
    else:
        results = ((ci, _run_candidate(ci, lr, *shared)) for ci, lr in enumerate(grid))
    candidates: list[CandidateLog] = [None] * len(grid)
    chosen_key = chosen_params = None
    for ci, (log, best_params) in results:
        candidates[ci] = log
        key = (log.best_f1 if log.best_f1 is not None else float("-inf"), -ci)
        if chosen_key is None or key > chosen_key:
            chosen_key, chosen_params = key, best_params
    if all(c.diverged_epoch is not None for c in candidates):
        rates = ", ".join(f"{c.learning_rate:g}" for c in candidates)
        raise TrainingDiverged(f"every learning-rate candidate diverged ({rates})")
    return chosen_params, TrainLog(candidates, -chosen_key[1])


def _fresh_params(shape: ShapeSpec, init_range: float, rng) -> ModelParams:
    return neural.init_params(shape, rng, init_range)


def _valid_f1(model: TaggerModel, stage: str, valid_corpus: Corpus, params) -> float:
    """Validation F1 of ``model`` with ``params`` as its ``stage``."""
    probe = dataclasses.replace(model, **{stage: params})
    return evaluate(valid_corpus, predict_corpus(probe, valid_corpus)).f1


# what a candidate calls, as the package defines it (see ``_worker_count``)
_CANDIDATE_CALLS = {
    (module, name): getattr(module, name)
    for module, names in (
        (neural, ("init_params", "make_dropout_masks", "loss_and_gradients",
                  "sgd_step", "sequence_loss")),
        (sys.modules[__name__], ("predict_corpus", "evaluate")),
    )
    for name in names
}


def train(
    kind: str,
    ontology: Ontology,
    train_corpus: Corpus,
    valid_corpus: Corpus,
    config: TrainingConfig,
    *,
    dims_used: int | None = None,
    initial: TaggerModel | None = None,
    rng_salt: int = _SALT_TARGET,
) -> tuple[TaggerModel, TrainLog]:
    """Train a JS or AC tagger (ACD variants are assembled by ``adapt``).

    Corpora must be preprocessed.  When ``initial`` is given its parameters
    seed every grid candidate (fine-tuning); otherwise parameters start
    uniform in +-init_range and the vocabulary is read off the training
    corpus.
    """
    if kind not in (JS, AC):
        raise ModelError(
            f"train() handles {JS} and {AC}; {kind!r} models are built by adapt()"
        )
    _require_nonempty(train_corpus, "training")
    _require_nonempty(valid_corpus, "validation")
    if initial is not None:
        if initial.kind != kind:
            raise ModelError(f"initial model is {initial.kind}, expected {kind}")
        vocab = initial.vocab
        dims_used = initial.dims_used
        head_labels = tuple(head.labels for head in initial.stage1.heads)
        start = initial.stage1
    else:
        if dims_used is None:
            dims_used = ontology.depth if kind == AC else 0
        vocab = TokenVocabulary.from_corpus(train_corpus)
        head_labels = _stage1_head_labels(kind, ontology, dims_used)
        shape = ShapeSpec(
            tables=((len(vocab), config.emb_dim),),
            hidden=config.hidden,
            heads=head_labels,
        )
        start = functools.partial(_fresh_params, shape, config.init_range)
    maps = [_index(labels) for labels in head_labels]
    encoded = []
    for u in train_corpus:
        ids = vocab.encode(u.tokens)
        if kind == JS:
            gold = (_label_ids(maps[0], u.tags, "joint-slot"),)
        else:
            prefixes, branches = gold_branches(ontology, u)
            gold = (_label_ids(maps[0], prefixes, "IOB"),) + tuple(
                _label_ids(maps[d + 1], [b[d] for b in branches], f"dimension-{d + 1}")
                for d in range(dims_used)
            )
        encoded.append((ids, gold))
    # stage 1 is each candidate's own
    model = TaggerModel(kind, ontology, vocab, None, dims_used)
    valid_f1 = functools.partial(_valid_f1, model, "stage1", valid_corpus)
    best_params, log = _fit(start, encoded, valid_f1, config, rng_salt)
    return dataclasses.replace(model, stage1=best_params), log


def train_acd(
    ontology: Ontology,
    model: TaggerModel,
    train_corpus: Corpus,
    valid_corpus: Corpus,
    config: TrainingConfig,
) -> tuple[TaggerModel, TrainLog]:
    """Train the stage-2 labeler of an ACD model; stage 1 stays frozen.

    Stage-2 inputs come from stage-1 predictions on the training corpus
    (computed once, since stage 1 does not move).  With
    ``config.teacher_forcing`` the gold IOB and dimension-1 labels shape
    the inputs instead.  The gold dimension-2 label of a gathered span is
    read at the span's first original position.
    """
    if model.kind not in ACD_KINDS:
        raise ModelError(f"train_acd needs an ACD model, got {model.kind}")
    if model.stage2 is None:
        raise ModelError("stage-2 parameters are missing; run adjust_nn_arch first")
    if ontology.depth != 2:
        raise ModelError("ACD training is defined for two-level ontologies")
    _require_nonempty(train_corpus, "training")
    _require_nonempty(valid_corpus, "validation")
    dim2_map = _index(model.stage2.heads[0].labels)
    token_seqs = [u.tokens for u in train_corpus]
    word_ids = [model.vocab.encode(tokens) for tokens in token_seqs]
    gold = [gold_branches(ontology, u) for u in train_corpus]
    if config.teacher_forcing:
        iobs = [prefixes for prefixes, _ in gold]
        dim1s = [[b[0] for b in branches] for _, branches in gold]
    else:
        choices = _head_outputs(model.stage1, word_ids)
        iobs, dim1s = _stage1_labels(model, choices, _offsets(word_ids))
    items, groups = _stage2_inputs(model, token_seqs, word_ids, iobs, dim1s)
    encoded = []
    for (_, branches), ids, covered in zip(gold, items, groups):
        gold_ids = _label_ids(dim2_map, [b[1] for b in branches], "dimension-2")
        firsts = np.array([positions[0] for positions in covered], dtype=np.int64)
        encoded.append((ids, (gold_ids[firsts],)))

    # stage 2 is each candidate's own
    base = dataclasses.replace(model, ontology=ontology, stage2=None)
    valid_f1 = functools.partial(_valid_f1, base, "stage2", valid_corpus)
    best_stage2, log = _fit(model.stage2, encoded, valid_f1, config, _SALT_STAGE2)
    return dataclasses.replace(base, stage2=best_stage2), log


# ---------------------------------------------------------------------------
# architecture adjustment and the four-step adaptation

def _grown(labels, new_labels) -> tuple[str, ...]:
    """``labels`` followed by those of ``new_labels`` it lacks, in order."""
    return tuple(labels) + tuple(label for label in new_labels if label not in labels)


def _build_stage2(model, target_ontology, rng, init_range, concept_emb_dim):
    """Fresh stage-2 BLSTM.  ACD1/ACD1U reuse the stage-1 word embeddings
    (frozen) and add trainable rows for the concept tokens; ACD2 freezes
    the whole word table and adds a learned concept-embedding channel."""
    stage1 = model.stage1
    word = stage1.tables[0]
    stage2_vocab = None
    if model.kind in (ACD1, ACD1U):
        if model.kind == ACD1U:
            extra = [UNIFIED_CONCEPT_TOKEN]
        else:
            concepts = sorted(target_ontology.dimensions[0].atoms - {NULL_ATOM})
            extra = [bracket_token(c) for c in concepts]
        stage2_vocab = model.vocab.extended(extra)
        n_new = len(stage2_vocab) - len(model.vocab)
        tables = ((word.rows + n_new, word.cols),)
        frozen = (len(model.vocab),)
    else:
        concepts = len(stage1.heads[1].labels)
        tables = ((word.rows, word.cols), (concepts, concept_emb_dim))
        frozen = (word.rows,)
    stage2 = ModelParams(
        ShapeSpec(tables, stage1.hidden, (dim_head_labels(target_ontology, 1),), frozen)
    )
    first = stage2.tables[0].weights
    first[:word.rows] = word.weights
    # draw order: the new rows or the concept table, then the BLSTM and head
    fresh = [first[word.rows:] if stage2_vocab is not None else stage2.tables[1].weights]
    fresh += [block for name, block in stage2.blocks() if not name.startswith("table")]
    for block in fresh:
        block[...] = rng.uniform(-init_range, init_range, size=block.shape)
    return stage2, stage2_vocab


def adjust_nn_arch(
    model: TaggerModel,
    source_ontology: Ontology,
    target_ontology: Ontology,
    seed: int,
    init_range: float = 0.2,
    concept_emb_dim: int = 20,
) -> TaggerModel:
    """Extend the output layers for the target ontology.

    New classes get fresh uniform rows; every pre-existing parameter is
    preserved bit-exactly, so old-class logits cannot move.  ACD kinds
    additionally receive a fresh stage-2 BLSTM.  The extended stage 1 is
    a new ``ModelParams`` whose heads hold their old rows, then the new
    ones; the new rows are drawn head by head in index order, weights
    before biases.
    """
    diff = ontology_diff(source_ontology, target_ontology)
    rng = neural.rng_stream(seed, _SALT_ADJUST)
    stage1 = model.stage1
    heads = [head.labels for head in stage1.heads]
    dims_used = model.dims_used
    if model.kind == JS:
        new_slots = sorted(target_ontology.reverse[b] for b in diff.new_branches)
        heads[0] = _grown(heads[0], [f"{p}-{s}" for s in new_slots for p in ("B", "I")])
    elif model.kind == AC:
        for d in range(dims_used):
            heads[d + 1] = _grown(heads[d + 1], sorted(diff.new_atoms[d]))
        heads += [dim_head_labels(target_ontology, d)
                  for d in range(dims_used, target_ontology.depth)]
        dims_used = target_ontology.depth
    else:
        # ACD kinds: extend the dimension-1 head, then build stage 2
        if target_ontology.depth != 2:
            raise ModelError("ACD adjustment is defined for two-level target ontologies")
        heads[1] = _grown(heads[1], sorted(diff.new_atoms[0]))
    grown = ModelParams(dataclasses.replace(stage1.shape, heads=tuple(heads)))
    for new, old in zip(grown.tables, stage1.tables):
        new.weights[...] = old.weights
    grown.cells_w[...] = stage1.cells_w
    grown.cells_b[...] = stage1.cells_b
    for j, head in enumerate(grown.heads):
        k = len(stage1.heads[j].labels) if j < len(stage1.heads) else 0
        if k:
            head.w[:k] = stage1.heads[j].w
            head.b[:k] = stage1.heads[j].b
        head.w[k:] = rng.uniform(-init_range, init_range, size=head.w[k:].shape)
        head.b[k:] = rng.uniform(-init_range, init_range, size=head.b[k:].shape)
    out = dataclasses.replace(
        model, ontology=target_ontology, stage1=grown, dims_used=dims_used,
        stage2=model.stage2.copy() if model.stage2 is not None else None,
    )
    if model.kind in ACD_KINDS and (out.stage2 is None or not diff.is_empty):
        out.stage2, out.stage2_vocab = _build_stage2(
            out, target_ontology, rng, init_range, concept_emb_dim
        )
    return out


def source_step(kind: str, source_ontology: Ontology) -> tuple[str, int]:
    """``(kind, dims_used)`` of the source model a ``*_TS`` preset of ``kind``
    trains: AC over dimension 1 for ACD kinds, else ``kind`` over every
    source dimension (none for JS, which has no dimension heads)."""
    if kind in ACD_KINDS:
        return AC, 1
    return kind, source_ontology.depth if kind == AC else 0


@dataclass
class AdaptResult:
    preset: str
    model: TaggerModel
    logs: dict[str, TrainLog]
    # the source-task model (trained here or passed in); reusable across
    # presets whose source step is identical
    source_model: TaggerModel | None = None


def adapt(
    preset: str,
    source_ontology: Ontology | None,
    target_ontology: Ontology,
    source_train: Corpus | None,
    source_valid: Corpus | None,
    target_train: Corpus,
    target_valid: Corpus,
    config: TrainingConfig,
    source_model: TaggerModel | None = None,
) -> AdaptResult:
    """Run the four-step adaptation for one preset.

    Steps: initialize, train on the source task, adjust the architecture
    to the target ontology, fine-tune on the target data.  ``*_T`` presets
    skip the source steps.  An empty target training set stops after the
    adjustment, returning the source-trained model.  ``source_model``
    optionally replaces step 2 with an already-trained source model; its
    kind and ``dims_used`` must be ``source_step``'s, or ModelError.
    """
    if preset not in PRESETS:
        raise ModelError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    kind, uses_source = PRESETS[preset]
    logs: dict[str, TrainLog] = {}
    adjusted = None
    if not uses_source:
        source_model = None
    else:
        if source_ontology is None:
            raise ModelError(f"preset {preset} needs a source ontology")
        step = source_step(kind, source_ontology)
        if source_model is None:
            if source_train is None or source_valid is None:
                raise ModelError(f"preset {preset} needs source corpora")
            source_model, logs["source"] = train(
                step[0], source_ontology, source_train, source_valid, config,
                dims_used=step[1], rng_salt=_SALT_SOURCE,
            )
        elif (source_model.kind, source_model.dims_used) != step:
            raise ModelError(f"source model is {source_model.kind} over {source_model.dims_used}"
                             f" dimension(s), preset {preset} needs {step[0]} over {step[1]}")
        adjusted = adjust_nn_arch(
            dataclasses.replace(source_model, kind=kind), source_ontology, target_ontology,
            config.seed, init_range=config.init_range,
            concept_emb_dim=config.concept_emb_dim,
        )
        if len(target_train) == 0:
            return AdaptResult(preset, adjusted, logs, source_model)
    if kind in ACD_KINDS:
        model, logs["target"] = train_acd(
            target_ontology, adjusted, target_train, target_valid, config
        )
    else:
        model, logs["target"] = train(
            kind, target_ontology, target_train, target_valid, config,
            initial=adjusted, rng_salt=_SALT_TARGET,
        )
    return AdaptResult(preset, model, logs, source_model)


def run_experiment(
    preset: str,
    source_ontology: Ontology | None,
    target_ontology: Ontology,
    source_train: Corpus | None,
    source_valid: Corpus | None,
    target_train: Corpus,
    target_valid: Corpus,
    config: TrainingConfig,
    subset: int | None = None,
    source_model: TaggerModel | None = None,
) -> AdaptResult:
    """Preprocess raw corpora, optionally subsample the target training
    set, and run ``adapt``.

    Source presets build the vocabulary from the source training corpus;
    target-only presets build it from the (subsampled) target training
    corpus.
    """
    if subset is not None:
        target_train = subset_corpus(target_train, subset, config.seed)
    uses_source = PRESETS[preset][1] if preset in PRESETS else False
    if uses_source and source_model is None:
        if source_train is None or source_valid is None:
            raise ModelError(f"preset {preset} needs source corpora")
        source_train, vocab = preprocess(source_train)
        source_valid, _ = preprocess(source_valid, vocab)
    elif uses_source:
        vocab = source_model.vocab
    else:
        target_train, vocab = preprocess(target_train)
    if uses_source:
        target_train, _ = preprocess(target_train, vocab)
    target_valid, _ = preprocess(target_valid, vocab)
    return adapt(
        preset, source_ontology, target_ontology, source_train, source_valid,
        target_train, target_valid, config, source_model,
    )


def learning_curve(
    systems, sizes, source_ontology: Ontology | None, target_ontology: Ontology,
    source_train: Corpus | None, source_valid: Corpus | None,
    target_train: Corpus, target_valid: Corpus, config: TrainingConfig,
):
    """Run ``run_experiment`` for each system, then each target subset
    size (None for the full set), yielding ``(system, size, AdaptResult)``.

    Presets whose source steps train the same model (``source_step``)
    share it: the first run trains it and later runs receive it as
    ``source_model``.  ``*_T`` presets have no source step.
    """
    source_models: dict[tuple, TaggerModel] = {}
    for system in systems:
        kind, uses_source = PRESETS.get(system, (None, False))
        key = None
        if uses_source and source_ontology is not None:
            key = source_step(kind, source_ontology)
        for size in sizes:
            result = run_experiment(
                system, source_ontology, target_ontology,
                source_train, source_valid, target_train, target_valid,
                config, subset=size, source_model=source_models.get(key),
            )
            if key is not None:
                source_models[key] = result.source_model
            yield system, size, result


# ---------------------------------------------------------------------------
# model bundles on disk

def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def save_model(model: TaggerModel, directory, config: TrainingConfig | None = None) -> None:
    """Write a self-contained bundle: manifest, ontology, vocabularies, each
    stage's parameter buffer as ``.npy`` and every stage's ``ShapeSpec`` in
    ``shapes.json``.  Each file is serialized once, a parameter buffer not
    even copied, and the manifest, written last, records the SHA-256 of
    those bytes for every file it lists.  A part that cannot be serialized
    raises before anything is created."""
    stages = {"stage1": model.stage1}
    if model.stage2 is not None:
        stages["stage2"] = model.stage2
    # name in the manifest: (file name, content as a list of byte chunks)
    parts = {
        "ontology": ("ontology.txt", [format_ontology(model.ontology).encode("utf-8")]),
        "vocab": ("vocab.txt", [model.vocab.format().encode("utf-8")]),
        "shapes": ("shapes.json", [_json_bytes(
            {name: params.shape.to_json() for name, params in stages.items()})]),
    }
    for name, params in stages.items():
        # the .npy header, then the buffer's own memory (see save_params)
        parts[name] = (f"{name}.npy", [])
        neural.save_params(params, types.SimpleNamespace(write=parts[name][1].append))
    if model.stage2_vocab is not None:
        parts["stage2_vocab"] = ("stage2_vocab.txt", [model.stage2_vocab.format().encode("utf-8")])
    manifest = {
        "format": MODEL_FORMAT,
        "kind": model.kind,
        "dims_used": model.dims_used,
        "ontology_sha256": ontology_hash(model.ontology),
        "files": {name: base for name, (base, _) in parts.items()},
        "sha256": {name: _sha256(chunks) for name, (_, chunks) in parts.items()},
        "config": dataclasses.asdict(config) if config is not None else None,
    }
    os.makedirs(directory, exist_ok=True)
    for base, chunks in [*parts.values(), ("manifest.json", [_json_bytes(manifest)])]:
        with open(os.path.join(directory, base), "wb") as fh:
            fh.writelines(chunks)


_MANIFEST_KEYS = ("kind", "dims_used", "files", "sha256", "ontology_sha256")
_REQUIRED_FILES = frozenset({"ontology", "vocab", "shapes", "stage1"})


def _check_heads(what: str, params: ModelParams, needed) -> None:
    """Every label of ``needed`` (one label tuple per head) has a row in
    the matching head of ``params``, and there are as many heads."""
    if len(params.heads) != len(needed):
        raise ModelError(f"{what} has {len(params.heads)} heads, expected {len(needed)}")
    for j, (head, labels) in enumerate(zip(params.heads, needed)):
        missing = sorted(set(labels) - set(head.labels))
        if missing:
            raise ModelError(
                f"{what} head {j} has no row for {', '.join(map(repr, missing[:5]))}"
            )


def _check_bundle(model: TaggerModel) -> None:
    """The loaded parts fit together: vocabulary sizes match the embedding
    tables, every label the ontology needs has a head row, and stage 2 is
    present exactly for ACD kinds."""
    kind, ontology = model.kind, model.ontology
    dims = model.dims_used
    if type(dims) is not int or not (  # a bool is not a count
        dims == 0 if kind == JS
        else dims == 1 if kind in ACD_KINDS
        else 1 <= dims <= ontology.depth
    ):
        raise ModelError(f"dims_used {dims!r} does not fit a {kind} model")
    tables = [t.rows for t in model.stage1.tables]
    if tables != [len(model.vocab)]:
        raise ModelError(
            f"the vocabulary has {len(model.vocab)} tokens, the stage-1 tables {tables} rows"
        )
    _check_heads("stage 1", model.stage1, _stage1_head_labels(kind, ontology, dims))
    if (model.stage2 is not None) != (kind in ACD_KINDS):
        raise ModelError(f"a {kind} bundle {'needs' if kind in ACD_KINDS else 'has no'} "
                         "stage 2")
    if (model.stage2_vocab is not None) != (kind in (ACD1, ACD1U)):
        raise ModelError(f"a {kind} bundle {'needs' if kind in (ACD1, ACD1U) else 'has no'} "
                         "stage-2 vocabulary")
    if kind not in ACD_KINDS:
        return
    if ontology.depth != 2:
        raise ModelError(f"a {kind} bundle needs a two-level ontology")
    _check_heads("stage 2", model.stage2, (dim_head_labels(ontology, 1),))
    tables = [t.rows for t in model.stage2.tables]
    if kind == ACD2:
        expected = [len(model.vocab), len(model.stage1.heads[1].labels)]
    else:
        expected = [len(model.stage2_vocab)]
    if tables != expected:
        raise ModelError(f"the stage-2 tables have {tables} rows, expected {expected}")


def _read(path, reader):
    """``reader()``; a failure to read or parse the file at ``path`` raises
    a ModelError that names it."""
    try:
        return reader()
    except (OSError, ValueError, CorpusError, OntologyError, neural.NeuralError) as exc:
        raise ModelError(f"{path}: {exc}") from None


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _text(data: bytes):
    """``data`` as a text file opened with ``encoding="utf-8"`` reads."""
    return io.StringIO(data.decode("utf-8"), newline=None)


def _parse_shapes(data: bytes) -> dict[str, ShapeSpec]:
    shapes = json.load(_text(data))
    if not isinstance(shapes, dict):
        raise ValueError("not a JSON object")
    return {name: ShapeSpec.from_json(obj) for name, obj in shapes.items()}


def load_model(directory) -> TaggerModel:
    """Read a bundle written by ``save_model``.

    The manifest must be a JSON object whose files are plain names inside
    the bundle.  Every listed file must match its SHA-256 in the manifest,
    and the parts must fit together (see ``_check_bundle``).  A missing
    manifest entry or file, a file that does not parse, a mismatch or a
    misfit raises ModelError.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = _read(manifest_path, lambda: json.load(_text(_read_bytes(manifest_path))))
    if not isinstance(manifest, dict):
        raise ModelError(f"{manifest_path}: not a JSON object")
    if manifest.get("format") != MODEL_FORMAT:
        raise ModelError(f"unsupported model format {manifest.get('format')!r}")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ModelError(f"{directory}: the manifest has no {', '.join(missing)}")
    files, digests = manifest["files"], manifest["sha256"]
    if not isinstance(files, dict) or not _REQUIRED_FILES <= set(files):
        raise ModelError(
            f"{directory}: the manifest lists no {', '.join(sorted(_REQUIRED_FILES))} files"
        )
    bad = [
        base for base in files.values()
        if not isinstance(base, str) or base in ("", ".", "..") or os.path.basename(base) != base
    ]
    if bad:
        raise ModelError(f"{directory}: the manifest lists {bad[0]!r}, not a file name")
    if not isinstance(digests, dict) or set(digests) != set(files):
        raise ModelError(f"{directory}: the manifest's sha256 does not cover its files")
    paths = {name: os.path.join(directory, base) for name, base in files.items()}
    # each file is read once: its hash is checked, then those bytes are parsed
    data = {}
    for name, path in paths.items():
        data[name] = _read(path, lambda: _read_bytes(path))
        if hashlib.sha256(data[name]).hexdigest() != digests[name]:
            raise ModelError(f"{path}: does not match its SHA-256 in the manifest")
    ontology = _read(paths["ontology"], lambda: parse_ontology(_text(data["ontology"]).read()))
    if ontology_hash(ontology) != manifest["ontology_sha256"]:
        raise ModelError(
            f"{paths['ontology']}: does not match the manifest's ontology_sha256"
        )
    shapes = _read(paths["shapes"], lambda: _parse_shapes(data["shapes"]))
    stages = [name for name in ("stage1", "stage2") if name in paths]
    if set(shapes) != set(stages):
        raise ModelError(
            f"{paths['shapes']}: shapes for {sorted(shapes)}, but the bundle has {stages}"
        )
    params = {
        name: _read(paths[name], lambda: neural.load_params(paths[name], shapes[name], data[name]))
        for name in stages
    }
    vocabs = {
        name: _read(paths[name], lambda: TokenVocabulary.read(_text(data[name])))
        for name in ("vocab", "stage2_vocab") if name in paths
    }
    model = TaggerModel(
        manifest["kind"], ontology, vocabs["vocab"], params["stage1"],
        manifest["dims_used"], params.get("stage2"), vocabs.get("stage2_vocab"),
    )
    _check_bundle(model)
    return model
