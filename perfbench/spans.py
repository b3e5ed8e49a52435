"""Per-layer spans recorded from outside the package.

``Tracer.install()`` replaces public functions of ``atomslot``'s modules
with wrappers that open a span on entry and close it on exit.  A function
imported by name into another module (``models`` does
``from .evaluation import evaluate``) is replaced there too, so every call
site is seen.  Uninstalling puts the original objects back, so untraced
rounds run the unmodified program.

A span's self time is its duration minus the durations of its direct
child spans.  Spans are aggregated per name as they close, until the
next ``snapshot()``; the raw spans are also kept while ``keep_spans`` is
set, to be written out at the end of a run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name); attribute "Class.method" patches a method
TARGETS = (
    ("corpus", "generate_synthetic", "corpus.generate_synthetic"),
    ("corpus", "preprocess", "corpus.preprocess"),
    ("corpus", "TokenVocabulary.encode", "corpus.encode"),
    ("corpus", "read_corpus", "corpus.read_corpus"),
    ("corpus", "write_corpus", "corpus.write_corpus"),
    ("corpus", "subset_corpus", "corpus.subset_corpus"),
    ("corpus", "relabel_collapse", "corpus.relabel_collapse"),
    ("corpus", "perturb_test_set", "corpus.perturb_test_set"),
    ("ontology", "branch_to_slot", "ontology.branch_to_slot"),
    ("ontology", "collapse_ontology", "ontology.collapse_ontology"),
    ("neural", "loss_and_gradients", "neural.loss_and_gradients"),
    ("neural", "sgd_step", "neural.sgd_step"),
    ("neural", "make_dropout_masks", "neural.make_dropout_masks"),
    ("neural", "sequence_loss", "neural.sequence_loss"),
    ("neural", "blstm_forward", "neural.blstm_forward"),
    ("neural", "head_forward", "neural.head_forward"),
    ("neural", "init_params", "neural.init_params"),
    ("neural", "load_params", "neural.load_params"),
    ("neural", "save_params", "neural.save_params"),
    ("models", "run_experiment", "models.run_experiment"),
    ("models", "adapt", "models.adapt"),
    ("models", "train", "models.train"),
    ("models", "train_acd", "models.train_acd"),
    ("models", "adjust_nn_arch", "models.adjust_nn_arch"),
    ("models", "predict_corpus", "models.predict_corpus"),
    ("models", "decode", "models.decode"),
    ("models", "gather_sequence", "models.gather_sequence"),
    ("models", "evaluate_model", "models.evaluate_model"),
    ("models", "load_model", "models.load_model"),
    ("models", "save_model", "models.save_model"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("cli", "run_command", "cli"),
)

TRAINING_SPANS = ("models.train", "models.train_acd")
VALIDATION_SPANS = ("models.predict_corpus", "evaluation.evaluate")
# callers of neural.blstm_forward inside models, by stage
STAGE2_CALLERS = ("_stage2_dim2",)


def _item_tokens(ids) -> int:
    return len(ids[0]) if isinstance(ids, tuple) else len(ids)


# span name from (positional arguments, caller's frame), where not fixed
SPAN_NAMES = {
    "neural.blstm_forward": lambda args, caller: "neural.blstm_forward." + (
        "stage2" if caller.f_code.co_name in STAGE2_CALLERS else "stage1"
    ),
    "cli": lambda args, caller: f"cli.{args[0][0]}",
}

# counters from (positional arguments, result)
COUNTERS = {
    "neural.blstm_forward": lambda args, result: {
        "neural.blstm_forward.tokens": _item_tokens(args[1]),
    },
    "neural.loss_and_gradients": lambda args, result: {
        "neural.loss_and_gradients.tokens": sum(_item_tokens(ids) for ids, _ in args[1]),
    },
    "neural.load_params": lambda args, result: {
        "neural.load_params.bytes": os.path.getsize(args[0]),
    },
    "models.gather_sequence": lambda args, result: {
        "models.gather.original_tokens": len(args[0]),
        "models.gather.gathered_tokens": len(result[0]),
    },
}


class _Open:
    __slots__ = ("name", "start", "child", "index")

    def __init__(self, name, start, index):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index


class Tracer:
    """Span recorder with per-name aggregates."""

    def __init__(self):
        self.stack: list[_Open] = []
        self.total = defaultdict(float)   # name -> seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)  # counter -> amount
        self.keep_spans = False
        self.spans: list[tuple] = []      # (id, parent id, name, start, end)
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        index = -1
        if self.keep_spans:
            index = self._next_id
            self._next_id += 1
        span = _Open(name, time.perf_counter(), index)
        self.stack.append(span)
        return span

    def _close(self, span):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - span.start
        self.total[span.name] += duration
        self.self_time[span.name] += duration - span.child
        self.calls[span.name] += 1
        if self.stack:
            self.stack[-1].child += duration
        if span.name in VALIDATION_SPANS and any(
            s.name in TRAINING_SPANS for s in self.stack
        ):
            self.total["models.validation"] += duration
        if span.index >= 0:
            parent = self.stack[-1].index if self.stack else -1
            self.spans.append((span.index, parent, span.name, span.start, end))

    def count(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    def snapshot(self) -> dict:
        """The aggregates since the last snapshot; starts new ones."""
        snap = {
            "self": dict(self.self_time),
            "total": dict(self.total),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        for table in (self.total, self.self_time, self.calls, self.counts):
            table.clear()
        return snap

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name):
        namer = SPAN_NAMES.get(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer(args, sys._getframe(1)) if namer else name
            span = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter:
                for key, amount in counter(args, result).items():
                    tracer.count(key, amount)
            return result
        return wrapper

    @contextmanager
    def install(self):
        """Patch every target while the block runs; restore on exit."""
        package_modules = [
            m for key, m in list(sys.modules.items())
            if key == "atomslot" or key.startswith("atomslot.")
        ]
        undo = []
        try:
            for module_name, attr, span_name in TARGETS:
                module = sys.modules[f"atomslot.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(original, span_name))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, span_name)
                for m in package_modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            undo.append((m, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)


def write_spans(spans, path) -> None:
    """One ``id<TAB>parent<TAB>name<TAB>start_s<TAB>end_s`` line per span."""
    if not spans:
        return
    origin = min(s[3] for s in spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tstart_s\tend_s\n")
        for index, parent, name, start, end in sorted(spans):
            fh.write(f"{index}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n")
