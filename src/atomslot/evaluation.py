"""Chunk-level scoring with CoNLL evaluation semantics.

A predicted chunk counts as correct only when its type, start and end all
match a reference chunk.  Percentages are reported to two decimals with
half-up rounding; the raw ratios stay available for downstream math.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import Corpus, _check_tags, _chunks


class EvalError(Exception):
    """Base error for evaluation."""


class LengthMismatch(EvalError):
    """Reference and prediction disagree on counts or lengths."""


def round2(x: float) -> float:
    """Round half-up to two decimals (13.345 -> 13.35)."""
    return math.floor(x * 100.0 + 0.5) / 100.0


def _ratio(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    return 100.0 * numerator / denominator


@dataclass
class SlotCounts:
    reference: int = 0
    predicted: int = 0
    correct: int = 0

    @property
    def precision(self) -> float:
        return _ratio(self.correct, self.predicted)

    @property
    def recall(self) -> float:
        return _ratio(self.correct, self.reference)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if p + r == 0.0:
            return 0.0
        return 2.0 * p * r / (p + r)


@dataclass
class EvalReport:
    """Corpus-level scores plus a per-slot breakdown."""

    n_tokens: int
    n_correct_tokens: int
    overall: SlotCounts
    per_slot: dict[str, SlotCounts] = field(default_factory=dict)

    @property
    def token_accuracy(self) -> float:
        return _ratio(self.n_correct_tokens, self.n_tokens)

    @property
    def precision(self) -> float:
        return self.overall.precision

    @property
    def recall(self) -> float:
        return self.overall.recall

    @property
    def f1(self) -> float:
        return self.overall.f1

    def text_report(self) -> str:
        lines = [
            f"processed {self.n_tokens} tokens with {self.overall.reference} chunks; "
            f"found {self.overall.predicted} chunks, correct {self.overall.correct}",
            f"accuracy: {round2(self.token_accuracy):6.2f}%; "
            f"precision: {round2(self.precision):6.2f}%; "
            f"recall: {round2(self.recall):6.2f}%; "
            f"F1: {round2(self.f1):6.2f}",
        ]
        width = max((len(s) for s in self.per_slot), default=4)
        for slot in sorted(self.per_slot):
            counts = self.per_slot[slot]
            lines.append(
                f"{slot:<{width}}  precision: {round2(counts.precision):6.2f}%; "
                f"recall: {round2(counts.recall):6.2f}%; "
                f"F1: {round2(counts.f1):6.2f}  "
                f"(ref {counts.reference}, pred {counts.predicted}, ok {counts.correct})"
            )
        return "\n".join(lines)

    def machine_lines(self) -> list[str]:
        """``slot<TAB>P<TAB>R<TAB>F1`` rows; ``__all__`` comes first."""
        def fmt(name, counts):
            return (
                f"{name}\t{round2(counts.precision):.2f}"
                f"\t{round2(counts.recall):.2f}\t{round2(counts.f1):.2f}"
            )

        rows = [fmt("__all__", self.overall)]
        rows.extend(fmt(slot, self.per_slot[slot]) for slot in sorted(self.per_slot))
        return rows


def evaluate(reference: Corpus, predicted: Sequence[Sequence[str]]) -> EvalReport:
    """Score predicted tag sequences against a reference corpus."""
    if len(predicted) != len(reference):
        raise LengthMismatch(
            f"reference has {len(reference)} utterances, predictions {len(predicted)}"
        )
    overall = SlotCounts()
    per_slot: dict[str, SlotCounts] = {}
    n_tokens = 0
    n_correct = 0
    for index, (utterance, tags) in enumerate(zip(reference, predicted)):
        tags = tuple(tags)
        if len(tags) != len(utterance):
            raise LengthMismatch(
                f"utterance {index}: {len(utterance)} tokens but {len(tags)} predicted tags"
            )
        n_tokens += len(tags)
        n_correct += sum(a == b for a, b in zip(utterance.tags, tags))
        _check_tags(tags)
        ref_chunks = set(_chunks(utterance.tags))
        pred_chunks = set(_chunks(tags))
        for slot, _, _ in ref_chunks:
            per_slot.setdefault(slot, SlotCounts()).reference += 1
            overall.reference += 1
        for slot, _, _ in pred_chunks:
            per_slot.setdefault(slot, SlotCounts()).predicted += 1
            overall.predicted += 1
        for slot, _, _ in ref_chunks & pred_chunks:
            per_slot[slot].correct += 1
            overall.correct += 1
    return EvalReport(n_tokens, n_correct, overall, per_slot)
