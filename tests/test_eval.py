import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslot.corpus import Corpus, TaggedUtterance
from atomslot.evaluation import (
    LengthMismatch,
    SlotCounts,
    evaluate,
    round2,
)

from conlleval_oracle import ChunkCounts, read_fixture, score_sentences

FIXTURE = Path(__file__).parent / "data" / "conll_fixture.txt"


def utt(tokens, tags):
    return TaggedUtterance(tuple(tokens.split()), tuple(tags.split()))


# ---------------------------------------------------------------------------
# arithmetic

def test_round2_half_up():
    assert round2(0.125) == 0.13
    assert round2(2.675) == 2.68
    assert round2(13.344) == 13.34
    assert round2(96.0) == 96.0


def test_slot_counts_closed_forms():
    counts = SlotCounts(reference=4, predicted=5, correct=3)
    assert counts.precision == 100.0 * 3 / 5
    assert counts.recall == 100.0 * 3 / 4
    expected_f1 = 2 * counts.precision * counts.recall / (
        counts.precision + counts.recall
    )
    assert counts.f1 == expected_f1


def test_slot_counts_zero_denominators():
    assert SlotCounts().precision == 0.0
    assert SlotCounts().recall == 0.0
    assert SlotCounts().f1 == 0.0
    assert SlotCounts(reference=2).f1 == 0.0


def test_f1_symmetric_in_precision_and_recall():
    a = SlotCounts(reference=10, predicted=4, correct=3)
    b = SlotCounts(reference=4, predicted=10, correct=3)
    assert a.precision == b.recall
    assert a.recall == b.precision
    assert math.isclose(a.f1, b.f1)


# ---------------------------------------------------------------------------
# evaluate on a worked example

def worked_example():
    reference = Corpus(
        (
            utt("fly to new york now", "O O B-city I-city O"),
            utt("leave on monday", "O O B-day"),
        ),
    )
    predicted = [
        ("O", "O", "B-city", "I-city", "B-day"),  # city right, day spurious
        ("O", "O", "O"),                          # day missed
    ]
    return reference, predicted


def test_evaluate_worked_example():
    reference, predicted = worked_example()
    report = evaluate(reference, predicted)
    assert report.overall.reference == 2
    assert report.overall.predicted == 2
    assert report.overall.correct == 1
    assert report.n_tokens == 8
    assert report.n_correct_tokens == 6
    assert report.precision == 50.0
    assert report.recall == 50.0
    assert report.per_slot["city"].correct == 1
    assert report.per_slot["day"].correct == 0
    assert report.per_slot["day"].reference == 1
    assert report.per_slot["day"].predicted == 1


def test_boundary_error_counts_as_wrong():
    reference = Corpus((utt("a b c", "O B-x I-x"),))
    report = evaluate(reference, [("B-x", "I-x", "I-x")])
    assert report.overall.correct == 0
    assert report.overall.predicted == 1
    assert report.overall.reference == 1


def test_type_error_with_right_boundaries_counts_as_wrong():
    reference = Corpus((utt("a b", "B-x I-x"),))
    report = evaluate(reference, [("B-y", "I-y")])
    assert report.overall.correct == 0


def test_evaluate_length_mismatches():
    reference, predicted = worked_example()
    with pytest.raises(LengthMismatch):
        evaluate(reference, predicted[:1])
    with pytest.raises(LengthMismatch):
        evaluate(reference, [("O",), ("O", "O", "O")])


@pytest.mark.parametrize("bad", ["X-city", "B-city\n"])
def test_evaluate_rejects_malformed_predicted_tags(bad):
    reference = Corpus((utt("to boston", "O B-city"),))
    with pytest.raises(ValueError, match="malformed tag"):
        evaluate(reference, [("O", bad)])


def test_report_text_and_machine_lines():
    reference, predicted = worked_example()
    report = evaluate(reference, predicted)
    text = report.text_report()
    assert "processed 8 tokens with 2 chunks" in text
    assert "found 2 chunks, correct 1" in text
    lines = report.machine_lines()
    assert lines[0].startswith("__all__\t")
    assert lines[0] == "__all__\t50.00\t50.00\t50.00"
    assert [l.split("\t")[0] for l in lines] == ["__all__", "city", "day"]


# ---------------------------------------------------------------------------
# agreement with the ported reference scorer

def test_fixture_parity_with_reference_scorer():
    sentences = read_fixture(FIXTURE)
    oracle = score_sentences([(gold, pred) for _, gold, pred in sentences])

    reference = Corpus(
        tuple(
            TaggedUtterance(tokens, gold) for tokens, gold, _ in sentences
        ),
    )
    predicted = [pred for _, _, pred in sentences]
    report = evaluate(reference, predicted)

    gold_total, pred_total, correct_total = oracle.totals()
    assert report.overall.reference == gold_total
    assert report.overall.predicted == pred_total
    assert report.overall.correct == correct_total
    assert report.n_tokens == oracle.tokens
    assert report.n_correct_tokens == oracle.correct_tokens
    assert round2(report.precision) == round2(oracle.precision())
    assert round2(report.recall) == round2(oracle.recall())
    assert round2(report.f1) == round2(oracle.f1())
    for slot in report.per_slot:
        counts = report.per_slot[slot]
        assert counts.reference == oracle.gold[slot]
        assert counts.predicted == oracle.pred[slot]
        assert counts.correct == oracle.correct[slot]


TAGS = ("O", "B-city", "I-city", "B-state", "I-state")


@given(
    st.lists(
        st.lists(st.sampled_from(TAGS), min_size=1, max_size=8).map(tuple),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=150)
def test_random_tag_pairs_agree_with_reference_scorer(gold_sets):
    # pair each gold sequence with a shifted variant as the prediction
    cases = []
    for tags in gold_sets:
        pred = tags[1:] + ("O",)
        tokens = tuple(f"w{i}" for i in range(len(tags)))
        cases.append((tokens, tags, pred))
    oracle = score_sentences([(gold, pred) for _, gold, pred in cases])
    reference = Corpus(
        tuple(TaggedUtterance(tokens, gold) for tokens, gold, _ in cases)
    )
    report = evaluate(reference, [pred for _, _, pred in cases])
    assert (
        report.overall.reference,
        report.overall.predicted,
        report.overall.correct,
    ) == oracle.totals()
