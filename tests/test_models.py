import dataclasses
import itertools
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslot import models, neural
from atomslot.corpus import (
    Corpus,
    CorpusError,
    TaggedUtterance,
    preprocess,
    relabel_collapse,
)
from atomslot.models import (
    AC,
    ACD1,
    ACD1U,
    ACD2,
    JS,
    PRESETS,
    UNIFIED_CONCEPT_TOKEN,
    EmptyCorpus,
    LabelNotInOntology,
    ModelError,
    TaggerModel,
    TrainingDiverged,
    adapt,
    adjust_nn_arch,
    bracket_token,
    decode,
    dim_head_labels,
    evaluate_model,
    format_train_log,
    gather_sequence,
    gold_branches,
    js_head_labels,
    load_model,
    predict_corpus,
    run_experiment,
    save_model,
    train,
    train_acd,
)
from atomslot.neural import ShapeSpec, TrainingConfig, init_params
from atomslot.ontology import build_ontology, collapse_ontology

TINY = TrainingConfig(
    learning_rate=0.05, epochs=1, dropout=0.0, emb_dim=4, hidden=4, seed=0
)


def utt(tokens, tags):
    return TaggedUtterance(tuple(tokens.split()), tuple(tags.split()))


def target_ontology():
    return build_ontology(
        2,
        (
            ("from.city", ("city", "from")),
            ("to.city", ("city", "to")),
            ("day", ("day", "null")),
        ),
    )


def target_corpus():
    return Corpus(
        (
            utt("fly from boston to denver", "O O B-from.city O B-to.city"),
            utt("fly to boston", "O O B-to.city"),
            utt("leave on monday", "O O B-day"),
            utt("from denver to dallas", "O B-from.city O B-to.city"),
            utt("fly from dallas on monday", "O O B-from.city O B-day"),
        ),
    )


def source_setup():
    ontology = target_ontology()
    source_ontology, mapping = collapse_ontology(ontology, 1)
    source = relabel_collapse(target_corpus(), mapping)
    return ontology, source_ontology, source


def tagger(kind, ontology, corpus, dims_used=0, seed=0):
    """An untrained model over the corpus vocabulary."""
    from atomslot.corpus import TokenVocabulary
    from atomslot.models import _stage1_head_labels

    vocab = TokenVocabulary.from_corpus(corpus)
    heads = _stage1_head_labels(kind, ontology, dims_used)
    params = init_params(
        ShapeSpec(tables=((len(vocab), 4),), hidden=4, heads=heads), seed
    )
    return TaggerModel(kind, ontology, vocab, params, dims_used)


# ---------------------------------------------------------------------------
# head layouts

def test_js_head_labels_sorted_with_outside_first():
    labels = js_head_labels(target_ontology())
    assert labels == (
        "O",
        "B-day", "I-day",
        "B-from.city", "I-from.city",
        "B-to.city", "I-to.city",
    )


def test_dim_head_labels_null_first_then_sorted():
    ontology = target_ontology()
    assert dim_head_labels(ontology, 0) == ("null", "city", "day")
    assert dim_head_labels(ontology, 1) == ("null", "from", "to")


# ---------------------------------------------------------------------------
# decoding

def zeroed_model(model):
    for _, arr in model.stage1.blocks():
        arr[...] = 0.0
    return model


def test_uniform_probs_decode_to_first_label():
    # all-equal probabilities tie; argmax must take the lowest index, "O"
    ontology = target_ontology()
    corpus = target_corpus()
    js = zeroed_model(tagger(JS, ontology, corpus))
    assert decode(js, ("fly", "to", "boston")) == ("O", "O", "O")
    ac = zeroed_model(tagger(AC, ontology, corpus, dims_used=2))
    assert decode(ac, ("fly", "to", "boston")) == ("O", "O", "O")


def test_decode_empty_sequence():
    model = tagger(JS, target_ontology(), target_corpus())
    assert decode(model, ()) == ()


def head_probs(params, ids):
    """Per head, the (n, C) class probabilities, from the per-sentence
    forward pass."""
    features = neural.blstm_forward(params, ids)
    return [neural.head_forward(head, features) for head in params.heads]


def test_ac_decode_matches_product_argmax():
    ontology = target_ontology()
    model = tagger(AC, ontology, target_corpus(), dims_used=2, seed=7)
    tokens = ("fly", "from", "boston", "to", "dallas", "on", "monday")
    head_labels = [head.labels for head in model.stage1.heads]
    probs = head_probs(model.stage1, model.vocab.encode(tokens))
    tags = decode(model, tokens)
    for t in range(len(tokens)):
        best_combo = max(
            itertools.product(*[range(len(l)) for l in head_labels]),
            key=lambda combo: float(
                np.prod([probs[h][t, c] for h, c in enumerate(combo)])
            ),
        )
        iob = head_labels[0][best_combo[0]]
        if iob == "O":
            assert tags[t] == "O"
        else:
            branch = tuple(
                head_labels[h][best_combo[h]] for h in range(1, len(best_combo))
            )
            assert tags[t].startswith(f"{iob}-")
            from atomslot.ontology import branch_to_slot

            assert tags[t] == f"{iob}-{branch_to_slot(ontology, branch)}"


def test_ac_decode_names_unregistered_branches_canonically():
    # force the (day, from) combination, which no slot registers
    ontology = target_ontology()
    model = tagger(AC, ontology, target_corpus(), dims_used=2)
    for _, arr in model.stage1.blocks():
        arr[...] = 0.0
    heads = model.stage1.heads
    heads[0].b[heads[0].labels.index("B")] = 5.0
    heads[1].b[heads[1].labels.index("day")] = 5.0
    heads[2].b[heads[2].labels.index("from")] = 5.0
    tags = decode(model, ("x",))
    assert tags == ("B-from.day",)


def test_lattice_blocks_are_distributions():
    model = tagger(AC, target_ontology(), target_corpus(), dims_used=2, seed=3)
    probs = head_probs(model.stage1, model.vocab.encode(("fly", "to", "boston")))
    assert len(probs) == 3
    for block in probs:
        assert block.shape[0] == 3
        assert (block >= 0).all()
        np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# gathering

def test_gather_collapses_predicted_spans():
    tokens = ["fly", "to", "new", "york", "now"]
    iob = ["O", "O", "B", "I", "O"]
    dim1 = ["null", "null", "city", "city", "null"]
    gathered, groups = gather_sequence(tokens, iob, dim1, unified=False)
    assert gathered == ["fly", "to", "[city]", "now"]
    assert groups == [[0], [1], [2, 3], [4]]


def test_gather_unified_token():
    gathered, _ = gather_sequence(["a"], ["B"], ["city"], unified=True)
    assert gathered == [UNIFIED_CONCEPT_TOKEN]
    assert bracket_token("city") == "[city]"


def test_gather_inside_after_outside_starts_span():
    gathered, groups = gather_sequence(
        ["a", "b", "c"], ["O", "I", "I"], ["null", "city", "city"], unified=False
    )
    assert gathered == ["a", "[city]"]
    assert groups == [[0], [1, 2]]


def test_gather_splits_on_concept_switch():
    gathered, _ = gather_sequence(
        ["a", "b"], ["B", "I"], ["city", "day"], unified=False
    )
    assert gathered == ["[city]", "[day]"]


def test_gather_treats_null_concept_as_outside():
    gathered, groups = gather_sequence(
        ["a", "b"], ["B", "O"], ["null", "null"], unified=False
    )
    assert gathered == ["a", "b"]
    assert groups == [[0], [1]]


@pytest.mark.parametrize("iob, concept", [("X", "city"), ("B", "city\n")])
def test_gather_rejects_a_malformed_pseudo_tag(iob, concept):
    # the pseudo tag ``{iob}-{concept}`` is checked before its chunks are read
    with pytest.raises(ValueError, match="malformed tag"):
        gather_sequence(["a", "b"], ["O", iob], ["null", concept], unified=False)


# ---------------------------------------------------------------------------
# training

def prepared_target():
    corpus, vocab = preprocess(target_corpus())
    valid, _ = preprocess(target_corpus(), vocab)
    return corpus, valid


def test_train_js_smoke_and_determinism():
    ontology = target_ontology()
    corpus, valid = prepared_target()
    model_a, log_a = train(JS, ontology, corpus, valid, TINY)
    model_b, log_b = train(JS, ontology, corpus, valid, TINY)
    for (_, x), (_, y) in zip(model_a.stage1.blocks(), model_b.stage1.blocks()):
        assert np.array_equal(x, y)
    assert log_a.chosen == log_b.chosen
    assert log_a.best.epochs[0].train_loss == log_b.best.epochs[0].train_loss
    assert model_a.kind == JS


def test_train_zero_epochs_keeps_initial_params():
    ontology = target_ontology()
    corpus, valid = prepared_target()
    config = TrainingConfig(
        learning_rate=0.05, epochs=0, dropout=0.0, emb_dim=4, hidden=4, seed=0
    )
    model, log = train(JS, ontology, corpus, valid, config)
    assert log.best.best_f1 is None
    assert log.best.epochs == []
    assert log.chosen == 0
    decode(model, ("fly", "to", "boston"))


def test_grid_tie_chooses_earlier_candidate():
    # zero epochs leaves every candidate scoreless; the tie goes to index 0
    ontology = target_ontology()
    corpus, valid = prepared_target()
    config = TrainingConfig(
        epochs=0, dropout=0.0, emb_dim=4, hidden=4, seed=0,
        lr_grid=(0.01, 0.02, 0.03),
    )
    _, log = train(JS, ontology, corpus, valid, config)
    assert log.chosen == 0
    assert len(log.candidates) == 3


def test_train_rejects_empty_corpora_and_acd_kinds():
    ontology = target_ontology()
    corpus, valid = prepared_target()
    empty = Corpus(())
    with pytest.raises(EmptyCorpus):
        train(JS, ontology, empty, valid, TINY)
    with pytest.raises(EmptyCorpus):
        train(JS, ontology, corpus, empty, TINY)
    with pytest.raises(ModelError):
        train(ACD1, ontology, corpus, valid, TINY)


def test_train_rejects_tags_outside_ontology():
    ontology = build_ontology(1, (("day", ("day",)),))
    corpus = Corpus((utt("leave monday", "O B-nope"),))
    with pytest.raises(LabelNotInOntology):
        train(JS, ontology, corpus, corpus, TINY)


def test_gold_branches_reads_prefixes_and_branches():
    ontology = target_ontology()
    prefixes, branches = gold_branches(ontology, utt("fly to boston", "O B-to.city I-to.city"))
    assert prefixes == ["O", "B", "I"]
    assert branches == [("null", "null"), ("city", "to"), ("city", "to")]
    with pytest.raises(LabelNotInOntology):
        gold_branches(ontology, utt("on monday", "O B-nope"))


def test_train_ac_and_acd_reject_tags_outside_ontology():
    ontology = target_ontology()
    corpus, valid = prepared_target()
    bad = Corpus(corpus.utterances + (utt("fly home", "O B-home.city"),))
    with pytest.raises(LabelNotInOntology):
        train(AC, ontology, bad, valid, TINY)
    _, source_ontology, source = source_setup()
    model = adjust_nn_arch(
        tagger(ACD1, source_ontology, source, dims_used=1), source_ontology, ontology, seed=0
    )
    for teacher_forcing in (False, True):
        config = dataclasses.replace(TINY, teacher_forcing=teacher_forcing)
        with pytest.raises(LabelNotInOntology):
            train_acd(ontology, model, bad, valid, config)


def _poisoned_training(monkeypatch, poison):
    """Train JS over a three-rate grid for two epochs; ``poison(k)`` says
    whether the k-th step's factors (0-based) get a NaN in their last
    logit gradient, and so in the gradient's last entry.  Returns the log,
    and per poisoned step the parameters and a copy of them taken before
    the update."""
    ontology = target_ontology()
    corpus, valid = prepared_target()
    config = TrainingConfig(
        epochs=2, dropout=0.0, emb_dim=4, hidden=4, seed=0, lr_grid=(0.01, 0.02, 0.03)
    )
    real = neural._item_factors
    calls = []
    poisoned = []

    def item_factors(params, b, item, masks):
        factors = real(params, b, item, masks)
        if poison(len(calls)):
            factors.dlogits[-1, -1] = np.nan
            poisoned.append((params, params.buffer.copy()))
        calls.append(1)
        return factors

    monkeypatch.setattr(neural, "_item_factors", item_factors)
    # the stand-in lives in this process, so the grid trains here
    monkeypatch.setattr(models, "_worker_count", lambda rates: 1)
    _, log = train(JS, ontology, corpus, valid, config)
    return log, poisoned, len(corpus)


def test_a_diverging_candidate_is_logged_and_the_grid_goes_on(monkeypatch):
    n = len(target_corpus())
    # candidate 1, epoch 2, third sentence
    log, poisoned, _ = _poisoned_training(monkeypatch, lambda k: k == 2 * n + n + 2)
    assert [c.diverged_epoch for c in log.candidates] == [None, 2, None]
    assert [len(c.epochs) for c in log.candidates] == [2, 1, 2]
    assert log.candidates[1].best_epoch == 1
    assert "1\t0.02\t2\tdiverged\t-" in format_train_log(log).splitlines()
    # the step that met the NaN wrote nothing, and nothing ran after it
    (params, before), = poisoned
    assert np.array_equal(params.buffer, before)


def test_training_fails_only_when_every_candidate_diverges(monkeypatch):
    n = len(target_corpus())
    # every candidate's first sentence of epoch 1
    with pytest.raises(TrainingDiverged):
        _poisoned_training(monkeypatch, lambda k: k % (2 * n) == 0)


def test_learning_curve_trains_each_source_step_once(monkeypatch):
    ontology, source_ontology, source = source_setup()
    corpora = (source, source, target_corpus(), target_corpus())
    systems, sizes = ("JS_T", "JS_TS", "AC_TS", "ACD_TS_1"), (3, None)
    source_models = []
    real_train = models.train

    def counting_train(*args, **kwargs):
        model, log = real_train(*args, **kwargs)
        if kwargs.get("rng_salt") == models._SALT_SOURCE:
            source_models.append((model.kind, model.dims_used))
        return model, log

    monkeypatch.setattr(models, "train", counting_train)
    cells = list(models.learning_curve(
        systems, sizes, source_ontology, ontology, *corpora, TINY
    ))
    assert source_models == [(JS, 0), (AC, 1)]
    assert [(system, size) for system, size, _ in cells] == list(
        itertools.product(systems, sizes)
    )
    for system, size, result in cells:
        alone = run_experiment(
            system, source_ontology, ontology, *corpora, TINY, subset=size
        )
        for phase, log in result.logs.items():
            assert format_train_log(log) == format_train_log(alone.logs[phase])
        pairs = [(result.model.stage1, alone.model.stage1)]
        if result.model.stage2 is not None:
            pairs.append((result.model.stage2, alone.model.stage2))
        if result.source_model is not None:
            pairs.append((result.source_model.stage1, alone.source_model.stage1))
        for shared, independent in pairs:
            assert shared.buffer.tobytes() == independent.buffer.tobytes()
    with pytest.raises(ModelError):
        list(models.learning_curve(
            ["AC_TS"], [None], None, ontology, *corpora, TINY
        ))


def test_evaluate_model_preprocesses_with_model_vocab():
    ontology = target_ontology()
    corpus, valid = prepared_target()
    model, _ = train(JS, ontology, corpus, valid, TINY)
    report = evaluate_model(model, target_corpus())
    assert 0.0 <= report.f1 <= 100.0


# ---------------------------------------------------------------------------
# architecture adjustment

def random_inputs(vocab_size, n_cases=20, length=6, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.integers(2, vocab_size, size=length) for _ in range(n_cases)]


def test_adjust_js_preserves_old_logits():
    ontology, source_ontology, source = source_setup()
    model = tagger(JS, source_ontology, source, seed=1)
    before = model.stage1.heads[0]
    adjusted = adjust_nn_arch(model, source_ontology, ontology, seed=9)
    after = adjusted.stage1.heads[0]
    k = len(before.labels)
    assert after.labels[:k] == before.labels
    assert np.array_equal(after.w[:k], before.w)
    assert np.array_equal(after.b[:k], before.b)
    # appended labels are the B/I pairs of the new slots, slot-sorted
    assert after.labels[k:] == (
        "B-from.city", "I-from.city", "B-to.city", "I-to.city"
    )
    for ids in random_inputs(len(model.vocab)):
        feats = neural.blstm_forward(model.stage1, ids)
        old = feats @ before.w.T + before.b
        new = neural.blstm_forward(adjusted.stage1, ids) @ after.w.T + after.b
        assert np.array_equal(new[:, :k], old)


def test_adjust_ac_extends_dims_and_adds_heads():
    ontology, source_ontology, source = source_setup()
    model = tagger(AC, source_ontology, source, dims_used=1, seed=2)
    adjusted = adjust_nn_arch(model, source_ontology, ontology, seed=9)
    assert adjusted.dims_used == 2
    assert len(adjusted.stage1.heads) == 3
    # dim-1 atoms coincide, so the old head is untouched
    assert np.array_equal(adjusted.stage1.heads[1].w, model.stage1.heads[1].w)
    assert adjusted.stage1.heads[2].labels == ("null", "from", "to")


def test_adjust_identity_when_nothing_is_new():
    ontology = target_ontology()
    model = tagger(JS, ontology, target_corpus(), seed=3)
    adjusted = adjust_nn_arch(model, ontology, ontology, seed=9)
    assert adjusted.stage1.heads[0].labels == model.stage1.heads[0].labels
    assert np.array_equal(adjusted.stage1.heads[0].w, model.stage1.heads[0].w)


def test_adjust_acd_builds_stage2():
    ontology, source_ontology, source = source_setup()
    base = tagger(ACD1, source_ontology, source, dims_used=1, seed=4)
    adjusted = adjust_nn_arch(base, source_ontology, ontology, seed=9)
    assert adjusted.stage2 is not None
    assert adjusted.stage2_vocab is not None
    assert bracket_token("city") in adjusted.stage2_vocab
    assert bracket_token("day") in adjusted.stage2_vocab
    # reused word rows are frozen; concept rows train
    assert adjusted.stage2.tables[0].frozen_rows == len(base.vocab)
    assert adjusted.stage2.heads[0].labels == ("null", "from", "to")
    word = base.stage1.tables[0].weights
    assert np.array_equal(adjusted.stage2.tables[0].weights[: len(base.vocab)], word)


def test_adjust_acd2_concept_channel():
    ontology, source_ontology, source = source_setup()
    base = tagger(ACD2, source_ontology, source, dims_used=1, seed=4)
    adjusted = adjust_nn_arch(base, source_ontology, ontology, seed=9, concept_emb_dim=6)
    assert adjusted.stage2_vocab is None
    word_table, concept_table = adjusted.stage2.tables
    assert word_table.frozen_rows == word_table.rows
    assert concept_table.weights.shape == (
        len(base.stage1.heads[1].labels), 6
    )
    assert concept_table.frozen_rows == 0


def reference_heads(before, after_labels, seed, init_range=0.2, rng=None):
    """Per head of the grown model, the weights and biases that adjustment
    must produce: the old head's rows, then new rows drawn from the
    adjustment stream (salt 301, or ``rng`` when given), head by head in
    index order, weights before biases.  A head with no new labels draws
    nothing."""
    rng = rng if rng is not None else neural.rng_stream(seed, 301)
    width = 2 * before.hidden
    expected = []
    for j, labels in enumerate(after_labels):
        if j < len(before.heads):
            w, b = before.heads[j].w, before.heads[j].b
        else:
            w, b = np.empty((0, width)), np.empty(0)
        fresh = len(labels) - len(b)
        if fresh:
            w = np.vstack([w, rng.uniform(-init_range, init_range, size=(fresh, width))])
            b = np.concatenate([b, rng.uniform(-init_range, init_range, size=fresh)])
        expected.append((w, b))
    return expected


@pytest.mark.parametrize("kind, dims_used, grown", [
    (JS, 0, [5 + 2 * 3]),
    (AC, 1, [3, 4, 3]),
    (ACD1, 1, [3, 4]),
], ids=["JS", "AC", "ACD1"])
def test_adjust_draws_new_rows_head_by_head(kind, dims_used, grown):
    # the target adds a dimension-1 atom (airline) and two refined cities
    source_ontology, _ = collapse_ontology(target_ontology(), 1)
    ontology = build_ontology(2, (
        ("from.city", ("city", "from")),
        ("to.city", ("city", "to")),
        ("day", ("day", "null")),
        ("airline", ("airline", "null")),
    ))
    model = tagger(kind, source_ontology, source_setup()[2], dims_used=dims_used, seed=6)
    adjusted = adjust_nn_arch(model, source_ontology, ontology, seed=5, init_range=0.3)
    before, after = model.stage1, adjusted.stage1
    assert [len(head.labels) for head in after.heads] == grown
    for old, new in zip(before.heads, after.heads):
        assert new.labels[:len(old.labels)] == old.labels
    for old, new in zip(before.tables, after.tables):
        assert np.array_equal(old.weights, new.weights)
    assert np.array_equal(before.cells_w, after.cells_w)
    assert np.array_equal(before.cells_b, after.cells_b)
    expected = reference_heads(before, after.shape.heads, seed=5, init_range=0.3)
    assert len(expected) == len(after.heads)
    for j, (head, (w, b)) in enumerate(zip(after.heads, expected)):
        assert np.array_equal(head.w, w), j
        assert np.array_equal(head.b, b), j


@pytest.mark.parametrize("kind", [ACD1, ACD2])
def test_adjust_draws_stage2_after_the_new_head_rows(kind):
    """Stage 2 draws from the adjustment stream after stage 1's new head
    rows: its new word rows (ACD1) or its concept table (ACD2), then each
    direction's gate weights as W (4H, D+H), stored transposed, and bias,
    then its head's weights and bias."""
    ontology, source_ontology, source = source_setup()
    model = tagger(kind, source_ontology, source, dims_used=1, seed=6)
    adjusted = adjust_nn_arch(
        model, source_ontology, ontology, seed=5, init_range=0.3, concept_emb_dim=3
    )
    rng = neural.rng_stream(5, 301)
    reference_heads(model.stage1, adjusted.stage1.shape.heads, 5, 0.3, rng)
    stage2 = adjusted.stage2
    H, D, C = stage2.hidden, stage2.input_dim, len(stage2.heads[0].labels)
    words = stage2.tables[0].weights
    fresh = words[len(model.vocab):] if kind == ACD1 else stage2.tables[1].weights
    assert fresh.size
    expected = [
        (fresh, fresh.shape),
        (stage2.cells_w[0].T, (4 * H, D + H)),
        (stage2.cells_b[0], (4 * H,)),
        (stage2.cells_w[1].T, (4 * H, D + H)),
        (stage2.cells_b[1], (4 * H,)),
        (stage2.heads[0].w, (C, 2 * H)),
        (stage2.heads[0].b, (C,)),
    ]
    for k, (block, size) in enumerate(expected):
        assert np.array_equal(block, rng.uniform(-0.3, 0.3, size=size)), k


# ---------------------------------------------------------------------------
# adaptation

def adapt_corpora():
    ontology, source_ontology, _ = source_setup()
    raw_target = target_corpus()
    source_train = relabel_collapse(
        target_corpus(), collapse_ontology(ontology, 1)[1]
    )
    src_prep, vocab = preprocess(source_train)
    tgt_prep, _ = preprocess(raw_target, vocab)
    valid, _ = preprocess(target_corpus(), vocab)
    src_valid, _ = preprocess(relabel_collapse(
        target_corpus(), collapse_ontology(ontology, 1)[1]
    ), vocab)
    return ontology, source_ontology, src_prep, src_valid, tgt_prep, valid


def test_adapt_presets_produce_the_right_kinds():
    ontology, source_ontology, src, src_valid, tgt, valid = adapt_corpora()
    for preset, (kind, uses_source) in PRESETS.items():
        result = adapt(
            preset, source_ontology, ontology, src, src_valid, tgt, valid, TINY
        )
        assert result.model.kind == kind
        assert result.preset == preset
        assert ("source" in result.logs) == uses_source
        assert "target" in result.logs
        report = evaluate_model(result.model, target_corpus())
        assert 0.0 <= report.f1 <= 100.0


def test_acd_stage1_is_frozen_through_stage2_training():
    ontology, source_ontology, src, src_valid, tgt, valid = adapt_corpora()
    result = adapt(
        "ACD_TS_1", source_ontology, ontology, src, src_valid, tgt, valid, TINY
    )
    for (_, x), (_, y) in zip(
        result.model.stage1.blocks(), result.source_model.stage1.blocks()
    ):
        assert np.array_equal(x, y)


def test_adapt_reuses_supplied_source_model():
    ontology, source_ontology, src, src_valid, tgt, valid = adapt_corpora()
    first = adapt(
        "AC_TS", source_ontology, ontology, src, src_valid, tgt, valid, TINY
    )
    second = adapt(
        "ACD_TS_1", source_ontology, ontology, None, None, tgt, valid, TINY,
        source_model=first.source_model,
    )
    assert "source" not in second.logs
    for (_, x), (_, y) in zip(
        second.model.stage1.blocks(), first.source_model.stage1.blocks()
    ):
        assert np.array_equal(x, y)


def test_adapt_rejects_mismatched_source_model():
    ontology, source_ontology, src, src_valid, tgt, valid = adapt_corpora()
    js = adapt("JS_TS", source_ontology, ontology, src, src_valid, tgt, valid, TINY)
    with pytest.raises(ModelError):
        adapt(
            "AC_TS", source_ontology, ontology, None, None, tgt, valid, TINY,
            source_model=js.source_model,
        )


def test_adapt_rejects_a_source_model_with_other_dimension_heads(monkeypatch):
    # AC_TS over a two-dimension source trains AC heads for both
    # dimensions; ACD_TS_1 needs AC over dimension 1 only
    ontology = target_ontology()
    corpus, valid = target_corpus(), target_corpus()
    ac = run_experiment("AC_TS", ontology, ontology, corpus, valid, corpus, valid, TINY)
    assert (ac.source_model.kind, ac.source_model.dims_used) == (AC, 2)

    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the source model")

    monkeypatch.setattr(models, "train", no_training)
    monkeypatch.setattr(models, "train_acd", no_training)
    with pytest.raises(ModelError, match="AC over 2 dimension.*needs AC over 1"):
        run_experiment(
            "ACD_TS_1", ontology, ontology, corpus, valid, corpus, valid, TINY,
            source_model=ac.source_model,
        )


def test_adapt_empty_target_returns_adjusted_source_model():
    ontology, source_ontology, src, src_valid, _, valid = adapt_corpora()
    empty = Corpus(())
    result = adapt(
        "JS_TS", source_ontology, ontology, src, src_valid, empty, valid, TINY
    )
    assert "target" not in result.logs
    labels = result.model.stage1.heads[0].labels
    assert "B-from.city" in labels and "B-city" in labels


def test_adapt_teacher_forcing_runs():
    ontology, source_ontology, src, src_valid, tgt, valid = adapt_corpora()
    config = TrainingConfig(
        learning_rate=0.05, epochs=1, dropout=0.0, emb_dim=4, hidden=4, seed=0,
        teacher_forcing=True,
    )
    result = adapt(
        "ACD_TS_2", source_ontology, ontology, src, src_valid, tgt, valid, config
    )
    assert result.model.kind == ACD2
    assert result.model.stage2 is not None


def test_decode_acd_guards():
    ontology, source_ontology, source = source_setup()
    bare = tagger(ACD1, source_ontology, source, dims_used=1)
    with pytest.raises(ModelError):
        decode(bare, ("a",))
    with pytest.raises(ModelError):
        predict_corpus(bare, target_corpus())
    shallow = adjust_nn_arch(bare, source_ontology, ontology, seed=0)
    shallow.ontology = source_ontology
    with pytest.raises(ModelError):
        decode(shallow, ("a",))


def test_train_acd_requires_stage2():
    ontology, source_ontology, source = source_setup()
    bare = tagger(ACD1, source_ontology, source, dims_used=1)
    corpus, valid = prepared_target()
    with pytest.raises(ModelError):
        train_acd(ontology, bare, corpus, valid, TINY)


# ---------------------------------------------------------------------------
# experiments and persistence

def test_run_experiment_vocab_comes_from_source_for_ts():
    ontology, source_ontology, _ = source_setup()
    mapping = collapse_ontology(ontology, 1)[1]
    source_train = relabel_collapse(target_corpus(), mapping)
    source_valid = relabel_collapse(target_corpus(), mapping)
    result = run_experiment(
        "JS_TS", source_ontology, ontology, source_train, source_valid,
        target_corpus(), target_corpus(), TINY,
    )
    expected = preprocess(source_train)[1]
    assert result.model.vocab == expected


def test_run_experiment_vocab_comes_from_target_subset_for_t():
    from atomslot.corpus import subset_corpus

    ontology = target_ontology()
    result = run_experiment(
        "JS_T", None, ontology, None, None,
        target_corpus(), target_corpus(), TINY, subset=3,
    )
    subset = subset_corpus(target_corpus(), 3, TINY.seed)
    expected = preprocess(subset)[1]
    assert result.model.vocab == expected


def test_save_load_round_trip_preserves_decoding(tmp_path):
    ontology, source_ontology, src, src_valid, tgt, valid = adapt_corpora()
    result = adapt(
        "ACD_TS_1", source_ontology, ontology, src, src_valid, tgt, valid, TINY
    )
    save_model(result.model, tmp_path / "bundle", TINY)
    again = load_model(tmp_path / "bundle")
    assert again.kind == result.model.kind
    assert again.dims_used == result.model.dims_used
    assert again.ontology == result.model.ontology
    for u in target_corpus():
        assert decode(again, u.tokens) == decode(result.model, u.tokens)


def test_load_model_rejects_unknown_format(tmp_path):
    import json

    bundle = tmp_path / "bad"
    bundle.mkdir()
    (bundle / "manifest.json").write_text(json.dumps({"format": "nope"}))
    with pytest.raises(ModelError):
        load_model(bundle)


def _saved_js_bundle(tmp_path):
    ontology = target_ontology()
    corpus, valid = prepared_target()
    model, _ = train(JS, ontology, corpus, valid, TINY)
    save_model(model, tmp_path / "bundle", TINY)
    return tmp_path / "bundle"


@pytest.mark.parametrize("token", ["a\nb", "a\rb"])
def test_save_model_refuses_a_vocabulary_token_with_a_line_break(tmp_path, token):
    corpus = Corpus((utt("fly to boston", "O O B-to.city"), TaggedUtterance((token,), ("O",))))
    model = tagger(JS, target_ontology(), corpus)
    with pytest.raises(CorpusError, match=re.escape(repr(token))):
        save_model(model, tmp_path / "bundle", TINY)
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_save_model_refuses_non_finite_parameters(tmp_path, value):
    """A bundle that load_model would refuse is not written: the save
    raises load_model's error before it creates anything."""
    model = tagger(JS, target_ontology(), prepared_target()[0])
    model.stage1.heads_b[0] = value
    bundle = tmp_path / "bundle"
    with pytest.raises(ModelError) as caught:
        save_model(model, bundle, TINY)
    assert str(caught.value) == f"{bundle / 'stage1.npy'}: holds non-finite parameters"
    assert not bundle.exists()


def test_load_model_rejects_a_shortened_vocabulary(tmp_path):
    bundle = _saved_js_bundle(tmp_path)
    vocab = bundle / "vocab.txt"
    vocab.write_text("".join(vocab.read_text().splitlines(keepends=True)[:-5]))
    with pytest.raises(ModelError):
        load_model(bundle)


def test_load_model_rejects_a_renamed_slot(tmp_path):
    bundle = _saved_js_bundle(tmp_path)
    ontology = bundle / "ontology.txt"
    ontology.write_text(ontology.read_text().replace("to.city\t", "dest.city\t"))
    with pytest.raises(ModelError):
        load_model(bundle)


def test_load_model_rejects_a_manifest_without_files(tmp_path):
    import json

    bundle = _saved_js_bundle(tmp_path)
    manifest = json.loads((bundle / "manifest.json").read_text())
    del manifest["files"]
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelError):
        load_model(bundle)


def _untrained_acd1_bundle(tmp_path):
    ontology, source_ontology, source = source_setup()
    model = adjust_nn_arch(
        tagger(ACD1, source_ontology, source, dims_used=1), source_ontology, ontology, seed=0
    )
    save_model(model, tmp_path / "acd1")
    return model, tmp_path / "acd1"


@pytest.mark.parametrize(
    "name", ["stage1.npy", "stage2.npy", "shapes.json", "stage2_vocab.txt", "vocab.txt"]
)
def test_load_model_rejects_any_listed_file_that_changed(tmp_path, name):
    _, bundle = _untrained_acd1_bundle(tmp_path)
    path = bundle / name
    data = path.read_bytes()
    # six bytes short: for a parameter file, the last value loses its top bytes
    path.write_bytes(data[:-7] + b"\n")
    with pytest.raises(ModelError, match=name):
        load_model(bundle)


def test_load_model_reads_each_listed_file_once(tmp_path, monkeypatch):
    import builtins
    import json

    _, bundle = _untrained_acd1_bundle(tmp_path)
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(
        builtins, "open", lambda path, *a, **k: opened.append(str(path)) or real_open(path, *a, **k)
    )
    load_model(bundle)
    monkeypatch.undo()
    files = json.loads((bundle / "manifest.json").read_text())["files"]
    for base in files.values():
        assert opened.count(str(bundle / base)) == 1, base


def test_save_model_writes_each_file_once_and_reads_none(tmp_path, monkeypatch):
    import builtins
    import json

    model, _ = _untrained_acd1_bundle(tmp_path)
    bundle = tmp_path / "again"
    opened = []
    real_open = builtins.open

    def recording_open(path, mode="r", *a, **k):
        opened.append((str(path), mode))
        return real_open(path, mode, *a, **k)

    monkeypatch.setattr(builtins, "open", recording_open)
    save_model(model, bundle, TINY)
    monkeypatch.undo()
    files = json.loads((bundle / "manifest.json").read_text())["files"]
    written = sorted(path for path, mode in opened if "w" in mode)
    assert written == sorted(str(bundle / base) for base in [*files.values(), "manifest.json"])
    assert [path for path, mode in opened if "w" not in mode] == []


@pytest.mark.parametrize("preset", ["JS_T", "AC_TS", "ACD_TS_1", "ACD_TS_2"])
def test_saving_a_loaded_bundle_reproduces_every_byte(tmp_path, preset):
    ontology, source_ontology, src, src_valid, tgt, valid = adapt_corpora()
    model = adapt(preset, source_ontology, ontology, src, src_valid, tgt, valid, TINY).model
    save_model(model, tmp_path / "saved", TINY)
    save_model(load_model(tmp_path / "saved"), tmp_path / "resaved", TINY)
    names = sorted(path.name for path in (tmp_path / "saved").iterdir())
    assert sorted(path.name for path in (tmp_path / "resaved").iterdir()) == names
    for name in names:
        assert (tmp_path / "resaved" / name).read_bytes() == (
            tmp_path / "saved" / name
        ).read_bytes(), name


def _edit_manifest(bundle, edit):
    import json

    path = bundle / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def test_load_model_rejects_a_manifest_that_is_not_json(tmp_path):
    bundle = _saved_js_bundle(tmp_path)
    manifest = bundle / "manifest.json"
    manifest.write_text(manifest.read_text()[:-3])
    with pytest.raises(ModelError, match="manifest.json"):
        load_model(bundle)


def test_load_model_rejects_a_missing_listed_file(tmp_path):
    bundle = _saved_js_bundle(tmp_path)
    (bundle / "shapes.json").unlink()
    with pytest.raises(ModelError, match="shapes.json"):
        load_model(bundle)


def test_load_model_rejects_a_file_outside_the_bundle(tmp_path):
    bundle = _saved_js_bundle(tmp_path)
    other = tmp_path / "b"
    other.mkdir()
    (other / "vocab.txt").write_bytes((bundle / "vocab.txt").read_bytes())

    def escape(manifest):
        manifest["files"]["vocab"] = "../b/vocab.txt"
        return manifest

    _edit_manifest(bundle, escape)
    with pytest.raises(ModelError, match="not a file name"):
        load_model(bundle)


def test_load_model_rejects_shapes_that_miss_a_stage(tmp_path):
    import hashlib
    import json

    _, bundle = _untrained_acd1_bundle(tmp_path)
    shapes = bundle / "shapes.json"
    shapes.write_text(json.dumps({"stage1": json.loads(shapes.read_text())["stage1"]}))

    def rehash(manifest):
        manifest["sha256"]["shapes"] = hashlib.sha256(shapes.read_bytes()).hexdigest()
        return manifest

    _edit_manifest(bundle, rehash)
    with pytest.raises(ModelError, match="shapes"):
        load_model(bundle)


def test_load_model_rejects_a_bool_dims_used(tmp_path):
    _, bundle = _untrained_acd1_bundle(tmp_path)
    load_model(bundle)
    # True == 1, the count an ACD model keeps
    _edit_manifest(bundle, lambda m: {**m, "dims_used": True})
    with pytest.raises(ModelError, match="dims_used True"):
        load_model(bundle)


def test_load_model_rejects_a_text_bundle(tmp_path):
    """v1 stored text; v2 stored each cell's gate weights untransposed, so
    its arrays would load with the right sizes and give wrong tags."""
    bundle = _saved_js_bundle(tmp_path)
    for old in ("atomslot-model v1", "atomslot-model v2"):
        _edit_manifest(bundle, lambda m: {**m, "format": old})
        with pytest.raises(ModelError, match=old):
            load_model(bundle)


def test_load_model_rejects_non_finite_parameters(tmp_path):
    import hashlib

    bundle = _saved_js_bundle(tmp_path)
    path = bundle / "stage1.npy"
    buffer = np.load(path)
    buffer[3] = np.nan
    np.save(path, buffer)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    _edit_manifest(bundle, lambda m: {**m, "sha256": {**m["sha256"], "stage1": digest}})
    with pytest.raises(ModelError, match="stage1.npy: holds non-finite parameters") as caught:
        load_model(bundle)
    # the path once, not once from the reader and again from the bundle
    assert str(caught.value) == f"{path}: holds non-finite parameters"


def test_load_model_rejects_a_manifest_whose_hashes_miss_a_file(tmp_path):
    import json

    _, bundle = _untrained_acd1_bundle(tmp_path)
    manifest = json.loads((bundle / "manifest.json").read_text())
    del manifest["sha256"]["stage2_vocab"]
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelError):
        load_model(bundle)


def test_load_model_rejects_a_vocabulary_of_the_wrong_size(tmp_path):
    model = tagger(JS, target_ontology(), target_corpus())
    model.vocab = model.vocab.extended(["extra"])
    save_model(model, tmp_path / "b")
    with pytest.raises(ModelError, match="vocabulary"):
        load_model(tmp_path / "b")


def test_load_model_rejects_a_stage2_vocabulary_of_the_wrong_size(tmp_path):
    model, _ = _untrained_acd1_bundle(tmp_path)
    model.stage2_vocab = model.stage2_vocab.extended(["[spare]"])
    save_model(model, tmp_path / "b")
    with pytest.raises(ModelError, match="stage-2 tables"):
        load_model(tmp_path / "b")


def test_load_model_rejects_a_head_without_a_label_the_ontology_needs(tmp_path):
    ontology, source_ontology, source = source_setup()
    model = tagger(JS, source_ontology, source)
    model.ontology = ontology  # the target slots have no head rows
    save_model(model, tmp_path / "js")
    with pytest.raises(ModelError, match="no row"):
        load_model(tmp_path / "js")
    ac = tagger(AC, ontology, target_corpus(), dims_used=1)
    ac.dims_used = 2  # one dimension head short
    save_model(ac, tmp_path / "ac")
    with pytest.raises(ModelError, match="heads"):
        load_model(tmp_path / "ac")


def test_load_model_rejects_stage2_outside_acd_kinds(tmp_path):
    acd, _ = _untrained_acd1_bundle(tmp_path)
    js = tagger(JS, acd.ontology, target_corpus())
    js.stage2 = acd.stage2
    save_model(js, tmp_path / "js")
    with pytest.raises(ModelError, match="stage 2"):
        load_model(tmp_path / "js")
    acd.stage2 = None
    save_model(acd, tmp_path / "acd")
    with pytest.raises(ModelError, match="stage 2"):
        load_model(tmp_path / "acd")


@pytest.fixture(scope="module")
def intact_bundles(tmp_path_factory):
    """Untrained JS and ACD1 bundles (H = 4), with the models they hold."""
    root = tmp_path_factory.mktemp("intact")
    ontology, source_ontology, source = source_setup()
    acd1 = adjust_nn_arch(
        tagger(ACD1, source_ontology, source, dims_used=1), source_ontology, ontology, seed=0
    )
    bundles = {}
    for name, model in (("js", tagger(JS, ontology, target_corpus(), seed=1)), ("acd1", acd1)):
        save_model(model, root / name, TINY)
        bundles[name] = (root / name, model)
    return bundles


def assert_same_model(again, model):
    assert (again.kind, again.dims_used) == (model.kind, model.dims_used)
    assert again.ontology == model.ontology
    assert again.vocab == model.vocab
    assert again.stage2_vocab == model.stage2_vocab
    for loaded, saved in ((again.stage1, model.stage1), (again.stage2, model.stage2)):
        assert (loaded is None) == (saved is None)
        if saved is not None:
            assert loaded.shape == saved.shape
            assert np.array_equal(loaded.buffer, saved.buffer)
    probe = target_corpus()
    assert predict_corpus(again, probe) == predict_corpus(model, probe)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_damaged_bundle_loads_equal_or_raises_a_typed_error(intact_bundles, data):
    kind = data.draw(st.sampled_from(sorted(intact_bundles)), label="bundle")
    source, model = intact_bundles[kind]
    names = sorted(path.name for path in source.iterdir())
    damage = data.draw(
        st.sampled_from(["truncate", "flip", "delete", "rename", "flip manifest"]),
        label="damage",
    )
    if damage == "flip manifest":
        damage, name = "flip", "manifest.json"
    else:
        name = data.draw(st.sampled_from(names), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle"
        shutil.copytree(source, bundle)
        path = bundle / name
        raw = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="size")])
        elif damage == "flip":
            at = data.draw(st.integers(0, len(raw) - 1), label="byte")
            mask = data.draw(st.integers(1, 255), label="mask")
            path.write_bytes(raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:])
        elif damage == "delete":
            path.unlink()
        else:
            target = data.draw(st.sampled_from(names + ["renamed"]), label="to")
            os.replace(path, bundle / target)
        try:
            again = load_model(bundle)
        except (ModelError, neural.NeuralError):
            return
    assert_same_model(again, model)


# what save_model wrote as frozen_rows before it held one count per table:
# nothing for a model trained from scratch, and only the word table's count
# for ACD2's two stage-2 tables (stage, counts kept)
OLDER_FROZEN_ROWS = {"JS_T": ("stage1", 0), "AC_T": ("stage1", 0), "ACD_TS_2": ("stage2", 1)}


@pytest.mark.parametrize("preset", sorted(OLDER_FROZEN_ROWS))
def test_a_bundle_with_the_older_frozen_rows_loads(tmp_path, preset):
    import hashlib
    import json

    ontology, source_ontology, src, src_valid, tgt, valid = adapt_corpora()
    model = adapt(preset, source_ontology, ontology, src, src_valid, tgt, valid, TINY).model
    save_model(model, tmp_path / "new", TINY)
    bundle = Path(shutil.copytree(tmp_path / "new", tmp_path / "old"))
    shapes_path = bundle / "shapes.json"
    shapes = json.loads(shapes_path.read_text())
    stage, kept = OLDER_FROZEN_ROWS[preset]
    shapes[stage]["frozen_rows"] = shapes[stage]["frozen_rows"][:kept]
    shapes_path.write_text(json.dumps(shapes, sort_keys=True, indent=2) + "\n")
    digest = hashlib.sha256(shapes_path.read_bytes()).hexdigest()
    _edit_manifest(bundle, lambda m: {**m, "sha256": {**m["sha256"], "shapes": digest}})
    assert shapes_path.read_bytes() != (tmp_path / "new" / "shapes.json").read_bytes()
    again = load_model(bundle)
    assert_same_model(again, model)
    save_model(again, tmp_path / "resaved", TINY)
    for path in (tmp_path / "new").iterdir():
        assert (tmp_path / "resaved" / path.name).read_bytes() == path.read_bytes(), path.name


def test_adjusted_parameters_live_in_one_buffer(tmp_path):
    acd, _ = _untrained_acd1_bundle(tmp_path)
    ontology, source_ontology, source = source_setup()
    ac = adjust_nn_arch(
        tagger(AC, source_ontology, source, dims_used=1), source_ontology, ontology, seed=0
    )
    for params in (acd.stage1, acd.stage2, ac.stage1):
        for name, block in params.blocks():
            assert np.shares_memory(block, params.buffer), name


def test_shared_template_computes_the_initial_loss_once(monkeypatch):
    ontology = target_ontology()
    corpus, valid = prepared_target()
    grid = TrainingConfig(
        epochs=1, dropout=0.0, emb_dim=4, hidden=4, seed=0, lr_grid=(0.01, 0.02, 0.03)
    )
    calls = []
    real = neural.sequence_loss
    monkeypatch.setattr(
        neural, "sequence_loss", lambda *args: calls.append(1) or real(*args)
    )
    # the counter lives in this process, so the grid trains here
    monkeypatch.setattr(models, "_worker_count", lambda rates: 1)
    model, fresh_log = train(JS, ontology, corpus, valid, grid)
    assert len(calls) == 3
    calls.clear()
    _, tuned_log = train(JS, ontology, corpus, valid, grid, initial=model)
    assert len(calls) == 1
    losses = {c.initial_loss for c in tuned_log.candidates}
    assert len(losses) == 1
    assert len({c.initial_loss for c in fresh_log.candidates}) == 3
