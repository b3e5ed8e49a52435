"""Batched inference against the per-sentence path it replaced.

The reference below is the per-sentence LSTM loop and the per-kind decoders
as they were before inference was batched: one sentence at a time, the
input projection inside the time loop, three separate sigmoids.  The
batched kernel sums in another order, so features agree to 1e-12 and tags
exactly.
"""

import numpy as np
import pytest
from scipy.special import expit

from atomslot import neural
from atomslot.corpus import Corpus, TaggedUtterance, TokenVocabulary, builtin_flight_grammar
from atomslot.models import (
    AC,
    ACD1,
    ACD1U,
    ACD2,
    ACD_KINDS,
    JS,
    TaggerModel,
    _stage1_head_labels,
    adjust_nn_arch,
    decode,
    gather_sequence,
    predict_corpus,
)
from atomslot.neural import ShapeSpec, init_params
from atomslot.ontology import branch_to_slot, collapse_ontology

HIDDEN = 8
SAME_LENGTH = 6


def reference_direction(cell, xs):
    n, D = xs.shape
    H = cell.hidden
    xh = np.zeros(D + H)
    h = np.zeros(H)
    c = np.zeros(H)
    out = np.empty((n, H))
    for t in range(n):
        xh[:D] = xs[t]
        xh[D:] = h
        z = cell.w @ xh + cell.b
        i = expit(z[:H])
        f = expit(z[H:2 * H])
        o = expit(z[2 * H:3 * H])
        g = np.tanh(z[3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def reference_features(params, ids):
    seqs = ids if isinstance(ids, tuple) else (ids,)
    if len(seqs[0]) == 0:
        return np.zeros((0, 2 * params.hidden))
    xs = np.concatenate([t.weights[s] for t, s in zip(params.tables, seqs)], axis=1)
    fwd = reference_direction(params.fwd, xs)
    bwd = reference_direction(params.bwd, xs[::-1])[::-1]
    return np.concatenate([fwd, bwd], axis=1)


def reference_choices(params, ids):
    feats = reference_features(params, ids)
    return [
        [head.labels[k] for k in neural.head_forward(head, feats).argmax(axis=1)]
        for head in params.heads
    ]


def reference_decode(model, tokens):
    choices = reference_choices(model.stage1, model.vocab.encode(tokens))
    if model.kind == JS:
        return tuple(choices[0])
    iob, dims = choices[0], choices[1:]
    if model.kind in ACD_KINDS:
        dim1 = dims[0]
        if model.kind == ACD2:
            concept = {a: k for k, a in enumerate(model.stage1.heads[1].labels)}
            ids = (model.vocab.encode(tokens), np.array([concept[a] for a in dim1]))
            dim2 = reference_choices(model.stage2, ids)[0]
        else:
            gathered, groups = gather_sequence(tokens, iob, dim1, model.kind == ACD1U)
            per_group = reference_choices(
                model.stage2, model.stage2_vocab.encode(gathered)
            )[0]
            dim2 = [None] * len(tokens)
            for label, group in zip(per_group, groups):
                for p in group:
                    dim2[p] = label
        dims = [dim1, dim2]
    return tuple(
        "O" if iob[t] == "O"
        else f"{iob[t]}-{branch_to_slot(model.ontology, tuple(d[t] for d in dims))}"
        for t in range(len(tokens))
    )


@pytest.fixture(scope="module")
def setting():
    _, ontology = builtin_flight_grammar()
    source_ontology, _ = collapse_ontology(ontology, 1)
    vocab = TokenVocabulary(f"w{i}" for i in range(40))
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(40)] + ["unseen"]
    lengths = [0] + [SAME_LENGTH] * (neural.GROUP_CAP * 2 + 5)
    lengths += list(rng.integers(1, 15, size=60))
    rng.shuffle(lengths)
    token_seqs = [tuple(rng.choice(words, size=n)) for n in lengths]
    corpus = Corpus(
        tuple(TaggedUtterance(t, ("O",) * len(t)) for t in token_seqs), "test"
    )
    return ontology, source_ontology, vocab, corpus


def make_model(kind, setting, seed):
    ontology, source_ontology, vocab, _ = setting
    dims_used = {JS: 0, AC: ontology.depth}.get(kind, 1)
    stage1_ontology = source_ontology if kind in ACD_KINDS else ontology
    heads = _stage1_head_labels(kind, stage1_ontology, dims_used)
    params = init_params(
        ShapeSpec(tables=((len(vocab), 6),), hidden=HIDDEN, heads=heads), seed, 1.0
    )
    model = TaggerModel(kind, stage1_ontology, vocab, params, dims_used)
    if kind in ACD_KINDS:
        model = adjust_nn_arch(
            model, source_ontology, ontology, seed, init_range=1.0, concept_emb_dim=3
        )
    return model


@pytest.mark.parametrize("kind", [JS, AC, ACD1, ACD1U, ACD2])
def test_batched_tags_equal_the_per_sentence_reference(setting, kind):
    corpus = setting[3]
    model = make_model(kind, setting, seed=11)
    batched = predict_corpus(model, corpus)
    reference = [reference_decode(model, u.tokens) for u in corpus]
    assert batched == reference
    assert any(tag != "O" for tags in batched for tag in tags)
    for u, tags in zip(corpus, batched):
        assert decode(model, u.tokens) == tags


def test_gather_path_collapses_spans(setting):
    model = make_model(ACD1, setting, seed=11)
    collapsed = 0
    for u in setting[3]:
        iob, dim1 = reference_choices(model.stage1, model.vocab.encode(u.tokens))[:2]
        gathered, _ = gather_sequence(u.tokens, iob, dim1, unified=False)
        collapsed += len(u.tokens) - len(gathered)
    assert collapsed > 0


@pytest.mark.parametrize("kind", [AC, ACD1])
def test_equal_tags_are_one_string(setting, kind):
    """Each distinct (IOB, branch) is named once, and every position with
    that choice holds the same string object."""
    corpus = setting[3]
    model = make_model(kind, setting, seed=11)
    tags = predict_corpus(model, corpus)
    assert tags == [reference_decode(model, u.tokens) for u in corpus]
    first = {}
    for tag in (tag for seq in tags for tag in seq):
        assert first.setdefault(tag, tag) is tag
    assert sum(tag != "O" for tag in first) > 1


@pytest.mark.parametrize("kind", [JS, ACD2])
def test_batched_features_equal_the_per_sentence_loop(setting, kind):
    corpus = setting[3]
    model = make_model(kind, setting, seed=3)
    params = model.stage1 if kind == JS else model.stage2
    items = []
    for u in corpus:
        ids = model.vocab.encode(u.tokens)
        items.append(ids if kind == JS else (ids, ids % len(params.tables[1].weights)))
    seen = set()
    for members, features in neural.blstm_forward_batch(params, items):
        assert 1 <= len(members) <= neural.GROUP_CAP
        for k, feats in zip(members, features):
            assert len(corpus.utterances[k]) == features.shape[1]
            np.testing.assert_allclose(
                feats, reference_features(params, items[k]), rtol=0, atol=1e-12
            )
            seen.add(int(k))
    empty = {k for k, u in enumerate(corpus) if len(u) == 0}
    assert empty and seen == set(range(len(corpus))) - empty
    same = [k for k, u in enumerate(corpus) if len(u) == SAME_LENGTH]
    assert len(same) > neural.GROUP_CAP


@pytest.mark.parametrize("batch", [1, 5])
def test_cache_free_features_equal_the_training_kernel(setting, batch):
    """Inference and training share the step math and the products, so the
    cache-free pass gives the caching kernel's features bit for bit."""
    model = make_model(ACD2, setting, seed=5)
    params = model.stage2
    rng = np.random.default_rng(batch)
    xs = rng.normal(size=(7, batch, params.input_dim))
    features = neural._features(params, xs)
    assert features.flags.c_contiguous
    assert np.array_equal(features, neural._run_cells(params, xs).features().transpose(1, 0, 2))
