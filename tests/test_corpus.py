import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslot.corpus import (
    PAD_TOKEN,
    UNK_TOKEN,
    ConfigError,
    Corpus,
    CorpusError,
    OverlapError,
    ParseError,
    SlotSpan,
    TaggedUtterance,
    TokenVocabulary,
    builtin_flight_grammar,
    format_corpus,
    generate_synthetic,
    iob_to_spans,
    parse_grammar,
    parse_tag,
    perturb_test_set,
    preprocess,
    read_corpus,
    rewrite_digits,
    spans_to_iob,
    subset_corpus,
    write_corpus,
)
from atomslot.ontology import build_ontology


def utt(tokens, tags):
    return TaggedUtterance(tuple(tokens.split()), tuple(tags.split()))


# ---------------------------------------------------------------------------
# tags and spans

def test_parse_tag():
    assert parse_tag("O") == ("O", "")
    assert parse_tag("B-fromloc.city_name") == ("B", "fromloc.city_name")
    assert parse_tag("I-x") == ("I", "x")
    for bad in ("", "B-", "X-slot", "b-slot", "B slot"):
        with pytest.raises(ValueError):
            parse_tag(bad)


def test_spans_from_plain_iob():
    spans = iob_to_spans("fly to new york".split(), ["O", "O", "B-city", "I-city"])
    assert spans == (SlotSpan("city", 2, 4, ("new", "york")),)


def test_orphan_inside_tag_starts_chunk():
    spans = iob_to_spans("a b c".split(), ["O", "I-city", "O"])
    assert spans == (SlotSpan("city", 1, 2, ("b",)),)


def test_inside_after_different_type_starts_chunk():
    spans = iob_to_spans("a b".split(), ["B-city", "I-state"])
    assert spans == (
        SlotSpan("city", 0, 1, ("a",)),
        SlotSpan("state", 1, 2, ("b",)),
    )


def test_adjacent_begin_tags_make_two_chunks():
    spans = iob_to_spans("a b".split(), ["B-city", "B-city"])
    assert [s.start for s in spans] == [0, 1]


def test_chunk_open_at_end_is_closed():
    spans = iob_to_spans("a b".split(), ["O", "B-city"])
    assert spans == (SlotSpan("city", 1, 2, ("b",)),)


def test_spans_to_iob_round_trip_examples():
    tags = ["O", "B-city", "I-city", "O", "B-state"]
    spans = iob_to_spans("a b c d e".split(), tags)
    assert list(spans_to_iob(tuple("abcde"), spans)) == tags


def test_spans_to_iob_rejects_overlap():
    spans = (SlotSpan("x", 0, 2), SlotSpan("y", 1, 3))
    with pytest.raises(OverlapError):
        spans_to_iob(tuple("abc"), spans)


def test_spans_to_iob_rejects_out_of_bounds():
    with pytest.raises(CorpusError):
        spans_to_iob(tuple("ab"), (SlotSpan("x", 1, 3),))


@st.composite
def span_sets(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    spans = []
    pos = 0
    while pos < n:
        gap = draw(st.integers(min_value=0, max_value=3))
        start = pos + gap
        if start >= n:
            break
        length = draw(st.integers(min_value=1, max_value=min(3, n - start)))
        slot = draw(st.sampled_from(["city", "state", "time.at"]))
        spans.append(SlotSpan(slot, start, start + length))
        pos = start + length
    return n, tuple(spans)


@given(span_sets())
@settings(max_examples=200)
def test_span_iob_round_trip_property(case):
    n, spans = case
    tokens = tuple(f"w{i}" for i in range(n))
    tags = spans_to_iob(tokens, spans)
    back = iob_to_spans(tokens, tags)
    assert tuple((s.slot, s.start, s.end) for s in back) == tuple(
        (s.slot, s.start, s.end) for s in spans
    )


# ---------------------------------------------------------------------------
# utterances and files

def test_utterance_validates_lengths_and_tags():
    with pytest.raises(ValueError):
        TaggedUtterance(("a",), ("O", "O"))
    with pytest.raises(ValueError):
        TaggedUtterance(("a",), ("Q-x",))


def test_corpus_file_round_trip(tmp_path):
    corpus = Corpus(
        (
            utt("fly to boston", "O O B-city"),
            utt("on monday please", "O B-day O"),
        ),
        "target",
    )
    path = tmp_path / "c.txt"
    write_corpus(corpus, path)
    again = read_corpus(path, role="target")
    assert again == corpus
    # one token-tab-tag line per token, blank line between utterances
    assert path.read_text().split("\n")[3] == ""


def test_read_corpus_reports_bad_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("fly\tO\nboston\n")
    with pytest.raises(ParseError) as err:
        read_corpus(path)
    assert err.value.line == 2


def test_read_corpus_rejects_double_blank(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("fly\tO\n\n\nboston\tO\n")
    with pytest.raises(ParseError):
        read_corpus(path)


def test_format_corpus_ends_with_newline():
    corpus = Corpus((utt("a", "O"),), "target")
    assert format_corpus(corpus).endswith("O\n")


# ---------------------------------------------------------------------------
# preprocessing and vocabulary

def test_rewrite_digits():
    assert rewrite_digits("1990") == "DIGIT*4"
    assert rewrite_digits("7") == "DIGIT*1"
    assert rewrite_digits("10am") == "10am"
    assert rewrite_digits("twelve") == "twelve"


def test_preprocess_rewrites_digits_and_unks_singletons():
    corpus = Corpus(
        (
            utt("flight 1990 to boston", "O B-num O B-city"),
            utt("flight 2220 to denver", "O B-num O B-city"),
        ),
        "target",
    )
    prepared, vocab = preprocess(corpus)
    # flight/to recur and survive; boston/denver are singletons
    assert prepared[0].tokens == ("flight", "DIGIT*4", "to", UNK_TOKEN)
    assert prepared[1].tokens == ("flight", "DIGIT*4", "to", UNK_TOKEN)
    assert "boston" not in vocab
    assert vocab.id_of(PAD_TOKEN) == 0
    assert vocab.id_of(UNK_TOKEN) == 1


def test_preprocess_keeps_tags():
    corpus = Corpus((utt("fly 12", "O B-num"),), "target")
    prepared, _ = preprocess(corpus)
    assert prepared[0].tags == ("O", "B-num")


def test_preprocess_with_fixed_vocab_maps_oov():
    base = Corpus(
        (
            utt("fly to boston", "O O B-city"),
            utt("fly to boston", "O O B-city"),
        ),
        "target",
    )
    _, vocab = preprocess(base)
    other = Corpus((utt("fly to dallas", "O O B-city"),), "test")
    prepared, vocab2 = preprocess(other, vocab)
    assert vocab2 is vocab
    assert prepared[0].tokens == ("fly", "to", UNK_TOKEN)


def test_preprocess_idempotent_once_vocab_fixed():
    corpus = Corpus(
        (utt("fly 123 to boston boston", "O B-num O B-city I-city"),), "target"
    )
    once, vocab = preprocess(corpus)
    twice, _ = preprocess(once, vocab)
    assert twice == once


def test_vocab_roundtrip_and_encode(tmp_path):
    corpus = Corpus((utt("a b a c", "O O O O"),), "target")
    vocab = TokenVocabulary.from_corpus(corpus)
    assert vocab.encode(("a", "zzz")).tolist() == [vocab.id_of("a"), 1]
    path = tmp_path / "v.txt"
    vocab.save(path)
    again = TokenVocabulary.load(path)
    assert again == vocab
    extended = vocab.extended(["q", "a"])
    assert len(extended) == len(vocab) + 1
    assert extended.id_of("q") == len(vocab)


def test_subset_is_deterministic_and_nested():
    utts = tuple(utt(f"w{i}", "O") for i in range(40))
    corpus = Corpus(utts, "target")
    small = subset_corpus(corpus, 10, seed=5)
    again = subset_corpus(corpus, 10, seed=5)
    big = subset_corpus(corpus, 20, seed=5)
    assert small == again
    assert set(small.utterances) <= set(big.utterances)
    assert subset_corpus(corpus, 99, seed=5) == corpus
    assert len(subset_corpus(corpus, 0, seed=5)) == 0


# ---------------------------------------------------------------------------
# perturbation

def perturb_setup():
    ontology = build_ontology(
        2,
        (
            ("from.city", ("city", "from")),
            ("to.city", ("city", "to")),
            ("day", ("day", "null")),
        ),
    )
    train = Corpus(
        (
            utt("go from boston now", "O O B-from.city O"),
            utt("go from denver now", "O O B-from.city O"),
            utt("fly to new york", "O O B-to.city I-to.city"),
            utt("fly to miami", "O O B-to.city"),
            utt("leave on monday", "O O B-day"),
        ),
        "target",
    )
    test = Corpus(
        (
            utt("go from boston now", "O O B-from.city O"),
            utt("fly to denver", "O O B-to.city"),
            utt("leave on monday", "O O B-day"),
        ),
        "test",
    )
    return ontology, train, test


def test_perturb_swaps_values_for_sibling_seen_ones():
    ontology, train, test = perturb_setup()
    out = perturb_test_set(train, test, ontology, seed=3)
    # from.city values in train: {boston, denver}; siblings (to.city): {new york, miami}
    first = out[0]
    assert first.tokens[0:2] == ("go", "from")
    value = iob_to_spans(first.tokens, first.tags)[0].value
    assert value in (("new", "york"), ("miami",))
    # to.city span must become a from.city-only value
    second_value = iob_to_spans(out[1].tokens, out[1].tags)[0].value
    assert second_value in (("boston",), ("denver",))


def test_perturb_leaves_slots_without_alternatives_alone():
    ontology, train, test = perturb_setup()
    out = perturb_test_set(train, test, ontology, seed=3)
    # day has no sibling slot, so its pool is empty: utterance unchanged
    assert out[2] == test[2]


def test_perturb_is_deterministic_and_preserves_structure():
    ontology, train, test = perturb_setup()
    a = perturb_test_set(train, test, ontology, seed=9)
    b = perturb_test_set(train, test, ontology, seed=9)
    assert a == b
    for before, after in zip(test, a):
        assert len(iob_to_spans(before.tokens, before.tags)) == len(
            iob_to_spans(after.tokens, after.tags)
        )
        spans_before = iob_to_spans(before.tokens, before.tags)
        spans_after = iob_to_spans(after.tokens, after.tags)
        assert [s.slot for s in spans_before] == [s.slot for s in spans_after]


def test_perturbed_values_unseen_with_that_slot():
    ontology, train, test = perturb_setup()
    seen = {}
    for u in train:
        for s in iob_to_spans(u.tokens, u.tags):
            seen.setdefault(s.slot, set()).add(s.value)
    out = perturb_test_set(train, test, ontology, seed=1)
    for u in out[:2]:
        for s in iob_to_spans(u.tokens, u.tags):
            assert s.value not in seen[s.slot]


# ---------------------------------------------------------------------------
# grammar and synthesis

GRAMMAR_OK = """\
# comment
fly from $A to $B\t$A=from.city,$B=to.city
leave on $D\t$D=day
lexicon\tcity\tboston
lexicon\tcity\tnew york
lexicon\tday\tmonday
"""


def grammar_ontology():
    return build_ontology(
        2,
        (
            ("from.city", ("city", "from")),
            ("to.city", ("city", "to")),
            ("day", ("day", "null")),
        ),
    )


def test_parse_grammar_and_generate():
    grammar = parse_grammar(GRAMMAR_OK)
    assert len(grammar.templates) == 2
    assert grammar.lexicons["city"] == (("boston",), ("new", "york"))
    corpus = generate_synthetic(grammar, grammar_ontology(), 20, seed=4, role="target")
    assert len(corpus) == 20
    for u in corpus:
        for span in iob_to_spans(u.tokens, u.tags):
            assert span.slot in grammar_ontology().branches


def test_generate_is_deterministic():
    grammar = parse_grammar(GRAMMAR_OK)
    ont = grammar_ontology()
    a = generate_synthetic(grammar, ont, 15, seed=8, role="target")
    b = generate_synthetic(grammar, ont, 15, seed=8, role="target")
    assert a == b


def test_grammar_rejects_unbound_placeholder():
    with pytest.raises(ConfigError):
        parse_grammar("fly to $A\t$B=day\nlexicon\tday\tmonday\n")


def test_grammar_rejects_unused_binding():
    with pytest.raises(ConfigError):
        parse_grammar("fly now\t$A=day\nlexicon\tday\tmonday\n")


def test_grammar_rejects_duplicate_binding():
    with pytest.raises(ConfigError):
        parse_grammar("fly $A\t$A=day,$A=day\nlexicon\tday\tmonday\n")


def test_grammar_needs_templates():
    with pytest.raises(ConfigError):
        parse_grammar("lexicon\tday\tmonday\n")


def test_generate_rejects_missing_lexicon():
    grammar = parse_grammar("leave on $D\t$D=day\n")
    with pytest.raises(ConfigError):
        generate_synthetic(grammar, grammar_ontology(), 3, seed=0, role="target")


def test_generate_rejects_unknown_slot():
    grammar = parse_grammar("leave on $D\t$D=nope\nlexicon\tx\ty\n")
    with pytest.raises(ConfigError):
        generate_synthetic(grammar, grammar_ontology(), 3, seed=0, role="target")


def test_builtin_grammar_covers_its_ontology():
    grammar, ontology = builtin_flight_grammar()
    bound = {
        slot for template in grammar.templates for _, slot in template.bindings
    }
    assert bound == set(ontology.branches)
    corpus = generate_synthetic(grammar, ontology, 50, seed=0, role="target")
    assert len(corpus) == 50
    bottoms = {branch[0] for branch in ontology.branches.values()}
    assert bottoms <= set(grammar.lexicons)
