import io
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomslot.corpus as corpus_module
from atomslot.corpus import (
    PAD_TOKEN,
    UNK_TOKEN,
    ConfigError,
    Corpus,
    CorpusError,
    GrammarConfig,
    OverlapError,
    ParseError,
    SlotSpan,
    TaggedUtterance,
    Template,
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
    relabel_collapse,
    rewrite_digits,
    spans_to_iob,
    subset_corpus,
    write_corpus,
)
from atomslot.ontology import UnknownSlot, build_ontology, collapse_ontology


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
    )
    path = tmp_path / "c.txt"
    write_corpus(corpus, path)
    again = read_corpus(path)
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
    corpus = Corpus((utt("a", "O"),))
    assert format_corpus(corpus).endswith("O\n")


@pytest.mark.parametrize("token", ["", "a\tb", "12\n", "a\rb"])
def test_write_corpus_rejects_tokens_it_cannot_read_back(tmp_path, token):
    corpus = Corpus((utt("a", "O"), TaggedUtterance(("fly", token), ("O", "O"))))
    path = tmp_path / "c.txt"
    with pytest.raises(CorpusError, match=f"utterance 2: .*{re.escape(repr(token))}"):
        write_corpus(corpus, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# preprocessing and vocabulary

def test_rewrite_digits():
    assert rewrite_digits("1990") == "DIGIT*4"
    assert rewrite_digits("7") == "DIGIT*1"
    assert rewrite_digits("10am") == "10am"
    assert rewrite_digits("twelve") == "twelve"
    assert rewrite_digits("12\n") == "12\n"


def test_preprocess_rewrites_digits_and_unks_singletons():
    corpus = Corpus(
        (
            utt("flight 1990 to boston", "O B-num O B-city"),
            utt("flight 2220 to denver", "O B-num O B-city"),
        ),
    )
    prepared, vocab = preprocess(corpus)
    # flight/to recur and survive; boston/denver are singletons
    assert prepared[0].tokens == ("flight", "DIGIT*4", "to", UNK_TOKEN)
    assert prepared[1].tokens == ("flight", "DIGIT*4", "to", UNK_TOKEN)
    assert "boston" not in vocab
    assert vocab.id_of(PAD_TOKEN) == 0
    assert vocab.id_of(UNK_TOKEN) == 1


def test_preprocess_keeps_tags():
    corpus = Corpus((utt("fly 12", "O B-num"),))
    prepared, _ = preprocess(corpus)
    assert prepared[0].tags == ("O", "B-num")


def test_preprocess_with_fixed_vocab_maps_oov():
    base = Corpus(
        (
            utt("fly to boston", "O O B-city"),
            utt("fly to boston", "O O B-city"),
        ),
    )
    _, vocab = preprocess(base)
    other = Corpus((utt("fly to dallas", "O O B-city"),))
    prepared, vocab2 = preprocess(other, vocab)
    assert vocab2 is vocab
    assert prepared[0].tokens == ("fly", "to", UNK_TOKEN)


def test_preprocess_idempotent_once_vocab_fixed():
    corpus = Corpus(
        (utt("fly 123 to boston boston", "O B-num O B-city I-city"),)
    )
    once, vocab = preprocess(corpus)
    twice, _ = preprocess(once, vocab)
    assert twice == once


def test_vocab_roundtrip_and_encode():
    corpus = Corpus((utt("a b a c", "O O O O"),))
    vocab = TokenVocabulary.from_corpus(corpus)
    assert vocab.encode(("a", "zzz")).tolist() == [vocab.id_of("a"), 1]
    text = vocab.format()
    assert text.splitlines()[:3] == [f"0\t{PAD_TOKEN}", f"1\t{UNK_TOKEN}", "2\ta"]
    again = TokenVocabulary.read(io.StringIO(text))
    assert again == vocab
    extended = vocab.extended(["q", "a"])
    assert len(extended) == len(vocab) + 1
    assert extended.id_of("q") == len(vocab)


def test_subset_is_deterministic_and_nested():
    utts = tuple(utt(f"w{i}", "O") for i in range(40))
    corpus = Corpus(utts)
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
    )
    test = Corpus(
        (
            utt("go from boston now", "O O B-from.city O"),
            utt("fly to denver", "O O B-to.city"),
            utt("leave on monday", "O O B-day"),
        ),
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
    corpus = generate_synthetic(grammar, grammar_ontology(), 20, seed=4)
    assert len(corpus) == 20
    for u in corpus:
        for span in iob_to_spans(u.tokens, u.tags):
            assert span.slot in grammar_ontology().branches


def test_generate_is_deterministic():
    grammar = parse_grammar(GRAMMAR_OK)
    ont = grammar_ontology()
    a = generate_synthetic(grammar, ont, 15, seed=8)
    b = generate_synthetic(grammar, ont, 15, seed=8)
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
        generate_synthetic(grammar, grammar_ontology(), 3, seed=0)


def test_generate_rejects_unknown_slot():
    grammar = parse_grammar("leave on $D\t$D=nope\nlexicon\tx\ty\n")
    with pytest.raises(ConfigError):
        generate_synthetic(grammar, grammar_ontology(), 3, seed=0)


def test_builtin_grammar_covers_its_ontology():
    grammar, ontology = builtin_flight_grammar()
    bound = {
        slot for template in grammar.templates for _, slot in template.bindings
    }
    assert bound == set(ontology.branches)
    corpus = generate_synthetic(grammar, ontology, 50, seed=0)
    assert len(corpus) == 50
    bottoms = {branch[0] for branch in ontology.branches.values()}
    assert bottoms <= set(grammar.lexicons)


@pytest.mark.parametrize("lexicons, message", [
    ({"day": (("monday",), ())}, "empty value"),
    ({"day": ()}, "is empty"),
])
def test_generate_rejects_an_empty_lexicon_before_any_draw(lexicons, message):
    grammar = GrammarConfig((Template("leave on $D", (("$D", "day"),)),), lexicons)
    for n in (0, 5):
        with pytest.raises(ConfigError, match=message):
            generate_synthetic(grammar, grammar_ontology(), n, seed=0)


def test_generate_rejects_an_unbound_placeholder_before_any_draw():
    grammar = GrammarConfig(
        (Template("leave on $D at $T", (("$D", "day"),)),), {"day": (("monday",),)}
    )
    with pytest.raises(ConfigError, match=r"unbound placeholder \$T"):
        generate_synthetic(grammar, grammar_ontology(), 0, seed=0)


# ---------------------------------------------------------------------------
# the tag cache

def test_a_malformed_tag_raises_on_every_use_and_is_never_cached(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("fly\tO\nboston\tB-\n")
    for _ in range(2):
        for bad in ("B-", "Q-x", "I- x", "B-city\n"):
            with pytest.raises(ValueError, match="malformed tag"):
                TaggedUtterance(("a",), (bad,))
            with pytest.raises(ValueError, match="malformed tag"):
                parse_tag(bad)
            with pytest.raises(ValueError, match="malformed tag"):
                iob_to_spans(("a", "b"), ("O", bad))
            assert bad not in corpus_module._accepted_tags
        with pytest.raises(ParseError, match="malformed tag") as err:
            read_corpus(path)
        assert err.value.line == 2
        assert "B-" not in corpus_module._accepted_tags


def test_the_tag_cache_stays_within_its_bound():
    limit = corpus_module._ACCEPTED_TAGS_LIMIT
    for i in range(limit + 50):
        TaggedUtterance(("a", "b"), (f"B-s{i}", f"I-s{i}"))
        assert len(corpus_module._accepted_tags) <= limit
    # tags dropped when the cache was emptied are still accepted
    assert TaggedUtterance(("a",), ("B-s0",)).tags == ("B-s0",)


# ---------------------------------------------------------------------------
# the tag writers against span-based reference implementations

def reference_iob_to_spans(tokens, tags):
    spans = []
    start = None
    current = ""
    for i, tag in enumerate(tags):
        prefix, slot = parse_tag(tag)
        if start is not None and (prefix in ("O", "B") or slot != current):
            spans.append(SlotSpan(current, start, i, tuple(tokens[start:i])))
            start = None
        if prefix != "O" and start is None:
            start = i
            current = slot
    if start is not None:
        spans.append(SlotSpan(current, start, len(tags), tuple(tokens[start:])))
    return tuple(spans)


def reference_generate_synthetic(grammar, ontology, n, seed):
    rng = np.random.default_rng(seed)
    utterances = []
    for _ in range(n):
        template = grammar.templates[int(rng.integers(len(grammar.templates)))]
        bindings = dict(template.bindings)
        tokens = []
        spans = []
        for word in template.text.split():
            if not word.startswith("$"):
                tokens.append(word)
                continue
            slot = bindings[word]
            lexicon = grammar.lexicons[ontology.branches[slot][0]]
            value = lexicon[int(rng.integers(len(lexicon)))]
            start = len(tokens)
            tokens.extend(value)
            spans.append(SlotSpan(slot, start, len(tokens), value))
        utterances.append(TaggedUtterance(tuple(tokens), spans_to_iob(tokens, spans)))
    return Corpus(tuple(utterances))


def reference_relabel_collapse(corpus, mapping):
    out = []
    for u in corpus:
        spans = []
        for span in reference_iob_to_spans(u.tokens, u.tags):
            if span.slot not in mapping:
                raise UnknownSlot(f"slot {span.slot!r} missing from collapse mapping")
            spans.append(replace(span, slot=mapping[span.slot]))
        out.append(TaggedUtterance(u.tokens, spans_to_iob(u.tokens, spans)))
    return Corpus(tuple(out))


def reference_perturb_test_set(train, test, ontology, seed):
    values = {}
    for u in train:
        for span in reference_iob_to_spans(u.tokens, u.tags):
            values.setdefault(span.slot, set()).add(span.value)
    by_concept = {}
    for slot in values:
        by_concept.setdefault(ontology.branches[slot][0], set()).add(slot)

    def pool_for(slot):
        pool = set()
        for sibling in by_concept.get(ontology.branches[slot][0], ()):
            pool |= values[sibling]
        return sorted(pool - values.get(slot, set()))

    rng = np.random.default_rng(seed)
    out = []
    for u in test:
        tokens = []
        spans = []
        cursor = 0
        for span in reference_iob_to_spans(u.tokens, u.tags):
            tokens.extend(u.tokens[cursor:span.start])
            candidates = pool_for(span.slot)
            value = (
                candidates[int(rng.integers(len(candidates)))]
                if candidates
                else span.value
            )
            start = len(tokens)
            tokens.extend(value)
            spans.append(SlotSpan(span.slot, start, len(tokens), tuple(value)))
            cursor = span.end
        tokens.extend(u.tokens[cursor:])
        out.append(TaggedUtterance(tuple(tokens), spans_to_iob(tokens, spans)))
    return Corpus(tuple(out))


def assert_same_corpus(fast, slow):
    assert [u.tokens for u in fast] == [u.tokens for u in slow]
    assert [u.tags for u in fast] == [u.tags for u in slow]


MULTI_TOKEN_GRAMMAR = """\
fly from $A to $B on $D\t$A=from.city,$B=to.city,$D=day
$D is fine\t$D=day
from $A\t$A=from.city
lexicon\tcity\tsalt lake city
lexicon\tcity\tboston
lexicon\tcity\tnew york
lexicon\tday\tthe day after tomorrow
lexicon\tday\tmonday
"""


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_generate_matches_the_span_based_reference(seed):
    for grammar, ontology in (
        builtin_flight_grammar(),
        (parse_grammar(MULTI_TOKEN_GRAMMAR), grammar_ontology()),
    ):
        for n in (0, 1, 120):
            fast = generate_synthetic(grammar, ontology, n, seed)
            slow = reference_generate_synthetic(grammar, ontology, n, seed)
            assert_same_corpus(fast, slow)


@pytest.mark.parametrize("seed", [0, 3])
def test_collapse_and_perturb_match_the_span_based_reference(seed):
    grammar, ontology = builtin_flight_grammar()
    _, mapping = collapse_ontology(ontology, 1)
    train = generate_synthetic(grammar, ontology, 150, seed, "target")
    test = generate_synthetic(grammar, ontology, 80, seed + 100, "test")
    assert_same_corpus(
        relabel_collapse(train, mapping), reference_relabel_collapse(train, mapping)
    )
    assert_same_corpus(
        perturb_test_set(train, test, ontology, seed),
        reference_perturb_test_set(train, test, ontology, seed),
    )


@pytest.mark.parametrize("tokens, tags", [
    ("a b c", "O I-x O"),  # orphan I-
    ("a b c", "I-x I-x B-y"),  # orphan I- opening the utterance
    ("a b c", "B-x I-y I-y"),  # type switch
    ("a b c d", "B-x B-y I-y B-x"),  # adjacent B- spans that map to one slot
    ("a b", "I-x I-y"),  # orphan I- then a type switch to the same target
    ("a b c", "O O O"),
])
def test_collapse_of_malformed_iob_matches_the_reference(tokens, tags):
    corpus = Corpus((utt(tokens, tags),))
    mapping = {"x": "z", "y": "z"}
    assert_same_corpus(
        relabel_collapse(corpus, mapping), reference_relabel_collapse(corpus, mapping)
    )


def test_collapse_rejects_a_slot_missing_from_the_mapping():
    corpus = Corpus((utt("a b", "B-x B-y"),))
    with pytest.raises(UnknownSlot, match="'y'"):
        relabel_collapse(corpus, {"x": "z"})


def random_ontology():
    return build_ontology(
        2,
        (
            ("city", ("place", "null")),
            ("state", ("place", "region")),
            ("time.at", ("time", "at")),
        ),
    )


def corpus_of(cases, offset):
    utterances = []
    for k, (n, spans) in enumerate(cases):
        tokens = tuple(f"w{(i + k * offset) % 5}" for i in range(n))
        utterances.append(TaggedUtterance(tokens, spans_to_iob(tokens, spans)))
    return Corpus(tuple(utterances))


@given(st.lists(span_sets(), min_size=1, max_size=6), st.lists(span_sets(), max_size=6),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_span_set_corpora_match_the_reference(train_cases, test_cases, seed):
    ontology = random_ontology()
    train = corpus_of(train_cases, 3)
    test = corpus_of(test_cases, 2)
    mapping = {"city": "place", "state": "place", "time.at": "time"}
    assert_same_corpus(
        relabel_collapse(train, mapping), reference_relabel_collapse(train, mapping)
    )
    assert_same_corpus(
        perturb_test_set(train, test, ontology, seed),
        reference_perturb_test_set(train, test, ontology, seed),
    )


@given(st.lists(
    st.lists(st.sampled_from(["O", "B-city", "I-city", "B-state", "I-state", "I-time.at"]),
             min_size=1, max_size=10),
    min_size=1, max_size=5,
))
@settings(max_examples=100, deadline=None)
def test_collapse_of_random_iob_matches_the_reference(tag_lists):
    corpus = Corpus(
        tuple(TaggedUtterance(tuple(f"w{i}" for i in range(len(tags))), tuple(tags))
              for tags in tag_lists),
    )
    mapping = {"city": "place", "state": "place", "time.at": "time"}
    assert_same_corpus(
        relabel_collapse(corpus, mapping), reference_relabel_collapse(corpus, mapping)
    )
