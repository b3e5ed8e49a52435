"""Round trip between IOB tag sequences, spans, and corpus files."""

from atomslot.corpus import (
    Corpus,
    SlotSpan,
    TaggedUtterance,
    builtin_flight_grammar,
    format_corpus,
    generate_synthetic,
    iob_to_spans,
    preprocess,
    rewrite_digits,
    spans_to_iob,
)

tokens = ("show", "flights", "from", "new", "york", "to", "boston", "tomorrow")
tags = ("O", "O", "O", "B-from.city", "I-from.city", "O", "B-to.city", "B-day")

spans = iob_to_spans(tokens, tags)
print("spans recovered from tags:")
for span in spans:
    print(f"  {span.slot:<10} [{span.start}:{span.end}] {' '.join(span.value)}")

assert spans_to_iob(tokens, spans) == tags  # lossless in both directions

# The on-disk format is one token<TAB>tag pair per line, blank line
# between utterances.
corpus = Corpus([TaggedUtterance(tokens, tags)])
print("\nfile format:")
print(format_corpus(corpus))

# Digit strings collapse to a shape token so "7" and "9" look alike.
print("rewrite_digits:", [rewrite_digits(t) for t in ("at", "7", "am", "flight", "1990")])

# preprocess() maps hapax tokens to the unknown marker and builds the
# vocabulary the neural nets index into.
raw = Corpus(
    [
        TaggedUtterance(("fly", "to", "boston"), ("O", "O", "B-to.city")),
        TaggedUtterance(("fly", "to", "denver"), ("O", "O", "B-to.city")),
    ],
)
prepared, vocab = preprocess(raw)
print("after preprocess (boston/denver occur once):")
for u in prepared:
    print(" ", u.tokens)
print("vocabulary:", vocab.tokens())

# The bundled grammar generates flight requests over a 20-slot,
# 2-dimension ontology; handy for experiments without real data.
grammar, ontology = builtin_flight_grammar()
sample = generate_synthetic(grammar, ontology, 3, seed=4)
print("\nthree generated sentences:")
for u in sample:
    print(" ", " ".join(u.tokens))
    print(" ", " ".join(u.tags))
