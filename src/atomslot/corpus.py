"""Tagged corpora: file I/O, the IOB codec, preprocessing, perturbation
and synthetic data generation.

Corpus files hold one ``token<TAB>tag`` pair per line with a blank line
between utterances.  Chunk boundaries follow the CoNLL evaluation
conventions, so an ``I-x`` after ``O`` or after a different type starts a
new chunk.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ontology import NULL_ATOM, Ontology, UnknownSlot

UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"

ROLES = ("source", "target", "validation", "test")

_TAG_RE = re.compile(r"O|[BI]-\S+")
_ALL_DIGITS_RE = re.compile(r"[0-9]+")

# Distinct tags that already matched _TAG_RE, so each is matched once and
# not once per token.  Membership only skips the match and changes no
# result, so one set serves the whole process; it is emptied when full,
# and a malformed tag never enters it.
_ACCEPTED_TAGS_LIMIT = 4096
_accepted_tags: set[str] = set()


class CorpusError(Exception):
    """Base error for corpus handling."""


class ParseError(CorpusError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class OverlapError(CorpusError):
    """Two spans claim the same token."""


class ConfigError(CorpusError):
    """A grammar configuration is unusable."""


def _check_tag(tag: str) -> None:
    """ValueError unless ``tag`` is ``O``, ``B-x`` or ``I-x``."""
    if tag in _accepted_tags:
        return
    if not _TAG_RE.fullmatch(tag):
        raise ValueError(f"malformed tag {tag!r}")
    if len(_accepted_tags) >= _ACCEPTED_TAGS_LIMIT:
        _accepted_tags.clear()
    _accepted_tags.add(tag)


def _check_tags(tags: Sequence[str]) -> None:
    if not _accepted_tags.issuperset(tags):
        for tag in tags:
            _check_tag(tag)


def parse_tag(tag: str) -> tuple[str, str]:
    """Split ``B-x`` into ("B", "x"); ``O`` becomes ("O", "")."""
    _check_tag(tag)
    return tag[0], tag[2:]


@dataclass(frozen=True)
class SlotSpan:
    """A labeled chunk; ``start`` inclusive, ``end`` exclusive."""

    slot: str
    start: int
    end: int
    value: tuple[str, ...] = ()


@dataclass(frozen=True)
class TaggedUtterance:
    tokens: tuple[str, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "tags", tuple(self.tags))
        if len(self.tokens) != len(self.tags):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags"
            )
        _check_tags(self.tags)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def spans(self) -> tuple[SlotSpan, ...]:
        return iob_to_spans(self.tokens, self.tags)


@dataclass(frozen=True)
class Corpus:
    utterances: tuple[TaggedUtterance, ...]
    role: str = "target"

    def __post_init__(self):
        object.__setattr__(self, "utterances", tuple(self.utterances))
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self) -> Iterator[TaggedUtterance]:
        return iter(self.utterances)

    def __getitem__(self, i: int) -> TaggedUtterance:
        return self.utterances[i]


# ---------------------------------------------------------------------------
# IOB codec

def iob_to_spans(tokens: Sequence[str], tags: Sequence[str]) -> tuple[SlotSpan, ...]:
    """Extract chunks under CoNLL semantics.

    A chunk starts at every ``B-x`` and at an ``I-x`` that follows ``O``
    or a different type; it ends before ``O``, ``B-*`` or a type switch.
    """
    if len(tokens) != len(tags):
        raise ValueError(f"{len(tokens)} tokens but {len(tags)} tags")
    _check_tags(tags)
    return tuple(
        SlotSpan(slot, start, end, tuple(tokens[start:end]))
        for slot, start, end in _chunks(tags)
    )


def _chunks(tags: Sequence[str]) -> list[tuple[str, int, int]]:
    """``(slot, start, end)`` of each chunk of checked tags, in order;
    the chunks are disjoint and non-empty."""
    chunks = []
    start = None
    current = ""
    for i, tag in enumerate(tags):
        if start is not None and (tag[0] != "I" or tag[2:] != current):
            chunks.append((current, start, i))
            start = None
        if start is None and tag != "O":
            start = i
            current = tag[2:]
    if start is not None:
        chunks.append((current, start, len(tags)))
    return chunks


def _span_tags(slot: str, length: int) -> list[str]:
    """The tags of one chunk of ``length`` tokens: ``B-slot``, then ``I-slot``."""
    return [f"B-{slot}"] + [f"I-{slot}"] * (length - 1)


def spans_to_iob(tokens: Sequence[str], spans: Iterable[SlotSpan]) -> tuple[str, ...]:
    """Encode non-overlapping spans as IOB tags (OverlapError otherwise)."""
    n = len(tokens)
    tags = ["O"] * n
    taken = [False] * n
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        if not (0 <= span.start < span.end <= n):
            raise CorpusError(
                f"span [{span.start}, {span.end}) outside utterance of length {n}"
            )
        if any(taken[span.start:span.end]):
            raise OverlapError(
                f"span [{span.start}, {span.end}) for {span.slot!r} overlaps another span"
            )
        length = span.end - span.start
        taken[span.start:span.end] = [True] * length
        tags[span.start:span.end] = _span_tags(span.slot, length)
    return tuple(tags)


# ---------------------------------------------------------------------------
# file format

def read_corpus(path, role: str = "target") -> Corpus:
    """The corpus in the file at ``path``; ParseError if it is malformed
    or not UTF-8 text."""
    try:
        return _read_corpus(path, role)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_corpus(path, role: str) -> Corpus:
    utterances: list[TaggedUtterance] = []
    tokens: list[str] = []
    tags: list[str] = []

    def flush(lineno):
        try:
            utterances.append(TaggedUtterance(tuple(tokens), tuple(tags)))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        tokens.clear()
        tags.clear()

    with open(path, encoding="utf-8") as fh:
        lineno = 0
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                if not tokens:
                    raise ParseError("empty utterance", lineno)
                flush(lineno)
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(
                    f"expected token<TAB>tag, got {len(parts)} fields", lineno
                )
            token, tag = parts
            if not token:
                raise ParseError("empty token", lineno)
            try:
                _check_tag(tag)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            tokens.append(token)
            tags.append(tag)
    if tokens:
        flush(lineno)
    return Corpus(tuple(utterances), role)


def format_corpus(corpus: Corpus) -> str:
    """The text ``read_corpus`` parses back.  A token it could not read
    back (empty, or holding a TAB or a line break) raises CorpusError."""
    blocks = []
    for n, u in enumerate(corpus, start=1):
        for tok in u.tokens:
            if not tok or "\t" in tok or "\n" in tok or "\r" in tok:
                raise CorpusError(f"utterance {n}: cannot write the token {tok!r}")
        blocks.append("\n".join(f"{tok}\t{tag}" for tok, tag in zip(u.tokens, u.tags)))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def write_corpus(corpus: Corpus, path) -> None:
    text = format_corpus(corpus)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# vocabulary and preprocessing

class TokenVocabulary:
    """Dense token ids; id 0 is padding, id 1 is ``<unk>``."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._ids: dict[str, int] = {PAD_TOKEN: 0, UNK_TOKEN: 1}
        for token in tokens:
            if token not in self._ids:
                self._ids[token] = len(self._ids)

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "TokenVocabulary":
        return cls(token for u in corpus for token in u.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, TokenVocabulary) and self._ids == other._ids

    def id_of(self, token: str) -> int:
        return self._ids.get(token, self._ids[UNK_TOKEN])

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        unk = self._ids[UNK_TOKEN]
        return np.fromiter(
            (self._ids.get(t, unk) for t in tokens), dtype=np.int64, count=len(tokens)
        )

    def tokens(self) -> tuple[str, ...]:
        return tuple(self._ids)

    def extended(self, extra: Iterable[str]) -> "TokenVocabulary":
        out = TokenVocabulary()
        out._ids = dict(self._ids)
        for token in extra:
            if token not in out._ids:
                out._ids[token] = len(out._ids)
        return out

    def format(self) -> str:
        """One ``id<TAB>token`` line per token, in id order."""
        return "".join(f"{idx}\t{token}\n" for token, idx in self._ids.items())

    @classmethod
    def read(cls, lines: Iterable[str]) -> "TokenVocabulary":
        """The vocabulary ``format`` wrote, from its lines."""
        out = cls()
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            idx_text, _, token = line.partition("\t")
            try:
                idx = int(idx_text)
            except ValueError:
                raise ParseError(f"bad vocabulary id {idx_text!r}", lineno) from None
            if token in out._ids:
                if out._ids[token] != idx:
                    raise ParseError(f"conflicting id for {token!r}", lineno)
                continue
            if idx != len(out._ids):
                raise ParseError(
                    f"non-dense vocabulary id {idx} for {token!r}", lineno
                )
            out._ids[token] = idx
        return out


def rewrite_digits(token: str) -> str:
    """An all-digit token of length N becomes ``DIGIT*N``."""
    if _ALL_DIGITS_RE.fullmatch(token):
        return f"DIGIT*{len(token)}"
    return token


def preprocess(
    corpus: Corpus, vocab: TokenVocabulary | None = None
) -> tuple[Corpus, TokenVocabulary]:
    """Digit rewriting plus ``<unk>`` replacement.

    Without a vocabulary, tokens seen once (after digit rewriting) become
    ``<unk>`` and the remaining tokens define the new vocabulary.  With a
    vocabulary, out-of-vocabulary tokens map to ``<unk>``.  Idempotent once
    the vocabulary is fixed.
    """
    rewritten = [[rewrite_digits(t) for t in u.tokens] for u in corpus]
    if vocab is None:
        counts = Counter(t for toks in rewritten for t in toks)
        final = [
            [t if counts[t] > 1 else UNK_TOKEN for t in toks] for toks in rewritten
        ]
        vocab = TokenVocabulary(t for toks in final for t in toks)
    else:
        final = [[t if t in vocab else UNK_TOKEN for t in toks] for toks in rewritten]
    utterances = tuple(
        TaggedUtterance(tuple(toks), u.tags) for toks, u in zip(final, corpus)
    )
    return Corpus(utterances, corpus.role), vocab


def subset_corpus(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Deterministic size-``n`` sample; prefixes nest as ``n`` grows."""
    if n >= len(corpus):
        return corpus
    if n < 0:
        raise ValueError(f"subset size must be >= 0, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) % 2**64, 0x5B5]))
    order = rng.permutation(len(corpus))[:n]
    return Corpus(tuple(corpus.utterances[i] for i in order), corpus.role)


# ---------------------------------------------------------------------------
# label surgery

def relabel_collapse(corpus: Corpus, mapping: Mapping[str, str]) -> Corpus:
    """Rename every span's slot through ``mapping``; boundaries unchanged."""
    out = []
    for u in corpus:
        tags = ["O"] * len(u)
        for slot, start, end in _chunks(u.tags):
            if slot not in mapping:
                raise UnknownSlot(f"slot {slot!r} missing from collapse mapping")
            tags[start:end] = _span_tags(mapping[slot], end - start)
        out.append(TaggedUtterance(u.tokens, tuple(tags)))
    return Corpus(tuple(out), corpus.role)


def perturb_test_set(
    train: Corpus, test: Corpus, ontology: Ontology, seed: int
) -> Corpus:
    """Replace test span values with values unseen for that joint slot.

    For a slot whose branch bottoms out in concept ``c``, the candidate
    pool is every value that any slot sharing ``c`` produced in ``train``,
    minus the values seen for the slot itself.  Spans with an empty pool
    are left intact.  Span lengths may change; the utterance count cannot.
    """
    values: dict[str, set[tuple[str, ...]]] = {}
    for u in train:
        for slot, start, end in _chunks(u.tags):
            values.setdefault(slot, set()).add(u.tokens[start:end])
    by_concept: dict[str, set[str]] = {}
    for slot in values:
        branch = ontology.branches.get(slot)
        if branch is None:
            raise UnknownSlot(f"train slot {slot!r} is not in the ontology")
        by_concept.setdefault(branch[0], set()).add(slot)

    pools: dict[str, list[tuple[str, ...]]] = {}

    def pool_for(slot: str) -> list[tuple[str, ...]]:
        if slot in pools:
            return pools[slot]
        branch = ontology.branches.get(slot)
        if branch is None:
            raise UnknownSlot(f"test slot {slot!r} is not in the ontology")
        pool: set[tuple[str, ...]] = set()
        for sibling in by_concept.get(branch[0], ()):
            pool |= values[sibling]
        pool -= values.get(slot, set())
        pools[slot] = sorted(pool)
        return pools[slot]

    rng = np.random.default_rng(seed)
    out = []
    for u in test:
        tokens: list[str] = []
        tags: list[str] = []
        cursor = 0
        for slot, start, end in _chunks(u.tags):
            tokens.extend(u.tokens[cursor:start])
            tags.extend(["O"] * (start - cursor))
            candidates = pool_for(slot)
            value = (
                candidates[int(rng.integers(len(candidates)))]
                if candidates
                else u.tokens[start:end]
            )
            tokens.extend(value)
            tags.extend(_span_tags(slot, len(value)))
            cursor = end
        tokens.extend(u.tokens[cursor:])
        tags.extend(["O"] * (len(u) - cursor))
        out.append(TaggedUtterance(tuple(tokens), tuple(tags)))
    return Corpus(tuple(out), "test")


# ---------------------------------------------------------------------------
# synthetic generation

@dataclass(frozen=True)
class Template:
    """Template text with ``$X`` placeholders bound to slot names."""

    text: str
    bindings: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class GrammarConfig:
    templates: tuple[Template, ...]
    lexicons: dict[str, tuple[tuple[str, ...], ...]]


def parse_grammar(text: str) -> GrammarConfig:
    """Parse the line format: templates as ``text<TAB>$A=slot,...`` and
    lexicon entries as ``lexicon<TAB>concept<TAB>value``."""
    templates: list[Template] = []
    lexicons: dict[str, list[tuple[str, ...]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "lexicon":
            if len(parts) != 3:
                raise ConfigError(
                    f"line {lineno}: lexicon lines need concept and value"
                )
            _, concept, value = parts
            value_tokens = tuple(value.split())
            if not concept or not value_tokens:
                raise ConfigError(f"line {lineno}: empty lexicon concept or value")
            entries = lexicons.setdefault(concept, [])
            if value_tokens not in entries:
                entries.append(value_tokens)
            continue
        if len(parts) > 2:
            raise ConfigError(f"line {lineno}: too many fields in template line")
        text_part = parts[0]
        bindings: dict[str, str] = {}
        if len(parts) == 2 and parts[1]:
            for item in parts[1].split(","):
                placeholder, sep, slot = item.partition("=")
                if not sep or not placeholder.startswith("$") or not slot:
                    raise ConfigError(f"line {lineno}: bad binding {item!r}")
                if placeholder in bindings:
                    raise ConfigError(
                        f"line {lineno}: duplicate binding for {placeholder}"
                    )
                bindings[placeholder] = slot
        placeholders = {t for t in text_part.split() if t.startswith("$")}
        unbound = placeholders - set(bindings)
        unused = set(bindings) - placeholders
        if unbound:
            raise ConfigError(
                f"line {lineno}: unbound placeholder(s) {sorted(unbound)}"
            )
        if unused:
            raise ConfigError(f"line {lineno}: unused binding(s) {sorted(unused)}")
        templates.append(Template(text_part, tuple(bindings.items())))
    if not templates:
        raise ConfigError("grammar has no templates")
    return GrammarConfig(
        tuple(templates), {c: tuple(vs) for c, vs in lexicons.items()}
    )


def read_grammar(path) -> GrammarConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_grammar(text)


def _compile_grammar(grammar: GrammarConfig, ontology: Ontology) -> list[list[tuple]]:
    """Every template as its segments ``(words, O tags, lexicon, tag runs)``:
    the literal words, then the placeholder after them, which draws from
    ``lexicon`` and tags a value of k tokens ``tag runs[k]``.  The last
    segment has no placeholder (an empty lexicon).  ConfigError for
    anything a draw could not fill."""
    longest = {}
    for concept, values in grammar.lexicons.items():
        if not values or not all(values):
            raise ConfigError(f"lexicon for {concept!r} is empty or has an empty value")
        longest[concept] = max(map(len, values))
    draws: dict[str, tuple] = {}  # slot -> (lexicon, tag runs)
    compiled = []
    for template in grammar.templates:
        bound = {}
        for placeholder, slot in template.bindings:
            if slot not in draws:
                branch = ontology.branches.get(slot)
                if branch is None:
                    raise ConfigError(
                        f"placeholder {placeholder} bound to unknown slot {slot!r}"
                    )
                concept = branch[0]
                if concept == NULL_ATOM:
                    raise ConfigError(
                        f"slot {slot!r} has a null bottom concept; it cannot carry values"
                    )
                if concept not in grammar.lexicons:
                    raise ConfigError(f"no lexicon for bottom concept {concept!r}")
                runs = [()] + [
                    tuple(_span_tags(slot, k)) for k in range(1, longest[concept] + 1)
                ]
                draws[slot] = (grammar.lexicons[concept], runs)
            bound[placeholder] = draws[slot]
        segments = []
        words: list[str] = []
        for word in template.text.split():
            if not word.startswith("$"):
                words.append(word)
            elif word in bound:
                segments.append((tuple(words), ("O",) * len(words), *bound[word]))
                words = []
            else:
                raise ConfigError(f"unbound placeholder {word} in {template.text!r}")
        segments.append((tuple(words), ("O",) * len(words), (), ()))
        compiled.append(segments)
    return compiled


def generate_synthetic(
    grammar: GrammarConfig,
    ontology: Ontology,
    n: int,
    seed: int,
    role: str = "target",
) -> Corpus:
    """Sample ``n`` utterances: uniform template, then uniform lexicon
    values per placeholder.  Deterministic for a fixed seed."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    templates = _compile_grammar(grammar, ontology)
    rng = np.random.default_rng(seed)
    utterances = []
    for _ in range(n):
        tokens: list[str] = []
        tags: list[str] = []
        for words, outside, lexicon, tag_runs in templates[
            int(rng.integers(len(templates)))
        ]:
            tokens.extend(words)
            tags.extend(outside)
            if lexicon:
                value = lexicon[int(rng.integers(len(lexicon)))]
                tokens.extend(value)
                tags.extend(tag_runs[len(value)])
        utterances.append(TaggedUtterance(tuple(tokens), tuple(tags)))
    return Corpus(tuple(utterances), role)


# ---------------------------------------------------------------------------
# built-in flight-domain grammar (two dimensions, value atoms x context atoms)

BUILTIN_FLIGHT_SLOTS: tuple[tuple[str, tuple[str, str]], ...] = (
    ("fromloc.city_name", ("city_name", "fromloc")),
    ("toloc.city_name", ("city_name", "toloc")),
    ("stoploc.city_name", ("city_name", "stoploc")),
    ("fromloc.airport_name", ("airport_name", "fromloc")),
    ("toloc.airport_name", ("airport_name", "toloc")),
    ("stoploc.airport_name", ("airport_name", "stoploc")),
    ("fromloc.state_name", ("state_name", "fromloc")),
    ("toloc.state_name", ("state_name", "toloc")),
    ("stoploc.state_name", ("state_name", "stoploc")),
    ("arrive_time.time", ("time", "arrive_time")),
    ("depart_time.time", ("time", "depart_time")),
    ("arrive_time.period_of_day", ("period_of_day", "arrive_time")),
    ("depart_time.period_of_day", ("period_of_day", "depart_time")),
    ("depart_date.day_name", ("day_name", "depart_date")),
    ("return_date.day_name", ("day_name", "return_date")),
    ("depart_date.month_name", ("month_name", "depart_date")),
    ("return_date.month_name", ("month_name", "return_date")),
    ("airline_name", ("airline_name", "null")),
    ("class_type", ("class_type", "null")),
    ("flight_number", ("flight_number", "null")),
)

BUILTIN_FLIGHT_GRAMMAR = """\
# templates: text<TAB>placeholder=slot,...
i want to fly from $A to $B\t$A=fromloc.city_name,$B=toloc.city_name
show me flights from $A to $B\t$A=fromloc.city_name,$B=toloc.city_name
show me flights from $A to $B\t$A=fromloc.airport_name,$B=toloc.airport_name
list flights from $A to $B on $C\t$A=fromloc.city_name,$B=toloc.city_name,$C=depart_date.day_name
what flights go from $A to $B in $C\t$A=fromloc.city_name,$B=toloc.city_name,$C=depart_date.month_name
i need a flight from $A to $B arriving before $C\t$A=fromloc.city_name,$B=toloc.city_name,$C=arrive_time.time
find a flight that leaves $A after $B\t$A=fromloc.city_name,$B=depart_time.time
flights from $A to $B with a stop in $C\t$A=fromloc.city_name,$B=toloc.city_name,$C=stoploc.city_name
flights from $A to $B stopping at $C\t$A=fromloc.city_name,$B=toloc.city_name,$C=stoploc.airport_name
does flight $A make a stop in $B\t$A=flight_number,$B=stoploc.state_name
does $A fly from $B to $C\t$A=airline_name,$B=fromloc.city_name,$C=toloc.city_name
show me $A flights to $B\t$A=airline_name,$B=toloc.city_name
i would like to arrive in $A by $B\t$A=toloc.city_name,$B=arrive_time.time
what time does flight $A leave $B\t$A=flight_number,$B=fromloc.city_name
book a $A seat from $B to $C\t$A=class_type,$B=fromloc.city_name,$C=toloc.city_name
are there flights to $A in the $B\t$A=toloc.city_name,$B=depart_time.period_of_day
i want to return on $A\t$A=return_date.day_name
i want to leave on $A\t$A=depart_date.day_name
show me flights leaving from $A\t$A=fromloc.airport_name
show me flights leaving from $A\t$A=fromloc.city_name
i need a flight leaving $A\t$A=fromloc.airport_name
i need a flight leaving $A\t$A=fromloc.city_name
list all flights into $A\t$A=toloc.airport_name
list all flights into $A\t$A=toloc.city_name
what flights are available to $A\t$A=toloc.state_name
what flights are available to $A\t$A=toloc.city_name
i want to fly out of $A\t$A=fromloc.airport_name
i want to fly out of $A\t$A=fromloc.city_name
which flights arrive at $A from $B\t$A=toloc.airport_name,$B=fromloc.city_name
what flights leave $A for $B in the $C\t$A=fromloc.city_name,$B=toloc.city_name,$C=depart_time.period_of_day
find flights to $A arriving in the $B\t$A=toloc.city_name,$B=arrive_time.period_of_day
i will return in $A\t$A=return_date.month_name
i will return on $A\t$A=return_date.day_name
are there flights from $A to $B in $C\t$A=fromloc.city_name,$B=toloc.city_name,$C=depart_date.month_name
fly from $A in $B to $C\t$A=fromloc.city_name,$B=fromloc.state_name,$C=toloc.city_name
show flights to $A in $B\t$A=toloc.city_name,$B=toloc.state_name
what is the cheapest $A fare from $B to $C\t$A=class_type,$B=fromloc.city_name,$C=toloc.city_name
does flight $A stop in $B\t$A=flight_number,$B=stoploc.city_name
i need to get to $A by $B\t$A=toloc.city_name,$B=arrive_time.time
show me $A flights from $B\t$A=class_type,$B=fromloc.city_name
# lexicons: lexicon<TAB>concept<TAB>value
lexicon\tcity_name\tboston
lexicon\tcity_name\tdenver
lexicon\tcity_name\tatlanta
lexicon\tcity_name\tpittsburgh
lexicon\tcity_name\toakland
lexicon\tcity_name\tphiladelphia
lexicon\tcity_name\tbaltimore
lexicon\tcity_name\tmilwaukee
lexicon\tcity_name\tcharlotte
lexicon\tcity_name\tcolumbus
lexicon\tcity_name\tdetroit
lexicon\tcity_name\tmemphis
lexicon\tcity_name\tnashville
lexicon\tcity_name\tseattle
lexicon\tcity_name\tphoenix
lexicon\tcity_name\tdallas
lexicon\tcity_name\tnew york
lexicon\tcity_name\tlos angeles
lexicon\tcity_name\tsan francisco
lexicon\tcity_name\tsalt lake city
lexicon\tcity_name\tst louis
lexicon\tcity_name\tlas vegas
lexicon\tcity_name\tkansas city
lexicon\tcity_name\tsan diego
lexicon\tcity_name\thouston
lexicon\tcity_name\tchicago
lexicon\tcity_name\tmiami
lexicon\tcity_name\torlando
lexicon\tcity_name\ttampa
lexicon\tcity_name\tcleveland
lexicon\tcity_name\tcincinnati
lexicon\tcity_name\tindianapolis
lexicon\tcity_name\tminneapolis
lexicon\tcity_name\tomaha
lexicon\tcity_name\ttucson
lexicon\tcity_name\talbuquerque
lexicon\tcity_name\tsacramento
lexicon\tcity_name\tportland
lexicon\tcity_name\tspokane
lexicon\tcity_name\tboise
lexicon\tcity_name\tfresno
lexicon\tcity_name\ttulsa
lexicon\tcity_name\twichita
lexicon\tcity_name\ttoledo
lexicon\tcity_name\trichmond
lexicon\tcity_name\tnorfolk
lexicon\tcity_name\traleigh
lexicon\tcity_name\tdurham
lexicon\tcity_name\tsavannah
lexicon\tcity_name\ttacoma
lexicon\tcity_name\treno
lexicon\tcity_name\tanchorage
lexicon\tcity_name\thonolulu
lexicon\tcity_name\tbuffalo
lexicon\tcity_name\trochester
lexicon\tcity_name\tsyracuse
lexicon\tcity_name\tnewark
lexicon\tcity_name\thartford
lexicon\tcity_name\tprovidence
lexicon\tcity_name\tlouisville
lexicon\tcity_name\tlexington
lexicon\tcity_name\tbirmingham
lexicon\tcity_name\tmontgomery
lexicon\tcity_name\tshreveport
lexicon\tcity_name\tsan jose
lexicon\tcity_name\tfort worth
lexicon\tcity_name\tel paso
lexicon\tcity_name\tnew orleans
lexicon\tcity_name\toklahoma city
lexicon\tcity_name\tlong beach
lexicon\tcity_name\tcolorado springs
lexicon\tcity_name\tsanta fe
lexicon\tcity_name\tdes moines
lexicon\tcity_name\tlittle rock
lexicon\tcity_name\tbaton rouge
lexicon\tcity_name\tgrand rapids
lexicon\tairport_name\tlogan international
lexicon\tairport_name\tjfk
lexicon\tairport_name\tlaguardia
lexicon\tairport_name\tstapleton airport
lexicon\tairport_name\tsky harbor
lexicon\tairport_name\tlove field
lexicon\tairport_name\tohare
lexicon\tairport_name\tmidway
lexicon\tairport_name\tdulles
lexicon\tairport_name\tlambert field
lexicon\tairport_name\tsea tac
lexicon\tairport_name\tlax
lexicon\tairport_name\thartsfield international
lexicon\tairport_name\tmccarran international
lexicon\tairport_name\tlindbergh field
lexicon\tairport_name\thobby airport
lexicon\tairport_name\tnewark international
lexicon\tairport_name\tdorval international
lexicon\tairport_name\tmirabel airport
lexicon\tairport_name\tpearson international
lexicon\tairport_name\tburbank airport
lexicon\tairport_name\tontario international
lexicon\tairport_name\tmitchell field
lexicon\tairport_name\tstandiford field
lexicon\tairline_name\tdelta
lexicon\tairline_name\tunited
lexicon\tairline_name\tamerican airlines
lexicon\tairline_name\tcontinental
lexicon\tairline_name\tnorthwest
lexicon\tairline_name\tus air
lexicon\tairline_name\ttwa
lexicon\tairline_name\tlufthansa
lexicon\tairline_name\tair canada
lexicon\tairline_name\talaska airlines
lexicon\tairline_name\tsouthwest
lexicon\tairline_name\teastern airlines
lexicon\tairline_name\tmidwest express
lexicon\tairline_name\tcanadian international
lexicon\tairline_name\tair france
lexicon\tairline_name\tklm
lexicon\ttime\t5 pm
lexicon\ttime\tnoon
lexicon\ttime\t530 pm
lexicon\ttime\t10 am
lexicon\ttime\t1130 am
lexicon\ttime\tmidnight
lexicon\ttime\t8 am
lexicon\ttime\t645 pm
lexicon\ttime\t915 am
lexicon\ttime\t2 pm
lexicon\ttime\t730 am
lexicon\ttime\t11 pm
lexicon\ttime\t630 am
lexicon\ttime\t945 pm
lexicon\ttime\t415 pm
lexicon\ttime\t7 am
lexicon\ttime\t1215 pm
lexicon\ttime\t845 am
lexicon\ttime\t320 pm
lexicon\ttime\t1045 am
lexicon\ttime\t9 pm
lexicon\ttime\t115 pm
lexicon\ttime\t540 am
lexicon\ttime\t1 pm
lexicon\tday_name\tmonday
lexicon\tday_name\ttuesday
lexicon\tday_name\twednesday
lexicon\tday_name\tthursday
lexicon\tday_name\tfriday
lexicon\tday_name\tsaturday
lexicon\tday_name\tsunday
lexicon\tmonth_name\tjanuary
lexicon\tmonth_name\tfebruary
lexicon\tmonth_name\tmarch
lexicon\tmonth_name\tapril
lexicon\tmonth_name\tmay
lexicon\tmonth_name\tjune
lexicon\tmonth_name\tjuly
lexicon\tmonth_name\taugust
lexicon\tmonth_name\tseptember
lexicon\tmonth_name\toctober
lexicon\tmonth_name\tnovember
lexicon\tmonth_name\tdecember
lexicon\tperiod_of_day\tmorning
lexicon\tperiod_of_day\tafternoon
lexicon\tperiod_of_day\tevening
lexicon\tperiod_of_day\tnight
lexicon\tperiod_of_day\tlate night
lexicon\tperiod_of_day\tearly morning
lexicon\tclass_type\tfirst class
lexicon\tclass_type\tcoach
lexicon\tclass_type\teconomy
lexicon\tclass_type\tbusiness class
lexicon\tclass_type\tthrift
lexicon\tflight_number\t281
lexicon\tflight_number\t727
lexicon\tflight_number\t1059
lexicon\tflight_number\t417
lexicon\tflight_number\t98
lexicon\tflight_number\t812
lexicon\tflight_number\t1222
lexicon\tflight_number\t3724
lexicon\tflight_number\t506
lexicon\tflight_number\t1841
lexicon\tflight_number\t71
lexicon\tflight_number\t459
lexicon\tflight_number\t2153
lexicon\tflight_number\t634
lexicon\tflight_number\t1907
lexicon\tflight_number\t38
lexicon\tflight_number\t770
lexicon\tflight_number\t1415
lexicon\tstate_name\tcalifornia
lexicon\tstate_name\ttexas
lexicon\tstate_name\tcolorado
lexicon\tstate_name\tarizona
lexicon\tstate_name\tflorida
lexicon\tstate_name\tgeorgia
lexicon\tstate_name\tohio
lexicon\tstate_name\tutah
lexicon\tstate_name\tnevada
lexicon\tstate_name\tmissouri
lexicon\tstate_name\twashington
lexicon\tstate_name\toregon
lexicon\tstate_name\tillinois
lexicon\tstate_name\tmichigan
lexicon\tstate_name\ttennessee
lexicon\tstate_name\tvirginia
lexicon\tstate_name\tindiana
lexicon\tstate_name\tminnesota
lexicon\tstate_name\tlouisiana
lexicon\tstate_name\twisconsin
"""


def builtin_flight_grammar():
    """The bundled flight-domain grammar and its two-dimension ontology."""
    from .ontology import build_ontology

    grammar = parse_grammar(BUILTIN_FLIGHT_GRAMMAR)
    ontology = build_ontology(2, BUILTIN_FLIGHT_SLOTS)
    return grammar, ontology
