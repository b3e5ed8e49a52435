"""Atomic-concept trees: semantic slots as ordered branches of per-dimension atoms.

A slot such as ``fromloc.city_name`` is stored as the branch
``("city_name", "fromloc")``: dimension 1 holds the value-aware atom,
higher dimensions hold increasingly context-aware atoms.  Dimension
vocabularies may only share the reserved ``null`` atom, so every non-null
atom pins down the dimension it lives in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

NULL_ATOM = "null"


class OntologyError(Exception):
    """Base error for ontology construction and lookups."""


class DisjointnessViolation(OntologyError):
    """A non-null atom was used in more than one dimension."""


class DuplicateSlot(OntologyError):
    """A slot name or a concept branch was registered twice."""


class UnknownSlot(OntologyError):
    """Lookup of a slot name that is not registered."""


class DepthMismatch(OntologyError):
    """Paired ontologies have incompatible depths."""


class InvalidBranch(OntologyError):
    """A branch or name violates the structural rules."""


class OntologyFormatError(OntologyError):
    """An ontology file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _check_name(text: str, what: str) -> str:
    if not isinstance(text, str) or not text:
        raise InvalidBranch(f"{what} must be a non-empty string, got {text!r}")
    if any(ch.isspace() for ch in text):
        raise InvalidBranch(f"{what} {text!r} must not contain whitespace")
    return text


@dataclass(frozen=True)
class DimensionVocabulary:
    """All atoms that may occupy one dimension.  ``index`` is 1-based."""

    index: int
    atoms: frozenset[str]

    def __post_init__(self):
        if self.index < 1:
            raise InvalidBranch(f"dimension index must be >= 1, got {self.index}")
        if NULL_ATOM not in self.atoms:
            raise InvalidBranch(f"dimension {self.index} must contain {NULL_ATOM!r}")


@dataclass(frozen=True)
class Ontology:
    """Immutable collection of slots over ``depth`` disjoint dimensions."""

    depth: int
    dimensions: tuple[DimensionVocabulary, ...]
    branches: dict[str, tuple[str, ...]]
    reverse: dict[tuple[str, ...], str]

    @property
    def slots(self) -> tuple[str, ...]:
        return tuple(self.branches)

    def __len__(self) -> int:
        return len(self.branches)


def build_ontology(
    depth: int, slot_entries: Iterable[tuple[str, Sequence[str]]]
) -> Ontology:
    """Build an ontology from ``(slot name, branch)`` pairs.

    Raises DisjointnessViolation if a non-null atom appears in two
    dimensions, DuplicateSlot on a repeated name or branch, InvalidBranch
    on structural problems (wrong length, all-null branch, reserved names).
    """
    if depth < 1:
        raise InvalidBranch(f"depth must be >= 1, got {depth}")
    atom_dim: dict[str, int] = {}
    dim_atoms: list[set[str]] = [{NULL_ATOM} for _ in range(depth)]
    branches: dict[str, tuple[str, ...]] = {}
    reverse: dict[tuple[str, ...], str] = {}
    for slot, atoms in slot_entries:
        _check_name(slot, "slot name")
        if slot == NULL_ATOM:
            raise InvalidBranch(f"slot name {NULL_ATOM!r} is reserved")
        branch = tuple(atoms)
        if len(branch) != depth:
            raise InvalidBranch(
                f"slot {slot!r}: branch has {len(branch)} atoms, expected {depth}"
            )
        for atom in branch:
            _check_name(atom, "atom")
        if all(atom == NULL_ATOM for atom in branch):
            raise InvalidBranch(f"slot {slot!r}: the all-null branch cannot be registered")
        if slot in branches:
            raise DuplicateSlot(f"slot {slot!r} registered twice")
        if branch in reverse:
            raise DuplicateSlot(
                f"branch {branch!r} registered under both "
                f"{reverse[branch]!r} and {slot!r}"
            )
        for i, atom in enumerate(branch):
            if atom == NULL_ATOM:
                continue
            seen = atom_dim.get(atom)
            if seen is not None and seen != i:
                raise DisjointnessViolation(
                    f"atom {atom!r} appears in dimension {seen + 1} and {i + 1}"
                )
            atom_dim[atom] = i
            dim_atoms[i].add(atom)
        branches[slot] = branch
        reverse[branch] = slot
    dims = tuple(
        DimensionVocabulary(i + 1, frozenset(dim_atoms[i])) for i in range(depth)
    )
    return Ontology(depth, dims, branches, reverse)


def canonical_slot_name(branch: Sequence[str]) -> str:
    """Join the non-null atoms highest-dimension-first with dots.

    The all-null branch maps to the reserved name ``null`` (it can never
    clash with a registered slot).
    """
    parts = [atom for atom in reversed(tuple(branch)) if atom != NULL_ATOM]
    return ".".join(parts) if parts else NULL_ATOM


def slot_to_branch(ontology: Ontology, slot: str) -> tuple[str, ...]:
    try:
        return ontology.branches[slot]
    except KeyError:
        raise UnknownSlot(f"slot {slot!r} is not registered") from None


def branch_to_slot(ontology: Ontology, branch: Sequence[str]) -> str:
    """Registered name of ``branch``, or its canonical name when unseen."""
    branch = tuple(branch)
    if len(branch) != ontology.depth:
        raise InvalidBranch(
            f"branch has {len(branch)} atoms, expected {ontology.depth}"
        )
    known = ontology.reverse.get(branch)
    return known if known is not None else canonical_slot_name(branch)


def collapse_ontology(
    ontology: Ontology, keep_dims: int
) -> tuple[Ontology, dict[str, str]]:
    """Keep only the first ``keep_dims`` dimensions of every branch.

    Distinct prefixes become the collapsed slots under their canonical
    names.  Returns the collapsed ontology plus the mapping from each
    original slot name to its collapsed name.  Idempotent at a fixed depth.
    """
    if not 1 <= keep_dims <= ontology.depth:
        raise OntologyError(
            f"keep_dims must be in [1, {ontology.depth}], got {keep_dims}"
        )
    entries: list[tuple[str, tuple[str, ...]]] = []
    names: dict[tuple[str, ...], str] = {}
    mapping: dict[str, str] = {}
    for slot, branch in ontology.branches.items():
        prefix = branch[:keep_dims]
        if prefix not in names:
            names[prefix] = canonical_slot_name(prefix)
            if any(atom != NULL_ATOM for atom in prefix):
                entries.append((names[prefix], prefix))
        mapping[slot] = names[prefix]
    return build_ontology(keep_dims, entries), mapping


@dataclass(frozen=True)
class OntologyDiff:
    """Atoms and branches present in the target but not in the source."""

    new_atoms: tuple[frozenset[str], ...]
    new_branches: frozenset[tuple[str, ...]]

    @property
    def is_empty(self) -> bool:
        return not self.new_branches and all(not a for a in self.new_atoms)


def ontology_diff(source: Ontology, target: Ontology) -> OntologyDiff:
    """Per-dimension new atoms and the set of new branches.

    The target must be at least as deep as the source; shallower source
    branches are compared after padding with ``null``.
    """
    if target.depth < source.depth:
        raise DepthMismatch(
            f"target depth {target.depth} is shallower than source depth {source.depth}"
        )
    new_atoms = []
    for i in range(target.depth):
        have = (
            source.dimensions[i].atoms if i < source.depth else frozenset({NULL_ATOM})
        )
        new_atoms.append(frozenset(target.dimensions[i].atoms - have))
    pad = (NULL_ATOM,) * (target.depth - source.depth)
    known = {branch + pad for branch in source.reverse}
    new_branches = frozenset(b for b in target.reverse if b not in known)
    return OntologyDiff(tuple(new_atoms), new_branches)


# ---------------------------------------------------------------------------
# file format: a "dims=<k>" header, then one TAB-separated line per slot.

def format_ontology(ontology: Ontology) -> str:
    lines = [f"dims={ontology.depth}"]
    for slot, branch in ontology.branches.items():
        lines.append("\t".join((slot,) + branch))
    return "\n".join(lines) + "\n"


def write_ontology(ontology: Ontology, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_ontology(ontology))


def parse_ontology(text: str) -> Ontology:
    depth = None
    entries: list[tuple[str, tuple[str, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if depth is None:
            if not line.startswith("dims="):
                raise OntologyFormatError("expected a dims=<k> header", lineno)
            try:
                depth = int(line[len("dims="):])
            except ValueError:
                raise OntologyFormatError(f"bad depth in {line!r}", lineno) from None
            continue
        parts = line.split("\t")
        if len(parts) != depth + 1:
            raise OntologyFormatError(
                f"expected slot plus {depth} atoms, got {len(parts)} fields", lineno
            )
        entries.append((parts[0], tuple(parts[1:])))
    if depth is None:
        raise OntologyFormatError("missing dims=<k> header")
    return build_ontology(depth, entries)


def read_ontology(path) -> Ontology:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise OntologyFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_ontology(text)


def ontology_hash(ontology: Ontology) -> str:
    """Hex digest over a slot-sorted rendering; stable across entry order."""
    lines = [f"dims={ontology.depth}"]
    for slot in sorted(ontology.branches):
        lines.append("\t".join((slot,) + ontology.branches[slot]))
    payload = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
