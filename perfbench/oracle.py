"""Output checks that share no code with ``atomslot``.

``chunk_counts`` walks tag sequences token by token in the manner of the
CoNLL chunking scorer: a chunk opens at ``B``, at ``I`` after ``O`` or at
``I`` whose type differs from the previous tag's, and a predicted chunk is
correct when it opens and closes on the same tokens as a reference chunk
of the same type.  The package's scorer works on span sets instead, so the
two agreeing is evidence that both are right.
"""

from __future__ import annotations

import hashlib
import itertools
import re


def _parts(tag: str) -> tuple[str, str]:
    return ("O", "") if tag == "O" else (tag[0], tag[2:])


def _opens(prev: tuple[str, str], cur: tuple[str, str]) -> bool:
    iob, kind = cur
    return iob == "B" or (iob == "I" and (prev[0] == "O" or prev[1] != kind))


def _closes(prev: tuple[str, str], cur: tuple[str, str]) -> bool:
    if prev[0] == "O":
        return False
    return cur[0] in ("O", "B") or cur[1] != prev[1]


def chunk_counts(pairs) -> tuple[int, int, int]:
    """(reference chunks, predicted chunks, correct chunks) over
    ``(reference_tags, predicted_tags)`` pairs of equal length."""
    n_ref = n_pred = n_ok = 0
    for ref_tags, pred_tags in pairs:
        if len(ref_tags) != len(pred_tags):
            raise ValueError("reference and prediction differ in length")
        prev_r = prev_p = ("O", "")
        matching = False
        for ref, pred in list(zip(ref_tags, pred_tags)) + [("O", "O")]:
            cur_r, cur_p = _parts(ref), _parts(pred)
            end_r, end_p = _closes(prev_r, cur_r), _closes(prev_p, cur_p)
            if matching:
                if end_r and end_p and prev_r[1] == prev_p[1]:
                    n_ok += 1
                    matching = False
                elif end_r != end_p or cur_r[1] != cur_p[1]:
                    matching = False
            open_r, open_p = _opens(prev_r, cur_r), _opens(prev_p, cur_p)
            if open_r and open_p and cur_r[1] == cur_p[1]:
                matching = True
            n_ref += open_r
            n_pred += open_p
            prev_r, prev_p = cur_r, cur_p
    return n_ref, n_pred, n_ok


def f1_of(counts: tuple[int, int, int]) -> float:
    n_ref, n_pred, n_ok = counts
    precision = 100.0 * n_ok / n_pred if n_pred else 0.0
    recall = 100.0 * n_ok / n_ref if n_ref else 0.0
    total = precision + recall
    return 2.0 * precision * recall / total if total else 0.0


def agrees_with(report, counts: tuple[int, int, int]) -> bool:
    """The package's ``EvalReport`` matches the oracle on counts and F1."""
    overall = report.overall
    same_counts = (overall.reference, overall.predicted, overall.correct) == counts
    return same_counts and abs(report.f1 - f1_of(counts)) < 1e-9


def slot_names(branches, atoms_per_dim) -> set[str]:
    """Registered slots plus the name the package gives every other branch
    over the ontology's atoms: non-null atoms highest dimension first,
    joined with dots, and ``null`` for the all-null branch.  Componentwise
    decoding can pick such a branch; the package documents that it keeps
    that name and scores as wrong."""
    names = set(branches)
    for branch in itertools.product(*(sorted(a) for a in atoms_per_dim)):
        parts = [atom for atom in reversed(branch) if atom != "null"]
        names.add(".".join(parts) if parts else "null")
    return names


_TAG = re.compile(r"^(O|[BI]-(.+))$")


def tag_problems(tokens, tags, slots: set[str]) -> list[str]:
    """Why a predicted tag sequence is malformed; empty when it is not."""
    if len(tags) != len(tokens):
        return [f"{len(tags)} tags for {len(tokens)} tokens"]
    problems = []
    for position, tag in enumerate(tags):
        match = _TAG.match(tag)
        if match is None:
            problems.append(f"position {position}: {tag!r} is not an IOB tag")
        elif match.group(2) is not None and match.group(2) not in slots:
            problems.append(f"position {position}: {tag!r} names no ontology slot")
    return problems


def prediction_hash(sequences) -> str:
    """SHA-256 over tag sequences, one line per sentence."""
    digest = hashlib.sha256()
    for tags in sequences:
        digest.update((" ".join(tags) + "\n").encode("utf-8"))
    return digest.hexdigest()
