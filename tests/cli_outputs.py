"""Run every ``atomslot`` subcommand once, with tiny settings, into OUT.

    python tests/cli_outputs.py OUT
    python tests/cli_outputs.py OUT --sha256 > tests/data/cli_outputs.sha256

The commands run in process through ``cli.run_command``, and this
checkout's ``src/`` comes first on ``sys.path``, so a copy of the script
placed in another checkout runs that checkout's code.  Manifests record
every path, so compare two checkouts by running each into the same OUT in
turn, keeping the first tree aside, then ``diff -r`` the two trees: a
change that keeps the command line's behaviour leaves every file equal.
What each command prints lands in ``OUT/stdout/``.  The script exits 1
when a command returns non-zero, naming it.

With ``--sha256`` it then prints one ``digest  path`` line per file, in
path order, with OUT replaced by ``<OUT>`` inside each file before it is
hashed, so that the digests do not depend on where OUT is.
``tests/data/cli_outputs.sha256`` holds them, and
``tests/test_cli.py::test_cli_outputs_match_the_pinned_digests`` checks
every file against it; a change that moves an output on purpose
regenerates it with the second command above.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from atomslot import cli  # noqa: E402
from atomslot.models import PRESETS  # noqa: E402

GRAMMAR = """\
fly from $A to $B\t$A=from.city,$B=to.city
leave on $D\t$D=day
from $A on $D\t$A=from.city,$D=day
lexicon\tcity\tboston
lexicon\tcity\tnew york
lexicon\tday\tmonday
lexicon\tday\tfriday
"""
ONTOLOGY = "dims=2\nfrom.city\tcity\tfrom\nto.city\tcity\tto\nday\tday\tnull\n"
TRAINING = [
    "--epochs", "2", "--lr-grid", "0.05,0.1", "--dropout", "0.5", "--emb-dim", "6",
    "--hidden", "6", "--concept-emb-dim", "3", "--seed", "0",
]


def commands(out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, in order; each writes under ``out/name``."""
    def at(*parts) -> str:
        return str(out.joinpath(*parts))

    ontology, test = at("train", "ontology.txt"), at("test", "corpus.txt")
    target = ["--ontology", ontology, "--train", at("train", "corpus.txt"),
              "--valid", at("valid", "corpus.txt")]
    source = ["--source-ontology", at("source", "source_ontology.txt"),
              "--source-train", at("source", "train.txt"),
              "--source-valid", at("source", "valid.txt")]
    runs = [
        (name, ["synth", "--n", str(n), "--seed", str(seed)])
        for name, n, seed in (("train", 40, 1), ("valid", 16, 2), ("test", 16, 3))
    ]
    runs += [
        ("synth_grammar", ["synth", "--grammar", at("inputs", "grammar.txt"),
                           "--ontology", at("inputs", "ontology.txt"),
                           "--n", "8", "--seed", "4"]),
        ("source", ["collapse", "--ontology", ontology, "--keep-dims", "1",
                    "--train", at("train", "corpus.txt"),
                    "--valid", at("valid", "corpus.txt"), "--test", test]),
        ("perturb", ["perturb", "--ontology", ontology, "--train", at("train", "corpus.txt"),
                     "--test", test, "--seed", "5"]),
    ]
    runs += [
        (f"train_{kind}", ["train", "--kind", kind, *target, "--test", test, *TRAINING])
        for kind in ("JS", "AC")
    ]
    for preset in PRESETS:
        model = at(f"adapt_{preset}", "model")
        runs += [
            (f"adapt_{preset}", ["adapt", "--preset", preset, *target, *source,
                                 "--test", test, "--subset", "20", *TRAINING]),
            (f"decode_{preset}", ["decode", "--model", model, "--test", test]),
            (f"eval_{preset}", ["eval", "--model", model, "--test", test]),
        ]
    runs += [
        ("eval_pred", ["eval", "--test", test,
                       "--pred", at("decode_JS_T", "decoded.txt")]),
        ("gradcheck", ["gradcheck", "--seed", "0"]),
        ("curve", ["curve", "--systems", "JS_T,AC_TS,ACD_TS_1", "--sizes", "10,all",
                   *target, *source, "--test", test, *TRAINING]),
    ]
    return [(name, [*argv, "--out", at(name)]) for name, argv in runs]


def main(out: Path) -> int:
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    (out / "inputs" / "grammar.txt").write_text(GRAMMAR, encoding="utf-8")
    (out / "inputs" / "ontology.txt").write_text(ONTOLOGY, encoding="utf-8")
    (out / "stdout").mkdir(exist_ok=True)
    for name, argv in commands(out):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.run_command(argv)
        (out / "stdout" / f"{name}.txt").write_text(printed.getvalue(), encoding="utf-8")
        if code != 0:
            print(f"{name}: exit code {code}: {' '.join(argv)}", file=sys.stderr)
            return 1
    return 0


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out`` by relative path, with ``out``
    replaced by ``<OUT>`` inside each file (manifests and some stdout
    record absolute paths)."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(
            path.read_bytes().replace(str(out).encode(), b"<OUT>")
        ).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3) or sys.argv[2:] not in ([], ["--sha256"]):
        sys.exit(__doc__)
    out = Path(os.path.abspath(sys.argv[1]))
    code = main(out)
    if code == 0 and sys.argv[2:]:
        for rel, digest in digests(out).items():
            print(f"{digest}  {rel}")
    sys.exit(code)
