import filecmp
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomslot import cli, models
from atomslot.cli import run_command
from atomslot.corpus import Corpus, TaggedUtterance, read_corpus, write_corpus
from atomslot.models import load_model
from atomslot.ontology import read_ontology

FAST = [
    "--epochs", "1", "--lr", "0.05", "--dropout", "0.0",
    "--emb-dim", "4", "--hidden", "4", "--seed", "0",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpora plus a collapsed source task, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    for name, n, seed in (("train", 30, 1), ("valid", 10, 2), ("test", 10, 3)):
        code = run_command([
            "synth", "--n", str(n), "--seed", str(seed), "--out", str(root / name),
        ])
        assert code == 0
    ontology = root / "train" / "ontology.txt"
    code = run_command([
        "collapse", "--ontology", str(ontology), "--keep-dims", "1",
        "--train", str(root / "train" / "corpus.txt"),
        "--valid", str(root / "valid" / "corpus.txt"),
        "--out", str(root / "source"),
    ])
    assert code == 0
    return {
        "root": root,
        "ontology": ontology,
        "train": root / "train" / "corpus.txt",
        "valid": root / "valid" / "corpus.txt",
        "test": root / "test" / "corpus.txt",
        "source_ontology": root / "source" / "source_ontology.txt",
        "source_train": root / "source" / "train.txt",
        "source_valid": root / "source" / "valid.txt",
    }


def list_files(directory: Path):
    return sorted(
        p.relative_to(directory) for p in directory.rglob("*") if p.is_file()
    )


# ---------------------------------------------------------------------------
# data commands

def test_synth_is_deterministic(workspace, tmp_path):
    for out in ("a", "b"):
        assert run_command([
            "synth", "--n", "12", "--seed", "7", "--out", str(tmp_path / out),
        ]) == 0
    assert filecmp.cmp(
        tmp_path / "a" / "corpus.txt", tmp_path / "b" / "corpus.txt", shallow=False
    )
    corpus = read_corpus(tmp_path / "a" / "corpus.txt")
    assert len(corpus) == 12
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["seed"] == 7


def test_synth_with_grammar_file(tmp_path):
    from atomslot.ontology import build_ontology, write_ontology

    ontology = build_ontology(1, (("day", ("day",)),))
    write_ontology(ontology, tmp_path / "ont.txt")
    (tmp_path / "grammar.txt").write_text(
        "leave on $D\t$D=day\nlexicon\tday\tmonday\nlexicon\tday\tfriday\n"
    )
    assert run_command([
        "synth", "--grammar", str(tmp_path / "grammar.txt"),
        "--ontology", str(tmp_path / "ont.txt"),
        "--n", "5", "--seed", "0", "--out", str(tmp_path / "out"),
    ]) == 0
    corpus = read_corpus(tmp_path / "out" / "corpus.txt")
    assert all(u.tokens[:2] == ("leave", "on") for u in corpus)


def test_synth_grammar_file_requires_ontology(tmp_path):
    (tmp_path / "grammar.txt").write_text("leave\t\n")
    code = run_command([
        "synth", "--grammar", str(tmp_path / "grammar.txt"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1


def test_collapse_outputs(workspace):
    source_ontology = read_ontology(workspace["source_ontology"])
    assert source_ontology.depth == 1
    mapping_lines = (
        (workspace["root"] / "source" / "mapping.tsv").read_text().splitlines()
    )
    full = read_ontology(workspace["ontology"])
    assert len(mapping_lines) == len(full.branches)
    relabeled = read_corpus(workspace["source_train"])
    original = read_corpus(workspace["train"])
    assert len(relabeled) == len(original)
    for a, b in zip(relabeled, original):
        assert a.tokens == b.tokens
        assert len(a.spans) == len(b.spans)


def test_perturb_smoke(workspace, tmp_path):
    assert run_command([
        "perturb", "--ontology", str(workspace["ontology"]),
        "--train", str(workspace["train"]), "--test", str(workspace["test"]),
        "--seed", "5", "--out", str(tmp_path / "p"),
    ]) == 0
    perturbed = read_corpus(tmp_path / "p" / "test.txt")
    original = read_corpus(workspace["test"])
    assert len(perturbed) == len(original)
    for a, b in zip(perturbed, original):
        assert [s.slot for s in a.spans] == [s.slot for s in b.spans]


# SHA-256 of the corpora that synth, collapse and perturb write for the
# workspace above.  The acceptance fixture builds its inputs through the same
# code, so a change to these bytes changes what the acceptance gate measures.
CORPUS_DIGESTS = {
    "train/corpus.txt": "f76b7ee603ba446c85ddf915c802219b5aadd10000e1b487da1a9f3645cbab66",
    "test/corpus.txt": "3b95dcf96da67119d7f9ecd2487153c3affe6a027302514e75ad838f7f804c70",
    "source/train.txt": "70c469ea3ad8c177f03cba193547e6b4ceda950cbc551d1ffec28809ed616dfa",
    "source/valid.txt": "24ed974b142fd1b1745057b48518e8019c1240dedb85efb61c77774aa005c911",
    "perturbed/test.txt": "096437eff51754479ce6398ebe04fcb023f07d23da71e86fc358dcf0a5ba4d40",
}


def test_corpus_bytes_match_the_recorded_digests(workspace, tmp_path):
    root = workspace["root"]
    assert run_command([
        "perturb", "--ontology", str(workspace["ontology"]),
        "--train", str(workspace["train"]), "--test", str(workspace["test"]),
        "--seed", "5", "--out", str(tmp_path / "perturbed"),
    ]) == 0
    for name, digest in CORPUS_DIGESTS.items():
        base = tmp_path if name.startswith("perturbed/") else root
        data = (base / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


# ---------------------------------------------------------------------------
# training and scoring commands

@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("train") / "js"
    code = run_command([
        "train", "--kind", "JS", "--ontology", str(workspace["ontology"]),
        "--train", str(workspace["train"]), "--valid", str(workspace["valid"]),
        "--test", str(workspace["test"]), "--out", str(out), *FAST,
    ])
    assert code == 0
    return out


def test_train_writes_bundle_logs_and_eval(trained):
    names = {str(p) for p in list_files(trained)}
    assert {"manifest.json", "train_log.txt", "eval.txt", "eval.tsv"} <= names
    model = load_model(trained / "model")
    assert model.kind == "JS"
    log_lines = (trained / "train_log.txt").read_text().splitlines()
    assert log_lines[0].startswith("candidate\t")
    assert log_lines[-1].startswith("# chosen candidate:")
    first_eval = (trained / "eval.tsv").read_text().splitlines()[0]
    assert first_eval.startswith("__all__\t")


def test_decode_writes_parseable_corpus(workspace, trained, tmp_path):
    assert run_command([
        "decode", "--model", str(trained / "model"),
        "--test", str(workspace["test"]), "--out", str(tmp_path / "d"),
    ]) == 0
    decoded = read_corpus(tmp_path / "d" / "decoded.txt")
    original = read_corpus(workspace["test"])
    assert len(decoded) == len(original)
    for a, b in zip(decoded, original):
        assert a.tokens == b.tokens


def test_eval_pred_and_model_routes_agree(workspace, trained, tmp_path, capsys):
    assert run_command([
        "decode", "--model", str(trained / "model"),
        "--test", str(workspace["test"]), "--out", str(tmp_path / "d"),
    ]) == 0
    assert run_command([
        "eval", "--test", str(workspace["test"]),
        "--pred", str(tmp_path / "d" / "decoded.txt"),
        "--out", str(tmp_path / "from_pred"),
    ]) == 0
    assert run_command([
        "eval", "--test", str(workspace["test"]),
        "--model", str(trained / "model"),
        "--out", str(tmp_path / "from_model"),
    ]) == 0
    capsys.readouterr()
    assert filecmp.cmp(
        tmp_path / "from_pred" / "eval.tsv",
        tmp_path / "from_model" / "eval.tsv",
        shallow=False,
    )


def test_eval_pred_with_other_tokens_is_a_data_error(workspace, tmp_path, capsys):
    reference = read_corpus(workspace["test"])
    renamed = list(reference)
    renamed[3] = TaggedUtterance(("zzz",) * len(renamed[3]), renamed[3].tags)
    write_corpus(Corpus(tuple(renamed)), tmp_path / "pred.txt")
    assert run_command([
        "eval", "--test", str(workspace["test"]),
        "--pred", str(tmp_path / "pred.txt"), "--out", str(tmp_path / "e"),
    ]) == 2
    assert capsys.readouterr().err == (
        "error: utterance 3: predicted tokens differ from the reference\n"
    )
    assert not (tmp_path / "e").exists()


def test_eval_with_a_truncated_checkpoint_is_a_data_error(
    trained, workspace, tmp_path, capsys
):
    import shutil

    bundle = tmp_path / "model"
    shutil.copytree(trained / "model", bundle)
    stage1 = bundle / "stage1.npy"
    data = stage1.read_bytes()
    stage1.write_bytes(data[: len(data) // 2])
    assert run_command([
        "eval", "--test", str(workspace["test"]), "--model", str(bundle),
    ]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval", "decode"])
def test_a_checkpoint_six_characters_short_is_a_data_error(
    trained, workspace, tmp_path, capsys, command
):
    import shutil

    bundle = tmp_path / "model"
    shutil.copytree(trained / "model", bundle)
    stage1 = bundle / "stage1.npy"
    stage1.write_bytes(stage1.read_bytes()[:-7] + b"\n")
    args = [command, "--test", str(workspace["test"]), "--model", str(bundle)]
    if command == "decode":
        args += ["--out", str(tmp_path / "d")]
    assert run_command(args) == 2
    assert "stage1.npy" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda manifest: [1, 2],
        lambda manifest: {**manifest, "files": {"vocab": 3}},
    ],
    ids=["not-an-object", "a-file-name-that-is-a-number"],
)
def test_eval_with_a_malformed_manifest_is_a_data_error(
    trained, workspace, tmp_path, capsys, edit
):
    import shutil

    bundle = tmp_path / "model"
    shutil.copytree(trained / "model", bundle)
    manifest = bundle / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    assert run_command([
        "eval", "--test", str(workspace["test"]), "--model", str(bundle),
    ]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_requires_exactly_one_source(workspace, trained):
    assert run_command(["eval", "--test", str(workspace["test"])]) == 1
    assert run_command([
        "eval", "--test", str(workspace["test"]),
        "--pred", "x.txt", "--model", str(trained / "model"),
    ]) == 1


# ---------------------------------------------------------------------------
# adaptation

def adapt_args(workspace, out, preset="AC_TS"):
    return [
        "adapt", "--preset", preset,
        "--ontology", str(workspace["ontology"]),
        "--source-ontology", str(workspace["source_ontology"]),
        "--train", str(workspace["train"]), "--valid", str(workspace["valid"]),
        "--source-train", str(workspace["source_train"]),
        "--source-valid", str(workspace["source_valid"]),
        "--test", str(workspace["test"]),
        "--subset", "10", "--out", str(out), *FAST,
    ]


def test_adapt_reruns_byte_identically(workspace, tmp_path):
    for out in ("one", "two"):
        assert run_command(adapt_args(workspace, tmp_path / out)) == 0
    one, two = tmp_path / "one", tmp_path / "two"
    files = list_files(one)
    assert files == list_files(two)
    for rel in files:
        if rel.name == "manifest.json" and rel.parent == Path("."):
            continue  # records --out, which differs by construction
        assert filecmp.cmp(one / rel, two / rel, shallow=False), rel
    assert (one / "model" / "stage1.npy").exists()
    assert (one / "model" / "shapes.json").exists()
    assert (one / "source_log.txt").exists()
    assert (one / "target_log.txt").exists()


def test_adapt_target_only_preset_needs_no_source(workspace, tmp_path):
    assert run_command([
        "adapt", "--preset", "JS_T",
        "--ontology", str(workspace["ontology"]),
        "--train", str(workspace["train"]), "--valid", str(workspace["valid"]),
        "--subset", "10", "--out", str(tmp_path / "t"), *FAST,
    ]) == 0
    model = load_model(tmp_path / "t" / "model")
    assert model.kind == "JS"
    assert not (tmp_path / "t" / "source_log.txt").exists()


def test_adapt_acd_preset_bundles_stage2(workspace, tmp_path):
    assert run_command(
        adapt_args(workspace, tmp_path / "acd", preset="ACD_TS_1")
    ) == 0
    model = load_model(tmp_path / "acd" / "model")
    assert model.kind == "ACD1"
    assert model.stage2 is not None
    assert model.stage2_vocab is not None


def without(args, flag):
    """``args`` without ``flag`` and the value after it."""
    at = args.index(flag)
    return args[:at] + args[at + 2:]


def record_reads_and_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "read_corpus", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(models, "run_experiment", lambda *a, **k: calls.append(a))
    return calls


SOURCE_FLAGS = ("--source-ontology", "--source-train", "--source-valid")


def test_adapt_missing_source_flags_is_a_usage_error(workspace, tmp_path, monkeypatch, capsys):
    calls = record_reads_and_runs(monkeypatch)
    for flag in SOURCE_FLAGS:
        args = without(adapt_args(workspace, tmp_path / "x", preset="JS_TS"), flag)
        assert run_command(args) == 1, flag
        assert f"JS_TS needs {flag}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("kind", ["JS", "AC"])
def test_train_writes_what_the_target_only_preset_writes(workspace, tmp_path, kind):
    flags = [
        "--ontology", str(workspace["ontology"]),
        "--train", str(workspace["train"]), "--valid", str(workspace["valid"]),
        "--test", str(workspace["test"]), "--subset", "12",
        "--epochs", "2", "--lr-grid", "0.05,0.1", "--dropout", "0.5",
        "--emb-dim", "4", "--hidden", "4", "--seed", "3",
    ]
    trained, adapted = tmp_path / "train", tmp_path / "adapt"
    assert run_command(["train", "--kind", kind, *flags, "--out", str(trained)]) == 0
    assert run_command(
        ["adapt", "--preset", f"{kind}_T", *flags, "--out", str(adapted)]
    ) == 0
    bundle = list_files(trained / "model")
    assert bundle == list_files(adapted / "model")
    for rel in bundle:
        assert filecmp.cmp(trained / "model" / rel, adapted / "model" / rel, shallow=False), rel
    for mine, theirs in (("train_log.txt", "target_log.txt"), ("eval.tsv", "eval.tsv")):
        assert filecmp.cmp(trained / mine, adapted / theirs, shallow=False), mine


# ---------------------------------------------------------------------------
# curve

def test_curve_table(workspace, tmp_path):
    assert run_command([
        "curve", "--systems", "JS_T,AC_TS", "--sizes", "8",
        "--ontology", str(workspace["ontology"]),
        "--source-ontology", str(workspace["source_ontology"]),
        "--train", str(workspace["train"]), "--valid", str(workspace["valid"]),
        "--source-train", str(workspace["source_train"]),
        "--source-valid", str(workspace["source_valid"]),
        "--test", str(workspace["test"]),
        "--out", str(tmp_path / "c"), *FAST,
    ]) == 0
    rows = (tmp_path / "c" / "curve.tsv").read_text().splitlines()
    assert rows[0] == "system\tsize\tf1"
    assert len(rows) == 3
    assert rows[1].startswith("JS_T\t8\t")
    assert rows[2].startswith("AC_TS\t8\t")


def test_curve_rejects_unknown_system(workspace, tmp_path):
    assert run_command([
        "curve", "--systems", "NOPE", "--sizes", "5",
        "--ontology", str(workspace["ontology"]),
        "--train", str(workspace["train"]), "--valid", str(workspace["valid"]),
        "--test", str(workspace["test"]), "--out", str(tmp_path / "c"),
    ]) == 1


@pytest.mark.parametrize("sizes", ["²", "8,-1", "x", ","])
def test_curve_rejects_bad_sizes(workspace, tmp_path, capsys, sizes):
    # "²".isdigit() is true, but int("²") raises
    assert run_command([
        "curve", "--systems", "JS_T", "--sizes", sizes,
        "--ontology", str(workspace["ontology"]),
        "--train", str(workspace["train"]), "--valid", str(workspace["valid"]),
        "--test", str(workspace["test"]), "--out", str(tmp_path / "c"),
    ]) == 1
    assert "subset size" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_curve_checks_every_system_before_training(workspace, tmp_path, monkeypatch, capsys):
    calls = record_reads_and_runs(monkeypatch)
    args = [
        "curve", "--systems", "JS_T,AC_TS", "--sizes", "8",
        "--ontology", str(workspace["ontology"]),
        "--source-ontology", str(workspace["source_ontology"]),
        "--train", str(workspace["train"]), "--valid", str(workspace["valid"]),
        "--source-train", str(workspace["source_train"]),
        "--source-valid", str(workspace["source_valid"]),
        "--test", str(workspace["test"]), "--out", str(tmp_path / "c"), *FAST,
    ]
    for flag in SOURCE_FLAGS:
        assert run_command(without(args, flag)) == 1, flag
        assert f"AC_TS needs {flag}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "c").exists()


# ---------------------------------------------------------------------------
# gradcheck and error handling

def test_gradcheck_passes(tmp_path, capsys):
    assert run_command(["gradcheck", "--out", str(tmp_path / "g")]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "PASS" in out
    text = (tmp_path / "g" / "gradcheck.txt").read_text()
    assert text.rstrip().endswith("PASS")


def test_missing_input_file_exits_2(tmp_path):
    assert run_command([
        "perturb", "--ontology", "builtin",
        "--train", str(tmp_path / "nope.txt"),
        "--test", str(tmp_path / "nope.txt"),
        "--out", str(tmp_path / "o"),
    ]) == 2


def test_malformed_corpus_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("token without a tag\n")
    assert run_command([
        "perturb", "--ontology", "builtin",
        "--train", str(bad), "--test", str(bad),
        "--out", str(tmp_path / "o"),
    ]) == 2


@pytest.mark.parametrize("reader", [
    "synth --grammar", "perturb --ontology", "eval --test", "eval --pred", "decode --test",
])
def test_a_file_that_is_not_utf8_is_a_data_error(workspace, trained, tmp_path, capsys, reader):
    bad = tmp_path / "latin1.txt"
    text = {
        "synth --grammar": "leave on $D\t$D=day\nlexicon\tday\tlundi à midi\n",
        "perturb --ontology": "dims=1\nday\tday\ncafé\tcafé\n",
    }.get(reader, workspace["test"].read_text() + "\ncafé\tO\n")
    bad.write_bytes(text.encode("latin-1"))
    ontology = tmp_path / "ontology.txt"
    ontology.write_text("dims=1\nday\tday\n")
    args = {
        "synth --grammar": ["synth", "--grammar", str(bad), "--ontology", str(ontology)],
        "perturb --ontology": ["perturb", "--ontology", str(bad),
                               "--train", str(workspace["train"]),
                               "--test", str(workspace["test"])],
        "eval --test": ["eval", "--test", str(bad), "--pred", str(workspace["test"])],
        "eval --pred": ["eval", "--test", str(workspace["test"]), "--pred", str(bad)],
        "decode --test": ["decode", "--model", str(trained / "model"), "--test", str(bad)],
    }[reader]
    assert run_command([*args, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text ("), err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--n", "-1"),
    ("synth", "--seed", "-1"),
    ("perturb", "--seed", "-1"),
    ("train", "--subset", "-1"),
    ("adapt", "--subset", "-2"),
    ("collapse", "--keep-dims", "-1"),
    ("collapse", "--keep-dims", "0"),
])
def test_negative_count_or_seed_is_usage_error(
    workspace, tmp_path, capsys, command, flag, value
):
    inputs = {
        "synth": [],
        "perturb": ["--ontology", str(workspace["ontology"]),
                    "--train", str(workspace["train"]),
                    "--test", str(workspace["test"])],
        "train": ["--kind", "JS", "--ontology", str(workspace["ontology"]),
                  "--train", str(workspace["train"]),
                  "--valid", str(workspace["valid"]), *FAST],
        "adapt": ["--preset", "JS_T", "--ontology", str(workspace["ontology"]),
                  "--train", str(workspace["train"]),
                  "--valid", str(workspace["valid"]), *FAST],
        "collapse": ["--ontology", str(workspace["ontology"]),
                     "--train", str(workspace["train"])],
    }[command]
    assert run_command([
        command, *inputs, flag, value, "--out", str(tmp_path / "o"),
    ]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1
    # no ontology keeps 0 dimensions
    minimum = 1 if flag == "--keep-dims" else 0
    assert f"argument {flag}: must be >= {minimum}, got {value}" in errors[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_parameters_that_overflow_in_training_are_a_divergence(tmp_path, capsys):
    # a finite gradient times this rate overflows the update to infinity;
    # the divergence is reported once, with no numpy warning before it
    assert run_command(["synth", "--n", "1", "--seed", "0", "--out", str(tmp_path / "s")]) == 0
    corpus = str(tmp_path / "s" / "corpus.txt")
    assert run_command([
        "train", "--kind", "JS", "--ontology", "builtin",
        "--train", corpus, "--valid", corpus, "--test", corpus,
        "--epochs", "1", "--lr", "1e308", "--dropout", "0", "--hidden", "4", "--emb-dim", "3",
        "--out", str(tmp_path / "o"),
    ]) == 2
    assert "every learning-rate candidate diverged (1e+308)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_subcommand_exits_1(capsys):
    assert run_command(["frobnicate"]) == 1
    capsys.readouterr()


def test_no_arguments_exits_1(capsys):
    assert run_command([]) == 1
    capsys.readouterr()


def test_bad_training_flag_is_usage_error(workspace, tmp_path, capsys):
    for flags in (
        ["--dropout", "1.5"],
        ["--lr", "nan"],
        ["--lr", "inf"],
        ["--lr-grid", "0.1,nan"],
        ["--lr-grid", "0.1,-inf"],
    ):
        code = run_command([
            "train", "--kind", "JS", "--ontology", str(workspace["ontology"]),
            "--train", str(workspace["train"]), "--valid", str(workspace["valid"]),
            "--out", str(tmp_path / "x"), *flags,
        ])
        assert code == 1, flags
        assert not (tmp_path / "x").exists(), flags
        assert capsys.readouterr().err.startswith("error: "), flags


@pytest.mark.parametrize("command, flags", [
    ("train", ["--kind", "JS", "--epochs", "-1"]),
    ("adapt", ["--preset", "JS_T", "--dropout", "1.5"]),
    ("curve", ["--systems", "JS_T", "--sizes", "5", "--lr-grid", "nan"]),
])
def test_a_bad_training_flag_is_found_before_any_file_is_read(tmp_path, capsys, command, flags):
    missing = str(tmp_path / "missing.txt")
    inputs = ["--ontology", missing, "--train", missing, "--valid", missing]
    if command == "curve":
        inputs += ["--test", missing]
    assert run_command([command, *flags, *inputs, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.txt" not in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "adapt", "collapse"])
def test_a_data_error_after_other_inputs_read_writes_nothing(workspace, tmp_path, capsys, command):
    # train and adapt read --test together with their other inputs; collapse
    # relabels every corpus before it writes any
    bad, out = tmp_path / "bad.txt", tmp_path / "o"
    bad.write_text("token without a tag\n")
    ontology = workspace["ontology"].read_text().splitlines()
    (tmp_path / "one_slot.txt").write_text("\n".join(ontology[:2]) + "\n")
    args = {
        "train": ["train", "--kind", "AC", "--ontology", str(workspace["ontology"]),
                  "--train", str(workspace["train"]), "--valid", str(workspace["valid"]),
                  "--test", str(bad), "--out", str(out), *FAST],
        "adapt": [*without(adapt_args(workspace, out), "--test"), "--test", str(bad)],
        "collapse": ["collapse", "--ontology", str(tmp_path / "one_slot.txt"),
                     "--keep-dims", "1", "--train", str(workspace["train"]),
                     "--out", str(out)],
    }[command]
    assert run_command(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_outputs_script_reruns_byte_identically(tmp_path):
    """``tests/cli_outputs.py`` runs every subcommand; two of its runs into
    one path write equal trees, so it can compare two checkouts."""
    out, first = tmp_path / "out", tmp_path / "first"
    script = [sys.executable, str(Path(__file__).with_name("cli_outputs.py")), str(out)]
    subprocess.run(script, check=True, stdout=subprocess.DEVNULL)
    out.rename(first)
    subprocess.run(script, check=True, stdout=subprocess.DEVNULL)
    files = list_files(first)
    assert files == list_files(out)
    for rel in files:
        assert filecmp.cmp(first / rel, out / rel, shallow=False), rel
    commands = {json.loads((out / rel).read_text())["command"]
                for rel in files if rel.name == "manifest.json" and len(rel.parts) == 2}
    assert commands == {"synth", "collapse", "perturb", "train", "adapt", "decode",
                        "eval", "gradcheck", "curve"}


def test_cli_outputs_match_the_pinned_digests(tmp_path):
    """Every file ``tests/cli_outputs.py`` writes, ``.npy`` parameters
    included, hashes as pinned in ``tests/data/cli_outputs.sha256``, with
    the out path normalised (see the script).  The parameters are pinned
    exactly, so another BLAS build may need the pin regenerated."""
    script = Path(__file__).with_name("cli_outputs.py")
    done = subprocess.run([sys.executable, str(script), str(tmp_path / "out"), "--sha256"],
                          check=True, capture_output=True, text=True)
    pin = Path(__file__).parent / "data" / "cli_outputs.sha256"

    def by_path(text):
        return {rel: digest for digest, rel in (line.split("  ", 1) for line in text.splitlines())}

    written, pinned = by_path(done.stdout), by_path(pin.read_text())
    assert len(pinned) == 187
    differ = sorted(rel for rel in written.keys() | pinned.keys()
                    if written.get(rel) != pinned.get(rel))
    assert not differ, f"{len(differ)} files differ from the pin: {differ}"


def test_synth_has_no_role_flag(tmp_path, capsys):
    # a corpus carries no role; the flag that passes it says what it is for
    assert run_command(["synth", "--role", "test", "--out", str(tmp_path / "o")]) == 1
    assert "--role" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# every text input, damaged line by line

TEXT_ONTOLOGY = "dims=2\nfrom.city\tcity\tfrom\nto.city\tcity\tto\nday\tday\tnull\n"
TEXT_GRAMMAR = """\
fly from $A to $B\t$A=from.city,$B=to.city
leave on $D\t$D=day
from $A on $D\t$A=from.city,$D=day
lexicon\tcity\tboston
lexicon\tcity\tnew york
lexicon\tday\tmonday
lexicon\tday\tfriday
"""
TINY_FLAGS = [
    "--epochs", "1", "--lr", "0.1", "--dropout", "0", "--emb-dim", "2",
    "--hidden", "2", "--concept-emb-dim", "2", "--seed", "0",
]
# each {name} is a text input, damaged in turn; {model} is a saved bundle
TEXT_COMMANDS = {
    "synth": ["synth", "--grammar", "{grammar}", "--ontology", "{ontology}", "--n", "3"],
    "collapse": ["collapse", "--ontology", "{ontology}", "--keep-dims", "1",
                 "--train", "{train}", "--valid", "{valid}", "--test", "{test}"],
    "perturb": ["perturb", "--ontology", "{ontology}", "--train", "{train}",
                "--test", "{test}"],
    "train": ["train", "--kind", "AC", "--ontology", "{ontology}", "--train", "{train}",
              "--valid", "{valid}", "--test", "{test}", *TINY_FLAGS],
    "adapt": ["adapt", "--preset", "ACD_TS_1", "--ontology", "{ontology}",
              "--source-ontology", "{source_ontology}", "--train", "{train}",
              "--valid", "{valid}", "--source-train", "{source_train}",
              "--source-valid", "{source_valid}", "--test", "{test}", *TINY_FLAGS],
    "decode": ["decode", "--model", "{model}", "--test", "{test}"],
    "eval --pred": ["eval", "--test", "{test}", "--pred", "{pred}"],
    "eval --model": ["eval", "--test", "{test}", "--model", "{model}"],
    "curve": ["curve", "--systems", "JS_T,ACD_TS_1", "--sizes", "3,all",
              "--ontology", "{ontology}", "--source-ontology", "{source_ontology}",
              "--train", "{train}", "--valid", "{valid}", "--source-train", "{source_train}",
              "--source-valid", "{source_valid}", "--test", "{test}", *TINY_FLAGS],
}
TEXT_TARGETS = [
    (command, arg[1:-1]) for command, argv in TEXT_COMMANDS.items()
    for arg in argv if arg.startswith("{") and arg != "{model}"
]


@pytest.fixture(scope="module")
def text_inputs(tmp_path_factory):
    """Small, valid text inputs for every reader, plus a bundle to decode with."""
    root = tmp_path_factory.mktemp("text")
    (root / "grammar.txt").write_text(TEXT_GRAMMAR)
    (root / "ontology.txt").write_text(TEXT_ONTOLOGY)
    for name, n, seed in (("train", 8, 1), ("valid", 4, 2), ("test", 4, 3)):
        assert run_command([
            "synth", "--grammar", str(root / "grammar.txt"),
            "--ontology", str(root / "ontology.txt"),
            "--n", str(n), "--seed", str(seed), "--out", str(root / name),
        ]) == 0
    assert run_command([
        "collapse", "--ontology", str(root / "ontology.txt"), "--keep-dims", "1",
        "--train", str(root / "train" / "corpus.txt"),
        "--valid", str(root / "valid" / "corpus.txt"), "--out", str(root / "source"),
    ]) == 0
    assert run_command([
        "train", "--kind", "JS", "--ontology", str(root / "ontology.txt"),
        "--train", str(root / "train" / "corpus.txt"),
        "--valid", str(root / "valid" / "corpus.txt"), "--out", str(root / "js"),
        *TINY_FLAGS,
    ]) == 0
    test = (root / "test" / "corpus.txt").read_text()
    paths = {
        "grammar": root / "grammar.txt",
        "ontology": root / "ontology.txt",
        "source_ontology": root / "source" / "source_ontology.txt",
        "train": root / "train" / "corpus.txt",
        "valid": root / "valid" / "corpus.txt",
        "test": root / "test" / "corpus.txt",
        "source_train": root / "source" / "train.txt",
        "source_valid": root / "source" / "valid.txt",
        "pred": root / "pred.txt",
    }
    paths["pred"].write_text(test.replace("B-to.city", "B-from.city"))
    texts = {name: path.read_text() for name, path in paths.items()}
    return {"model": str(root / "js" / "model"), **{k: str(p) for k, p in paths.items()}}, texts


LINE_MUTATIONS = ("delete", "duplicate", "copy over", "add field", "drop field",
                  "swap fields", "extend field", "tab to space", "dims line")
FILE_MUTATIONS = ("crlf", "bom", "empty", "not utf-8")
FIELDS = st.one_of(
    st.sampled_from(["", "O", "B-x", "I-from.city", "B-", "0", "-1", "2", "99999999999",
                     "null", "$A", "$A=day", "lexicon", "dims=2", " ", "\r", "é"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
MUTATION = st.one_of(
    st.tuples(st.sampled_from(LINE_MUTATIONS), st.integers(0, 99), st.integers(0, 99), FIELDS),
    st.tuples(st.sampled_from(FILE_MUTATIONS), st.just(0), st.just(0), st.just("")),
)


def damage(text: str, mutations) -> bytes:
    """``text`` after each ``(mutation, line, other line, field)`` in turn."""
    tail = b""
    for mutation, i, j, field in mutations:
        lines = text.split("\n")
        i, j = i % len(lines), j % len(lines)
        fields = lines[i].split("\t")
        if mutation == "delete":
            del lines[i]
        elif mutation == "duplicate":
            lines.insert(i, lines[i])
        elif mutation == "copy over":
            lines[j] = lines[i]
        elif mutation == "add field":
            lines[i] += "\t" + field
        elif mutation == "drop field":
            lines[i] = "\t".join(fields[:-1])
        elif mutation == "swap fields":
            lines[i] = "\t".join(fields[::-1])
        elif mutation == "extend field":
            lines[i] += field
        elif mutation == "tab to space":
            lines[i] = lines[i].replace("\t", " ", 1)
        elif mutation == "dims line":
            lines[i] = f"dims={field}"
        text = "\n".join(lines)
        if mutation == "crlf":
            text = text.replace("\n", "\r\n")
        elif mutation == "bom":
            text = "\ufeff" + text
        elif mutation == "empty":
            text = ""
        elif mutation == "not utf-8":
            tail = b"\xff\n"
    return text.encode("utf-8") + tail


@given(target=st.sampled_from(TEXT_TARGETS), mutations=st.lists(MUTATION, min_size=1, max_size=2))
@settings(max_examples=200, deadline=None)
def test_a_damaged_text_input_never_escapes_as_an_exception(text_inputs, target, mutations):
    paths, texts = text_inputs
    command, name = target
    with tempfile.TemporaryDirectory() as tmp:
        damaged = Path(tmp) / f"{name}.txt"
        damaged.write_bytes(damage(texts[name], mutations))
        out = Path(tmp) / "out"
        given_paths = {**paths, name: str(damaged)}
        argv = [arg.format(**given_paths) for arg in TEXT_COMMANDS[command]]
        code = run_command([*argv, "--out", str(out)])
        assert code in (0, 1, 2)
        if code != 0:
            assert not out.exists()
