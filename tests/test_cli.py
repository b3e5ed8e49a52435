import filecmp
import json
from pathlib import Path

import pytest

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
    for name, n, seed, role in (
        ("train", 30, 1, "target"),
        ("valid", 10, 2, "validation"),
        ("test", 10, 3, "test"),
    ):
        code = run_command([
            "synth", "--n", str(n), "--seed", str(seed), "--role", role,
            "--out", str(root / name),
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
    relabeled = read_corpus(workspace["source_train"], role="source")
    original = read_corpus(workspace["train"], role="target")
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
    perturbed = read_corpus(tmp_path / "p" / "test.txt", role="test")
    original = read_corpus(workspace["test"], role="test")
    assert len(perturbed) == len(original)
    for a, b in zip(perturbed, original):
        assert [s.slot for s in a.spans] == [s.slot for s in b.spans]


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
    decoded = read_corpus(tmp_path / "d" / "decoded.txt", role="test")
    original = read_corpus(workspace["test"], role="test")
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
    reference = read_corpus(workspace["test"], role="test")
    renamed = list(reference)
    renamed[3] = TaggedUtterance(("zzz",) * len(renamed[3]), renamed[3].tags)
    write_corpus(Corpus(tuple(renamed), "test"), tmp_path / "pred.txt")
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


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--n", "-1"),
    ("synth", "--seed", "-1"),
    ("perturb", "--seed", "-1"),
    ("train", "--subset", "-1"),
    ("adapt", "--subset", "-2"),
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
    }[command]
    assert run_command([
        command, *inputs, flag, value, "--out", str(tmp_path / "o"),
    ]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1
    assert f"argument {flag}: must be >= 0, got {value}" in errors[0]
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
