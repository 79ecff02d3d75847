import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import rxnpred
from rxnpred import cli, datagen
from rxnpred.center import CenterModel
from rxnpred.cli import main
from rxnpred.pipeline import RunConfig, TrainResult
from rxnpred.ranker import RankerModel


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "toy.txt"
    datagen.write_lines(data, datagen.toy_reaction_lines(16, seed=9))
    return root


@pytest.fixture(scope="module")
def checkpoints(workdir):
    data = str(workdir / "toy.txt")
    center = str(workdir / "center.ckpt")
    ranker = str(workdir / "ranker.ckpt")
    assert main(["train-center", "--data", data, "--out", center,
                 "--variant", "local", "--epochs", "8", "--lr", "0.003",
                 "--decay", "0.97", "--split", "1.0,0,0"]) == 0
    assert main(["train-ranker", "--data", data, "--out", ranker,
                 "--variant", "wldn", "--model", "oracle", "--epochs", "5",
                 "--lr", "0.003", "--decay", "0.97", "--split", "1.0,0,0",
                 "--augment-truth"]) == 0
    return center, ranker


def test_training_commands_write_checkpoints(workdir, checkpoints, capsys):
    center, ranker = checkpoints
    header = Path(center).read_text().splitlines()[0].strip()
    assert header == "REXGEN-CKPT v1"
    assert "kind=center" in Path(center).read_text()
    assert "kind=ranker" in Path(ranker).read_text()


def test_evaluate_command(workdir, checkpoints, capsys):
    center, ranker = checkpoints
    out = str(workdir / "report.txt")
    code = main(["evaluate", "--data", str(workdir / "toy.txt"),
                 "--model", center, "--model", ranker,
                 "--split", "1.0,0,0", "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "coverage@6" in stdout and "mrr=" in stdout
    assert "records=16" in Path(out).read_text()


def test_predict_command(workdir, checkpoints, capsys):
    center, ranker = checkpoints
    code = main(["predict", "CC(=O)Cl.CN", "--model", center, "--model", ranker,
                 "--top-n", "2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "score=" in stdout and "1." in stdout


def test_predict_reports_empty_candidates(workdir, checkpoints, capsys):
    center, ranker = checkpoints
    code = main(["predict", "[CH4:1]", "--model", center, "--model", ranker])
    assert code == 1
    assert "no candidates" in capsys.readouterr().out


def test_config_file_roundtrip(workdir, checkpoints, capsys):
    cfg = workdir / "run.cfg"
    cfg.write_text("k=4\nsplit=1.0,0,0\n")
    center, ranker = checkpoints
    code = main(["evaluate", "--data", str(workdir / "toy.txt"),
                 "--model", center, "--model", ranker, "--config", str(cfg)])
    assert code == 0
    assert "coverage@4" in capsys.readouterr().out


def test_each_flag_sets_its_config_field_over_the_file(workdir, monkeypatch):
    seen = []

    def train(cfg):
        seen.append(cfg)
        return TrainResult(checkpoint=cfg.out, history=[{"train_coverage": 0.0}])

    monkeypatch.setattr(cli, "train_center", train)
    cfg = workdir / "flags.cfg"
    cfg.write_text("k=4\nsplit=0.5,0.25,0.25\nlr=0.1\nhidden=8\n")
    assert main(["train-center", "--config", str(cfg)]) == 0
    assert main(["train-center", "--config", str(cfg), "--data", "d.txt", "--out", "o.ckpt",
                 "--k", "9", "--depth", "2", "--hidden", "12", "--max-changes", "2",
                 "--epochs", "3", "--batch", "4", "--lr", "0.02", "--seed", "5",
                 "--variant", "global", "--augment-truth", "--decay", "0.5",
                 "--split", "0.6,0.2,0.2"]) == 0
    assert seen == [
        RunConfig(k=4, split=(0.5, 0.25, 0.25), lr=0.1, hidden=8),
        RunConfig(data="d.txt", out="o.ckpt", k=9, depth=2, hidden=12, max_changes=2,
                  epochs=3, batch=4, lr=0.02, seed=5, variant="global", augment_truth=True,
                  decay=0.5, split=(0.6, 0.2, 0.2))]


@pytest.mark.parametrize("command, variant", [
    ("train-center", "wldn"), ("train-ranker", "global"), ("train-ranker", "local")])
def test_training_rejects_a_variant_it_cannot_train(workdir, command, variant):
    out = workdir / f"{command}-{variant}.ckpt"
    args = [command, "--data", str(workdir / "toy.txt"), "--out", str(out), "--epochs", "1"]
    with pytest.raises(SystemExit, match=f"cannot train variant {variant!r}"):
        main(args + ["--variant", variant])
    cfg = workdir / f"{command}-{variant}.cfg"
    cfg.write_text(f"variant={variant}\n")
    with pytest.raises(SystemExit, match=f"cannot train variant {variant!r}"):
        main(args + ["--config", str(cfg)])
    assert not out.exists()


@pytest.mark.parametrize("command, variant", [("train-center", "local"),
                                              ("train-ranker", "wldn")])
def test_training_variant_defaults(workdir, command, variant):
    out = workdir / f"{command}-default.ckpt"
    assert main([command, "--data", str(workdir / "toy.txt"), "--out", str(out),
                 "--epochs", "1", "--split", "1.0,0,0", "--augment-truth"]) == 0
    assert f"# variant={variant}\n" in out.read_text()


def test_missing_models_fail_loudly(workdir):
    with pytest.raises(SystemExit):
        main(["predict", "CC"])


def one_line_exit(args, match):
    """Run the CLI, expecting it to exit with a one-line message, not a traceback."""
    with pytest.raises(SystemExit, match=match) as exc:
        main(args)
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code


@pytest.mark.parametrize("smiles, match", [
    ("C1CC(", r"unclosed '\('"), ("C" * 151, r"too large \(151 atoms"),
    ("[CH3:1][CH2:1][OH:2]", "duplicate atom map number 1")],
    ids=["bad-smiles", "over-atom-cap", "repeated-map-number"])
def test_predict_bad_input_exits_with_one_line(checkpoints, smiles, match):
    center, ranker = checkpoints
    one_line_exit(["predict", smiles, "--model", center, "--model", ranker], match)


def test_missing_checkpoint_file_exits_with_one_line(workdir, checkpoints):
    center, _ = checkpoints
    missing = str(workdir / "missing.ckpt")
    for command in (["predict", "CC"], ["evaluate", "--data", str(workdir / "toy.txt")]):
        one_line_exit(command + ["--model", center, "--model", missing],
                      "No such file or directory")


def test_checkpoint_wider_than_its_rows_exits_with_one_line(workdir):
    # the header's width is checked against the rows before any array is made
    wide = workdir / "wide.ckpt"
    wide.write_text("REXGEN-CKPT v1\nx 1 100000000000000\n1.0\n")
    one_line_exit(["predict", "CC", "--model", str(wide)],
                  re.escape(f"{wide}:3: expected 100000000000000 values, got 1"))


def test_evaluate_bad_data_exits_with_one_line(workdir, checkpoints):
    center, ranker = checkpoints
    models = ["--model", center, "--model", ranker]
    one_line_exit(["evaluate", "--data", str(workdir / "missing.txt")] + models,
                  "No such file or directory")
    junk = workdir / "junk.txt"
    junk.write_text("not a reaction\n")
    one_line_exit(["evaluate", "--data", str(junk)] + models, "records malformed")


def test_old_config_key_exits_with_one_line(workdir, checkpoints):
    center, ranker = checkpoints
    cfg = workdir / "old.cfg"
    cfg.write_text("activation=relu\n")
    one_line_exit(["evaluate", "--data", str(workdir / "toy.txt"), "--model", center,
                   "--model", ranker, "--config", str(cfg)],
                  "unknown config key 'activation'")


def test_unknown_variant_in_config_exits_with_one_line(workdir, checkpoints):
    # evaluate reads no variant, but the setting is still checked.
    center, ranker = checkpoints
    cfg = workdir / "variant.cfg"
    cfg.write_text("variant=foo\n")
    one_line_exit(["evaluate", "--data", str(workdir / "toy.txt"), "--model", center,
                   "--model", ranker, "--config", str(cfg)],
                  re.escape(f"{cfg}:1: config field variant must be one of local, global, "
                            "wldn, wln, got 'foo'"))


# Flags go through the config-line parser: a bad value names its flag and
# setting, as a bad line names its file, line and setting.
@pytest.mark.parametrize("flags, match", [
    (["--split", "1"], "split must be three"),
    (["--split", "nan,0,1"], "split must be three"),
    (["--split", "1.5,-0.5,0"], "split must be three"),
    (["--lr", "nan"], "lr must be finite and positive"),
    (["--decay", "nan"], "decay must be finite and positive"),
    (["--k", "x"], "^--k: config key 'k' takes an integer, got 'x'$"),
    (["--lr", "abc"], "^--lr: config key 'lr' takes a number, got 'abc'$"),
    (["--split", "a,b"], "^--split: config key 'split' takes three comma-separated fractions, "
                         "got 'a,b'$"),
    (["--variant", "foo"], "^--variant: config field variant must be one of local, global, "
                           "wldn, wln, got 'foo'$")])
def test_bad_run_setting_exits_with_one_line(workdir, checkpoints, flags, match):
    center, ranker = checkpoints
    one_line_exit(["evaluate", "--data", str(workdir / "toy.txt"), "--model", center,
                   "--model", ranker] + flags, match)
    one_line_exit(["train-center", "--data", str(workdir / "toy.txt"),
                   "--out", str(workdir / "unused.ckpt")] + flags, match)
    assert not (workdir / "unused.ckpt").exists()


def test_every_run_setting_has_one_route():
    # A new RunConfig field must get a flag or be named config-only here.
    config_only = {"center", "target_train_coverage", "target_train_p1"}
    assert set(cli.SETTING_FLAGS) | config_only == {f.name for f in fields(RunConfig)}
    assert not set(cli.SETTING_FLAGS) & config_only


def test_misspelt_boolean_in_config_exits_with_one_line(workdir, checkpoints):
    cfg = workdir / "typo.cfg"
    cfg.write_text("augment_truth=ture\n")
    one_line_exit(["train-ranker", "--data", str(workdir / "toy.txt"),
                   "--out", str(workdir / "unused.ckpt"), "--config", str(cfg)],
                  "'augment_truth' takes 1/true/yes/on or 0/false/no/off, got 'ture'")


@pytest.mark.parametrize("line, message", [
    ("k=x", "config key 'k' takes an integer, got 'x'"),
    ("lr=abc", "config key 'lr' takes a number, got 'abc'"),
    ("split=a,b", "config key 'split' takes three comma-separated fractions, got 'a,b'"),
    ("target_train_p1=nan", "config field target_train_p1 must be in [0, 1], got nan"),
    ("target_train_coverage=1.5", "config field target_train_coverage must be in [0, 1], got 1.5")])
def test_bad_config_value_exits_with_one_line(workdir, checkpoints, line, message):
    cfg = workdir / "bad.cfg"
    cfg.write_text(f"epochs=2\n{line}\n")
    one_line_exit(["train-center", "--data", str(workdir / "toy.txt"),
                   "--out", str(workdir / "unused.ckpt"), "--config", str(cfg)],
                  re.escape(f"{cfg}:2: {message}"))
    assert not (workdir / "unused.ckpt").exists()


@pytest.mark.parametrize("top_n", ["0", "-1"])
def test_predict_top_n_below_one_exits_with_one_line(checkpoints, top_n):
    center, ranker = checkpoints
    one_line_exit(["predict", "CC(=O)Cl.CN", "--model", center, "--model", ranker,
                   "--top-n", top_n], f"top_n must be at least 1, got {top_n}")


@pytest.mark.parametrize("top_n", ["x", "1.5", ""])
def test_predict_top_n_not_an_integer_exits_with_one_line(checkpoints, top_n):
    # The flag is checked before the checkpoints are looked for.
    center, ranker = checkpoints
    match = re.escape(f"--top-n: takes an integer, got {top_n!r}")
    for models in ([], ["--model", center, "--model", ranker]):
        one_line_exit(["predict", "CC(=O)Cl.CN", "--top-n", top_n] + models, f"^{match}$")


def one_line_stderr(args, match):
    """Run the CLI in a fresh interpreter, expecting exit status 1 and exactly
    one line on stderr: no warning and no traceback before the message."""
    src = str(Path(rxnpred.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "rxnpred.cli", *args], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
    assert re.search(match, proc.stderr), proc.stderr


def blow_up(model_cls, path, name, out):
    """Save a copy of a checkpoint whose tensor ``name`` is 1e300: a finite
    weight that loads fine but overflows the scores to NaN."""
    model = model_cls.load(path)
    model.store[name].values[:] = 1e300
    model.save(out)
    return str(out)


def test_non_finite_ranker_scores_exit_with_one_line(workdir, checkpoints):
    center, ranker = checkpoints
    blown = blow_up(RankerModel, ranker, "mol.Win", workdir / "blown-ranker.ckpt")
    models = ["--model", center, "--model", blown]
    one_line_stderr(["predict", "CCO.CC(=O)Cl"] + models, "non-finite score nan")
    one_line_stderr(["evaluate", "--data", str(workdir / "toy.txt"), "--split", "1.0,0,0"]
                    + models, "non-finite score nan")


def test_non_finite_center_scores_exit_with_one_line(workdir, checkpoints):
    center, ranker = checkpoints
    blown = blow_up(CenterModel, center, "wln.Win", workdir / "blown-center.ckpt")
    one_line_stderr(["predict", "CCO.CC(=O)Cl", "--model", blown, "--model", ranker],
                    "non-finite pair score")


def test_diverging_training_exits_with_one_line(workdir):
    out = workdir / "diverged.ckpt"
    one_line_stderr(["train-center", "--data", str(workdir / "toy.txt"), "--out", str(out),
                     "--epochs", "2", "--lr", "1e300", "--split", "1.0,0,0"],
                    "non-finite|diverged")
    assert not out.exists()


def test_undecodable_data_file_exits_with_one_line(workdir):
    data = workdir / "latin1.txt"
    data.write_bytes(b"# reactions\n[CH3:1][OH:2]\xff>>[CH4:1]\n")
    one_line_stderr(["train-center", "--data", str(data), "--out", str(workdir / "unused.ckpt")],
                    re.escape(f"{data}:2: byte 0xff is not utf-8 text"))


def test_undecodable_checkpoint_exits_with_one_line(workdir, checkpoints):
    center, ranker = checkpoints
    lines = Path(center).read_bytes().split(b"\n")
    lines[1] += b"\xff"
    bad = workdir / "undecodable.ckpt"
    bad.write_bytes(b"\n".join(lines))
    one_line_stderr(["predict", "CCO.CC(=O)Cl", "--model", str(bad), "--model", ranker],
                    re.escape(f"{bad}:2: byte 0xff is not ascii text"))


def test_undecodable_config_file_exits_with_one_line(workdir):
    cfg = workdir / "undecodable.cfg"
    cfg.write_bytes(b"epochs=2\nk=\xff\n")
    out = workdir / "unused.ckpt"
    one_line_stderr(["train-center", "--data", str(workdir / "toy.txt"), "--out", str(out),
                     "--config", str(cfg)], re.escape(f"{cfg}:2: byte 0xff is not utf-8 text"))
    assert not out.exists()


def test_selfcheck_command_passes_every_suite(capsys):
    assert main(["selfcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"[PASS] {name}" for name in (
            "wl-soundness", "comparison-form", "enumeration-oracle", "grad-center-local",
            "grad-center-global", "grad-ranker-wldn", "grad-ranker-wln", "ranker-batched",
            "center-inference", "blas-rows", "graph-delta")]


def test_datagen_cli(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert datagen.main(["--out", str(out), "--n", "6", "--seed", "1"]) == 0
    lines = [l for l in out.read_text().splitlines() if l]
    assert len(lines) == 6
    assert all(l.count(">") == 2 for l in lines)
