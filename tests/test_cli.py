import pytest

from rxnpred import datagen
from rxnpred.cli import main
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
    header = open(center).readline().strip()
    assert header == "REXGEN-CKPT v1"
    assert "kind=center" in open(center).read()
    assert "kind=ranker" in open(ranker).read()


def test_evaluate_command(workdir, checkpoints, capsys):
    center, ranker = checkpoints
    out = str(workdir / "report.txt")
    code = main(["evaluate", "--data", str(workdir / "toy.txt"),
                 "--model", center, "--model", ranker,
                 "--split", "1.0,0,0", "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "coverage@6" in stdout and "mrr=" in stdout
    assert "records=16" in open(out).read()


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
    ("C1CC(", r"unclosed '\('"), ("C" * 151, r"too large \(151 atoms")],
    ids=["bad-smiles", "over-atom-cap"])
def test_predict_bad_input_exits_with_one_line(checkpoints, smiles, match):
    center, ranker = checkpoints
    one_line_exit(["predict", smiles, "--model", center, "--model", ranker], match)


def test_missing_checkpoint_file_exits_with_one_line(workdir, checkpoints):
    center, _ = checkpoints
    missing = str(workdir / "missing.ckpt")
    for command in (["predict", "CC"], ["evaluate", "--data", str(workdir / "toy.txt")]):
        one_line_exit(command + ["--model", center, "--model", missing],
                      "No such file or directory")


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_ranker_scores_exit_with_one_line(workdir, checkpoints):
    # a finite weight that loads fine but overflows the scores to NaN
    center, ranker = checkpoints
    model = RankerModel.load(ranker)
    model.store["mol.Win"].values[:] = 1e300
    blown = str(workdir / "blown-ranker.ckpt")
    model.save(blown)
    models = ["--model", center, "--model", blown]
    one_line_exit(["predict", "CCO.CC(=O)Cl"] + models, "non-finite score nan")
    one_line_exit(["evaluate", "--data", str(workdir / "toy.txt"), "--split", "1.0,0,0"]
                  + models, "non-finite score nan")


def test_selfcheck_command_passes_every_suite(capsys):
    # wl-soundness, comparison-form, enumeration-oracle, four gradient
    # checks, ranker-batched and center-inference
    assert main(["selfcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and all(line.startswith("[PASS] ") for line in lines)


def test_datagen_cli(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert datagen.main(["--out", str(out), "--n", "6", "--seed", "1"]) == 0
    lines = [l for l in out.read_text().splitlines() if l]
    assert len(lines) == 6
    assert all(l.count(">") == 2 for l in lines)
