import pytest

from rxnpred import datagen
from rxnpred.cli import main


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


def test_datagen_cli(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert datagen.main(["--out", str(out), "--n", "6", "--seed", "1"]) == 0
    lines = [l for l in out.read_text().splitlines() if l]
    assert len(lines) == 6
    assert all(l.count(">") == 2 for l in lines)
