import numpy as np
import pytest

from rxnpred import datagen
from rxnpred.pipeline import parse_reaction_line


def test_random_molecules_are_valid(tmp_path):
    rng = np.random.default_rng(0)
    for _ in range(40):
        g = datagen.random_molecule(rng)
        assert g.n_atoms >= 1
        assert g.valence_warnings == ()


def test_reaction_lines_parse_and_validate():
    for line in datagen.toy_reaction_lines(20, seed=3):
        rec = parse_reaction_line(line)
        assert len(rec.true_edits) >= 1


def test_generation_is_seeded():
    assert datagen.toy_reaction_lines(10, seed=4) == datagen.toy_reaction_lines(10, seed=4)
    assert datagen.toy_reaction_lines(10, seed=4) != datagen.toy_reaction_lines(10, seed=5)


def test_reagent_fixture_balanced_and_parseable():
    lines = datagen.reagent_fixture_lines(6, seed=0)
    assert len(lines) == 12
    boron = [l for l in lines if ">FB(F)F>" in l]
    assert len(boron) == 6
    for line in lines:
        rec = parse_reaction_line(line)
        assert len(rec.true_edits) == 1
        assert rec.reactants.n_components == 2


def test_higher_order_fixture_has_two_adjacent_edits():
    for line in datagen.higher_order_fixture_lines(10, seed=1):
        rec = parse_reaction_line(line)
        assert len(rec.true_edits) == 2
        atoms = [set((e.u, e.v)) for e in rec.true_edits]
        assert atoms[0] & atoms[1]  # the edits share an atom


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_rejects_a_record_count_below_one(tmp_path, capsys, n):
    out = tmp_path / "gen.txt"
    with pytest.raises(SystemExit) as exc:
        datagen.main(["--out", str(out), "--n", n])
    assert str(exc.value) == f"--n: must be at least 1, got {n}"
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_write_lines_ends_each_line_and_writes_nothing_for_no_lines(tmp_path):
    path = tmp_path / "lines.txt"
    datagen.write_lines(path, [])
    assert path.read_bytes() == b""
    datagen.write_lines(path, ["a>b>c", "d>>e"])
    assert path.read_bytes() == b"a>b>c\nd>>e\n"
