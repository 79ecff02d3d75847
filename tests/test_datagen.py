from collections import Counter

import numpy as np
import pytest

from rxnpred import datagen
from rxnpred.candgen import EditSet
from rxnpred.chemgraph import BondType, apply_edits, induced_subgraph, parse_smiles, write_smiles
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


def full_product_route(reactants, edits, drop_detached):
    """The product SMILES through the full product: the components of
    ``apply_edits``'s product that hold an edited atom, less (with
    ``drop_detached``) every single atom but those of a largest component."""
    full = apply_edits(reactants, edits)
    comps = {full.component[a] for a in edits.atoms()}
    kept = [i for i, c in enumerate(full.component) if c in comps]
    if drop_detached:
        sizes = Counter(full.component[i] for i in kept)
        largest = max(sizes.values())
        kept = [i for i in kept if sizes[full.component[i]] > 1
                or sizes[full.component[i]] == largest]
    return write_smiles(induced_subgraph(full, kept))


@pytest.mark.parametrize("drop_detached", [False, True])
def test_product_smiles_equals_the_full_product_route(drop_detached):
    # every single-bond deletion (splits and detached atoms among them) and
    # random edits as the generators pick them, on toy and two-reactant records
    rng = np.random.default_rng(6)
    lines = datagen.toy_reaction_lines(30, seed=2) + datagen.higher_order_fixture_lines(10, seed=2)
    splits = 0
    for line in lines:
        g = parse_smiles(line.split(">")[0])
        edit_sets = [EditSet.of([(b.u, b.v, BondType.NONE)]) for b in g.bonds]
        edit_sets += filter(None, (datagen._pick_edit(rng, g) for _ in range(5)))
        for edits in edit_sets:
            assert (datagen._product_smiles(g, edits, drop_detached)
                    == full_product_route(g, edits, drop_detached))
            splits += apply_edits(g, edits).n_components > g.n_components
    assert splits > 50


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
