"""Property tests: edit-local products equal the edited components of the
full product, and inverse edits restore the reactants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import merge, permute_graph
from rxnpred.candgen import Candidate, EditSet
from rxnpred.chemgraph import (BondType, apply_edits, edit_local_product, induced_subgraph,
                               parse_smiles, write_smiles)
from rxnpred.datagen import random_molecule

FRAGMENTS = ("[NH4+]", "[O-]C(=O)C", "c1ccncc1", "C1CCC2CCCCC2C1", "O=S(=O)(O)O",
             "FC(F)(F)(F)C")


@st.composite
def edited_reactants(draw):
    """Multi-component reactants under a random atom order, with one to four
    edits: deleted bonds (which may split a component), new bonds (which
    may join two) and changed bond types."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = [random_molecule(rng) for _ in range(draw(st.integers(1, 3)))]
    parts += [parse_smiles(s) for s in draw(st.lists(st.sampled_from(FRAGMENTS), max_size=2))]
    g = merge(parts)
    g = permute_graph(g, [int(i) for i in draw(st.permutations(range(g.n_atoms)))])
    n = g.n_atoms
    bonded = [(b.u, b.v) for b in g.bonds]
    any_pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p)))
    pair = st.one_of(st.sampled_from(bonded), any_pair) if bonded else any_pair
    pairs = draw(st.lists(pair, min_size=1, max_size=4, unique=True)) if n > 1 else []
    edits = [(u, v, draw(st.sampled_from([bt for bt in BondType
                                          if bt is not g.bond_type_between(u, v)])))
             for u, v in pairs]
    return g, EditSet.of(edits)


def assert_local_product_equal(g, edits):
    full = apply_edits(g, edits)
    comps = {full.component[a] for a in edits.atoms()}
    expected_atoms = [i for i in range(full.n_atoms) if full.component[i] in comps]
    expected = induced_subgraph(full, expected_atoms)
    local, atoms = edit_local_product(g, edits)
    assert atoms == expected_atoms
    # Dataclass equality: every atom and bond field, bonds in order,
    # adjacency, components and valence warnings.
    assert local == expected
    assert write_smiles(local) == write_smiles(expected)
    cand = Candidate(edits, g)
    assert cand.edited_atoms() == atoms and cand.local_product == local


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edited_reactants())
def test_local_product_equals_edited_components_of_full_product(instance):
    assert_local_product_equal(*instance)


@pytest.mark.parametrize("smiles, edits", [
    # a bridge deleted: the component splits, both pieces stay local
    ("CC(=O)OC.CCO", [(3, 4, BondType.NONE)]),
    # a bond across components joins them; the third stays out
    ("CC(=O)Cl.NC.O", [(1, 3, BondType.NONE), (1, 4, BondType.SINGLE)]),
    # a ring bond deleted and an aromatic ring bond retyped
    ("C1CCCCC1.c1ccccc1", [(0, 5, BondType.NONE), (6, 7, BondType.DOUBLE)]),
])
def test_local_product_on_splits_and_joins(smiles, edits):
    assert_local_product_equal(parse_smiles(smiles), EditSet.of(edits))


def test_empty_edit_set_has_empty_local_product():
    local, atoms = edit_local_product(parse_smiles("CCO.N"), [])
    assert atoms == [] and local.n_atoms == 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edited_reactants())
def test_inverse_edits_restore_reactants(instance):
    g, edits = instance
    product = apply_edits(g, edits)
    restored = apply_edits(product, [(e.u, e.v, g.bond_type_between(e.u, e.v))
                                     for e in edits])
    # Re-created bonds move to the end of the bond list; nothing else changes.
    def by_pair(graph):
        return sorted(graph.bonds, key=lambda b: (b.u, b.v))

    assert restored.atoms == g.atoms
    assert by_pair(restored) == by_pair(g)
    assert restored.component == g.component
    assert restored.valence_warnings == g.valence_warnings
    assert write_smiles(restored) == write_smiles(g)


def test_product_matches_equals_full_product_route():
    # _product_matches counts atoms from the edit-local product before it
    # builds the full product; the booleans must equal the full route's.
    from rxnpred import datagen
    from rxnpred.candgen import GenConfig, enumerate_candidates
    from rxnpred.pipeline import _product_matches, parse_reaction_line
    from rxnpred.wliso import wl_equivalent

    def full_route(rec, cand):
        if cand.edits == rec.true_edits:
            return True
        p_maps = {a.map_number for a in rec.product.atoms}
        comps = {cand.product.component[i] for i, a in enumerate(rec.reactants.atoms)
                 if a.map_number in p_maps}
        union = induced_subgraph(cand.product, [i for i, c in enumerate(cand.product.component)
                                                if c in comps])
        return wl_equivalent(union, rec.product, depth=3)

    lines = (datagen.toy_reaction_lines(30, seed=3) + datagen.reagent_fixture_lines(4, seed=1)
             + datagen.higher_order_fixture_lines(4, seed=1))
    matches = 0
    for line in lines:
        rec = parse_reaction_line(line)
        g = rec.reactants
        pairs = sorted(set(rec.true_edits.pairs) | {
            (min(a, b), max(a, b)) for a in rec.true_edits.atoms() for b in g.neighbors(a)})
        for cand in enumerate_candidates(g, pairs[:6], GenConfig(max_changes=3)):
            fast = _product_matches(rec, cand)
            assert fast == full_route(rec, Candidate(cand.edits, g))
            matches += fast
    assert matches > len(lines) // 2
