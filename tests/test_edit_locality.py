"""Property tests: edit-local products equal the edited components of the
full product, their edit deltas equal the graph route, and inverse edits
restore the reactants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import merge, permute_graph
from rxnpred.candgen import Candidate, EditSet
from rxnpred.chemgraph import (BOND_FEATURE_DIM, BondType, apply_edits, atom_feature_matrix,
                               bond_features, edit_delta, induced_subgraph, parse_smiles,
                               write_smiles)
from rxnpred.datagen import random_molecule
from rxnpred.selfcheck import (graph_delta_mismatches, inputs_bytes, local_product_oracle,
                               per_atom_inputs)
from rxnpred.wln import delta_inputs, graph_inputs, union_inputs

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
    return g, draw_edits(draw, g)


def draw_edits(draw, g):
    """One to four edits over ``g`` (none on a one-atom graph)."""
    n = g.n_atoms
    bonded = [(b.u, b.v) for b in g.bonds]
    any_pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p)))
    pair = st.one_of(st.sampled_from(bonded), any_pair) if bonded else any_pair
    pairs = draw(st.lists(pair, min_size=1, max_size=4, unique=True)) if n > 1 else []
    edits = [(u, v, draw(st.sampled_from([bt for bt in BondType
                                          if bt is not g.bond_type_between(u, v)])))
             for u, v in pairs]
    return EditSet.of(edits)


@st.composite
def delta_passes(draw):
    """The ``(reactants, edits)`` parts of one ranker pass: one to three
    :func:`edited_reactants` graphs, each with up to three more edit sets."""
    parts = []
    for g, edits in draw(st.lists(edited_reactants(), min_size=1, max_size=3)):
        parts += [(g, edits)] + [(g, draw_edits(draw, g)) for _ in range(draw(st.integers(0, 3)))]
    return parts


def assert_local_product_equal(g, edits):
    expected, expected_atoms = local_product_oracle(g, edits)
    cand = Candidate(edits, g)
    assert cand.edited_atoms() == expected_atoms
    # Dataclass equality: every atom and bond field, bonds in order,
    # adjacency, counts, components and valence warnings.
    local = cand.local_product
    assert local == expected
    assert write_smiles(local) == write_smiles(expected)
    assert graph_delta_mismatches([(g, edits)]) == 0


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
    cand = Candidate(EditSet.of([]), parse_smiles("CCO.N"))
    assert cand.edited_atoms() == [] and cand.local_product.n_atoms == 0
    assert delta_inputs([cand.delta]).n_atoms == 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(delta_passes())
def test_delta_inputs_equal_union_inputs_over_local_products(parts):
    # A pass's inputs from the reactants' codes and the edits are bitwise
    # those of the edit-local product graphs; the delta's local atoms and
    # component ids are the oracle's.
    oracle = [local_product_oracle(g, edits) for g, edits in parts]
    deltas = [Candidate(edits, g).delta for g, edits in parts]
    want = union_inputs([(local, range(local.n_atoms)) for local, _ in oracle])
    assert inputs_bytes(delta_inputs(deltas)) == inputs_bytes(want)
    for delta, (local, atoms) in zip(deltas, oracle):
        assert delta.atoms == atoms and delta.component == local.component
    assert graph_delta_mismatches(parts) == 0


def test_feature_rows_equal_per_atom_features():
    rng = np.random.default_rng(11)
    graphs = [random_molecule(rng, allow_curated=bool(i % 2)) for i in range(200)]
    graphs += [parse_smiles(s) for s in FRAGMENTS + ("[O-][N+](=O)c1ccccc1", "[SiH4]", "[Xe]")]
    for g in graphs:
        features, _, _, edges = g.codes.inputs
        assert features.tobytes() == atom_feature_matrix(g).tobytes()
        assert edges.shape == (2 * g.n_bonds, BOND_FEATURE_DIM)
        assert edges.tobytes() == b"".join(2 * bond_features(g, bi).tobytes()
                                           for bi in range(g.n_bonds))
        assert inputs_bytes(graph_inputs(g)) == inputs_bytes(per_atom_inputs([(g, range(g.n_atoms))]))


@pytest.mark.parametrize("smiles, edits", [
    ("CCO", [(0, 5, BondType.SINGLE)]),            # a missing atom
    ("CCO", [(0, 1, BondType.SINGLE)]),            # no change
    ("CCO", [(0, 2, BondType.NONE)]),              # deleting a bond that is not there
    ("CCO", [(1, 1, BondType.SINGLE)]),            # one atom
    ("CCO", [(0, 1, BondType.NONE), (1, 0, BondType.DOUBLE)]),  # one pair twice
])
def test_delta_rejects_what_apply_edits_rejects(smiles, edits):
    # One validator: both routes raise the same message.
    g = parse_smiles(smiles)
    with pytest.raises(ValueError) as full:
        apply_edits(g, edits)
    with pytest.raises(ValueError) as delta:
        edit_delta(g, edits)
    assert str(delta.value) == str(full.value)


def test_ranking_builds_no_graph(monkeypatch):
    # Scoring reads the reactants' codes and the candidates' deltas only;
    # predict builds local products for the products it writes.
    from rxnpred import chemgraph
    from rxnpred.candgen import enumerate_candidates
    from rxnpred.ranker import RankerModel, rank_candidates

    g = parse_smiles("CC(=O)Cl.NC.O")
    cands = enumerate_candidates(g, [(1, 3), (1, 4), (3, 4), (0, 1)], 3).candidates
    model = RankerModel.create("wldn", hidden=4, depth=2)

    def fail(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(chemgraph, "_finalize", fail)
    assert len(rank_candidates(g, cands, model)) == len(cands) == 12


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
    from rxnpred.candgen import enumerate_candidates
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
        for cand in enumerate_candidates(g, pairs[:6], 3):
            fast = _product_matches(rec, cand)
            assert fast == full_route(rec, Candidate(cand.edits, g))
            matches += fast
    assert matches > len(lines) // 2
