from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_permutation
from rxnpred.chemgraph import (_DEGREE, ATOM_FEATURE_DIM, BOND_FEATURE_DIM, BondType,
                               SmilesError, apply_edits, atom_features,
                               bond_features, induced_subgraph, make_graph,
                               merge_graphs, parse_smiles, valence_for_h, valence_limit,
                               with_map_numbers, write_smiles)
from rxnpred.candgen import Candidate
from rxnpred.datagen import random_molecule
from rxnpred.selfcheck import permute_graph
from test_edit_locality import FRAGMENTS, edited_reactants
from rxnpred.wliso import brute_force_isomorphic, wl_equivalent, wl_fingerprint


def maps(g):
    return g.map_to_index()


def total_h(g, i):
    return (g.atoms[i].explicit_h or 0) + g.implicit_h(i)


def conjugated(g, u, v):
    return bond_features(g, g.bonds.index(g.bond_between(u, v)))[4] == 1.0


class TestParse:
    def test_mapped_methanol(self):
        g = parse_smiles("[CH3:1][OH:2]")
        assert g.n_atoms == 2 and g.n_bonds == 1
        c, o = g.atoms
        assert (c.element, c.map_number, total_h(g, 0)) == ("C", 1, 3)
        assert (o.element, o.map_number, total_h(g, 1)) == ("O", 2, 1)
        assert g.bonds[0].bond_type is BondType.SINGLE

    def test_cyclopropane_all_ring(self):
        g = parse_smiles("C1CC1")
        assert g.n_atoms == 3 and g.n_bonds == 3
        assert g.in_ring == [True] * 3

    def test_two_components_aromatics_conjugation(self):
        g = parse_smiles("CC(=O)N.c1ccccc1")
        assert g.n_components == 2
        assert sum(a.aromatic for a in g.atoms) == 6
        co = g.bond_between(1, 2)
        assert co.bond_type is BondType.DOUBLE and conjugated(g, 1, 2)
        # acetyl C-C is not conjugated: the methyl end has no multiple bond
        assert not conjugated(g, 0, 1)
        assert g.implicit_h(3) == 2  # N: valence 3, one single bond

    def test_ring_closure_percent_and_bond_symbol(self):
        g = parse_smiles("C=1CCCCC=1")
        assert g.bond_between(0, 5).bond_type is BondType.DOUBLE
        g2 = parse_smiles("C%11CCC%11")
        assert g2.bond_between(0, 3) is not None

    def test_charges_and_hcounts(self):
        g = parse_smiles("[NH4+].[O-]C")
        assert g.atoms[0].formal_charge == 1 and total_h(g, 0) == 4
        assert g.atoms[1].formal_charge == -1 and total_h(g, 1) == 0

    def test_aromatic_default_bonds(self):
        g = parse_smiles("c1ccccc1")
        assert all(b.bond_type is BondType.AROMATIC for b in g.bonds)
        assert all(g.implicit_h(i) == 1 for i in range(g.n_atoms))
        biphenyl = parse_smiles("c1ccccc1-c1ccccc1")
        link = biphenyl.bond_between(5, 6) or biphenyl.bond_between(0, 6)
        assert link.bond_type is BondType.SINGLE

    def test_stereo_read_as_single(self):
        g = parse_smiles("C/C=C/C")
        assert g.bond_between(0, 1).bond_type is BondType.SINGLE
        assert g.bond_between(1, 2).bond_type is BondType.DOUBLE

    @pytest.mark.parametrize("bad,offset", [
        ("C(", 1), ("C)", 1), ("C1CC", 1), ("C=", 1), ("C..C", 2),
        ("[CH3", 0), ("C%1C", 1), ("C==C", 2),
    ])
    def test_syntax_errors_carry_offset(self, bad, offset):
        with pytest.raises(SmilesError) as err:
            parse_smiles(bad)
        assert err.value.offset == offset

    def test_bare_element_outside_organic_subset(self):
        with pytest.raises(SmilesError):
            parse_smiles("CQ")
        # bracketed unknown elements are tolerated (unknown feature bucket)
        g = parse_smiles("[Zr]")
        assert g.atoms[0].element == "Zr"

    def test_valence_violation_is_warning_not_error(self):
        g = parse_smiles("C(=O)(=O)=O")
        assert 0 in g.valence_warnings
        assert parse_smiles("CC").valence_warnings == ()

    def test_duplicate_map_numbers_detected(self):
        g = parse_smiles("[CH3:1][OH:1]")
        with pytest.raises(ValueError):
            g.map_to_index()


# Characters SMILES uses, so that random text often gets deep into the parser.
SMILES_ALPHABET = "CNOSPFIBrcnosp[]()=#$:/\\.%@+-*0123456789HZlaeg "


class TestParserProperties:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.text(SMILES_ALPHABET, max_size=30), st.text(max_size=30)))
    def test_arbitrary_text_raises_only_value_error(self, text):
        try:
            g = parse_smiles(text)
        except ValueError:
            return
        write_smiles(g)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), curated=st.booleans())
    def test_parse_write_parse_is_isomorphic(self, seed, curated):
        rng = np.random.default_rng(seed)
        mol = random_molecule(rng, n_atoms=int(rng.integers(1, 11)), allow_curated=curated)
        if mol.n_atoms > 10:
            return
        g = parse_smiles(write_smiles(mol))
        assert brute_force_isomorphic(g, mol)
        assert brute_force_isomorphic(parse_smiles(write_smiles(g)), g)


class TestWrite:
    def test_single_atom(self):
        assert write_smiles(parse_smiles("C")) == "C"

    def test_three_cycle_forced_form(self):
        g = make_graph(
            [parse_smiles("C").atoms[0] for _ in range(3)],
            [(0, 1, BondType.SINGLE), (1, 2, BondType.SINGLE), (0, 2, BondType.SINGLE)])
        assert write_smiles(g) == "C1CC1"

    def test_round_trip_preserves_graph(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            g = random_molecule(rng)
            back = parse_smiles(write_smiles(g))
            assert wl_equivalent(g, back, depth=3)
            if g.n_atoms <= 8:
                assert brute_force_isomorphic(g, back)

    def test_round_trip_keeps_maps_and_charges(self):
        g = parse_smiles("[O-][C:3](=O)c1cc[nH+]cc1")
        back = parse_smiles(write_smiles(g))
        assert sorted(a.formal_charge for a in back.atoms) == sorted(
            a.formal_charge for a in g.atoms)
        assert maps(back).keys() == maps(g).keys()

    def test_more_than_99_ring_closures_round_trip(self):
        # An 11 x 11 grid: 121 atoms, 220 bonds, 100 ring closures. SMILES
        # ring labels have at most two digits ('%100' reads as '%10', '0').
        n = 11
        atom = parse_smiles("C").atoms[0]
        g = make_graph([atom] * n * n,
                       [(i * n + j, i * n + j + 1, BondType.SINGLE)
                        for i in range(n) for j in range(n - 1)]
                       + [(i * n + j, (i + 1) * n + j, BondType.SINGLE)
                          for i in range(n - 1) for j in range(n)])
        text = write_smiles(g)
        assert "%100" not in text
        back = parse_smiles(text)
        assert (back.n_atoms, len(back.bonds)) == (121, 220)
        assert wl_fingerprint(back, 3) == wl_fingerprint(g, 3)

    def test_labels_up_to_99_are_sequential(self):
        # Below the two-digit limit every closure keeps a fresh label.
        text = write_smiles(parse_smiles(".".join(["C1CC1"] * 99)))
        assert text.startswith("C1CC1.C2CC2.") and text.endswith(".C%99CC%99")

    def test_more_than_99_open_rings_rejected(self):
        # A 202-atom chain whose atom i also bonds atom 201 - i: atoms 0-99
        # open 100 rings that close only at atoms 102-201.
        atom = parse_smiles("C").atoms[0]
        g = make_graph([atom] * 202,
                       [(i, i + 1, BondType.SINGLE) for i in range(201)]
                       + [(i, 201 - i, BondType.SINGLE) for i in range(100)])
        with pytest.raises(ValueError, match="more than 99 rings open at once"):
            write_smiles(g)

    @pytest.mark.parametrize("smiles", [
        "C" * 5000,                               # a chain deeper than the recursion limit
        "C(" * 2000 + "C" + ")C" * 2000,          # branches nested 2,000 deep
        "CC(=O)" * 1500 + "N",
    ])
    def test_deep_trees_round_trip(self, smiles):
        g = parse_smiles(smiles)
        assert write_smiles(g) == smiles
        assert parse_smiles(write_smiles(g)) == g

    def test_map_numbers_equal_the_rebuilt_graph(self):
        # with_map_numbers copies where make_graph would recompute
        rng = np.random.default_rng(5)
        graphs = [random_molecule(rng) for _ in range(40)]
        graphs += [parse_smiles(s) for s in ("[NH4+].[O-]C(=O)C", "c1ccncc1.C1CC1", "[CH3:7]CO")]
        for g in graphs:
            atoms = [replace(a, map_number=i + 1) for i, a in enumerate(g.atoms)]
            rebuilt = make_graph(atoms, [(b.u, b.v, b.bond_type) for b in g.bonds])
            assert with_map_numbers(g) == rebuilt
            assert write_smiles(with_map_numbers(g)) == write_smiles(rebuilt)
        assert all(a.map_number is None for a in graphs[0].atoms)  # input untouched


class TestFeatures:
    def test_methane_features(self):
        g = parse_smiles("[CH4:1]")
        f = atom_features(g, 0)
        assert f.shape == (ATOM_FEATURE_DIM,)
        assert f[0] == 1.0                     # element slot 0 is carbon
        element_slots = 14
        assert f[element_slots + 0] == 1.0     # degree 0
        assert f[element_slots + 6 + 4] == 1.0  # total H clamped slot 4
        assert f[-1] == 0.0                    # not aromatic

    def test_benzene_carbon(self):
        g = parse_smiles("c1ccccc1")
        f = atom_features(g, 0)
        assert f[-1] == 1.0
        assert f[14 + 2] == 1.0  # degree 2

    def test_amide_nitrogen_h_count(self):
        g = parse_smiles("CC(=O)N")
        f = atom_features(g, 3)
        assert f[1] == 1.0        # nitrogen slot
        assert f[14 + 6 + 2] == 1.0  # two hydrogens

    def test_bond_features(self):
        cc = bond_features(parse_smiles("CC"), 0)
        assert cc.tolist() == [1, 0, 0, 0, 0, 0]
        benz = parse_smiles("c1ccccc1")
        assert bond_features(benz, 0).tolist() == [0, 0, 0, 1, 1, 1]
        enone = parse_smiles("CC(=O)C=C")
        co_index = next(i for i, b in enumerate(enone.bonds)
                        if enone.atoms[b.u].element == "O" or enone.atoms[b.v].element == "O")
        f = bond_features(enone, co_index)
        assert f.tolist() == [0, 1, 0, 0, 1, 0]
        assert f.shape == (BOND_FEATURE_DIM,)


class TestApplyEdits:
    def test_substitution_with_leaving_group(self):
        g = parse_smiles("[CH3:1][Cl:2].[NH2:3][CH3:4]")
        out = apply_edits(g, [(0, 1, BondType.NONE), (0, 2, BondType.SINGLE)])
        assert out.n_components == 2
        assert out.bond_between(0, 1) is None
        assert out.bond_between(0, 2).bond_type is BondType.SINGLE
        # chlorine is left behind as its own component
        cl = next(i for i, a in enumerate(out.atoms) if a.element == "Cl")
        assert out.adjacency[cl] == []

    def test_empty_edit_set_is_identity(self):
        g = parse_smiles("CC(=O)N")
        out = apply_edits(g, [])
        assert write_smiles(out) == write_smiles(g)

    def test_ring_forming_mapped_edits(self):
        # A three-edit center: one detachment plus two new aromatic bonds
        # closing a ring through the mapped atom 27.
        reactants = parse_smiles("[cH:7]1[cH:2][cH:3][cH:4][cH:5][cH:8]1.[CH3:27][Cl:28]")
        m = maps(reactants)
        edited = apply_edits(reactants, [
            (m[27], m[28], BondType.NONE),
            (m[7], m[27], BondType.AROMATIC),
            (m[8], m[27], BondType.AROMATIC),
        ])
        em = maps(edited)
        expected_bonds = {
            (2, 3): BondType.AROMATIC, (3, 4): BondType.AROMATIC,
            (4, 5): BondType.AROMATIC, (5, 8): BondType.AROMATIC,
            (2, 7): BondType.AROMATIC, (7, 8): BondType.AROMATIC,
            (7, 27): BondType.AROMATIC, (8, 27): BondType.AROMATIC,
        }
        got = {}
        for b in edited.bonds:
            mu, mv = edited.atoms[b.u].map_number, edited.atoms[b.v].map_number
            got[(min(mu, mv), max(mu, mv))] = b.bond_type
        assert got == expected_bonds
        assert edited.adjacency[em[28]] == []

    def test_purity_and_repeatability(self):
        g = parse_smiles("CCN")
        before = write_smiles(g)
        edits = [(0, 1, BondType.DOUBLE)]
        out1 = apply_edits(g, edits)
        out2 = apply_edits(g, edits)
        assert write_smiles(g) == before
        assert write_smiles(out1) == write_smiles(out2)

    def test_disjoint_edits_commute(self):
        g = parse_smiles("CCCCCC")
        e1 = [(0, 1, BondType.DOUBLE)]
        e2 = [(3, 4, BondType.NONE)]
        a = apply_edits(apply_edits(g, e1), e2)
        b = apply_edits(g, e1 + e2)
        assert write_smiles(a) == write_smiles(b)

    def test_error_cases(self):
        g = parse_smiles("CC")
        with pytest.raises(ValueError):
            apply_edits(g, [(0, 0, BondType.SINGLE)])
        with pytest.raises(ValueError):
            apply_edits(g, [(0, 1, BondType.SINGLE)])  # same as current
        with pytest.raises(ValueError):
            apply_edits(g, [(0, 5, BondType.SINGLE)])


def recounted(g):
    """Each atom's degree, implicit H and valence warning, and each bond's
    conjugation flag, recounted from ``adjacency`` and bond types alone."""
    half_order = {BondType.SINGLE: 2, BondType.DOUBLE: 4, BondType.TRIPLE: 6,
                  BondType.AROMATIC: 3}
    degree, implicit, warnings, multiple = [], [], [], []
    for i, atom in enumerate(g.atoms):
        types = [g.bonds[bi].bond_type for _, bi in g.adjacency[i]]
        order = sum(half_order[t] for t in types) // 2
        degree.append(len(types))
        implicit.append(max(0, valence_for_h(atom.element, atom.formal_charge) - order
                            - (atom.explicit_h or 0)))
        if order > valence_limit(atom.element, atom.formal_charge):
            warnings.append(i)
        multiple.append(any(t is not BondType.SINGLE for t in types))
    conjugated = [b.bond_type is BondType.AROMATIC or (multiple[b.u] and multiple[b.v])
                  for b in g.bonds]
    return degree, implicit, tuple(warnings), conjugated


def assert_derived_fields_recount(g):
    degree = [row[_DEGREE] for row in g.counts]
    implicit = [g.implicit_h(i) for i in range(g.n_atoms)]
    conjugated = [bond_features(g, bi)[4] == 1.0 for bi in range(g.n_bonds)]
    assert (degree, implicit, g.valence_warnings, conjugated) == recounted(g)
    # The codes the models read carry the same conjugation flags.
    assert [bool(code // 4 % 2) for code in g.codes.bonds[:, 3]] == conjugated


def test_derived_fields_recount_on_molecules_and_fragments():
    rng = np.random.default_rng(17)
    graphs = [random_molecule(rng, allow_curated=bool(i % 2)) for i in range(200)]
    graphs += [parse_smiles(s) for s in FRAGMENTS + ("[O-][N+](=O)c1ccccc1", "[SiH4]", "[Xe]",
                                                     "C#CC=C", "FS(F)(F)(F)(F)(F)F")]
    for g in graphs:
        assert_derived_fields_recount(g)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edited_reactants())
def test_derived_fields_recount_on_edited_products(instance):
    g, edits = instance
    assert_derived_fields_recount(g)
    assert_derived_fields_recount(apply_edits(g, edits))


class TestDerivedInvariants:
    def test_implicit_h_formula(self):
        from rxnpred.chemgraph import valence_for_h
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_molecule(rng)
            for i, atom in enumerate(g.atoms):
                half = sum(g.bonds[bi].bond_type.half_order for _, bi in g.adjacency[i])
                expect = max(0, valence_for_h(atom.element, atom.formal_charge)
                             - half // 2 - (atom.explicit_h or 0))
                assert g.implicit_h(i) == expect

    def test_ring_flags_invariant_under_relabeling(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_molecule(rng)
            perm = random_permutation(rng, g.n_atoms)
            pg = permute_graph(g, perm)
            ring_pairs = {(min(perm[b.u], perm[b.v]), max(perm[b.u], perm[b.v]))
                          for b, ring in zip(g.bonds, g.in_ring) if ring}
            ring_pairs_p = {(b.u, b.v) for b, ring in zip(pg.bonds, pg.in_ring) if ring}
            assert ring_pairs == ring_pairs_p

    def test_adjacency_round_trip(self):
        g = parse_smiles("CC(C)C(=O)OC")
        for i, adj in enumerate(g.adjacency):
            for nbr, bi in adj:
                bond = g.bonds[bi]
                assert {bond.u, bond.v} == {i, nbr}

    def test_induced_subgraph(self):
        g = parse_smiles("CC(=O)N.c1ccccc1")
        ring = [i for i in range(g.n_atoms) if g.atoms[i].aromatic]
        sub = induced_subgraph(g, ring)
        assert sub.n_atoms == 6 and sub.n_bonds == 6
        assert sub.in_ring == [True] * 6


def scanned_bond(g, u, v):
    """The bond between u and v found by a scan of ``adjacency``."""
    for nbr, bi in g.adjacency[u]:
        if nbr == v:
            return g.bonds[bi]
    return None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(edited_reactants())
def test_bond_lookups_equal_an_adjacency_scan(instance):
    g, edits = instance
    for graph in (g, apply_edits(g, edits)):
        for u in range(graph.n_atoms):
            for v in range(graph.n_atoms):
                bond = scanned_bond(graph, u, v)
                assert graph.bond_between(u, v) == bond
                assert graph.bond_type_between(u, v) is (
                    BondType.NONE if bond is None else bond.bond_type)


def snapshot(g):
    """Everything a graph says of its atoms and bonds, as plain values:
    parsed atom facts, bonds, atom counts, and feature rows (which carry
    degrees, hydrogen counts, ring and conjugation flags)."""
    return ([(a.element, a.map_number, a.formal_charge, a.aromatic, a.explicit_h)
             for a in g.atoms],
            [(b.u, b.v, b.bond_type) for b in g.bonds],
            [list(row) for row in g.counts],
            [atom_features(g, i).tolist() for i in range(g.n_atoms)],
            [bond_features(g, bi).tolist() for bi in range(g.n_bonds)])


def test_merge_graphs_is_the_disjoint_union_in_order():
    parts = [parse_smiles(s) for s in ("CC(=O)O", "c1ccncc1", "[NH4+]", "C1CC1.N")]
    before = [snapshot(g) for g in parts]
    merged = merge_graphs(parts)
    offsets = [0, 4, 10, 11]
    assert merged.atoms == [a for g in parts for a in g.atoms]
    assert merged.bonds == [(b.u + off, b.v + off, b.bond_type)
                            for g, off in zip(parts, offsets) for b in g.bonds]
    assert merged.component == [0] * 4 + [1] * 6 + [2] + [3] * 3 + [4]
    # atoms, counts and atom and bond feature rows are each part's, in order
    for column in (0, 2, 3, 4):
        assert snapshot(merged)[column] == sum((snap[column] for snap in before), [])
    assert [snapshot(g) for g in parts] == before
    assert merge_graphs([]).n_atoms == 0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(edited_reactants())
def test_graph_builders_leave_their_input_unchanged(instance):
    g, edits = instance
    before = snapshot(g)
    product = apply_edits(g, edits)
    rebuilt = make_graph(g.atoms, [(b.u, b.v, b.bond_type) for b in g.bonds])
    sub = induced_subgraph(g, list(range(0, g.n_atoms, 2)))
    mapped = with_map_numbers(g)
    local = Candidate(edits, g).local_product
    assert snapshot(g) == before
    assert snapshot(rebuilt) == before
    # The built graphs are whole on their own: rebuilding each from its
    # atoms and bonds gives the same facts.
    for built in (product, sub, mapped, local):
        again = make_graph(built.atoms, [(b.u, b.v, b.bond_type) for b in built.bonds])
        assert snapshot(again) == snapshot(built)
