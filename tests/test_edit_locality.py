"""Property tests: edit-local products equal the edited components of the
full product, their edit deltas equal the graph route, inverse edits
restore the reactants, and product matching from the deltas equals the
full-product route."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnpred import datagen, pipeline
from rxnpred.candgen import Candidate, EditSet, enumerate_candidates
from rxnpred.center import CenterModel
from rxnpred.chemgraph import (BOND_FEATURE_DIM, BondType, apply_edits, atom_feature_matrix,
                               bond_features, edit_delta, induced_subgraph, make_graph,
                               merge_graphs, parse_smiles, write_smiles)
from rxnpred.datagen import random_molecule
from rxnpred.pipeline import RunConfig, _ProductMatcher, evaluate, parse_reaction_line
from rxnpred.ranker import RankerModel
from rxnpred.selfcheck import (graph_delta_mismatches, inputs_bytes, local_product_oracle,
                               per_atom_inputs, permute_graph)
from rxnpred.wliso import brute_force_isomorphic, wl_equivalent
from rxnpred.wln import delta_inputs, graph_inputs, join_inputs, union_inputs

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
    g = merge_graphs(parts)
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
    assert cand.delta.atoms == expected_atoms
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
    assert cand.delta.atoms == [] and cand.local_product.n_atoms == 0
    assert delta_inputs([cand.delta]).n_atoms == 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(delta_passes())
def test_delta_inputs_equal_union_inputs_over_local_products(parts):
    # A pass's inputs from the reactants' codes and the edits are bitwise
    # those of the edit-local product graphs, also joined after reactant
    # inputs as the ranker's first pass is; the delta's local atoms and
    # component ids are the oracle's.
    oracle = [local_product_oracle(g, edits) for g, edits in parts]
    deltas = [Candidate(edits, g).delta for g, edits in parts]
    products = [(local, range(local.n_atoms)) for local, _ in oracle]
    assert inputs_bytes(delta_inputs(deltas)) == inputs_bytes(union_inputs(products))
    reactants = [(g, range(g.n_atoms)) for g, _ in parts]
    joined = join_inputs(union_inputs(reactants), delta_inputs(deltas))
    assert inputs_bytes(joined) == inputs_bytes(union_inputs(reactants + products))
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


def full_product_route(rec, cand):
    """The matching oracle: build the full product with ``apply_edits`` and
    compare its molecules that hold a mapped atom with the recorded product."""
    if cand.edits == rec.true_edits:
        return True
    product = apply_edits(rec.reactants, cand.edits)
    return wl_equivalent(mapped_molecules(rec, product), rec.product, depth=3)


def mapped_molecules(rec, product):
    """The components of ``product`` (over the record's reactant atoms) that
    hold an atom of the recorded product."""
    p_maps = {a.map_number for a in rec.product.atoms}
    comps = {product.component[i] for i, a in enumerate(rec.reactants.atoms)
             if a.map_number in p_maps}
    return induced_subgraph(product, [i for i, c in enumerate(product.component) if c in comps])


class OracleMatcher:
    """:class:`pipeline._ProductMatcher`'s interface over the full route."""

    def __init__(self, rec):
        self.rec = rec

    def __call__(self, cand):
        return full_product_route(self.rec, cand)


def spectator_lines(n, seed):
    """Toy reactions with up to three unmapped spectator molecules in the
    reagent field. Spectators with valence warnings are skipped: a
    pre-existing violation makes the enumerator reject every candidate."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        reactants, _, product = datagen.random_reaction_line(rng).split(">")
        mols = [random_molecule(rng) for _ in range(3)]
        spectators = ".".join(write_smiles(m) for m in mols if not m.valence_warnings)
        lines.append(f"{reactants}>{spectators}>{product}")
    return lines


SPECTATOR_LINES = spectator_lines(12, seed=2)
MATCH_LINES = (datagen.toy_reaction_lines(30, seed=3) + datagen.reagent_fixture_lines(4, seed=1)
               + datagen.higher_order_fixture_lines(4, seed=1) + SPECTATOR_LINES)


def test_product_matches_equals_full_product_route():
    # The matcher reads the candidate's edit delta and never builds the full
    # product; its verdicts must equal the full route's, over candidates
    # near the truth and over random pairs, which also edit spectators.
    assert all(line.split(">")[1] for line in SPECTATOR_LINES)
    rng = np.random.default_rng(5)
    matches = 0
    for line in MATCH_LINES:
        rec = parse_reaction_line(line)
        g = rec.reactants
        near = sorted(set(rec.true_edits.pairs) | {
            (min(a, b), max(a, b)) for a in rec.true_edits.atoms() for b in g.neighbors(a)})
        far = [tuple(sorted(int(a) for a in rng.choice(g.n_atoms, 2, replace=False)))
               for _ in range(4)]
        matcher = _ProductMatcher(rec)
        for pairs in (near[:6], far + near[:2]):
            for cand in enumerate_candidates(g, pairs, 3):
                fast = matcher(cand)
                assert fast == full_product_route(rec, Candidate(cand.edits, g))
                matches += fast
    assert matches > len(MATCH_LINES) // 2


def test_whole_graph_builders_change_no_record_or_verdict(monkeypatch, tmp_path):
    # Parsing and the matcher's WL step get their input back from
    # induced_subgraph over all atoms and merge_graphs of one graph; records
    # and verdicts equal those of builders that always build a new graph.
    path = tmp_path / "match.txt"
    datagen.write_lines(path, MATCH_LINES)

    def facts(g):
        return (g.atoms, g.bonds, g.counts, g.in_ring, g.component)

    def run():
        out = []
        for rec in pipeline.load_dataset(path):
            near = sorted({(min(a, b), max(a, b)) for a in rec.true_edits.atoms()
                           for b in rec.reactants.neighbors(a)})
            matcher = _ProductMatcher(rec)
            out.append((facts(rec.reactants), facts(rec.product), rec.true_edits,
                        [matcher(c) for c in enumerate_candidates(rec.reactants, near[:6], 3)]))
        return out

    def rebuilding(build):
        def rebuilt(*args):
            built.append(build.__name__)
            g = build(*args)
            return make_graph(g.atoms, [(b.u, b.v, b.bond_type) for b in g.bonds])
        return rebuilt

    shared = run()
    built = []
    for name in ("induced_subgraph", "merge_graphs"):
        monkeypatch.setattr(pipeline, name, rebuilding(getattr(pipeline, name)))
    assert run() == shared
    assert built.count("merge_graphs") > 0 and built.count("induced_subgraph") > len(MATCH_LINES)


@pytest.mark.parametrize("augment", [False, True])
def test_evaluate_report_equals_the_full_product_route(monkeypatch, augment):
    records = [parse_reaction_line(line) for line in MATCH_LINES]
    center = CenterModel.create("local", hidden=8, depth=2, seed=1)
    ranker = RankerModel.create("wldn", hidden=8, depth=2, seed=2)
    cfg = RunConfig(k=6, augment_truth=augment)
    fast = evaluate(records, center, ranker, cfg)
    monkeypatch.setattr(pipeline, "_ProductMatcher", OracleMatcher)
    full = evaluate(records, center, ranker, cfg)
    assert fast.lines(include_timing=False) == full.lines(include_timing=False)
    assert fast.mrr > 0


def test_wl_equivalence_implies_equal_bond_types():
    # The matcher's bond-type test is sound: equal fingerprints hold equal
    # edge-triple multisets, so equal bond-type multisets.
    rng = np.random.default_rng(13)
    mols = [random_molecule(rng) for _ in range(120)]
    mols += [permute_graph(g, [int(i) for i in rng.permutation(g.n_atoms)]) for g in mols[:20]]
    equivalent = 0
    for i, a in enumerate(mols):
        for b in mols[i + 1:]:
            if wl_equivalent(a, b, 3):
                equivalent += 1
                assert sorted(x.bond_type.value for x in a.bonds) == sorted(
                    x.bond_type.value for x in b.bonds)
    assert equivalent >= 20


def test_matcher_keeps_the_wl_false_match():
    # Cyclodecane closed across 0-5 is decalin; closed across 0-4 and 5-9
    # with 4-5 broken it is bicyclopentyl. 1-WL cannot tell them apart, and
    # the matcher keeps that verdict (bond types and sizes agree too).
    rec = parse_reaction_line(
        "[CH2:1]1[CH2:2][CH2:3][CH2:4][CH2:5][CH2:6][CH2:7][CH2:8][CH2:9][CH2:10]1>>"
        "[CH2:2]1[CH2:3][CH2:4][CH2:5][CH:6]2[CH2:7][CH2:8][CH2:9][CH2:10][CH:1]12")
    assert rec.true_edits == EditSet.of([(0, 5, BondType.SINGLE)])
    cand = Candidate(EditSet.of([(0, 4, BondType.SINGLE), (5, 9, BondType.SINGLE),
                                 (4, 5, BondType.NONE)]), rec.reactants)
    candidate_product = mapped_molecules(rec, cand.product)
    assert write_smiles(candidate_product).count("1") == 4  # two rings, one bond apart
    assert not brute_force_isomorphic(candidate_product, rec.product)
    assert wl_equivalent(candidate_product, rec.product, 3)
    assert _ProductMatcher(rec)(cand) is True


def test_matcher_reads_untouched_components():
    # The truth opens the three-ring and joins the chain into a six-ring.
    # The candidate closes the chain into a second three-ring and leaves the
    # first untouched: two three-rings, which 1-WL cannot tell from a
    # six-ring, so the match needs the untouched component's atoms and bonds.
    rec = parse_reaction_line("[CH2:1]1[CH2:2][CH2:3]1.[CH2:4][CH2:5][CH2:6]>>"
                              "[CH2:1]1[CH2:2][CH2:3][CH2:4][CH2:5][CH2:6]1")
    cand = Candidate(EditSet.of([(3, 5, BondType.SINGLE)]), rec.reactants)
    assert cand.delta.atoms == [3, 4, 5]
    assert full_product_route(rec, cand) is True
    assert _ProductMatcher(rec)(cand) is True


def test_evaluate_skips_wl_for_size_equal_candidates_of_other_bond_types(monkeypatch):
    # Every candidate evaluate examines up to its first match that is not
    # the truth but has the product's atom count would reach WL on a
    # size test alone; the bond-type test must send fewer of them there.
    records = [parse_reaction_line(line) for line in MATCH_LINES]
    by_reactants = {id(rec.reactants): rec for rec in records}
    ranked_lists = []
    rank = pipeline.rank_candidates

    def capture(reactants, candidates, model):
        ranked = rank(reactants, candidates, model)
        ranked_lists.append((by_reactants[id(reactants)], ranked))
        return ranked

    calls = []
    wl = pipeline.wl_equivalent

    def counted(*args, **kwargs):
        calls.append(1)
        return wl(*args, **kwargs)

    monkeypatch.setattr(pipeline, "rank_candidates", capture)
    monkeypatch.setattr(pipeline, "wl_equivalent", counted)
    center = CenterModel.create("local", hidden=8, depth=2, seed=1)
    ranker = RankerModel.create("wldn", hidden=8, depth=2, seed=2)
    evaluate(records, center, ranker, RunConfig(k=6))
    size_equal = 0
    for rec, ranked in ranked_lists:
        for cand in ranked:
            if cand.edits == rec.true_edits:
                break
            size_equal += mapped_molecules(rec, cand.product).n_atoms == rec.product.n_atoms
            if full_product_route(rec, cand):
                break
    assert size_equal >= 50
    assert len(calls) < size_equal / 2
