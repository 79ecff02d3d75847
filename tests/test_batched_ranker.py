"""Property tests: batched, component-local candidate scores equal the
full-graph per-candidate reference bitwise, and their loss gradients match."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rxnpred import datagen
from rxnpred import diffengine as de
from rxnpred import ranker, selfcheck
from rxnpred.candgen import Candidate, EditSet, enumerate_candidates
from rxnpred.chemgraph import BondType, merge_graphs
from rxnpred.datagen import random_molecule
from rxnpred.pipeline import RunConfig, _build_instances, parse_reaction_line, train_ranker
from rxnpred.ranker import MAX_UNION_CANDIDATES, RankerModel, rank_candidates
from rxnpred.selfcheck import batched_ranker_suite, permute_graph

VARIANTS = ("wln", "wldn")


@st.composite
def instances(draw):
    """Reactants with spectator components and a candidate list holding an
    empty edit, a component-splitting bond deletion and enumerated edits,
    possibly repeated past one union pass, under a random atom permutation."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    core = random_molecule(rng, n_atoms=draw(st.integers(3, 9)), allow_curated=False)
    spectators = [random_molecule(rng) for _ in range(draw(st.integers(0, 3)))]
    g = merge_graphs([core] + spectators)
    n = g.n_atoms
    all_pairs = [(u, v) for u in range(core.n_atoms) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=4, unique=True))
    bridges = [b for b, ring in zip(g.bonds, g.in_ring) if not ring]
    assume(bridges)
    bridge = bridges[0]
    edit_sets = [EditSet.of([]), EditSet.of([(bridge.u, bridge.v, BondType.NONE)])]
    result = enumerate_candidates(g, picks, 2, max_candidates=40)
    edit_sets += [c.edits for c in result.candidates]
    edit_sets *= draw(st.sampled_from([1, 1, MAX_UNION_CANDIDATES // 2 + 1]))
    perm = [int(i) for i in draw(st.permutations(range(n)))]
    pg = permute_graph(g, perm)
    cands = [Candidate(EditSet.of([(perm[e.u], perm[e.v], e.bond_type) for e in es]), pg)
             for es in edit_sets]
    model_args = dict(hidden=draw(st.integers(2, 8)), depth=draw(st.integers(1, 3)),
                      seed=draw(st.integers(0, 1000)))
    return pg, cands, model_args


def bits(values):
    return np.ascontiguousarray(values).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(instances())
def test_batched_scores_equal_full_graph_reference(instance):
    g, cands, model_args = instance
    split = cands[1].product
    assert split.n_components == g.n_components + 1
    for variant in VARIANTS:
        model = RankerModel.create(variant, **model_args)
        reference = np.array([selfcheck.reference_score(model, g, c).item() for c in cands])
        batched = model.score_reactions([(g, cands)]).values[:, 0]
        assert bits(batched) == bits(reference)
        assert model.score_reactions([(g, cands[:1])]).item() == 0.0
        with de.no_grad():
            assert bits(model.score_reactions([(g, cands)]).values[:, 0]) == bits(reference)


def gradients(model, loss):
    """Each parameter's gradient, and the largest absolute entry of any one
    contribution that an op accumulated into it."""
    names = {id(t): name for name, t in model.store.params.items()}
    largest = dict.fromkeys(names.values(), 0.0)
    accumulate = de.DTensor.accumulate

    def tracked(tensor, g):
        if id(tensor) in names:
            name = names[id(tensor)]
            largest[name] = max(largest[name], float(np.abs(g).max(initial=0.0)))
        accumulate(tensor, g)

    model.store.zero_grads()
    with mock.patch.object(de.DTensor, "accumulate", tracked):
        de.backward(loss)
    return {name: model.store[name].grad for name in model.store.names()}, largest


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(instances(), st.integers(0, 10 ** 6))
def test_batched_loss_gradients_match_per_candidate(instance, pick):
    g, cands, model_args = instance
    target = pick % len(cands)
    for variant in VARIANTS:
        model = RankerModel.create(variant, **model_args)
        batched, largest_b = gradients(
            model, de.softmax_logloss(model.score_reactions([(g, cands)]), [(target, len(cands))]))
        reference, largest_r = gradients(model, de.softmax_logloss(
            de.stack_rows([selfcheck.reference_score(model, g, c) for c in cands]),
            [(target, len(cands))]))
        # The two routes add the same terms in different orders, so they
        # agree only up to rounding. A gradient entry sums, per embedded
        # graph, one term per atom or directed edge per round. The reference
        # embeds reactants and product for every candidate; a product has at
        # most max_changes = 2 more bonds. So it has at most
        #   terms = 2 * candidates * depth * (atoms + 2 * (bonds + 2))
        # terms, and the batched route fewer. Summing n terms in another
        # order moves the result by about n * eps * the largest addend, where
        # the largest addend is the largest contribution one op accumulates
        # into the gradient. That can be far above the gradient itself: a
        # spectator's product and reactant contributions cancel exactly in
        # real arithmetic, but each is rounded on its own.
        terms = 2 * len(cands) * model_args["depth"] * (g.n_atoms + 2 * (len(g.bonds) + 2))
        for name, ref in reference.items():
            got = batched[name]
            assert (got is None) == (ref is None), name
            if ref is not None:
                largest = max(largest_b[name], largest_r[name])
                bound = terms * np.finfo(float).eps * largest
                assert np.abs(got - ref).max() <= bound, name


def test_rank_candidates_keeps_no_graph_and_matches_training_scores():
    g = merge_graphs([random_molecule(np.random.default_rng(s), n_atoms=6, allow_curated=False)
               for s in (1, 2)])
    pairs = [(b.u, b.v) for b in g.bonds][:4]
    cands = enumerate_candidates(g, pairs, 2).candidates
    model = RankerModel.create("wldn", hidden=6, depth=2, seed=3)
    expected = model.score_reactions([(g, cands)]).values[:, 0]
    ranked = rank_candidates(g, cands, model)
    assert bits([c.score for c in cands]) == bits(expected)
    assert [c.score for c in ranked] == sorted(expected, reverse=True)
    with de.no_grad():
        scores = model.score_reactions([(g, cands)])
    assert not scores._parents and scores._bwd is None


def test_reactions_score_as_each_reaction_alone():
    # candidate unions that mix reactions, over more than one union pass
    lines = datagen.reagent_fixture_lines(4, seed=6) + datagen.toy_reaction_lines(24, seed=6)
    instances = _build_instances([parse_reaction_line(line) for line in lines], None,
                                 RunConfig(augment_truth=True))
    assert sum(len(inst.candidates) for inst in instances) > MAX_UNION_CANDIDATES
    for variant in VARIANTS:
        model = RankerModel.create(variant, hidden=5, depth=2, seed=1)
        with de.no_grad():
            together = model.score_reactions([(inst.record.reactants, inst.candidates)
                                              for inst in instances])
        alone = [model.score_reactions([(inst.record.reactants, inst.candidates)]).values
                 for inst in instances]
        assert bits(together.values) == bits(np.concatenate(alone))


def test_selfcheck_batched_suite_passes():
    result = batched_ranker_suite(seed=2)
    assert result.passed, result.detail


score_reactions = RankerModel.score_reactions


def full_reactant_scores(model, reactions):
    """:meth:`RankerModel.score_reactions` with every reactant atom
    embedded, unread components included: the same one-union route over
    another read set."""
    reads = iter([list(range(g.n_atoms)) for g, _ in reactions])
    with mock.patch.object(ranker, "read_atoms", lambda _: next(reads)):
        return score_reactions(model, reactions)


@st.composite
def component_lists(draw):
    """Reactants of 3 to 5 components, the last never edited, and candidate
    lists that read different components: each edited component's
    candidates alone, a bond made across two components, all of them mixed
    with the empty edit, and the empty edit alone."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = [random_molecule(rng, n_atoms=int(rng.integers(2, 7)), allow_curated=False)
             for _ in range(draw(st.integers(3, 5)))]
    g = merge_graphs(parts)
    ends = np.cumsum([p.n_atoms for p in parts])
    edited = [enumerate_candidates(g, [(u, v) for u in range(end - p.n_atoms, end)
                                      for v in range(u + 1, end)][:6],
                                   1, max_candidates=6).candidates
              for p, end in zip(parts[:-1], ends[:-1])]
    across = enumerate_candidates(g, [(0, int(ends[0]))], 1).candidates
    empty = Candidate(EditSet.of([]), g)
    lists = [c for c in edited if c] + [across, [empty] + [c for cs in edited for c in cs] + across,
                                        [empty]]
    model_args = dict(hidden=draw(st.integers(2, 8)), depth=draw(st.integers(1, 3)),
                      seed=draw(st.integers(0, 1000)))
    return g, [cands for cands in lists if cands], model_args


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(component_lists())
def test_unread_components_change_no_score_or_gradient(instance):
    g, lists, model_args = instance
    for variant in VARIANTS:
        model = RankerModel.create(variant, **model_args)
        for cands in lists:
            read = {a for c in cands for a in c.delta.atoms}
            assert len(read) < g.n_atoms
            reference = np.array([selfcheck.reference_score(model, g, c).item() for c in cands])
            batched = model.score_reactions([(g, cands)])
            assert bits(batched.values[:, 0]) == bits(reference)
            full = full_reactant_scores(model, [(g, cands)])
            assert bits(full.values) == bits(batched.values)
            last = [(len(cands) - 1, len(cands))]
            got, _ = gradients(model, de.softmax_logloss(batched, last))
            want, _ = gradients(model, de.softmax_logloss(full, last))
            for name in want:
                assert (got[name] is None) == (want[name] is None), name
                if want[name] is not None:
                    assert bits(got[name]) == bits(want[name]), name


def test_training_with_unread_reagents_matches_full_reactant_route(tmp_path):
    data = tmp_path / "reagents.txt"
    datagen.write_lines(data, datagen.reagent_fixture_lines(4, seed=4))
    embed = ranker.embed_from_features

    def run(name):
        embedded = []

        def counted(gi, x, p):
            embedded.append(gi.n_atoms)
            return embed(gi, x, p)

        out = tmp_path / f"{name}.ckpt"
        with mock.patch.object(ranker, "embed_from_features", counted):
            result = train_ranker(RunConfig(data=str(data), out=str(out), variant="wldn",
                                            hidden=6, depth=2, epochs=3, split=(1.0, 0.0, 0.0),
                                            seed=2, augment_truth=True))
        return out.read_bytes(), result.history, sum(embedded)

    ckpt, history, atoms = run("read-components")
    with mock.patch.object(RankerModel, "score_reactions", full_reactant_scores):
        full_ckpt, full_history, full_atoms = run("full-reactants")
    assert atoms < full_atoms
    assert ckpt == full_ckpt
    assert history == full_history
