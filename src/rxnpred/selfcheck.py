"""Independent oracles and a self-check suite runnable from the CLI.

The oracles here deliberately re-derive results through a different route
than the library code: naive per-atom loops instead of vectorized embeddings,
generate-then-filter enumeration instead of pruned enumeration, and exhaustive
backtracking instead of fingerprints. The ``selfcheck`` CLI subcommand runs
every suite and reports one pass/fail line each.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import center
from . import diffengine as de
from .candgen import (BOND_ALPHABET, BondEdit, Candidate, EditSet, connectivity_ok,
                      enumerate_candidates)
from .center import PAIR_BLOCK, CenterModel, center_loss, upper_pairs
from .chemgraph import (ATOM_FEATURE_DIM, BOND_FEATURE_DIM, BondType, MolGraph, apply_edits,
                        atom_feature_matrix, atom_features, bond_features, delta_union_arrays,
                        edit_delta, induced_subgraph, make_graph, parse_smiles, write_smiles)
from .datagen import (higher_order_fixture_lines, random_molecule, random_reaction_line,
                      reagent_fixture_lines, toy_reaction_lines)
from .pipeline import (_candidate_stage, _center_loss, _RankingInstance, _ranker_loss,
                       parse_reaction_line)
from .ranker import RankerModel, read_atoms
from .wliso import brute_force_isomorphic, wl_equivalent
from .wln import (GraphInputs, WLNParams, embed_atoms, embed_from_features, graph_inputs,
                  inputs)

__all__ = ["CheckResult", "batched_ranker_suite", "blas_rows_suite", "brute_force_enumerate",
           "brute_force_ordered", "center_gradient_error", "center_inference_suite",
           "comparison_form_suite", "composed_center_head", "composed_head",
           "difference_vectors", "enumeration_instance", "enumeration_suite", "gradient_suite",
           "graph_delta_mismatches", "graph_delta_suite", "inputs_bytes", "local_product_oracle",
           "naive_atom_vectors", "per_atom_inputs", "permute_graph", "reference_score",
           "run_selfcheck", "score_sumpool", "wl_soundness_suite"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# Naive embedding oracle (reference-tensor comparison form)
# ---------------------------------------------------------------------------

def naive_atom_vectors(g: MolGraph, p: WLNParams) -> np.ndarray:
    """Per-atom vectors computed with plain per-atom loops.

    The final comparison is evaluated in its reference-tensor form: slot ``k``
    of an atom's vector is the inner product of the rank-1 reference tensor
    built from the k-th columns of the three comparison matrices with the
    rank-1 edge tensor (h_u, f_uv, h_v), summed over neighbors.
    """
    if p.variant != "concat":
        raise ValueError("oracle covers the concat message form")
    feats = atom_feature_matrix(g)
    h = [feats[i] @ p.w_in.values for i in range(g.n_atoms)]
    v = p.v.values
    u1, u2 = p.u1.values, p.u2.values
    for _ in range(p.depth):
        nxt = []
        for i in range(g.n_atoms):
            neigh = np.zeros(p.hidden)
            for nbr, bi in g.adjacency[i]:
                edge_in = np.concatenate([h[nbr], bond_features(g, bi)])
                neigh += np.maximum(edge_in @ v, 0.0)
            nxt.append(np.maximum(h[i] @ u1 + neigh @ u2, 0.0))
        h = nxt
    w0, w1, w2 = p.w0.values, p.w1.values, p.w2.values
    out = np.zeros((g.n_atoms, p.hidden))
    for i in range(g.n_atoms):
        for nbr, bi in g.adjacency[i]:
            f_uv = bond_features(g, bi)
            for k in range(p.hidden):
                out[i, k] += (np.dot(w0[:, k], h[nbr])
                              * np.dot(w1[:, k], f_uv)
                              * np.dot(w2[:, k], h[i]))
    return out


# ---------------------------------------------------------------------------
# Brute-force candidate enumeration oracle
# ---------------------------------------------------------------------------

def brute_force_enumerate(reactants: MolGraph, pairs: list[tuple[int, int]],
                          max_changes: int) -> set[EditSet]:
    """Generate every assignment of changed bond types, then filter.

    Every nonempty set of at most ``max_changes`` pair positions takes every
    combination of bond types other than the current ones, which is every
    full assignment over the pairs with at most ``max_changes`` changes.
    Edit sets are kept when their pairs are distinct, connected and
    aromatic-legal, and the edited graph respects valences.
    """
    norm = [(min(u, v), max(u, v)) for u, v in pairs]
    out: set[EditSet] = set()
    for size in range(1, min(max_changes, len(norm)) + 1):
        for positions in itertools.combinations(norm, size):
            changed = [[BondEdit(u, v, bt) for bt in BOND_ALPHABET
                        if bt is not reactants.bond_type_between(u, v)]
                       for u, v in positions]
            for edits in itertools.product(*changed):
                if len({(e.u, e.v) for e in edits}) < len(edits):
                    continue
                if any(e.bond_type is BondType.AROMATIC
                       and not (reactants.atoms[e.u].aromatic and reactants.atoms[e.v].aromatic)
                       for e in edits):
                    continue
                if len(edits) > 1 and not connectivity_ok(edits):
                    continue
                edit_set = EditSet.of(edits)
                if edit_set not in out and not apply_edits(reactants, edit_set).valence_warnings:
                    out.add(edit_set)
    return out


def brute_force_ordered(reactants: MolGraph, pairs: list[tuple[int, int]], max_changes: int,
                        max_candidates: int) -> tuple[list[EditSet], bool]:
    """:func:`brute_force_enumerate` in the documented output order of
    :func:`~rxnpred.candgen.enumerate_candidates`, cut at ``max_candidates``,
    and whether the cut dropped any.

    The order is by size, then by the positions in ``pairs`` where the edit
    set's pairs first occur (ascending), then by each pair's new bond type
    in alphabet order, taken in that position order.
    """
    first: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(pairs):
        first.setdefault((min(u, v), max(u, v)), i)

    def key(edit_set: EditSet) -> tuple:
        at = sorted((first[(e.u, e.v)], BOND_ALPHABET.index(e.bond_type)) for e in edit_set)
        return len(at), [pos for pos, _ in at], [bt for _, bt in at]

    ordered = sorted(brute_force_enumerate(reactants, pairs, max_changes), key=key)
    return ordered[:max_candidates], len(ordered) > max_candidates


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def wl_soundness_suite(seed: int = 11) -> CheckResult:
    """Brute-force isomorphism implies WL equivalence (depth 3); WL separates
    almost every non-isomorphic pair of 30 molecules of at most 7 atoms."""
    rng = np.random.default_rng(seed)
    mols = []
    while len(mols) < 30:
        g = random_molecule(rng, n_atoms=int(rng.integers(2, 8)),
                            allow_curated=len(mols) % 3 == 0)
        if g.n_atoms <= 7:
            mols.append(g)
    start = time.perf_counter()
    unsound = 0
    non_iso = 0
    undistinguished = 0
    for i in range(len(mols)):
        for j in range(i + 1, len(mols)):
            iso = brute_force_isomorphic(mols[i], mols[j])
            wl = wl_equivalent(mols[i], mols[j], 3)
            if iso and not wl:
                unsound += 1
            if not iso:
                non_iso += 1
                if wl:
                    undistinguished += 1
    elapsed = time.perf_counter() - start
    separated = 1.0 - (undistinguished / non_iso if non_iso else 0.0)
    passed = unsound == 0 and separated >= 0.99 and elapsed < 10.0
    return CheckResult(
        "wl-soundness", passed,
        f"unsound={unsound} separated={separated:.4f} over {non_iso} "
        f"non-isomorphic pairs in {elapsed:.2f}s")


def _small_instance(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        line = random_reaction_line(rng)
        try:
            rec = parse_reaction_line(line)
        except ValueError:
            continue
        if rec.reactants.n_atoms <= 10:
            return rec


def _ranking_instance(seed: int):
    """A small record whose enumerated candidate pool (at least 3) is big
    enough that the ranking loss actually depends on the scores."""
    for attempt in range(50):
        rec = _small_instance(seed + 101 * attempt)
        cands, _, true_idx = _candidate_stage(
            rec.reactants, list(rec.true_edits.pairs), 2, rec.true_edits, augment=True)
        if len(cands) >= 3:
            return _RankingInstance(rec, cands, true_idx)
    raise RuntimeError("no suitable ranking instance found")


def gradient_suite(seed: int = 5) -> list[CheckResult]:
    """Finite-difference checks (step 1e-5, relative error below 1e-4) of
    all four training losses, each over a minibatch of two items, at
    hidden 8."""
    records = [_small_instance(seed), _small_instance(seed + 1)]
    out = []

    for variant in CenterModel.VARIANTS:
        model = CenterModel.create(variant, hidden=8, depth=2, seed=seed)
        err = de.grad_check(lambda _store, model=model: _center_loss(model, records),
                            model.store, h=1e-5, rng=np.random.default_rng(seed + 1))
        out.append(CheckResult(f"grad-center-{variant}", err < 1e-4,
                               f"max rel err {err:.2e}"))

    instances = [_ranking_instance(seed), _ranking_instance(seed + 1)]

    for variant in RankerModel.VARIANTS:
        model = RankerModel.create(variant, hidden=8, depth=2, seed=seed)
        err = de.grad_check(lambda _store, model=model: _ranker_loss(model, instances),
                            model.store, h=1e-5, rng=np.random.default_rng(seed + 2))
        out.append(CheckResult(f"grad-ranker-{variant}", err < 1e-4,
                               f"max rel err {err:.2e}"))
    return out


def difference_vectors(reactants: MolGraph, candidate: Candidate, wln: WLNParams) -> de.DTensor:
    """Per-atom difference vectors (candidate minus reactant embedding).

    Candidate product graphs keep the reactant atom indexing, so the
    subtraction is row-aligned. Atoms whose neighborhood the edits never
    touch come out exactly zero.
    """
    gi_r = graph_inputs(reactants)
    c_r = embed_from_features(gi_r, gi_r.features, wln)
    gi_p = graph_inputs(candidate.product)
    return de.sub(embed_from_features(gi_p, gi_p.features, wln), c_r)


def score_sumpool(d: de.DTensor, m: de.DTensor, u: de.DTensor) -> de.DTensor:
    """Head ``u' relu(M sum_v d_v)`` over per-atom difference vectors."""
    return de.matmul(de.relu(de.matmul(de.sum_rows(d), m)), u)


def reference_score(model: RankerModel, reactants: MolGraph,
                    candidate: Candidate) -> de.DTensor:
    """One candidate's (1, 1) score through full-graph embeddings: both
    networks run over the whole reactant and product graphs, untouched
    components included."""
    d = difference_vectors(reactants, candidate, model.wln)
    if model.variant == "wln":
        return score_sumpool(d, model.store["sum.M"], model.store["sum.u"])
    gi = graph_inputs(candidate.product)
    d = embed_from_features(gi, d, model.diff_wln)
    return score_sumpool(d, model.store["wldn.M"], model.store["wldn.u"])


def batched_ranker_suite(seed: int = 13) -> CheckResult:
    """Batched, component-local scores equal the full-graph reference bitwise.

    Runs on the reagent, higher-order and toy fixtures from ``datagen``, whose
    reagents and second reactants leave untouched components behind, with an
    empty-edit candidate added to each list. The detail also counts the
    candidate lists whose scores read only some reactant components, so
    that only those were embedded. The models have hidden size 8.
    """
    lines = (reagent_fixture_lines(2, seed=seed) + higher_order_fixture_lines(4, seed=seed)
             + toy_reaction_lines(6, seed=seed))
    mismatches = scored = subsets = 0
    for variant in RankerModel.VARIANTS:
        model = RankerModel.create(variant, hidden=8, depth=2, seed=seed)
        for line in lines:
            rec = parse_reaction_line(line)
            g = rec.reactants
            # the true pairs plus every bond at an edited atom: lists long
            # enough to span more than one union pass
            pairs = sorted(set(rec.true_edits.pairs) | {
                (min(a, b), max(a, b)) for a in rec.true_edits.atoms()
                for b in g.neighbors(a)})
            cands = [Candidate(EditSet.of([]), g)] + enumerate_candidates(
                g, pairs, 2, max_candidates=60).candidates
            batched = model.score_reactions([(g, cands)]).values[:, 0]
            subsets += len(read_atoms(cands)) < g.n_atoms
            for cand, score in zip(cands, batched):
                ref = reference_score(model, g, cand).values[0, 0]
                mismatches += int(ref.tobytes() != score.tobytes())
                scored += 1
    return CheckResult("ranker-batched", mismatches == 0,
                       f"{mismatches} of {scored} batched scores differ from the "
                       f"full-graph reference; {subsets} of {2 * len(lines)} candidate "
                       f"lists embedded a strict subset of the reactants")


def _loss_and_gradients(model, loss_fn, item) -> list[np.ndarray]:
    """The value of ``loss_fn(model, item)`` and every tensor's gradient
    (empty for a tensor that got none) after one backward pass."""
    model.store.zero_grads()
    loss = loss_fn(model, item)
    de.backward(loss)
    grads = [model.store[name].grad for name in model.store.names()]
    model.store.zero_grads()
    return [loss.values] + [np.zeros(0) if g is None else g for g in grads]


def composed_head(model: CenterModel, c: de.DTensor, us: np.ndarray, vs: np.ndarray,
                  codes: np.ndarray, ma: str, mb: str, bias: str, u: str) -> de.DTensor:
    """:meth:`~rxnpred.center.CenterModel._head` as the composed ``diffengine``
    ops over all pairs at once, one recorded node each: every pair's atoms
    and feature row are gathered, then projected, so the products and their
    weight gradients run over (n_pairs, hidden) arrays."""
    s = model.store
    pu, pv = de.matmul(de.gather_rows(c, us), s[ma]), de.matmul(de.gather_rows(c, vs), s[ma])
    z = de.add(de.add(pu, pv), de.matmul(de.gather_rows(center._CODE_TABLE, codes), s[mb]))
    return de.sigmoid(de.matmul(de.relu(de.add(z, s[bias])), s[u]))


@contextmanager
def composed_center_head(model: CenterModel) -> Iterator[None]:
    """Within the block, ``model`` scores pairs through :func:`composed_head`,
    and each graph's attention matrix scores all its n² ordered pairs, each
    on its own: the oracle of its one pair head, in training and inference
    alike."""
    def attention(graphs: Sequence[MolGraph], c: de.DTensor) -> list[de.DTensor]:
        out, start = [], 0
        for g in graphs:
            n = g.n_atoms
            us, vs = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
            out.append(de.reshape(composed_head(model, c, us + start, vs + start,
                                                center._pair_codes(g, us, vs),
                                                "att.Pa", "att.Pb", "att.bias", "att.u"), n, n))
            start += n
        return out

    model._head = lambda *args: composed_head(model, *args)
    model._attention = attention
    try:
        yield
    finally:
        del model._head, model._attention


def center_gradient_error(model: CenterModel, g: MolGraph, truth: EditSet) -> tuple[bool, float]:
    """Whether the center loss of ``g`` under ``truth`` equals the composed
    head's (:func:`composed_center_head`) bitwise, and the largest error of a
    tensor's gradient against the composed head's, relative to the largest
    entry of the latter. The weight gradients sum in another order."""
    def loss_fn(m: CenterModel, h: MolGraph) -> de.DTensor:
        return center_loss(*m.pair_scores([h]), truth)

    got = _loss_and_gradients(model, loss_fn, g)
    with composed_center_head(model):
        want = _loss_and_gradients(model, loss_fn, g)
    errors = [np.max(np.abs(a - b), initial=0.0) / max(np.max(np.abs(b), initial=0.0), 1e-300)
              if a.shape == b.shape else np.inf for a, b in zip(got[1:], want[1:])]
    return got[0].tobytes() == want[0].tobytes(), float(max(errors, default=0.0))


def center_inference_suite(seed: int = 17) -> CheckResult:
    """``score_matrix``, ``attention_map`` and the center loss equal the
    composed head's bitwise, the attention matrix is bitwise symmetric, and
    every gradient of the loss is within 1e-12 of the composed head's,
    relative (:func:`center_gradient_error`). The models have hidden size 8.

    Runs on toy and reagent-fixture reactants from ``datagen`` with random
    spectator molecules added until the pairs span several ``PAIR_BLOCK``
    blocks of the head; the loss's truth is three random pairs.
    """
    rng = np.random.default_rng(seed)
    reactants = ([line.split(">")[0] for line in toy_reaction_lines(3, seed=seed)]
                 + [".".join(line.split(">")[:2]) for line in reagent_fixture_lines(1, seed=seed)])
    graphs = []
    for smiles in reactants:
        g = parse_smiles(smiles)
        while g.n_atoms * (g.n_atoms - 1) // 2 <= 2 * PAIR_BLOCK:
            smiles += "." + write_smiles(random_molecule(rng))
            g = parse_smiles(smiles)
        graphs.append(g)
    mismatches = checked = 0
    worst = 0.0
    for variant in CenterModel.VARIANTS:
        model = CenterModel.create(variant, hidden=8, depth=2, seed=seed)
        for g in graphs:
            with composed_center_head(model):
                matrix = model.score_matrix(g)
                alpha = model.attention_map(g) if variant == "global" else None
            mismatches += int(model.score_matrix(g).tobytes() != matrix.tobytes())
            if alpha is not None:
                got = model.attention_map(g)
                mismatches += int(got.tobytes() != alpha.tobytes()
                                  or got.tobytes() != got.T.tobytes())
            pairs = upper_pairs(g.n_atoms)
            truth = EditSet.of((u, v, BondType.SINGLE) for u, v in
                               pairs[rng.choice(len(pairs), 3, replace=False)].tolist())
            same_loss, err = center_gradient_error(model, g, truth)
            mismatches += int(not same_loss)
            worst = max(worst, err)
            checked += 2 + (alpha is not None)
    sizes = [g.n_atoms for g in graphs]
    return CheckResult("center-inference", mismatches == 0 and worst <= 1e-12,
                       f"{mismatches} of {checked} matrices and losses differ from the composed "
                       f"head; gradients within {worst:.1e} relative "
                       f"({min(sizes)}-{max(sizes)} atoms)")


def comparison_form_suite(seed: int = 3) -> CheckResult:
    """Vectorized atom vectors match the reference-tensor oracle within 1e-10
    on 8 random molecules."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(8):
        g = random_molecule(rng)
        store = de.ParamStore()
        p = WLNParams.create(store, "wln", atom_feature_matrix(g).shape[1],
                             hidden=12, depth=2, rng=rng)
        fast = embed_atoms(g, p).values
        slow = naive_atom_vectors(g, p)
        worst = max(worst, float(np.max(np.abs(fast - slow))) if fast.size else 0.0)
    return CheckResult("comparison-form", worst < 1e-10, f"max abs diff {worst:.2e}")


# Fragments that enumeration instances may add: charged atoms, aromatic atoms
# and a carbon already over its valence.
_ENUMERATION_EXTRAS = ("[NH4+]", "[O-]C(=O)C", "C[N+](C)(C)C", "c1ccncc1", "Cc1ccccc1",
                       "FC(F)(F)(F)C")


def enumeration_instance(rng: np.random.Generator
                         ) -> tuple[MolGraph, list[tuple[int, int]], tuple[int, int]]:
    """Reactants, up to 8 pairs and the limits ``(max_changes,
    max_candidates)`` for an enumeration comparison.

    The reactants are a random molecule, sometimes with a charged, aromatic
    or over-valent fragment. About half of the pairs are bonds; pairs come in
    either atom order and one may repeat an earlier pair reversed.
    ``max_candidates`` is sometimes small enough to truncate.
    """
    smiles = write_smiles(random_molecule(rng, n_atoms=int(rng.integers(2, 7)),
                                          allow_curated=False))
    if rng.random() < 0.5:
        smiles += "." + _ENUMERATION_EXTRAS[rng.integers(len(_ENUMERATION_EXTRAS))]
    g = parse_smiles(smiles)
    pairs: list[tuple[int, int]] = []
    for _ in range(int(rng.integers(1, 8))):
        u = int(rng.integers(g.n_atoms))
        others = g.neighbors(u) if g.neighbors(u) and rng.random() < 0.5 else [
            v for v in range(g.n_atoms) if v != u]
        v = int(others[rng.integers(len(others))])
        pairs.append((u, v) if rng.random() < 0.5 else (v, u))
    if rng.random() < 0.3:
        pairs.append(pairs[rng.integers(len(pairs))][::-1])
    limits = int(rng.integers(1, 4)), int(rng.choice([3, 20, 100000]))
    return g, pairs, limits


def enumeration_suite(seed: int = 9) -> CheckResult:
    """Pruned enumeration equals generate-then-filter, in order and in the
    truncation flag (:func:`brute_force_ordered`), on 20 instances."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(20):
        g, pairs, limits = enumeration_instance(rng)
        fast = enumerate_candidates(g, pairs, *limits)
        slow = brute_force_ordered(g, pairs, *limits)
        mismatches += int(([c.edits for c in fast], fast.truncated) != slow)
    return CheckResult("enumeration-oracle", mismatches == 0,
                       f"{mismatches} mismatching instances of 20")


def blas_rows_suite(seed: int = 23) -> CheckResult:
    """``diffengine._mm`` computes each output row on its own on this machine's BLAS.

    OpenBLAS picks its kernels per CPU, so this runs the model's product
    shapes (forward, and input gradients against transposed weights): each
    of 10 rows, and each row of the 10-row pair-code table, must come out
    bitwise as it does alone when computed among up to 100 foreign rows of
    scales 1e-5..1e4 in a random order, in C or Fortran layout, in 12 trials.
    """
    rng = np.random.default_rng(seed)
    hidden = 64
    shapes = [(ATOM_FEATURE_DIM, hidden, False), (hidden, hidden, False),
              (hidden + BOND_FEATURE_DIM, hidden, False), (hidden, 1, False),
              (hidden, ATOM_FEATURE_DIM, True), (hidden, hidden + BOND_FEATURE_DIM, True)]
    cases = []
    for k, n, transposed in shapes:
        b = rng.normal(size=(n, k)).T
        cases.append((rng.normal(size=(10, k)), b if transposed else b.copy()))
    cases.append((center._CODE_ROWS, rng.normal(size=(center.PAIR_FEATURE_DIM, hidden))))
    mismatches = checked = 0
    for rows, b in cases:
        alone = [de._mm(row[None], b).tobytes() for row in rows]
        for t in range(12):
            foreign = rng.normal(size=(int(rng.integers(0, 101)), rows.shape[1]))
            mixed = np.concatenate([rows, foreign * 10.0 ** rng.uniform(-5, 4, (len(foreign), 1))])
            order = rng.permutation(len(mixed))
            a = mixed[order] if t % 2 else np.asfortranarray(mixed[order])
            out = de._mm(a, b)
            at = np.argsort(order)
            mismatches += sum(out[at[i]].tobytes() != want for i, want in enumerate(alone))
            checked += len(alone)
    return CheckResult("blas-rows", mismatches == 0,
                       f"{mismatches} of {checked} product rows depend on the other rows "
                       f"({len(cases)} model shapes, blocks of {de._ROW_BLOCK} rows)")


def per_atom_inputs(parts) -> GraphInputs:
    """:func:`~rxnpred.wln.inputs` of ``(graph, atoms)`` parts, whole
    components, through the per-atom route: one
    :func:`~rxnpred.chemgraph.atom_features` call per atom and one
    :func:`~rxnpred.chemgraph.bond_features` call per bond."""
    feats: list[np.ndarray] = []
    src: list[int] = []
    dst: list[int] = []
    edge_feats: list[np.ndarray] = []
    for g, atoms in parts:
        local = {a: len(feats) + i for i, a in enumerate(atoms)}
        feats.extend(atom_features(g, a) for a in atoms)
        for bi, bond in enumerate(g.bonds):
            if bond.u in local:
                src += (local[bond.u], local[bond.v])
                dst += (local[bond.v], local[bond.u])
                edge_feats += [bond_features(g, bi)] * 2
    return GraphInputs(
        len(feats), np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
        de.constant(np.array(feats).reshape(len(feats), ATOM_FEATURE_DIM)),
        de.constant(np.array(edge_feats).reshape(len(src), BOND_FEATURE_DIM)))


def inputs_bytes(gi: GraphInputs) -> tuple:
    """Atom count, and the dtype, shape and bytes of every array of ``gi``."""
    return (gi.n_atoms, *((a.dtype.str, a.shape, a.tobytes()) for a in (
        gi.src, gi.dst, gi.features.values, gi.edge_features.values)))


def permute_graph(g: MolGraph, perm: Sequence[int]) -> MolGraph:
    """``g`` with its atoms relabeled: new index ``perm[i]`` hosts old atom ``i``."""
    atoms: list = [None] * g.n_atoms
    for old, new in enumerate(perm):
        atoms[new] = g.atoms[old]
    return make_graph(atoms, [(perm[b.u], perm[b.v], b.bond_type) for b in g.bonds])


def local_product_oracle(reactants: MolGraph, edits: EditSet) -> tuple[MolGraph, list[int]]:
    """The edit-local product through the full product:
    ``induced_subgraph(apply_edits(reactants, edits), atoms)`` over the
    atoms of the product components that hold an edited atom, and those
    atoms."""
    full = apply_edits(reactants, edits)
    comps = {full.component[a] for a in edits.atoms()}
    atoms = [i for i, c in enumerate(full.component) if c in comps]
    return induced_subgraph(full, atoms), atoms


def graph_delta_mismatches(parts: list[tuple[MolGraph, EditSet]]) -> int:
    """How often the delta route of one pass over ``(reactants, edits)``
    parts differs from the graph route: the pass's
    :func:`~rxnpred.chemgraph.delta_union_arrays` inputs against
    :func:`per_atom_inputs` over the :func:`local_product_oracle` graphs
    (bytes), each part's local atoms and component ids against the
    oracle's, and :func:`~rxnpred.wln.graph_inputs` against
    :func:`per_atom_inputs` on each reactant graph and local product."""
    oracle = [local_product_oracle(g, edits) for g, edits in parts]
    deltas = [edit_delta(g, edits) for g, edits in parts]
    local_parts = [(local, range(local.n_atoms)) for local, _ in oracle]
    bad = int(inputs_bytes(inputs(delta_union_arrays(deltas)))
              != inputs_bytes(per_atom_inputs(local_parts)))
    bad += sum((d.atoms, d.component) != (atoms, local.component)
               for d, (local, atoms) in zip(deltas, oracle))
    graphs = [*{id(g): g for g, _ in parts}.values(), *(local for local, _ in oracle)]
    return bad + sum(inputs_bytes(graph_inputs(g))
                     != inputs_bytes(per_atom_inputs([(g, range(g.n_atoms))])) for g in graphs)


def graph_delta_suite(seed: int = 29) -> CheckResult:
    """Candidates' edit deltas equal the graph route (:func:`graph_delta_mismatches`).

    Each of 30 passes takes every candidate, the empty edit set and three sets of
    one to four random edits (which may create several bonds at once) of
    one to three :func:`enumeration_instance` reactants (aromatic, charged
    and over-valent fragments among them) under a random atom order.
    """
    rng = np.random.default_rng(seed)
    mismatches = parts_checked = 0
    for _ in range(30):
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            g, pairs, limits = enumeration_instance(rng)
            perm = [int(i) for i in rng.permutation(g.n_atoms)]
            h = permute_graph(g, perm)
            pairs = [(perm[u], perm[v]) for u, v in pairs]
            parts += [(h, EditSet.of([]))] + [(h, c.edits)
                                              for c in enumerate_candidates(h, pairs, *limits)]
            all_pairs = [(u, v) for u in range(h.n_atoms) for v in range(u + 1, h.n_atoms)]
            for _ in range(3 if all_pairs else 0):
                chosen = rng.choice(len(all_pairs), min(len(all_pairs), int(rng.integers(1, 5))),
                                    replace=False)
                parts.append((h, EditSet.of(
                    (u, v, BondType(int(rng.choice([t for t in range(5)
                                                    if t != h.bond_type_between(u, v).value]))))
                    for u, v in (all_pairs[i] for i in chosen))))
        mismatches += graph_delta_mismatches(parts)
        parts_checked += len(parts)
    return CheckResult("graph-delta", mismatches == 0,
                       f"{mismatches} mismatches over 30 passes of "
                       f"{parts_checked} edit sets against the graph route")


def run_selfcheck(seed: int = 0) -> list[CheckResult]:
    results = [wl_soundness_suite(seed=seed + 11)]
    results.append(comparison_form_suite(seed=seed + 3))
    results.append(enumeration_suite(seed=seed + 9))
    results.extend(gradient_suite(seed=seed + 5))
    results.append(batched_ranker_suite(seed=seed + 13))
    results.append(center_inference_suite(seed=seed + 17))
    results.append(blas_rows_suite(seed=seed + 23))
    results.append(graph_delta_suite(seed=seed + 29))
    return results
