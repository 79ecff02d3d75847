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
from dataclasses import dataclass

import numpy as np

from . import diffengine as de
from .candgen import (BOND_ALPHABET, BondEdit, Candidate, EditSet, GenConfig,
                      connectivity_ok, enumerate_candidates)
from .center import PAIR_BLOCK, CenterModel, center_loss, scores_to_matrix
from .chemgraph import (BondType, MolGraph, apply_edits, atom_feature_matrix,
                        bond_features, parse_smiles, write_smiles)
from .datagen import (higher_order_fixture_lines, random_molecule, random_reaction_line,
                      reagent_fixture_lines, toy_reaction_lines)
from .pipeline import _candidate_stage, parse_reaction_line
from .ranker import RankerModel, difference_vectors, rank_loss, read_atoms, score_sumpool
from .wliso import brute_force_isomorphic, wl_equivalent
from .wln import WLNParams, embed_atoms, embed_from_features, graph_inputs

__all__ = ["CheckResult", "batched_ranker_suite", "brute_force_enumerate",
           "brute_force_ordered", "center_inference_suite", "composed_center_outputs",
           "enumeration_instance", "gradient_suite", "naive_atom_vectors", "reference_score",
           "run_selfcheck", "wl_soundness_suite"]


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
                          cfg: GenConfig) -> set[EditSet]:
    """Generate every assignment of changed bond types, then filter.

    Every nonempty set of at most ``max_changes`` pair positions takes every
    combination of bond types other than the current ones, which is every
    full assignment over the pairs with at most ``max_changes`` changes.
    Edit sets are kept when their pairs are distinct, connected and
    aromatic-legal, and the edited graph respects valences.
    """
    norm = [(min(u, v), max(u, v)) for u, v in pairs]
    out: set[EditSet] = set()
    for size in range(1, min(cfg.max_changes, len(norm)) + 1):
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


def brute_force_ordered(reactants: MolGraph, pairs: list[tuple[int, int]],
                        cfg: GenConfig) -> tuple[list[EditSet], bool]:
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

    ordered = sorted(brute_force_enumerate(reactants, pairs, cfg), key=key)
    return ordered[:cfg.max_candidates], len(ordered) > cfg.max_candidates


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def wl_soundness_suite(n_molecules: int = 30, max_atoms: int = 7,
                       depth: int = 3, seed: int = 11) -> CheckResult:
    """Brute-force isomorphism implies WL equivalence; WL separates almost
    every non-isomorphic pair."""
    rng = np.random.default_rng(seed)
    mols = []
    while len(mols) < n_molecules:
        g = random_molecule(rng, n_atoms=int(rng.integers(2, max_atoms + 1)),
                            allow_curated=len(mols) % 3 == 0)
        if g.n_atoms <= max_atoms:
            mols.append(g)
    start = time.perf_counter()
    unsound = 0
    non_iso = 0
    undistinguished = 0
    for i in range(len(mols)):
        for j in range(i + 1, len(mols)):
            iso = brute_force_isomorphic(mols[i], mols[j])
            wl = wl_equivalent(mols[i], mols[j], depth)
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


def _small_instance(seed: int, max_atoms: int = 10):
    rng = np.random.default_rng(seed)
    while True:
        line = random_reaction_line(rng)
        try:
            rec = parse_reaction_line(line)
        except ValueError:
            continue
        if rec.reactants.n_atoms <= max_atoms:
            return rec


def _ranking_instance(seed: int, min_candidates: int = 3):
    """A small record whose enumerated candidate pool is big enough that the
    ranking loss actually depends on the scores."""
    for attempt in range(50):
        rec = _small_instance(seed + 101 * attempt)
        cands, _, true_idx = _candidate_stage(
            rec.reactants, list(rec.true_edits.pairs),
            GenConfig(max_changes=2, max_candidates=24), rec.true_edits, augment=True)
        if len(cands) >= min_candidates:
            return rec, cands, true_idx
    raise RuntimeError("no suitable ranking instance found")


def gradient_suite(h: float = 1e-5, tol: float = 1e-4, seed: int = 5,
                   hidden: int = 8) -> list[CheckResult]:
    """Finite-difference checks of all four training losses."""
    rec = _small_instance(seed)
    out = []

    for variant in ("local", "global"):
        model = CenterModel.create(variant, hidden=hidden, depth=2, seed=seed)

        def loss_fn(_store, model=model):
            scores, _ = model.pair_scores(rec.reactants)
            return center_loss(scores, rec.labels)

        err = de.grad_check(loss_fn, model.store, h=h,
                            rng=np.random.default_rng(seed + 1))
        out.append(CheckResult(f"grad-center-{variant}", err < tol,
                               f"max rel err {err:.2e}"))

    rec, cands, true_idx = _ranking_instance(seed)

    for variant in ("wln", "wldn"):
        model = RankerModel.create(variant, hidden=hidden, depth=2, seed=seed)

        def loss_fn(_store, model=model):
            return rank_loss(model.score_candidates(rec.reactants, cands), true_idx)

        err = de.grad_check(loss_fn, model.store, h=h,
                            rng=np.random.default_rng(seed + 2))
        out.append(CheckResult(f"grad-ranker-{variant}", err < tol,
                               f"max rel err {err:.2e}"))
    return out


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


def batched_ranker_suite(seed: int = 13, hidden: int = 8) -> CheckResult:
    """Batched, component-local scores equal the full-graph reference bitwise.

    Runs on the reagent, higher-order and toy fixtures from ``datagen``, whose
    reagents and second reactants leave untouched components behind, with an
    empty-edit candidate added to each list. The detail also counts the
    candidate lists whose scores read only some reactant components, so
    that only those were embedded.
    """
    lines = (reagent_fixture_lines(2, seed=seed) + higher_order_fixture_lines(4, seed=seed)
             + toy_reaction_lines(6, seed=seed))
    mismatches = scored = subsets = 0
    for variant in ("wln", "wldn"):
        model = RankerModel.create(variant, hidden=hidden, depth=2, seed=seed)
        for line in lines:
            rec = parse_reaction_line(line)
            g = rec.reactants
            # the true pairs plus every bond at an edited atom: lists long
            # enough to span more than one union pass
            pairs = sorted(set(rec.true_edits.pairs) | {
                (min(a, b), max(a, b)) for a in rec.true_edits.atoms()
                for b in g.neighbors(a)})
            cands = [Candidate(EditSet.of([]), g)] + enumerate_candidates(
                g, pairs, GenConfig(max_changes=2, max_candidates=60)).candidates
            batched = model.score_candidates(g, cands).values[:, 0]
            subsets += len(read_atoms(cands)) < g.n_atoms
            for cand, score in zip(cands, batched):
                ref = reference_score(model, g, cand).values[0, 0]
                mismatches += int(ref.tobytes() != score.tobytes())
                scored += 1
    return CheckResult("ranker-batched", mismatches == 0,
                       f"{mismatches} of {scored} batched scores differ from the "
                       f"full-graph reference; {subsets} of {2 * len(lines)} candidate "
                       f"lists embedded a strict subset of the reactants")


def composed_center_outputs(model: CenterModel,
                            g: MolGraph) -> tuple[np.ndarray, np.ndarray | None]:
    """The score matrix and attention matrix (None for the local variant)
    through the composed ``diffengine`` ops that training differentiates,
    with the backward graph recorded."""
    scores, pairs = model.pair_scores(g)
    matrix = scores_to_matrix(scores.values, pairs, g.n_atoms)
    if model.variant != "global":
        return matrix, None
    gi = graph_inputs(g)
    c = embed_from_features(gi, gi.features, model.wln)
    return matrix, model._attention_context(g, c)[1].values


def center_inference_suite(seed: int = 17, hidden: int = 8) -> CheckResult:
    """``score_matrix`` and ``attention_map`` equal the composed ops bitwise,
    and the attention matrix is bitwise symmetric.

    Runs on toy and reagent-fixture reactants from ``datagen`` with random
    spectator molecules added until the pairs span several ``PAIR_BLOCK``
    blocks of the inference head.
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
    for variant in ("local", "global"):
        model = CenterModel.create(variant, hidden=hidden, depth=2, seed=seed)
        for g in graphs:
            matrix, alpha = composed_center_outputs(model, g)
            mismatches += int(model.score_matrix(g).tobytes() != matrix.tobytes())
            checked += 1
            if alpha is not None:
                got = model.attention_map(g)
                mismatches += int(got.tobytes() != alpha.tobytes()
                                  or got.tobytes() != got.T.tobytes())
                checked += 1
    sizes = [g.n_atoms for g in graphs]
    return CheckResult("center-inference", mismatches == 0,
                       f"{mismatches} of {checked} matrices differ from the composed ops "
                       f"({min(sizes)}-{max(sizes)} atoms)")


def comparison_form_suite(seed: int = 3, tol: float = 1e-10,
                          trials: int = 5) -> CheckResult:
    """Vectorized atom vectors match the reference-tensor oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        g = random_molecule(rng)
        store = de.ParamStore()
        p = WLNParams.create(store, "wln", atom_feature_matrix(g).shape[1],
                             hidden=12, depth=2, rng=rng)
        fast = embed_atoms(g, p).values
        slow = naive_atom_vectors(g, p)
        worst = max(worst, float(np.max(np.abs(fast - slow))) if fast.size else 0.0)
    return CheckResult("comparison-form", worst < tol, f"max abs diff {worst:.2e}")


# Fragments that enumeration instances may add: charged atoms, aromatic atoms
# and a carbon already over its valence.
_ENUMERATION_EXTRAS = ("[NH4+]", "[O-]C(=O)C", "C[N+](C)(C)C", "c1ccncc1", "Cc1ccccc1",
                       "FC(F)(F)(F)C")


def enumeration_instance(rng: np.random.Generator) -> tuple[MolGraph, list[tuple[int, int]],
                                                           GenConfig]:
    """Reactants, up to 8 pairs and limits for an enumeration comparison.

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
    cfg = GenConfig(max_changes=int(rng.integers(1, 4)),
                    max_candidates=int(rng.choice([3, 20, 100000])))
    return g, pairs, cfg


def enumeration_suite(n_instances: int = 20, seed: int = 9) -> CheckResult:
    """Pruned enumeration equals generate-then-filter, in order and in the
    truncation flag (:func:`brute_force_ordered`)."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(n_instances):
        g, pairs, cfg = enumeration_instance(rng)
        fast = enumerate_candidates(g, pairs, cfg)
        slow = brute_force_ordered(g, pairs, cfg)
        mismatches += int(([c.edits for c in fast], fast.truncated) != slow)
    return CheckResult("enumeration-oracle", mismatches == 0,
                       f"{mismatches} mismatching instances of {n_instances}")


def run_selfcheck(seed: int = 0) -> list[CheckResult]:
    results = [wl_soundness_suite(seed=seed + 11)]
    results.append(comparison_form_suite(seed=seed + 3))
    results.append(enumeration_suite(seed=seed + 9))
    results.extend(gradient_suite(seed=seed + 5))
    results.append(batched_ranker_suite(seed=seed + 13))
    results.append(center_inference_suite(seed=seed + 17))
    return results
