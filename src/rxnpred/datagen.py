"""Synthetic reaction data for demos, self-checks, and small training runs.

Generates random small molecules under valence budgets, turns them into
atom-mapped reaction records (``reactants>reagents>product`` lines), and
writes a few purpose-built fixture sets:

* a general toy set of single/double-edit reactions,
* a reagent-dependence set where the same substrate reacts at a different
  site depending on a disconnected reagent (only a model that can look across
  components can resolve it),
* a higher-order set whose records all carry two adjacent edits, giving
  candidate pools with structurally confusable entries.
"""

from __future__ import annotations

import argparse
from collections import Counter
from pathlib import Path

import numpy as np

from .candgen import BondEdit, EditSet
from .chemgraph import (Atom, BondType, MolGraph, apply_edits, induced_subgraph, make_graph,
                        merge_graphs, parse_smiles, valence_for_h, with_map_numbers,
                        write_smiles)

__all__ = [
    "higher_order_fixture_lines",
    "random_molecule",
    "random_reaction_line",
    "reagent_fixture_lines",
    "toy_reaction_lines",
    "write_lines",
]

_ELEMENT_POOL = ["C", "C", "C", "C", "N", "O", "S", "F", "Cl"]

# A small zoo of parseable molecules exercising aromatics, charges, maps,
# and multi-component strings; used to diversify random sampling.
CURATED_SMILES = [
    "c1ccccc1", "c1ccncc1", "c1ccoc1", "c1cc[nH]c1", "Cc1ccccc1",
    "[NH4+]", "[O-]C(=O)C", "C[N+](C)(C)C", "OCC(O)CO", "N#Cc1ccccc1",
    "CC(=O)Oc1ccccc1", "ClC(Cl)Cl", "C1CCOC1", "O=S(=O)(O)O", "c1ccc2ccccc2c1",
]


def random_molecule(rng: np.random.Generator, n_atoms: int | None = None,
                    allow_curated: bool = True) -> MolGraph:
    """A random valence-respecting molecule, occasionally a curated one."""
    if allow_curated and rng.random() < 0.25:
        return parse_smiles(CURATED_SMILES[rng.integers(len(CURATED_SMILES))])
    if n_atoms is None:
        n_atoms = int(rng.integers(2, 8))
    atoms = [Atom(_ELEMENT_POOL[rng.integers(len(_ELEMENT_POOL))])
             for _ in range(n_atoms)]
    capacity = [valence_for_h(a.element, 0) for a in atoms]
    bonds: list[tuple[int, int, BondType]] = []
    bonded: set[tuple[int, int]] = set()
    for i in range(1, n_atoms):
        choices = [j for j in range(i) if capacity[j] >= 1]
        if not choices:
            atoms[i] = Atom("C")
            capacity[i] = 4
            choices = [j for j in range(i) if capacity[j] >= 1]
            if not choices:
                continue
        j = int(choices[rng.integers(len(choices))])
        max_order = min(capacity[i], capacity[j], 3)
        order = 1
        if max_order >= 2 and rng.random() < 0.2:
            order = 2
        if max_order >= 3 and rng.random() < 0.05:
            order = 3
        bt = (BondType.SINGLE, BondType.DOUBLE, BondType.TRIPLE)[order - 1]
        bonds.append((j, i, bt))
        bonded.add((j, i))
        capacity[i] -= order
        capacity[j] -= order
    if n_atoms >= 4 and rng.random() < 0.3:
        spare = [i for i in range(n_atoms) if capacity[i] >= 1]
        rng.shuffle(spare)
        for i in spare:
            partners = [j for j in spare if j > i and (i, j) not in bonded
                        and capacity[j] >= 1 and capacity[i] >= 1]
            if partners:
                j = int(partners[rng.integers(len(partners))])
                bonds.append((i, j, BondType.SINGLE))
                capacity[i] -= 1
                capacity[j] -= 1
                break
    return make_graph(atoms, bonds)


def _product_smiles(reactants: MolGraph, edits: EditSet,
                    drop_detached: bool = True) -> str:
    """Serialize the edit-local product: the components of the product
    (:func:`~rxnpred.chemgraph.apply_edits`) that hold an edited atom.

    Detached single atoms (leaving groups) are kept or dropped; dropping them
    exercises the absent-from-product labeling path downstream. One product
    of a fresh graph is built faster as a graph than through the candidate
    list builder (:func:`~rxnpred.chemgraph.edit_deltas`), whose numpy
    passes pay off over a list.
    """
    product = apply_edits(reactants, edits)
    local = {product.component[a] for a in edits.atoms()}
    sizes = Counter(c for c in product.component if c in local)
    largest = max(sizes.values())
    return write_smiles(induced_subgraph(product, [
        i for i, c in enumerate(product.component) if c in local
        and (not drop_detached or sizes[c] > 1 or sizes[c] == largest)]))


def _pick_edit(rng: np.random.Generator, g: MolGraph) -> EditSet | None:
    """One plausible edit pattern over a (possibly multi-component) graph."""
    kind = rng.random()
    single_bonds = [b for b in g.bonds if b.bond_type is BondType.SINGLE]
    multi_bonds = [b for b in g.bonds if b.bond_type in (BondType.DOUBLE, BondType.TRIPLE)]
    if kind < 0.35 and single_bonds:
        b = single_bonds[rng.integers(len(single_bonds))]
        return EditSet.of([BondEdit(b.u, b.v, BondType.NONE)])
    if kind < 0.55 and multi_bonds:
        b = multi_bonds[rng.integers(len(multi_bonds))]
        lower = BondType.SINGLE if b.bond_type is BondType.DOUBLE else BondType.DOUBLE
        return EditSet.of([BondEdit(b.u, b.v, lower)])
    if kind < 0.75 and single_bonds and g.n_components >= 2:
        # substitution: break a bond in one component, bond the freed atom to
        # an atom of another component that still has spare hydrogens
        b = single_bonds[rng.integers(len(single_bonds))]
        u = b.u if len(g.adjacency[b.u]) > len(g.adjacency[b.v]) else b.v
        others = [i for i in range(g.n_atoms)
                  if g.component[i] != g.component[u] and g.implicit_h(i) >= 1]
        if others:
            w = int(others[rng.integers(len(others))])
            return EditSet.of([BondEdit(b.u, b.v, BondType.NONE),
                               BondEdit(u, w, BondType.SINGLE)])
    if multi_bonds:
        # addition across a multiple bond from another component
        b = multi_bonds[rng.integers(len(multi_bonds))]
        lower = BondType.SINGLE if b.bond_type is BondType.DOUBLE else BondType.DOUBLE
        others = [i for i in range(g.n_atoms)
                  if g.component[i] != g.component[b.u] and g.implicit_h(i) >= 1]
        if others:
            w = int(others[rng.integers(len(others))])
            return EditSet.of([BondEdit(b.u, b.v, lower),
                               BondEdit(b.u, w, BondType.SINGLE)])
    if single_bonds:
        b = single_bonds[rng.integers(len(single_bonds))]
        return EditSet.of([BondEdit(b.u, b.v, BondType.NONE)])
    return None


def random_reaction_line(rng: np.random.Generator) -> str:
    """One atom-mapped reaction record, retrying until a valid edit exists."""
    for _ in range(50):
        parts = [random_molecule(rng)]
        if rng.random() < 0.5:
            parts.append(random_molecule(rng, n_atoms=int(rng.integers(2, 5)),
                                         allow_curated=False))
        reactants = with_map_numbers(merge_graphs(parts))
        if reactants.n_atoms > 16 or reactants.valence_warnings:
            continue
        edits = _pick_edit(rng, reactants)
        if edits is None:
            continue
        try:
            product = _product_smiles(reactants, edits,
                                      drop_detached=rng.random() < 0.5)
        except ValueError:
            continue
        if not product:
            continue
        return f"{write_smiles(reactants)}>>{product}"
    raise RuntimeError("could not synthesize a reaction record")


def toy_reaction_lines(n: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [random_reaction_line(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Purpose-built fixtures
# ---------------------------------------------------------------------------

_REAGENT_CORES = [
    "[O:1]=[C:2]([CH3:3])[CH2:4][CH2:5][NH2:6]",
    "[O:1]=[C:2]([CH3:3])[CH2:4][CH2:5][CH2:6][NH2:7]",
    "[O:1]=[C:2]([CH2:3][CH3:4])[CH2:5][CH2:6][NH2:7]",
]


def reagent_fixture_lines(n_per_class: int = 12, seed: int = 0) -> list[str]:
    """Records where a disconnected reagent decides which site reacts.

    With the boron reagent the carbonyl double bond is reduced; with the
    sulfur reagent the carbon-nitrogen bond breaks instead. Pair scores
    computed only from a site's own neighborhood cannot separate the two
    cases. Reagents must span several atoms: an isolated atom has no
    neighbors, so its atom vector is identically zero and carries no signal.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n_per_class * 2):
        core_smiles = _REAGENT_CORES[i % len(_REAGENT_CORES)]
        core = parse_smiles(core_smiles)
        m2i = core.map_to_index()
        if i % 2 == 0:
            reagent = "FB(F)F"
            edits = EditSet.of([BondEdit(m2i[1], m2i[2], BondType.SINGLE)])
        else:
            reagent = "ClSCl"
            n_map = max(m2i)  # the amine nitrogen carries the highest map
            c_map = n_map - 1
            edits = EditSet.of([BondEdit(m2i[c_map], m2i[n_map], BondType.NONE)])
        product = _product_smiles(core, edits, drop_detached=True)
        lines.append(f"{core_smiles}>{reagent}>{product}")
    rng.shuffle(lines)
    return lines


def higher_order_fixture_lines(n: int = 40, seed: int = 1) -> list[str]:
    """Two-edit addition reactions: a multiple bond drops an order while one
    of its ends bonds to an atom from a second component."""
    rng = np.random.default_rng(seed)
    lines: list[str] = []
    attempts = 0
    while len(lines) < n and attempts < n * 60:
        attempts += 1
        core = random_molecule(rng, allow_curated=False)
        if not any(b.bond_type is BondType.DOUBLE for b in core.bonds):
            continue
        attacker = random_molecule(rng, n_atoms=int(rng.integers(2, 5)),
                                   allow_curated=False)
        reactants = with_map_numbers(merge_graphs([core, attacker]))
        if reactants.valence_warnings:
            continue
        doubles = [b for b in reactants.bonds if b.bond_type is BondType.DOUBLE]
        if not doubles:
            continue
        b = doubles[rng.integers(len(doubles))]
        others = [i for i in range(reactants.n_atoms)
                  if reactants.component[i] != reactants.component[b.u]
                  and reactants.implicit_h(i) >= 1]
        if not others:
            continue
        w = int(others[rng.integers(len(others))])
        edits = EditSet.of([BondEdit(b.u, b.v, BondType.SINGLE),
                            BondEdit(b.u, w, BondType.SINGLE)])
        try:
            product = _product_smiles(reactants, edits, drop_detached=False)
        except ValueError:
            continue
        lines.append(f"{write_smiles(reactants)}>>{product}")
    if len(lines) < n:
        raise RuntimeError("fixture synthesis kept failing")
    return lines


def write_lines(path, lines: list[str]) -> None:
    """One line per record, each ending in a newline; no lines, an empty file."""
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="generate synthetic reaction data")
    parser.add_argument("--out", required=True)
    parser.add_argument("--n", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--kind", choices=["toy", "reagent", "higher-order"],
                        default="toy")
    args = parser.parse_args(argv)
    if args.n < 1:
        raise SystemExit(f"--n: must be at least 1, got {args.n}")
    if args.kind == "toy":
        lines = toy_reaction_lines(args.n, args.seed)
    elif args.kind == "reagent":
        lines = reagent_fixture_lines(max(1, args.n // 2), args.seed)
    else:
        lines = higher_order_fixture_lines(args.n, args.seed)
    write_lines(args.out, lines)
    print(f"wrote {len(lines)} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
