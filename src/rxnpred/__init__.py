"""Template-free reaction outcome prediction.

Pipeline: parse atom-mapped reactant SMILES into molecular graphs, score
every atom pair for reactivity with a graph relabeling network (local or
attention-augmented global model), enumerate candidate products by editing
bonds among the top-scoring pairs under valence and connectivity constraints,
and rank the candidates with a difference-vector scorer.
"""

from .candgen import BondEdit, Candidate, EditSet, connectivity_ok, enumerate_candidates
from .center import CenterModel, center_loss, coverage, reaction_edits, top_k_pairs
from .chemgraph import (Atom, Bond, BondType, MolGraph, SmilesError, apply_edits,
                        atom_features, bond_features, parse_smiles, write_smiles)
from .pipeline import (EvalReport, PredictResult, ReactionRecord, RunConfig,
                       evaluate, load_dataset, predict, train_center, train_ranker)
from .ranker import RankerModel, rank_candidates, rank_loss
from .wliso import WLFingerprint, brute_force_isomorphic, wl_equivalent, wl_fingerprint, wl_labels
from .wln import WLNParams, embed_atoms

__version__ = "0.1.0"
