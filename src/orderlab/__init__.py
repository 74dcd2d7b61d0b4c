"""orderlab: a finite laboratory for order combinatorics.

Modules cover strict partial orders and embeddings, bounded sequence
spaces with threshold dominance, an injectively universal asymmetric
relation, depletions of fibered orders and their walks, reduced products of
finite structures, a condition calculus producing certified generic
embeddings, and tie-point decompositions in the clopen algebra of Cantor
space.  `orderlab.checks` bundles the exhaustive and randomized
verification suites; the `orderlab` command line fronts everything.

``__all__`` is the public API and equals the list under "Public API" in
the README; ``tests/test_api.py`` holds the two to each other.
"""

from .posets import (Poset, RelStructure, enumerate_poset_isotypes,
                     linear_extension, longest_chain, make_poset)
from .seqspace import (SeqFun, eta, eta_profile, leq_from, lt_from, phi,
                       position_profile, position_seq)
from .universal import (Rel, SparseNat, embed_structure, rel, ternary_digit,
                        verify_embedding, witness, witness_above)
from .depletion import (DepletionInstance, Walk, depletion_order,
                        depletion_rel, find_walk, maximal_star_set,
                        star_condition)
from .fol import FiniteStructure, parse_formula
from .redprod import (FilterFamily, ReducedProduct, atomic_los_check,
                      longest_op_chain, reduced_product)
from .forcing import (Condition, EMPTY_CONDITION, ExplicitChainFactor,
                      GenericEmbedding, SplitInstance, amalgamate, entry_op,
                      extends, generic_build, pipeline_embed, projection,
                      quotient_member, split_project, verify_generic_embedding)
from .tiepoint import (Clopen, Point, TieDecomposition, complement, contains,
                       expansion_axiom_check, join, leq, meet, parse_point,
                       tie_decompose, true_tie_check)

__all__ = [
    # posets
    "Poset", "RelStructure", "enumerate_poset_isotypes", "linear_extension",
    "longest_chain", "make_poset",
    # seqspace
    "SeqFun", "eta", "eta_profile", "leq_from", "lt_from", "phi",
    "position_profile", "position_seq",
    # universal
    "Rel", "SparseNat", "embed_structure", "rel", "ternary_digit",
    "verify_embedding", "witness", "witness_above",
    # depletion
    "DepletionInstance", "Walk", "depletion_order", "depletion_rel",
    "find_walk", "maximal_star_set", "star_condition",
    # fol
    "FiniteStructure", "parse_formula",
    # redprod
    "FilterFamily", "ReducedProduct", "atomic_los_check", "longest_op_chain",
    "reduced_product",
    # forcing
    "Condition", "EMPTY_CONDITION", "ExplicitChainFactor", "GenericEmbedding",
    "SplitInstance", "amalgamate", "entry_op", "extends", "generic_build",
    "pipeline_embed", "projection", "quotient_member", "split_project",
    "verify_generic_embedding",
    # tiepoint
    "Clopen", "Point", "TieDecomposition", "complement", "contains",
    "expansion_axiom_check", "join", "leq", "meet", "parse_point",
    "tie_decompose", "true_tie_check",
]

__version__ = "0.1.0"
