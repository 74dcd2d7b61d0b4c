"""orderlab: a finite laboratory for order combinatorics.

Modules cover strict partial orders and embeddings, bounded sequence
spaces with threshold dominance, an injectively universal asymmetric
relation, depletions of fibered orders and their walks, reduced products of
finite structures, a condition calculus producing certified generic
embeddings, and tie-point decompositions in the clopen algebra of Cantor
space.  `orderlab.checks` bundles the exhaustive and randomized
verification suites; the `orderlab` command line fronts everything.
"""

from .posets import (OrderMap, Poset, RelStructure, converse,
                     enumerate_poset_isotypes, is_order_embedding,
                     linear_extension, longest_chain, make_poset)
from .seqspace import (SeqFun, eta, eta_profile, leq_from, lt_from, phi,
                       position_profile, position_seq, salient_check)
from .universal import (Rel, SparseNat, embed_structure, rel, ternary_digit,
                        verify_embedding, witness, witness_above)
from .depletion import (DepletionInstance, Walk, depletion_order,
                        depletion_rel, find_walk, maximal_star_set,
                        star_condition, verify_walk)
from .fol import (FiniteStructure, eval_pair, eval_qf, format_formula,
                  linear_order_structure, parse_formula)
from .redprod import (FilterFamily, ReducedProduct, atomic_los_check,
                      longest_op_chain, reduced_product,
                      threshold_rel_product)
from .forcing import (Condition, EMPTY_CONDITION, ExplicitChainFactor,
                      GenericEmbedding, SplitInstance, amalgamate,
                      extend_into_D, extend_into_E, extends, generic_build,
                      is_condition, pipeline_embed, projection,
                      quotient_member, split_project,
                      verify_generic_embedding)
from .tiepoint import (Clopen, Point, TieDecomposition, complement, contains,
                       expansion_axiom_check, join, leq, meet, parse_point,
                       tie_decompose, true_tie_check)

__version__ = "0.1.0"
