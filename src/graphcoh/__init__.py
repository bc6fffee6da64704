"""Workbench for a coboundary complex of graphs with decorated vertices.

Layers: plain skeletons with signed canonicalization and enumeration
(graphs, canonical, enumeration); the coboundary complex over exact
rationals (coboundary); SU(2) multiplicities and validated structure
constants (reps); equivariant tensors with three scalar kinds (tensors);
decorated graphs, contraction evaluation, and the decorated coboundary
(decorated); and a reporting CLI (cli).
"""

from .canonical import GraphClass, canonicalize, self_symmetries
from .coboundary import Cochain, cocycle_basis, contract_edge, delta, delta_matrix
from .decorated import (
    DecoratedChain,
    DecoratedGraph,
    contract_decoration,
    decorate,
    decorate_uniform,
    delta_decorated,
    evaluate,
    ihx_check,
    is_cocycle_decorated,
)
from .enumeration import enumerate_by_counts, enumerate_grading, enumerate_trivalent
from .errors import GraphCohError
from .graphs import GraphSkeleton, SymmetryMode, grading, new_graph
from .reps import SpinRep, lie_data, power_decompose, tensor_decompose, trivial_multiplicity
from .tensors import (
    EquivariantTensor,
    Rad,
    catalogue_tensor,
    check_equivariance,
    direct_sum,
    eps_tensor,
    half_half_one_tensor,
    make_tensor,
    pairing,
    symmetry_profile,
)

__version__ = "0.1.0"
