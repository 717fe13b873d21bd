"""Chiral maniplex extensions: flag graphs, GPR-graphs and verified
permutation-group constructions."""

from .permcore import Perm, PermGroup, disjoint_union, left_product, orbit_partition
from .maniplex import (AutomorphismOrbit, Maniplex,
                       PreconditionError, Report, RootedManiplex, RotationSystem,
                       Symmetry, VerificationError, automorphism_orbit,
                       classify_symmetry, covers,
                       dually_bipartite_colouring, facets, find_rooted_automorphism,
                       forced_map, is_orientable,
                       rotation_system, schlafli, validate)
from .toroidal import TorusParams, build_toroidal_map, regular_quotient
from .gpr import (GprGraph, cayley_gpr, check_tau_relations, components,
                  facet_components_isomorphic, faithful_group, gpr_group,
                  rho_bar, rooted_digraph_isomorphic, verify_extension_criterion)
from .extend_db import (DbExtensionResult, Matching, build_matching,
                        extend_dually_bipartite)
from .two_s_m import TwoSM, build_two_s_m, verify_aut_structure
from .mix import (diamond, enantiomorph_generators,
                  intersection_property_group, is_regular_via_mix,
                  regular_quotient_extension)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
