"""Spectral thresholds, matching extendability and regular-factor checkers
for (bipartite) graphs, with machine-checkable certificates."""

from .graph import (Graph, GraphError, complete, complete_bipartite,
                    component_masks, cycle, disjoint_union, empty,
                    from_edges, graph6_decode, graph6_encode,
                    infer_bipartition, is_connected, join)
from .spectra import (ConvergenceError, Partition, QuotientMatrix,
                      SpectralResult, adjacency_matrix, degree_sum_identity,
                      fms_bound, full_spectrum, quotient, refine_equitable,
                      rho_dense, spectral_radius, sqrt_m_bound)
from .matchfactor import (Certificate, FactorSpec, Matching,
                          decompose_edge_disjoint_pms, find_k_factor_flow,
                          hamiltonian_cycle, has_f_factor_ore,
                          has_perfect_matching, is_k_extendable_chen,
                          is_k_extendable_definitional,
                          is_k_extendable_plummer, is_k_factor_critical,
                          max_matching_bipartite, max_matching_general,
                          validate_certificate)
from .families import (FAMILIES, FamilyParams, Threshold, construct_family,
                       extremal_hamilton, extremal_kext_bipartite,
                       extremal_kext_general, extremal_kfactor,
                       extremal_kfc, family_quotient, recognize,
                       threshold_F, threshold_rho)

__version__ = "0.1.0"
