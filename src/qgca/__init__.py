"""Exact-arithmetic toolkit for quasigroup cellular automata: Latin-square
algebra, word dynamics, cylinder measures, and endomorphic-CA analysis."""

from .quasigroup import (Quasigroup, builtin, builtin_from_spec, dual,
                         is_associative, subquasigroups, validate_latin)
from .automaton import (LocalRule, dual_rule, fiber_preimages, from_quasigroup,
                        is_bipermutative, is_left_permutative,
                        is_right_permutative, orbit_period, recode_block,
                        step, step_periodic, tau, xi, xi_inverse)
from .measure import (BernoulliMeasure, CylinderMeasure, MarkovMeasure,
                      OrbitMeasure, ProductMeasure, UniformMeasure,
                      block_entropy, conditional_dist, coset_measure_check,
                      entropy_profile, entropy_rate_profile, eval_cylinder,
                      example11, fiber_spectrum, invariance_report,
                      pushforward_ca, pushforward_shift, support_alphabet)
from .groups import (GroupTable, cyclic_group, elementary_abelian_group,
                     from_quasigroup as group_from_quasigroup, group_product,
                     nonabelian21_group, quaternion_group)
from .matfp import (MatrixFp, char_poly, char_roots, companion_matrix,
                    invariant_subspaces, min_poly, rcf)
from .eca import (AffineDecomposition, KernelReport, LemmaAuditReport,
                  affine_matrix_system, affine_rho, decompose_affine, h_max,
                  invariant_subgroups, kernel, lemma_audit, rho_orbits,
                  subgroups)

__version__ = "0.1.0"
