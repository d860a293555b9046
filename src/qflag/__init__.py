"""Quaternionic flag-manifold geometry.

Unitary quaternion groups, coset coordinates with their linear fractional
action, invariant metric and curvature, exact Lie-algebra operator calculus,
Laplace-Beltrami solutions on the 4-sphere, and the quaternionic Maxwell
decomposition.
"""

from .quaternion import (BASIS, E, I, J, K, Quaternion, from_m2c, j_conjugate,
                         random_quaternion, random_unit_quaternion, to_m2c)
from .quatmat import (GroupElement, QuatMatrix, block_matrix,
                      eigvals_hyperhermitian, expm, func_hermitian,
                      random_group_element, random_quatmat,
                      random_skew_adjoint, to_sp2nc)
from .coset import (GrassmannPoint, coset_element, cross_ratio, curvature_det,
                    curvature_trace, grassmann_from_coset, haar_average,
                    lft_apply, lft_apply_second_form, metric_form,
                    metric_form_expanded, transport_identities)
from .forms import (connection_blocks, curvature_blocks, dY_wedge, hodge_star,
                    maurer_cartan_residual, wedge)
from .liealg import (DiffOperator, PolyFunction, commutator, ladder_check,
                     laplace_beltrami, verify_commutation_table)
from .s4lb import (RadialSolution, angular_jet, angular_metric, einstein_check,
                   fs_jet, fs_metric, lb_radial_residual, make_f0, make_gl)
from .emfield import (FieldDecomposition, QPolyField, RealPoly, apply_pstar,
                      decompose, quaternion_product_identity)
from .dynamics import (StateVector, cocycle_residual, evolve, geodesic_block,
                       time_reversal_residual, transition_split)
from .roots import (ParticleLabel, RootSystem, embed_check,
                    euler_characteristic, generate, particle_label)

__version__ = "0.1.0"
