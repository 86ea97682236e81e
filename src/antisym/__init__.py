"""Exact entanglement bounds for the d x d antisymmetric state.

Subpackages: exact rational linear algebra (``linalg``), partitions and Schur
polynomials (``young``), explicit four-factor operators (``projectors``),
the exact simplex and symmetry-reduced programmes (``simplex``,
``programs``), bound calculators and the floating see-saw oracle
(``bounds``, ``seesaw``) and the command-line frontend (``cli``).
"""

from .bounds import (BoundReport, continuity_bound, cost_lower_bound,
                     extension_cmi, purity_seesaw, relent_lower_bound,
                     relent_ppt_value, squashed_upper_bound)
from .linalg import Rational, SparseRMatrix
from .programs import (DINF, analytic_dual_point, build_dual,
                       build_purity_bound, dual_coeff, solve_dual,
                       solve_purity_bound)
from .projectors import (invariant_projectors, overlap_closed_forms,
                         perm_operator, ppt_overlap_table,
                         symbolic_overlap_table, young_state)
from .simplex import LPProblem, LPSolution, simplex_solve
from .young import (plethysm_check, plethysm_dimensions, schur_eval,
                    ssyt_count, weyl_dimension)

__version__ = "0.1.0"
