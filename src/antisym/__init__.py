"""Exact entanglement bounds for the d x d antisymmetric state.

Modules: exact rational linear algebra (``linalg``), partitions and Schur
polynomials (``young``), explicit four-factor operators (``projectors``),
the exact simplex and symmetry-reduced programmes (``simplex``,
``programs``), bound calculators and the floating see-saw oracle
(``bounds``, ``seesaw``) and the command-line frontend (``cli``).
"""

from .bounds import (BoundReport, analytic_cost_bound,
                     cost_bound_from_purity, extension_cmi,
                     relent_lower_bound, relent_ppt_value, squashed_upper_bound)
from .linalg import Rational, SparseRMatrix
from .programs import (DINF, analytic_dual_point, build_purity_bound,
                       solve_dual, solve_purity_bound)
from .projectors import (invariant_projectors, overlap_closed_forms,
                         ppt_overlap_table, symbolic_overlap_table)
from .seesaw import purity_seesaw
from .simplex import LPProblem, LPSolution, simplex_solve
from .young import (plethysm_check, plethysm_dimensions, schur_eval,
                    ssyt_count, weyl_dimension)

__all__ = [
    "BoundReport", "DINF", "LPProblem", "LPSolution", "Rational",
    "SparseRMatrix", "analytic_cost_bound", "analytic_dual_point",
    "build_purity_bound", "cost_bound_from_purity", "extension_cmi",
    "invariant_projectors", "overlap_closed_forms", "plethysm_check",
    "plethysm_dimensions", "ppt_overlap_table", "purity_seesaw",
    "relent_lower_bound", "relent_ppt_value", "schur_eval", "simplex_solve",
    "solve_dual", "solve_purity_bound", "squashed_upper_bound", "ssyt_count",
    "symbolic_overlap_table", "weyl_dimension",
]

__version__ = "0.1.0"
