"""The public surface of the ``antisym`` package."""

import antisym

PUBLIC = {
    "BoundReport", "DINF", "LPProblem", "LPSolution", "Rational",
    "SparseRMatrix", "analytic_cost_bound", "analytic_dual_point",
    "build_purity_bound", "cost_bound_from_purity", "extension_cmi",
    "invariant_projectors", "overlap_closed_forms", "plethysm_check",
    "plethysm_dimensions", "ppt_overlap_table", "purity_seesaw",
    "relent_lower_bound", "relent_ppt_value", "schur_eval", "simplex_solve",
    "solve_dual", "solve_purity_bound", "squashed_upper_bound", "ssyt_count",
    "symbolic_overlap_table", "weyl_dimension",
}


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from antisym import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC == set(antisym.__all__)
    assert len(antisym.__all__) == len(PUBLIC)
