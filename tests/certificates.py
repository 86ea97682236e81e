"""What certifies each printed row: a table from (command, quantity pattern)
to the row's certificate kind and the ``antisym`` function that checks it.

A pattern is an ``fnmatch`` pattern, so ``cmi_k*`` covers one row per
extension size and ``delta_*`` one per dual weight.  Every row that a byte
golden or a README example prints must match exactly one entry.
"""

from fnmatch import fnmatchcase

LP_OPTIMUM = "certified LP optimum"
CLOSED_FORM = "exact closed form checked against a second route"
DUAL_POINT = "exact dual point"
UNCERTIFIED = "uncertified"

VERIFY_CHECKS = (
    "plethysm_dimensions", "plethysm_characters", "projector_group_algebra",
    "projector_traces", "flip_expectations", "pair_flip_signs",
    "transpose_overlaps_(symbolic)", "projector_matrices_(restricted)",
    "reduced_pair_states", "invariant_projectors",
    "transpose_overlaps_(matrix)")

# (command, quantity pattern) -> (kind, "module:function" that checks it)
CERTIFICATES = {
    ("squashed", "key_upper_bound"): (CLOSED_FORM,
                                      "bounds:squashed_upper_bound"),
    ("squashed", "argmin_k"): (CLOSED_FORM, "bounds:squashed_upper_bound"),
    ("squashed", "cmi_k*"): (CLOSED_FORM, "bounds:extension_cmi"),
    ("lp primal", "purity_bound"): (LP_OPTIMUM, "simplex:_certify"),
    # ec_lower/er_lower bound E_F(rho^{x n})/n, not the regularised measures
    ("lp primal", "ec_lower"): (LP_OPTIMUM, "simplex:_certify"),
    ("lp primal", "er_lower"): (LP_OPTIMUM, "simplex:_certify"),
    ("lp primal", "dual_value"): (LP_OPTIMUM, "programs:dual_value"),
    ("lp dual", "dual_bound_z"): (DUAL_POINT, "programs:analytic_dual_point"),
    ("lp dual", "feasible"): (DUAL_POINT, "programs:analytic_dual_point"),
    ("lp dual", "delta_*"): (DUAL_POINT, "programs:analytic_dual_point"),
    **{("verify rep", check): (CLOSED_FORM, "cli:_verification_checks")
       for check in VERIFY_CHECKS},
    ("bounds", "kd_upper"): (CLOSED_FORM, "bounds:squashed_upper_bound"),
    ("bounds", "ec_lower_lp"): (LP_OPTIMUM, "simplex:_certify"),
    ("bounds", "ec_lower_analytic"): (DUAL_POINT,
                                      "bounds:analytic_cost_bound"),
    ("bounds", "er_lower_lp"): (LP_OPTIMUM, "simplex:_certify"),
    ("bounds", "er_lower_analytic"): (DUAL_POINT,
                                      "bounds:analytic_cost_bound"),
    ("bounds", "er_ppt_reference"): (UNCERTIFIED, "bounds:relent_ppt_value"),
    ("purity", "purity_seesaw"): (UNCERTIFIED, "seesaw:purity_seesaw"),
    ("purity", "purity_lp_bound"): (LP_OPTIMUM, "simplex:_certify"),
    # a float comparison of the see-saw estimate with 1e-6 slack
    ("purity", "sandwich_ok"): (UNCERTIFIED, "seesaw:purity_seesaw"),
}


def entries_for(command: str, quantity: str) -> list[tuple[str, str]]:
    """The table keys whose command is ``command`` and whose pattern
    matches ``quantity``."""
    return [key for key in CERTIFICATES
            if key[0] == command and fnmatchcase(quantity, key[1])]


def unmapped(command: str, quantities) -> list[str]:
    """The quantities of ``command`` that match no entry, or more than one."""
    return [q for q in quantities if len(entries_for(command, q)) != 1]
