"""Exact engine for Eulerian numbers of Coxeter types A/B/D,
their q-analogues, and Worpitzky-type identities over signed and
even-signed permutations."""

from .bernoulli import bernoulli_number, bernoulli_poly_eval, power_sum, worpitzky_d_lhs
from .eulerian import EulerianRow, eulerian_row, eulerian_row_a, eulerian_row_b_q, eulerian_row_d_q
from .exactnum import QPolynomial, binom
from .map_b import (
    FiberReport,
    IdentityReport,
    phi,
    phi_fibers,
    verify_worpitzky_a,
    verify_worpitzky_b,
)
from .map_d import (
    MapOutcome,
    MissingCensus,
    erratum_report_d,
    fiber_counts,
    fiber_report,
    fiber_reports,
    fiber_size,
    fiber_vectors,
    missing_census,
    printed_case_weights_q,
    printed_lhs_d_q,
    psi,
    psi_fibers,
    verify_balance_d_q,
    verify_worpitzky_d_q1,
)
from .signed_perm import SignedPermutation, enumerate_bn, enumerate_dn
from .sigma_vectors import (
    enumerate_vectors,
    neg2_vec,
    neg_vec,
    order_key,
    total_weight_neg,
    total_weight_neg2,
)

__all__ = [
    "EulerianRow",
    "FiberReport",
    "IdentityReport",
    "MapOutcome",
    "MissingCensus",
    "QPolynomial",
    "SignedPermutation",
    "bernoulli_number",
    "bernoulli_poly_eval",
    "binom",
    "enumerate_bn",
    "enumerate_dn",
    "enumerate_vectors",
    "erratum_report_d",
    "eulerian_row",
    "eulerian_row_a",
    "eulerian_row_b_q",
    "eulerian_row_d_q",
    "fiber_counts",
    "fiber_report",
    "fiber_reports",
    "fiber_size",
    "fiber_vectors",
    "missing_census",
    "neg2_vec",
    "neg_vec",
    "order_key",
    "phi",
    "phi_fibers",
    "power_sum",
    "printed_case_weights_q",
    "printed_lhs_d_q",
    "psi",
    "psi_fibers",
    "total_weight_neg",
    "total_weight_neg2",
    "verify_balance_d_q",
    "verify_worpitzky_a",
    "verify_worpitzky_b",
    "verify_worpitzky_d_q1",
    "worpitzky_d_lhs",
]

__version__ = "0.1.0"
