"""Hand-written answer table for every operation the generators emit.

Nothing here is computed by volform.  Each entry restates a fact of the
source paper or a verdict that a built-in scenario states for itself; the
benchmark compares volform's output against these values and counts every
mismatch as a failed operation.
"""

from __future__ import annotations

PASS = "PASS"
FAIL = "FAIL"
UNKNOWN = "UNKNOWN"

FULL_RING = "FULL_RING"
IDEAL_WITNESS = "IDEAL_WITNESS"

# --------------------------------------------------------------- kernels
# On p(x) + q(y) + x*y*z = 1 the shear dz kills exactly the polynomials in z
# (dy: in y, dx: in x).  Inside the ambient monomials of degree <= d that
# kernel is spanned by 1, g, ..., g**d, so kernel_spans(f, d, g, d + 1) passes.
KERNEL_GENERATOR = {"dz": "pz", "dy": "py", "dx": "px"}
KERNEL_STATUS = PASS


def kernel_dimension(bound: int) -> int:
    return bound + 1


# --------------------------------------------------------------- certify
# semicompat(a, b, d) without a stated verdict: a certificate found is PASS,
# none found is UNKNOWN.  sl2's shear pair spans the full ring (the scenario
# states FULL_RING); xm1:1 is SL2 in other names with the shears nu_y, nu_u,
# whose kernel products certify an ideal witness; for xm1:2 and xm1:3 the
# one-sided test finds no certificate at bounds 2..4.
SEMICOMPAT = {
    "sl2": (PASS, FULL_RING),
    "xm1:1": (PASS, IDEAL_WITNESS),
    "xm1:2": (UNKNOWN, UNKNOWN),
    "xm1:3": (UNKNOWN, UNKNOWN),
}

# ------------------------------------------------------------------ docs
# Every check a built-in scenario or its document twin states passes; the
# one exception is the semi-compatibility test of xm1:M for M >= 2, which is
# stated as UNKNOWN at bound 1.
SCENARIO_CHECK = PASS


def xm1_semicompat_status(m: int) -> str:
    return PASS if m == 1 else UNKNOWN


# z**k with k >= 2 is never a potential of the contraction of dz: the
# potential is z itself (up to sign) and d(z**k) = k*z**(k-1) dz differs.
CORRUPT_POTENTIAL = FAIL

# Determinant of the adjoint action: on the torus normalizer of SL2 it is 1
# on the diagonal torus and -1 on the other component (A0 and its rescalings);
# on the whole of sl2 it is 1 for every element.
SUBMODULAR_TORUS = 1
SUBMODULAR_REFLECTION = -1
SUBMODULAR_SL2 = 1


def exit_code(statuses) -> int:
    """CLI contract: 1 when any check FAILs or ERRORs, else 0."""
    return 1 if any(s in (FAIL, "ERROR") for s in statuses) else 0
