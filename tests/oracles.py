"""Oracles shared by the test modules, independent of qgdrive."""

from fractions import Fraction

import numpy as np


def is_unitary(m, tol: float = 1e-12) -> bool:
    """True if m^dagger m = I within tol (max absolute entry deviation)."""
    m = np.asarray(m, dtype=np.complex128)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def _first_above(weights, u: float) -> int:
    """Index of the first weight whose running sum exceeds u, else the last."""
    total = 0.0
    for index, weight in enumerate(weights):
        total += weight
        if u < total:
            return index
    return len(weights) - 1


def inverse_cdf_joint(p, u_ev: float, u_iv: float) -> tuple[int, int]:
    """Joint action (j, k) for p = (p00, p01, p10, p11) by loops over the
    actions: j from the EV marginal at u_ev, then k from the IV conditional
    given j at u_iv; given a marginal of zero, each IV action has 0.5."""
    marginal = [p[0] + p[1], p[2] + p[3]]
    j = _first_above(marginal, u_ev)
    conditional = [p[2 * j + k] / marginal[j] if marginal[j] > 0.0 else 0.5 for k in (0, 1)]
    return j, _first_above(conditional, u_iv)


def _rounded(op, x, y) -> float:
    """x op y computed exactly over the rationals, then rounded once to the
    nearest float (ties to even): an IEEE 754 operation on float operands."""
    return float(op(Fraction(x), Fraction(y)))


def idm_accel_exact(v: float, gap, v_lead: float, p) -> float:
    """IDM acceleration with exponent 4 as a chain of correctly rounded
    operations, one rounding per documented step, without libm or numpy:
    r = v/v0, r = r*r, free = 1 - r*r; free road gives a*free; a gap of
    0.1 m or less gives -b*4; otherwise s* = s0 + max(0, v*T + (v*(v -
    v_lead))/two_sqrt_ab), q = s*/gap and a*(free - q*q). p supplies v0, T,
    s0, a, b and two_sqrt_ab, the per-parameter-set 2*sqrt(a*b) (sqrt is
    correctly rounded under IEEE 754 too)."""
    add, sub = Fraction.__add__, Fraction.__sub__
    mul, div = Fraction.__mul__, Fraction.__truediv__
    r = _rounded(div, v, p.v0)
    r = _rounded(mul, r, r)
    free = _rounded(sub, 1.0, _rounded(mul, r, r))
    if gap is None:
        return _rounded(mul, p.a, free)
    if gap <= 0.1:
        return _rounded(mul, -p.b, 4.0)
    closing = _rounded(div, _rounded(mul, v, _rounded(sub, v, v_lead)), p.two_sqrt_ab)
    dynamic = _rounded(add, _rounded(mul, v, p.T), closing)
    s_star = _rounded(add, p.s0, dynamic if dynamic > 0.0 else 0.0)
    q = _rounded(div, s_star, gap)
    return _rounded(mul, p.a, _rounded(sub, free, _rounded(mul, q, q)))
