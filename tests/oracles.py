"""Oracles shared by the test modules, independent of qgdrive."""

import math
import operator
from fractions import Fraction

import numpy as np


def kron2(a, b):
    """A (x) B of two 2x2 matrices as a 4x4 list of lists, by loops, with A
    on the high bit (clinalg's convention)."""
    out = [[0j] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for m in range(2):
                    out[2 * i + k][2 * j + m] = a[i][j] * b[k][m]
    return out


def mv(a, v):
    """The 4x4 matrix a times the 4-vector v, by loops."""
    return [sum(a[i][k] * v[k] for k in range(4)) for i in range(4)]


def csv_bytes(header, rows):
    """A CSV file's bytes by plain joins: the header line, then one
    ",".join(map(str, row)) line per row, each ending in LF, UTF-8."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def random_state(rng):
    """A normalized complex 4-vector with Gaussian components drawn from rng."""
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


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
    nearest float (ties to even): an IEEE 754 operation on float operands.
    A rounded result beyond the largest float is an infinity of its sign;
    an infinite or NaN operand takes Python's float arithmetic, which is
    IEEE's for +, -, * and for / by a nonzero divisor."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return op(x, y)
    exact = op(Fraction(x), Fraction(y))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def idm_accel_exact(v: float, gap, v_lead: float, v0: float, T: float, s0: float,
                    a: float, b: float) -> float:
    """IDM acceleration with exponent 4 as a chain of correctly rounded
    operations, one rounding per documented step, without libm or numpy:
    r = v/v0, r = r*r, free = 1 - r*r; free road gives a*free; a gap of
    0.1 m or less gives -b*4; otherwise s* = s0 + max(0, v*T + (v*(v -
    v_lead))/(2*sqrt(a*b))), q = s*/gap and a*(free - q*q). 2*sqrt(a*b) is
    rounded at each step too (sqrt is correctly rounded under IEEE 754)."""
    add, sub, mul, div = operator.add, operator.sub, operator.mul, operator.truediv
    r = _rounded(div, v, v0)
    r = _rounded(mul, r, r)
    free = _rounded(sub, 1.0, _rounded(mul, r, r))
    if gap is None:
        return _rounded(mul, a, free)
    if gap <= 0.1:
        return _rounded(mul, -b, 4.0)
    two_root_ab = _rounded(mul, 2.0, math.sqrt(_rounded(mul, a, b)))
    closing = _rounded(div, _rounded(mul, v, _rounded(sub, v, v_lead)), two_root_ab)
    dynamic = _rounded(add, _rounded(mul, v, T), closing)
    s_star = _rounded(add, s0, dynamic if dynamic > 0.0 else 0.0)
    q = _rounded(div, s_star, gap)
    return _rounded(mul, a, _rounded(sub, free, _rounded(mul, q, q)))


def idm_entry_max_rule(config, ev_s: float, ev_v: float, iv_s: float, iv_v: float,
                       t_accept: float, length: float) -> int:
    """The roundabout gap-acceptance entry rule as first written, with the
    builtin max for its two floors: enter (0) when the IV is past the
    conflict point (merge_point + lane_offset on its path), or arrives at
    constant speed, floored at 0.1 m/s, at least t_accept seconds after the
    EV, accelerating at a_nominal, has covered the distance to the yield
    line plus one vehicle length, `length`, floored at 0; otherwise yield
    (1)."""
    conflict = config.merge_point + config.lane_offset
    iv_dist = conflict - iv_s
    if iv_dist <= 0.0:
        return 0
    tau_iv = iv_dist / max(iv_v, 0.1)
    d = max(config.merge_point - ev_s + length, 0.0)
    a = config.a_nominal
    tau_ev = (-ev_v + math.sqrt(ev_v * ev_v + 2.0 * a * d)) / a
    return 0 if tau_iv - tau_ev >= t_accept else 1
