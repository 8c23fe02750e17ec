"""Numpy oracles shared by the test modules, independent of qgdrive."""

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
