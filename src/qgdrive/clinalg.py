"""Complex linear algebra for the two-qubit engine.

Convention used everywhere in this package: a two-qubit state is a length-4
complex vector ordered (s00, s01, s10, s11), where the first index is player
A's qubit (ego vehicle) and the second is player B's (interacting vehicle).
Player A therefore occupies the high bit: amplitude index = 2*a + b.

Arrays are numpy complex128 throughout; operators are 2x2 or 4x4.
"""

from __future__ import annotations

import numpy as np


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the A-high-bit ordering: index 2i+k, 2j+l.

    a and b are vectors or matrices of the same rank; each entry is the one
    product a[i, j] * b[k, l], as in np.kron, without its general-rank setup.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError(f"kron needs two vectors or two matrices, got ranks {a.ndim} and {b.ndim}")
    if a.ndim == 1:
        return (a[:, None] * b).reshape(-1)
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)
