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
    """Kronecker product of two 2x2 operators with the A-high-bit ordering:
    entry (2i+k, 2j+l) is the one product a[i, j] * b[k, l], as in np.kron."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
