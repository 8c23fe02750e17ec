"""Complex linear algebra for the two-qubit engine.

Convention used everywhere in this package: a two-qubit state is a length-4
complex vector ordered (s00, s01, s10, s11), where the first index is player
A's qubit (ego vehicle) and the second is player B's (interacting vehicle).
Player A therefore occupies the high bit: amplitude index = 2*a + b.

Arrays are numpy complex128 throughout; operators are 2x2 or 4x4.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
I4 = np.eye(4, dtype=np.complex128)


def mat(*rows) -> np.ndarray:
    """Build a complex matrix from row tuples."""
    return np.array(rows, dtype=np.complex128)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the A-high-bit ordering: index 2i+k, 2j+l."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=np.complex128).conj().T


def apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply operator m to state vector v."""
    return np.asarray(m, dtype=np.complex128) @ np.asarray(v, dtype=np.complex128)


def norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=np.complex128)))


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    """True if m^dagger m = I within tol (max absolute entry deviation)."""
    m = np.asarray(m, dtype=np.complex128)
    eye = np.eye(m.shape[0], dtype=np.complex128)
    return bool(np.max(np.abs(dagger(m) @ m - eye)) <= tol)


def state_vector(amplitudes, tol: float = 1e-9, normalize: bool = False) -> np.ndarray:
    """Validate (or normalize) a length-4 amplitude vector.

    With normalize=False the norm must already be 1 within tol; with
    normalize=True any nonzero vector is rescaled to unit norm.
    """
    v = np.asarray(amplitudes, dtype=np.complex128)
    if v.shape != (4,):
        raise ValueError(f"state vector must have 4 amplitudes, got shape {v.shape}")
    n = np.linalg.norm(v)
    if normalize:
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return v / n
    if abs(n - 1.0) > tol:
        raise ValueError(f"state vector norm {n!r} deviates from 1 by more than {tol}")
    return v
