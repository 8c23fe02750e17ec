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
    """Kronecker product with the A-high-bit ordering: index 2i+k, 2j+l.

    a and b are vectors or matrices of the same rank; each entry is the one
    product a[i, j] * b[k, l], as in np.kron, without its general-rank setup.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError(f"kron needs two vectors or two matrices, got ranks {a.ndim} and {b.ndim}")
    outer = np.multiply.outer(a, b)
    if a.ndim == 2:
        outer = outer.transpose(0, 2, 1, 3)
    return outer.reshape([m * n for m, n in zip(a.shape, b.shape)])


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=np.complex128).conj().T


def norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=np.complex128)))


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    """True if m^dagger m = I within tol (max absolute entry deviation)."""
    m = np.asarray(m, dtype=np.complex128)
    eye = np.eye(m.shape[0], dtype=np.complex128)
    return bool(np.max(np.abs(dagger(m) @ m - eye)) <= tol)


def state_vector(amplitudes, normalize: bool = False) -> np.ndarray:
    """Validate (or normalize) a length-4 amplitude vector.

    The amplitudes and their norm must be finite. With normalize=False the
    norm must already be 1 within 1e-9; with normalize=True any nonzero
    vector is rescaled to unit norm.
    """
    v = np.asarray(amplitudes, dtype=np.complex128)
    if v.shape != (4,):
        raise ValueError(f"state vector must have 4 amplitudes, got shape {v.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        n = np.linalg.norm(v)
    if not np.isfinite(n):
        raise ValueError(f"state vector amplitudes and norm must be finite, got norm {float(n)}")
    if normalize:
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return v / n
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"state vector norm {n!r} deviates from 1 by more than 1e-9")
    return v
