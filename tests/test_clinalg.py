"""The two-qubit state convention: state vectors (quantum_game.state_vector),
the Kronecker product (clinalg.kron) and the tests' unitarity oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgdrive import clinalg
from qgdrive.quantum_game import state_vector

from oracles import is_unitary


def random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


class TestConstructors:
    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            state_vector([1.0, 1.0, 0.0, 0.0])

    def test_state_vector_normalize_flag(self):
        v = state_vector([1.0, 1.0, 0.0, 0.0], normalize=True)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(v[0] - 1 / np.sqrt(2)) < 1e-12

    def test_state_vector_rejects_zero(self):
        with pytest.raises(ValueError):
            state_vector([0, 0, 0, 0], normalize=True)

    @pytest.mark.parametrize("amps,normalize", [
        ([np.nan, 0, 0, 0], False),
        ([np.nan, 0, 1, 0], True),
        ([np.inf, 0, 0, 0], True),
        ([1e308, 0, 1e308, 0], True),  # finite amplitudes, overflowing norm
    ], ids=["nan", "nan-normalize", "inf", "overflow"])
    def test_state_vector_rejects_non_finite(self, amps, normalize):
        with pytest.raises(ValueError, match="finite"):
            state_vector(amps, normalize=normalize)


class TestAlgebra:
    def test_kron_matches_block_structure(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.complex128)
        b = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        k = clinalg.kron(a, b)
        assert k.shape == (4, 4)
        assert np.array_equal(k[:2, :2], 1 * b)
        assert np.array_equal(k[:2, 2:], 2 * b)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_kron_is_bit_identical_to_numpy(self, seed):
        rng = np.random.default_rng(seed)
        for shape in ((2, 2), (2,)):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            k = clinalg.kron(a, b)
            want = np.kron(a, b)
            assert k.shape == want.shape
            assert k.tobytes() == want.tobytes()

    def test_kron_rejects_mixed_ranks(self):
        with pytest.raises(ValueError, match="ranks 2 and 1"):
            clinalg.kron(np.eye(2), np.ones(2))

    def test_identity_is_unitary(self):
        assert is_unitary(np.eye(4))
        assert is_unitary(np.eye(2))

    def test_scaled_identity_is_not_unitary(self):
        assert not is_unitary(2 * np.eye(4))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_norm_preserved_by_unitary(self, seed):
        rng = np.random.default_rng(seed)
        # random unitary via QR; phases normalized for stability
        q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        v = random_state(rng)
        assert is_unitary(q, tol=1e-9)
        assert abs(np.linalg.norm(q @ v) - 1.0) < 1e-9
