"""The two-qubit state convention: state vectors (quantum_game.state_vector),
the Kronecker product (clinalg.kron) and the tests' unitarity oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgdrive import clinalg
from qgdrive.quantum_game import state_norm, state_vector

from oracles import is_unitary, random_state


class TestConstructors:
    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            state_vector([1.0, 1.0, 0.0, 0.0])

    def test_state_vector_normalize_flag(self):
        v = state_vector([1.0, 1.0, 0.0, 0.0], normalize=True)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(v[0] - 1 / np.sqrt(2)) < 1e-12

    def test_state_vector_rejects_zero(self):
        with pytest.raises(ValueError, match="zero vector"):
            state_vector([0, 0, 0, 0], normalize=True)

    # every square of these underflows, so np.linalg.norm reads 0; the
    # vector is first scaled by a power of two, which keeps every bit
    @pytest.mark.parametrize("tiny", [1e-200, 5e-324])
    def test_state_vector_normalizes_an_underflowing_norm(self, tiny):
        v = state_vector([tiny, 0, 1j * tiny, 0], normalize=True)
        assert v.tolist() == pytest.approx([2 ** -0.5, 0, 2 ** -0.5 * 1j, 0], abs=1e-15)
        if tiny == 5e-324:  # 2**-1074: the same bits as the unit-scale vector
            assert v.tobytes() == state_vector([1, 0, 1j, 0], normalize=True).tobytes()
        assert state_norm([tiny, 0, 0, 0]) == (tiny * 2.0**600, 2.0**600)

    # nonzero squares that are subnormal: the vector is scaled as above, so
    # it normalizes to the bits of its multiple by 2**600
    @pytest.mark.parametrize("tiny", [1e-155, 1e-160, 2.0**-512],
                             ids=["1e-155", "1e-160", "2**-512"])
    def test_state_vector_normalizes_subnormal_squares(self, tiny):
        amps = np.array([tiny, 0, 1j * tiny / 3, 0])
        v = state_vector(amps, normalize=True)
        assert v.tobytes() == state_vector(amps * 2.0**600, normalize=True).tobytes()

    def test_accepted_vectors_are_not_rescaled(self):
        for amps in ([1, 2j, 0.5, -1], [1e-150, 0, 0, 3e-151], [3, 4, 0, 0]):
            assert state_norm(amps) == (np.linalg.norm(np.asarray(amps, complex)), 1.0)
        # a norm of 2**-600 scales to 1.0, but the vector is not a unit one
        with pytest.raises(ValueError, match=r"norm .*e-181\) deviates from 1"):
            state_vector([2.0**-600, 0, 0, 0])

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
