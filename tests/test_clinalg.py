import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgdrive import clinalg


def random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


class TestConstructors:
    def test_mat_builds_complex_matrix(self):
        m = clinalg.mat((1, 2), (3, 4))
        assert m.dtype == np.complex128
        assert m.shape == (2, 2)
        assert m[1, 0] == 3

    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            clinalg.state_vector([1.0, 1.0, 0.0, 0.0])

    def test_state_vector_normalize_flag(self):
        v = clinalg.state_vector([1.0, 1.0, 0.0, 0.0], normalize=True)
        assert abs(clinalg.norm(v) - 1.0) < 1e-12
        assert abs(v[0] - 1 / np.sqrt(2)) < 1e-12

    def test_state_vector_rejects_zero(self):
        with pytest.raises(ValueError):
            clinalg.state_vector([0, 0, 0, 0], normalize=True)


class TestAlgebra:
    def test_kron_matches_block_structure(self):
        a = clinalg.mat((1, 2), (3, 4))
        b = clinalg.mat((0, 1), (1, 0))
        k = clinalg.kron(a, b)
        assert k.shape == (4, 4)
        assert np.array_equal(k[:2, :2], 1 * b)
        assert np.array_equal(k[:2, 2:], 2 * b)

    def test_dagger_is_conjugate_transpose(self):
        m = clinalg.mat((1j, 2), (3, 4j))
        d = clinalg.dagger(m)
        assert d[0, 1] == 3
        assert d[0, 0] == -1j

    def test_apply_matches_matmul(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = random_state(rng)
        assert np.allclose(clinalg.apply(m, v), m @ v)

    def test_identity_is_unitary(self):
        assert clinalg.is_unitary(clinalg.I4)
        assert clinalg.is_unitary(clinalg.I2)

    def test_scaled_identity_is_not_unitary(self):
        assert not clinalg.is_unitary(2 * clinalg.I4)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_norm_preserved_by_unitary(self, seed):
        rng = np.random.default_rng(seed)
        # random unitary via QR; phases normalized for stability
        q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        v = random_state(rng)
        assert abs(clinalg.norm(clinalg.apply(q, v)) - 1.0) < 1e-9
