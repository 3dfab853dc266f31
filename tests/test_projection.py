import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depnorm import (
    Direction1D,
    Plane2D,
    RngStream,
    TimeSeriesSample,
    rotation_matrix,
    sample_covariance,
    sample_direction,
    sample_plane,
    sample_rotation,
)


def _random_sample(p, n, seed):
    return TimeSeriesSample(RngStream(seed).generator().standard_normal((p, n)))


class TestProject1D:
    def test_axis_alignment(self):
        x = _random_sample(2, 30, 1)
        np.testing.assert_array_equal(Direction1D(0.0).vector() @ x.data, x.data[1])
        np.testing.assert_allclose(
            Direction1D(np.pi / 2).vector() @ x.data, x.data[0], atol=1e-12
        )

    def test_diagonal(self):
        x = TimeSeriesSample([[1.0, 1.0], [1.0, 1.0]])
        y = Direction1D(np.pi / 4).vector() @ x.data
        np.testing.assert_allclose(y, np.sqrt(2.0) * np.ones(2))

    def test_linearity(self):
        a = _random_sample(2, 50, 3)
        b = _random_sample(2, 50, 4)
        v = Direction1D(1.234).vector()
        combo = TimeSeriesSample(2.5 * a.data - 0.5 * b.data)
        np.testing.assert_allclose(
            v @ combo.data,
            2.5 * (v @ a.data) - 0.5 * (v @ b.data),
            atol=1e-12,
        )


class TestProject2D:
    def test_axis_aligned_planes(self):
        x = _random_sample(3, 40, 5)
        y = Plane2D(0.0, 0.0).basis() @ x.data
        np.testing.assert_allclose(y[0], x.data[0], atol=1e-15)
        np.testing.assert_allclose(y[1], x.data[2], atol=1e-15)
        y = Plane2D(0.0, np.pi / 2).basis() @ x.data
        np.testing.assert_allclose(y[0], x.data[1], atol=1e-12)
        np.testing.assert_allclose(y[1], x.data[2], atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-np.pi / 2, np.pi / 2), st.floats(0.0, np.pi))
    def test_basis_orthonormal(self, theta, phi):
        basis = Plane2D(theta, phi).basis()
        gram = basis @ basis.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)


class TestRotation:
    def test_rotation_matrix_orthogonal(self):
        r = rotation_matrix(0.77)
        np.testing.assert_allclose(r @ r.T, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(np.linalg.det(r), 1.0, atol=1e-15)

    def test_zero_rotation_is_identity(self):
        x = _random_sample(2, 20, 7)
        np.testing.assert_array_equal(rotation_matrix(0.0) @ x.data, x.data)


class TestAngleSampling:
    def test_direction_uniform(self):
        gen = RngStream(9).generator()
        phis = np.array([sample_direction(gen).phi for _ in range(100_000)])
        assert np.all((phis >= 0) & (phis < np.pi))
        se = np.pi / np.sqrt(12 * phis.size)
        assert abs(phis.mean() - np.pi / 2) < 3 * se

    def test_plane_angles_uniform(self):
        gen = RngStream(10).generator()
        planes = [sample_plane(gen) for _ in range(100_000)]
        thetas = np.array([pl.theta for pl in planes])
        assert np.all((thetas >= -np.pi / 2) & (thetas < np.pi / 2))
        se = np.pi / np.sqrt(12 * thetas.size)
        assert abs(thetas.mean()) < 3 * se

    def test_rotation_angle_range(self):
        gen = RngStream(11).generator()
        angles = np.array([sample_rotation(gen) for _ in range(1000)])
        assert np.all((angles >= 0) & (angles < np.pi))

    def test_deterministic(self):
        a = sample_plane(RngStream(12).generator())
        b = sample_plane(RngStream(12).generator())
        assert a == b


class TestEnergyBound:
    def test_projection_variance_bounded_by_top_eigenvalue(self):
        x = _random_sample(2, 400, 13)
        lam_max = np.linalg.eigvalsh(sample_covariance(x)).max()
        gen = RngStream(14).generator()
        for _ in range(50):
            y = sample_direction(gen).vector() @ x.data
            assert y.var() <= lam_max + 1e-10


class TestBatchedDraws:
    """``size`` draws every angle from the stream in scalar-call order, and
    the bases broadcast over the angles with the basis axes last."""

    @staticmethod
    def _same(batched, looped):
        looped = np.asarray(looped)
        assert batched.shape == looped.shape
        assert batched.tobytes() == looped.tobytes()

    @pytest.mark.parametrize("size", [1, 2, 17, 500])
    def test_directions(self, size):
        gen = RngStream(15).generator()
        looped = [sample_direction(gen) for _ in range(size)]
        batched = sample_direction(RngStream(15).generator(), size)
        self._same(batched.phi, [d.phi for d in looped])
        self._same(batched.vector(), [d.vector() for d in looped])

    @pytest.mark.parametrize("size", [1, 2, 17, 500])
    def test_planes(self, size):
        # The oracle is the scalar protocol: theta, then phi, one plane at a
        # time, and the basis written out element by element.
        gen = RngStream(16).generator()
        angles = [(gen.uniform(-np.pi / 2, np.pi / 2), gen.uniform(0.0, np.pi))
                  for _ in range(size)]
        bases = [[[np.cos(phi), np.sin(phi), 0.0],
                  [-np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi), np.cos(theta)]]
                 for theta, phi in angles]
        batched = sample_plane(RngStream(16).generator(), size)
        self._same(batched.theta, [theta for theta, _ in angles])
        self._same(batched.phi, [phi for _, phi in angles])
        self._same(batched.basis(), bases)

    @pytest.mark.parametrize("size", [1, 2, 17, 500])
    def test_rotations(self, size):
        gen = RngStream(17).generator()
        looped = [sample_rotation(gen) for _ in range(size)]
        batched = sample_rotation(RngStream(17).generator(), size)
        self._same(batched, looped)
        self._same(rotation_matrix(batched), [rotation_matrix(phi) for phi in looped])

    def test_stream_continues_after_a_batch(self):
        gen, ref = RngStream(18).generator(), RngStream(18).generator()
        sample_plane(gen, 7)
        for _ in range(7):
            sample_plane(ref)
        assert sample_plane(gen) == sample_plane(ref)

    def test_scalar_shapes(self):
        gen = RngStream(19).generator()
        assert sample_direction(gen).vector().shape == (2,)
        assert sample_plane(gen).basis().shape == (2, 3)
        assert rotation_matrix(sample_rotation(gen)).shape == (2, 2)
