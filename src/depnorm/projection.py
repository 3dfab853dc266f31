"""Random low-dimensional projections: 2-d data onto a line, 3-d data onto a
plane, and in-plane rotations of 2-d data.

Angle conventions: a scalar direction is (sin(phi), cos(phi)) with phi
uniform on [0, pi); a plane is tilted from the z axis by theta in
(-pi/2, pi/2) and carries an in-plane angle phi from the x axis. These
reproduce the angle parameterization used by the experiment protocol as-is
(it is not Haar-uniform over planes, and no Jacobian correction is applied).

The samplers take numpy's ``size``: ``size=m`` draws m projections in one
call, from the same generator stream and with the same values as m scalar
calls. The angles are then arrays, and ``vector``, ``basis`` and
``rotation_matrix`` give one basis per angle, with the basis axes last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Direction1D",
    "Plane2D",
    "rotation_matrix",
    "sample_direction",
    "sample_plane",
    "sample_rotation",
]


@dataclass(frozen=True)
class Direction1D:
    phi: float | np.ndarray

    def vector(self) -> np.ndarray:
        """Unit vector (sin(phi), cos(phi)), shape phi.shape + (2,)."""
        return np.stack([np.sin(self.phi), np.cos(self.phi)], axis=-1)


@dataclass(frozen=True)
class Plane2D:
    theta: float | np.ndarray
    phi: float | np.ndarray

    def basis(self) -> np.ndarray:
        """Orthonormal 2 x 3 basis of the plane, shape theta.shape + (2, 3)
        (theta and phi share a shape).

        Row u1 lies in the xy plane at angle phi from the x axis; row u2
        completes it under the tilt theta. u1 . u2 = 0 and both have unit
        norm for any angles.
        """
        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        return np.stack([np.stack([cp, sp, np.zeros_like(cp)], axis=-1),
                         np.stack([-st * sp, st * cp, ct], axis=-1)], axis=-2)


def rotation_matrix(phi: float | np.ndarray) -> np.ndarray:
    """Rotation [[cos, sin], [-sin, cos]] by phi, shape phi.shape + (2, 2)."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)], axis=-2)


def sample_direction(gen: np.random.Generator, size: int | None = None) -> Direction1D:
    return Direction1D(gen.uniform(0.0, np.pi, size=size))


def sample_plane(gen: np.random.Generator, size: int | None = None) -> Plane2D:
    """A random plane; with ``size``, that many planes, their angles drawn
    (theta, phi) plane by plane from the stream."""
    shape = () if size is None else (size,)
    angles = gen.uniform((-np.pi / 2, 0.0), (np.pi / 2, np.pi), size=shape + (2,))
    return Plane2D(angles[..., 0], angles[..., 1])


def sample_rotation(gen: np.random.Generator, size: int | None = None) -> float | np.ndarray:
    """A random in-plane rotation angle, uniform on [0, pi); an array of
    them with ``size``."""
    return gen.uniform(0.0, np.pi, size=size)
