"""Random low-dimensional projections: 2-d data onto a line, 3-d data onto a
plane, and in-plane rotations of 2-d data.

Angle conventions: a scalar direction is (sin(phi), cos(phi)) with phi
uniform on [0, pi); a plane is tilted from the z axis by theta in
(-pi/2, pi/2) and carries an in-plane angle phi from the x axis. These
reproduce the angle parameterization used by the experiment protocol as-is
(it is not Haar-uniform over planes, and no Jacobian correction is applied).
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
    phi: float

    def vector(self) -> np.ndarray:
        return np.array([np.sin(self.phi), np.cos(self.phi)])


@dataclass(frozen=True)
class Plane2D:
    theta: float
    phi: float

    def basis(self) -> np.ndarray:
        """Orthonormal 2 x 3 basis of the plane.

        Row u1 lies in the xy plane at angle phi from the x axis; row u2
        completes it under the tilt theta. u1 . u2 = 0 and both have unit
        norm for any angles.
        """
        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        return np.array([[cp, sp, 0.0], [-st * sp, st * cp, ct]])


def rotation_matrix(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def sample_direction(gen: np.random.Generator) -> Direction1D:
    return Direction1D(gen.uniform(0.0, np.pi))


def sample_plane(gen: np.random.Generator) -> Plane2D:
    theta = gen.uniform(-np.pi / 2, np.pi / 2)
    phi = gen.uniform(0.0, np.pi)
    return Plane2D(theta, phi)


def sample_rotation(gen: np.random.Generator) -> float:
    """A random in-plane rotation angle, uniform on [0, pi)."""
    return gen.uniform(0.0, np.pi)
