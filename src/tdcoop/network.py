"""Node geometry and the Rayleigh block-fading channel model.

The destination is the apex of a circular sector, at the origin; a fixed
relay sits inside the sector, and the K users are placed uniformly over
the sector area outside an exclusion radius around the destination
(uniform in area means the radial density is proportional to r).  Every
link (a, b) carries a proper complex Gaussian amplitude A with zero mean
and unit variance, constant per trial, so |A|^2 is a unit-mean
exponential.  The channel gain is H = A / d^(gamma/2) with d the link
distance; the trial kernels of the engine module draw the amplitudes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryParams",
    "NodePlacement",
    "sample_placement",
]

DESTINATION = "d"
RELAY = "r"


def user_id(k: int) -> str:
    """Node id of user k (1-based)."""
    return f"u{k}"


@dataclass(frozen=True)
class GeometryParams:
    """Sector geometry and propagation constants.

    The destination is the sector's apex at the origin.  Defaults: unit
    sector radius, 60 degree opening, relay at (0.5, 0), users kept at
    least 0.3 away from the destination, path-loss exponent 4.
    """

    num_users: int = 3
    sector_radius: float = 1.0
    sector_angle: float = np.pi / 3
    exclusion_radius: float = 0.3
    relay_position: tuple[float, float] = (0.5, 0.0)
    path_loss_exponent: float = 4.0

    def __post_init__(self):
        k = self.num_users
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
            raise ValueError(f"num_users must be an integer >= 1, got {k!r}")
        for name in ("sector_radius", "sector_angle", "exclusion_radius", "path_loss_exponent",
                     "relay_position"):
            value = getattr(self, name)
            if not all(math.isfinite(v) for v in np.ravel(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sector_radius <= 0:
            raise ValueError("sector_radius must be positive")
        if not 0 < self.sector_angle <= 2 * np.pi:
            raise ValueError("sector_angle must lie in (0, 2*pi]")
        if not 0 <= self.exclusion_radius < self.sector_radius:
            raise ValueError(
                "exclusion_radius must be >= 0 and strictly smaller than sector_radius"
            )
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if tuple(map(float, self.relay_position)) == (0.0, 0.0):
            raise ValueError(
                "relay_position must differ from the destination at the origin,"
                f" got {self.relay_position}"
            )
        # Every link is at most 2 max(sector_radius, |relay|) long, and the
        # sweep raises each length to gamma with Python float power.
        relay = math.hypot(*self.relay_position)
        for d in (self.sector_radius, relay, 2.0 * max(self.sector_radius, relay)):
            try:
                in_range = 0.0 < float(d) ** self.path_loss_exponent < math.inf
            except OverflowError:
                in_range = False
            if not in_range:
                raise ValueError(
                    f"sector_radius {self.sector_radius:g}, relay_position "
                    f"{tuple(self.relay_position)} and path_loss_exponent "
                    f"{self.path_loss_exponent:g} put a link's d^gamma outside the float range"
                )


@dataclass(frozen=True)
class NodePlacement:
    """Realised node coordinates plus the derived distance matrix.

    Nodes are ordered destination, relay, u1..uK.  The distance matrix is
    symmetric with a zero diagonal and is precomputed once per placement;
    two nodes at distance 0 are rejected, as a link needs a positive length.
    """

    params: GeometryParams
    positions: dict[str, tuple[float, float]]
    _ids: tuple[str, ...] = field(init=False, repr=False)
    _dist: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = (DESTINATION, RELAY) + tuple(
            user_id(k) for k in range(1, self.params.num_users + 1)
        )
        missing = [i for i in ids if i not in self.positions]
        if missing:
            raise ValueError(f"placement missing nodes: {missing}")
        coords = np.array([self.positions[i] for i in ids], dtype=float)
        delta = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((delta**2).sum(axis=-1))
        if np.count_nonzero(dist) < len(ids) * (len(ids) - 1):
            pairs = [(ids[a], ids[b]) for a, b in zip(*np.nonzero(dist == 0)) if a < b]
            raise ValueError(f"nodes at the same point: {pairs}")
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_dist", dist)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self._ids

    def distance(self, a: str, b: str) -> float:
        if a == b:
            raise ValueError(f"no link from a node to itself: {a!r}")
        ia, ib = self._ids.index(a), self._ids.index(b)
        return float(self._dist[ia, ib])


def sample_placement(params: GeometryParams, rng: np.random.Generator) -> NodePlacement:
    """Draw one uniform-in-area user placement.

    The radius is drawn as sqrt(r0^2 + U * (R^2 - r0^2)) so the density is
    proportional to r over [r0, R]; the angle is uniform over the sector.
    The destination sits at the origin and the relay where the params
    put it.
    """
    u = rng.random(params.num_users)
    v = rng.random(params.num_users)
    r0sq = params.exclusion_radius**2
    radius = np.sqrt(r0sq + u * (params.sector_radius**2 - r0sq))
    angle = v * params.sector_angle
    positions = {
        DESTINATION: (0.0, 0.0),
        RELAY: tuple(map(float, params.relay_position)),
    }
    for k in range(1, params.num_users + 1):
        positions[user_id(k)] = (
            float(radius[k - 1] * np.cos(angle[k - 1])),
            float(radius[k - 1] * np.sin(angle[k - 1])),
        )
    return NodePlacement(params=params, positions=positions)
