"""Node geometry and the Rayleigh block-fading channel model.

The destination is the apex of a circular sector, at the origin; a fixed
relay sits inside the sector, and the K users are placed uniformly over
the sector area outside an exclusion radius around the destination
(uniform in area means the radial density is proportional to r).  Every
link (a, b) carries a proper complex Gaussian amplitude A with zero mean
and unit variance, constant per trial, so |A|^2 is a unit-mean
exponential.  The channel gain is H = A / d^(gamma/2) with d the link
distance; the trial kernels of the engine module draw the amplitudes.
A placement is its positions plus the one d^gamma table the sweep reads
(``NodePlacement.link_pow``), compares by identity, and refuses to exist
when any of its links has a d^gamma of 0 or past the float range.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryParams",
    "LinkRangeError",
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
    least 0.3 away from the destination, path-loss exponent 4.  The relay
    position is stored as a tuple of two floats, whatever pair held it.
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
        pos = self.relay_position
        if not (isinstance(pos, (tuple, list, np.ndarray)) and len(pos) == 2
                and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in pos)):
            raise ValueError(f"relay_position must be an (x, y) pair of numbers, got {pos!r}")
        object.__setattr__(self, "relay_position", tuple(map(float, pos)))
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
        if self.relay_position == (0.0, 0.0):
            raise ValueError(
                "relay_position must differ from the destination at the origin,"
                f" got {self.relay_position}"
            )


class LinkRangeError(ValueError):
    """A placement has a link whose d^gamma is 0 or past the float range."""


@dataclass(frozen=True, eq=False)
class NodePlacement:
    """Realised node coordinates plus their d^gamma table.

    Nodes are ordered destination, relay, u1..uK.  The placement keeps a
    copy of the positions, computes ``distance`` from it and builds the
    d^gamma table (``link_pow``) once, link by link in Python floats.
    Every link's d^gamma must be a positive, finite float, so a placement
    with two nodes at one point, or with a link so short or so long that
    its d^gamma underflows to 0 or overflows, raises ``LinkRangeError``.
    Placements compare and hash by identity, never by their positions.
    """

    params: GeometryParams
    positions: dict[str, tuple[float, float]]
    _pow: dict = field(init=False, repr=False)

    def __post_init__(self):
        ids = (DESTINATION, RELAY) + tuple(user_id(k) for k in range(1, self.params.num_users + 1))
        missing = [i for i in ids if i not in self.positions]
        if missing:
            raise ValueError(f"placement missing nodes: {missing}")
        object.__setattr__(self, "positions", dict(self.positions))
        pw = {a: dict.fromkeys(ids, 0.0) for a in ids}
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                try:
                    pw[a][b] = pw[b][a] = self._length(a, b) ** self.params.path_loss_exponent
                except OverflowError:
                    pw[a][b] = pw[b][a] = math.inf
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if not 0.0 < pw[a][b] < math.inf]
        if pairs:
            p = self.params
            raise LinkRangeError(
                f"sector_radius {p.sector_radius:g}, relay_position {p.relay_position} "
                f"and path_loss_exponent {p.path_loss_exponent:g} put the d^gamma of links "
                f"{pairs} at 0 or outside the float range"
            )
        object.__setattr__(self, "_pow", pw)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._pow)

    def distance(self, a: str, b: str) -> float:
        if a == b or not {a, b} <= self._pow.keys():
            raise ValueError(f"no link from {a!r} to {b!r} in this placement")
        return self._length(a, b)

    def _length(self, a: str, b: str) -> float:
        """dx*dx + dy*dy between two nodes' positions, then its square root."""
        (xa, ya), (xb, yb) = self.positions[a], self.positions[b]
        dx, dy = float(xa) - float(xb), float(ya) - float(yb)
        return math.sqrt(dx * dx + dy * dy)

    def link_pow(self) -> dict[str, dict[str, float]]:
        """The d^gamma table: ``link_pow()[a][b]`` is
        ``distance(a, b) ** path_loss_exponent`` in Python float power,
        and 0.0 for a == b; a power that overflows reads inf.  Built once
        with the placement; each call returns a fresh copy."""
        return {a: dict(row) for a, row in self._pow.items()}


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
        RELAY: params.relay_position,
    }
    for k in range(1, params.num_users + 1):
        positions[user_id(k)] = (
            float(radius[k - 1] * np.cos(angle[k - 1])),
            float(radius[k - 1] * np.sin(angle[k - 1])),
        )
    return NodePlacement(params=params, positions=positions)
