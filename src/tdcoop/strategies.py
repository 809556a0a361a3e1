"""Transmission strategy descriptors.

A strategy fixes who cooperates with whom and which forwarding scheme is
used.  Canonical names:

    mac        time-division multiaccess, no cooperation
    rc-ddf     dedicated relay, dynamic decode-and-forward
    rc-af      dedicated relay, amplify-and-forward (half/half split)
    uc2-ddf    user cooperation, single relaying slot shared by all helpers
    uc2-af     user cooperation, amplify-and-forward (half/half split)
    ucN-ddf    user cooperation over N hops (N >= 3), greedy decode order
    ucN-af     user cooperation over N hops, fixed 1/N fractions

N >= 2 is written without leading zeros, so each scheme has one name.  The
name alone fixes the forwarding family (mac, ddf, af), the mode (mac,
rc, uc2, ucmh) and the trial kernel, so a strategy cannot describe one
scheme and run another.  Helper sets default to "all other users" and
are stored in ascending order, so a scheme compares equal (and draws the
same streams) whatever order its helpers were listed in.  N_k below is
the number of users that user k forwards for; it sets the burst power
via the time-sharing rule in the power module.
"""

from __future__ import annotations

import dataclasses
import numbers
import re
from dataclasses import dataclass, field

__all__ = ["Strategy", "parse_strategy"]

MULTIHOP_MODES = ("accumulating", "per-fraction")

_NAME_RE = re.compile(r"mac|rc-(ddf|af)|uc([2-9]|[1-9][0-9]+)-(ddf|af)")


def _is_int(x) -> bool:
    """A user id or count is an integer; a bool is not read as 0 or 1."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_num_users(num_users) -> None:
    if not _is_int(num_users) or num_users < 1:
        raise ValueError(f"num_users must be an integer >= 1, got {num_users!r}")


@dataclass(frozen=True)
class Strategy:
    """One simulated strategy over a K-user network.

    ``name`` is canonical (lower case, as listed above); ``family``,
    ``mode`` and ``kernel`` follow from it.  ``coop_sets[k-1]`` lists the
    helper users of user k (integer 1-based ids, stored sorted); ucN-*
    takes N - 1 helpers per user (any nonempty set under uc2-*), mac and
    the relay networks take none.  ``multihop_mode`` only affects ucN-ddf
    with N >= 3; every other strategy keeps the default, so equal physics
    compares equal.
    """

    name: str
    num_users: int
    coop_sets: tuple[tuple[int, ...], ...] = field(default=())
    multihop_mode: str = "accumulating"
    family: str = field(init=False, compare=False, repr=False)  # "mac" | "ddf" | "af"
    mode: str = field(init=False, compare=False, repr=False)  # "mac" | "rc" | "uc2" | "ucmh"
    kernel: str = field(init=False, compare=False, repr=False)  # mc's trial kernel

    def __post_init__(self):
        m = _NAME_RE.fullmatch(self.name)
        if not m:
            raise ValueError(
                f"unknown strategy name {self.name!r}: expected mac, rc-ddf, rc-af, "
                "ucN-ddf or ucN-af (N >= 2, no leading zero)"
            )
        relay_family, hops, user_family = m.groups()
        if hops is None:
            family = relay_family or "mac"
            mode = "rc" if relay_family else "mac"
        else:
            family, mode = user_family, "uc2" if hops == "2" else "ucmh"
        if family == "af":
            kernel = "afmh" if mode == "ucmh" else "af2"
        else:
            kernel = "mac" if mode == "mac" else f"{mode}-ddf"
        for attr, value in (("family", family), ("mode", mode), ("kernel", kernel)):
            object.__setattr__(self, attr, value)
        _check_num_users(self.num_users)
        if self.multihop_mode not in MULTIHOP_MODES:
            raise ValueError(f"multihop_mode must be one of {MULTIHOP_MODES}")
        if self.multihop_mode != MULTIHOP_MODES[0] and kernel != "ucmh-ddf":
            raise ValueError(f"{self.name} takes no multihop_mode (only ucN-ddf, N >= 3)")
        if hops is None and self.coop_sets:
            raise ValueError(f"{self.name} takes no coop_sets")
        if hops is not None and len(self.coop_sets) != self.num_users:
            raise ValueError("coop_sets must list helpers for every user")
        if not all(_is_int(j) for helpers in self.coop_sets for j in helpers):
            raise ValueError(f"helper ids must be integers, got {self.coop_sets}")
        sets = tuple(tuple(sorted(map(int, helpers))) for helpers in self.coop_sets)
        object.__setattr__(self, "coop_sets", sets)
        for k, helpers in enumerate(sets, start=1):
            if len(helpers) == 0:
                raise ValueError(f"user {k} has an empty helper set")
            if k in helpers or len(set(helpers)) != len(helpers):
                raise ValueError(f"invalid helper set for user {k}: {helpers}")
            bad = [j for j in helpers if not 1 <= j <= self.num_users]
            if bad:
                raise ValueError(f"helper ids out of range for user {k}: {bad}")
            if mode == "ucmh" and len(helpers) != int(hops) - 1:
                raise ValueError(
                    f"strategy {self.name!r} implies {hops} hops but user {k} "
                    f"has {len(helpers)} helpers"
                )

    @property
    def uses_relay(self) -> bool:
        return self.mode == "rc"

    @property
    def branches(self) -> int:
        """L: the largest number of branches into the destination, the
        source plus its forwarders (the relay, or its helper users)."""
        return 2 if self.uses_relay else 1 + max(map(len, self.coop_sets), default=0)

    def helpers(self, k: int) -> tuple[int, ...]:
        """Helper users of user k (empty for mac / relay networks)."""
        return self.coop_sets[k - 1] if self.coop_sets else ()

    def num_forwarded(self, j: int) -> int:
        """N_j: how many users does user j forward for."""
        return sum(1 for helpers in self.coop_sets for h in helpers if h == j)


def parse_strategy(
    name: str,
    num_users: int,
    coop_sets=None,
    multihop_mode: str = "accumulating",
) -> Strategy:
    """Build a Strategy from a strategy name in any case and spacing.

    ``coop_sets`` overrides the all-others default for the uc modes (mac
    and rc-* take none); it is a mapping {user -> iterable of helpers},
    whose keys must be users 1..K, or a full tuple-of-tuples.
    ``multihop_mode`` is checked for every name, but only ucN-ddf (N >= 3)
    keeps it.
    """
    _check_num_users(num_users)
    token, users = name.strip().lower(), range(1, num_users + 1)
    if coop_sets is None:
        others = [[j for j in users if j != k] for k in users]
        coop_sets = others if token.startswith("uc") else ()
    elif isinstance(coop_sets, dict):
        unknown = [key for key in coop_sets if not _is_int(key) or key not in users]
        if unknown:
            raise ValueError(f"coop_sets keys {unknown} are not users 1..{num_users}")
        coop_sets = [coop_sets.get(k, ()) for k in users]
    strategy = Strategy(name=token, num_users=num_users, coop_sets=coop_sets)
    if multihop_mode not in MULTIHOP_MODES:
        raise ValueError(f"multihop_mode must be one of {MULTIHOP_MODES}")
    if strategy.kernel == "ucmh-ddf":
        return dataclasses.replace(strategy, multihop_mode=multihop_mode)
    return strategy
