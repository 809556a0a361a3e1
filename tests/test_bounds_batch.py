"""Batched analytic bounds equal the one-pair scalar formulas bit for bit.

The bound functions broadcast over a leading axis of rows, so a sweep
bounds one cell at every point of its SNR grid with one call.  The
``ref_*`` functions below are the one-pair formulas they replace, kept as
the reference: the same expressions in the same order on Python floats,
with the burst raised by Python's float power, 2^x - 1 taken on one
scalar at a time and the theta search a Python ``min`` in which a
bracket that overflows Python's float power counts as +inf.  Every
comparison is on the bytes of the float64 results.
"""

import math

import numpy as np
import pytest

from tdcoop import harness
from tdcoop.af import af_bounds_2hop, af_bounds_multihop
from tdcoop.ddf import (
    _THETA_GRID,
    BoundPair,
    _multihop_theta_vector,
    _pow2m1,
    ddf_bounds_multihop,
    ddf_bounds_rc,
    ddf_bounds_uc2,
)
from tdcoop.harness import mac_outage
from tdcoop.network import DESTINATION, GeometryParams, sample_placement, user_id
from tdcoop.power import PowerConfig
from tdcoop.strategies import parse_strategy

ROWS = 240

# -- scalar reference formulas, one pair per call ------------------------------


def inf_on_overflow(bracket):
    """The theta search's key: +inf where the bracket overflows."""

    def key(ts):
        try:
            return bracket(ts)
        except OverflowError:
            return math.inf

    return key


def ref_mac(rate, user_power, dk_pow, num_users):
    burst = num_users * user_power
    if burst == 0.0:
        return 1.0 if rate > 0 else 0.0
    return -math.expm1(-math.expm1(rate * math.log(2.0)) * dk_pow / burst)


def ref_rc(rate, burst_power, relay_ratio, dk_pow, dr_pow, rk_pow, theta_star=0.5, optimize=False):
    eta = float(_pow2m1(rate))
    lower = eta**2 * dk_pow * dr_pow / (2.0 * relay_ratio * burst_power**2)

    def bracket(ts):
        tb = 1.0 - ts
        first = float(_pow2m1(rate / tb)) ** 2 * tb / eta**2
        second = 2.0 * rk_pow * float(_pow2m1(rate / ts)) ** 2 * relay_ratio / (dr_pow * eta**2)
        return first + second

    if optimize:
        theta_star = min(_THETA_GRID, key=inf_on_overflow(bracket))
    return lower, bracket(theta_star) * lower


def ref_leading_product(rate, burst_power, lam, dd):
    L = lam.size
    eta = float(_pow2m1(rate))
    return eta**L / (math.factorial(L) * burst_power**L) * float(np.prod(dd / lam))


def ref_uc2(rate, burst_power, lambdas, dist_dest_pow, dist_to_source_pow, theta_star=0.5, optimize=False):
    lam = np.asarray(lambdas, dtype=float)
    dd = np.asarray(dist_dest_pow, dtype=float)
    dk = np.asarray(dist_to_source_pow, dtype=float)
    L = lam.size
    eta = float(_pow2m1(rate))
    lower = ref_leading_product(rate, burst_power, lam, dd)
    helper_term = float(np.prod(dd[1:] / lam[1:]))

    def k2(ts):
        tb = 1.0 - ts
        first = float(_pow2m1(rate / tb)) ** L * tb ** (L - 1) / eta**L
        second = (
            float(_pow2m1(rate / ts)) ** 2
            * float(dk.sum())
            * math.factorial(L)
            * burst_power ** (L - 2)
            / (eta**L * helper_term)
        )
        return first + second

    if optimize:
        theta_star = min(_THETA_GRID, key=inf_on_overflow(k2))
    return lower, k2(theta_star) * lower


def ref_multihop(rate, burst_power, lambdas, dist_dest_pow, dist_to_source_pow, optimize=False):
    lam = np.asarray(lambdas, dtype=float)
    dd = np.asarray(dist_dest_pow, dtype=float)
    dk = np.asarray(dist_to_source_pow, dtype=float)
    L = lam.size
    eta = float(_pow2m1(rate))
    lower = ref_leading_product(rate, burst_power, lam, dd)

    def kc_kd(tvec):
        tail = 1.0 - np.cumsum(tvec)[:-1]
        thetabar_sum = np.concatenate(([1.0], tail))
        kc = float(_pow2m1(rate / tvec[-1])) ** L * float(np.prod(thetabar_sum)) / eta**L
        kd = (
            float(_pow2m1(rate / tvec[0])) ** L
            * math.factorial(L)
            / eta**L
            * float(np.prod(dk / lam[1:]))
        )
        return kc + kd

    if optimize:
        key = inf_on_overflow(lambda t: kc_kd(_multihop_theta_vector(L, t)))
        return lower, min(key(t) for t in _THETA_GRID) * lower
    return lower, kc_kd(_multihop_theta_vector(L)) * lower


def ref_af2(rate, burst_power, dk_pow, dj_pow, jk_pow):
    dd = np.asarray(dj_pow, dtype=float)
    dk = np.asarray(jk_pow, dtype=float)
    eta = float(_pow2m1(rate))
    eta2 = float(_pow2m1(2.0 * rate))
    lower = eta**2 * dk_pow / (2.0 * burst_power**2 * float((1.0 / dd).sum()))
    upper = eta2**2 * dk_pow * float((dk + dd).max()) / (2.0 * burst_power**2)
    return lower, upper


def ref_afmh(rate, burst_power, dk_pow, dj_pow, jk_pow):
    dd = np.asarray(dj_pow, dtype=float)
    dk = np.asarray(jk_pow, dtype=float)
    L = dd.size + 1
    eta = float(_pow2m1(rate))
    eta_l = float(_pow2m1(L * rate))
    lower = eta**L * dk_pow * float(np.prod(dd)) / (math.factorial(L) * burst_power**L)
    upper = eta_l**L * dk_pow * float(np.prod(dd + dk)) / (math.factorial(L) * burst_power**L)
    return lower, upper


def ref_cell_bounds(cell, d_dk, strategy, pc, burst, budgets, optimize):
    """One cell's bound pair at one P the way the sweep computed it point by
    point, from the raw source-destination distance d_dk."""
    g = cell.gamma
    if cell.kernel == "mac":
        cf = ref_mac(pc.rate, pc.user_power, d_dk**g, strategy.num_users)
        return cf, cf
    if cell.kernel in ("af2", "afmh"):
        ref = ref_af2 if cell.kernel == "af2" else ref_afmh
        dd = np.asarray(cell.d_dj, dtype=float) ** g
        dk = np.asarray(cell.d_jk, dtype=float) ** g
        return ref(pc.rate, burst, d_dk**g, dd, dk)
    if cell.kernel == "rc-ddf":
        return ref_rc(
            pc.rate, burst, budgets[0] / burst, d_dk**g, cell.d_dj[0] ** g, cell.d_jk[0] ** g,
            optimize=optimize,
        )
    lambdas = np.concatenate(([1.0], np.asarray(budgets) / burst))
    dd = np.array((d_dk**g,) + tuple(d**g for d in cell.d_dj))
    dk = np.array(tuple(d**g for d in cell.d_jk))
    if cell.kernel == "uc2-ddf":
        return ref_uc2(pc.rate, burst, lambdas, dd, dk, optimize=optimize)
    return ref_multihop(pc.rate, burst, lambdas, dd, dk, optimize=optimize)


# -- random rows ------------------------------------------------------------------


def random_rows(seed, helpers):
    """Per-row inputs: bursts that repeat across rows (as a burst recurs
    across cells), link d^gamma columns, and helper budgets over the burst.
    Numpy's and Python's powers of a value rarely differ, hence 48 distinct
    bursts."""
    rng = np.random.default_rng(seed)
    burst = rng.choice(rng.uniform(0.5, 1e4, 48), ROWS)
    return {
        "burst": burst,
        "ratio": rng.uniform(0.05, 2.0, (ROWS, helpers)),
        "dk": rng.uniform(0.2, 1.5, ROWS) ** 4.0,
        "dj": rng.uniform(0.2, 1.5, (ROWS, helpers)) ** 4.0,
        "jk": rng.uniform(0.02, 1.2, (ROWS, helpers)) ** 4.0,
    }


def lambdas_of(c):
    return np.column_stack((np.ones(ROWS), c["ratio"]))


def dest_of(c):
    return np.column_stack((c["dk"], c["dj"]))


def row(x, i):
    """Row i's inputs as the scalar formulas took them: Python floats, helper rows as arrays."""
    return x[i].tolist() if x.ndim == 1 else x[i]


def assert_bitwise(batch, refs, single):
    """batch (a BoundPair over rows) against per-row reference pairs and
    per-row calls of the batch function."""
    lower = np.array([lo for lo, _ in refs])
    upper = np.array([up for _, up in refs])
    assert batch.lower.shape == batch.upper.shape == (ROWS,)
    assert batch.lower.tobytes() == lower.tobytes()
    assert batch.upper.tobytes() == upper.tobytes()
    for i in range(0, ROWS, 7):
        one = single(i)
        assert np.float64(one.lower).tobytes() == batch.lower[i].tobytes(), i
        assert np.float64(one.upper).tobytes() == batch.upper[i].tobytes(), i


RATES = (0.25, 0.75)


@pytest.mark.parametrize("rate", RATES)
def test_mac_outage_batch(rate):
    c = random_rows(1, 0)
    got = mac_outage(rate, 37.0, c["dk"], 3)
    want = np.array([ref_mac(rate, 37.0, d, 3) for d in c["dk"].tolist()])
    assert got.tobytes() == want.tobytes()
    assert all(mac_outage(rate, 37.0, d, 3) == got[i] for i, d in enumerate(c["dk"].tolist()))
    # the sweep's shape: one d^gamma against a column of powers
    powers = c["burst"] / 3.0
    got = mac_outage(rate, powers, 0.8, 3)
    want = np.array([ref_mac(rate, p, 0.8, 3) for p in powers.tolist()])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("optimize", (False, True))
@pytest.mark.parametrize("rate", RATES)
def test_rc_batch(rate, optimize):
    c = random_rows(2, 1)
    args = (c["burst"], c["ratio"][:, 0], c["dk"], c["dj"][:, 0], c["jk"][:, 0])
    got = ddf_bounds_rc(rate, *args, theta_star=0.3, optimize=optimize)
    refs = [ref_rc(rate, *(row(a, i) for a in args), 0.3, optimize) for i in range(ROWS)]
    assert_bitwise(
        got,
        refs,
        lambda i: ddf_bounds_rc(rate, *(row(a, i) for a in args), theta_star=0.3, optimize=optimize),
    )


@pytest.mark.parametrize("optimize", (False, True))
@pytest.mark.parametrize("helpers", (1, 2, 3))
@pytest.mark.parametrize("rate", RATES)
def test_uc2_batch(rate, helpers, optimize):
    c = random_rows(3 + helpers, helpers)
    args = (c["burst"], lambdas_of(c), dest_of(c), c["jk"])
    got = ddf_bounds_uc2(rate, *args, theta_star=0.4, optimize=optimize)
    refs = [ref_uc2(rate, *(row(a, i) for a in args), 0.4, optimize) for i in range(ROWS)]
    assert_bitwise(
        got,
        refs,
        lambda i: ddf_bounds_uc2(rate, *(row(a, i) for a in args), theta_star=0.4, optimize=optimize),
    )


@pytest.mark.parametrize("optimize", (False, True))
@pytest.mark.parametrize("helpers", (2, 3))
@pytest.mark.parametrize("rate", RATES)
def test_multihop_batch(rate, helpers, optimize):
    c = random_rows(7 + helpers, helpers)
    args = (c["burst"], lambdas_of(c), dest_of(c), c["jk"])
    got = ddf_bounds_multihop(rate, *args, optimize=optimize)
    refs = [ref_multihop(rate, *(row(a, i) for a in args), optimize) for i in range(ROWS)]
    assert_bitwise(
        got, refs, lambda i: ddf_bounds_multihop(rate, *(row(a, i) for a in args), optimize=optimize)
    )


@pytest.mark.parametrize(
    "fn,ref,helpers",
    (
        (af_bounds_2hop, ref_af2, 1),
        (af_bounds_2hop, ref_af2, 2),
        (af_bounds_2hop, ref_af2, 3),
        (af_bounds_multihop, ref_afmh, 2),
        (af_bounds_multihop, ref_afmh, 3),
    ),
)
@pytest.mark.parametrize("rate", RATES)
def test_af_batch(fn, ref, helpers, rate):
    c = random_rows(11 + helpers, helpers)
    args = (c["burst"], c["dk"], c["dj"], c["jk"])
    got = fn(rate, *args)
    refs = [ref(rate, *(row(a, i) for a in args)) for i in range(ROWS)]
    assert_bitwise(got, refs, lambda i: fn(rate, *(row(a, i) for a in args)))


# -- the sweep: one call per cell over the SNR grid ---------------------------------

UNEVEN = {1: [2, 3], 2: [3], 3: [1]}
SWEEP_STRATEGIES = (
    [(3, parse_strategy(n, 3)) for n in ("mac", "rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc2-af", "uc3-af")]
    + [(3, parse_strategy(n, 3, coop_sets=UNEVEN)) for n in ("uc2-ddf", "uc2-af")]
    + [(4, parse_strategy(n, 4)) for n in ("uc4-ddf", "uc4-af")]
)
GRID_DB = (-10.0, 0.0, 7.5, 30.0, 45.0)


@pytest.mark.parametrize("optimize", (False, True))
@pytest.mark.parametrize(
    "num_users,strategy", SWEEP_STRATEGIES, ids=lambda x: getattr(x, "name", str(x))
)
def test_sweep_bounds_match_the_per_point_formulas(num_users, strategy, optimize):
    """``harness._bounds`` gives each (grid point, cell), in cell order, the
    bytes the one-pair formulas give at that point from the raw distances."""
    geometry = GeometryParams(num_users=num_users)
    placements = [sample_placement(geometry, np.random.default_rng([5, i])) for i in range(12)]
    cells = [
        harness._cell(strategy, pl, i, k)
        for i, pl in enumerate(placements)
        for k in range(1, num_users + 1)
    ]
    grid = [PowerConfig(rate=0.25).with_user_power(10.0 ** (snr / 10.0)) for snr in GRID_DB]
    powers = [harness._user_powers(strategy, pc) for pc in grid]
    lower, upper = harness._bounds(cells, strategy, grid, powers, 0.5, optimize)
    assert lower.shape == upper.shape == (len(grid), len(cells))
    for s, pc in enumerate(grid):
        refs = [
            ref_cell_bounds(
                c,
                placements[c.placement_idx].distance(DESTINATION, user_id(c.user_idx + 1)),
                strategy,
                pc,
                *powers[s][c.user_idx],
                optimize,
            )
            for c in cells
        ]
        assert lower[s].tobytes() == np.array([lo for lo, _ in refs]).tobytes(), s
        assert upper[s].tobytes() == np.array([up for _, up in refs]).tobytes(), s


@pytest.mark.parametrize("helpers", (1, 2, 3))
def test_theta_search_at_high_rate(helpers):
    """At rate 9 the grid's outer brackets overflow Python's float power;
    the optimised bounds skip them and stay finite."""
    rate = 9.0
    c = random_rows(31 + helpers, helpers)
    calls = [(ddf_bounds_uc2, ref_uc2, (c["burst"], lambdas_of(c), dest_of(c), c["jk"]))]
    if helpers == 1:
        args = (c["burst"], c["ratio"][:, 0], c["dk"], c["dj"][:, 0], c["jk"][:, 0])
        calls.append((ddf_bounds_rc, ref_rc, args))
    else:
        calls.append((ddf_bounds_multihop, ref_multihop, (c["burst"], lambdas_of(c), dest_of(c), c["jk"])))
    with pytest.raises(OverflowError):
        float(_pow2m1(rate / _THETA_GRID[0])) ** 2
    for fn, ref, args in calls:
        got = fn(rate, *args, optimize=True)
        assert np.all(np.isfinite(got.upper)) and np.all(np.isfinite(got.lower))
        with np.errstate(over="ignore"):
            refs = [ref(rate, *(row(a, i) for a in args), optimize=True) for i in range(ROWS)]
        assert_bitwise(got, refs, lambda i: fn(rate, *(row(a, i) for a in args), optimize=True))


# -- checks that stay per row -------------------------------------------------------


def test_invalid_row_named_by_index():
    c = random_rows(21, 2)
    ratio = c["ratio"][:, 0].copy()
    ratio[17] = -ratio[17]
    with pytest.raises(ValueError, match=r"at row 17 \("):
        ddf_bounds_rc(1.0, c["burst"], ratio, c["dk"], c["dj"][:, 0], c["jk"][:, 0])
    dj = c["dj"].copy()
    dj[5, 1] = np.nan
    with pytest.raises(ValueError, match=r"at row 5 \("):
        af_bounds_multihop(0.25, c["burst"], c["dk"], dj, c["jk"])
    dk = c["dk"].copy()
    dk[3] = 0.0
    with pytest.raises(ValueError, match="at row 3"):
        mac_outage(0.25, 1.0, dk, 3)
    with pytest.raises(ValueError, match=r"at row 2 \("):
        BoundPair(lower=np.array([0.1, 0.2, 0.3]), upper=np.array([0.1, 0.2, 0.25]))
    with pytest.raises(ValueError, match="shape"):
        BoundPair(lower=np.array([0.1, 0.2]), upper=0.3)


def test_batch_argument_checks():
    c = random_rows(22, 1)
    with pytest.raises(ValueError, match="three hops"):
        ddf_bounds_multihop(0.25, c["burst"], lambdas_of(c), dest_of(c), c["jk"])
    with pytest.raises(ValueError, match="theta_star"):
        ddf_bounds_uc2(0.25, c["burst"], lambdas_of(c), dest_of(c), c["jk"], theta_star=1.0)
    with pytest.raises(ValueError, match="theta_star"):
        ddf_bounds_rc(0.25, c["burst"], c["ratio"][:, 0], c["dk"], c["dj"][:, 0], c["jk"][:, 0], theta_star=0.0)
    with pytest.raises(ValueError, match="positive"):
        mac_outage(0.25, 1.0, c["dk"], 0)


def test_mac_zero_power_batch():
    dk = random_rows(23, 0)["dk"]
    got = mac_outage(0.25, 0.0, dk, 3)
    assert got.shape == dk.shape and np.all(got == 1.0)
    assert np.all(mac_outage(0.0, 0.0, dk, 3) == 0.0)
    # a zero power among positive ones: certain outage on that row only
    got = mac_outage(0.25, np.array([1.0, 0.0, 10.0]), 0.8, 3)
    assert got[1] == 1.0 and got[0] == ref_mac(0.25, 1.0, 0.8, 3) and got[2] < got[0]
