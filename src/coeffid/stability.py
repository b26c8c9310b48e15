"""Hoelder-stability experiments for the 1D coefficient problem.

Three groups of tools live here:

* level-band measures |K_rho(M)| = |{x : |F(x) - M| <= rho}| computed exactly
  on the piecewise-linear interpolant of F, batched (all bands of a fit in one
  sorted counting pass over the cells), and log-log fitting of the
  two-sided scaling C1 rho^alpha <= inf_M |K_rho(M)| <= sup_M |K_rho(M)|
  <= C2 rho^beta over M strictly between min F and max F;

* the stability exponent that the scaling pair (alpha, beta) implies for
  |a - b|_{Lp} in terms of |u'_a - u'_b|_{L2}, with the bound verification
  harness reporting the constant a given pair of coefficients would require;

* the dyadic multiscale family: a mollified bump repeated at scales 2^{-k}
  with amplitudes 2^{-alpha_d k}, perturbed by coefficients a_j = 1 + 2^{beta_d j}
  on shrinking intervals S_j = (-2^{-j}, 2^{-j}). The measured decay rates
  |u - u_j|_V ~ 2^{(1/2 + beta_d - alpha_d) j} and |a - a_j|_{Lp} ~ 2^{(beta_d - 1/p) j}
  combine into the rate gamma = (1/p - beta_d)/(alpha_d - 1/2 - beta_d), which
  can be made arbitrarily small by taking alpha_d large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import solve, solve_from_primitive
from .grids import (
    CoefficientBounds,
    GridFunction1D,
    Interval,
    indicator_values,
    lp_norm,
    require_same_grid,
)
from .report import ExperimentReport

__all__ = [
    "ExponentFit",
    "DyadicFamily",
    "k_rho_measure",
    "fit_exponents",
    "holder_exponent",
    "verify_holder",
    "dyadic_profile",
    "dyadic_coefficient",
    "dyadic_rate",
]

BETA_DEGENERATE_CUTOFF = 0.05
ZERO_TOL = 1e-12
# (cell, band end) pairs k_rho_measure expands at once: memory stays
# O(n + bands) even when every cell crosses every band end
_PAIR_SLICE = 2**20


# ---------------------------------------------------------------------------
# level-band measures and exponent fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExponentFit:
    """Fitted two-sided scaling of the level-band measures.

    alpha bounds the inf branch from below (C1 rho^alpha <= inf), beta bounds
    the sup branch from above (sup <= C2 rho^beta); C1 and C2 are chosen so
    both inequalities hold with equality at the worst grid point. residual is
    the max log-space misfit of the least-squares lines. beta_degenerate flags
    a sup branch that does not decay (flat stretches of F force beta = 0).
    """

    alpha: float
    beta: float
    C1: float
    C2: float
    rho_grid: tuple
    residual: float
    beta_degenerate: bool
    inf_curve: tuple
    sup_curve: tuple


def k_rho_measure(F: GridFunction1D, M, rho):
    """Lebesgue measure of {x : |F(x) - M| <= rho} for the piecewise-linear
    interpolant of F, exact per cell.

    M and rho may be arrays of one shape: every band is then measured in one
    sorted counting pass, and an array of that shape is returned (a float for
    scalar M and rho). Flat cells in the closed band and sloped cells wholly
    inside it are counted by searchsorted; only the cells that a band end cuts
    add a fraction. The cost is O(n log n) plus the number of (cell, band end)
    crossings, expanded at most _PAIR_SLICE at a time.
    """
    M, rho = np.broadcast_arrays(np.asarray(M, dtype=float), np.asarray(rho, dtype=float))
    if not np.all(rho > 0.0):
        raise ValueError("rho must be positive")
    if np.isnan(M).any():
        raise ValueError("M must be a number")
    band_lo = (M - rho).ravel()
    band_hi = (M + rho).ravel()
    nb = band_lo.size
    v = F.values
    lo = np.minimum(v[:-1], v[1:])
    hi = np.maximum(v[:-1], v[1:])
    flat = lo == hi
    flat_lo = np.sort(lo[flat])
    lo, hi = lo[~flat], hi[~flat]

    # flat cells with band_lo <= lo <= band_hi, and sloped cells with
    # band_lo < hi <= band_hi; those among the latter that straddle band_lo
    # are taken back out below
    whole = np.searchsorted(flat_lo, band_hi, "right") - np.searchsorted(flat_lo, band_lo, "left")
    hi_sorted = np.sort(hi)
    whole += np.searchsorted(hi_sorted, band_hi, "right") - np.searchsorted(hi_sorted, band_lo, "right")

    # the band ends strictly inside (lo, hi) of each sloped cell are a
    # contiguous run of the sorted ends
    ends = np.concatenate((band_lo, band_hi))
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    first = np.searchsorted(ends, lo, "right")
    crossed = np.searchsorted(ends, hi, "left") - first
    cells = np.nonzero(crossed)[0]
    pairs = np.cumsum(crossed[cells])
    part = np.zeros(nb)
    start = 0
    while start < cells.size:
        done = pairs[start - 1] if start else 0
        stop = max(int(np.searchsorted(pairs, done + _PAIR_SLICE, "right")), start + 1)
        c = cells[start:stop]
        k = crossed[c]
        cell = np.repeat(c, k)
        # each cell's run first[c], first[c] + 1, ... of sorted ends, mapped
        # back to the end's index in (band_lo, band_hi)
        end = order[np.arange(cell.size) + np.repeat(first[c] - np.cumsum(k) + k, k)]
        low_end = end < nb
        band = np.where(low_end, end, end - nb)
        l, h = lo[cell], hi[cell]
        bl, bh = band_lo[band], band_hi[band]
        whole -= np.bincount(band[low_end & (h <= bh)], minlength=nb)
        # a cell that straddles both ends of its band is counted at the low end
        keep = low_end | (l >= bl)
        l, h, bl, bh = l[keep], h[keep], bl[keep], bh[keep]
        frac = (np.minimum(h, bh) - np.maximum(l, bl)) / (h - l)
        # grouped by band and summed pairwise: a running sum over thousands
        # of straddlers of one band would drift by far more than an ulp
        by_band = np.argsort(band[keep], kind="stable")
        band, frac = band[keep][by_band], frac[by_band]
        heads = np.flatnonzero(np.diff(band, prepend=-1))
        part[band[heads]] += np.add.reduceat(frac, heads)
        start = stop

    measure = F.h * (whole + part)
    if M.ndim == 0:
        return float(measure[0])
    return measure.reshape(M.shape)


def fit_exponents(F: GridFunction1D, rho_grid, M_grid_size: int = 32) -> ExponentFit:
    """Fit alpha to the inf branch and beta to the sup branch of the band
    measures by least squares in log-log coordinates.

    For each rho the M grid is uniform over [Fmin + rho, Fmax - rho], which is
    the largest range on which the band never escapes (min F, max F) entirely.
    """
    rho = np.asarray(list(rho_grid), dtype=float)
    if rho.size < 2:
        raise ValueError("need at least two rho values to fit")
    if not np.all(np.diff(rho) < 0):
        raise ValueError("rho_grid must be strictly decreasing")
    if M_grid_size < 8:
        raise ValueError("M_grid_size must be at least 8")

    fmin = float(F.values.min())
    fmax = float(F.values.max())
    span = fmax - fmin
    if not span > 0.0:
        raise ValueError("F is constant: f vanishes identically")
    if rho[0] >= span / 2 or rho[-1] <= 0:
        raise ValueError(f"rho values must lie in (0, {span / 2})")

    Ms = np.array([np.linspace(fmin + r, fmax - r, M_grid_size) for r in rho])
    meas = k_rho_measure(F, Ms, rho[:, None])
    inf_c = meas.min(axis=1)
    sup_c = meas.max(axis=1)

    log_rho = np.log(rho)
    alpha, a_icept = np.polyfit(log_rho, np.log(inf_c), 1)
    beta_raw, b_icept = np.polyfit(log_rho, np.log(sup_c), 1)
    residual = max(
        float(np.abs(np.log(inf_c) - (alpha * log_rho + a_icept)).max()),
        float(np.abs(np.log(sup_c) - (beta_raw * log_rho + b_icept)).max()),
    )
    # a sup branch pinned above a flat stretch of F stops decaying as rho -> 0;
    # the small-rho tail slope detects that even when the full-grid fit does not
    tail = min(4, rho.size)
    beta_tail = float(np.polyfit(log_rho[-tail:], np.log(sup_c[-tail:]), 1)[0])
    beta_degenerate = min(float(beta_raw), beta_tail) < BETA_DEGENERATE_CUTOFF
    beta = max(float(beta_raw), 0.0)
    alpha = float(alpha)

    C1 = float((inf_c / rho**alpha).min())
    C2 = float((sup_c / rho**beta).max())

    return ExponentFit(
        alpha=alpha,
        beta=beta,
        C1=C1,
        C2=C2,
        rho_grid=tuple(float(r) for r in rho),
        residual=residual,
        beta_degenerate=bool(beta_degenerate),
        inf_curve=tuple(float(v) for v in inf_c),
        sup_curve=tuple(float(v) for v in sup_c),
    )


def holder_exponent(p, alpha, beta):
    """Stability exponent implied by the band-measure scaling (alpha, beta).

    For 1 <= p <= 2 it is max(2 beta / ((2+alpha)(2+beta)),
    p beta / ((p+alpha)(p+beta))); for p > 2 it is
    4 beta / ((2+alpha)(2+beta) p). Raises unless 1 <= p < inf, alpha >= 0
    and beta > 0, NaN included. Plain arithmetic throughout, so exact
    rational inputs give exact rational output.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if not beta > 0:
        raise ValueError("beta must be positive")
    if p <= 2:
        return max(
            2 * beta / ((2 + alpha) * (2 + beta)),
            p * beta / ((p + alpha) * (p + beta)),
        )
    return 4 * beta / ((2 + alpha) * (2 + beta) * p)


def verify_holder(
    a: GridFunction1D,
    b: GridFunction1D,
    f: GridFunction1D,
    p: float,
    alpha: float,
    beta: float,
) -> ExperimentReport:
    """Measure both sides of |a - b|_{Lp} <= C |u'_a - u'_b|_{L2}^exponent,
    with exponent = holder_exponent(p, alpha, beta) for the band-measure
    exponents (alpha, beta) of f's primitive, e.g. from fit_exponents.

    The "holder" report's metrics are lhs, rhs_norm, exponent,
    constant_needed = lhs / rhs_norm**exponent, the constant this pair
    demands, eta = |C_a - C_b|, the flux-constant gap, and c0_implied, the
    constant eta demands in the intermediate bound eta <= c0 rhs**(p/(p+alpha)).
    When the right side vanishes (below ZERO_TOL relative to
    |u'_a|_L2 + |u'_b|_L2, so the test does not depend on the size of f) the
    two constants are 0 if the left side vanishes too (below ZERO_TOL
    relative to the coefficients' size); otherwise it raises, as on
    admissible inputs with f nonzero a.e. that would contradict
    identifiability.
    """
    require_same_grid(a, b)
    sol_a = solve(a, f)
    sol_b = solve(b, f)
    lhs = lp_norm(a - b, p)
    rhs = lp_norm(sol_a.du - sol_b.du, 2.0)
    eta = abs(sol_a.Ca - sol_b.Ca)
    exponent = float(holder_exponent(p, alpha, beta))

    du_size = lp_norm(sol_a.du, 2.0) + lp_norm(sol_b.du, 2.0)
    coeff_size = 1.0 + float(np.abs(a.values).max()) + float(np.abs(b.values).max())
    constant_needed = c0_implied = 0.0
    if rhs <= ZERO_TOL * du_size:
        if lhs > ZERO_TOL * coeff_size:
            raise RuntimeError("identifiability violation detected")
    else:
        constant_needed = lhs / rhs**exponent
        c0_implied = eta / rhs ** (p / (p + alpha))
    return ExperimentReport(
        name="holder",
        inputs={"p": float(p), "alpha": float(alpha), "beta": float(beta)},
        metrics={"lhs": lhs, "rhs_norm": rhs, "exponent": exponent,
                 "constant_needed": constant_needed, "eta": eta, "c0_implied": c0_implied},
        passed=True,
    )


# ---------------------------------------------------------------------------
# dyadic multiscale family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicFamily:
    """Parameters of the multiscale example on (-1, 1).

    alpha_d > 1/2 is the amplitude decay of the scales and beta_d <= 0 keeps
    the perturbed coefficients a_j inside [1, 2] for every j >= 0.
    Construction rejects any other value, NaN included, so every builder and
    rate below may rely on alpha_d > 1/2 + beta_d. The family has no
    truncation depth: dyadic_profile sums every scale the grid can hold.
    """

    alpha_d: float
    beta_d: float

    def __post_init__(self):
        if not self.alpha_d > 0.5:
            raise ValueError("alpha_d must exceed 1/2")
        if not self.beta_d <= 0:
            raise ValueError("beta_d must be <= 0")


def _bump(y: np.ndarray) -> tuple:
    """Smooth bump supported on (1/2, 1), exp(-1/g) with g = (y - 1/2)(1 - y),
    and its derivative exp(-1/g) g'/g^2, from one exp."""
    out = np.zeros_like(y)
    d_out = np.zeros_like(y)
    m = (y > 0.5) & (y < 1.0)
    ym = y[m]
    g = (ym - 0.5) * (1.0 - ym)
    e = np.exp(-1.0 / g)
    out[m] = e
    d_out[m] = e * (1.5 - 2.0 * ym) / (g * g)
    return out, d_out


def dyadic_profile(fam: DyadicFamily, n: int) -> tuple:
    """The even multiscale profile u and its derivative du on (-1, 1).

    u(x) = sum_k 2^{-alpha_d k} bump(2^k |x|); the scale supports
    (2^{-k-1}, 2^{-k}) are disjoint. du is assembled from the analytic series
    derivative (odd extension). Both are the full series at every node.

    Scale k is evaluated only on the nodes with |x| <= 2^{-k}: outside that
    window it is exactly 0, and adding +0.0 to a sum that started at +0.0
    changes no bit, so the total work is O(n) with the same values. Beyond
    k = n.bit_length() the window holds only the middle node, which linspace
    puts at 0 or -2^-53; there 2^k |x| is 0 or a power of two, outside the
    bump's open support, so every further term is +0.0. The loop stops there,
    and 2^k stays finite whatever alpha_d is.
    """
    if n % 2:
        raise ValueError("n must be even so that x = 0 is a node")
    iv = Interval(-1.0, 1.0)
    x = np.linspace(-1.0, 1.0, n + 1)
    ax = np.abs(x)
    u = np.zeros_like(x)
    du_abs = np.zeros_like(x)
    for k in range(n.bit_length() + 1):
        half = 2.0 ** (-k)
        lo, hi = np.searchsorted(x, -half, "left"), np.searchsorted(x, half, "right")
        b, db = _bump((2.0**k) * ax[lo:hi])
        u[lo:hi] += 2.0 ** (-fam.alpha_d * k) * b
        du_abs[lo:hi] += 2.0 ** ((1.0 - fam.alpha_d) * k) * db
    du = np.sign(x) * du_abs
    return GridFunction1D(iv, u), GridFunction1D(iv, du)


def dyadic_coefficient(fam: DyadicFamily, j: int, n: int) -> GridFunction1D:
    """a_j = 1 + 2^{beta_d j} on S_j = (-2^{-j}, 2^{-j}), 1 elsewhere."""
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    iv = Interval(-1.0, 1.0)
    x = np.linspace(-1.0, 1.0, n + 1)
    half_width = 2.0 ** (-j)
    amp = 2.0 ** (fam.beta_d * j)
    ind = indicator_values(x, -half_width, half_width)
    return GridFunction1D(iv, 1.0 + amp * ind)


def dyadic_rate(fam: DyadicFamily, p: float, j_range, n: int) -> ExperimentReport:
    """Least-squares slope of log |a - a_j|_{Lp} against log |u - u_j|_V over
    j_range, compared with gamma = (1/p - beta_d)/(alpha_d - 1/2 - beta_d).

    gamma = 0 (p = inf with beta_d = 0) leaves no rate to compare against and
    is rejected before any solve."""
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    gamma = (1.0 / p - fam.beta_d) / (fam.alpha_d - 0.5 - fam.beta_d)
    if gamma == 0.0:
        raise ValueError(
            f"gamma = 0 for p = {p} and beta_d = {fam.beta_d}: "
            "the rate needs 1/p > beta_d"
        )
    u, du = dyadic_profile(fam, n)
    F = du.with_values(-du.values + du.values[0])
    bounds = CoefficientBounds(1.0, 2.0)

    js, xs, ys = [], [], []
    for j in j_range:
        a_j = dyadic_coefficient(fam, int(j), n)
        sol = solve_from_primitive(a_j, F, bounds=bounds)
        x_v = lp_norm(sol.du - du, 2.0)
        y_v = lp_norm(a_j - 1.0, p)
        if x_v > 0.0 and y_v > 0.0:
            js.append(int(j))
            xs.append(x_v)
            ys.append(y_v)
    if len(js) < 3:
        raise ValueError("fewer than 3 usable j values")

    slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    rel_dev = abs(slope - gamma) / abs(gamma)

    return ExperimentReport(
        name="dyadic_rate",
        inputs={
            "alpha_d": fam.alpha_d,
            "beta_d": fam.beta_d,
            "p": float(p),
            "n": n,
            "j_range": js,
        },
        metrics={"slope": slope, "gamma": gamma, "rel_deviation": rel_dev},
        curves={"j": js, "u_gap_V": xs, "coeff_gap_Lp": ys},
        passed=bool(rel_dev <= 0.15),
    )
