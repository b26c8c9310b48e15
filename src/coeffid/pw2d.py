"""Piecewise-constant coefficients on the unit square: P1 FEM forward solves,
discrete H^-1 block norms, verification of the per-block stability bound

    |a_i - b_i| * |f|_{H^-1(D_i)}  <=  Lam^2 * |grad(u_a - u_b)|_{L2(D_i)},

and recovery of the block constants from one measured solution.

The mesh is uniform: m x m square cells, each cut along its SW-NE diagonal
into two right isosceles triangles whose legs are cell edges. A P1 field's
energy on such a triangle is half the sum of its squared leg differences,
whatever the mesh width, so a cell's energy is half the sum of the squared
differences along its four edges. The a = 1 stiffness of any rectangle of
cells is therefore one weighted edge sum, _rect_stiffness: the whole
square's gives the Gauss-Newton gram and the interface coupling, a tile's
the tile complement, and a block's, the same for every block, the block
products K_i u. The block gradient norms sum the edge differences directly.
Loads apply the P1 mass stencil to the nodal source.

When m resolves the block partition, multiplying a test function supported in
one block by a constant keeps it in the discrete space, so the inequality
above holds exactly at the discrete level (up to rounding) when the H^-1 norm
is realized by its discrete Riesz representative on the same mesh. The
verification report still carries the documented slack factor
1 + SLACK_COEF/m for the continuum reading.

Inside a block the coefficient is one constant, so the stiffness there is
a_i times the 5-point Laplacian L of the block interior, which the orthonormal
DST-I diagonalizes. Linear solves condense those interiors: each block is
split into near-square tiles (the block itself unless it is elongated), the
unknowns on tile edges form the interface, and its Schur complement
S(a) = sum_i a_i S_loc is one fixed local complement S_loc, the same for every
tile, scaled and summed into a fixed pattern. With the interface numbered
row-major, a tile couples only the nodes of its own grid rows, so S(a) is a
band of half-width about m + (sy-1)(tx-1) + sx for sx by sy cell tiles, tx
per row; it is kept as its lower band and factored in place by banded
Cholesky. A solve is one factor of S(a) and two batched DST-I solves, dense products
with the transform matrices, over the stack of tile interiors; a factor
serves every right-hand side that shares its coefficient. Block H^-1 norms
read sum s_pq^2 / lambda_pq off one DST-I over the stack of block loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_solve_banded, cholesky_banded

from .grids import CoefficientBounds, json_count, json_fields
from .report import ExperimentReport

__all__ = [
    "Partition2D",
    "PwConstCoefficient",
    "PwRecovery",
    "fem_solve",
    "hminus1_norm",
    "grad_norm_by_block",
    "verify_pw_bound",
    "sweep_pw_bound",
    "recover_pw",
    "field_to_json_dict",
]

SLACK_COEF = 5.0
MAX_SWEEPS = 50
SWEEP_TOL = 1e-10


@dataclass(frozen=True)
class Partition2D:
    """nx by ny axis-aligned blocks tiling the unit square. Blocks are indexed
    row-major in y: block (bx, by) has id by*nx + bx."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("partition must have at least one block per axis")

    @property
    def n_blocks(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True, eq=False)
class PwConstCoefficient:
    """One constant per partition block, id order as in Partition2D."""

    partition: Partition2D
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.partition.n_blocks,):
            raise ValueError(
                f"expected {self.partition.n_blocks} coefficients, got {c.shape}"
            )
        if not np.all(np.isfinite(c)) or np.any(c <= 0):
            raise ValueError("coefficients must be finite and positive")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_json_dict(cls, d: dict) -> "PwConstCoefficient":
        nx, ny, coeffs = json_fields(d, ("nx", "ny", "coeffs"))
        return cls(Partition2D(json_count(nx, "nx"), json_count(ny, "ny")),
                   np.asarray(coeffs, dtype=float))


def _dst_basis(n: int) -> tuple:
    """The orthonormal DST-I matrix of order n - 1, which is symmetric, and the
    eigenvalues of tridiag(-1, 2, -1) it diagonalizes, in the same order. The
    phases k k' are reduced mod 2n before scaling, so each angle is rounded
    below 2 pi, not near pi n."""
    k = np.arange(1, n)
    return (math.sqrt(2.0 / n) * np.sin(np.pi * (np.outer(k, k) % (2 * n)) / n),
            2.0 - 2.0 * np.cos(np.pi * k / n))


def _interior_dst(sx: int, sy: int) -> tuple:
    """(Sy, Sx, lambda) for the (sy-1, sx-1) interior nodes of an sx by sy
    cell rectangle, a block or a tile: its 5-point Laplacian is
    L = (Sy x Sx) diag(lambda) (Sy x Sx), so the DST-I of an interior array r
    is Sy @ r @ Sx. On stacks of tiles up to 127 nodes a side these dense
    products ran faster than scipy.fft.dstn, whose cost per short transform
    dominates."""
    Sx, ex = _dst_basis(sx)
    Sy, ey = _dst_basis(sy)
    return Sy, Sx, ey[:, None] + ex


def _laplace_solve(r: np.ndarray, dst: tuple) -> np.ndarray:
    """L^-1 on each tile interior of a stack (..., sy-1, sx-1)."""
    Sy, Sx, eig = dst
    return Sy @ ((Sy @ r @ Sx) / eig) @ Sx


def _edge_green(dst: tuple) -> np.ndarray:
    """L^-1 between the interior nodes next to the four edges of a tile, both
    sides listed bottom, top, left, right, each edge along its axis. An entry
    is the double sum over modes (q, p) of Sy[j, q] Sx[i, p] Sy[j', q] Sx[i', p]
    / lambda_qp; along an edge one of j, i is fixed, so each pair of edges is
    a product of square matrices of the tile's side and the full inverse is
    never formed."""
    Sy, Sx, eig = dst
    W = 1.0 / eig
    rows, cols = (Sy[0], Sy[-1]), (Sx[0], Sx[-1])
    hh = [[(Sx * ((r * s) @ W)) @ Sx for s in rows] for r in rows]
    vv = [[(Sy * (W @ (c * d))) @ Sy for d in cols] for c in cols]
    hv = [[(Sx * c) @ (W.T * r) @ Sy for c in cols] for r in rows]
    return np.block([hh[0] + hv[0], hh[1] + hv[1],
                     [hv[0][0].T, hv[1][0].T] + vv[0], [hv[0][1].T, hv[1][1].T] + vv[1]])


def _tile_side(side: int, other: int) -> int:
    """The divisor of a block side nearest, in ratio, to the other side: the
    tiles stay near square, so the interface complement stays sparse."""
    divisors = [d for d in range(1, side + 1) if side % d == 0]
    return min(divisors, key=lambda d: abs(math.log(d / other)))


def _rect_stiffness(sx: int, sy: int) -> sp.csr_matrix:
    """The a = 1 P1 stiffness of an sx by sy cell rectangle on its closed
    nodes, indexed [iy, ix] row-major. Each cell edge weighs 1/2 for each cell
    of the rectangle beside it: 1 inside, 1/2 along the rectangle's sides. A
    node couples to its four axis neighbours by minus their edge weights, so
    the matrix has five diagonals; on the whole square it is the 5-point
    Laplacian. Every entry is a sum of halves, so it is exact."""
    # the weight of each node's edge to its east and to its north neighbour,
    # 0 where it has none
    east, north = np.ones((2, sy + 1, sx + 1))
    east[[0, -1]] = north[:, [0, -1]] = 0.5
    east[:, -1] = north[-1] = 0.0
    e, n, k = east.ravel(), north.ravel(), sx + 1
    diag = e + n + np.r_[0.0, e[:-1]] + np.r_[np.zeros(k), n[:-k]]
    return sp.diags([-n[:-k], -e[:-1], diag, -e[:-1], -n[:-k]], [-k, -1, 0, 1, k], format="csr")


def _local_complement(sx: int, sy: int, dst: tuple) -> tuple:
    """(S_loc, bx, by): the Schur complement S_loc = A_BB - A_BI L^-1 A_IB of
    one sx by sy tile's stiffness at a = 1 onto its closed boundary, and the
    local node coordinates of that boundary in S_loc's order: the bottom, top,
    left and right edges without corners, then the corners SW, SE, NW, NE.
    A_IB links each non-corner boundary node to its one interior neighbour
    with weight -1, so the correction is _edge_green."""
    span_x, span_y = np.arange(1, sx), np.arange(1, sy)
    bx = np.concatenate([span_x, span_x, np.zeros(sy - 1, int), np.full(sy - 1, sx),
                         [0, sx, 0, sx]])
    by = np.concatenate([np.zeros(sx - 1, int), np.full(sx - 1, sy), span_y, span_y,
                         [0, 0, sy, sy]])
    b = by * (sx + 1) + bx
    S = _rect_stiffness(sx, sy)[b][:, b].toarray()
    if sx > 1 and sy > 1:
        S[:-4, :-4] -= _edge_green(dst)
    return 0.5 * (S + S.T), bx, by


def _mass_load(g: np.ndarray, h: float) -> np.ndarray:
    """P1 mass product M g at the interior nodes of a nodal array g indexed
    [iy, ix], or of each array of a stack g[..., iy, ix]: the result has g's
    shape less the boundary nodes. A node shares a triangle with its four
    axis neighbours and its two neighbours along the cells' SW-NE diagonal:
    the stencil is h^2/12 times 6 g at the node plus g at those six."""
    ring = (6.0 * g[..., 1:-1, 1:-1] + g[..., 1:-1, 2:] + g[..., 1:-1, :-2] + g[..., 2:, 1:-1]
            + g[..., :-2, 1:-1] + g[..., 2:, 2:] + g[..., :-2, :-2])
    return (h * h / 12.0) * ring


class _Workspace:
    """One (nx, ny, m) mesh: the square's a = 1 stiffness, the closed nodes of
    every block for the block products, and the static condensation of the
    tile interiors that every linear solve uses."""

    def __init__(self, nx: int, ny: int, m: int):
        if m < 2:
            raise ValueError("mesh resolution m must be at least 2")
        if m > 512:
            raise ValueError("mesh resolution m must not exceed 512")
        if m % nx or m % ny:
            raise ValueError("mesh must resolve partition: m must be a multiple of nx and ny")
        self.n_nodes = nn = (m + 1) * (m + 1)
        self.n_blocks = nb = nx * ny
        self.mx, self.my = mx, my = m // nx, m // ny
        nodes = np.arange(nn).reshape(m + 1, m + 1)
        self.interior = inner = nodes[1:-1, 1:-1].ravel()
        pos = np.full(nn, -1)
        pos[inner] = np.arange(inner.size)

        self.stiffness = _rect_stiffness(m, m)
        # every block has one shape, so one stiffness serves them all; column
        # i of _block_nodes lists block i's closed nodes in its [iy, ix] order
        self._block_stiffness = _rect_stiffness(mx, my)
        windows = sliding_window_view(nodes, (my + 1, mx + 1))[::my, ::mx]
        self._block_nodes = windows.reshape(nb, -1).T
        self.block_dst = _interior_dst(mx, my)

        # tiles of sx by sy cells; a tile's interior is its (sy-1, sx-1)
        # interior nodes, the interface the interior nodes on tile edges
        sx, sy = _tile_side(mx, my), _tile_side(my, mx)
        tx, ty = m // sx, m // sy
        self.tile_dst = _interior_dst(sx, sy)
        self._tile_block = (((np.arange(ty) * sy) // my)[:, None] * nx
                            + (np.arange(tx) * sx) // mx).ravel()
        tile_nodes = nodes[:-1, :-1].reshape(ty, sy, tx, sx)[:, 1:, :, 1:]
        tile_nodes = tile_nodes.transpose(0, 2, 1, 3).reshape(tx * ty, sy - 1, sx - 1)
        self._tile_interior = pos[tile_nodes]
        iy, ix = np.divmod(inner, m + 1)
        on_edge = (ix % sx == 0) | (iy % sy == 0)
        self._gamma = np.flatnonzero(on_edge)
        n_gamma = self._gamma.size
        gidx = np.full(nn, -1)
        gidx[inner[on_edge]] = np.arange(n_gamma)
        # C = -K at a = 1 from the interface to the stacked tile interiors, 1
        # for axis neighbours: the coupling is -a_i C, a gather and a scatter
        self._coupling = -self.stiffness[inner[on_edge]][:, tile_nodes.ravel()]
        # C^T, built once: every solve scatters the interface back with it
        self._coupling_t = self._coupling.T.tocsr()

        # S(a) = sum over tiles of a_i S_loc restricted to the interface, a
        # band of half-width b. Its lower band is _s_map @ a_tile: column t of
        # the map holds tile t's entries of S_loc, entry (row, col) at
        # col * (b+1) + row - col of an (n_gamma, b+1) array, whose transpose
        # is LAPACK's lower band storage in Fortran order
        if n_gamma:
            S_loc, bx, by = _local_complement(sx, sy, self.tile_dst)
            corner = ((np.arange(ty) * sy)[:, None] * (m + 1) + np.arange(tx) * sx).ravel()
            tile_boundary = gidx[corner[:, None] + by * (m + 1) + bx]
            r, c = np.nonzero(S_loc)
            rows, cols = tile_boundary[:, r], tile_boundary[:, c]
            keep = (cols >= 0) & (rows >= cols)
            below = rows[keep] - cols[keep]
            b = int(below.max())
            indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
            self._s_map = sp.csc_matrix((S_loc[r, c][np.nonzero(keep)[1]],
                                         cols[keep] * (b + 1) + below, indptr),
                                        shape=(n_gamma * (b + 1), tx * ty))

    def solver(self, coeffs: np.ndarray):
        """K(a)^-1 as a function of interior right-hand sides, one vector or
        one per column. It factors the band of S(a) once by banded Cholesky;
        each call solves L on the tile interiors (y = L^-1 b_I, independent
        of a), the interface from S(a) u_G = b_G + C y, and the interiors
        u_I = y/a_i + L^-1 C^T u_G. S(a) is positive definite for positive
        coefficients; where it is not, the factor raises LinAlgError."""
        a_tile = coeffs[self._tile_block]
        n_gamma = self._gamma.size
        solve_interface = np.asarray  # no interface: a single tile
        if n_gamma:
            # the map adds each slot's contributions in tile order, and pbtrf
            # factors the Fortran-ordered band in place
            band = (self._s_map @ a_tile).reshape(n_gamma, -1).T
            factor = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
            solve_interface = partial(cho_solve_banded, (factor, True), overwrite_b=True,
                                      check_finite=False)

        def solve(rhs: np.ndarray) -> np.ndarray:
            # one right-hand side per row of rhs.T: every stack is
            # (..., tile, sy-1, sx-1) and the factor sees Fortran columns
            rhs = rhs.T
            y = _laplace_solve(rhs[..., self._tile_interior], self.tile_dst)
            g = rhs[..., self._gamma] + (self._coupling @ y.reshape(rhs.shape[:-1] + (-1,)).T).T
            u = np.empty_like(rhs)
            u[..., self._gamma] = u_gamma = solve_interface(g.T).T
            y /= a_tile[:, None, None]
            y += _laplace_solve((self._coupling_t @ u_gamma.T).T.reshape(y.shape), self.tile_dst)
            u[..., self._tile_interior] = y
            return u.T

        return solve

    def block_products(self, x: np.ndarray) -> np.ndarray:
        """The interior columns K_i x, one per block, for interior values x
        with zero boundary data."""
        v = np.zeros(self.n_nodes)
        v[self.interior] = x
        out = np.zeros((self.n_nodes, self.n_blocks))
        nodes = self._block_nodes
        out[nodes, np.arange(self.n_blocks)] = self._block_stiffness @ v[nodes]
        return out[self.interior]


@lru_cache(maxsize=16)
def _workspace(nx: int, ny: int, m: int) -> _Workspace:
    return _Workspace(nx, ny, m)


def as_nodal_field(f, m: int) -> np.ndarray:
    """Normalize a source input (constant, callable of (x, y), or nodal array)
    to a finite (m+1, m+1) array indexed [iy, ix]. A callable's result is
    broadcast, so one that returns a scalar gives a constant field."""
    shape = (m + 1, m + 1)
    if callable(f):
        xs = np.linspace(0.0, 1.0, m + 1)
        X, Y = np.meshgrid(xs, xs, indexing="xy")
        f = np.broadcast_to(np.asarray(f(X, Y), dtype=float), shape)
    elif np.ndim(f) == 0:
        f = np.full(shape, f, dtype=float)
    return _nodal_array(f, m, "source field")


def _nodal_array(values, m: int, name: str) -> np.ndarray:
    """values as a finite float array of shape (m+1, m+1), indexed [iy, ix].
    Any other shape is rejected, never reshaped: a flat array of (m+1)^2
    values does not say which way its rows run."""
    arr = np.asarray(values, dtype=float)
    shape = (m + 1, m + 1)
    if arr.shape != shape:
        raise ValueError(f"{name} must hold the {shape} mesh nodes, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def fem_solve(a: PwConstCoefficient, f, m: int) -> np.ndarray:
    """P1 Galerkin solution with homogeneous Dirichlet data, returned as an
    (m+1, m+1) nodal array (zeros on the boundary)."""
    ws = _workspace(a.partition.nx, a.partition.ny, m)
    u = np.zeros((m + 1, m + 1))
    load = _mass_load(as_nodal_field(f, m), 1.0 / m)
    u[1:-1, 1:-1] = ws.solver(a.coeffs)(load.ravel()).reshape(m - 1, m - 1)
    return u


def grad_norm_by_block(u: np.ndarray, partition: Partition2D, m: int) -> np.ndarray:
    """|grad u|_{L2(D_i)} per block for a nodal field u on (m+1)^2 nodes."""
    ws = _workspace(partition.nx, partition.ny, m)
    v = _nodal_array(u, m, "u")
    # a cell's energy is half the sum of its four squared edge differences,
    # h cancelling on right isosceles triangles
    dx, dy = np.diff(v, axis=1), np.diff(v, axis=0)
    dx *= dx
    dy *= dy
    cell = 0.5 * (dx[:-1] + dx[1:] + dy[:, :-1] + dy[:, 1:])
    per_block = cell.reshape(partition.ny, ws.my, partition.nx, ws.mx).sum(axis=(1, 3))
    return np.sqrt(per_block.ravel())


def hminus1_norm(f, partition: Partition2D, block, m: int):
    """Discrete H^-1 norm of f on a block: |grad w|_{L2(block)} for the
    solution w of -Lap w = f with zero data on the block boundary. With the
    block load s and the block's interior 5-point Laplacian L = Q diag(lambda) Q
    (Q the orthonormal DST-I), |grad w|^2 = s . L^-1 s = sum (Q s)^2 / lambda.

    block is one id, which gives a float, or a sequence of ids, which gives
    an array of their norms in that order. The requested blocks' nodal
    windows are stacked, and one DST-I over the stack transforms every
    load, so the work is that of the requested blocks."""
    ids = np.asarray(block)
    if ids.ndim > 1 or ids.size and ids.dtype.kind not in "iu":
        raise ValueError("block must be an integer id or a sequence of integer ids")
    if ids.size and not (ids.min() >= 0 and ids.max() < partition.n_blocks):
        raise ValueError(f"block ids must lie in [0, {partition.n_blocks})")
    ws = _workspace(partition.nx, partition.ny, m)
    by, bx = np.divmod(ids.astype(np.intp).ravel(), partition.nx)
    windows = sliding_window_view(as_nodal_field(f, m), (ws.my + 1, ws.mx + 1))
    Sy, Sx, eig = ws.block_dst
    hat = Sy @ _mass_load(windows[by * ws.my, bx * ws.mx], 1.0 / m) @ Sx
    norms = np.sqrt((hat * hat / eig).reshape(ids.size, eig.size).sum(axis=1))
    return float(norms[0]) if ids.ndim == 0 else norms


def verify_pw_bound(
    a: PwConstCoefficient,
    b: PwConstCoefficient,
    f,
    m: int,
    bounds: CoefficientBounds | None = None,
    block_hminus1: np.ndarray | None = None,
) -> ExperimentReport:
    """Per-block two-sided check of the stability bound.

    Reports lhs = |a_i - b_i| |f|_{H^-1(D_i)}, rhs = Lam^2 |grad(u_a-u_b)|_{L2(D_i)}
    and the ratio lhs/rhs, which must not exceed 1 + SLACK_COEF/m. Lam defaults
    to the largest coefficient present; given bounds, both coefficients must
    lie in them, as the bound assumes. block_hminus1 lets sweeps reuse the
    f-only norms; it must be a finite, non-negative float array of shape
    (n_blocks,). Where such a norm is 0, lhs is 0 for every pair and the check
    is vacuous; notes lists those blocks. When every block is vacuous, nothing
    was checked and the report fails.
    """
    if a.partition != b.partition:
        raise ValueError("coefficient pair must share one partition")
    if bounds is not None and not (bounds.admits(a.coeffs) and bounds.admits(b.coeffs)):
        raise ValueError(f"coefficients outside [{bounds.lam}, {bounds.Lam}]")
    part = a.partition
    if block_hminus1 is not None and not (
        isinstance(block_hminus1, np.ndarray) and block_hminus1.dtype.kind == "f"
        and block_hminus1.shape == (part.n_blocks,)
        and np.all((block_hminus1 >= 0.0) & (block_hminus1 < np.inf))
    ):
        raise ValueError(f"block_hminus1 must be a finite, non-negative float array of "
                         f"shape ({part.n_blocks},)")
    Lam = bounds.Lam if bounds is not None else float(max(a.coeffs.max(), b.coeffs.max()))
    f = as_nodal_field(f, m)  # sample a callable source once for every use below

    u_a = fem_solve(a, f, m)
    u_b = fem_solve(b, f, m)
    rhs = Lam * Lam * grad_norm_by_block(u_a - u_b, part, m)
    if block_hminus1 is None:
        block_hminus1 = hminus1_norm(f, part, range(part.n_blocks), m)
    lhs = np.abs(a.coeffs - b.coeffs) * block_hminus1

    tiny = 1e-300
    ratios = np.where(lhs <= tiny, 0.0, lhs / np.maximum(rhs, tiny))
    slack = 1.0 + SLACK_COEF / m
    vacuous = np.flatnonzero(block_hminus1 == 0.0).tolist()
    checked = len(vacuous) < part.n_blocks
    passed = checked and bool(np.all(ratios <= slack))
    notes = f"vacuous on blocks {vacuous}: |f|_H^-1 is 0 there" if vacuous else ""
    if not checked:
        notes += "; no block was checked"

    return ExperimentReport(
        name="pw_bound",
        inputs={"nx": part.nx, "ny": part.ny, "m": m, "Lambda": Lam, "slack": slack},
        metrics={"max_ratio": float(ratios.max()), "min_hminus1": float(block_hminus1.min())},
        curves={
            "block": list(range(part.n_blocks)),
            "lhs": list(lhs),
            "rhs": list(rhs),
            "ratio": list(ratios),
        },
        passed=passed,
        notes=notes,
    )


def sweep_pw_bound(
    partition: Partition2D,
    f,
    m: int,
    bounds: CoefficientBounds,
    trials: int,
    seed: int,
) -> ExperimentReport:
    """verify_pw_bound on trials pairs drawn from np.random.default_rng(seed),
    a's constants then b's, uniform in [lam, Lam]; one hminus1_norm call
    serves every pair. Passes when every pair does. The pairs share the block
    norms, so they share their notes on vacuous blocks, which the sweep keeps,
    and a sweep in which every block is vacuous checked nothing and fails."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    nb = partition.n_blocks
    f = as_nodal_field(f, m)
    hm = hminus1_norm(f, partition, range(nb), m)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        a = PwConstCoefficient(partition, rng.uniform(bounds.lam, bounds.Lam, nb))
        b = PwConstCoefficient(partition, rng.uniform(bounds.lam, bounds.Lam, nb))
        reports.append(verify_pw_bound(a, b, f, m, bounds=bounds, block_hminus1=hm))
    ratios = np.array([r.metrics["max_ratio"] for r in reports])
    return ExperimentReport(
        name="pw2d_verify",
        inputs={"nx": partition.nx, "ny": partition.ny, "m": m, "trials": trials,
                "seed": seed, "lambda": bounds.lam, "Lambda": bounds.Lam},
        metrics={"worst_ratio": float(ratios.max()), "slack": reports[0].inputs["slack"]},
        curves={"trial": np.arange(trials), "max_ratio": ratios},
        passed=all(r.passed for r in reports),
        notes=reports[0].notes,
    )


@dataclass(eq=False)
class PwRecovery:
    """Recovered piecewise-constant coefficient plus solver diagnostics:
    sweeps counts Gauss-Newton steps, objective is the final misfit
    |grad(u(a) - u_meas)|_{L2}."""

    coeff: PwConstCoefficient
    converged: bool
    warning: str | None
    sweeps: int
    objective: float


def recover_pw(
    u_meas: np.ndarray,
    f,
    partition: Partition2D,
    bounds: CoefficientBounds,
    m: int,
) -> PwRecovery:
    """Block constants a in [lam, Lam] minimizing |grad(u(a) - u_meas)|_{L2}^2.

    The start is the equation-error solution: sum_i a_i K_i u = b is linear in
    a, so a least-squares fit with u = u_meas, clipped to [lam, Lam], recovers
    exact data outright. Projected Gauss-Newton steps on the output misfit
    then keep the result stable under noise. Each step factors the interface
    complement S(a) once and reads the state and all block sensitivities
    -K^{-1} K_i u off that factor; a step that raises the misfit by more
    than SWEEP_TOL relative to its value is halved. Steps stop, converged,
    when the misfit falls by at most SWEEP_TOL relative, or rises by at most
    that (rounding, and the step is not taken), or the step is below 1e-12;
    after MAX_SWEEPS steps the result carries a warning. A non-finite u_meas
    is rejected. The data decide identifiability: when the equation-error
    matrix [K_i u] is rank deficient (fewer interior nodes than blocks, as
    when every block is one cell; smallest singular value at most 1e-12
    times the largest; or the matrix is zero), some block's column lies in
    the span of the others and its constant is not determined; the result
    then holds midpoint values and a warning.
    """
    ws = _workspace(partition.nx, partition.ny, m)
    # LAPACK would print to stderr on a NaN before lstsq raises
    u_flat = _nodal_array(u_meas, m, "u_meas").ravel()

    nb = partition.n_blocks
    inner = ws.interior
    b_int = _mass_load(as_nodal_field(f, m), 1.0 / m).ravel()
    A = ws.block_products(u_flat[inner])
    start, _, _, sv = np.linalg.lstsq(A, b_int, rcond=None)
    # lstsq gives min(rows, blocks) singular values: a short matrix hides
    # the zero ones
    if sv.size < nb or sv[-1] <= 1e-12 * sv[0]:
        mid = 0.5 * (bounds.lam + bounds.Lam)
        return PwRecovery(
            coeff=PwConstCoefficient(partition, np.full(nb, mid)),
            converged=False,
            warning="data do not determine every block: coefficients there are arbitrary",
            sweeps=0,
            objective=0.0,
        )

    coeffs = np.clip(start, bounds.lam, bounds.Lam)

    def linearize(c: np.ndarray):
        """Misfit J(c) with its Gauss-Newton gradient and normal matrix, from
        one factorization: column 0 of Z is u(c) - u_meas, the rest du/dc_i."""
        solve = ws.solver(c)
        x = solve(b_int)
        Z = np.zeros((ws.n_nodes, nb + 1))
        Z[:, 0] = -u_flat
        Z[inner, 0] += x
        Z[inner, 1:] = -solve(ws.block_products(x))
        gram = Z.T @ (ws.stiffness @ Z)
        return max(gram[0, 0], 0.0), gram[1:, 0], gram[1:, 1:]

    J, g, G = linearize(coeffs)
    converged = False
    steps = 0
    for steps in range(1, MAX_SWEEPS + 1):
        delta = np.linalg.solve(G, -g)
        while True:
            trial = np.clip(coeffs + delta, bounds.lam, bounds.Lam)
            step = float(np.abs(trial - coeffs).max())
            J_new, g_new, G_new = linearize(trial)
            # a rise within SWEEP_TOL is rounding: the step has settled
            if J_new - J <= SWEEP_TOL * J or step < 1e-12:
                break
            delta = 0.5 * delta
        settled = J - J_new <= SWEEP_TOL * J or step < 1e-12
        if J_new <= J:
            coeffs, J, g, G = trial, J_new, g_new, G_new
        if settled:
            converged = True
            break

    return PwRecovery(
        coeff=PwConstCoefficient(partition, coeffs),
        converged=converged,
        warning=None if converged else f"Gauss-Newton did not settle within {MAX_SWEEPS} steps",
        sweeps=steps,
        objective=math.sqrt(J),
    )


def field_to_json_dict(u: np.ndarray) -> dict:
    """Flat serialization of a nodal field: {m, values row-major in y}."""
    arr = np.asarray(u, dtype=float)
    side = arr.shape[0]
    return {"m": side - 1, "values": arr.ravel()}
