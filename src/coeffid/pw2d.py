"""Piecewise-constant coefficients on the unit square: P1 FEM forward solves,
discrete H^-1 block norms, verification of the per-block stability bound

    |a_i - b_i| * |f|_{H^-1(D_i)}  <=  Lam^2 * |grad(u_a - u_b)|_{L2(D_i)},

and recovery of the block constants from one measured solution.

The mesh is uniform: m x m square cells, each cut along its SW-NE diagonal
into two right isosceles triangles whose legs are cell edges. A P1 field's
energy on such a triangle is half the sum of its squared leg differences,
whatever the mesh width, so each (nx, ny, m) workspace holds the mesh as one
list of legs (tail node, head node, block of the cell). The stiffness matrix,
the block products K_i u, the block gradient norms and the Gauss-Newton gram
all come from leg differences; a constant coefficient's stiffness is the
5-point Laplacian. Loads apply the P1 mass stencil to the nodal source.

When m resolves the block partition, multiplying a test function supported in
one block by a constant keeps it in the discrete space, so the inequality
above holds exactly at the discrete level (up to rounding) when the H^-1 norm
is realized by its discrete Riesz representative on the same mesh. The
verification report still carries the documented slack factor
1 + SLACK_COEF/m for the continuum reading.

Every linear solve is a sparse LU factorization (symmetric minimum-degree
ordering) followed by triangular solves; a factor is reused for every
right-hand side that shares its matrix. Block H^-1 norms solve on block 0's
interior 5-point Laplacian: every block of a uniform partition has the same
one, so one factor serves them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grids import CoefficientBounds, json_count, json_fields
from .report import ExperimentReport

__all__ = [
    "Partition2D",
    "PwConstCoefficient",
    "PwRecovery",
    "fem_solve",
    "build_system",
    "hminus1_norm",
    "grad_norm_by_block",
    "verify_pw_bound",
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

    def admissible(self, bounds: CoefficientBounds) -> bool:
        return bool(np.all((self.coeffs >= bounds.lam) & (self.coeffs <= bounds.Lam)))

    @classmethod
    def from_json_dict(cls, d: dict) -> "PwConstCoefficient":
        nx, ny, coeffs = json_fields(d, ("nx", "ny", "coeffs"))
        return cls(Partition2D(json_count(nx, "nx"), json_count(ny, "ny")),
                   np.asarray(coeffs, dtype=float))


def _factor(K: sp.spmatrix):
    """Sparse LU of a symmetric positive definite stiffness matrix."""
    return splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


def _second_difference(k: int) -> sp.spmatrix:
    """tridiag(-1, 2, -1) of order k, k = 0 included."""
    return sp.spdiags(np.tile([[-1.0], [2.0], [-1.0]], k), [-1, 0, 1], k, k)


def _mass_load(g: np.ndarray, h: float) -> np.ndarray:
    """P1 mass product M g at the interior nodes of a nodal array g indexed
    [iy, ix], flattened row-major in y. A node shares a triangle with its four
    axis neighbours and its two neighbours along the cells' SW-NE diagonal:
    the stencil is h^2/12 times 6 g at the node plus g at those six."""
    ring = (6.0 * g[1:-1, 1:-1] + g[1:-1, 2:] + g[1:-1, :-2] + g[2:, 1:-1] + g[:-2, 1:-1]
            + g[2:, 2:] + g[:-2, :-2])
    return (h * h / 12.0) * ring.ravel()


class _Workspace:
    """The legs of one (nx, ny, m) mesh and the structures derived from them."""

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

        # the four legs of the cell with SW corner s: the lower triangle's
        # bottom and right edges, the upper triangle's top and left edges
        s = nodes[:-1, :-1].ravel()
        tail = np.stack([s, s + 1, s + m + 2, s + m + 1], axis=1).ravel()
        head = np.stack([s + 1, s + m + 2, s + m + 1, s], axis=1).ravel()
        cy, cx = np.divmod(np.arange(m * m), m)
        leg_block = np.repeat((cy // my) * nx + cx // mx, 4)
        # a leg of weight a/2 adds a/2 to the diagonal at each interior end
        # and -a/2 between two interior ends. Per end: its entry (node,
        # block) of the block products, and its slots in the interior CSR
        # pattern with the entry of the weights [a/2, -a/2] each takes
        ends = np.concatenate([tail, head])
        ends_block = np.tile(leg_block, 2)
        self._ends = ends * nb + ends_block
        n = inner.size
        pos = np.full(nn, -1)
        pos[inner] = np.arange(n)
        e, o = pos[ends], pos[np.concatenate([head, tail])]
        rows, cols = np.concatenate([e, e]), np.concatenate([e, o])
        keep = (rows >= 0) & (cols >= 0)
        keys, slot = np.unique((rows * n + cols)[keep], return_inverse=True)
        slot_weight = np.concatenate([ends_block, ends_block + nb])[keep]
        self._indices = (keys % n).astype(np.int32)
        self._indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        # int32 halves what each cached workspace holds; the block-product
        # entries stay wide, as n_nodes * n_blocks can pass 2^31
        self.tail, self.head, self.leg_block, self._slot, self._slot_weight = (
            a.astype(np.int32) for a in (tail, head, leg_block, slot, slot_weight))

        # the stiffness of a = 1 is the 5-point Laplacian; every block of a
        # uniform partition has block 0's, so one factor serves them all
        self.block_laplacian = sp.kronsum(
            _second_difference(mx - 1), _second_difference(my - 1), format="csc")
        self.block_lu = _factor(self.block_laplacian)

    def stiffness(self, coeffs: np.ndarray) -> sp.csr_matrix:
        """K(a) on the interior nodes: the leg weights a/2 summed into the
        fixed pattern."""
        half = 0.5 * coeffs
        data = np.bincount(self._slot, weights=np.concatenate([half, -half])[self._slot_weight],
                           minlength=self._indices.size)
        return sp.csr_matrix((data, self._indices, self._indptr), shape=(self.interior.size,) * 2)

    def block_products(self, x: np.ndarray) -> np.ndarray:
        """The interior columns K_i x, one per block, for interior values x
        with zero boundary data."""
        v = np.zeros(self.n_nodes)
        v[self.interior] = x
        d = 0.5 * (v[self.tail] - v[self.head])
        out = np.bincount(self._ends, weights=np.concatenate([d, -d]),
                          minlength=self.n_nodes * self.n_blocks)
        return out.reshape(self.n_nodes, self.n_blocks)[self.interior]


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
        arr = np.broadcast_to(np.asarray(f(X, Y), dtype=float), shape)
    else:
        arr = np.asarray(f, dtype=float)
        if arr.ndim == 0:
            arr = np.full(shape, float(arr))
        elif arr.shape != shape:
            raise ValueError(f"nodal field must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("source field must be finite")
    return arr


def build_system(a: PwConstCoefficient, f, m: int) -> tuple:
    """Assembled interior system K u = load for one coefficient field, as
    (K, load). K is symmetric positive definite on the (m-1)^2 interior nodes,
    ordered as the nodal array's [1:-1, 1:-1] block row-major in y; boundary
    nodes carry the homogeneous Dirichlet constraint."""
    ws = _workspace(a.partition.nx, a.partition.ny, m)
    return ws.stiffness(a.coeffs), _mass_load(as_nodal_field(f, m), 1.0 / m)


def fem_solve(a: PwConstCoefficient, f, m: int) -> np.ndarray:
    """P1 Galerkin solution with homogeneous Dirichlet data, returned as an
    (m+1, m+1) nodal array (zeros on the boundary)."""
    K, load = build_system(a, f, m)
    u = np.zeros((m + 1, m + 1))
    u[1:-1, 1:-1] = _factor(K).solve(load).reshape(m - 1, m - 1)
    return u


def grad_norm_by_block(u: np.ndarray, partition: Partition2D, m: int) -> np.ndarray:
    """|grad u|_{L2(D_i)} per block for a nodal field u on (m+1)^2 nodes."""
    ws = _workspace(partition.nx, partition.ny, m)
    v = np.asarray(u, dtype=float).ravel()
    if v.size != ws.n_nodes:
        raise ValueError(f"u has {v.size} nodes, the mesh has {ws.n_nodes}")
    # half the squared leg difference per leg: h cancels on right isosceles triangles
    d = v[ws.tail] - v[ws.head]
    per_block = np.bincount(ws.leg_block, weights=0.5 * d * d, minlength=partition.n_blocks)
    return np.sqrt(per_block)


def hminus1_norm(f, partition: Partition2D, block: int, m: int) -> float:
    """Discrete H^-1 norm of f on one block: solve -Lap w = f with zero data
    on the block boundary and return |grad w|_{L2(block)}. Every block of a
    uniform partition shares block 0's interior 5-point Laplacian, which the
    workspace factors once."""
    if not 0 <= block < partition.n_blocks:
        raise ValueError(f"block must lie in [0, {partition.n_blocks})")
    ws = _workspace(partition.nx, partition.ny, m)
    by, bx = divmod(block, partition.nx)
    sub = as_nodal_field(f, m)[by * ws.my : (by + 1) * ws.my + 1, bx * ws.mx : (bx + 1) * ws.mx + 1]
    w = ws.block_lu.solve(_mass_load(sub, 1.0 / m))
    return float(math.sqrt(max(w @ (ws.block_laplacian @ w), 0.0)))


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
    to the largest coefficient present. block_hminus1 lets sweeps reuse the
    f-only norms.
    """
    if a.partition != b.partition:
        raise ValueError("coefficient pair must share one partition")
    part = a.partition
    Lam = bounds.Lam if bounds is not None else float(max(a.coeffs.max(), b.coeffs.max()))
    f = as_nodal_field(f, m)  # sample a callable source once for every use below

    u_a = fem_solve(a, f, m)
    u_b = fem_solve(b, f, m)
    rhs = Lam * Lam * grad_norm_by_block(u_a - u_b, part, m)
    if block_hminus1 is None:
        block_hminus1 = np.array([hminus1_norm(f, part, i, m) for i in range(part.n_blocks)])
    lhs = np.abs(a.coeffs - b.coeffs) * block_hminus1

    tiny = 1e-300
    ratios = np.where(lhs <= tiny, 0.0, lhs / np.maximum(rhs, tiny))
    slack = 1.0 + SLACK_COEF / m
    passed = bool(np.all(ratios <= slack))

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
    then keep the result stable under noise. Each step factors K(a) once and
    reads the state and all block sensitivities -K^{-1} K_i u off that factor;
    a step that raises the misfit is halved. Steps stop, converged, when the
    misfit falls by at most SWEEP_TOL relative to its value or the step is
    below 1e-12; after MAX_SWEEPS steps the result carries a warning. The data
    decide identifiability: when the equation-error matrix [K_i u] is rank
    deficient (smallest singular value at most 1e-12 times the largest, or
    the matrix is zero), some block's column lies in the span of the others
    and its constant is not determined; the result then holds midpoint
    values and a warning.
    """
    ws = _workspace(partition.nx, partition.ny, m)
    u_flat = np.asarray(u_meas, dtype=float).ravel()
    if u_flat.size != ws.n_nodes:
        raise ValueError("u_meas does not match the mesh")

    nb = partition.n_blocks
    inner = ws.interior
    b_int = _mass_load(as_nodal_field(f, m), 1.0 / m)
    A = ws.block_products(u_flat[inner])
    start, _, _, sv = np.linalg.lstsq(A, b_int, rcond=None)
    if sv[-1] <= 1e-12 * sv[0]:
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
        lu = _factor(ws.stiffness(c))
        x = lu.solve(b_int)
        Z = np.zeros((ws.n_nodes, nb + 1))
        Z[:, 0] = -u_flat
        Z[inner, 0] += x
        Z[inner, 1:] = -lu.solve(ws.block_products(x))
        D = Z[ws.tail] - Z[ws.head]
        gram = 0.5 * (D.T @ D)
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
            if J_new <= J or step < 1e-12:
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
