"""Independent reference implementations used only to cross-check the library.

These deliberately avoid the code paths they validate: the 1D oracle is a
banded finite-difference discretization solved directly, the 2D oracle is the
classical double-sine series for the unit-square Poisson problem, and the
block H^-1 norm is a dense solve of the 5-point stencil. The serialization
oracles render one element at a time, with no column formatting or memo.
The P1 triangle assembly is the 2D FEM written out per triangle: local
stiffness and mass matrices scattered over each cell's two triangles, the
stiffness summed over per-block matrices, with none of the weighted edge
sums of coeffid.pw2d; its systems are solved by sparse LU of the whole
stiffness matrix, and block H^-1 norms by sparse LU of the block's 5-point
Laplacian, with none of the interface condensation or sine transforms of
coeffid.pw2d.
The band measure is the per-cell overlap sum, one band per call, with none of
the sorting and counting of coeffid.stability.k_rho_measure. The 1D
flux-identity kernels are written out with a fresh array for every step, a
boolean gather and scatter for the unmasked nodes, and every dyadic scale
evaluated over every node: the library must match them bit for bit.
"""

import csv
import json
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu

from coeffid.grids import GridFunction1D, fmt_float, indicator_values
from coeffid.stability import _bump


def fd_solve(a: GridFunction1D, f: GridFunction1D) -> GridFunction1D:
    """Second-order finite differences for -(a u')' = f, u(lo) = u(hi) = 0.

    Flux form with arithmetic-mean midpoint coefficients; tridiagonal direct
    solve. Entirely independent of the flux-identity solver.
    """
    n = a.n
    h = a.h
    av = a.values
    am = 0.5 * (av[:-1] + av[1:])  # midpoint coefficients, length n
    # interior unknowns u_1 .. u_{n-1}
    main = (am[:-1] + am[1:]) / h**2
    off = -am[1:-1] / h**2
    ab = np.zeros((3, n - 1))
    ab[0, 1:] = off
    ab[1, :] = main
    ab[2, :-1] = off
    u_int = solve_banded((1, 1), ab, f.values[1:-1])
    u = np.zeros(n + 1)
    u[1:-1] = u_int
    return a.with_values(u)


def poisson_square_series(x: float, y: float, nterms: int = 99) -> float:
    """Double-sine series for -Lap u = 1 on the unit square, zero boundary."""
    total = 0.0
    for i in range(1, nterms + 1, 2):
        for j in range(1, nterms + 1, 2):
            coef = 16.0 / (np.pi**4 * i * j * (i * i + j * j))
            total += coef * np.sin(i * np.pi * x) * np.sin(j * np.pi * y)
    return total


def quadratic_band_measure(M: float, rho: float) -> float:
    """Exact measure of {x in (0,1) : |x - x^2 - M| <= rho} from the parabola
    roots, for band levels strictly inside (0, 1/4)."""

    def roots(c):
        if c < 0.0:
            return 0.0, 1.0
        disc = 1.0 - 4.0 * c
        if disc < 0.0:
            return None
        r = np.sqrt(disc)
        return (1.0 - r) / 2.0, (1.0 + r) / 2.0

    lo_band = roots(M + rho)
    hi_band = roots(M - rho)
    if hi_band is None:
        return 0.0
    x1, x4 = hi_band
    if lo_band is None:
        return x4 - x1
    x2, x3 = lo_band
    return (x2 - x1) + (x4 - x3)


def band_measure_per_cell(F: GridFunction1D, M: float, rho: float) -> float:
    """|{x : |F(x) - M| <= rho}| for the piecewise-linear interpolant of F as
    a sum of per-cell fractions: the overlap of the cell's range with the band
    over its width, or 1 for a flat cell whose level lies in the closed band."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    v = F.values
    lo = np.minimum(v[:-1], v[1:])
    hi = np.maximum(v[:-1], v[1:])
    band_lo, band_hi = M - rho, M + rho
    overlap = np.minimum(hi, band_hi) - np.maximum(lo, band_lo)
    width = hi - lo
    sloped = width > 0.0
    frac = np.where(
        sloped,
        np.clip(overlap, 0.0, None) / np.where(sloped, width, 1.0),
        ((lo >= band_lo) & (lo <= band_hi)).astype(float),
    )
    return float(F.h * frac.sum())


def block_hminus1_dense(f, nx: int, ny: int, block: int, m: int) -> float:
    """Discrete H^-1 norm of f on one block of an nx x ny partition of the
    unit square at mesh width 1/m: solve K w = b densely on the block's
    interior nodes and return sqrt(w . K w).

    K is the 5-point stencil, which is the P1 stiffness on right triangles cut
    along the (1, 1) diagonal. b is the P1 consistent-mass load: h^2/2 times f
    at the node plus h^2/12 times f at each of its six mesh neighbours, the
    four axis neighbours and the diagonal pair (+1, +1), (-1, -1).
    """
    mx, my = m // nx, m // ny
    by, bx = divmod(block, nx)
    h = 1.0 / m
    X, Y = np.meshgrid((bx * mx + np.arange(mx + 1)) * h, (by * my + np.arange(my + 1)) * h)
    fv = np.broadcast_to(np.asarray(f(X, Y), dtype=float), X.shape)
    nodes = [(i, j) for j in range(1, my) for i in range(1, mx)]
    index = {node: k for k, node in enumerate(nodes)}
    K = np.zeros((len(nodes), len(nodes)))
    b = np.zeros(len(nodes))
    axis = ((1, 0), (-1, 0), (0, 1), (0, -1))
    ring = axis + ((1, 1), (-1, -1))
    for k, (i, j) in enumerate(nodes):
        K[k, k] = 4.0
        for di, dj in axis:
            if (i + di, j + dj) in index:
                K[k, index[i + di, j + dj]] = -1.0
        b[k] = h * h / 2.0 * fv[j, i] + h * h / 12.0 * sum(fv[j + dj, i + di] for di, dj in ring)
    w = np.linalg.solve(K, b)
    return float(np.sqrt(w @ K @ w))


# local P1 stiffness of the triangles (n00, n10, n11) and (n00, n11, n01) of a
# square cell, and the local P1 mass over the triangle area
_P1_STIFF = 0.5 * np.array([
    [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]],
    [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]],
])
_P1_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def p1_triangles(nx: int, ny: int, m: int) -> tuple:
    """Triangle node triples of the m x m cell mesh, nodes indexed
    iy*(m+1) + ix, and the block of each triangle. Cell (cx, cy) yields
    (n00, n10, n11) and then (n00, n11, n01)."""
    cy, cx = np.divmod(np.arange(m * m), m)
    n00 = cy * (m + 1) + cx
    n01 = n00 + (m + 1)
    tri = np.empty((2 * m * m, 3), dtype=np.int64)
    tri[0::2] = np.stack([n00, n00 + 1, n01 + 1], axis=1)
    tri[1::2] = np.stack([n00, n01 + 1, n01], axis=1)
    block = np.repeat((cy // (m // ny)) * nx + cx // (m // nx), 2)
    return tri, block


def p1_assemble(tri: np.ndarray, local: np.ndarray, nnodes: int) -> sp.csr_matrix:
    """Sum local matrices over the triangles into a CSR matrix without stored
    zeros. local has shape (2, 3, 3), one matrix per orientation, so tri
    must list each cell's two triangles consecutively."""
    per_tri = local[np.arange(tri.shape[0]) % 2]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    mat = sp.coo_matrix((per_tri.ravel(), (rows, cols)), shape=(nnodes, nnodes)).tocsr()
    mat.eliminate_zeros()
    return mat


def p1_interior(m: int) -> np.ndarray:
    """Node numbers of the interior nodes, row-major in y."""
    return np.arange((m + 1) ** 2).reshape(m + 1, m + 1)[1:-1, 1:-1].ravel()


def p1_stiffness(coeffs, nx: int, ny: int, m: int) -> sp.csr_matrix:
    """Interior stiffness of a piecewise-constant coefficient: each block's P1
    stiffness over its own triangles, restricted to the interior nodes,
    scaled by its constant and summed over the blocks in id order."""
    tri, block = p1_triangles(nx, ny, m)
    inner = p1_interior(m)
    K = None
    for blk, c in enumerate(coeffs):
        Kb = p1_assemble(tri[block == blk], _P1_STIFF, (m + 1) ** 2)[inner][:, inner]
        K = c * Kb if K is None else K + c * Kb
    return K.tocsr()


def p1_block_stiffness(nx: int, ny: int, m: int, blk: int) -> np.ndarray:
    """The P1 stiffness at a = 1 of one block's own triangles on the block's
    closed nodes, row-major in y, as a dense array."""
    tri, block = p1_triangles(nx, ny, m)
    mx, my = m // nx, m // ny
    by, bx = divmod(blk, nx)
    nodes = np.arange((m + 1) ** 2).reshape(m + 1, m + 1)
    closed = nodes[by * my : by * my + my + 1, bx * mx : bx * mx + mx + 1].ravel()
    K = p1_assemble(tri[block == blk], _P1_STIFF, (m + 1) ** 2)
    return K[closed][:, closed].toarray()


def p1_mass(m: int) -> sp.csr_matrix:
    """P1 mass matrix of the whole mesh, every node included."""
    tri, _ = p1_triangles(1, 1, m)
    h = 1.0 / m
    return p1_assemble(tri, np.stack([_P1_MASS, _P1_MASS]) * (0.5 * h * h), (m + 1) ** 2)


def lu_solve(K: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """K^-1 rhs by sparse LU of the whole matrix, one vector or one per column."""
    return splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}).solve(rhs)


def p1_fem_solve(coeffs, f: np.ndarray, nx: int, ny: int, m: int) -> np.ndarray:
    """The interior values of the P1 solution for a nodal source f: sparse LU
    of the triangle-assembled stiffness, the load from the mass matrix."""
    load = (p1_mass(m) @ np.asarray(f, dtype=float).ravel())[p1_interior(m)]
    return lu_solve(p1_stiffness(coeffs, nx, ny, m), load)


def second_difference(k: int) -> sp.spmatrix:
    """tridiag(-1, 2, -1) of order k."""
    return sp.spdiags(np.tile([[-1.0], [2.0], [-1.0]], k), [-1, 0, 1], k, k)


def block_hminus1_lu(f: np.ndarray, nx: int, ny: int, m: int) -> np.ndarray:
    """Discrete H^-1 norm of a nodal source on every block: w solves the
    block's interior 5-point Laplacian (a Kronecker sum of second
    differences, factored by sparse LU) against the rows of the global mass
    product at the block's interior nodes, and the norm is sqrt(w . L w). A
    block with no interior node has norm 0."""
    mx, my = m // nx, m // ny
    if mx < 2 or my < 2:
        return np.zeros(nx * ny)
    nodes = np.arange((m + 1) ** 2).reshape(m + 1, m + 1)
    load = p1_mass(m) @ np.asarray(f, dtype=float).ravel()
    L = sp.kronsum(second_difference(mx - 1), second_difference(my - 1), format="csc")
    out = []
    for block in range(nx * ny):
        by, bx = divmod(block, nx)
        rows = nodes[by * my + 1 : (by + 1) * my, bx * mx + 1 : (bx + 1) * mx].ravel()
        w = lu_solve(L, load[rows])
        out.append(np.sqrt(w @ (L @ w)))
    return np.array(out)


def p1_grad_norm_by_block(u: np.ndarray, nx: int, ny: int, m: int) -> np.ndarray:
    """|grad u|_{L2(D_i)} per block as the sum of the per-triangle energies
    u_T . S_T u_T with the local stiffness S_T."""
    tri, block = p1_triangles(nx, ny, m)
    uT = np.asarray(u, dtype=float).ravel()[tri]
    energy = np.einsum("ti,tij,tj->t", uT, _P1_STIFF[np.arange(tri.shape[0]) % 2], uT)
    return np.sqrt(np.bincount(block, weights=energy, minlength=nx * ny))


def _render(obj, out: list) -> None:
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            out.append(fmt_float(x))
        else:
            out.append(f'"{x!r}"')
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _render(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    """Canonical JSON rendered element by element: the reference for
    coeffid.report.json_chunks."""
    out: list = []
    _render(obj, out)
    return "".join(out)


def curves_csv(curves: dict) -> str:
    """The CSV of a report's curves, one fmt_float per value: the reference
    for ExperimentReport.csv_chunks."""
    if not curves:
        return ""
    keys = list(curves.keys())
    cols = [np.asarray(curves[k]).ravel() for k in keys]
    length = len(cols[0])
    if any(len(c) != length for c in cols):
        raise ValueError("curve columns must have equal length")
    lines = [",".join(keys)]
    for i in range(length):
        lines.append(",".join(fmt_float(c[i]) for c in cols))
    return "\n".join(lines) + "\n"


def grid_csv(g: GridFunction1D, path) -> None:
    """A grid function written row by row through csv.writer: the reference
    for GridFunction1D.to_csv."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "value"])
        for xi, vi in zip(g.x, g.values):
            w.writerow([fmt_float(xi), fmt_float(vi)])


def interval_set_indicator(S, x: np.ndarray) -> np.ndarray:
    """The nodal indicator of an IntervalSet's union, one full-grid
    indicator_values pass per member: the reference for
    IntervalSet.indicator."""
    v = np.zeros_like(x)
    for a, b in S.intervals:
        v += indicator_values(x, float(a), float(b))
    return np.clip(v, 0.0, 1.0)


def cumtrapz(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid rule with F(lo) = 0: the reference for
    coeffid.forward._cumtrapz."""
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(h * 0.5 * (values[:-1] + values[1:]), out=out[1:])
    return out


def flux_constant(a: GridFunction1D, F: GridFunction1D) -> float:
    """(int F/a) / (int 1/a) by the trapezoid rule."""
    w = 1.0 / a.values
    w[0] *= 0.5
    w[-1] *= 0.5
    return float((w * F.values).sum() / w.sum())


def flux_solve(a: GridFunction1D, F: GridFunction1D) -> dict:
    """u, du, Ca and both residuals of the flux-identity solve, one fresh
    array per step: the reference for coeffid.forward.solve_from_primitive."""
    Ca = flux_constant(a, F)
    du = (Ca - F.values) / a.values
    u = cumtrapz(du, a.h)
    return {
        "u": u,
        "du": du,
        "Ca": Ca,
        "flux_residual": float(np.abs(a.values * du + F.values - Ca).max()),
        "boundary_residual": float(abs(u[-1])),
    }


def default_threshold(du: GridFunction1D) -> float:
    """sqrt(h) * max|du| / 100, floored at 1e-300."""
    return max(math.sqrt(du.h) * float(np.abs(du.values).max()) * 1e-2, 1e-300)


def flux_recover(du: GridFunction1D, F: GridFunction1D, lam: float, Lam: float,
                 threshold: float) -> dict:
    """a = clip((C - F)/u') with C at the zero of u' nearest the smallest
    interior |u'|, masked nodes filled from the nearest unmasked node (ties to
    the left): the reference for coeffid.inverse.recover_from_primitive."""
    v = du.values
    x = du.x
    abs_v = np.abs(v)
    cells = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    t = v[cells] / (v[cells] - v[cells + 1])
    zeros = x[cells] + t * du.h
    i_min = 1 + int(np.argmin(abs_v[1:-1]))
    Fv = F.values
    k = int(np.searchsorted(cells, i_min - 1))
    if k < cells.size and cells[k] <= i_min:
        c = cells[k]
        C = float(Fv[c] + t[k] * (Fv[c + 1] - Fv[c]))
    else:
        C = float(Fv[i_min])
    mask = abs_v < threshold
    candidates = set(zeros.tolist()).union(x[abs_v <= threshold].tolist())

    raw = np.zeros_like(v)
    good = ~mask
    raw[good] = (C - Fv[good]) / v[good]
    clipped = np.clip(raw, lam, Lam)
    n_clamped = int(np.count_nonzero(clipped[good] != raw[good]))
    good_idx = np.nonzero(good)[0]
    for i in np.nonzero(mask)[0]:
        j = int(np.searchsorted(good_idx, i))
        left = good_idx[max(j - 1, 0)]
        right = good_idx[min(j, good_idx.size - 1)]
        clipped[i] = clipped[left if abs(i - left) <= abs(right - i) else right]
    return {"a": clipped, "C": C, "mask": mask, "n_clamped": n_clamped,
            "candidates": tuple(sorted(candidates))}


def dyadic_profile(alpha_d: float, scales: int, n: int) -> tuple:
    """(u, du) of the dyadic family summed over scales 0..scales with every
    scale evaluated over every node: the reference for
    coeffid.stability.dyadic_profile."""
    x = np.linspace(-1.0, 1.0, n + 1)
    ax = np.abs(x)
    u = np.zeros_like(x)
    du_abs = np.zeros_like(x)
    for k in range(scales + 1):
        b, db = _bump((2.0**k) * ax)
        u += 2.0 ** (-alpha_d * k) * b
        du_abs += 2.0 ** ((1.0 - alpha_d) * k) * db
    return u, np.sign(x) * du_abs
