"""P1 FEM on the unit square: manufactured solutions, the discrete H^-1
realization, the per-block stability bound, and Gauss-Newton recovery."""

import math

import numpy as np
import pytest

from coeffid.grids import CoefficientBounds
from coeffid.pw2d import (
    Partition2D,
    PwConstCoefficient,
    as_nodal_field,
    fem_solve,
    field_to_json_dict,
    grad_norm_by_block,
    hminus1_norm,
    recover_pw,
    sweep_pw_bound,
    verify_pw_bound,
)
from coeffid import pw2d
from coeffid.pw2d import (_Workspace, _local_complement, _mass_load, _rect_stiffness, _tile_side,
                          _workspace)

import oracles
from oracles import block_hminus1_dense, poisson_square_series

FULL = Partition2D(1, 1)
BOUNDS = CoefficientBounds(0.5, 2.0)
PARTITIONS = [(1, 1), (2, 2), (4, 2), (4, 4)]
# (nx, ny, m) for the LU oracle: no interface (1x1), square and non-square
# blocks, tiles wider than tall and taller than wide (3x2 and 2x3 at m = 12),
# blocks one cell wide with no interior (4x4 at m = 4), elongated blocks split
# into tiles (1x4 at m = 8, 1x8 at m = 24), and many small blocks. The
# interface band runs from n_gamma = 9 (4x4 at m = 4, half-width 3) to 1665
# (16x16 at m = 64, half-width 110); on 2x2 at m = 72 (n_gamma = 141,
# half-width 105) it is nearly dense
ORACLE_CASES = [(1, 1, 9), (2, 2, 8), (4, 2, 8), (3, 3, 9), (3, 2, 12), (2, 3, 12), (4, 4, 4),
                (1, 4, 8), (1, 8, 24), (16, 16, 64), (2, 2, 72), (3, 3, 48)]


def const_coeff(c, part=FULL):
    return PwConstCoefficient(part, np.full(part.n_blocks, float(c)))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition2D(0, 2)
    p = Partition2D(3, 2)
    assert p.n_blocks == 6


def test_coefficient_validation():
    with pytest.raises(ValueError):
        PwConstCoefficient(Partition2D(2, 2), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PwConstCoefficient(FULL, np.array([-1.0]))
    assert BOUNDS.admits(const_coeff(1.0, Partition2D(2, 2)).coeffs)


def test_mesh_must_resolve_partition():
    with pytest.raises(ValueError, match="resolve"):
        fem_solve(const_coeff(1.0, Partition2D(3, 3)), 1.0, 64)
    with pytest.raises(ValueError, match="512"):
        fem_solve(const_coeff(1.0), 1.0, 1024)


def random_case(nx, ny, m):
    """A coefficient with random block constants and a smooth sign-changing
    source sampled on the mesh."""
    part = Partition2D(nx, ny)
    coeffs = np.random.default_rng(10 * nx + ny).uniform(0.5, 2.0, part.n_blocks)
    f = as_nodal_field(lambda x, y: np.cos(3.0 * x * y) + x - 0.6 + np.sin(5.0 * y), m)
    return PwConstCoefficient(part, coeffs), f


@pytest.mark.parametrize("nx, ny", PARTITIONS)
def test_stiffness_matches_triangle_assembly(nx, ny):
    # the block products K_i x, one column per block, against each block's
    # triangle-assembled stiffness: the check on the one block stiffness
    # and on the scatter of its products into the block columns
    m = 24
    part = Partition2D(nx, ny)
    x = np.random.default_rng(nx + 3 * ny).standard_normal((m - 1) ** 2)
    got = _workspace(nx, ny, m).block_products(x)
    assert got.shape == (x.size, part.n_blocks)
    for i, e_i in enumerate(np.eye(part.n_blocks)):
        want = oracles.p1_stiffness(e_i, nx, ny, m) @ x
        assert np.abs(got[:, i] - want).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("nx, ny, m", [(1, 1, 8), (4, 2, 24), (3, 2, 12), (1, 8, 24)])
def test_rect_stiffness_is_the_triangle_assembly(nx, ny, m):
    # every entry is a sum of halves, so the two assemblies agree exactly
    want = oracles.p1_block_stiffness(nx, ny, m, 0)
    assert np.array_equal(_rect_stiffness(m // nx, m // ny).toarray(), want)


def test_loads_match_mass_product():
    m = 24
    _, f = random_case(1, 1, m)
    want = oracles.p1_mass(m) @ f.ravel()
    load = _mass_load(f, 1.0 / m).ravel()
    inner = oracles.p1_interior(m)
    assert np.abs(load - want[inner]).max() <= 1e-15 * np.abs(want[inner]).max()
    # a block's load reads only the block's closed nodes: the rows of its
    # interior nodes in the global product
    part = Partition2D(4, 2)
    mx, my = m // part.nx, m // part.ny
    nodes = np.arange((m + 1) ** 2).reshape(m + 1, m + 1)
    for blk in range(part.n_blocks):
        by, bx = divmod(blk, part.nx)
        rows = nodes[by * my + 1 : by * my + my, bx * mx + 1 : bx * mx + mx].ravel()
        got = _mass_load(f[by * my : by * my + my + 1, bx * mx : bx * mx + mx + 1], 1.0 / m).ravel()
        assert np.abs(got - want[rows]).max() <= 1e-15 * np.abs(want[rows]).max()


@pytest.mark.parametrize("nx, ny", PARTITIONS)
def test_grad_norm_matches_triangle_energies(nx, ny):
    m = 24
    u = np.random.default_rng(nx + 7 * ny).standard_normal((m + 1, m + 1))
    want = oracles.p1_grad_norm_by_block(u, nx, ny, m)
    assert np.abs(grad_norm_by_block(u, Partition2D(nx, ny), m) - want).max() <= 1e-13 * want.max()


@pytest.mark.parametrize("nx, ny", PARTITIONS)
def test_grad_norm_of_linear_field_exact(nx, ny):
    # every edge difference of x + 2y is h or 2h, so each block's energy is
    # an exact sum: |grad u|^2 = 5 times the block area
    u = as_nodal_field(lambda x, y: x + 2.0 * y, 64)
    got = grad_norm_by_block(u, Partition2D(nx, ny), 64)
    assert np.all(got == math.sqrt(5 * (1.0 / (nx * ny))))


@pytest.mark.parametrize("nx, ny", PARTITIONS)
def test_fem_solve_matches_triangle_system(nx, ny):
    m = 24
    a, f = random_case(nx, ny, m)
    K = oracles.p1_stiffness(a.coeffs, nx, ny, m)
    load = (oracles.p1_mass(m) @ f.ravel())[oracles.p1_interior(m)]
    want = np.linalg.solve(K.toarray(), load)
    got = fem_solve(a, f, m)[1:-1, 1:-1].ravel()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("nx, ny, m", ORACLE_CASES)
def test_fem_solve_matches_lu_oracle(nx, ny, m):
    a, f = random_case(nx, ny, m)
    want = oracles.p1_fem_solve(a.coeffs, f, nx, ny, m)
    got = fem_solve(a, f, m)
    assert np.all(got[[0, -1], :] == 0.0) and np.all(got[:, [0, -1]] == 0.0)
    assert np.abs(got[1:-1, 1:-1].ravel() - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("nx, ny, m", ORACLE_CASES)
def test_solver_columns_match_lu_oracle(nx, ny, m):
    # the Gauss-Newton path: one factor, several right-hand sides at once
    a, _ = random_case(nx, ny, m)
    rhs = np.random.default_rng(m).standard_normal(((m - 1) ** 2, 3))
    want = oracles.lu_solve(oracles.p1_stiffness(a.coeffs, nx, ny, m), rhs)
    got = _workspace(nx, ny, m).solver(a.coeffs)(rhs)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("nx, ny, m", ORACLE_CASES)
def test_hminus1_matches_lu_oracle(nx, ny, m):
    _, f = random_case(nx, ny, m)
    part = Partition2D(nx, ny)
    want = oracles.block_hminus1_lu(f, nx, ny, m)
    got = np.array([hminus1_norm(f, part, i, m) for i in range(part.n_blocks)])
    assert np.abs(got - want).max() <= 1e-10 * want.max()


@pytest.mark.parametrize("nx, ny, m", [(2, 2, 16), (4, 4, 32), (4, 2, 48), (1, 32, 64)])
def test_interface_band_holds_s_exactly(nx, ny, m, monkeypatch):
    # the band the solver factors, unpacked, against a dense sum of
    # a_t S_loc over the tiles in tile order; pbtrf overwrites it in place
    factored, cholesky_banded = [], pw2d.cholesky_banded

    def spy(ab, **kwargs):
        factored.append((ab.copy(), ab, cholesky_banded(ab, **kwargs)))
        return factored[-1][2]

    monkeypatch.setattr(pw2d, "cholesky_banded", spy)
    ws = _workspace(nx, ny, m)
    a = np.random.default_rng(m).uniform(0.5, 2.0, nx * ny)
    ws.solver(a)
    (band, ab, factor), = factored
    assert ab.flags.f_contiguous and np.shares_memory(factor, ab)

    n = ws._gamma.size
    slot = np.full((m + 1, m + 1), -1)
    iy, ix = np.divmod(ws._gamma, m - 1)
    slot[iy + 1, ix + 1] = np.arange(n)
    sx, sy = _tile_side(ws.mx, ws.my), _tile_side(ws.my, ws.mx)
    S_loc, bx, by = _local_complement(sx, sy, ws.tile_dst)
    want = np.zeros((n, n))
    for t, (ty, tx) in enumerate(np.ndindex(m // sy, m // sx)):
        g = slot[ty * sy + by, tx * sx + bx]
        on = g >= 0
        want[np.ix_(g[on], g[on])] += a[ws._tile_block[t]] * S_loc[np.ix_(on, on)]

    lower = np.zeros((n, n))
    for d, diagonal in enumerate(band):
        assert not diagonal[n - d:].any()
        lower[np.arange(d, n), np.arange(n - d)] = diagonal[:n - d]
    assert np.array_equal(lower + np.tril(lower, -1).T, want)


def test_dense_interface_factor_raises_when_not_positive_definite():
    # on 4 and on 16 tiles
    for nx, ny, m in [(2, 2, 8), (4, 4, 16)]:
        with pytest.raises(np.linalg.LinAlgError):
            _workspace(nx, ny, m).solver(np.full(nx * ny, -1.0))


@pytest.mark.parametrize("nx, ny", [(1, 32), (32, 1), (4, 4)])
def test_interface_complement_stays_sparse(nx, ny):
    # a 64 x 2 cell block condensed whole would couple its 132 boundary nodes
    # densely; split into 2 x 2 tiles, S(a) holds a few times K's entries
    m = 64
    K = oracles.p1_stiffness(np.ones(nx * ny), nx, ny, m)
    assert _workspace(nx, ny, m)._s_map.nnz <= 4 * K.nnz


def test_center_value_against_series_oracle():
    u = fem_solve(const_coeff(1.0), 1.0, 64)
    assert u[32, 32] == pytest.approx(poisson_square_series(0.5, 0.5), abs=2e-3)


def test_constant_scaling():
    u1 = fem_solve(const_coeff(1.0), 1.0, 32)
    u2 = fem_solve(const_coeff(2.0), 1.0, 32)
    assert np.abs(u2 - u1 / 2.0).max() < 1e-9


def test_manufactured_solution_second_order():
    def source(x, y):
        return 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    errs = []
    for m in (8, 16, 32, 64):
        u = fem_solve(const_coeff(1.0), source, m)
        xs = np.linspace(0.0, 1.0, m + 1)
        X, Y = np.meshgrid(xs, xs, indexing="xy")
        exact = np.sin(np.pi * X) * np.sin(np.pi * Y)
        errs.append(np.sqrt(np.mean((u - exact) ** 2)))
    assert errs[-2] / errs[-1] == pytest.approx(4.0, rel=0.25)
    assert errs[-3] / errs[-2] == pytest.approx(4.0, rel=0.25)


def test_galerkin_residual_small():
    K = oracles.p1_stiffness([1.0], 1, 1, 32)
    load = _mass_load(np.ones((33, 33)), 1.0 / 32).ravel()
    x = fem_solve(const_coeff(1.0), 1.0, 32)[1:-1, 1:-1].ravel()
    r = load - K @ x
    assert np.abs(r).max() < 1e-9


def test_transpose_symmetry():
    # the SW-NE diagonal maps each cell's lower triangle onto its upper one,
    # so with nx = ny a transpose-symmetric source and blocks permuted
    # (bx, by) -> (by, bx) give the transposed field at the discrete level
    part, m = Partition2D(3, 3), 24
    coeffs = np.linspace(0.6, 1.8, part.n_blocks)
    a = PwConstCoefficient(part, coeffs)
    a_t = PwConstCoefficient(part, coeffs.reshape(part.ny, part.nx).T.ravel())
    g = as_nodal_field(lambda x, y: np.cos(3.0 * x * y) + x - 0.6 + np.sin(5.0 * y), m)
    f = g + g.T
    u = fem_solve(a, f, m)
    assert np.abs(fem_solve(a_t, f, m) - u.T).max() <= 1e-12 * np.abs(u).max()


def test_callable_source_returning_scalar_is_broadcast():
    a = const_coeff(1.0, Partition2D(2, 2))
    assert np.array_equal(fem_solve(a, lambda x, y: 1.0, 16), fem_solve(a, 1.0, 16))


def test_non_finite_source_rejected():
    a = const_coeff(1.0, Partition2D(2, 2))
    with pytest.raises(ValueError, match="finite"):
        fem_solve(a, np.nan, 16)
    with pytest.raises(ValueError, match="finite"):
        fem_solve(a, lambda x, y: np.where(x > 0.5, np.inf, 1.0), 16)


def test_monotone_dependence_on_coefficient():
    us = [fem_solve(const_coeff(c), 1.0, 16) for c in (0.5, 1.0, 1.5, 2.0)]
    for u_small, u_big in zip(us, us[1:]):
        assert np.all(u_big <= u_small + 1e-12)


def test_hminus1_riesz_identity_full_square():
    # |f|_{H-1}^2 = int grad w . grad w = f(w) = int w for f = 1, a = 1
    m = 64
    u = fem_solve(const_coeff(1.0), 1.0, m)
    hm = hminus1_norm(1.0, FULL, 0, m)
    gn = grad_norm_by_block(u, FULL, m)[0]
    assert hm == pytest.approx(gn, abs=1e-9)
    mean_u = u[:-1, :-1].mean()  # cell-average approximation of int u
    assert hm**2 == pytest.approx(mean_u, rel=2e-3)


def test_grad_norm_by_block_rejects_wrong_node_count():
    with pytest.raises(ValueError, match="nodes"):
        grad_norm_by_block(np.ones((18, 18)), Partition2D(2, 2), 16)


@pytest.mark.parametrize("shape", [(17 * 17,), (1, 17 * 17), (17 * 17, 1), (17, 17, 1)])
def test_nodal_fields_of_another_shape_rejected(shape):
    # the values of a (17, 17) field, laid out in another shape, are not
    # read back as a row-major (17, 17) field
    part = Partition2D(2, 2)
    u = fem_solve(const_coeff(1.0, part), 1.0, 16).reshape(shape)
    with pytest.raises(ValueError, match="nodes"):
        grad_norm_by_block(u, part, 16)
    with pytest.raises(ValueError, match="nodes"):
        recover_pw(u, 1.0, part, BOUNDS, 16)
    with pytest.raises(ValueError, match="nodes"):
        fem_solve(const_coeff(1.0, part), np.ones(shape), 16)


@pytest.mark.parametrize("nx, ny, m", [(1, 1, 16), (2, 2, 32), (4, 2, 48), (1, 8, 24), (8, 8, 64)])
def test_hminus1_batched_matches_per_block_bitwise(nx, ny, m):
    part = Partition2D(nx, ny)
    f = as_nodal_field(lambda x, y: np.sin(3.0 * x) * y + x * x - 0.3, m)
    single = [hminus1_norm(f, part, i, m) for i in range(part.n_blocks)]
    assert all(type(v) is float for v in single)
    ids = np.random.default_rng(m).permutation(part.n_blocks)
    assert np.array_equal(hminus1_norm(f, part, ids, m), np.array(single)[ids])
    assert np.array_equal(hminus1_norm(f, part, range(part.n_blocks), m), single)
    assert hminus1_norm(f, part, [], m).shape == (0,)


@pytest.mark.parametrize("block", [-1, 8, 1.5, [[0]], True, [0, 8], [0.0]])
def test_hminus1_rejects_bad_block_ids(block):
    with pytest.raises(ValueError, match="block"):
        hminus1_norm(1.0, Partition2D(4, 2), block, 16)


def test_hminus1_zero_source():
    assert hminus1_norm(0.0, Partition2D(2, 2), 1, 32) == 0.0


def test_hminus1_matches_dense_stencil_on_non_square_blocks():
    part, m = Partition2D(4, 2), 48
    f = lambda x, y: 1.0 + np.sin(3.0 * x) * y + x * x
    for blk in range(part.n_blocks):
        ref = block_hminus1_dense(f, part.nx, part.ny, blk, m)
        assert hminus1_norm(f, part, blk, m) == pytest.approx(ref, rel=1e-10)
    assert len({hminus1_norm(1.0, part, blk, m) for blk in range(part.n_blocks)}) == 1


def test_hminus1_quarter_block_rescaling():
    # -Lap w = 1 on (0, s)^2 has w(x) = s^2 w_hat(x/s): |grad w|_{L2} = s^2 |grad w_hat|
    m = 64
    quarter = hminus1_norm(1.0, Partition2D(2, 2), 0, m)
    unit = hminus1_norm(1.0, FULL, 0, m // 2)
    assert quarter == pytest.approx(0.25 * unit, rel=1e-10)


def test_pw_bound_analytic_ratio_one_half():
    rep = verify_pw_bound(const_coeff(1.0), const_coeff(2.0), 1.0, 64)
    assert rep.metrics["max_ratio"] == pytest.approx(0.5, abs=0.02)
    assert rep.passed


def test_pw_bound_identical_pair():
    rep = verify_pw_bound(const_coeff(1.0), const_coeff(1.0), 1.0, 32)
    assert rep.metrics["max_ratio"] == 0.0
    assert all(v == 0.0 for v in rep.curves["lhs"])
    assert all(v == 0.0 for v in rep.curves["rhs"])


def test_pw_bound_random_pairs_2x2():
    part = Partition2D(2, 2)
    rng = np.random.default_rng(123)
    m = 32
    hm = np.array([hminus1_norm(1.0, part, i, m) for i in range(4)])
    slack = 1.0 + 5.0 / m
    for _ in range(10):
        a = PwConstCoefficient(part, rng.uniform(0.5, 2.0, 4))
        b = PwConstCoefficient(part, rng.uniform(0.5, 2.0, 4))
        rep = verify_pw_bound(a, b, 1.0, m, bounds=BOUNDS, block_hminus1=hm)
        assert rep.metrics["max_ratio"] <= slack
        assert rep.passed


@pytest.mark.parametrize("pair", [(1.0, 8.0), (8.0, 1.0), (0.25, 1.0)])
def test_pw_bound_rejects_pairs_outside_its_bounds(pair, monkeypatch):
    # Lam = bounds.Lam assumes both coefficients lie in the bounds: a pair
    # outside them is refused before any solve, not reported as a failure
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr("coeffid.pw2d.fem_solve", no_solve)
    a, b = (const_coeff(c) for c in pair)
    with pytest.raises(ValueError, match=r"outside \[0.5, 2.0\]"):
        verify_pw_bound(a, b, 1.0, 16, bounds=BOUNDS)


def test_pw_bound_partition_mismatch():
    with pytest.raises(ValueError, match="partition"):
        verify_pw_bound(const_coeff(1.0), const_coeff(1.0, Partition2D(2, 2)), 1.0, 32)


@pytest.mark.parametrize("hm", [np.ones(1), np.array([1.0, np.nan, 1.0, 1.0]), 1.0,
                                np.array([1.0, np.inf, 1.0, 1.0]), -np.ones(4),
                                np.ones(4, dtype=int)],
                         ids=["shape (1,)", "nan", "float", "inf", "negative", "int"])
def test_pw_bound_rejects_block_norms_it_cannot_use(hm):
    # a (1,) array would broadcast over all four blocks and a NaN would
    # fail every pair: the norms are checked before any solve
    part = Partition2D(2, 2)
    with pytest.raises(ValueError, match=r"block_hminus1 must be .* shape \(4,\)"):
        verify_pw_bound(const_coeff(1.0, part), const_coeff(2.0, part), 1.0, 16,
                        block_hminus1=hm)


def test_pw_bound_notes_blocks_where_it_is_vacuous():
    # f = 1{x < 1/2} has no H^-1 energy on blocks 1 and 3: lhs is 0 there
    # whatever the pair, so the bound checks nothing on them
    part, m = Partition2D(2, 2), 48
    a = PwConstCoefficient(part, np.array([1.0, 1.5, 0.8, 1.2]))
    b = const_coeff(1.0, part)
    f = as_nodal_field(lambda x, y: np.where(x < 0.5, 1.0, 0.0), m)
    rep = verify_pw_bound(a, b, f, m)
    assert rep.notes == "vacuous on blocks [1, 3]: |f|_H^-1 is 0 there"
    assert rep.curves["lhs"][1] == rep.curves["lhs"][3] == 0.0
    assert verify_pw_bound(a, b, 1.0, m).notes == ""


def test_sweep_draws_a_then_b_from_the_seed():
    part, m, trials, seed = Partition2D(2, 2), 16, 3, 5
    rep = sweep_pw_bound(part, 1.0, m, BOUNDS, trials, seed)
    rng = np.random.default_rng(seed)
    hm = hminus1_norm(1.0, part, range(part.n_blocks), m)
    ratios = []
    for _ in range(trials):
        a = PwConstCoefficient(part, rng.uniform(BOUNDS.lam, BOUNDS.Lam, part.n_blocks))
        b = PwConstCoefficient(part, rng.uniform(BOUNDS.lam, BOUNDS.Lam, part.n_blocks))
        pair = verify_pw_bound(a, b, 1.0, m, bounds=BOUNDS, block_hminus1=hm)
        ratios.append(pair.metrics["max_ratio"])
    assert rep.name == "pw2d_verify" and rep.passed and rep.notes == ""
    assert rep.inputs == {"nx": 2, "ny": 2, "m": m, "trials": trials, "seed": seed,
                          "lambda": BOUNDS.lam, "Lambda": BOUNDS.Lam}
    assert rep.metrics == {"worst_ratio": max(ratios), "slack": 1.0 + 5.0 / m}
    assert rep.curves["trial"].tolist() == list(range(trials))
    assert rep.curves["max_ratio"].tolist() == ratios


def test_sweep_notes_the_blocks_where_every_pair_is_vacuous():
    # one cell per block: no block has an interior node, so |f|_H^-1 is 0 on
    # all 64; the sweep checked nothing, so it fails
    rep = sweep_pw_bound(Partition2D(8, 8), 1.0, 8, BOUNDS, 2, 0)
    assert not rep.passed and rep.metrics["worst_ratio"] == 0.0
    assert rep.notes == (f"vacuous on blocks {list(range(64))}: |f|_H^-1 is 0 there; "
                         "no block was checked")


def test_recover_roundtrip_2x2():
    part = Partition2D(2, 2)
    truth = PwConstCoefficient(part, np.array([1.0, 1.5, 0.8, 1.2]))
    u_meas = fem_solve(truth, 1.0, 32)
    res = recover_pw(u_meas, 1.0, part, BOUNDS, 32)
    assert res.converged
    assert res.sweeps == 1
    assert np.abs(res.coeff.coeffs - truth.coeffs).max() < 1e-3


def test_recover_exact_data_to_rounding():
    part = Partition2D(2, 2)
    truth = PwConstCoefficient(part, np.array([1.0, 1.5, 0.8, 1.2]))
    res = recover_pw(fem_solve(truth, 1.0, 32), 1.0, part, BOUNDS, 32)
    assert res.converged
    assert res.warning is None
    assert np.abs(res.coeff.coeffs - truth.coeffs).max() < 1e-8


def test_recover_noisy_data_error_near_noise_level():
    part = Partition2D(2, 2)
    truth = PwConstCoefficient(part, np.array([1.0, 1.5, 0.8, 1.2]))
    m = 32
    u = fem_solve(truth, 1.0, m)
    z = np.random.default_rng(2024).standard_normal(u.shape)
    u_noisy = u * (1.0 + 1e-3 * z / np.sqrt(np.mean(z * z)))
    res = recover_pw(u_noisy, 1.0, part, BOUNDS, m)
    assert res.converged
    assert res.sweeps == 4
    assert BOUNDS.admits(res.coeff.coeffs)
    assert np.abs(res.coeff.coeffs - truth.coeffs).max() <= 1e-2


def test_recover_stops_on_a_rounding_rise(monkeypatch):
    # the last Gauss-Newton step of this noisy recovery raises the misfit by
    # about 1e-13 relative, which is rounding; halving it until the misfit
    # fell would take 11 more factors of S(a). A rise within SWEEP_TOL ends
    # the step, so every factor is the start or one step
    part, m = Partition2D(2, 2), 8
    rng = np.random.default_rng(2)
    truth = PwConstCoefficient(part, rng.uniform(0.6, 1.9, part.n_blocks))
    z = rng.standard_normal((m + 1, m + 1))
    u_noisy = fem_solve(truth, 1.0, m) * (1.0 + 1e-3 * z / np.sqrt(np.mean(z * z)))
    factors = []
    solver = _Workspace.solver
    monkeypatch.setattr(_Workspace, "solver", lambda ws, c: factors.append(c) or solver(ws, c))
    res = recover_pw(u_noisy, 1.0, part, BOUNDS, m)
    assert res.converged
    assert res.sweeps == 3
    assert len(factors) == res.sweeps + 1


@pytest.mark.parametrize("n", [2, 4])
def test_recover_objective_is_the_edge_energy_of_the_misfit(n):
    # the Gauss-Newton misfit Z^T K Z against the edge-difference energy of
    # grad_norm_by_block, on 4 and on 16 tiles
    part, m = Partition2D(n, n), 32
    truth = PwConstCoefficient(part, np.random.default_rng(n).uniform(0.6, 1.9, part.n_blocks))
    u = fem_solve(truth, 1.0, m)
    z = np.random.default_rng(2024).standard_normal(u.shape)
    u_meas = u * (1.0 + 1e-3 * z / np.sqrt(np.mean(z * z)))
    res = recover_pw(u_meas, 1.0, part, BOUNDS, m)
    assert res.converged and res.objective > 0.0
    want = math.sqrt(np.sum(grad_norm_by_block(fem_solve(res.coeff, 1.0, m) - u_meas, part, m) ** 2))
    assert res.objective == pytest.approx(want, rel=1e-10)


def test_recover_truth_on_lower_bound_stays_admissible():
    part = Partition2D(2, 2)
    truth = PwConstCoefficient(part, np.array([BOUNDS.lam, 1.5, 0.8, 1.2]))
    m = 32
    u = fem_solve(truth, 1.0, m)
    z = np.random.default_rng(7).standard_normal(u.shape)
    res = recover_pw(u * (1.0 + 1e-3 * z), 1.0, part, BOUNDS, m)
    assert res.converged
    assert res.sweeps == 4
    assert BOUNDS.admits(res.coeff.coeffs)
    assert np.abs(res.coeff.coeffs - truth.coeffs).max() <= 1e-2


def test_recover_constant_truth_snaps_immediately():
    truth = const_coeff(1.0, Partition2D(2, 2))
    u_meas = fem_solve(truth, 1.0, 16)
    res = recover_pw(u_meas, 1.0, truth.partition, BOUNDS, 16)
    assert res.converged
    assert res.sweeps == 1
    assert np.abs(res.coeff.coeffs - 1.0).max() < 1e-3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_field_rejected_before_lapack(bad, capfd):
    # LAPACK prints to fd 2 when handed a NaN; the check comes first
    part = Partition2D(2, 2)
    u_meas = fem_solve(const_coeff(1.0, part), 1.0, 16)
    u_meas[5, 7] = bad
    with pytest.raises(ValueError, match="u_meas must be finite"):
        recover_pw(u_meas, 1.0, part, BOUNDS, 16)
    with pytest.raises(ValueError, match="must be finite"):
        grad_norm_by_block(u_meas, part, 16)
    assert capfd.readouterr().err == ""


def test_recover_degenerate_source_warns():
    part = Partition2D(2, 2)
    res = recover_pw(np.zeros((33, 33)), 0.0, part, BOUNDS, 32)
    assert not res.converged
    assert "arbitrary" in res.warning
    assert BOUNDS.admits(res.coeff.coeffs)


@pytest.mark.parametrize("k", [2, 3, 4, 16])
def test_recover_one_cell_per_block_warns(k):
    # k x k blocks at m = k: [K_i u] has (k-1)^2 rows for k^2 blocks, and
    # lstsq returns one singular value per row, so a rank test on the last
    # one alone misses the null space
    part = Partition2D(k, k)
    truth = PwConstCoefficient(part, np.random.default_rng(k).uniform(0.6, 1.9, part.n_blocks))
    res = recover_pw(fem_solve(truth, 1.0, k), 1.0, part, BOUNDS, k)
    assert not res.converged
    assert "arbitrary" in res.warning
    assert np.all(res.coeff.coeffs == 0.5 * (BOUNDS.lam + BOUNDS.Lam))


def test_recover_source_vanishing_on_blocks():
    # f = 1{x < 1/2} has no H^-1 energy on blocks 1 and 3, yet u moves on
    # every block and the data determine all four constants
    part = Partition2D(2, 2)
    truth = PwConstCoefficient(part, np.array([1.0, 1.5, 0.8, 1.2]))
    m = 48
    f = as_nodal_field(lambda x, y: np.where(x < 0.5, 1.0, 0.0), m)
    assert hminus1_norm(f, part, 1, m) == 0.0 and hminus1_norm(f, part, 3, m) == 0.0
    res = recover_pw(fem_solve(truth, f, m), f, part, BOUNDS, m)
    assert res.converged
    assert res.sweeps == 1
    assert res.warning is None
    assert np.abs(res.coeff.coeffs - truth.coeffs).max() < 1e-8


def test_callable_source_sampled_once_per_call():
    calls = []

    def f(x, y):
        calls.append(1)
        return 1.0 + x * y

    part = Partition2D(2, 2)
    m = 16
    truth = PwConstCoefficient(part, np.array([1.0, 1.5, 0.8, 1.2]))
    u_meas = fem_solve(truth, f, m)
    nodal = as_nodal_field(f, m)
    calls.clear()
    res = recover_pw(u_meas, f, part, BOUNDS, m)
    assert len(calls) == 1
    ref = recover_pw(u_meas, nodal, part, BOUNDS, m)
    assert res.coeff.coeffs.tobytes() == ref.coeff.coeffs.tobytes()
    calls.clear()
    rep = verify_pw_bound(truth, const_coeff(1.0, part), f, m)
    assert len(calls) == 1
    assert rep.curves == verify_pw_bound(truth, const_coeff(1.0, part), nodal, m).curves


def test_field_serialization_layout():
    u = fem_solve(const_coeff(1.0), 1.0, 8)
    d = field_to_json_dict(u)
    assert d["m"] == 8
    assert len(d["values"]) == 81
    assert d["values"][0] == 0.0
