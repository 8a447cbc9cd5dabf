"""Tests for the numerical (2,2,2) surface dynamics engine."""

import math
import warnings

import numpy as np
import pytest

from kummerlab import wehler_dynamics as wd
from kummerlab.errors import (
    ChartFailureError,
    DegenerateFiberError,
    IndeterminatePointError,
    InternalInvariantError,
    OffSurfaceError,
    PreconditionError,
    TooFewSaddlesError,
)
from kummerlab.lattice_algebra import IntMatrix
from kummerlab.torus_kummer import (
    LyapunovMethod,
    LyapunovReport,
    TorusAutomorphism,
    lyapunov_exact,
)


# ---------------------------------------------------------------------------
# points and surfaces


def test_p1point_normalizes_larger_component_to_one():
    p = wd.P1Point.make(3.0 + 4.0j, 1.0)
    assert p.u == 1.0
    assert abs(p.v - 1.0 / (3.0 + 4.0j)) < 1e-15
    q = wd.P1Point.make(0.5j, -2.0)
    assert q.v == 1.0


def test_p1point_rejects_zero_pair():
    with pytest.raises(PreconditionError, match=r"\(0, 0\) is not a projective point"):
        wd.P1Point.make(0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0)])
def test_p1point_names_a_non_finite_coordinate(bad):
    for u, v in ((bad, 1.0), (1.0, bad), (bad, 0.0)):
        with pytest.raises(PreconditionError, match="non-finite"):
            wd.P1Point.make(u, v)


def test_chordal_is_symmetric_and_scale_free():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = wd.P1Point.make(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
        b = wd.P1Point.make(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
        s = complex(rng.normal() + 1j * rng.normal())
        c = wd.P1Point.make(s * b.u, s * b.v)
        assert abs(a.chordal(b) - b.chordal(a)) < 1e-15
        assert abs(a.chordal(b) - a.chordal(c)) < 1e-12
        assert a.chordal(a) == 0.0


def test_surface_constructor_validates():
    with pytest.raises(PreconditionError):
        wd.WehlerSurface(((1.0,),))
    with pytest.raises(PreconditionError):
        wd.WehlerSurface.from_array(np.zeros((3, 3, 3)))
    arr = np.zeros((3, 3, 3), dtype=complex)
    arr[1, 1, 1] = 2.0
    with pytest.raises(PreconditionError):
        wd.WehlerSurface(tuple(tuple(tuple(x for x in r) for r in p) for p in arr))
    s = wd.WehlerSurface.from_array(arr)
    assert np.abs(s.array()).max() == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_surface_from_array_names_a_non_finite_entry(bad):
    arr = np.ones((3, 3, 3), dtype=complex)
    arr[0, 1, 2] = bad
    with pytest.raises(PreconditionError, match="non-finite"):
        wd.WehlerSurface.from_array(arr)
    # the direct constructor names it too, before the normalization check
    coeffs = tuple(tuple(tuple(x for x in r) for r in plane) for plane in arr)
    with pytest.raises(PreconditionError, match="coefficient tensor has a non-finite entry"):
        wd.WehlerSurface(coeffs)


def test_random_surface_deterministic_and_real_option():
    a = wd.random_surface(5).array()
    b = wd.random_surface(5).array()
    assert np.array_equal(a, b)
    r = wd.random_surface(5, real_coeffs=True).array()
    assert np.all(r.imag == 0.0)
    assert np.abs(r).max() == 1.0


# ---------------------------------------------------------------------------
# fiber solving


def _fiber_quadratic(surface, axis, p, q):
    """Coefficients (A, B, C) of the fiber quadratic A u^2 + B uv + C v^2."""
    P = np.zeros((1, 3, 2), dtype=complex)
    others = [a for a in range(3) if a != axis.value]
    P[0, others[0]] = (p.u, p.v)
    P[0, others[1]] = (q.u, q.v)
    P[0, axis.value] = (1.0, 0.0)
    A, B, C = wd._fiber_coeffs(surface.array(), axis.value, P[None])
    return A[0, 0], B[0, 0], C[0, 0]


def test_solve_fiber_returns_roots_of_the_restriction():
    rng = np.random.default_rng(1)
    surface = wd.random_surface(1)
    for axis in wd.Axis:
        for _ in range(10):
            p = wd.P1Point.make(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            q = wd.P1Point.make(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            A, B, C = _fiber_quadratic(surface, axis, p, q)
            scale = max(abs(A), abs(B), abs(C))
            for root in wd.solve_fiber(surface, axis, p, q):
                val = A * root.u**2 + B * root.u * root.v + C * root.v**2
                assert abs(val) / scale < 1e-10


def test_solve_fiber_root_at_infinity():
    arr = wd.random_surface(2).array()
    arr[:, :, 2] = 0.0  # kill the u_z^2 coefficient for every (x, y)
    surface = wd.WehlerSurface.from_array(arr)
    rng = np.random.default_rng(3)
    p = wd.P1Point.make(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
    q = wd.P1Point.make(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
    roots = wd.solve_fiber(surface, wd.Axis.Z, p, q)
    infinity = wd.P1Point(1.0, 0.0)
    assert min(r.chordal(infinity) for r in roots) < 1e-12


def test_solve_fiber_double_root_returned_twice():
    # coefficient pattern (C, B, A) = (s, 2s, s) per (i, j) makes the fiber
    # quadratic a perfect square s (u + v)^2 along every z-fiber
    rng = np.random.default_rng(4)
    base = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    arr = np.empty((3, 3, 3), dtype=complex)
    arr[:, :, 0] = base
    arr[:, :, 1] = 2.0 * base
    arr[:, :, 2] = base
    surface = wd.WehlerSurface.from_array(arr)
    p = wd.P1Point.make(0.3 + 0.1j, 1.0)
    q = wd.P1Point.make(1.0, -0.7 + 0.2j)
    roots = wd.solve_fiber(surface, wd.Axis.Z, p, q)
    double = wd.P1Point.make(-1.0, 1.0)
    assert roots[0].chordal(roots[1]) < 1e-6
    assert all(r.chordal(double) < 1e-6 for r in roots)


def _zeroed_corner_surface():
    """Random surface whose z-fiber over x = y = (1:0) vanishes identically."""
    arr = wd.random_surface(9).array()
    arr[2, 2, :] = 0.0
    return wd.WehlerSurface.from_array(arr)


def test_solve_fiber_degenerate_raises():
    surface = _zeroed_corner_surface()
    inf = wd.P1Point(1.0, 0.0)
    with pytest.raises(DegenerateFiberError):
        wd.solve_fiber(surface, wd.Axis.Z, inf, inf)


# ---------------------------------------------------------------------------
# involutions and the composed map


def test_involutions_are_involutions():
    rng = np.random.default_rng(7)
    for seed in (1, 2, 3):
        surface = wd.random_surface(seed)
        for _ in range(30):
            p = wd.random_surface_point(surface, rng)
            for axis in wd.Axis:
                q = wd.sigma(surface, axis, p)
                back = wd.sigma(surface, axis, q)
                assert p.chordal(back) < 1e-10
                assert q.residual < 1e-10


def test_map_and_inverse_round_trip():
    surface = wd.random_surface(1)
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = wd.random_surface_point(surface, rng)
        q = wd.wehler_map(surface, p)
        back = wd.wehler_map_inverse(surface, q)
        assert p.chordal(back) < 1e-9


def test_orbit_stays_on_surface_for_many_iterates():
    surface = wd.random_surface(1)
    p = wd.random_surface_point(surface, np.random.default_rng(2))
    pts, worst = wd.orbit(surface, p, 10_000)
    assert len(pts) == 10_001
    assert worst < 1e-8


def test_sigma_rejects_off_surface_input():
    surface = wd.random_surface(1)
    p = wd.random_surface_point(surface, np.random.default_rng(0))
    bad = wd.SurfacePoint(p.x, p.y, wd.P1Point.make(1.0, p.z.v + 0.25), 0.5)
    with pytest.raises(OffSurfaceError):
        wd.sigma(surface, wd.Axis.Z, bad, tol=1e-10)


def test_sigma_degenerate_fiber_reports_stage():
    surface = _zeroed_corner_surface()
    inf = wd.P1Point(1.0, 0.0)
    z = wd.P1Point.make(1.0, 0.3 + 0.1j)
    p = wd.make_surface_point(surface, inf, inf, z)
    assert p.residual < 1e-14
    with pytest.raises(IndeterminatePointError) as info:
        wd.sigma(surface, wd.Axis.Z, p)
    assert info.value.stage == 3
    with pytest.raises(IndeterminatePointError) as info:
        wd.wehler_map(surface, p)
    assert info.value.stage == 3


def _sigma_z_fixed_points(surface, x, count=4):
    """Fixed points of the z-involution over the line {x} x P1 x P1: roots
    in y of the quartic z-fiber discriminant, with z the double root."""
    carr = surface.array()

    def abc(w):
        P = np.zeros((1, 3, 2), dtype=complex)
        P[0, 0] = (x.u, x.v)
        P[0, 1] = (1.0, w)
        P[0, 2] = (1.0, 0.0)
        A, B, C = wd._fiber_coeffs(carr, 2, P[None])
        return A[0, 0], B[0, 0], C[0, 0]

    def disc(w):
        A, B, C = abc(w)
        return B * B - 4 * A * C

    nodes = np.array([0, 1, -1, 2, -2], dtype=complex)
    coeffs = np.polyfit(nodes, np.array([disc(w) for w in nodes]), 4)
    deriv = np.polyder(coeffs)
    out = []
    for w in np.roots(coeffs)[:count]:
        for _ in range(8):  # polish the interpolated root
            w = w - np.polyval(coeffs, w) / np.polyval(deriv, w)
        A, B, C = abc(w)
        y = wd.P1Point.make(1.0, w)
        z = wd.P1Point.make(-B, 2 * A)
        out.append(wd.make_surface_point(surface, x, y, z, tol=1e-8))
    return out


def test_sigma_fixed_points_on_discriminant():
    surface = wd.random_surface(2)
    x = wd.P1Point.make(0.4 - 0.2j, 1.0)
    fixed = _sigma_z_fixed_points(surface, x)
    assert len(fixed) == 4
    for p in fixed:
        q = wd.sigma(surface, wd.Axis.Z, p)
        assert p.chordal(q) < 1e-8


def test_conjugation_commutes_for_real_coefficients():
    surface = wd.random_surface(6, real_coeffs=True)
    rng = np.random.default_rng(0)

    def conj(p):
        return wd.make_surface_point(
            surface,
            wd.P1Point(np.conj(p.x.u), np.conj(p.x.v)),
            wd.P1Point(np.conj(p.y.u), np.conj(p.y.v)),
            wd.P1Point(np.conj(p.z.u), np.conj(p.z.v)),
        )

    for _ in range(20):
        p = wd.random_surface_point(surface, rng)
        assert conj(wd.wehler_map(surface, p)).chordal(wd.wehler_map(surface, conj(p))) < 1e-10


def test_make_surface_point_rejects_off_surface():
    surface = wd.random_surface(1)
    rng = np.random.default_rng(5)
    x = wd.P1Point.make(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
    y = wd.P1Point.make(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
    z = wd.P1Point.make(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
    with pytest.raises(OffSurfaceError):
        wd.make_surface_point(surface, x, y, z)


def test_random_surface_point_is_on_surface():
    surface = wd.random_surface(8)
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = wd.random_surface_point(surface, rng)
        assert p.residual < 1e-10
        assert wd.surface_residual(surface, p.x, p.y, p.z) < 1e-10


# ---------------------------------------------------------------------------
# tangent map


def _chart_state(surface, p):
    """Solved axis, free axes, and branch picks of the chart at p."""
    carr = surface.array()
    P = wd._pack_points([(p.x, p.y, p.z)])
    chart = wd._chart(carr, P)
    solved, fail = chart.solved, chart.fail
    assert not fail[0]
    s = int(solved[0])
    f0, f1 = chart.free
    picks = [bool(abs(P[0, ax, 0]) >= abs(P[0, ax, 1])) for ax in range(3)]
    return s, (int(f0[0]), int(f1[0])), picks


def _affine_coord(point, axis, pick_u):
    c = (point.x, point.y, point.z)[axis]
    return c.v / c.u if pick_u else c.u / c.v


def _perturb_and_rebuild(surface, p, solved, free_axis, pick_u, delta):
    """Move one free affine coordinate and re-solve the solved axis, taking
    the fiber root nearest the original coordinate."""
    coords = [p.x, p.y, p.z]
    c = coords[free_axis]
    if pick_u:
        coords[free_axis] = wd.P1Point.make(c.u, c.v + delta * c.u)
    else:
        coords[free_axis] = wd.P1Point.make(c.u + delta * c.v, c.v)
    others = [a for a in range(3) if a != solved]
    roots = wd.solve_fiber(
        surface, wd.Axis(solved), coords[others[0]], coords[others[1]]
    )
    old = coords[solved]
    coords[solved] = min(roots, key=old.chordal)
    return wd.make_surface_point(surface, *coords, tol=1e-6)


def test_tangent_map_matches_finite_differences():
    surface = wd.random_surface(1)
    rng = np.random.default_rng(3)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        p = wd.random_surface_point(surface, rng)
        jac = wd.tangent_map(surface, p)
        q = wd.wehler_map(surface, p)
        s, free, picks = _chart_state(surface, p)
        _, free_out, picks_out = _chart_state(surface, q)
        fd = np.empty((2, 2), dtype=complex)
        for col, fax in enumerate(free):
            plus = wd.wehler_map(
                surface, _perturb_and_rebuild(surface, p, s, fax, picks[fax], h)
            )
            minus = wd.wehler_map(
                surface, _perturb_and_rebuild(surface, p, s, fax, picks[fax], -h)
            )
            for row, oax in enumerate(free_out):
                dplus = _affine_coord(plus, oax, picks_out[oax])
                dminus = _affine_coord(minus, oax, picks_out[oax])
                fd[row, col] = (dplus - dminus) / (2 * h)
        rel = np.abs(fd - jac).max() / max(np.abs(jac).max(), 1.0)
        worst = max(worst, rel)
    assert worst < 1e-6


def test_tangent_chain_rule_forward_then_inverse():
    surface = wd.random_surface(4)
    rng = np.random.default_rng(9)
    for _ in range(25):
        p = wd.random_surface_point(surface, rng)
        q = wd.wehler_map(surface, p)
        fwd = wd.tangent_map(surface, p, axes=wd.FORWARD_AXES)
        inv = wd.tangent_map(surface, q, axes=wd.INVERSE_AXES)
        assert np.abs(inv @ fwd - np.eye(2)).max() < 1e-8


def test_tangent_map_at_involution_fixed_point_has_eigenvalue_minus_one():
    surface = wd.random_surface(2)
    x = wd.P1Point.make(0.4 - 0.2j, 1.0)
    for p in _sigma_z_fixed_points(surface, x, count=2):
        jac = wd.tangent_map(surface, p, axes=(2,))
        eig = sorted(np.linalg.eigvals(jac), key=lambda t: t.real)
        assert abs(eig[0] + 1.0) < 1e-6
        assert abs(eig[1] - 1.0) < 1e-6


def _forced_node_surface(seed=3, zeroed=((2, 2, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1))):
    """Random surface with the coefficients of every monomial containing
    u_x^2 u_y^2 u_z^2 / u^2 u^2 u / ... zeroed so that the form and its three
    chart gradients all vanish at x = y = z = (1:0); other zeroed sets move
    the node."""
    arr = wd.random_surface(seed).array()
    for idx in zeroed:
        arr[idx] = 0.0
    return wd.WehlerSurface.from_array(arr)


def test_tangent_map_chart_failure_at_singular_point():
    surface = _forced_node_surface()
    inf = wd.P1Point(1.0, 0.0)
    node = wd.make_surface_point(surface, inf, inf, inf)
    assert node.residual < 1e-14
    with pytest.raises(ChartFailureError):
        wd.tangent_map(surface, node)


# ---------------------------------------------------------------------------
# periodic point search


def test_newton_periodic_replays_and_classifies():
    surface = wd.random_surface(1)
    orbits = wd.newton_periodic(surface, 2, seeds=512, rng_seed=7)
    assert len(orbits) >= 50
    for orb in orbits:
        assert orb.period == 2
        p = orb.point
        assert p.residual < 1e-10
        cur = p
        for _ in range(orb.period):
            cur = wd.wehler_map(surface, cur)
        assert p.chordal(cur) < 1e-9
        m1, m2 = orb.multipliers
        assert abs(m1) >= abs(m2)
        if orb.type is wd.OrbitType.SADDLE:
            assert abs(m1) > 1.0 > abs(m2)


def test_newton_periodic_finds_no_fixed_points():
    # each involution negates the holomorphic two-form, so the composed map
    # reverses it and its Lefschetz number vanishes: no period-1 points
    surface = wd.random_surface(1)
    assert wd.newton_periodic(surface, 1, seeds=512, rng_seed=0) == []


def _mobius(k):
    """The Moebius function by trial division."""
    sign, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if k > 1 else sign


def test_lefschetz_and_primitive_counts_are_exact():
    assert [wd.wehler_lefschetz_count(n) for n in range(1, 6)] == [
        0, 344, 5760, 103704, 1860480]
    assert [wd.wehler_primitive_count(n) for n in range(1, 6)] == [
        0, 344, 5760, 103360, 1860480]
    # f^0 is the identity: L is the Euler characteristic of a K3 surface
    assert wd.wehler_lefschetz_count(0) == 24
    for n in range(1, wd.PERIOD_CAP + 1):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert sum(wd.wehler_primitive_count(d) for d in divisors) == (
            wd.wehler_lefschetz_count(n))
        # the same inversion through an independent Moebius function
        assert wd.wehler_primitive_count(n) == sum(
            _mobius(n // d) * wd.wehler_lefschetz_count(d) for d in divisors)
        assert type(wd.wehler_primitive_count(n)) is int
    with pytest.raises(PreconditionError):
        wd.wehler_primitive_count(0)


def test_saddle_census_searches_only_periods_with_points(monkeypatch):
    calls = []
    monkeypatch.setattr(wd, "newton_periodic", lambda *a, **k: calls.append(a[1]) or [])
    assert wd.saddle_census(wd.random_surface(1), wd.PERIOD_CAP, 16, 0) == ([], [], [])
    assert calls == list(range(2, wd.PERIOD_CAP + 1))


def test_newton_periodic_results_are_distinct():
    surface = wd.random_surface(1)
    orbits = wd.newton_periodic(surface, 2, seeds=512, rng_seed=7)
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            assert orbits[i].point.chordal(orbits[j].point) > 5e-8


def test_newton_periodic_exact_period_filter():
    surface = wd.random_surface(1)
    exact = wd.newton_periodic(surface, 4, seeds=512, rng_seed=5)
    loose = wd.newton_periodic(surface, 4, seeds=512, rng_seed=5, exact_period=False)
    assert len(loose) >= len(exact)
    for orb in exact:
        cur = orb.point
        for _ in range(2):
            cur = wd.wehler_map(surface, cur)
        assert orb.point.chordal(cur) > 1e-7  # not secretly period 2
    coords = [o.point for o in loose]
    for orb in exact:
        assert any(orb.point.chordal(c) < 1e-7 for c in coords)


def test_newton_periodic_worker_count_invariance():
    surface = wd.random_surface(1)
    one = wd.newton_periodic(surface, 2, seeds=512, rng_seed=7, workers=1)
    two = wd.newton_periodic(surface, 2, seeds=512, rng_seed=7, workers=2)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert a.period == b.period
        assert a.point == b.point
        assert a.multipliers == b.multipliers
        assert a.type == b.type


def test_newton_periodic_rejects_bad_period():
    surface = wd.random_surface(1)
    with pytest.raises(PreconditionError):
        wd.newton_periodic(surface, 0, seeds=8, rng_seed=0)
    with pytest.raises(PreconditionError):
        wd.newton_periodic(surface, wd.PERIOD_CAP + 1, seeds=8, rng_seed=0)


def test_multiplier_product_matches_jacobian_determinant():
    surface = wd.random_surface(1)
    carr = surface.array()
    orbits = wd.newton_periodic(surface, 2, seeds=512, rng_seed=7)
    for orb in orbits[:10]:
        m1, m2 = orb.multipliers
        p = orb.point
        P = wd._pack_points([(p.x, p.y, p.z)])
        chart = wd._chart(carr, P)
        S = wd._seed_chart_tangents(P, chart)
        for _ in range(orb.period):
            S = wd._apply_chain(carr, S, wd.FORWARD_AXES)
        jac = wd._frame_in_chart(S, chart)[0]
        assert abs(abs(m1 * m2) - abs(np.linalg.det(jac))) < 1e-6
        # reading the orbit through the inverse map inverts the multipliers
        big, small, failed = wd._multipliers_at(carr, P, orb.period, axes=wd.INVERSE_AXES)
        assert not failed[0]
        assert abs(abs(big[0]) - 1.0 / abs(m2)) < 1e-6
        assert abs(abs(small[0]) - 1.0 / abs(m1)) < 1e-6


@pytest.mark.parametrize("seed", [1, 7, 13])
@pytest.mark.parametrize("n", [2, 3])
def test_two_form_identity_on_random_surfaces(seed, n):
    """f*Omega = -Omega gives m_u m_s = (-1)^n on every census row; the worst
    defect over these six searches is about 4e-10 (seed 7, n = 3)."""
    rows = wd.newton_periodic(wd.random_surface(seed), n, 256, 0)
    assert rows
    det = np.array([o.multipliers[0] * o.multipliers[1] for o in rows])
    assert np.abs(det - (-1) ** n).max() <= 1e-8


def skew_multipliers(monkeypatch, factor=1.0 + 1e-6):
    """Scale every big multiplier by factor, which moves m_u m_s off (-1)^n
    by about |factor - 1|."""
    inner = wd._multipliers_at

    def skewed(*args, **kwargs):
        big, small, fail = inner(*args, **kwargs)
        return big * factor, small, fail

    monkeypatch.setattr(wd, "_multipliers_at", skewed)


def test_two_form_defect_beyond_the_bound_raises(monkeypatch):
    skew_multipliers(monkeypatch)
    with pytest.raises(InternalInvariantError, match=r"at period 2: .* = 1\.0\d*e-06$"):
        wd.newton_periodic(wd.random_surface(1), 2, 256, 0)


# ---------------------------------------------------------------------------
# Lyapunov estimates and the rigidity verdict


def _orbit_with_multipliers(n, m1, m2):
    return wd.SaddleOrbit(
        period=n,
        point=None,
        multipliers=(m1, m2),
        type=wd.OrbitType.SADDLE if abs(m1) > 1.0 > abs(m2) else wd.OrbitType.NONSADDLE,
    )


def test_lyapunov_from_saddles_means_and_stderr():
    orbits = [_orbit_with_multipliers(2, 4.0 + 0j, 0.25 + 0j) for _ in range(6)]
    rep = wd.lyapunov_from_saddles(orbits)
    assert rep.method is LyapunovMethod.SADDLE_MULTIPLIERS
    assert abs(rep.lambda_u - math.log(4.0) / 2) < 1e-15
    assert abs(rep.lambda_s + math.log(4.0) / 2) < 1e-15
    assert rep.stderr == 0.0

    mixed = [
        _orbit_with_multipliers(1, math.e**2 + 0j, 0.1 + 0j),
        _orbit_with_multipliers(1, math.e**4 + 0j, 0.1 + 0j),
    ] * 3
    rep = wd.lyapunov_from_saddles(mixed)
    assert abs(rep.lambda_u - 3.0) < 1e-12
    expected = np.std([2.0, 4.0] * 3, ddof=1) / math.sqrt(6)
    assert abs(rep.stderr - expected) < 1e-12


def test_lyapunov_from_saddles_ignores_nonsaddles_and_needs_five():
    saddles = [_orbit_with_multipliers(1, 3.0 + 0j, 0.2 + 0j) for _ in range(5)]
    spirals = [_orbit_with_multipliers(1, 2.0 + 0j, 1.5 + 0j) for _ in range(10)]
    rep = wd.lyapunov_from_saddles(saddles + spirals)
    assert abs(rep.lambda_u - math.log(3.0)) < 1e-15
    with pytest.raises(TooFewSaddlesError):
        wd.lyapunov_from_saddles(saddles[:4] + spirals)


def test_saddle_estimator_reproduces_exact_torus_exponents():
    f = TorusAutomorphism(IntMatrix.from_rows([[2, 1], [1, 1]]))
    exact = lyapunov_exact(f)
    rep = wd.lyapunov_from_saddles(wd.torus_control_saddles(f))
    assert abs(rep.lambda_u - exact.lambda_u) < 1e-10
    assert abs(rep.lambda_s - exact.lambda_s) < 1e-10


def test_pool_period_estimates_weights_and_stderr():
    a = LyapunovReport(1.0, -1.0, LyapunovMethod.SADDLE_MULTIPLIERS, 0.1)
    b = LyapunovReport(2.0, -2.0, LyapunovMethod.SADDLE_MULTIPLIERS, 0.2)
    pooled = wd.pool_period_estimates([a, b])
    assert pooled.lambda_u == 1.5
    assert pooled.lambda_s == -1.5
    between = np.var([1.0, 2.0], ddof=1) / 2
    within = (0.1**2 + 0.2**2) / 4
    assert abs(pooled.stderr - math.sqrt(between + within)) < 1e-15
    single = wd.pool_period_estimates([a])
    assert single.stderr == a.stderr
    with pytest.raises(TooFewSaddlesError):
        wd.pool_period_estimates([])


def test_rigidity_verdict_branches():
    lam = wd.wehler_lambda_f()
    half = 0.5 * math.log(lam)

    def rep(lu, stderr, dim):
        lyap = LyapunovReport(lu, -lu, LyapunovMethod.SADDLE_MULTIPLIERS, stderr)
        return wd.assemble_rigidity(lam, half, lyap, dim, 10)

    assert rep(half + 1.0, 0.01, None).verdict is wd.RigidityVerdict.RIGIDITY_GAP
    assert rep(half - 1.0, 0.01, None).verdict is wd.RigidityVerdict.INCONCLUSIVE
    good = rep(half + 0.001, 0.01, (4.01, 0.05))
    assert good.verdict is wd.RigidityVerdict.KUMMER_CONSISTENT
    assert abs(good.gap_u - 0.001) < 1e-12
    assert rep(half, 0.01, (3.0, 0.05)).verdict is wd.RigidityVerdict.INCONCLUSIVE
    assert rep(half, 0.01, None).verdict is wd.RigidityVerdict.INCONCLUSIVE
    empty = wd.assemble_rigidity(lam, half, None, None, 0)
    assert empty.verdict is wd.RigidityVerdict.INCONCLUSIVE
    assert empty.lambda_u_est is None


def test_wehler_lambda_f_value():
    assert abs(wd.wehler_lambda_f() - (9 + 4 * math.sqrt(5))) < 1e-12


def test_torus_control_report_is_kummer_consistent():
    f = TorusAutomorphism(IntMatrix.from_rows([[2, 1], [1, 1]]))
    report = wd.torus_control_report(f)
    assert report.verdict is wd.RigidityVerdict.KUMMER_CONSISTENT
    assert report.gap_u == 0.0
    assert report.gap_s == 0.0
    assert abs(report.qr_gap) < 1e-5
    assert abs(report.dimension_est - 4.0) <= 3 * report.dimension_stderr


def test_surface_cloud_distance_properties():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(6, 3, 2)) + 1j * rng.normal(size=(6, 3, 2))
    d0 = wd.surface_cloud_distance(pts, 0)
    assert d0[0] == 0.0
    # the estimator's cutoff is accepted and ignored
    assert wd.surface_cloud_distance(pts, 0, 0.01).tobytes() == d0.tobytes()
    scaled = pts.copy()
    scaled[2] *= 3.0 - 4.0j
    d0s = wd.surface_cloud_distance(scaled, 0)
    assert abs(d0[2] - d0s[2]) < 1e-12
    # orthogonal coordinates on every axis sit at the metric's diameter
    e = np.zeros((2, 3, 2), dtype=complex)
    e[0, :, 0] = 1.0
    e[1, :, 1] = 1.0
    assert abs(wd.surface_cloud_distance(e, 0)[1] - math.sqrt(3.0)) < 1e-12


def test_rigidity_report_on_a_small_run():
    surface = wd.random_surface(1)
    report, orbits = wd.rigidity_report(surface, n_max=3, seeds=512, rng_seed=0)
    assert abs(report.lambda_f - (9 + 4 * math.sqrt(5))) < 1e-12
    assert report.n_saddles == len(orbits)
    assert report.n_saddles > 0
    assert report.verdict in (
        wd.RigidityVerdict.RIGIDITY_GAP,
        wd.RigidityVerdict.INCONCLUSIVE,
    )
    assert report.per_period is not None
    periods = [n for (n, _, _) in report.per_period]
    assert periods == sorted(periods)
    assert all(count > 0 for (_, count, _) in report.per_period)
    assert report.lyap_stderr > 0.0


# ---------------------------------------------------------------------------
# singularity probe and density histogram


def test_probe_flags_forced_node():
    surface = _forced_node_surface()
    suspects = wd.singularity_probe(surface, trials=3000, rng_seed=5)
    assert len(suspects) >= 1
    inf = wd.P1Point(1.0, 0.0)
    node = wd.SurfacePoint(inf, inf, inf, 0.0)
    assert min(s.point.chordal(node) for s in suspects) < 1e-6
    assert all(s.grad_max < 1e-8 for s in suspects)


def test_probe_clean_on_random_surface():
    surface = wd.random_surface(11)
    assert wd.singularity_probe(surface, trials=1500, rng_seed=5) == []


def test_probe_with_zero_trials_samples_nothing():
    surface = _forced_node_surface()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(30):
            assert wd.singularity_probe(surface, trials=0, rng_seed=seed) == []


def test_density_histogram_shape_and_scaling():
    surface = wd.random_surface(1)
    p = wd.random_surface_point(surface, np.random.default_rng(6))
    img = wd.density_histogram(surface, p, iters=300)
    assert img.shape == (512, 512)
    assert img.dtype == np.uint8
    assert img.max() == 255
    assert int((img > 0).sum()) >= 100
    small = wd.density_histogram(surface, p, iters=50, proj=("y", "z"), bins=64)
    assert small.shape == (64, 64)


@pytest.mark.parametrize("proj", [("x", "x"), ("x", "w")])
def test_density_histogram_refuses_a_repeated_or_unknown_axis(proj, monkeypatch):
    surface = wd.random_surface(7)
    p = wd.random_surface_point(surface, np.random.default_rng(6))

    def no_orbit(*args):
        raise AssertionError("the orbit ran before the projection was checked")

    monkeypatch.setattr(wd, "orbit", no_orbit)
    with pytest.raises(PreconditionError):
        wd.density_histogram(surface, p, iters=200, proj=proj, bins=64)
