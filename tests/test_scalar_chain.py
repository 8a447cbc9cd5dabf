"""The scalar surface chain against a per-involution reference.

sigma, wehler_map, wehler_map_inverse and orbit run one loop that keeps the
z-fiber quadratic of the current point and reuses it for the point's
residual and for the next sigma_3.  reference_chain below is the chain as
it was before that sharing: every involution rebuilds its point and
evaluates a fresh z-fiber quadratic for the residual.  A point whose z-fiber
quadratic the loop does not need next is checked with the next
involution's own quadratic and a rounding margin, and only near tol with
its z-fiber residual.  The loop must give the same points, residuals and
errors, bit for bit, with fewer fiber quadratics.
"""

import numpy as np
import pytest

from kummerlab import wehler_dynamics as wd
from kummerlab.errors import IndeterminatePointError, OffSurfaceError
from test_cayley_cubic import _point as cayley_point
from test_cayley_cubic import cayley_surface

INF = wd.P1Point(1.0, 0.0)


def reference_chain(carr, axes, p, tol):
    """The involutions of axes applied to p in order, each point rebuilt
    with P1Point.make and checked with its own z-fiber quadratic."""
    if p.residual > tol:
        raise OffSurfaceError("input point fails the membership tolerance")
    for axis in axes:
        Q = wd._plain_chain(carr, wd._pack_points([(p.x, p.y, p.z)]), (axis,))
        if not np.all(np.isfinite(Q)):
            raise IndeterminatePointError(
                "degenerate fiber under the involution", stage=axis + 1
            )
        x, y, z = (wd.P1Point.make(*row) for row in Q[0])
        res = float(wd._residuals(carr, wd._pack_points([(x, y, z)]))[0])
        if res > tol:
            raise OffSurfaceError(
                f"residual {res:.3e} exceeds membership tolerance {tol:.1e}"
            )
        p = wd.SurfacePoint(x, y, z, res)
    return p


def reference_orbit(surface, p, n_steps, tol=wd.MEMBERSHIP_TOL):
    carr = surface.array()
    pts, worst = [p], p.residual
    for _ in range(n_steps):
        p = reference_chain(carr, wd.FORWARD_AXES, p, tol)
        worst = max(worst, p.residual)
        pts.append(p)
    return pts, worst


def _point_bytes(p):
    return np.array([p.x.u, p.x.v, p.y.u, p.y.v, p.z.u, p.z.v, p.residual]).tobytes()


def outcome(fn, *args):
    """What a call returns, as bytes, or the error it raises."""
    try:
        out = fn(*args)
    except (OffSurfaceError, IndeterminatePointError) as err:
        return type(err).__name__, str(err), getattr(err, "stage", None)
    if isinstance(out, tuple):  # orbit: (points, worst)
        pts, worst = out
        return [_point_bytes(p) for p in pts], np.float64(worst).tobytes()
    return _point_bytes(out)


def _chain_ref(axes):
    return lambda surface, p, tol=wd.MEMBERSHIP_TOL: reference_chain(
        surface.array(), axes, p, tol
    )


def _assert_same(surface, p, n_steps=60, tol=wd.MEMBERSHIP_TOL):
    assert outcome(wd.orbit, surface, p, n_steps, tol) == outcome(
        reference_orbit, surface, p, n_steps, tol
    )
    pairs = [
        (wd.wehler_map, wd.FORWARD_AXES),
        (wd.wehler_map_inverse, wd.INVERSE_AXES),
    ]
    for fn, axes in pairs:
        assert outcome(fn, surface, p, tol) == outcome(_chain_ref(axes), surface, p, tol)
    for axis in wd.Axis:
        got = outcome(wd.sigma, surface, axis, p, tol)
        assert got == outcome(_chain_ref((axis.value,)), surface, p, tol)


def _start_points(name, count):
    if name == "cayley":
        surface = cayley_surface()
        rng = np.random.default_rng(5)
        pts = []
        for _ in range(count):
            a, b = np.exp(rng.normal(scale=0.4, size=2) + 1j * rng.normal(size=2))
            pts.append(cayley_point(surface, a, b))
        return surface, pts
    surface = wd.random_surface(name)
    rng = np.random.default_rng(name)
    return surface, [wd.random_surface_point(surface, rng) for _ in range(count)]


@pytest.mark.golden
@pytest.mark.parametrize("name", [1, 7, 13, "cayley"])
def test_scalar_wrappers_match_the_per_involution_chain(name):
    surface, pts = _start_points(name, 12)
    for p in pts:
        _assert_same(surface, p)


@pytest.mark.golden
def test_long_orbit_matches_the_per_involution_chain():
    surface, (p,) = _start_points(7, 1)
    assert outcome(wd.orbit, surface, p, 1500) == outcome(reference_orbit, surface, p, 1500)


@pytest.mark.golden
@pytest.mark.parametrize("name", [1, 13])
def test_unnormalised_rows_refresh_the_shared_quadratic(name):
    """A start point whose rows P1Point.make would change: the x row has
    u = 1 + 1e-17j, so the first rebuild moves x and the quadratic kept
    for the start point no longer fits the rebuilt point."""
    surface, pts = _start_points(name, 8)
    for p in pts:
        x = wd.P1Point(1.0 + 1e-17j, min(p.x.u, p.x.v, key=abs))
        z = wd.solve_fiber(surface, wd.Axis.Z, x, p.y)[0]
        q = wd.SurfacePoint(x, p.y, z, wd.surface_residual(surface, x, p.y, z))
        assert wd.P1Point.make(x.u, x.v) != x
        _assert_same(surface, q)


class _Counter:
    def __init__(self, monkeypatch, name):
        self.calls = 0
        inner = getattr(wd, name)

        def spy(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(wd, name, spy)


@pytest.mark.parametrize("n_steps", [1, 2, 50])
def test_orbit_evaluates_3n_plus_1_fiber_quadratics(monkeypatch, n_steps):
    """Three per step: sigma_2, sigma_1 and the residual after sigma_1,
    which is also the next step's sigma_3 quadratic.  sigma_1's quadratic
    checks the point after sigma_2 first.  The start point's quadratic
    serves sigma_3 of step one; its rows move under the first rebuild, so
    sigma_2's quadratic checks the point after that sigma_3."""
    surface = wd.random_surface(1)
    p = wd.random_surface_point(surface, np.random.default_rng(0))
    count = _Counter(monkeypatch, "_fiber_coeffs")
    wd.orbit(surface, p, n_steps)
    assert count.calls == 3 * n_steps + 1


# ---------------------------------------------------------------------------
# the error contract


def _loop_and_reference(surface, p, tol, axes):
    """(loop, reference) call pairs for the chains that start with axes:
    orbit over three steps and wehler_map for f, wehler_map_inverse for
    f^-1."""
    carr = surface.array()
    ref = lambda: reference_chain(carr, axes, p, tol)  # noqa: E731
    if axes == wd.INVERSE_AXES:
        return [(lambda: wd.wehler_map_inverse(surface, p, tol), ref)]
    return [
        (lambda: wd.orbit(surface, p, 3, tol), lambda: reference_orbit(surface, p, 3, tol)),
        (lambda: wd.wehler_map(surface, p, tol), ref),
    ]


def _counted(monkeypatch, call):
    """outcome(call) and the number of involutions it ran."""
    swaps = _Counter(monkeypatch, "_swap_root")
    got = outcome(call), swaps.calls
    monkeypatch.undo()
    return got


@pytest.mark.parametrize("name", [1, 7])
def test_tight_tolerance_fails_at_the_same_involution(monkeypatch, name):
    """tol just below the residual after the first involution, or below the
    median residual of three steps: the loop and the reference raise the
    same OffSurfaceError after the same number of involutions.

    The points after sigma_3 sigma_2 in f and after sigma_1 in f^-1 are
    checked with the next involution's quadratic, whose margin is far above
    these levels, so there the exact z-fiber residual decides: at tol one
    ulp below the level the chain stops at that point, and at tol equal to
    it the point passes, with the same outcome as the reference."""
    surface, pts = _start_points(name, 6)
    carr = surface.array()
    checked = 0
    for p in pts:
        first = reference_chain(carr, (2,), p, np.inf).residual
        second = reference_chain(carr, (2, 1), p, np.inf).residual
        rows, _ = reference_orbit(surface, p, 3, np.inf)
        median = np.median([q.residual for q in rows[1:]])
        # (level, first involutions, involutions run at one ulp below, at it)
        levels = [
            (first, wd.FORWARD_AXES, 1, False),
            (median, wd.FORWARD_AXES, None, False),
            (second, wd.FORWARD_AXES, 1 if first > np.nextafter(second, 0.0) else 2, True),
            (reference_chain(carr, (0,), p, np.inf).residual, wd.INVERSE_AXES, 1, True),
        ]
        for level, axes, swaps, at_level in levels:
            if level <= p.residual:
                continue
            below = np.nextafter(level, 0.0)
            for tol in (below, level) if at_level else (below,):
                pairs = _loop_and_reference(surface, p, tol, axes)
                for k, (loop, ref) in enumerate(pairs):
                    got = _counted(monkeypatch, loop)
                    assert got == _counted(monkeypatch, ref)
                    # three steps reach a residual above the median; one
                    # wehler_map need not
                    if tol == below and (swaps or k == 0):
                        assert got[0][0] == "OffSurfaceError"
                        assert swaps is None or got[1] == swaps
                checked += 1
    assert checked >= 18


def _degenerate_fiber_point(axis):
    """A surface whose fiber of the axis over the other two coordinates at
    (1:0) vanishes identically, and a point on that fiber."""
    arr = wd.random_surface(9).array()
    corner = [2, 2, 2]
    corner[axis] = slice(None)
    arr[tuple(corner)] = 0.0
    surface = wd.WehlerSurface.from_array(arr)
    coords = [INF, INF, INF]
    coords[axis] = wd.P1Point.make(1.0, 0.3 + 0.1j)
    p = wd.make_surface_point(surface, *coords)
    assert p.residual < 1e-14
    return surface, p


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_degenerate_fiber_reports_its_involution(axis):
    surface, p = _degenerate_fiber_point(axis)
    expect = ("IndeterminatePointError", outcome(_chain_ref((axis,)), surface, p)[1], axis + 1)
    assert outcome(wd.sigma, surface, wd.Axis(axis), p) == expect
    # the involution applied first: sigma_3 in f and orbit, sigma_1 in f^-1
    if axis == 2:
        assert outcome(wd.wehler_map, surface, p) == expect
        assert outcome(wd.orbit, surface, p, 5) == expect
    if axis == 0:
        assert outcome(wd.wehler_map_inverse, surface, p) == expect


def test_off_surface_input_raises_before_any_involution(monkeypatch):
    surface = wd.random_surface(1)
    p = wd.random_surface_point(surface, np.random.default_rng(0))
    bad = wd.SurfacePoint(p.x, p.y, wd.P1Point.make(1.0, p.z.v + 0.25), 0.5)
    fibers = _Counter(monkeypatch, "_fiber_coeffs")
    swaps = _Counter(monkeypatch, "_swap_root")
    calls = [
        lambda: wd.sigma(surface, wd.Axis.X, bad),
        lambda: wd.wehler_map(surface, bad),
        lambda: wd.wehler_map_inverse(surface, bad),
        lambda: wd.orbit(surface, bad, 4),
    ]
    for call in calls:
        with pytest.raises(OffSurfaceError, match="input point"):
            call()
    assert fibers.calls == swaps.calls == 0
    # no pass, no check: a zero-step orbit returns its input as before
    assert wd.orbit(surface, bad, 0) == ([bad], 0.5)
