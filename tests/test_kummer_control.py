"""An exact Kummer control inside the surface layer: the Weierstrass surface.

Take E: y^2 = 4x^3 - g2 x - g3.  By the addition theorem, for u + v + w = 0
the values x1 = p(u), x2 = p(v), x3 = p(u + v) of the Weierstrass p satisfy

    (x1 + x2 + x3)(4 x1 x2 x3 - g3) = (x1 x2 + x2 x3 + x3 x1 + g2/4)^2,

and each xi has degree 2, so (p(u), p(v), p(u + v)) maps E x E / +-1 onto
this (2,2,2) surface, with its 16 nodes at the 2-torsion points.  The
involutions act on (u, v) as sigma_3: (u, -v), sigma_2: (u, -2u - v) and
sigma_1: (-u - 2v, v), so f = sigma_1 sigma_2 sigma_3 is M = [[3,-2],[-2,1]]
on E x E, as on the Cayley cubic.  Here f is a Kummer example: every saddle
of period n off the nodes has multipliers with |m_u| = (2 + sqrt 5)^n and
m_u m_s = (-1)^n, so lambda_u = log(2 + sqrt 5) = 1/2 log lambda_f exactly,
and the rigidity report must say KUMMER_CONSISTENT.
"""

import numpy as np
import pytest

from kummerlab import wehler_dynamics as wd
from test_cayley_cubic import M, assert_exact_saddles

G2 = 1.25 + 0.5j
G3 = -0.75 + 0.875j


def weierstrass_array():
    """The coefficients of (x1 + x2 + x3)(4 x1 x2 x3 - g3) minus the square:
    -1 at x1^2 x2^2 and its two symmetric terms, 2 at x1^2 x2 x3 and its
    two, -g3 at each xi, -g2/2 at each xi xj and -g2^2/16 at 1."""
    arr = np.zeros((3, 3, 3), dtype=complex)
    for i, j, k in ((2, 2, 0), (2, 0, 2), (0, 2, 2)):
        arr[i, j, k] = -1.0
    for i, j, k in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
        arr[i, j, k] = 2.0
    for i, j, k in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        arr[i, j, k] = -G3
    for i, j, k in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
        arr[i, j, k] = -G2 / 2
    arr[0, 0, 0] = -G2 * G2 / 16
    return arr


def kummer_surface():
    """The Weierstrass surface of the dyadic g2, g3 above.  The largest
    coefficient is the 2 at x1^2 x2 x3, so from_array divides by 2 exactly
    and the stored surface is exactly a Kummer surface."""
    return wd.WehlerSurface.from_array(weierstrass_array())


def _smooth_fixed_count(n):
    """#Fix(f^n) off the 16 nodes: M^n acts on the real 4-torus E x E with
    |det(M^n - I)|^2 fixed points and t -> -t composed with it with
    |det(M^n + I)|^2; the 16 2-torsion points solve both, and the rest pair
    up under t ~ -t."""
    Mn = np.linalg.matrix_power(M, n)
    minus = round(np.linalg.det(Mn - np.eye(2)))
    plus = round(np.linalg.det(Mn + np.eye(2)))
    return (minus * minus + plus * plus) // 2 - 16


def test_curve_is_smooth_and_the_stored_surface_is_exact():
    assert abs(G2**3 - 27 * G3**2) > 1.0
    stored = kummer_surface().array()
    assert stored.tobytes() == (weierstrass_array() / 2).tobytes()


def test_smooth_fixed_counts():
    assert [_smooth_fixed_count(n) for n in (1, 2, 3, 4)] == [0, 312, 5760, 103672]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_saddles_carry_the_exact_exponent(n):
    assert_exact_saddles(kummer_surface(), n, _smooth_fixed_count(n))


def test_rigidity_verdict_is_kummer_consistent():
    report, _ = wd.rigidity_report(kummer_surface(), 4, 2000, 0)
    assert report.verdict is wd.RigidityVerdict.KUMMER_CONSISTENT
    assert abs(report.gap_u) <= 1e-12


def test_default_rigidity_run_is_kummer_consistent():
    report, _ = wd.rigidity_report(kummer_surface(), 5, 2000, 0)
    assert report.verdict is wd.RigidityVerdict.KUMMER_CONSISTENT
    assert abs(report.gap_u) <= 1e-12


def _curve_point(x):
    """A point (x, y) of E: y^2 = 4x^3 - g2 x - g3 above x."""
    return x, np.sqrt(4 * x**3 - G2 * x - G3)


def _chord_add(p, q):
    """P + Q by the chord rule on E, for P != +-Q: the line through P and Q
    meets E again at R, with x(R) = slope^2 / 4 - x(P) - x(Q), and
    P + Q = -R."""
    (x1, y1), (x2, y2) = p, q
    slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope / 4 - x1 - x2
    return x3, -(y1 + slope * (x3 - x1))


def test_wehler_map_is_m_on_the_group_law():
    """f sends (x(P), x(Q), x(P + Q)) to (x(3P - 2Q), x(2P - Q), x(P - Q)),
    which is M = [[3, -2], [-2, 1]] on (u, v), since x = p(u) is even."""
    rng = np.random.default_rng(2)
    surface = kummer_surface()
    for _ in range(10):
        p, q = (_curve_point(complex(*rng.uniform(-1.5, 1.5, 2))) for _ in range(2))
        d = _chord_add(p, (q[0], -q[1]))
        b = _chord_add(p, d)
        c = _chord_add(b, d)
        start = wd.make_surface_point(
            surface, *(wd.P1Point.make(x, 1) for x in (p[0], q[0], _chord_add(p, q)[0]))
        )
        image = wd.wehler_map(surface, start)
        target = wd.SurfacePoint(*(wd.P1Point.make(x, 1) for x in (c[0], b[0], d[0])), 0.0)
        assert image.chordal(target) <= 1e-9
