"""An exact control inside the surface layer: the Cayley cubic.

Every number the periodic-point search reports on this surface is known in
closed form, so these tests check the involution kernel, the chart Newton
step and the multipliers against exact values.
"""

import cmath
import math

import numpy as np
import pytest

from kummerlab import wehler_dynamics as wd

RHO = 2.0 + math.sqrt(5.0)
LAMBDA_U = math.log(RHO)
M = np.array([[3, -2], [-2, 1]])


def cayley_surface():
    """The closure in (P^1)^3 of x^2 + y^2 + z^2 + xyz = 4.

    Coefficient 1 at [2,0,0], [0,2,0], [0,0,2] and [1,1,1], -4 at [0,0,0],
    then max-modulus scaled by from_array.  The surface is singular (four
    nodes at finite distance, and along its boundary at infinity), but the
    dynamics is a monomial map.

    Put x = a + 1/a, y = b + 1/b and z = -(ab + 1/(ab)); this covers the
    surface by (C*)^2, two-to-one through (a, b) ~ (1/a, 1/b).  Each
    involution swaps its coordinate to the other root of a fiber quadratic
    whose roots sum to minus the product of the other two coordinates:
      - sigma_3: z' = -xy - z = -(a/b + b/a), so (a, b) -> (a, 1/b);
      - sigma_2: y' = -xz - y = a^2 b + 1/(a^2 b), so (a, b) -> (1/a, a^2 b),
        which keeps x and z;
      - sigma_1: x' = -yz - x = a b^2 + 1/(a b^2), so (a, b) -> (a b^2, 1/b).
    On exponents (log a, log b) these are [[1,0],[0,-1]], [[-1,0],[2,1]] and
    [[1,2],[0,-1]].  f = sigma_1 sigma_2 sigma_3 (axes 2, 1, 0, sigma_3 first)
    is their product M = [[3,-2],[-2,1]]: (a, b) -> (a^3 b^-2, a^-2 b).
    M has det -1 and spectral radius 2 + sqrt 5, so every saddle of period n
    has multipliers with |m_u| = (2 + sqrt 5)^n and m_u m_s = (-1)^n.
    """
    arr = np.zeros((3, 3, 3), dtype=complex)
    arr[2, 0, 0] = arr[0, 2, 0] = arr[0, 0, 2] = arr[1, 1, 1] = 1.0
    arr[0, 0, 0] = -4.0
    return wd.WehlerSurface.from_array(arr)


def _point(surface, a, b):
    coords = (a + 1 / a, b + 1 / b, -(a * b + 1 / (a * b)))
    return wd.make_surface_point(surface, *(wd.P1Point.make(c, 1.0) for c in coords))


def _smooth_fixed_count(n):
    """#Fix(f^n) off the four nodes.  On (C*)^2, t^(M^n) = t has
    |det(M^n - I)| solutions and t^(M^n) = 1/t has |det(M^n + I)|; the four
    2-torsion points (the nodes; M = I mod 2) solve both, and the rest pair
    up under t ~ 1/t."""
    (p, q), (r, t) = np.linalg.matrix_power(M, n).tolist()
    return (abs((p - 1) * (t - 1) - q * r) + abs((p + 1) * (t + 1) - q * r)) // 2 - 4


def test_monomial_map_reproduces_wehler_map():
    surface = cayley_surface()
    rng = np.random.default_rng(3)
    for _ in range(8):
        a, b = (cmath.exp(complex(*rng.normal(scale=0.4, size=2))) for _ in range(2))
        image = wd.wehler_map(surface, _point(surface, a, b))
        expect = _point(surface, a**3 / b**2, b / a**2)
        assert image.chordal(expect) <= 1e-9


def test_smooth_fixed_counts():
    assert [_smooth_fixed_count(n) for n in (1, 2, 3, 4)] == [0, 14, 72, 318]


def assert_exact_saddles(surface, n, count):
    """The census of period n at 512 seeds finds 1..count rows, each with
    lambda_u = log(2 + sqrt 5) and m_u m_s = (-1)^n."""
    rows = wd.newton_periodic(surface, n, 512, 0)
    assert 0 < len(rows) <= count
    lam = np.array([math.log(abs(o.multipliers[0])) / n for o in rows])
    det = np.array([o.multipliers[0] * o.multipliers[1] for o in rows])
    assert np.abs(lam - LAMBDA_U).max() <= 1e-10
    assert np.abs(det - (-1) ** n).max() <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_saddles_carry_the_exact_exponent(n):
    assert_exact_saddles(cayley_surface(), n, _smooth_fixed_count(n))


@pytest.mark.parametrize("n", [4, 5])
def test_rigidity_verdict_is_inconclusive(n):
    """gap_u is zero here too, but the saddle cloud has fewer than 1000
    points and so no dimension estimate: the verdict must stay INCONCLUSIVE,
    never KUMMER_CONSISTENT."""
    report, _ = wd.rigidity_report(cayley_surface(), n, 2000, 0)
    assert report.verdict is wd.RigidityVerdict.INCONCLUSIVE
