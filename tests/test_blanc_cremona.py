"""Tests for the plane Cremona involutions fixing a cubic."""

import numpy as np
import pytest

from kummerlab import blanc_cremona as bc
from kummerlab.errors import (
    ChartFailureError,
    IndeterminatePointError,
    OnCubicError,
    PreconditionError,
)

FERMAT = bc.fermat_cubic()
BASE = bc.P2Point.make(1.0, -1.0, 0.0)
# a smooth cubic with all ten coefficients nonzero and dyadic: the Fermat
# cubic has only X0^3, X1^3 and X2^3, so only this one runs the convolution
# chains of mixed monomials such as X0 X1 X2 and X0^2 X1
DENSE = bc.PlaneCubic.from_coefficients(
    [1.0, -0.5 + 0.25j, 0.75, 0.25 - 0.5j, -1.5 + 0.5j,
     0.5, -1.0 + 0.125j, 0.375j, -0.625, 1.25 - 0.25j]
)


def random_p2(rng):
    return bc.P2Point.make(*(rng.normal(size=3) + 1j * rng.normal(size=3)))


def test_p2point_normalization_and_chordal():
    p = bc.P2Point.make(2.0j, 1.0, -4.0)
    assert p.x2 == 1.0
    assert abs(p.x0 - 2.0j / -4.0) < 1e-15
    with pytest.raises(PreconditionError):
        bc.P2Point.make(0.0, 0.0, 0.0)
    q = bc.P2Point.make(-6.0j, -3.0, 12.0)
    assert p.chordal(q) < 1e-15
    assert p.chordal(p) == 0.0


def test_cubic_constructor_and_evaluation():
    with pytest.raises(PreconditionError):
        bc.PlaneCubic.from_coefficients([1.0] * 9)
    with pytest.raises(PreconditionError):
        bc.PlaneCubic.from_coefficients([0.0] * 10)
    assert FERMAT.evaluate((1.0, -1.0, 0.0)) == 0.0
    assert FERMAT.evaluate((1.0, 1.0, 1.0)) == 3.0
    # gradient matches finite differences on a generic cubic
    rng = np.random.default_rng(0)
    cubic = bc.PlaneCubic.from_coefficients(rng.normal(size=10) + 1j * rng.normal(size=10))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    g = cubic.gradient(v)
    h = 1e-7
    for var in range(3):
        e = np.zeros(3)
        e[var] = h
        fd = (cubic.evaluate(v + e) - cubic.evaluate(v - e)) / (2 * h)
        assert abs(fd - g[var]) < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_point_or_cubic_is_named(bad):
    with pytest.raises(PreconditionError, match="non-finite"):
        bc.P2Point.make(bad, 1.0, 1.0)
    with pytest.raises(PreconditionError, match="non-finite"):
        bc.PlaneCubic.from_coefficients([bad] + [1.0] * 9)
    with pytest.raises(PreconditionError, match=r"\(0, 0, 0\) is not a projective point"):
        bc.P2Point.make(0.0, 0.0, 0.0)


# entries for the convolution-core tests: every pair of real and imaginary
# parts from signed zeros, subnormals, infinities, NaN and ordinary values
SPECIAL_PARTS = (0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1.5, -0.75)
SPECIAL = np.array([complex(re, im) for re in SPECIAL_PARTS for im in SPECIAL_PARTS])


def test_bound_convolution_core_gives_np_convolve_bits():
    # np.convolve(x, y) puts the longer operand first and reverses the
    # shorter.  A reversed operand of two or more entries is copied to
    # contiguous memory inside the core, so _line_restriction may pass such a
    # copy; a reversed single entry keeps its negative stride, which changes
    # the summation path, so there it must pass the view
    rng = np.random.default_rng(8)
    for n in range(1, 5):
        for _ in range(300):
            a = rng.choice(SPECIAL, size=n)
            lin = rng.choice(SPECIAL, size=2)
            for x, y in ((a, lin), (lin, a)):
                ref = np.convolve(x, y).tobytes()
                longer, shorter = (y, x) if len(x) < len(y) else (x, y)
                forms = [shorter[::-1]] + [shorter[::-1].copy()] * (len(shorter) > 1)
                for rev in forms:
                    assert bc._CORRELATE(longer, rev, 2).tobytes() == ref, (
                        f"numpy {np.__version__}: the core bound from np.convolve no longer "
                        f"gives np.convolve's bits for {x!r} * {y!r}"
                    )


def _line_restriction_by_convolve(cubic, origin, direction):
    total = np.zeros(4, dtype=complex)
    for c, expo in zip(cubic.coeffs, bc.MONOMIALS):
        if c == 0:
            continue
        poly = np.array([1.0 + 0.0j])
        for var, e in enumerate(expo):
            lin = np.array([direction[var], origin[var]])
            for _ in range(e):
                poly = np.convolve(poly, lin)
        total += c * poly
    return total[0], total[1], total[2], total[3]


def test_line_restriction_equals_the_np_convolve_chain_bitwise():
    rng = np.random.default_rng(9)
    lines = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(200)]
    lines += [rng.choice(SPECIAL, size=(2, 3)) for _ in range(200)]
    lines += [rng.normal(size=(2, 3)) for _ in range(20)]
    for cubic in (FERMAT, DENSE):
        for origin, direction in lines:
            with np.errstate(all="ignore"):
                got = np.array(bc._line_restriction(cubic, origin, direction))
                ref = np.array(_line_restriction_by_convolve(cubic, origin, direction))
            assert got.tobytes() == ref.tobytes()


def test_line_restriction_reproduces_cubic_along_line():
    rng = np.random.default_rng(1)
    cubic = bc.PlaneCubic.from_coefficients(rng.normal(size=10) + 1j * rng.normal(size=10))
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    g3, g2, g1, g0 = bc._line_restriction(cubic, a, b)
    for t in (0.0, 0.5, -1.7, 2.3 + 0.4j):
        direct = cubic.evaluate(a + t * b)
        poly = g3 * t**3 + g2 * t**2 + g1 * t + g0
        assert abs(direct - poly) < 1e-10 * max(1.0, abs(direct))


def test_sigma_is_an_involution():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        p = random_p2(rng)
        s1 = bc.sigma_q(FERMAT, BASE, p)
        assert bc.sigma_q(FERMAT, BASE, s1).chordal(p) < 1e-10


def test_sigma_preserves_the_pencil_of_lines():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = random_p2(rng)
        s = bc.sigma_q(FERMAT, BASE, p)
        coplanar = np.linalg.det(np.stack([s.array(), BASE.array(), p.array()]))
        assert abs(coplanar) < 1e-10


def test_sigma_fixes_cubic_points():
    for p in bc.cubic_points(FERMAT, 100, 5):
        if p.chordal(BASE) < 1e-4:
            continue
        assert bc.sigma_q(FERMAT, BASE, p).chordal(p) < 1e-10


def test_restriction_roots_reproduce_the_cubic():
    # the deflated quadratic's roots and t=0 are the line's intersections
    rng = np.random.default_rng(4)
    qarr = BASE.array()
    for _ in range(25):
        p = random_p2(rng)
        m = int(np.argmax(np.abs(qarr)))
        d = p.array() / p.array()[m] - qarr
        g3, g2, g1, g0 = bc._line_restriction(FERMAT, qarr, d)
        assert abs(g0) < 1e-12
        for t in np.roots([g3, g2, g1]):
            v = qarr + t * d
            res = abs(FERMAT.evaluate(v)) / np.abs(v).max() ** 3
            assert res < 1e-10


def test_sigma_requires_base_point_on_cubic():
    off = bc.P2Point.make(1.0, 2.0, 3.0)
    rng = np.random.default_rng(6)
    with pytest.raises(PreconditionError):
        bc.sigma_q(FERMAT, off, random_p2(rng))


def test_sigma_rejects_input_at_base_point():
    with pytest.raises(IndeterminatePointError):
        bc.sigma_q(FERMAT, BASE, bc.P2Point.make(-2.0, 2.0, 0.0))


def test_sigma_tangent_line_at_base_point_is_indeterminate():
    # directions in the kernel of the gradient span the tangent line at q
    grad = FERMAT.gradient(BASE.array())
    omega = np.cross(grad, BASE.array())
    p = bc.P2Point.make(*(BASE.array() + omega))
    with pytest.raises(IndeterminatePointError):
        bc.sigma_q(FERMAT, BASE, p)


def test_sigma_tangent_line_elsewhere_is_indeterminate():
    # build a line tangent to the cubic at r and find its third intersection
    # s; viewed from base point s the line is one of the four tangent lines
    r = bc.cubic_points(FERMAT, 1, 8)[0]
    rarr = r.array()
    omega = np.cross(FERMAT.gradient(rarr), rarr)
    g3, g2, g1, g0 = bc._line_restriction(FERMAT, rarr, omega)
    assert abs(g1) < 1e-10 * max(abs(g2), abs(g3))  # double root at r
    s = bc.P2Point.make(*(rarr + (-g2 / g3) * omega))
    assert bc.on_cubic(FERMAT, s)
    p = bc.P2Point.make(*(rarr + 0.37 * omega))
    with pytest.raises(IndeterminatePointError):
        bc.sigma_q(FERMAT, s, p)


def test_sigma_midpoint_maps_to_infinity_and_returns():
    # input at the fixed points' midpoint goes to the parameter-infinity
    # point of the line; the projective output still round-trips
    rng = np.random.default_rng(9)
    qarr = BASE.array()
    m = int(np.argmax(np.abs(qarr)))
    p0 = random_p2(rng)
    d = p0.array() / p0.array()[m] - qarr
    g3, g2, g1, _ = bc._line_restriction(FERMAT, qarr, d)
    ta, tb = np.roots([g3, g2, g1])
    mid = bc.P2Point.make(*(qarr + 0.5 * (ta + tb) * d))
    image = bc.sigma_q(FERMAT, BASE, mid)
    assert image.chordal(bc.P2Point.make(*d)) < 1e-8
    assert bc.sigma_q(FERMAT, BASE, image).chordal(mid) < 1e-8


def test_blanc_map_validates_base_points():
    with pytest.raises(PreconditionError):
        bc.BlancMap(FERMAT, ())
    with pytest.raises(PreconditionError):
        bc.BlancMap(FERMAT, (bc.P2Point.make(1.0, 2.0, 3.0),))
    q2 = bc.P2Point.make(-1.0 + 1e-12, 1.0, 0.0)
    with pytest.raises(PreconditionError):
        bc.BlancMap(FERMAT, (BASE, q2))


def test_blanc_compose_single_point_is_sigma():
    B = bc.BlancMap(FERMAT, (BASE,))
    rng = np.random.default_rng(10)
    for _ in range(50):
        p = random_p2(rng)
        assert bc.blanc_compose(B, p).chordal(bc.sigma_q(FERMAT, BASE, p)) == 0.0
        assert bc.blanc_compose(B, bc.blanc_compose(B, p)).chordal(p) < 1e-10


def test_blanc_inverse_round_trip():
    qs = bc.distinct_cubic_points(FERMAT, 3, 7)
    B = bc.BlancMap(FERMAT, tuple(qs))
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = random_p2(rng)
        assert bc.blanc_inverse(B, bc.blanc_compose(B, p)).chordal(p) < 1e-9
        assert bc.blanc_compose(B, bc.blanc_inverse(B, p)).chordal(p) < 1e-9


def test_blanc_fixes_the_cubic_pointwise():
    qs = bc.distinct_cubic_points(FERMAT, 3, 7)
    B = bc.BlancMap(FERMAT, tuple(qs))
    pts = bc.cubic_points(FERMAT, 100, 12)
    for p in pts:
        if min(p.chordal(q) for q in qs) < 1e-4:
            continue
        assert bc.blanc_compose(B, p).chordal(p) < 1e-9


def test_blanc_compose_reports_failing_stage():
    qs = bc.distinct_cubic_points(FERMAT, 2, 7)
    B = bc.BlancMap(FERMAT, tuple(qs))
    with pytest.raises(IndeterminatePointError) as info:
        bc.blanc_compose(B, qs[1])  # first applied involution hits its base
    assert info.value.stage == 2
    with pytest.raises(IndeterminatePointError) as info:
        bc.blanc_inverse(B, qs[0])
    assert info.value.stage == 1


def test_blanc_compose_equals_the_public_sigma_chain_bitwise():
    # blanc_compose and blanc_inverse skip the per-step base-point check that
    # BlancMap already made; the points they return are sigma_q's, bit for bit
    for cubic in (FERMAT, DENSE):
        qs = bc.distinct_cubic_points(cubic, 3, 1)
        B = bc.BlancMap(cubic, tuple(qs))
        rng = np.random.default_rng(21)
        for step, order in ((bc.blanc_compose, qs[::-1]), (bc.blanc_inverse, qs)):
            for _ in range(50):
                p = random_p2(rng)
                ref = p
                for q in order:
                    ref = bc.sigma_q(cubic, q, ref)
                assert step(B, p).array().tobytes() == ref.array().tobytes()


def test_two_involution_composition_does_not_return_early():
    # consistent with the free product structure: no relation of length <= 6
    qs = bc.distinct_cubic_points(FERMAT, 2, 13)
    B = bc.BlancMap(FERMAT, tuple(qs))
    rng = np.random.default_rng(14)
    p = bc.P2Point.make(rng.normal() + 1j * rng.normal(), rng.normal(), 1.0)
    cur = p
    for _ in range(6):
        cur = bc.blanc_compose(B, cur)
        assert cur.chordal(p) > 1e-6


def test_two_form_defect_single_involution():
    B = bc.BlancMap(FERMAT, (BASE,))
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 100:
        p = bc.P2Point.make(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal(), 1.0)
        assert bc.two_form_check(B, p) < 1e-6
        checked += 1


def test_two_form_defect_three_involutions():
    qs = bc.distinct_cubic_points(FERMAT, 3, 7)
    B = bc.BlancMap(FERMAT, tuple(qs))
    rng = np.random.default_rng(16)
    for _ in range(100):
        p = bc.P2Point.make(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal(), 1.0)
        assert bc.two_form_check(B, p) < 1e-5


def test_two_form_check_rejects_bad_charts_and_poles():
    B = bc.BlancMap(FERMAT, (BASE,))
    with pytest.raises(ChartFailureError):
        bc.two_form_check(B, bc.P2Point.make(1.0, 2.0, 0.0))
    on_curve = bc.cubic_points(FERMAT, 1, 17)[0]
    assert abs(on_curve.x2) > 1e-3
    with pytest.raises(OnCubicError):
        bc.two_form_check(B, on_curve)


def test_cubic_points_land_on_the_cubic():
    rng_pts = bc.cubic_points(FERMAT, 25, 18)
    assert len(rng_pts) == 25
    for p in rng_pts:
        res = abs(FERMAT.evaluate(p.array()))
        assert res < 1e-10
    spaced = bc.distinct_cubic_points(FERMAT, 5, 19, spacing=1e-3)
    for i in range(5):
        for j in range(i + 1, 5):
            assert spaced[i].chordal(spaced[j]) >= 1e-3
