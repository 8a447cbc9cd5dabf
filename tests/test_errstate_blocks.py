"""Each np.errstate(all="ignore") block in wehler_dynamics holds back a
floating-point warning that some input really raises.

Every test calls the function that owns one block, directly, with an
input that raises a RuntimeWarning inside that block and nowhere else, and
turns RuntimeWarning into an error: losing the block fails the test.

The block in singularity_probe has no such test, because no input was
found that warns there (the probe's fixtures in test_singularity_probe.py
run clean with the block set to raise): the probe draws its own
max-normalised seed lanes, every quotient and square root in the seeding
and the chart sits in an inner block, the affine coordinates divide by
|u| >= 1e-6, Gauss-Newton moves them from modulus at most 1e6 by at most
0.5 per step, so nothing overflows, and only lanes whose residual and
Jacobian are finite reach the pseudo-inverse.
"""

import warnings

import numpy as np
import pytest

from kummerlab import wehler_dynamics as wd
from test_wehler_dynamics import _forced_node_surface

INF = wd.P1Point(1.0, 0.0)
ZERO = np.zeros(1, dtype=complex)


@pytest.fixture(autouse=True)
def runtime_warnings_are_errors():
    with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("error", RuntimeWarning)
        yield


def _point_at_infinity(surface):
    """The lane (1:0), (1:0), z on the surface: two v components are 0."""
    z = wd.solve_fiber(surface, wd.Axis.Z, INF, INF)[0]
    return wd._pack_points([(INF, INF, z)])


def test_solve_quadratic_overflowing_discriminant():
    big = np.array([1e200 + 0j])
    (r1u, r1v), _ = wd._solve_quadratic(big, big, big)  # B * B overflows
    assert np.isfinite(r1v).all()


def test_normalize_pair_arrays_zero_pair():
    u, v = wd._normalize_pair_arrays(ZERO, ZERO)  # 0 / 0
    assert np.isnan(u).all() and np.isnan(v).all()


def test_swap_root_vanishing_fiber():
    # one lane runs the one-lane body, two lanes the lane kernel: each has
    # its own block
    P = _point_at_infinity(wd.random_surface(1))
    for lanes in (P, np.concatenate([P, P])):
        zero = np.zeros((1, len(lanes)), dtype=complex)
        P2 = wd._swap_root(zero, zero, zero, 2, lanes[None])[0]  # 1 / 0 on every candidate
        assert np.isnan(P2[:, 2]).all()


def test_seed_chart_tangents_at_a_node():
    surface = _forced_node_surface()
    P = wd._pack_points([(INF, INF, INF)])
    chart = wd._chart(surface.array(), P)
    assert chart.fail[0]
    T = wd._seed_chart_tangents(P, chart)[1:]  # -0 / 0 for the solved axis
    assert np.isnan(T).any()


def test_frame_in_chart_zero_image_row():
    surface = wd.random_surface(1)
    P = _point_at_infinity(surface)
    chart = wd._chart(surface.array(), P)
    Q = np.zeros_like(P)
    S = np.concatenate([Q[None], np.ones((2, *Q.shape), dtype=complex)])
    J = wd._frame_in_chart(S, chart)  # 0 / 0
    assert np.isnan(J).all()


def test_return_displacement_of_a_subnormal_representative():
    """A lane whose z row is a subnormal representative of a point within
    sqrt(eps) of (1:0): sigma_3 takes (-C:B) there, which does not read the
    row, so the image is finite without a warning; but the displacement's
    own normalisation of P overflows the row to inf, and the cross product
    with the image's row then meets inf - inf."""
    surface = wd.random_surface(1)
    p = wd.random_surface_point(surface, np.random.default_rng(0))
    P = wd._pack_points([(p.x, p.y, p.z)])
    P[0, 2] = (1e-309, 3e-318 + 2e-318j)
    assert wd._finite_lanes(wd._plain_chain(surface.array(), P, wd.FORWARD_AXES)).all()
    d = wd._return_displacement(surface.array(), P, 1)
    assert np.isnan(d).all()


def test_newton_lanes_with_a_zero_component():
    """v = 0 on a free axis: the Newton step forms u / v on the branch it
    does not take."""
    surface = wd.random_surface(1)
    P = _point_at_infinity(surface)
    stab = np.eye(2, dtype=complex)[None]
    found = wd._newton_lanes(surface.array(), 2, P, stab)
    assert found.shape[1:] == (3, 2)


def test_eigenpair_overflowing_discriminant():
    big, small = wd._eigenpair(np.array([1e200]), np.array([1.0]))  # t * t overflows
    assert np.isinf(big).all() and np.isinf(small).all()
