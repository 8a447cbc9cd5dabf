"""One involution kernel for value lanes and jet lanes.

_apply_chain carries no tangents on a value stack P[None]; the values it
returns then must be the bits that a stack with tangent rows carries in
S[0], because the census replays points on value lanes that Newton found
on jet lanes.  _pushed_frame is the batched step derivative behind
tangent_map.
"""

import numpy as np
import pytest

from kummerlab import wehler_dynamics as wd
from kummerlab.errors import ChartFailureError, IndeterminatePointError
from test_shared_helpers import _lanes
from test_wehler_dynamics import _forced_node_surface, _zeroed_corner_surface


def _branch_surface():
    """Random surface with A = 0 on every fiber through (1:0)^3 and a
    z-fiber A u^2 (double root (0:1)) over x = y = (0:1)."""
    arr = wd.random_surface(5).array()
    arr[2, 2, 2] = 0.0
    arr[0, 0, 0] = arr[0, 0, 1] = 0.0
    return wd.WehlerSurface.from_array(arr)


def _branch_lanes(surface, count):
    """count lanes of _lanes, then on-surface lanes, then the two corner
    lanes (1:0)^3 and (0:1)^3, which lie on _branch_surface."""
    carr = surface.array()
    with np.errstate(all="ignore"):
        on = wd._seed_points(carr, np.random.default_rng(31), 64)
    corners = np.array([[(1.0, 0.0)] * 3, [(0.0, 1.0)] * 3], dtype=complex)
    return np.concatenate([_lanes(5, count, nan_every=5), on, corners])


def _tangents(P):
    rng = np.random.default_rng(8)
    return rng.normal(size=(2,) + P.shape) + 1j * rng.normal(size=(2,) + P.shape)


def _vieta_choice(carr, axis, P):
    """Which root formula the kernel takes on each lane: 0 and 1 for the sum
    and product forms of Vieta, whichever has the smaller fiber residual
    once max-normalized, and 2 for (-C:B) on inputs within sqrt(eps) of
    (1:0).  The same rule as _swap_root, written with plain division."""
    A, B, C = wd._fiber_coeffs(carr, axis, P[None])[:, 0]
    u, v = P[:, axis, 0], P[:, axis, 1]
    scale = np.maximum(np.maximum(np.maximum(abs(A), abs(B)), abs(C)), 1e-300)
    res = []
    with np.errstate(all="ignore"):
        for cu, cv in ((-(B * v) - A * u, A * v), (C * v, A * u)):
            d = np.where(abs(cu) >= abs(cv), cu, cv)
            nu, nv = cu / d, cv / d
            r = abs(A * nu * nu + B * nu * nv + C * nv * nv)
            res.append(np.where(np.maximum(abs(cu), abs(cv)) <= 1e-13 * scale, np.inf, r))
    at_inf = abs(v) <= np.sqrt(np.finfo(float).eps) * abs(u)
    return np.where(at_inf, 2, (res[1] < res[0]).astype(int))


def test_branch_lanes_reach_every_branch_of_the_involution():
    surface = _branch_surface()
    carr = surface.array()
    P = _branch_lanes(surface, 1)
    corner, double = len(P) - 2, len(P) - 1
    assert wd._residuals(carr, P[-2:]).max() == 0.0
    for axis in range(3):
        A, B, C = wd._fiber_coeffs(carr, axis, P[None])[:, 0]
        # A = 0 at (1:0), so both Vieta forms vanish and (-C:B) is taken
        assert A[corner] == 0 and abs(B[corner]) > 0.1
        Q = wd._plain_chain(carr, P, (axis,))
        assert abs(Q[corner, axis, 1]) > 0.01
        # the polish ran in the v-chart on some lanes and in the u-chart on others
        pick_u = np.abs(Q[1:-2, axis, 0]) >= np.abs(Q[1:-2, axis, 1])
        assert pick_u.any() and not pick_u.all()
    # z-fiber A u^2 over (0:1)^2: the double root (0:1) comes back, with the
    # u-chart polish skipped (it would divide 0 by 0 there)
    A, B, C = wd._fiber_coeffs(carr, 2, P[None])[:, 0]
    assert B[double] == C[double] == 0 and A[double] != 0
    z = wd._plain_chain(carr, P, (2,))[double, 2]
    assert z[0] == 0 and abs(z[1] - 1) < 1e-15
    # jet lanes, with 64 off-surface lanes more: on every root formula and
    # in both charts of the polish the tangent is the derivative of the
    # value map, by central differences on the lanes whose formula and
    # chart do not change within +-h.  (-C:B) is taken only at (1:0), so
    # on each axis the first 8 off-surface lanes are moved there too, and
    # every lane at (1:0) gets tangents with no v-component on the axis.
    h = 1e-6
    for axis in range(3):
        P = _branch_lanes(surface, 64)
        T = _tangents(P)
        corner, double = len(P) - 2, len(P) - 1
        P[:8, axis] = (1.0, 0.0)
        T[:, P[:, axis, 1] == 0, axis, 1] = 0.0
        choice = _vieta_choice(carr, axis, P)
        assert choice[corner] == 2
        S = wd._apply_chain(carr, np.concatenate([P[None], T]), (axis,))
        Q, TQ = S[0], S[1:]
        pick_u = np.abs(Q[:, axis, 0]) >= np.abs(Q[:, axis, 1])
        with np.errstate(all="ignore"):
            plus, minus = P + h * T[0], P - h * T[0]
            Qp, Qm = wd._plain_chain(carr, plus, (axis,)), wd._plain_chain(carr, minus, (axis,))
            stable = wd._finite_lanes(Qp) & wd._finite_lanes(Qm) & wd._finite_lanes(Q)
            for X, Y in ((plus, Qp), (minus, Qm)):
                stable &= _vieta_choice(carr, axis, X) == choice
                stable &= (np.abs(Y[:, axis, 0]) >= np.abs(Y[:, axis, 1])) == pick_u
        stable[double] = False  # the fiber map is not smooth at a double root
        fd = (Qp[:, axis] - Qm[:, axis]) / (2 * h)
        jet = TQ[0][:, axis]
        err = np.abs(fd - jet).max(axis=1) / (1 + np.abs(jet).max(axis=1))
        assert err[stable].max() < 1e-5
        assert set(choice[stable]) == {0, 1, 2}
        assert stable[corner] and (choice[stable] == 2).sum() > 4
        assert pick_u[stable].any() and not pick_u[stable].all()
        assert np.isfinite(TQ[:, corner]).all()
    z = wd._apply_chain(carr, np.concatenate([P[None], T]), (2,))[0][double, 2]
    assert z[0] == 0 and abs(z[1] - 1) < 1e-15


def test_sigma_at_infinity_with_a_small_leading_coefficient():
    """An input exactly (1:0) on a z-fiber with A = 1e-12 * scale, which is
    on the surface.  Its other root is (-C:B) up to O(A).  The sum form is
    the input itself there, so a rule that took (-C:B) only where both Vieta
    forms vanish would keep the input."""
    arr = wd.random_surface(5).array()
    arr[2, 2, 2] = 1e-12 * np.abs(arr[2, 2]).max()
    surface = wd.WehlerSurface.from_array(arr)
    inf = wd.P1Point(1.0, 0.0)
    q = wd.sigma(surface, wd.Axis.Z, wd.make_surface_point(surface, inf, inf, inf))
    want = wd.P1Point.make(-arr[2, 2, 0], arr[2, 2, 1])
    assert abs(q.z.u * want.v - q.z.v * want.u) <= 1e-11
    assert abs(q.z.v) > 0.5


def test_solve_quadratic_double_root_at_infinity():
    """A = B = 0: the fiber C v^2 has the double root (1:0)."""
    zero = np.zeros(1, dtype=complex)
    (r1u, r1v), (r2u, r2v) = wd._solve_quadratic(zero, zero, zero + (0.3 + 0.2j))
    assert r1v == r2v == 0 and abs(r1u) > 0 and abs(r2u) > 0


@pytest.mark.parametrize("count", [1, 256])
def test_value_lanes_match_jet_values_bitwise(count):
    surface = _branch_surface()
    carr = surface.array()
    P = _branch_lanes(surface, count)
    for T in (np.zeros((1,) + P.shape, dtype=complex), _tangents(P)):
        S = np.concatenate([P[None], T])
        for axes in ((0,), (1,), (2,), wd.FORWARD_AXES, wd.INVERSE_AXES, wd.FORWARD_AXES * 3):
            values = wd._apply_chain(carr, P[None], axes)[0]
            jets = wd._apply_chain(carr, S, axes)[0]
            assert values.tobytes() == jets.tobytes()
            assert wd._plain_chain(carr, P, axes).tobytes() == values.tobytes()
    assert np.isnan(P).any() and np.isnan(values).any()


@pytest.mark.parametrize("axes", [wd.FORWARD_AXES, wd.INVERSE_AXES])
def test_step_jacobian_equals_per_lane_tangent_map_bitwise(axes):
    surface = wd.random_surface(7)
    p = wd.random_surface_point(surface, np.random.default_rng(4))
    pts, _ = wd.orbit(surface, p, 255)
    P = wd._pack_points([(q.x, q.y, q.z) for q in pts])
    src, S = wd._pushed_frame(surface.array(), P, axes)
    Q = S[0]
    img = wd._chart(surface.array(), Q)
    J = wd._frame_in_chart(S, img)
    src_fail, dead, img_fail = src.fail, ~wd._finite_lanes(Q), img.fail
    assert J.shape == (256, 2, 2)
    assert not (src_fail.any() or dead.any() or img_fail.any())
    for i, q in enumerate(pts):
        assert J[i].tobytes() == wd.tangent_map(surface, q, axes=axes).tobytes()
    assert Q.tobytes() == wd._plain_chain(surface.array(), P, axes).tobytes()


def test_tangent_map_errors_are_unchanged():
    surface = _forced_node_surface()
    inf = wd.P1Point(1.0, 0.0)
    node = wd.make_surface_point(surface, inf, inf, inf)
    with pytest.raises(ChartFailureError, match="all three fiber gradients are below 1e-10"):
        wd.tangent_map(surface, node)
    surface = _zeroed_corner_surface()
    p = wd.make_surface_point(surface, inf, inf, wd.P1Point.make(1.0, 0.3 + 0.1j))
    for axes in ((2,), wd.FORWARD_AXES):
        with pytest.raises(IndeterminatePointError, match="chain hit a degenerate fiber") as info:
            wd.tangent_map(surface, p, axes=axes)
        assert info.value.stage == 0
    # the batched flags say the same per lane
    P = wd._pack_points([(p.x, p.y, p.z), (inf, inf, inf)])
    src, S = wd._pushed_frame(surface.array(), P, (2,))
    Q = S[0]
    img = wd._chart(surface.array(), Q)
    src_fail, dead, img_fail = src.fail, ~wd._finite_lanes(Q), img.fail
    assert dead.tolist() == [True, True] and not img_fail.any()
