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


def _kernel_choices(A, B, C, axis, P):
    """The choices _swap_root makes on the value lanes P (n, 3, 2) with
    their fiber quadratics (A, B, C), each (n,): the lane kernel's rules on
    its arithmetic, as a mask of lanes per named branch."""
    u, v = P[:, axis, 0], P[:, axis, 1]
    cscale = np.maximum(np.maximum(abs(A), abs(B)), abs(C))
    scale = np.maximum(cscale, 1e-300)
    with np.errstate(all="ignore"):
        forms = ((-(B * v) - A * u, A * v), (C * v, A * u))
        res, vanish = [], np.zeros(len(P), dtype=bool)
        for cu, cv in forms:
            inv = 1.0 / np.where(abs(cu) >= abs(cv), cu, cv)
            nu, nv = cu * inv, cv * inv
            gone = np.maximum(abs(cu), abs(cv)) <= 1e-13 * scale
            res.append(np.where(gone, np.inf, abs(A * nu * nu + B * nu * nv + C * nv * nv)))
            vanish |= gone
        at_inf = abs(v) <= wd._SQRT_EPS * abs(u)
        prod = res[1] < res[0]
        cu = np.where(at_inf, -C, np.where(prod, forms[1][0], forms[0][0]))
        cv = np.where(at_inf, B, np.where(prod, forms[1][1], forms[0][1]))
        u_denom = abs(cu) >= abs(cv)
        inv = 1.0 / np.where(u_denom, cu, cv)
        nu, nv = cu * inv, cv * inv
        pick_u = abs(nu) >= abs(nv)
        x, lead = np.where(pick_u, nv, nu), np.where(pick_u, C, A)
        polish = abs(2.0 * (lead * x) + B) > 1e-8 * scale
    return {
        "(-C:B)": at_inf,
        "sum form": ~at_inf & ~prod,
        "product form": ~at_inf & prod,
        "a Vieta form vanishes": ~at_inf & vanish,
        "u denominator": u_denom,
        "v denominator": ~u_denom,
        "u chart": pick_u,
        "v chart": ~pick_u,
        "polish": polish,
        "no polish": ~polish,
        "degenerate fiber": cscale <= wd.DEGENERATE_FIBER_TOL,
        "non-finite lane": ~wd._finite_lanes(P),
    }


def _vieta_choice(carr, axis, P):
    """Which root formula the kernel takes on each lane: 0 and 1 for the sum
    and product forms of Vieta, whichever has the smaller fiber residual
    once max-normalized, and 2 for (-C:B) on inputs within sqrt(eps) of
    (1:0)."""
    A, B, C = wd._fiber_coeffs(carr, axis, P[None])[:, 0]
    choices = _kernel_choices(A, B, C, axis, P)
    return np.where(choices["(-C:B)"], 2, choices["product form"].astype(int))


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


# ---------------------------------------------------------------------------
# the one-lane body


def _one_lane_surfaces():
    from test_cayley_cubic import cayley_surface
    from test_kummer_control import kummer_surface

    for seed in (1, 7, 13):
        for real in (False, True):
            yield wd.random_surface(seed, real_coeffs=real)
    yield kummer_surface()
    yield cayley_surface()


def _forced_lanes(carr, axis):
    """Value lanes (n, 3, 2) and their quadratics A, B, C, each (n,).

    First, lanes of fiber quadratics whose swapped axis sits at (1:0), at
    |v| just on either side of _SQRT_EPS |u|, at |u| = |v|, or holds NaN or
    inf, and one lane with a non-finite row off the axis.  Then lanes of
    chosen quadratics:
    - a vanishing fiber, and one of modulus below DEGENERATE_FIBER_TOL;
    - the double roots (1:1) of (u - v)^2 and (0:1) of u^2, where the
      polish derivative vanishes;
    - inputs whose other roots tie |u| = |v|: (1:-1) of u^2 - v^2 and
      (1:i) of (v - iu)(v + u);
    - A u^2 at (1:0), whose (-C:B) is (0:0), and a NaN A at (1:0), where
      the polish guard reads a NaN scale;
    - a root of 1e-14 u^2 + 1e-14 uv + v^2, where the product form
      vanishes against the scale but has the smaller residual.
    """
    with np.errstate(all="ignore"):
        base = wd._seed_points(carr, np.random.default_rng(17), 1)[0]
    above = np.nextafter(wd._SQRT_EPS, 1.0)
    rows = [
        (1, 0), (1, wd._SQRT_EPS), (1, above), (-1j, wd._SQRT_EPS * 1j), (1j, above * 1j),
        (wd._SQRT_EPS, 1), (1, 1), (1, 1j), (-1j, 1), (np.nan, 1), (1, np.inf), (np.inf, 0),
    ]
    P = np.repeat(base[None], len(rows) + 1, axis=0)
    P[: len(rows), axis] = rows
    P[-1, (axis + 1) % 3] = (np.nan, np.inf)  # a non-finite row off the axis
    with np.errstate(all="ignore"):
        A, B, C = wd._fiber_coeffs(carr, axis, P[None])[:, 0]
    chosen = [
        ((0, 0, 0), (1, 1)), ((1e-15, 0, 2e-15j), (1, 1)),
        ((1, -2, 1), (1, 1)), ((1, 0, 0), (0, 1)), ((1, 0, -1), (1, 1)), ((1, 0, 0), (1, 0)),
        ((-1j, 1 - 1j, 1), (1, -1)), ((np.nan, 1, 2), (1, 0)),
    ]
    small = np.array([[1e-14], [1e-14], [1]], dtype=complex)
    root = wd._normalize_pair_arrays(*wd._solve_quadratic(*small)[0])
    chosen.append((small[:, 0], np.concatenate(root)))
    Q = np.repeat(base[None], len(chosen), axis=0)
    Q[:, axis] = [row for _, row in chosen]
    coeffs = np.array([abc for abc, _ in chosen], dtype=complex).T
    return np.concatenate([P, Q]), *(np.concatenate([X, Y]) for X, Y in zip((A, B, C), coeffs))


def test_one_lane_body_matches_the_lane_kernel_bitwise():
    """_swap_root on one value lane against the lane kernel on the same lane
    in a two-lane stack: random lanes of surfaces 1, 7 and 13, complex and
    real, of the Kummer control and of the Cayley cubic, then forced lanes,
    on every axis.  Random lanes never reach (1:0), a vanishing form, a
    skipped polish or a degenerate fiber; with the forced lanes, every
    branch of the one-lane body is taken."""
    hit = set()
    for surface in _one_lane_surfaces():
        carr = surface.array()
        with np.errstate(all="ignore"):
            rand = wd._seed_points(carr, np.random.default_rng(23), 48)
        for axis in range(3):
            with np.errstate(all="ignore"):
                coeffs = wd._fiber_coeffs(carr, axis, rand[None])[:, 0]
            forced = _forced_lanes(carr, axis)
            for P, A, B, C in ((rand, *coeffs), forced):
                choices = _kernel_choices(A, B, C, axis, P)
                hit |= {name for name, lanes in choices.items() if lanes.any()}
                for i in range(len(P)):
                    j = [i, (i + 1) % len(P)]
                    one = wd._swap_root(A[None, i:i + 1], B[None, i:i + 1], C[None, i:i + 1],
                                        axis, P[None, i:i + 1])
                    two = wd._swap_root(A[None, j], B[None, j], C[None, j], axis, P[None, j])
                    assert one.tobytes() == two[:, :1].tobytes()
    assert hit == set(choices)
