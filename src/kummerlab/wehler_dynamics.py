"""Numerical dynamics on smooth (2,2,2) surfaces in P1 x P1 x P1.

Each coordinate projection forgetting one factor is a double cover, so each
axis carries an involution that swaps the two sheets; their composition
f = sigma_1 o sigma_2 o sigma_3 (sigma_3 applied first) is an automorphism
of positive entropy.  The engine below works on batches of points in
homogeneous coordinates with their tangents stacked on the values, so
derivatives flow through the exact root-swap formulas rather than finite
differences.

State layout: one lane stack S with shape (1 + d, n, 3, 2) over complex128
(row, lane, axis, homogeneous component).  S[0] holds the points and S[1:]
d directional derivatives: d = 0 for value lanes, 2 for the Newton frame
and 3 for the singularity probe.  One kernel serves every d: a product or a
quotient of stacks takes values and tangents together by the product and
quotient rules, and a lane mask or a plain coefficient covers all rows in
one call, so a value row has the same bits whatever d is.  Points alone
travel as P = S[0] with shape (n, 3, 2).  The scalar functions are
one-lane calls of the same kernel, except that a single lane's fiber
quadratic is one contraction and the root swap on a single value lane runs
its own body: there each per-lane np.where of the kernel becomes a Python
branch on the same comparison and each round of products one numpy call,
with the same bits.  Dead lanes are marked with NaN and dropped at
collection time.

The periodic-point search draws its seed lanes chunk by chunk, each chunk
with its own random stream and Newton stabilizer, steps them with the
damped Newton map and collects the survivors.  A lane's bits do not depend
on the lanes stepped with it, so workers take contiguous lane slices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ChartFailureError,
    DegenerateFiberError,
    DegenerateRadiiError,
    IndeterminatePointError,
    InsufficientSamplesError,
    InternalInvariantError,
    OffSurfaceError,
    PreconditionError,
    TooFewSaddlesError,
)
from .lattice_algebra import dynamical_degree, wehler_cohomology_action
from .torus_kummer import (
    DIMENSION_PROBES,
    DIMENSION_RADII,
    HAAR_SAMPLES,
    QR_STEPS,
    LyapunovMethod,
    LyapunovReport,
    TorusAutomorphism,
    TorusPoint,
    fix_count,
    haar_dimension,
    half_log_h2_degree,
    local_dimension_estimate,
    lyapunov_exact,
    lyapunov_qr_orbit,
    mean_stderr,
)

MEMBERSHIP_TOL = 1e-10
NEWTON_ACCEPT_TOL = 1e-11
DEDUP_TOL = 1e-7
TWO_FORM_TOL = 1e-8
CHART_FAIL_TOL = 1e-10
DEGENERATE_FIBER_TOL = 1e-14
NEWTON_STEP_CAP = 0.3
PERIOD_CAP = 8
SEED_CHUNK = 256
NEWTON_MAX_ITER = 60
_SOLVED_LAST = ((1, 2, 0), (0, 2, 1), (0, 1, 2))  # coefficient axes, solved axis last
# one-lane _fiber_coeffs: per solved axis, the entries of a flat lane row that
# give (v, u, u) (v, v, u) = (v^2, uv, u^2) of each other axis, and the nine terms
_MONO_IDX = np.array([[[2 * a + i for a in order[:2] for i in half]
                       for half in ((1, 0, 0), (1, 1, 0))] for order in _SOLVED_LAST])
_PAIRS = np.array([np.arange(9) // 3, np.arange(9) % 3 + 3])


class Axis(Enum):
    X = 0
    Y = 1
    Z = 2


class OrbitType(Enum):
    SADDLE = "SADDLE"
    NONSADDLE = "NONSADDLE"


class RigidityVerdict(Enum):
    KUMMER_CONSISTENT = "KUMMER_CONSISTENT"
    RIGIDITY_GAP = "RIGIDITY_GAP"
    INCONCLUSIVE = "INCONCLUSIVE"


# ---------------------------------------------------------------------------
# points and surfaces


@dataclass(frozen=True)
class P1Point:
    """Projective line point, normalized so the larger component is 1."""

    u: complex
    v: complex

    @classmethod
    def make(cls, u: complex, v: complex) -> "P1Point":
        u, v = complex(u), complex(v)
        au, av = abs(u), abs(v)
        if not (au < math.inf and av < math.inf):
            raise PreconditionError("projective point has a non-finite coordinate")
        if au == 0 and av == 0:
            raise PreconditionError("(0, 0) is not a projective point")
        w = u if au >= av else v
        return cls(u / w, v / w)

    def chordal(self, other: "P1Point") -> float:
        return abs(self.u * other.v - other.u * self.v)


def _top_modulus(arr) -> float:
    """The largest modulus in a coefficient array that is finite and not
    identically zero; any other is refused."""
    if not np.isfinite(arr).all():
        raise PreconditionError("coefficient tensor has a non-finite entry")
    top = np.abs(arr).max() if arr.size else 0.0
    if top == 0:
        raise PreconditionError("coefficient tensor is identically zero")
    return top


@dataclass(frozen=True)
class WehlerSurface:
    """Tridegree (2,2,2) form: coeffs[i][j][k] multiplies
    u_x^i v_x^(2-i) u_y^j v_y^(2-j) u_z^k v_z^(2-k)."""

    coeffs: tuple

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        if arr.shape != (3, 3, 3):
            raise PreconditionError("expected a 3x3x3 coefficient tensor")
        if not (abs(_top_modulus(arr) - 1.0) <= 1e-12):
            raise PreconditionError("coefficients must be max-modulus normalized")

    @classmethod
    def from_array(cls, arr) -> "WehlerSurface":
        arr = np.array(arr, dtype=complex)
        arr = arr / _top_modulus(arr)
        return cls(tuple(tuple(tuple(x for x in row) for row in plane) for plane in arr))

    def array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=complex)


@dataclass(frozen=True)
class SurfacePoint:
    x: P1Point
    y: P1Point
    z: P1Point
    residual: float

    def chordal(self, other: "SurfacePoint") -> float:
        return max(
            self.x.chordal(other.x),
            self.y.chordal(other.y),
            self.z.chordal(other.z),
        )


@dataclass(frozen=True)
class SaddleOrbit:
    period: int
    point: object
    multipliers: tuple[complex, complex]
    type: OrbitType


@dataclass(frozen=True)
class Suspect:
    """Candidate singular point found by the advisory probe."""

    point: SurfacePoint
    grad_max: float


def random_surface(seed: int, real_coeffs: bool = False) -> WehlerSurface:
    """Coefficients i.i.d. uniform on the unit disk (or [-1, 1] when real),
    then max-modulus normalized; bit-deterministic in the seed."""
    rng = np.random.default_rng(seed)
    if real_coeffs:
        arr = rng.uniform(-1.0, 1.0, (3, 3, 3)).astype(complex)
    else:
        radius = np.sqrt(rng.random((3, 3, 3)))
        angle = 2 * np.pi * rng.random((3, 3, 3))
        arr = radius * np.exp(1j * angle)
    return WehlerSurface.from_array(arr)


def surface_residual(surface: WehlerSurface, x: P1Point, y: P1Point, z: P1Point) -> float:
    p = _pack_points([(x, y, z)])
    return float(_residuals(surface.array(), p)[0])


def make_surface_point(
    surface: WehlerSurface,
    x: P1Point,
    y: P1Point,
    z: P1Point,
    tol: float = MEMBERSHIP_TOL,
) -> SurfacePoint:
    res = surface_residual(surface, x, y, z)
    if res > tol:
        raise OffSurfaceError(f"residual {res:.3e} exceeds membership tolerance {tol:.1e}")
    return SurfacePoint(x, y, z, res)


# ---------------------------------------------------------------------------
# stacked lanes and the fiber algebra


def _mul(S, O):
    """The product of two lane stacks: values S[0] O[0], tangents by the
    product rule as S' O[0] + S[0] O'.  The operand order fixes the bits
    (numpy's complex multiply may use FMA, so O * S can round differently),
    and so do the ranks: O[:1], not O[0], since numpy rounds a (1, 1) by
    (1,) product without FMA."""
    if len(O) == 1:
        return S * O
    out = S * O[:1]
    out[1:] += S[:1] * O[1:]
    return out


def _div(S, O):
    """The quotient of two lane stacks through inv = 1 / O[0] (S[0] / O[0]
    would round differently): value S[0] inv, tangents (S' - value O') inv."""
    inv = 1.0 / O[:1]
    out = S * inv
    if len(O) > 1:
        out[1:] = (S[1:] - out[:1] * O[1:]) * inv
    return out


def _fiber_coeffs(carr, axis, S, mono=None):
    """Quadratic F = A u^2 + B uv + C v^2 in the chosen axis at the lanes of
    S, as one (3, 1 + d, n) stack A, B, C with the tangents of S.

    The stack runs over the solved exponent (2, 1, 0): per monomial pair
    (a, b), one multiply by cm[a, b] and one add.  The sum keeps (a, b)
    order and each term is prod * c, which fixes the bits.  mono maps an
    axis to its monomials (v^2, uv, u^2) at S; the call adds those of the
    two axes it uses, so a chain can keep the ones its next step needs.

    One lane (n = 1) is one contraction with the same bits, and leaves mono
    alone: both axes' monomials in one multiply, the nine monomial products
    in one, the coefficient products in one (9, 1) by (9, 3) broadcast, and
    the (a, b)-ordered sum as the last row of np.add.accumulate, which adds
    left to right (np.add.reduce sums pairwise, with other bits).  See
    _swap_root_one_lane for why longer arrays round as (1, 1) ones do.
    """
    order = _SOLVED_LAST[axis]
    if S.shape[1] == 1:
        g = S[:, 0].reshape(len(S), 6).take(_MONO_IDX[axis], axis=1)
        m = _mul(g[:, 0], g[:, 1]).take(_PAIRS, axis=1)
        terms = _mul(m[:, 0], m[:, 1]).T[:, :, None]
        terms = terms * carr.transpose(order)[:, :, ::-1].reshape(9, 1, 3)
        return np.add.accumulate(terms)[-1].T[:, :, None]
    mono = {} if mono is None else mono
    for ax in order[:2]:
        if ax not in mono:
            u, v = S[:, :, ax, 0], S[:, :, ax, 1]
            mono[ax] = (_mul(v, v), _mul(u, v), _mul(u, u))
    m0, m1 = mono[order[0]], mono[order[1]]
    cm = carr.transpose(order)[:, :, ::-1, None, None]
    acc = _mul(m0[0], m1[0]) * cm[0, 0]
    for a in range(3):
        for b in range(3):
            if a or b:
                acc += _mul(m0[a], m1[b]) * cm[a, b]
    return acc


def _pack_points(points) -> np.ndarray:
    out = np.empty((len(points), 3, 2), dtype=complex)
    for i, (x, y, z) in enumerate(points):
        out[i, 0] = (x.u, x.v)
        out[i, 1] = (y.u, y.v)
        out[i, 2] = (z.u, z.v)
    return out


def _finite_lanes(P) -> np.ndarray:
    """True for each lane of a (n, 3, 2) array whose entries are all finite."""
    return np.isfinite(P).all(axis=(1, 2))


def _residuals(carr, P) -> np.ndarray:
    """|F| at each lane of P from its z-fiber quadratic."""
    A, B, C = _fiber_coeffs(carr, 2, P[None])[:, 0]
    u, v = P[:, 2, 0], P[:, 2, 1]
    return np.abs(A * u * u + B * u * v + C * v * v)


def _solve_quadratic(A, B, C):
    """Both homogeneous roots of A u^2 + B uv + C v^2, numerically stable.

    The Vieta pair (qq : A), (C : qq), with qq = -(B +- sqrt(B^2 - 4AC))/2
    taking the sign that avoids cancellation, needs no special cases: it
    tends to (1:0) and (-C:B) as A -> 0 and to (0:1) as B, C -> 0, and is
    then more accurate than those limits.  A root that vanishes (a double
    root, A = B = 0 or B = C = 0) takes the other.  Returns ((u1, v1),
    (u2, v2)) arrays; lanes with A ~ B ~ C ~ 0 come back as NaN.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    C = np.asarray(C, dtype=complex)
    scale = np.maximum(np.maximum(np.abs(A), np.abs(B)), np.abs(C))
    degenerate = scale <= DEGENERATE_FIBER_TOL
    with np.errstate(all="ignore"):
        sq = np.sqrt(B * B - 4 * A * C)
        plus = B + sq
        minus = B - sq
        qq = -np.where(np.abs(plus) >= np.abs(minus), plus, minus) / 2
        bad1 = np.maximum(np.abs(qq), np.abs(A)) <= 1e-14 * scale
        bad2 = np.maximum(np.abs(C), np.abs(qq)) <= 1e-14 * scale
        r1u, r1v = np.where(bad1, C, qq), np.where(bad1, qq, A)
        r2u, r2v = np.where(bad2, qq, C), np.where(bad2, A, qq)
    for arr in (r1u, r1v, r2u, r2v):
        arr[degenerate] = np.nan
    return (r1u, r1v), (r2u, r2v)


def _normalize_pair_arrays(u, v):
    pick_u = np.abs(u) >= np.abs(v)
    w = np.where(pick_u, u, v)
    with np.errstate(all="ignore"):
        return u / w, v / w


# ---------------------------------------------------------------------------
# the involutions

# sqrt(ulp) = np.sqrt(np.finfo(float).eps), exactly: the swapped axis is
# taken at (1:0) when |v| <= _SQRT_EPS |u|
_SQRT_EPS = 2.0**-26


def _swap_root(A, B, C, axis, S):
    """Swap the axis coordinate to the other root of its fiber quadratic
    A u^2 + B uv + C v^2 (the axis's _fiber_coeffs at S), on a copy of the
    lane stack S.

    The other root of an input (u:v) comes from Vieta: the sum form
    (-Bv - Au : Av) or the product form (Cv : Au), whichever has the smaller
    fiber residual once max-normalized (a form that vanishes against the
    scale is out).  Neither can return the input root.  The one exception
    is an input near (1:0): with e = |v/u|, A ~ -Be on the fiber, so the sum
    form is e^2 (C : -B) under rounding of size ulp * scale and the product
    form's A carries a relative error ulp / e, while (-C:B), the other root
    at (1:0) itself, is off by O(e).  So (-C:B) is the most accurate exactly
    when e <= sqrt(ulp), and it is taken there; elsewhere it is often the
    input root.  Only the chosen candidate is normalized with its tangents.
    A single guarded Newton step on the smaller affine coordinate squares
    the remaining error.  Lanes with a degenerate fiber become NaN.
    """
    one = S.shape[:2] == (1, 1)
    return (_swap_root_one_lane if one else _swap_root_lanes)(A, B, C, axis, S)


def _swap_root_lanes(A, B, C, axis, S):
    """The lane kernel of _swap_root: every lane, value or jet, through one
    call per operation, each choice an np.where."""
    u, v = S[:, :, axis, 0], S[:, :, axis, 1]
    cscale = np.maximum(np.maximum(np.abs(A[0]), np.abs(B[0])), np.abs(C[0]))
    scale = np.maximum(cscale, 1e-300)
    with np.errstate(all="ignore"):
        Au = _mul(A, u)
        (su, sv), (pu, pv) = (-_mul(B, v) - Au, _mul(A, v)), (_mul(C, v), Au)
        cu, cv = np.array([su[0], pu[0]]), np.array([sv[0], pv[0]])
        au, av = np.abs(cu), np.abs(cv)
        inv = 1.0 / np.where(au >= av, cu, cv)
        nu, nv = cu * inv, cv * inv
        r = np.abs(A[0] * nu * nu + B[0] * nu * nv + C[0] * nv * nv)
        r = np.where(np.maximum(au, av) <= 1e-13 * scale, np.inf, r)
        prod = r[1] < r[0]
        at_inf = np.abs(v[0]) <= _SQRT_EPS * np.abs(u[0])
        cu = np.where(at_inf, -C, np.where(prod, pu, su))
        cv = np.where(at_inf, B, np.where(prod, pv, sv))
        denom = np.where(np.abs(cu[0]) >= np.abs(cv[0]), cu, cv)
        nu, nv = _div(cu, denom), _div(cv, denom)
        # one Newton step on the affine fiber equation in the smaller
        # coordinate x, skipped where the derivative is tiny (double roots
        # are already exact); the sums keep their association per chart,
        # (A + B x) + C x^2 for x = v/u and (A x^2 + B x) + C for x = u/v
        pick_u = np.abs(nu[0]) >= np.abs(nv[0])
        x = np.where(pick_u, nv, nu)
        lead = np.where(pick_u, C, A)  # the x^2 coefficient
        lead_xx = _mul(lead, _mul(x, x))
        g = (_mul(B, x) + np.where(pick_u, A, lead_xx)) + np.where(pick_u, lead_xx, C)
        gp = 2.0 * _mul(lead, x) + B
        x = np.where(np.abs(gp[0]) > 1e-8 * scale, x - _div(g, gp), x)
        S2 = S.copy()
        S2[:, :, axis, 0] = np.where(pick_u, nu, x)
        S2[:, :, axis, 1] = np.where(pick_u, x, nv)
        S2[:, cscale <= DEGENERATE_FIBER_TOL, axis] = np.nan
    return S2


def _swap_root_one_lane(A, B, C, axis, S):
    """_swap_root on a single value lane, S of shape (1, 1, 3, 2), with the
    same bits.

    Each np.where of the lane kernel becomes a Python branch on the same
    comparison, and each round of products, quotients or moduli one numpy
    call; sums, negations and comparisons run in Python.  Measured with
    numpy 2.4 on AVX-512: numpy rounds a complex product (with FMA),
    modulus and 1.0 / x alike on (1, 1) arrays and on contiguous arrays of
    any length, while Python's complex *, abs and division, and numpy's *
    on complex scalars, round otherwise.  A lane with a non-finite input
    takes the lane kernel: a sum of two NaNs can keep other bits in Python
    than in numpy, and Python's max drops a NaN.  The taken candidate's
    normalised pair is the kernel's.
    """
    a, b, c = A.item(), B.item(), C.item()
    u, v = S[0, 0, axis].tolist()
    ma, mb, mc, mu, mv = np.abs([a, b, c, u, v]).tolist()
    if not math.isfinite(ma + mb + mc + mu + mv):
        return _swap_root_lanes(A, B, C, axis, S)
    S2 = S.copy()
    scale = max(ma, mb, mc)
    if scale <= DEGENERATE_FIBER_TOL:
        S2[:, :, axis] = np.nan
        return S2
    with np.errstate(all="ignore"):
        if mv <= _SQRT_EPS * mu:  # (-C:B)
            flat = [-c, b]
        else:  # the sum form (-Bv - Au : Av), then the product form (Cv : Au)
            bv, au, av, cv = np.multiply([b, a, a, c], [v, u, v, v]).tolist()
            flat = [-bv - au, av, cv, au]
        mods = np.abs(flat).tolist()
        dens = [flat[k] if mods[k] >= mods[k + 1] else flat[k + 1] for k in range(0, len(flat), 2)]
        norm = np.multiply(flat, np.divide(1.0, dens).repeat(2)).tolist()
        r = _quad_values(a, b, c, (norm[:2], norm[2:])) if len(norm) == 4 else []
        nmods = np.abs(norm + r).tolist()  # |nu|, |nv| per candidate, then |r|
        k = 0
        if r:  # the product form if it has the smaller residual and does not vanish
            tiny = 1e-13 * scale
            r0, r1 = (math.inf if mods[j] <= tiny and mods[j + 1] <= tiny else m
                      for j, m in ((0, nmods[4]), (2, nmods[5])))
            k = 2 if r1 < r0 else 0
        nu, nv = norm[k:k + 2]
        # the polish step of the lane kernel in the chart pick_u
        pick_u = nmods[k] >= nmods[k + 1]
        x, lead = (nv, c) if pick_u else (nu, a)
        xx, bx, lx = np.multiply([x, b, lead], [x, x, x]).tolist()
        lead_xx, gp = np.multiply([lead, 2.0], [xx, lx]).tolist()
        g = (bx + a) + lead_xx if pick_u else (bx + lead_xx) + c
        gp += b
        if np.abs([gp]).item() > 1e-8 * scale:
            x -= np.multiply([g], np.divide(1.0, [gp])).item()
    S2[0, 0, axis] = (nu, x) if pick_u else (x, nv)
    return S2


def _quad_values(a, b, c, pairs):
    """a u^2 + b uv + c v^2 at each (u, v) of pairs, in Python complex, with
    the arithmetic of _residuals: the sum ((a u) u + (b u) v) + (c v) v in
    Python, each round of products one numpy multiply over all pairs."""
    first = np.multiply([a, b, c] * len(pairs), [w for u, v in pairs for w in (u, u, v)])
    t = np.multiply(first, [w for u, v in pairs for w in (u, v, v)]).tolist()
    return [(t[k] + t[k + 1]) + t[k + 2] for k in range(0, len(t), 3)]


FORWARD_AXES = (2, 1, 0)
INVERSE_AXES = (0, 1, 2)


def _apply_chain(carr, S, axes):
    """The involutions of axes in order on the lane stack S; the monomials
    of the axes an involution leaves alone serve the next fiber."""
    mono = {}
    for axis in axes:
        S = _swap_root(*_fiber_coeffs(carr, axis, S, mono), axis, S)
        mono.pop(axis, None)
    return S


# ---------------------------------------------------------------------------
# public scalar operations


def solve_fiber(
    surface: WehlerSurface, axis: Axis, p: P1Point, q: P1Point
) -> list[P1Point]:
    """The two points of the fiber of the double cover over (p, q)."""
    rows = [p, q]
    rows.insert(axis.value, P1Point(1.0, 0.0))
    P = _pack_points([rows])
    A, B, C = _fiber_coeffs(surface.array(), axis.value, P[None])[:, 0]
    scale = max(abs(A[0]), abs(B[0]), abs(C[0]))
    if scale <= DEGENERATE_FIBER_TOL:
        raise DegenerateFiberError("fiber quadratic vanishes identically")
    (r1u, r1v), (r2u, r2v) = _solve_quadratic(A, B, C)
    return [P1Point.make(r1u[0], r1v[0]), P1Point.make(r2u[0], r2v[0])]


def sigma(
    surface: WehlerSurface,
    axis: Axis,
    p: SurfacePoint,
    tol: float = MEMBERSHIP_TOL,
) -> SurfacePoint:
    """The covering involution of the projection forgetting the axis."""
    return _sigma_chain(surface.array(), (axis.value,), p, tol, 1)[0]


def wehler_map(
    surface: WehlerSurface, p: SurfacePoint, tol: float = MEMBERSHIP_TOL
) -> SurfacePoint:
    """f = sigma_1 o sigma_2 o sigma_3, with sigma_3 applied first."""
    return _sigma_chain(surface.array(), FORWARD_AXES, p, tol, 1)[0]


def wehler_map_inverse(
    surface: WehlerSurface, p: SurfacePoint, tol: float = MEMBERSHIP_TOL
) -> SurfacePoint:
    return _sigma_chain(surface.array(), INVERSE_AXES, p, tol, 1)[0]


# |A u^2 + B uv + C v^2| of two fiber quadratics at one point differ by less
# than this; derived in _sigma_chain
_RESIDUAL_MARGIN = 1024 * 2.0**-52


def _sigma_chain(carr, axes, p, tol, steps):
    """The point after each of steps passes of the involutions of axes
    from p, each involution a one-lane _swap_root.  A degenerate fiber
    raises with stage i for sigma_i, and a point whose residual exceeds tol
    raises OffSurfaceError; the input is checked once, when a pass runs.

    Every intermediate point is rebuilt with P1Point.make: Python's complex
    division rounds differently from numpy's, so renormalising in numpy
    instead would change the bits of an orbit within a few steps.

    zq is None or the z-fiber quadratic of S's current x and y rows: it
    gives the point's residual, it is sigma_3's own quadratic (sigma_3
    leaves x and y alone), and after sigma_1 it is the next pass's sigma_3
    quadratic.  It goes stale when a rebuild changes the bytes of those
    rows, as sigma_1 and sigma_2 do, and as P1Point.make does to the rows
    of a point it did not build, such as the start point's.  A stale zq is
    evaluated again only where a residual is recorded (the last point of a
    pass) or sigma_3 comes next.  Any other point with a stale zq (sigma_2's
    in f, sigma_1's in f^-1, and sigma_3's in f's first pass when the start
    rows moved) is checked with the quadratic (A, B, C) of the involution
    that comes next, which that involution then uses: it passes when
    r = |A u^2 + B uv + C v^2| in that axis satisfies r + margin <= tol.
    Otherwise, a NaN r included, its z-fiber residual decides as before.

    The margin: both evaluations take the same 27-term form F at the same
    rebuilt rows.  Coefficients are max-modulus normalized (modulus at most
    1 + 1e-12) and P1Point.make leaves max(|u|, |v|) = 1 up to an ulp, so
    the monomials (v^2, uv, u^2) of a row sum in modulus to at most 3, and
    the terms of F to at most 27.  Each term takes six complex products
    (two monomials, their product, the coefficient, two residual factors),
    each good to sqrt(5) u with u = 2^-53, and ten additions (eight in the
    coefficient sum, two in the residual) and a modulus, at most twelve
    roundings of u; by Minkowski's inequality the sums' errors stay within
    u of the sum of the terms' moduli.  So either evaluation is within
    (6 sqrt(5) + 12) u * 27 < 350 eps of |F| (eps = 2u), and the two within
    700 eps.  The margin of 1024 eps, about 2.3e-13, also covers the
    rounding of r + margin, u (r + margin) < 324 eps, while r stays below
    about 600, and no r exceeds 28.  So a point passes the cheap check only
    when its z-fiber residual would pass, and points, residuals and errors
    keep their bits.
    """
    if steps and p.residual > tol:
        raise OffSurfaceError("input point fails the membership tolerance")
    S = _pack_points([(p.x, p.y, p.z)])[None]
    zq = nq = None
    last = len(axes) - 1
    out = []
    for _ in range(steps):
        for i, axis in enumerate(axes):
            if axis == 2:
                q = zq = _fiber_coeffs(carr, 2, S) if zq is None else zq
            else:
                q = _fiber_coeffs(carr, axis, S) if nq is None else nq
            nq = None
            vals = _swap_root(*q, axis, S)[0, 0].tolist()
            if not all(cmath.isfinite(w) for row in vals for w in row):
                # sigma_1 moves x (axis 0), sigma_2 y, sigma_3 z
                raise IndeterminatePointError(
                    "degenerate fiber under the involution", stage=axis + 1
                )
            rows = [P1Point.make(*row) for row in vals]
            Q = _pack_points([rows])[None]
            if zq is not None and Q[0, 0, :2].tobytes() != S[0, 0, :2].tobytes():
                zq = None
            S = Q
            if zq is None and i < last and axes[i + 1] != 2:
                nq = _fiber_coeffs(carr, axes[i + 1], S)
                A, B, C = nq[:, 0, 0].tolist()
                u, v = rows[axes[i + 1]].u, rows[axes[i + 1]].v
                if abs(A * u * u + B * u * v + C * v * v) + _RESIDUAL_MARGIN <= tol:
                    continue
            if zq is None:
                zq = _fiber_coeffs(carr, 2, S)
            res = np.abs(_quad_values(*zq[:, 0, 0].tolist(), [(rows[2].u, rows[2].v)])).item()
            if res > tol:
                raise OffSurfaceError(f"residual {res:.3e} exceeds membership tolerance {tol:.1e}")
        out.append(SurfacePoint(*rows, res))
    return out


def random_surface_point(
    surface: WehlerSurface, rng: np.random.Generator, tol: float = MEMBERSHIP_TOL
) -> SurfacePoint:
    """A random point of the surface: random (x, y), random fiber root."""
    for _ in range(100):
        vals = rng.normal(size=8) + 1j * rng.normal(size=8)
        x = P1Point.make(vals[0], vals[1])
        y = P1Point.make(vals[2], vals[3])
        try:
            roots = solve_fiber(surface, Axis.Z, x, y)
        except DegenerateFiberError:
            continue
        z = roots[int(rng.integers(0, 2))]
        try:
            return make_surface_point(surface, x, y, z, tol=tol)
        except OffSurfaceError:
            continue
    raise InternalInvariantError("could not sample a surface point in 100 tries")


def orbit(
    surface: WehlerSurface,
    p: SurfacePoint,
    n_steps: int,
    tol: float = MEMBERSHIP_TOL,
) -> tuple[list[SurfacePoint], float]:
    """Forward orbit with per-step polish; returns points and max residual."""
    if n_steps < 0:
        raise PreconditionError("orbit length must be nonnegative")
    pts = [p, *_sigma_chain(surface.array(), FORWARD_AXES, p, tol, n_steps)]
    return pts, max(q.residual for q in pts)


# ---------------------------------------------------------------------------
# charts and the tangent map


@dataclass(frozen=True)
class _Chart:
    """The affine chart at each lane of a set, decided once.

    partials holds complex dF/dw per axis, shape (3, n), in the branch pick_u
    of the lane's representative (w = v/u when |u| >= |v|, else u/v).  The
    solved axis has the largest |dF/dw| and follows the other two by the
    implicit function theorem; fail marks lanes where every |dF/dw| is below
    CHART_FAIL_TOL.  free holds the two free axes and pick_rows their
    branches, one row per free axis.
    """

    partials: np.ndarray
    pick_u: np.ndarray
    solved: np.ndarray
    fail: np.ndarray
    free: tuple[np.ndarray, np.ndarray]
    pick_rows: tuple[np.ndarray, np.ndarray]


def _chart(carr, P) -> _Chart:
    """The chart record of every lane of P."""
    n = P.shape[0]
    partials = np.empty((3, n), dtype=complex)
    pick_u = np.empty((3, n), dtype=bool)
    for axis in range(3):
        A, B, C = _fiber_coeffs(carr, axis, P[None])[:, 0]
        u, v = P[:, axis, 0], P[:, axis, 1]
        pick_u[axis] = np.abs(u) >= np.abs(v)
        partials[axis] = np.where(
            pick_u[axis],
            u * (B * u + 2 * C * v),
            v * (2 * A * u + B * v),
        )
    g = np.abs(partials)
    solved = np.argmax(g, axis=0)
    free = (np.where(solved == 0, 1, 0), np.where(solved == 2, 1, 2))
    lanes = np.arange(n)
    return _Chart(
        partials,
        pick_u,
        solved,
        np.all(g < CHART_FAIL_TOL, axis=0),
        free,
        tuple(pick_u[ax, lanes] for ax in free),
    )


def _seed_chart_tangents(P, chart):
    """The lane stack (3, n, 3, 2) of P and its chart's tangent frame: two
    directions moving one free-axis affine coordinate each, with the solved
    axis responding per the implicit function theorem."""
    n = P.shape[0]
    lanes = np.arange(n)
    solved = chart.solved
    spick = chart.pick_u[solved, lanes]
    S = np.zeros((3, n, 3, 2), dtype=complex)
    S[0] = P
    with np.errstate(all="ignore"):
        for d, (free, pick) in enumerate(zip(chart.free, chart.pick_rows), 1):
            # unit affine velocity on the free axis
            S[d, lanes, free, 1] = np.where(pick, P[lanes, free, 0], 0)
            S[d, lanes, free, 0] = np.where(pick, 0, P[lanes, free, 1])
            # implicit response of the solved axis
            dws = -chart.partials[free, lanes] / chart.partials[solved, lanes]
            S[d, lanes, solved, 1] += np.where(spick, P[lanes, solved, 0] * dws, 0)
            S[d, lanes, solved, 0] += np.where(spick, 0, P[lanes, solved, 1] * dws)
    return S


def _frame_in_chart(S, chart):
    """A pushed frame S[1:] as affine velocities of the chart's two free
    axes on their branches: a (n, 2, 2) Jacobian J[lane, out, dir]."""
    lanes = np.arange(S.shape[1])
    J = np.empty((S.shape[1], 2, 2), dtype=complex)
    with np.errstate(all="ignore"):
        for out_i, (ax, pick) in enumerate(zip(chart.free, chart.pick_rows)):
            u, v = S[0, lanes, ax, 0], S[0, lanes, ax, 1]
            du, dv = S[1:, lanes, ax, 0], S[1:, lanes, ax, 1]
            J[:, out_i, :] = np.where(
                pick[None],
                (dv * u - v * du) / (u * u),
                (du * v - u * dv) / (v * v),
            ).T
    return J


def _pushed_frame(carr, P, axes):
    """The chart at each lane of P and the lane stack of its tangent frame
    pushed along the axis chain: (chart, S) with the images in S[0].
    _frame_in_chart reads S as a 2x2 derivative in the chart of the
    caller's choice."""
    chart = _chart(carr, P)
    return chart, _apply_chain(carr, _seed_chart_tangents(P, chart), axes)


def tangent_map(
    surface: WehlerSurface,
    p: SurfacePoint,
    axes: tuple[int, ...] = FORWARD_AXES,
) -> np.ndarray:
    """2x2 complex derivative of the axis chain from the chart at p to the
    chart at the image point, by tangent propagation: a one-lane
    _pushed_frame read in the image chart."""
    carr = surface.array()
    src, S = _pushed_frame(carr, _pack_points([(p.x, p.y, p.z)]), axes)
    if src.fail[0]:
        raise ChartFailureError("all three fiber gradients are below 1e-10")
    if not _finite_lanes(S[0])[0]:
        raise IndeterminatePointError("chain hit a degenerate fiber", stage=0)
    img = _chart(carr, S[0])
    if img.fail[0]:
        raise ChartFailureError("image point admits no chart")
    return _frame_in_chart(S, img)[0]


# ---------------------------------------------------------------------------
# Newton search for periodic points


def _max_normalized(P):
    return np.stack(_normalize_pair_arrays(P[..., 0], P[..., 1]), axis=-1)


def _normalized_cross(nP, nQ):
    """Max over axes of |u1 v2 - u2 v1| for max-normalized (n, 3, 2) rows;
    either side may be a single broadcast row."""
    return np.abs(nP[..., 0] * nQ[..., 1] - nQ[..., 0] * nP[..., 1]).max(axis=-1)


def _chordal_displacement(P, Q):
    """Max over axes of |u1 v2 - u2 v1| for max-normalized representatives."""
    return _normalized_cross(_max_normalized(P), _max_normalized(Q))


def _plain_chain(carr, P, axes, repeats=1):
    """The images of the points P under the axis chain, on value lanes."""
    return _apply_chain(carr, P[None], tuple(axes) * repeats)[0]


def _return_displacement(carr, P, m):
    """Chordal displacement of each lane under f^m; inf where the image is
    not finite."""
    Q = _plain_chain(carr, P, FORWARD_AXES, repeats=m)
    with np.errstate(all="ignore"):
        finite = _finite_lanes(Q)
        return np.where(finite, _chordal_displacement(P, Q), np.inf)


def _seed_points(carr, rng, count):
    """Random on-surface start points for one search chunk."""
    vals = rng.normal(size=(count, 8)) + 1j * rng.normal(size=(count, 8))
    P = np.empty((count, 3, 2), dtype=complex)
    P[:, :2, 0], P[:, :2, 1] = _normalize_pair_arrays(vals[:, 0:4:2], vals[:, 1:4:2])
    P[:, 2] = (1.0, 0.0)
    r1, r2 = _solve_quadratic(*_fiber_coeffs(carr, 2, P[None])[:, 0])
    take_second = rng.random(count) < 0.5
    zu = np.where(take_second, r2[0], r1[0])
    zv = np.where(take_second, r2[1], r1[1])
    P[:, 2, 0], P[:, 2, 1] = _normalize_pair_arrays(zu, zv)
    return P


def _rebuild_solved(carr, P, solved, prev):
    """Re-solve the fiber quadratic on each lane's solved axis and take the
    root chordally closest to that coordinate in prev (on-surface return);
    a tie keeps the first root."""
    n = P.shape[0]
    lanes = np.arange(n)
    # rows: the first root, the second root, prev's coordinate
    ru, rv = np.empty((3, n), dtype=complex), np.empty((3, n), dtype=complex)
    for axis in range(3):
        sel = solved == axis
        A, B, C = _fiber_coeffs(carr, axis, P[sel][None])[:, 0]
        (ru[0, sel], rv[0, sel]), (ru[1, sel], rv[1, sel]) = _solve_quadratic(A, B, C)
    ru[2], rv[2] = prev[lanes, solved, 0], prev[lanes, solved, 1]
    nu, nv = _normalize_pair_arrays(ru, rv)
    d = np.abs(nu[:2] * nv[2] - nu[2] * nv[:2])
    pick = np.where(d[0] <= d[1], 0, 1)
    P2 = P.copy()
    P2[lanes, solved, 0] = nu[pick, lanes]
    P2[lanes, solved, 1] = nv[pick, lanes]
    return P2


# Stabilizing matrices for the damped Newton step, cycled per seed chunk.
# The step solves (DG - beta*|G|*C) delta = -G: near a root it is plain
# Newton; far away it follows the flow of C^-1 G with bounded steps, which
# turns roots of every multiplier phase into reachable targets and keeps
# the lane away from the singular set of the raw Newton map.
_ROT = cmath.exp(2j * math.pi / 5)
_STABILIZERS = (
    np.eye(2, dtype=complex),
    np.eye(2, dtype=complex) * _ROT,
    np.eye(2, dtype=complex) * _ROT.conjugate(),
    -np.eye(2, dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[-1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1], [-1, 0]], dtype=complex),
)
NEWTON_BETA = 2.0


def _newton_step(carr, n, stab, P):
    """One damped chart-Newton step for f^n on every lane of P.

    stab is one (2, 2) stabilizer for all lanes or a (count, 2, 2) stack
    with one per lane.  Returns (P_next, alive, converged).  A lane dies on
    a chart failure, a non-finite image, a singular step matrix or a
    non-finite update; a converged lane (displacement within
    NEWTON_ACCEPT_TOL) is returned unchanged, so it is a fixed point of the
    step.  Every operation acts lane by lane, so stepping a subset of lanes
    gives the same bits as stepping the whole batch and restricting it.
    """
    count = P.shape[0]
    lanes = np.arange(count)
    # displacement and Jacobian in the source chart, same branch
    chart, S = _pushed_frame(carr, P, FORWARD_AXES * n)
    J = _frame_in_chart(S, chart)
    Q = S[0]
    finite = _finite_lanes(Q)
    G = np.empty((count, 2), dtype=complex)
    W = np.empty((count, 2), dtype=complex)
    for i, (ax, pick) in enumerate(zip(chart.free, chart.pick_rows)):
        pu, pv = P[lanes, ax, 0], P[lanes, ax, 1]
        qu, qv = Q[lanes, ax, 0], Q[lanes, ax, 1]
        W[:, i] = np.where(pick, pv / pu, pu / pv)
        G[:, i] = np.where(pick, qv / qu, qu / qv) - W[:, i]
    gnorm = np.sqrt(np.abs(G[:, 0]) ** 2 + np.abs(G[:, 1]) ** 2)
    M = J - np.eye(2)[None]
    M = M - (NEWTON_BETA * gnorm)[:, None, None] * stab
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    alive = ~chart.fail & finite & (np.abs(det) > 1e-14)
    delta = np.empty_like(G)
    delta[:, 0] = -(M[:, 1, 1] * G[:, 0] - M[:, 0, 1] * G[:, 1]) / det
    delta[:, 1] = -(-M[:, 1, 0] * G[:, 0] + M[:, 0, 0] * G[:, 1]) / det
    size = np.sqrt(np.abs(delta[:, 0]) ** 2 + np.abs(delta[:, 1]) ** 2)
    damp = np.minimum(1.0, NEWTON_STEP_CAP / np.maximum(size, 1e-300))
    delta *= damp[:, None]
    converged = alive & (_chordal_displacement(P, Q) <= NEWTON_ACCEPT_TOL)
    move = alive & ~converged
    Wn = W + np.where(move[:, None], delta, 0)
    P2 = P.copy()
    for i, (ax, pick) in enumerate(zip(chart.free, chart.pick_rows)):
        P2[lanes, ax, 0] = np.where(pick, 1.0, Wn[:, i])
        P2[lanes, ax, 1] = np.where(pick, Wn[:, i], 1.0)
    P2 = _rebuild_solved(carr, P2, chart.solved, P)
    P2 = np.where(move[:, None, None], P2, P)
    alive &= _finite_lanes(P2)
    return P2, alive, converged


def _draw_seeds(carr, n, seeds, rng_seed):
    """Seed lanes (seeds, 3, 2) of the period-n search and their stabilizers
    (seeds, 2, 2): chunk k of SEED_CHUNK seeds takes stabilizer k of the cycle
    and draws from its own SeedSequence(entropy=rng_seed, spawn_key=(n, k))."""
    P = np.empty((seeds, 3, 2), dtype=complex)
    stab = np.empty((seeds, 2, 2), dtype=complex)
    for k, start in enumerate(range(0, seeds, SEED_CHUNK)):
        chunk = slice(start, start + SEED_CHUNK)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=rng_seed, spawn_key=(n, k))
        )
        P[chunk] = _seed_points(carr, rng, len(P[chunk]))
        stab[chunk] = _STABILIZERS[k % len(_STABILIZERS)]
    return P, stab


def _newton_lanes(carr, n, P, stab):
    """The lanes of P that converge, within NEWTON_MAX_ITER damped Newton
    steps with stabilizer stab[i] for lane i, to a point of period dividing
    n, in lane order.  A lane's bits do not depend on the other lanes."""
    P = P.copy()
    with np.errstate(all="ignore"):
        active = _finite_lanes(P)
        converged = np.zeros(len(P), dtype=bool)
        for _ in range(NEWTON_MAX_ITER):
            # converged lanes never move and dead lanes never revive, so
            # only the rest are stepped, until none is left
            moving = active & ~converged
            if not moving.any():
                break
            live = np.flatnonzero(moving)
            P[live], active[live], converged[live] = _newton_step(
                carr, n, stab[live], P[live]
            )
        good = active & (_return_displacement(carr, P, n) <= NEWTON_ACCEPT_TOL)
    return P[good]


def _canonical_sort(P):
    flat = P.reshape(len(P), 6)
    keys = []
    for col in range(flat.shape[1]):
        keys.append(flat[:, col].imag)
        keys.append(flat[:, col].real)
    order = np.lexsort(tuple(keys))
    return P[order]


def _greedy_dedup(P, tol=DEDUP_TOL):
    """Keep each row unless it lies within tol of an already kept row, in
    row order; each row is checked against the whole kept set at once."""
    nP = _max_normalized(P)
    kept = np.empty_like(nP)
    keep = []
    for i in range(len(P)):
        if (_normalized_cross(nP[i], kept[: len(keep)]) <= tol).any():
            continue
        kept[len(keep)] = nP[i]
        keep.append(i)
    return P[keep]


def _exact_period_filter(carr, P, n):
    keep = np.ones(len(P), dtype=bool)
    for m in range(1, n):
        if n % m != 0:
            continue
        keep &= _return_displacement(carr, P, m) > DEDUP_TOL
    return P[keep]


def _eigenpair(t, d):
    """The eigenvalues (big, small) of 2x2 matrices with trace t and
    determinant d, |big| >= |small|; a tie keeps (t + sqrt) / 2 first.
    Integer t and d give the discriminant exactly before the complex sqrt."""
    with np.errstate(all="ignore"):
        sq = np.sqrt(np.asarray(t * t - 4 * d, dtype=complex))
        l1 = (t + sq) / 2
        l2 = (t - sq) / 2
    swap = np.abs(l2) > np.abs(l1)
    return np.where(swap, l2, l1), np.where(swap, l1, l2)


def _multipliers_at(carr, P, n, axes=FORWARD_AXES):
    """Eigenvalues of the chart derivative of f^n at each (periodic) lane:
    (big, small, no-chart flags)."""
    chart, S = _pushed_frame(carr, P, tuple(axes) * n)
    J = _frame_in_chart(S, chart)
    t = J[:, 0, 0] + J[:, 1, 1]
    d = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    return (*_eigenpair(t, d), chart.fail)


def newton_periodic(
    surface: WehlerSurface,
    n: int,
    seeds: int,
    rng_seed: int,
    exact_period: bool = True,
    workers: int = 1,
) -> list[SaddleOrbit]:
    """Periodic points of f^n by damped chart Newton from random seeds.

    Three stages: _draw_seeds draws each 256-seed chunk's lanes and
    stabilizer from its own stream; _newton_lanes steps the lane set, or
    one contiguous slice per worker with at most one worker per chunk; the
    converged lanes are sorted, deduplicated and filtered by exact period,
    then checked on the surface and given their multipliers, which must
    keep the two-form identity m_u m_s = (-1)^n within TWO_FORM_TOL or the
    search raises InternalInvariantError.  Lanes are
    independent and sorted before dedup, so the result is identical for any
    worker count.
    """
    if n < 1 or n > PERIOD_CAP:
        raise PreconditionError(f"period must be between 1 and {PERIOD_CAP}")
    if seeds < 0:
        raise PreconditionError("seed count must be nonnegative")
    carr = surface.array()
    P, stab = _draw_seeds(carr, n, seeds, rng_seed)
    # one contiguous lane slice per worker, at most one per seed chunk
    groups = min(workers, math.ceil(seeds / SEED_CHUNK))
    if groups > 1:
        # imported here: concurrent.futures pulls in multiprocessing and
        # logging, which no serial run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=groups) as pool:
            parts = pool.map(
                _newton_lanes, [carr] * groups, [n] * groups,
                np.array_split(P, groups), np.array_split(stab, groups),
            )
            cand = np.concatenate(list(parts))
    else:
        cand = _newton_lanes(carr, n, P, stab)
    cand = _canonical_sort(cand)
    cand = _greedy_dedup(cand)
    if exact_period:
        cand = _exact_period_filter(carr, cand, n)
    # every row already returns within NEWTON_ACCEPT_TOL under f^n: it was
    # checked in _newton_lanes on the same bits, and the stages above only
    # select and permute rows, so the return is not checked again
    big, small, fail = _multipliers_at(carr, cand, n)
    res = _residuals(carr, cand)
    keep = ~fail & (res <= MEMBERSHIP_TOL) & np.isfinite(big) & np.isfinite(small)
    # f*Omega = -Omega for the holomorphic two-form, so m_u m_s = (-1)^n
    defect = np.abs(big[keep] * small[keep] - (-1) ** n).max(initial=0.0)
    if defect > TWO_FORM_TOL:
        raise InternalInvariantError(
            f"two-form identity fails at period {n}: |m_u m_s - (-1)^n| = {defect:.3e}"
        )
    out: list[SaddleOrbit] = []
    for i in np.flatnonzero(keep):
        point = SurfacePoint(*(P1Point.make(*row) for row in cand[i]), float(res[i]))
        out.append(_orbit_record(n, point, big[i], small[i]))
    return out


def _orbit_record(period, point, big, small) -> SaddleOrbit:
    """Record of a periodic point with multipliers |big| >= |small|."""
    kind = OrbitType.SADDLE if abs(big) > 1.0 > abs(small) else OrbitType.NONSADDLE
    return SaddleOrbit(period, point, (complex(big), complex(small)), kind)


# ---------------------------------------------------------------------------
# Lyapunov and rigidity assembly


def lyapunov_from_saddles(orbits: Sequence[SaddleOrbit]) -> LyapunovReport:
    """Exponent estimates from saddle multipliers: the mean over saddles of
    (1/n) log |multiplier|."""
    saddles = [o for o in orbits if o.type is OrbitType.SADDLE]
    if len(saddles) < 5:
        raise TooFewSaddlesError(f"{len(saddles)} saddles; need at least 5")
    ups = np.array([math.log(abs(o.multipliers[0])) / o.period for o in saddles])
    downs = np.array([math.log(abs(o.multipliers[1])) / o.period for o in saddles])
    return LyapunovReport(
        float(ups.mean()),
        float(downs.mean()),
        LyapunovMethod.SADDLE_MULTIPLIERS,
        mean_stderr(ups),
    )


def torus_control_saddles(
    f: TorusAutomorphism, periods: Iterable[int] = (1, 2, 3, 4), per_period: int = 5
) -> list[SaddleOrbit]:
    """Saddle records for a hyperbolic torus automorphism: every period-n
    point is a saddle with multipliers the eigenvalues of M^n, exactly."""
    out = []
    for n in periods:
        count = fix_count(f, n)
        mn = f.matrix.power(n)
        l1, l2 = _eigenpair(mn.trace(), mn.det())
        for _ in range(min(per_period, count)):
            out.append(_orbit_record(n, TorusPoint.origin(), l1, l2))
    return out


@dataclass(frozen=True)
class RigidityReport:
    lambda_f: float
    lambda_u_est: float | None
    lambda_s_est: float | None
    lyap_stderr: float | None
    dimension_est: float | None
    dimension_stderr: float | None
    gap_u: float | None
    gap_s: float | None
    verdict: RigidityVerdict
    n_saddles: int
    qr_lambda_u: float | None = None
    qr_gap: float | None = None
    per_period: tuple[tuple[int, int, float], ...] | None = None


def pool_period_estimates(
    estimates: Sequence[LyapunovReport],
) -> LyapunovReport:
    """Combine per-period Lyapunov estimates with equal weight per period.

    The standard error includes the between-period sample variance: the
    per-period means drift systematically with the period (finite-period
    saddle samples are not draws from one population), so quoting the
    flat per-saddle standard error would overstate the precision.
    """
    if not estimates:
        raise TooFewSaddlesError("no per-period estimates to pool")
    ups = np.array([e.lambda_u for e in estimates])
    downs = np.array([e.lambda_s for e in estimates])
    k = len(estimates)
    if k == 1:
        stderr = estimates[0].stderr
    else:
        between = float(ups.var(ddof=1)) / k
        within = sum(e.stderr**2 for e in estimates) / k**2
        stderr = math.sqrt(between + within)
    return LyapunovReport(
        float(ups.mean()),
        float(downs.mean()),
        LyapunovMethod.SADDLE_MULTIPLIERS,
        float(stderr),
    )


def assemble_rigidity(
    lambda_f: float,
    half_log_lambda_f: float,
    lyap: LyapunovReport | None,
    dimension: tuple[float, float] | None,
    n_saddles: int,
    qr_lambda_u: float | None = None,
    per_period: tuple[tuple[int, int, float], ...] | None = None,
) -> RigidityReport:
    """Verdict logic shared by the surface pipeline and the torus control.

    The verdict reads gap_u = lambda_u - 1/2 log lambda_f alone; band = 3
    stderr.  RIGIDITY_GAP if gap_u > band (the Ruelle direction);
    KUMMER_CONSISTENT if |gap_u| <= band and the dimension is within 3
    stderr of 4; INCONCLUSIVE otherwise.  gap_s is reported, not read: the
    saddles keep m_u m_s = (-1)^n and the torus lambda_s = -lambda_u, so it
    repeats gap_u with more rounding than the band allows for.
    """
    lyap_u = lyap_s = lyap_err = gap_u = gap_s = qr_gap = None
    verdict = RigidityVerdict.INCONCLUSIVE
    if lyap is not None:
        lyap_u, lyap_s, lyap_err = lyap.lambda_u, lyap.lambda_s, lyap.stderr
        gap_u = lyap.lambda_u - half_log_lambda_f
        gap_s = -lyap.lambda_s - half_log_lambda_f
        band = 3 * lyap.stderr
        dim_ok = dimension is not None and abs(dimension[0] - 4.0) <= 3 * dimension[1]
        if gap_u > band:
            verdict = RigidityVerdict.RIGIDITY_GAP
        elif abs(gap_u) <= band and dim_ok:
            verdict = RigidityVerdict.KUMMER_CONSISTENT
        if qr_lambda_u is not None:
            qr_gap = qr_lambda_u - half_log_lambda_f
    return RigidityReport(
        lambda_f,
        lyap_u,
        lyap_s,
        lyap_err,
        dimension[0] if dimension else None,
        dimension[1] if dimension else None,
        gap_u,
        gap_s,
        verdict,
        n_saddles,
        qr_lambda_u,
        qr_gap,
        per_period,
    )


def saddle_census(
    surface: WehlerSurface,
    n_max: int,
    seeds: int,
    rng_seed: int,
    workers: int = 1,
) -> tuple[list[SaddleOrbit], list[LyapunovReport], list[tuple[int, int, float]]]:
    """Periodic orbits of periods 1..n_max, stratified by period.

    A period with wehler_primitive_count(n) = 0 is not searched: that is
    only n = 1, where on a smooth surface with Fix(f) finite L(f) = 0 and
    each fixed point of the holomorphic f would count with index >= 1, so
    there is none.  Each period with enough saddles gets its own
    lyapunov_from_saddles estimate.  Returns (orbits, estimates, per_period),
    where per_period holds one (n, orbits of period n, lambda_u estimate)
    row per estimate.
    """
    if not 0 <= n_max <= PERIOD_CAP:
        raise PreconditionError(f"largest period must be between 0 and {PERIOD_CAP}")
    orbits: list[SaddleOrbit] = []
    estimates: list[LyapunovReport] = []
    per_period: list[tuple[int, int, float]] = []
    for n in filter(wehler_primitive_count, range(1, n_max + 1)):
        batch = newton_periodic(surface, n, seeds, rng_seed, workers=workers)
        orbits.extend(batch)
        try:
            est = lyapunov_from_saddles(batch)
        except TooFewSaddlesError:
            continue
        estimates.append(est)
        per_period.append((n, len(batch), est.lambda_u))
    return orbits, estimates, per_period


def wehler_lambda_f() -> float:
    """Dynamical degree of f on the (2,2,2) cohomology: 9 + 4 sqrt(5),
    independent of the surface coefficients."""
    m1, m2, m3, _ = wehler_cohomology_action()
    return dynamical_degree(m1 @ m2 @ m3).lambda_f


def wehler_lefschetz_count(n: int) -> int:
    """L(f^n) = 2 + tr M^n + 19 (-1)^n in integers, M = m1 m2 m3 the action
    of f on the three hyperplane classes of a smooth (2,2,2) surface; each
    involution acts by -1 on the 19 other dimensions of H^2.  When Fix(f^n)
    is finite this counts its points with their indices, each at least 1
    since f is holomorphic: 0, 344, 5760, 103704, 1860480 for n = 1..5."""
    m1, m2, m3, _ = wehler_cohomology_action()
    return 2 + (m1 @ m2 @ m3).power(n).trace() + (-19 if n % 2 else 19)


def wehler_primitive_count(n: int) -> int:
    """Points of exact period n >= 1, by Moebius inversion of L(f^d) over
    d | n in integers (exact when every point of period dividing n is
    nondegenerate): 0, 344, 5760, 103360, 1860480 for n = 1..5."""
    if n < 1:
        raise PreconditionError("period must be positive")
    return wehler_lefschetz_count(n) - sum(
        wehler_primitive_count(d) for d in range(1, n) if n % d == 0
    )


def saddle_cloud(orbits: Sequence[SaddleOrbit]) -> np.ndarray:
    pts = [o.point for o in orbits if isinstance(o.point, SurfacePoint)]
    return _pack_points([(p.x, p.y, p.z) for p in pts])


def surface_cloud_distance(
    samples: np.ndarray, i: int, cutoff: float = math.inf
) -> np.ndarray:
    """Product chordal metric on (n, 3, 2) homogeneous representatives.

    cutoff is the local_dimension_estimate contract; every distance is
    computed, so it is ignored."""
    x = np.asarray(samples)
    p = x[i]
    cross = np.abs(x[:, :, 0] * p[None, :, 1] - p[None, :, 0] * x[:, :, 1])
    norms_x = np.sqrt(np.abs(x[:, :, 0]) ** 2 + np.abs(x[:, :, 1]) ** 2)
    norms_p = np.sqrt(np.abs(p[:, 0]) ** 2 + np.abs(p[:, 1]) ** 2)
    cross = cross / (norms_x * norms_p[None, :])
    return np.sqrt((cross**2).sum(axis=1))


DEFAULT_SURFACE_RADII = DIMENSION_RADII


def rigidity_report(
    surface: WehlerSurface, n_max: int, seeds: int, rng_seed: int, workers: int = 1
) -> tuple[RigidityReport, list[SaddleOrbit]]:
    """Pool saddle orbits over periods 1..n_max and assemble the verdict.

    The per-period estimates of saddle_census are combined with equal
    weight per period.
    """
    lam_f = wehler_lambda_f()
    orbits, estimates, per_period = saddle_census(
        surface, n_max, seeds, rng_seed, workers=workers
    )
    try:
        lyap = pool_period_estimates(estimates)
    except TooFewSaddlesError:
        lyap = None
    dimension = None
    cloud = saddle_cloud(orbits)
    try:
        dimension = local_dimension_estimate(
            cloud,
            surface_cloud_distance,
            DEFAULT_SURFACE_RADII,
            min(DIMENSION_PROBES, len(cloud)),
            rng_seed,
        )
    except (InsufficientSamplesError, DegenerateRadiiError):
        pass
    report = assemble_rigidity(
        lam_f,
        0.5 * math.log(lam_f),
        lyap,
        dimension,
        len(orbits),
        per_period=tuple(per_period) if per_period else None,
    )
    return report, orbits


def torus_control_report(f: TorusAutomorphism, rng_seed: int = 0) -> RigidityReport:
    """The exactly-solvable control run through the same report pipeline.

    lambda_u and half the log-degree are computed by one shared closed form,
    so the rigidity gap is exactly zero; a QR-orbit estimate and the Haar
    dimension estimate are attached as numerical cross-checks.
    """
    half = half_log_h2_degree(f)
    exact = lyapunov_exact(f)
    qr = lyapunov_qr_orbit(f, TorusPoint.origin(), QR_STEPS)
    dimension = haar_dimension(f.lattice, HAAR_SAMPLES, DIMENSION_PROBES, rng_seed)
    return assemble_rigidity(
        math.exp(2 * half), half, exact, dimension, 0, qr.lambda_u
    )


# ---------------------------------------------------------------------------
# singularity probe


def _suspect_jets(carr, W):
    """(F, dF/dwx, dF/dwy, dF/dwz) at the affine points W (n, 3) in the
    chart u = 1 on every axis, as r (n, 4), with its exact Jacobian in W,
    (n, 4, 3); rows 1-3 of the Jacobian are the Hessian of the affine F.
    One lane stack carries a tangent row per affine coordinate through one
    _fiber_coeffs call per axis."""
    S = np.zeros((4, len(W), 3, 2), dtype=complex)
    S[0, ..., 0], S[0, ..., 1] = 1.0, W
    S[1:, :, :, 1] = np.eye(3)[:, None]
    grads = []
    for axis in range(3):
        A, B, C = _fiber_coeffs(carr, axis, S)
        w = S[:, :, axis, 1]
        grads.append(B + 2 * _mul(C, w))
    # A, B, C and w of the last pass are those of the z fiber
    R = np.stack([A + _mul(B, w) + _mul(_mul(C, w), w), *grads])  # (output, row, lane)
    return R[:, 0].T, R[:, 1:].transpose(2, 0, 1)


def singularity_probe(
    surface: WehlerSurface, trials: int, rng_seed: int = 0
) -> list[Suspect]:
    """Advisory search for singular points: sample fiber points, rank by the
    largest chart gradient, then Gauss-Newton refine the 20 lowest-gradient
    candidates at once on (F, grad F) = 0 in the chart u = 1 per axis
    (skipping candidates with some |u| < 1e-6) and flag residuals below
    1e-8, keeping a suspect unless it lies within chordal distance 1e-6 of
    one kept before it in candidate order."""
    if trials < 0:
        raise PreconditionError("trial count must be nonnegative")
    carr = surface.array()
    rng = np.random.default_rng(rng_seed)
    with np.errstate(all="ignore"):
        P = _seed_points(carr, rng, trials)
        P = P[_finite_lanes(P)]
        grads = np.abs(_chart(carr, P).partials).max(axis=0)
        cand = P[np.argsort(grads)[:20]]
        cand = cand[(np.abs(cand[:, :, 0]) >= 1e-6).all(axis=1)]
        # a lane stopped by a non-finite step is scored at its last iterate
        W, _ = gauss_newton(lambda V: _suspect_jets(carr, V), cand[..., 1] / cand[..., 0])
        score = np.abs(_suspect_jets(carr, W)[0]).max(axis=1)
        good = (score < 1e-8) & np.isfinite(W).all(axis=1)
        Q = _greedy_dedup(np.stack([np.ones_like(W), W], axis=-1)[good], 1e-6)
        r = np.abs(_suspect_jets(carr, Q[:, :, 1])[0])
    return [Suspect(SurfacePoint(*(P1Point.make(1.0, w) for w in q[:, 1]), float(a[0])),
                    float(a.max())) for q, a in zip(Q, r)]


def gauss_newton(system, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Gauss-Newton on system(W) = 0, one lane per row of the complex
    (n, m) array W; system(W) returns residuals (n, k) and Jacobian (n, k, m).
    Each lane takes least-squares steps (the pseudo-inverse at lstsq's
    default cutoff) capped at 0.5 in max norm, at most 40, and stops after a
    step below 1e-14.  Returns (W, ok); ok is False on lanes whose residual,
    Jacobian or step came out non-finite, which keep their last finite
    iterate and never reach LAPACK (it would print a complaint on stdout)."""
    W = np.array(W, dtype=complex)
    ok = np.ones(len(W), dtype=bool)
    live = np.arange(len(W))
    for _ in range(40):
        if not live.size:
            break
        r, jac = system(W[live])
        fin = np.isfinite(r).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))
        step = np.full(W[live].shape, np.nan, dtype=complex)
        step[fin] = -(np.linalg.pinv(jac[fin], rtol=None) @ r[fin, :, None])[..., 0]
        fin &= np.isfinite(step).all(axis=1)
        ok[live[~fin]] = False
        live, step = live[fin], step[fin]
        size = np.abs(step).max(axis=1)
        step *= (0.5 / np.maximum(size, 0.5))[:, None]
        W[live] += step
        live = live[size >= 1e-14]
    return W, ok


# ---------------------------------------------------------------------------
# density histogram


def density_histogram(
    surface: WehlerSurface,
    p0: SurfacePoint,
    iters: int,
    proj: tuple[str, str] = ("x", "y"),
    bins: int = 512,
) -> np.ndarray:
    """Log-scaled 2D histogram of an orbit under a coordinate-pair
    projection; each P1 coordinate maps to its chordal height
    |v|^2/(|u|^2+|v|^2) in [0, 1]."""
    names = {"x": 0, "y": 1, "z": 2}
    if len(proj) != 2 or proj[0] == proj[1] or not set(proj) <= set(names):
        raise PreconditionError("projection must be two distinct axes of x, y, z")
    ax_a, ax_b = names[proj[0]], names[proj[1]]
    pts, _ = orbit(surface, p0, iters)
    heights = np.empty((iters + 1, 2))
    for i, p in enumerate(pts):
        for slot, ax in enumerate((ax_a, ax_b)):
            coord = (p.x, p.y, p.z)[ax]
            au, av = abs(coord.u) ** 2, abs(coord.v) ** 2
            heights[i, slot] = av / (au + av)
    hist, _, _ = np.histogram2d(
        heights[:, 0], heights[:, 1], bins=bins, range=[[0, 1], [0, 1]]
    )
    img = np.log1p(hist)
    top = img.max()
    if top > 0:
        img = img / top
    return (img * 255).astype(np.uint8)
