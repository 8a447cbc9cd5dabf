"""Plane Cremona involutions fixing a cubic curve point-wise.

For a smooth plane cubic C and a point q on C, the involution sigma_q acts on
each line through q: the line meets C at q and two further points, and
sigma_q restricts to the unique involution of the line fixing those two
points.  Compositions of such involutions for several base points give
birational maps that fix C point-wise and preserve the meromorphic 2-form
with a simple pole along C.

The involution is evaluated rationally: if the restriction of the cubic to
the line q + t*d is g3 t^3 + g2 t^2 + g1 t (the constant term vanishes since
q is on C), then by Vieta's formulas the involution fixing the two non-zero
roots is the Moebius map with matrix [[-g2, -2 g1], [2 g3, g2]], so no root
extraction is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChartFailureError,
    IndeterminatePointError,
    InternalInvariantError,
    OnCubicError,
    PreconditionError,
)

# degree-3 monomials in (X0, X1, X2), graded lexicographic with X0 > X1 > X2
MONOMIALS = (
    (3, 0, 0),
    (2, 1, 0),
    (2, 0, 1),
    (1, 2, 0),
    (1, 1, 1),
    (1, 0, 2),
    (0, 3, 0),
    (0, 2, 1),
    (0, 1, 2),
    (0, 0, 3),
)

ON_CUBIC_TOL = 1e-10
DISTINCT_TOL = 1e-8
TANGENCY_TOL = 1e-12
CHART_TOL = 1e-8
FD_STEP = 1e-6

# The core of np.convolve, which converts both operands to arrays, swaps them
# so the longer comes first and returns correlate(longer, shorter[::-1]).
# Calling it with those operands gives np.convolve's bits without its
# per-call argument handling; mode 2 is "full" on every numpy >= 1.24.
_CORRELATE = getattr(np.convolve, "__wrapped__", np.convolve).__globals__["multiarray"].correlate


def _normalized(v: np.ndarray, mag: np.ndarray | None = None) -> np.ndarray:
    """v divided by its entry of largest modulus; the zero or non-finite
    vector is refused.  mag is np.abs(v), when the caller has taken it."""
    mag = np.abs(v) if mag is None else mag
    top = int(mag.argmax())
    if not np.isfinite(mag[top]):
        raise PreconditionError("projective point has a non-finite coordinate")
    if mag[top] == 0:
        raise PreconditionError("(0, 0, 0) is not a projective point")
    return v / v[top]


def _chordal(a: np.ndarray, b: np.ndarray) -> float:
    """Largest 2x2 minor of the rows a and b."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return max(0.0, abs(a0 * b1 - a1 * b0), abs(a0 * b2 - a2 * b0), abs(a1 * b2 - a2 * b1))


@dataclass(frozen=True)
class P2Point:
    """Projective plane point, normalized so the largest component is 1."""

    x0: complex
    x1: complex
    x2: complex

    @classmethod
    def make(cls, x0: complex, x1: complex, x2: complex) -> "P2Point":
        return cls(*_normalized(np.array([x0, x1, x2], dtype=complex)).tolist())

    def array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2], dtype=complex)

    def chordal(self, other: "P2Point") -> float:
        return _chordal(self.array(), other.array())


@dataclass(frozen=True)
class PlaneCubic:
    """Homogeneous cubic in (X0, X1, X2): ten coefficients following
    MONOMIALS order.  terms holds each nonzero coefficient with the
    variables of its three linear factors in ascending order, e.g.
    (c, (0, 0, 1)) for c X0^2 X1."""

    coeffs: tuple
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) != 10:
            raise PreconditionError("expected 10 cubic coefficients")
        if not np.isfinite(np.array(self.coeffs, dtype=complex)).all():
            raise PreconditionError("cubic has a non-finite coefficient")
        if all(c == 0 for c in self.coeffs):
            raise PreconditionError("cubic is identically zero")
        terms = tuple(
            (c, tuple(var for var, e in enumerate(expo) for _ in range(e)))
            for c, expo in zip(self.coeffs, MONOMIALS)
            if c != 0
        )
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_coefficients(cls, seq) -> "PlaneCubic":
        return cls(tuple(complex(c) for c in seq))

    @property
    def scale(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def evaluate(self, v) -> complex:
        x0, x1, x2 = v
        out = 0.0 + 0.0j
        for c, (i, j, k) in zip(self.coeffs, MONOMIALS):
            out += c * x0**i * x1**j * x2**k
        return out

    def gradient(self, v) -> np.ndarray:
        x0, x1, x2 = v
        g = np.zeros(3, dtype=complex)
        for c, (i, j, k) in zip(self.coeffs, MONOMIALS):
            if i:
                g[0] += c * i * x0 ** (i - 1) * x1**j * x2**k
            if j:
                g[1] += c * j * x0**i * x1 ** (j - 1) * x2**k
            if k:
                g[2] += c * k * x0**i * x1**j * x2 ** (k - 1)
        return g


def fermat_cubic() -> PlaneCubic:
    coeffs = [0.0] * 10
    for slot, mono in enumerate(MONOMIALS):
        if 3 in mono:
            coeffs[slot] = 1.0
    return PlaneCubic.from_coefficients(coeffs)


def _line_restriction(cubic: PlaneCubic, origin: np.ndarray, direction: np.ndarray):
    """Coefficients (g3, g2, g1, g0) of t -> P(origin + t * direction), by
    exact convolution of the three linear factors of each monomial, with the
    operands and order np.convolve(np.convolve(np.convolve([1], lin_i),
    lin_j), lin_k) uses: the length-1 polynomial is the shorter operand of
    the first product, so it comes second there."""
    pairs = np.empty((3, 2), dtype=complex)
    pairs[:, 0] = direction
    pairs[:, 1] = origin
    lins, revs = list(pairs), list(pairs[:, ::-1].copy())
    # np.convolve passes [1][::-1]: that view keeps its negative stride in
    # the core, which then sums on another path than for a contiguous [1],
    # with other bits on infinities and NaN
    one = np.array([1.0 + 0.0j])[::-1]
    total = np.zeros(4, dtype=complex)
    for c, (i, j, k) in cubic.terms:
        poly = _CORRELATE(_CORRELATE(_CORRELATE(lins[i], one, 2), revs[j], 2), revs[k], 2)
        total += c * poly
    return total[0], total[1], total[2], total[3]


def on_cubic(cubic: PlaneCubic, p: P2Point) -> bool:
    return abs(cubic.evaluate(p.array())) <= ON_CUBIC_TOL * cubic.scale


def sigma_q(cubic: PlaneCubic, q: P2Point, p: P2Point) -> P2Point:
    """The involution of the pencil of lines through the base point q."""
    if not on_cubic(cubic, q):
        raise PreconditionError("base point is not on the cubic")
    qarr = q.array()
    return P2Point(*_involution(cubic, qarr, int(np.argmax(np.abs(qarr))), p.array()).tolist())


def _involution(cubic: PlaneCubic, qarr: np.ndarray, m: int, parr: np.ndarray) -> np.ndarray:
    """sigma_q on normalized arrays, for a base point q already checked to
    lie on the cubic, with pivot m = argmax |q_i|."""
    if _chordal(parr, qarr) <= 1e-12:
        raise IndeterminatePointError("input coincides with the base point")
    if abs(parr[m]) <= 1e-13:
        # p sits on the chart's line at infinity, at parameter t = infinity
        d = parr
        tvec = (1.0, 0.0)
    else:
        d = parr / parr[m] - qarr
        tvec = (1.0, 1.0)
    g3, g2, g1, _ = _line_restriction(cubic, qarr, d)
    gscale = max(abs(g1), abs(g2), abs(g3))
    if gscale == 0:
        raise IndeterminatePointError("line lies inside the cubic")
    if abs(g1) <= TANGENCY_TOL * gscale:
        raise IndeterminatePointError("line is tangent to the cubic at the base point")
    disc = g2 * g2 - 4 * g3 * g1
    if abs(disc) <= TANGENCY_TOL * gscale * gscale:
        raise IndeterminatePointError("line is tangent to the cubic")
    nu = -g2 * tvec[0] - 2 * g1 * tvec[1]
    de = 2 * g3 * tvec[0] + g2 * tvec[1]
    out = de * qarr + nu * d
    mag = np.abs(out)
    if mag.max() <= 1e-280 * gscale:
        raise InternalInvariantError("involution produced the zero vector")
    return _normalized(out, mag)


@dataclass(frozen=True)
class BlancMap:
    """Composition of pencil involutions for base points q_1 .. q_l on one
    cubic; q_l is applied first.  qarrs and pivots hold each base point's
    array and the index of its entry of largest modulus."""

    cubic: PlaneCubic
    base_points: tuple
    qarrs: tuple = field(init=False, repr=False, compare=False)
    pivots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.base_points) < 1:
            raise PreconditionError("need at least one base point")
        for slot, q in enumerate(self.base_points):
            if not on_cubic(self.cubic, q):
                raise PreconditionError(f"base point {slot + 1} is not on the cubic")
        pts = self.base_points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i].chordal(pts[j]) < DISTINCT_TOL:
                    raise PreconditionError(
                        f"base points {i + 1} and {j + 1} coincide"
                    )
        qarrs = tuple(q.array() for q in pts)
        object.__setattr__(self, "qarrs", qarrs)
        object.__setattr__(self, "pivots", tuple(int(np.argmax(np.abs(a))) for a in qarrs))


def blanc_compose(B: BlancMap, p: P2Point) -> P2Point:
    return P2Point(*_apply_stages(B, p.array(), range(len(B.base_points), 0, -1)).tolist())


def blanc_inverse(B: BlancMap, p: P2Point) -> P2Point:
    return P2Point(*_apply_stages(B, p.array(), range(1, len(B.base_points) + 1)).tolist())


def _apply_stages(B: BlancMap, v: np.ndarray, stages) -> np.ndarray:
    """Apply sigma_q (base points checked once, by BlancMap) for the 1-based
    indices in stages order to the normalized array v; an indeterminacy is
    re-raised with the index."""
    for stage in stages:
        try:
            v = _involution(B.cubic, B.qarrs[stage - 1], B.pivots[stage - 1], v)
        except IndeterminatePointError as err:
            raise IndeterminatePointError(str(err), stage=stage) from None
    return v


def _affine_image(B: BlancMap, x: complex, y: complex) -> tuple[complex, complex]:
    v = _normalized(np.array([x, y, 1.0], dtype=complex))
    w = _apply_stages(B, v, range(len(B.base_points), 0, -1))
    if abs(w[2]) <= CHART_TOL * np.abs(w).max():
        raise ChartFailureError("image left the affine chart")
    return w[0] / w[2], w[1] / w[2]


def two_form_check(B: BlancMap, p: P2Point) -> float:
    """Defect of the invariance of dx^dy / P(x, y, 1): computes
    |det Jac| * |P(p)| / |P(f p)| in the X2 != 0 chart via central
    differences and returns its distance from 1."""
    parr = p.array()
    if abs(parr[2]) <= CHART_TOL:
        raise ChartFailureError("point outside the affine chart")
    x, y = parr[0] / parr[2], parr[1] / parr[2]
    src = B.cubic.evaluate((x, y, 1.0))
    if abs(src) <= ON_CUBIC_TOL * B.cubic.scale * max(1.0, abs(x), abs(y)) ** 3:
        raise OnCubicError("the form has a pole at the input point")
    fx, fy = _affine_image(B, x, y)
    dst = B.cubic.evaluate((fx, fy, 1.0))
    if abs(dst) <= ON_CUBIC_TOL * B.cubic.scale * max(1.0, abs(fx), abs(fy)) ** 3:
        raise OnCubicError("the form has a pole at the image point")
    jac = np.empty((2, 2), dtype=complex)
    for col, (dx, dy) in enumerate(((FD_STEP, 0.0), (0.0, FD_STEP))):
        px, py = _affine_image(B, x + dx, y + dy)
        mx, my = _affine_image(B, x - dx, y - dy)
        jac[0, col] = (px - mx) / (2 * FD_STEP)
        jac[1, col] = (py - my) / (2 * FD_STEP)
    value = abs(np.linalg.det(jac)) * abs(src) / abs(dst)
    return abs(value - 1.0)


def cubic_points(cubic: PlaneCubic, count: int, rng_seed: int) -> list[P2Point]:
    """Points on the cubic from random line slices, polished by Newton steps
    along the line to residual ~1e-15 relative."""
    if count < 0:
        raise PreconditionError("point count must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    out: list[P2Point] = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 100 * count + 100:
            raise InternalInvariantError("cubic point sampling stalled")
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        g3, g2, g1, g0 = _line_restriction(cubic, a, b)
        if abs(g3) < 1e-12 * max(abs(g0), abs(g1), abs(g2), 1e-300):
            continue
        roots = np.roots([g3, g2, g1, g0])
        t = roots[int(rng.integers(0, len(roots)))]
        ok = False
        for _ in range(5):
            v = a + t * b
            slope = cubic.gradient(v) @ b
            if slope == 0:
                break
            t = t - cubic.evaluate(v) / slope
            v = a + t * b
            if abs(cubic.evaluate(v)) <= 1e-13 * cubic.scale * np.abs(v).max() ** 3:
                ok = True
                break
        if not ok:
            continue
        cand = P2Point.make(*(a + t * b))
        if on_cubic(cubic, cand):
            out.append(cand)
    return out


def distinct_cubic_points(
    cubic: PlaneCubic, count: int, rng_seed: int, spacing: float = 1e-4
) -> list[P2Point]:
    """Cubic points pairwise separated by at least the given chordal spacing."""
    out: list[P2Point] = []
    seed = rng_seed
    while len(out) < count:
        for cand in cubic_points(cubic, count, seed):
            if all(cand.chordal(prev) >= spacing for prev in out):
                out.append(cand)
                if len(out) == count:
                    break
        seed += 1
        if seed > rng_seed + 50:
            raise InternalInvariantError("could not find distinct cubic points")
    return out
