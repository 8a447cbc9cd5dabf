"""Exact dynamics of linear automorphisms of a product of elliptic curves.

A point of E x E with E = C/(Z + Z*tau) is stored in lattice coordinates
(a1, b1, a2, b2), each in [0, 1), for (x, y) = (a1 + b1*tau, a2 + b2*tau).
An integer matrix M acts complex-linearly on (x, y); in lattice coordinates
it transforms (a1, a2) and (b1, b2) separately, so periodic-point work can
run in exact rational arithmetic while long orbits use floats.

The module also hosts the sign-involution quotient projection (sixteen fixed
points), the lattice matrices of multiplication by tau on the square
lattices, the induced action on degree-2 cohomology, exact and orbit-based
Lyapunov exponents, Lefschetz periodic-point counting and enumeration,
Weyl-sum equidistribution reports, and the shared local-dimension estimator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    DegeneratePeriodError,
    DegenerateRadiiError,
    EmptyEnsembleError,
    InsufficientSamplesError,
    InternalInvariantError,
    NotHyperbolicError,
    PreconditionError,
)
from .lattice_algebra import IntMatrix, float_array, smith_normal_form

TAU_I = complex(0.0, 1.0)
TAU_ZETA3 = complex(-0.5, math.sqrt(3.0) / 2.0)

# lattice-linear action of multiplication by tau on (a, b), z = a + b*tau;
# no computation uses them, tests/test_acceptance.py checks their orders
ETA_TAU_MATRICES = {
    "i": IntMatrix.from_rows([[0, -1], [1, 0]]),
    "zeta3": IntMatrix.from_rows([[0, -1], [1, -1]]),
}
ETA_TAU_ORDERS = {"i": 4, "zeta3": 3}

WEYL_TRIVIAL_TOL = 1e-10

# Run defaults: the largest fixed-point count fix_enumerate lists (32 bytes
# of int64 table per point; the Weyl sums read it as 32 more of floats), the
# most frequencies a Weyl-sum report visits, and the most Haar samples; the
# QR orbit, and the dimension leg (the surface leg reuses radii and probes).
FIX_CAP = 10**6
QR_STEPS = 10**4
QR_WARMUP = 100
HAAR_SAMPLES = 10**5
DIMENSION_RADII = tuple(np.geomspace(0.5, 0.05, 8))
DIMENSION_PROBES = 64


class Quotient(Enum):
    NONE = "NONE"


class LyapunovMethod(Enum):
    EXACT_EIGEN = "EXACT_EIGEN"
    QR_ORBIT = "QR_ORBIT"
    SADDLE_MULTIPLIERS = "SADDLE_MULTIPLIERS"


@dataclass(frozen=True)
class TorusLattice:
    """Modulus of the elliptic curve E = C/(Z + Z*tau)."""

    tau: complex = TAU_I

    def __post_init__(self):
        if not self.tau.imag > 0:
            raise PreconditionError("tau must lie in the upper half plane")


@dataclass(frozen=True, order=True)
class TorusPoint:
    """Point of the torus in lattice coordinates (a1, b1, a2, b2)."""

    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if len(self.coords) != 4:
            raise PreconditionError("a torus point has 4 lattice coordinates")
        for c in self.coords:
            # a Fraction's denominator is positive, so compare its integers
            lo, hi = (c.numerator, c.denominator) if type(c) is Fraction else (c, 1)
            if not (0 <= lo < hi):
                raise PreconditionError("lattice coordinates live in [0, 1)")

    @classmethod
    def from_rationals(cls, a1, b1, a2, b2) -> "TorusPoint":
        return cls(tuple(Fraction(c) % 1 for c in (a1, b1, a2, b2)))

    @classmethod
    def origin(cls) -> "TorusPoint":
        return cls.from_rationals(0, 0, 0, 0)

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(tuple((-c) % 1 for c in self.coords))

    def add(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint(
            tuple((a + b) % 1 for a, b in zip(self.coords, other.coords))
        )


@dataclass(frozen=True)
class TorusAutomorphism:
    """Action of an integer matrix on the torus; quotient is always
    Quotient.NONE, since every computation runs on E x E itself."""

    matrix: IntMatrix
    lattice: TorusLattice = TorusLattice()
    quotient: Quotient = Quotient.NONE

    def __post_init__(self):
        if self.matrix.dim != 2:
            raise PreconditionError("the acting matrix must be 2x2")
        if self.matrix.det() not in (1, -1):
            raise PreconditionError("the acting matrix must be invertible over Z")

    @property
    def is_hyperbolic(self) -> bool:
        """Eigenvalue moduli distinct: |trace| > 2, or det = -1 with trace != 0."""
        t = self.matrix.trace()
        if self.matrix.det() == 1:
            return abs(t) > 2
        return t != 0

    def apply(self, p: TorusPoint) -> TorusPoint:
        """M mixes the two factors: it acts on (a1, a2) and on (b1, b2)."""
        a1, b1, a2, b2 = p.coords
        a1, a2 = _act_mod1(self.matrix, a1, a2)
        b1, b2 = _act_mod1(self.matrix, b1, b2)
        return TorusPoint((a1, b1, a2, b2))

    def apply_n(self, p: TorusPoint, n: int) -> TorusPoint:
        return replace_matrix(self, self.matrix.power(n)).apply(p)

    def inverse(self) -> "TorusAutomorphism":
        return replace_matrix(self, self.matrix.inverse_unimodular())


def replace_matrix(f: TorusAutomorphism, m: IntMatrix) -> TorusAutomorphism:
    return TorusAutomorphism(matrix=m, lattice=f.lattice, quotient=f.quotient)


@dataclass(frozen=True, eq=False)
class PeriodicEnsemble:
    """Fixed points of the n-th iterate, enumerated exactly: row i of the
    (count, 4) int64 array numerators, over denominator, is point i's
    lattice coordinates (a1, b1, a2, b2)."""

    period: int
    numerators: np.ndarray
    denominator: int
    count: int

    @cached_property
    def points(self) -> tuple[TorusPoint, ...]:
        """The points as TorusPoints of Fractions, built on first use."""
        table = [Fraction(j, self.denominator) for j in range(self.denominator)]
        return tuple(
            TorusPoint(tuple(table[j] for j in row)) for row in self.numerators.tolist()
        )


@dataclass(frozen=True)
class LyapunovReport:
    lambda_u: float
    lambda_s: float
    method: LyapunovMethod
    stderr: float

    def __post_init__(self):
        if self.lambda_s > self.lambda_u:
            raise InternalInvariantError("exponents out of order")
        if self.stderr < 0:
            raise InternalInvariantError("negative standard error")


# ---------------------------------------------------------------------------
# Lyapunov exponents


def lyapunov_exact(f: TorusAutomorphism) -> LyapunovReport:
    """Exact Lyapunov exponents of the constant-derivative torus map.

    One complex exponent per eigenvalue of M; |det M| = 1 makes them
    opposite: lambda_u = log rho(M) = half_log_h2_degree, lambda_s = -lambda_u.
    """
    lam_u = half_log_h2_degree(f)
    return LyapunovReport(lam_u, -lam_u, LyapunovMethod.EXACT_EIGEN, 0.0)


def half_log_h2_degree(f: TorusAutomorphism) -> float:
    """Half the entropy: (1/2) log of the induced degree-2 cohomology degree.

    The H2 spectral radius is exactly rho(M)^2, so this equals log(rho(M)),
    with rho(M) = (|t| + sqrt(t^2 - 4d)) / 2 in closed form (t, d the trace
    and determinant; a hyperbolic M with det +-1 has a real pair).
    lyapunov_exact takes its lambda_u from here, so the two floats are
    bit-identical and the Kummer rigidity gap is exactly zero.
    """
    if not f.is_hyperbolic:
        raise NotHyperbolicError("both eigenvalue moduli equal 1")
    t, d = f.matrix.trace(), f.matrix.det()
    return math.log((abs(t) + math.sqrt(float_array(t * t - 4 * d))) / 2.0)


def lyapunov_qr_orbit(
    f: TorusAutomorphism, p0: TorusPoint, n_steps: int
) -> LyapunovReport:
    """Lyapunov exponents by orthogonalized norm-growth accumulation.

    The derivative of a torus automorphism is the constant matrix M, so the
    estimate does not depend on the start point p0; the warmup discards the
    O(1/n) transient from aligning the frame with the eigendirections.

    Once a step returns a frame q with the bytes of the frame one step back
    (its input) or two steps back (as under a rotation), the later steps
    repeat the last one or two (q, r) in turn, so the remaining rows are
    filled with those steps' rows and the loop stops, in the warmup or in
    the accumulation.  The bytes are compared, not the values, since
    -0.0 == 0.0.
    """
    if n_steps < 100:
        raise PreconditionError("need at least 100 accumulation steps")
    m = f.matrix.to_numpy()
    q, r = np.eye(2), None
    back = [b"", q.tobytes()]  # the frames two steps and one step back
    logs = np.empty((n_steps, 2))
    for k in range(-QR_WARMUP, n_steps):
        r_in = r
        q, r = np.linalg.qr(m @ q)
        if k >= 0:
            logs[k] = np.log(np.abs(np.diagonal(r)))
        q_bytes = q.tobytes()
        if q_bytes in back:
            # step t > k repeats step k - (k - t) % period
            period = 2 - back.index(q_bytes)
            last = [np.log(np.abs(np.diagonal(s))) for s in (r_in, r)[2 - period :]]
            j = max(k + 1, 0)
            for t in range(j, min(j + period, n_steps)):
                logs[t::period] = last[-1 - (k - t) % period]
            break
        back = [back[1], q_bytes]
    if not np.isfinite(logs).all():
        raise PreconditionError("QR orbit left the float range")
    means = logs.mean(axis=0)
    lam_u, lam_s = float(means.max()), float(means.min())
    batch = np.array([b.mean(axis=0) for b in np.array_split(logs, 10)])
    stderr = mean_stderr(batch.max(axis=1))
    return LyapunovReport(lam_u, lam_s, LyapunovMethod.QR_ORBIT, stderr)


# ---------------------------------------------------------------------------
# periodic points


def lattice_action_4x4(f: TorusAutomorphism) -> IntMatrix:
    """Action of M on the rank-4 lattice in the (a1, b1, a2, b2) basis."""
    (a, b), (c, d) = f.matrix.entries
    return IntMatrix.from_rows(
        [
            [a, 0, b, 0],
            [0, a, 0, b],
            [c, 0, d, 0],
            [0, c, 0, d],
        ]
    )


def fix_count(f: TorusAutomorphism, n: int) -> int:
    """Number of fixed points of the n-th iterate: |det(M^n - I)|^2 exactly."""
    mn = f.matrix.power(n)
    delta = mn + IntMatrix.identity(2).scale(-1)
    d = delta.det()
    if d == 0:
        raise DegeneratePeriodError(f"M^{n} has eigenvalue 1; fixed set not finite")
    return d * d


def _iterate_smith_form(f: TorusAutomorphism, n: int):
    """Smith form U (M^n - I) V = D of the 4x4 lattice action of f^n minus
    the identity; returns the diagonal of D and V."""
    a4 = lattice_action_4x4(replace_matrix(f, f.matrix.power(n)))
    _, d, v = smith_normal_form(a4 + IntMatrix.identity(4).scale(-1))
    return [d.entries[i][i] for i in range(4)], v


def fix_enumerate(f: TorusAutomorphism, n: int, cap: int = FIX_CAP) -> PeriodicEnsemble:
    """All fixed points of the n-th iterate by Smith-form coset enumeration.

    Each d_c divides d4, so coordinate r of V (k / d) mod 1 is N_r / d4 with
    N_r = sum_c W[r][c] k_c mod d4, W[r][c] = V[r][c] (d4 / d_c).  The k run
    over the Smith divisors in itertools.product order (the last fastest).
    W is reduced mod d4 first, so each product is below d4^2 and the sums
    fit in int64: d4 divides the count, which the cap holds to FIX_CAP.
    A cap above FIX_CAP is refused before any count: each point costs 32
    bytes of table, and building it takes twice that at the peak.
    """
    if cap > FIX_CAP:
        raise PreconditionError(f"cap {cap} exceeds FIX_CAP = {FIX_CAP}")
    count = fix_count(f, n)
    if count > cap:
        raise CapExceededError(f"{count} fixed points exceed the cap {cap}")
    diag, v = _iterate_smith_form(f, n)
    if any(di == 0 for di in diag):
        raise InternalInvariantError("nonzero determinant left a zero divisor")
    d4 = diag[3]
    if any(d4 % di for di in diag):
        raise InternalInvariantError("Smith divisors do not divide the last one")
    w = np.array(
        [[v.entries[r][c] * (d4 // diag[c]) % d4 for r in range(4)] for c in range(4)],
        dtype=np.int64,
    )
    table = np.indices(diag).reshape(4, -1).T @ w
    table %= d4
    if len(table) != count:
        raise InternalInvariantError("enumeration disagrees with the Lefschetz count")
    if not (table.min() >= 0 and table.max() < d4):
        raise InternalInvariantError("lattice coordinates left [0, 1)")
    return PeriodicEnsemble(period=n, numerators=table, denominator=d4, count=count)


# ---------------------------------------------------------------------------
# equidistribution


@dataclass(frozen=True)
class WeylReport:
    """Character sums of an ensemble over all nonzero frequencies up to k_max."""

    k_max: int
    max_abs: float
    max_nontrivial_abs: float
    trivial_frequencies: tuple[tuple[int, int, int, int], ...]


def _frequency_vectors(k_max: int):
    """The nonzero frequencies of sup-norm at most k_max, lazily; k_max below
    1, or more than FIX_CAP frequencies, is refused before any is built."""
    if k_max < 1:
        raise PreconditionError("k_max must be at least 1")
    total = (2 * k_max + 1) ** 4 - 1
    if total > FIX_CAP:
        raise CapExceededError(f"{total} frequencies exceed the cap {FIX_CAP}")
    ks = itertools.product(range(-k_max, k_max + 1), repeat=4)
    return (k for k in ks if k != (0, 0, 0, 0))


# Slots of the cos/sin table one Weyl-sum call builds: 2**16 keys and
# complex values take 1.5 MB.  A periodic ensemble at n = 5 has 1229
# distinct phases; a table of 2**12 or 2**14 slots collides often enough to
# lose most of the saving.
_COS_SIN_SLOTS = 1 << 16
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _cos_sin_cache(slots: int) -> tuple[np.ndarray, np.ndarray]:
    """An empty _cos_sin table of slots keys (a power of two) and values;
    every slot starts as the key +0.0 with its value cos 0 + i sin 0 = 1."""
    return np.zeros(slots, dtype=np.uint64), np.ones(slots, dtype=complex)


def _cos_sin(p: np.ndarray, out: np.ndarray, cache) -> None:
    """Write np.cos(p) into out.real and np.sin(p) into out.imag, bit for bit.

    cache = (keys, values) from _cos_sin_cache.  A phase picks its slot by
    the top bits of a multiplicative hash of its float64 bits, and a slot
    whose key has those bits hands back its stored value, so each distinct
    phase costs one cos and one sin while it keeps its slot.  Every entry is
    read before any slot changes; the missed phases are then stored as keys
    and the values computed from the keys as stored: when several misses
    share a slot, numpy keeps one of them, and its value is then the cos and
    sin of that same key.  A missed phase whose slot went to another key is
    evaluated directly.
    """
    keys, values = cache
    bits = p.view(np.uint64)
    shift = np.uint64(65 - len(keys).bit_length())
    slot = ((bits * _HASH_MULTIPLIER) >> shift).view(np.int64)
    # Every slot is below len(keys), so mode="wrap" never wraps; it only
    # spares the bounds check and the buffered copy of out that "raise" makes.
    miss = np.take(keys, slot, mode="wrap") != bits
    np.take(values, slot, out=out, mode="wrap")
    if miss.any():
        taken = slot[miss]
        missed = bits[miss]
        keys[taken] = missed
        stored = keys[taken]
        values.real[taken] = np.cos(stored.view(np.float64))
        values.imag[taken] = np.sin(stored.view(np.float64))
        fill = values[taken]
        other = stored != missed
        direct = missed[other].view(np.float64)
        fill.real[other] = np.cos(direct)
        fill.imag[other] = np.sin(direct)
        out[miss] = fill


def equidistribution_test(e: PeriodicEnsemble, k_max: int) -> WeylReport:
    """Weyl sums W(k) = mean of exp(2 pi i <k, coords>) over the ensemble.

    For a periodic ensemble the points form a subgroup, so each |W(k)| is
    exactly 0 or 1; frequencies with |W(k)| > 1e-10 are the characters
    trivial on that subgroup.
    """
    freqs = _frequency_vectors(k_max)
    if not len(e.numerators):
        raise EmptyEnsembleError("no points to average over")
    # both divisions are correctly rounded, so these are float(Fraction) bits
    x = e.numerators / e.denominator
    ks = np.array(list(freqs))
    # The block row count is pinned by the output bytes: block @ x.T can round
    # differently for another count (1-row blocks change max_nontrivial_abs).
    chunk_rows = max(1, 4_000_000 // len(x))
    # exp(2j*pi*P) = cexp(+-0 + i*two_pi*P) is (cos, sin) of two_pi*P bit for bit.
    # The 16-row sub-block is not pinned: a row's mean is the same in any count.
    # The cos/sin table lives for this call only.
    two_pi = (2j * np.pi).imag
    buf = np.empty((min(16, chunk_rows), len(x)), dtype=complex)
    cache = _cos_sin_cache(_COS_SIN_SLOTS)
    max_abs = 0.0
    max_nontrivial = 0.0
    trivial: list[tuple[int, int, int, int]] = []
    for start in range(0, len(ks), chunk_rows):
        block = ks[start : start + chunk_rows]
        phase = block @ x.T
        phase *= two_pi
        w = np.empty(len(block))
        for r in range(0, len(block), len(buf)):
            p = phase[r : r + len(buf)]
            sub = buf[: len(p)]
            _cos_sin(p, sub, cache)
            w[r : r + len(p)] = np.abs(sub.mean(axis=1))
        # phase and its last view p go before the next block @ x.T, so one
        # block is live at a time
        del phase, p
        max_abs = max(max_abs, float(w.max()))
        for kvec, wa in zip(block, w):
            if wa > WEYL_TRIVIAL_TOL:
                trivial.append(tuple(int(c) for c in kvec))
            else:
                max_nontrivial = max(max_nontrivial, float(wa))
    return WeylReport(
        k_max=k_max,
        max_abs=max_abs,
        max_nontrivial_abs=max_nontrivial,
        trivial_frequencies=tuple(trivial),
    )


def trivial_character_count(
    f: TorusAutomorphism, n: int, k_max: int
) -> tuple[int, int]:
    """Exact count of frequencies trivial on the period-n subgroup.

    Works from the Smith-form generators without enumerating points, so it
    stays cheap when the fixed-point count is far beyond the enumeration
    cap.  Returns (trivial, total) over nonzero frequencies with
    sup-norm at most k_max.
    """
    freqs = _frequency_vectors(k_max)
    fix_count(f, n)
    diag, v = _iterate_smith_form(f, n)
    cols = [[v.entries[r][j] for r in range(4)] for j in range(4)]
    trivial = 0
    total = 0
    for k in freqs:
        total += 1
        if all(
            sum(k[r] * cols[j][r] for r in range(4)) % diag[j] == 0
            for j in range(4)
        ):
            trivial += 1
    return trivial, total


# ---------------------------------------------------------------------------
# quotient projection


def kummer_project(p: TorusPoint) -> TorusPoint:
    """Canonical representative on the sign-involution quotient: the
    lexicographic minimum of {p, -p}."""
    neg = -p
    return p if p.coords <= neg.coords else neg


def _act_mod1(m: IntMatrix, x, y) -> tuple:
    """The integer 2x2 matrix m applied to the column (x, y), mod 1."""
    (a, b), (c, d) = m.entries
    return (a * x + b * y) % 1, (c * x + d * y) % 1


# ---------------------------------------------------------------------------
# induced cohomology action

H2_BASIS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def h2_action(f: TorusAutomorphism) -> IntMatrix:
    """Induced action on degree-2 cohomology of the 4-torus: the exterior
    square of the rank-4 lattice action, basis e_i ^ e_j in lex order."""
    a = lattice_action_4x4(f).entries
    rows = []
    for i, j in H2_BASIS_PAIRS:
        rows.append(
            [
                a[i][k] * a[j][l] - a[i][l] * a[j][k]
                for k, l in H2_BASIS_PAIRS
            ]
        )
    return IntMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# sampling, distance, local dimension


def haar_samples(n: int, rng_seed: int) -> np.ndarray:
    """n uniform points in lattice coordinates, shape (n, 4).

    n above FIX_CAP is refused before anything is allocated: the samples
    take 32 bytes each and the local dimension estimate several times that,
    so a count that fits in virtual memory could still exhaust RAM.
    """
    if n < 0:
        raise PreconditionError("sample count must be nonnegative")
    if n > FIX_CAP:
        raise CapExceededError(f"{n} samples exceed the cap {FIX_CAP}")
    return np.random.default_rng(rng_seed).random((n, 4))


def _min_translate_form(form, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Smallest form(c0 + s, c1 + t) over the 3x3 translates s, t in {-1, 0, 1}."""
    q_min = np.full(len(c0), np.inf)
    shifts = (-1.0, 0.0, 1.0)
    for u, v in itertools.product([c0 + s for s in shifts], [c1 + t for t in shifts]):
        np.minimum(q_min, form(u, v), out=q_min)
    return q_min


def torus_distance(
    lattice: TorusLattice,
) -> Callable[..., np.ndarray]:
    """Flat quotient metric from the embedding z = a + b*tau per coordinate.

    Coordinates are wrapped to the centered cell and the quadratic form is
    minimized over the 3x3 grid of lattice translates.  That grid is
    exhaustive for tau in the standard fundamental domain |Re tau| <= 1/2,
    |tau| >= 1; any other tau, or |tau| > 1e150, where |tau|^2 would leave
    the float range, raises PreconditionError.

    dist(samples, i, cutoff) may return inf for a point farther than cutoff
    from point i; every other entry has the bits of the uncut metric.  Only
    points with lam * |d|^2 <= cutoff^2 * (1 + slack) run the translate
    search, where d is the wrapped difference and lam the smallest
    eigenvalue of the Gram form [[1, Re tau], [Re tau, |tau|^2]].  The bound
    is conservative: for wrapped |d_k| <= 1/2 every translate d + s has
    |d + s| >= |d|, and the form is at least lam |.|^2 on each one.  lam is
    at least 3/8 on the fundamental domain, so the slack of 1e-9 |tau|^2
    covers the rounding of the form many times over.  cutoff = inf keeps
    every point.

    A coordinate pair whose zero translate z has computed form q00 <
    (1 - slack) / 4 keeps q00 without the search, which gives the search's
    bits: on the fundamental domain every nonzero lattice vector w has
    |w| >= 1, so |z| < 1/2 puts every other translate at |z + w| >= 1 - |z|
    > 1/2 > |z|.  Rounding moves each computed form by a few ulps of its
    terms, at most about 1e-15 |tau|^2 (the translates' coordinates are at
    most 3/2), and the domain check's 1e-12 tolerance shortens w by less
    than 1e-11; the slack keeps |z| below 1/2 - 2.5e-10 |tau|^2, so each
    other translate's computed form exceeds 1/4 and q00 stays the minimum.

    dist works column by column on samples.T: a column-major (n, 4) array,
    as haar_dimension passes, is read contiguously; any other layout gives
    the same bits, only slower.  The wrapped columns and their sum of
    squares go to work rows allocated on each call.
    """
    re = lattice.tau.real
    if abs(re) > 0.5 + 1e-12 or not 1.0 - 1e-12 <= abs(lattice.tau) <= 1e150:
        raise PreconditionError("torus_distance needs |Re tau| <= 1/2, 1 <= |tau| <= 1e150")
    g00, g01, g10, g11 = 1.0, re, re, abs(lattice.tau) ** 2
    lam = float(np.linalg.eigvalsh([[g00, g01], [g10, g11]])[0])
    slack = 1e-9 * g11
    near = 0.25 * (1.0 - slack)

    def form(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
        # The operation order is pinned by the output bytes: (c0*g01)*c1 and
        # (c1*g10)*c0 round differently.
        return (c0 * g00) * c0 + (c0 * g01) * c1 + (c1 * g10) * c0 + (c1 * g11) * c1

    def dist(samples: np.ndarray, i: int, cutoff: float) -> np.ndarray:
        x = np.asarray(samples, dtype=float)
        *d, r2, t0, t1 = np.empty((7, len(x)))
        for col, dk in zip(x.T, d):
            np.subtract(col, col[i], out=dk)
            dk -= np.round(dk, out=t0)
        # |d|^2 as (d0^2 + d2^2) + (d1^2 + d3^2), the order of a row einsum
        # on C-ordered rows under numpy 2.4 on x86-64; any other order moves
        # it by an ulp or two, far inside the slack
        np.multiply(d[0], d[0], out=r2)
        r2 += np.multiply(d[2], d[2], out=t0)
        np.multiply(d[1], d[1], out=t0)
        t0 += np.multiply(d[3], d[3], out=t1)
        r2 += t0
        r2 *= lam
        keep = np.flatnonzero(r2 <= cutoff * cutoff * (1.0 + slack))
        d = [dk[keep] for dk in d]
        q = []
        for c0, c1 in ((d[0], d[1]), (d[2], d[3])):
            # The (0, 0) translate.  The search adds 0.0 to c0 and c1, which
            # keeps their bits: dk - round(dk) is never -0.0.
            q_min = form(c0, c1)
            far = np.flatnonzero(~(q_min < near))
            q_min[far] = _min_translate_form(form, c0[far], c1[far])
            q.append(q_min)
        out = np.full(len(x), np.inf)
        out[keep] = np.sqrt(q[0] + q[1])
        return out

    return dist


def mean_stderr(values) -> float:
    """Standard error of the mean of a sample; 0.0 for a single value."""
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _ball_counts(d: np.ndarray, i: int, r_arr: np.ndarray) -> np.ndarray:
    """Entries of d other than d[i] with d <= r, for each radius r of r_arr:
    one count_nonzero over the whole row per radius, less d[i] whatever
    distance it holds, which gives the integers of np.delete(d, i) without
    its copy.  Gathering the entries within the largest radius first would
    cost more than it saves: a boolean gather of 10^5 entries takes longer
    than the eight counts."""
    return np.array([np.count_nonzero(d <= r) for r in r_arr]) - (d[i] <= r_arr)


def local_dimension_estimate(
    samples: Sequence,
    dist: Callable[[Sequence, int, float], np.ndarray],
    radii: Sequence[float],
    probes: int,
    rng_seed: int = 0,
) -> tuple[float, float]:
    """Local dimension from ball-count scaling at randomly chosen probes.

    For each probe the slope of log(neighbor fraction within r) against
    log r is fit by least squares over the radii with at least one
    neighbor (the probe itself is excluded).  Returns the mean slope over
    probes and its standard error, so at least 2 probes must be asked for
    and at least 2 must give a slope: one slope has no error bar.

    dist(samples, i, cutoff) returns the distances from sample i, with the
    largest radius as cutoff: an entry for a sample farther than cutoff may
    be inf (or any value above cutoff), since only counts d <= r are read.
    """
    n = len(samples)
    if n < 1000:
        raise InsufficientSamplesError(f"{n} samples; need at least 1000")
    if probes < 2 or probes > n:
        raise PreconditionError("probes must be between 2 and the sample count")
    r_arr = np.array(sorted((float(r) for r in radii), reverse=True))
    if len(r_arr) < 2 or r_arr[-1] <= 0:
        raise PreconditionError("need at least two positive radii")
    if r_arr[0] / r_arr[-1] < 10.0:
        raise PreconditionError("radii must span at least one decade")
    log_r = np.log(r_arr)
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(n, size=probes, replace=False)
    slopes = []
    empty_at_largest = 0
    for i in idx:
        d = np.asarray(dist(samples, int(i), r_arr[0]), dtype=float)
        counts = _ball_counts(d, int(i), r_arr)
        if counts[0] == 0:
            empty_at_largest += 1
            continue
        mask = counts > 0
        if mask.sum() < 2:
            continue
        y = np.log(counts[mask] / n)
        slopes.append(float(np.polyfit(log_r[mask], y, 1)[0]))
    if 2 * empty_at_largest > probes:
        raise DegenerateRadiiError(
            "most probes see no neighbors at the largest radius"
        )
    if len(slopes) < 2:
        raise DegenerateRadiiError("fewer than 2 probes give a slope")
    return float(np.mean(slopes)), mean_stderr(slopes)


def haar_dimension(
    lattice: TorusLattice, n_samples: int, probes: int, rng_seed: int
) -> tuple[float, float]:
    """Local dimension of n_samples Haar points in the flat torus metric; the
    samples come from rng_seed and the probes from rng_seed + 1.  The samples
    are copied to column-major order, so the metric reads each coordinate
    column contiguously."""
    samples = np.asfortranarray(haar_samples(n_samples, rng_seed))
    return local_dimension_estimate(
        samples, torus_distance(lattice), DIMENSION_RADII, probes, rng_seed + 1
    )
