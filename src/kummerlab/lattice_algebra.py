"""Exact integer linear algebra on cohomology lattices.

An automorphism of a compact complex surface acts on the second cohomology
lattice as an isometry of a nondegenerate integral quadratic form of
signature (1, h-1) on the (1,1) part.  Everything dynamically interesting
about that action is integral: the characteristic polynomial, the dynamical
degree (the spectral radius, attained by a real eigenvalue), and the
factor structure splitting off the minimal polynomial of the degree from a
product of cyclotomic polynomials.  This module computes those data with
exact integer arithmetic; floating point enters only when locating roots,
and every reported root carries a residual certificate against the exact
polynomial.

Conventions.  Matrices act on column vectors; the matrix of an operator has
the images of the basis vectors as its columns.  Polynomial coefficient
sequences are stored constant term first, so ``coeffs[k]`` multiplies
``t**k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InternalInvariantError,
    NonInvertibleError,
    NotIsometryError,
    PreconditionError,
    SearchExhaustedError,
    SplitViolationError,
    UnsupportedDegreeError,
    WrongRankError,
    WrongSignatureError,
)

# Largest polynomial degree (or matrix dimension) the spectral routines
# accept.  The cohomology lattices in scope have rank at most 22, so this is
# generous; anything above it raises UnsupportedDegreeError, before the
# totient sieve up to 2 d^2 and rather than an incomplete factorization.
MAX_FACTOR_DEGREE = 105

# A root counts as lying on the unit circle when its modulus is within this
# of 1, and a dynamical degree counts as 1 under the same tolerance.
UNIT_CIRCLE_TOL = 1e-10

# Iteration caps of the dominant-root search: power iteration on the
# companion matrix, then Newton polish of a real witness.
POWER_ITERATIONS = 3000
NEWTON_POLISH_STEPS = 100

# Largest Pell parameter u searched for the fundamental rank-2 isometry.
PELL_BOUND = 1_000_000

# Largest |x| searched for a vector of square -2 in a rank-2 lattice.
RANK2_SEARCH_BOUND = 10_000

# Longest range a factor search walks: trial division up to isqrt(|c|) for a
# coefficient c, or the 2 bmax + 1 middle coefficients of a quadratic factor.
# 10**6 trial divisions take about 0.07 s; the lattices in scope stay below
# 100.  A longer range is refused before its first step.
FACTOR_SEARCH_CAP = 10**6


# ---------------------------------------------------------------------------
# integer matrices


@dataclass(frozen=True)
class IntMatrix:
    """A square matrix with (arbitrary precision) integer entries."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise DimensionMismatchError("matrix must be square")
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("dimension mismatch in product")
        n = self.dim
        cols = list(zip(*other.entries))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("dimension mismatch in sum")
        return IntMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * x for x in row) for row in self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.dim))

    def det(self) -> int:
        return _bareiss_det([list(row) for row in self.entries])

    def power(self, k: int) -> "IntMatrix":
        """Exact k-th power; negative k requires det = +-1."""
        if k < 0:
            return self.inverse_unimodular().power(-k)
        result = IntMatrix.identity(self.dim)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def inverse_unimodular(self) -> "IntMatrix":
        """Inverse V @ U from the self-checked Smith form U @ m @ V = I;
        only valid when det = +-1."""
        if self.det() not in (1, -1):
            raise NonInvertibleError("matrix is not unimodular")
        u, _, v = smith_normal_form(self)
        return v @ u

    def to_numpy(self) -> np.ndarray:
        return float_array(self.entries)


def float_array(values) -> np.ndarray:
    """Exact integers as a float array; PreconditionError beyond the float range."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise PreconditionError("integer too large to convert to float") from None


def _bareiss_det(a: list[list[int]]) -> int:
    """Fraction-free determinant; all intermediate divisions are exact."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, D, V) with U @ m @ V = D diagonal.

    Diagonal entries are nonnegative and each divides the next.  Used for
    coset enumeration of finite quotients Z^n / m Z^n.
    """
    n = m.dim
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def reduce_at(t: int):
        # clear row t and column t beyond the pivot, smallest pivot first
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                        best = abs(a[i][j])
                        pivot = (i, j)
            if pivot is None:
                return
            i, j = pivot
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            dirty = False
            for i in range(t + 1, n):
                q = a[i][t] // a[t][t]
                if q:
                    add_row(i, t, -q)
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    add_col(j, t, -q)
                if a[t][j]:
                    dirty = True
            if not dirty:
                return

    for t in range(n):
        reduce_at(t)
    # enforce the divisibility chain d_t | d_{t+1}; after mixing column s
    # into column t the block reduction restores diagonal form with the
    # pivot gcd(d_t, d_s) at position t
    changed = True
    while changed:
        changed = False
        for t in range(n - 1):
            for s in range(t + 1, n):
                if a[t][t] != 0 and a[s][s] % a[t][t] != 0:
                    add_col(t, s, 1)
                    reduce_at(t)
                    changed = True
    for t in range(n):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    U = IntMatrix.from_rows(u)
    D = IntMatrix.from_rows(a)
    V = IntMatrix.from_rows(v)
    if (U @ m @ V).entries != D.entries:
        raise InternalInvariantError("smith normal form transform check failed")
    if abs(U.det()) != 1 or abs(V.det()) != 1:
        raise InternalInvariantError("smith normal form transforms not unimodular")
    return U, D, V


# ---------------------------------------------------------------------------
# integer polynomials


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients constant term first, leading nonzero."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int]) -> "IntPolynomial":
        c = [int(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial.from_coeffs(
            [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    def divides_into(self, other: "IntPolynomial"):
        """If self divides other exactly over Z, return the quotient; the
        first quotient term that is not an integer rules it out."""
        if self.coeffs == (0,):
            raise ZeroDivisionError
        num = list(other.coeffs)
        quo = [0] * max(1, len(num) - self.degree)
        for shift in range(len(num) - len(self.coeffs), -1, -1):
            factor, r = divmod(num[shift + self.degree], self.leading)
            if r:
                return None
            quo[shift] = factor
            for i, c in enumerate(self.coeffs):
                num[shift + i] -= factor * c
        return None if any(num) else IntPolynomial.from_coeffs(quo)

    def content(self) -> int:
        return math.gcd(*[abs(c) for c in self.coeffs]) or 1

    def primitive(self) -> "IntPolynomial":
        g = self.content()
        sign = 1 if self.leading > 0 else -1
        return IntPolynomial.from_coeffs([sign * c // g for c in self.coeffs])

    def is_reciprocal(self) -> bool:
        rev = tuple(reversed(self.coeffs))
        return rev == self.coeffs or rev == tuple(-c for c in self.coeffs)

    def roots(self) -> np.ndarray:
        """All complex roots, leading-coefficient first companion solve."""
        return np.roots(float_array(self.coeffs[::-1]))


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by exact division of t^n - 1."""
    num = IntPolynomial.from_coeffs([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            quo = cyclotomic(d).divides_into(num)
            if quo is None:
                raise InternalInvariantError("cyclotomic division must be exact")
            num = quo
    return num


@lru_cache(maxsize=8)
def _totients_up_to(limit: int) -> tuple[int, ...]:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return tuple(phi)


def _cyclotomic_candidates(degree: int) -> Iterator[int]:
    # phi(n) >= sqrt(n/2) for all n, so n <= 2*degree^2 suffices
    limit = max(2, 2 * degree * degree)
    phi = _totients_up_to(limit)
    for n in range(1, limit + 1):
        if phi[n] <= degree:
            yield n


# ---------------------------------------------------------------------------
# characteristic polynomial and dominant roots


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(tI - m) by the Faddeev-LeVerrier
    recurrence; every division is exact over Z."""
    n = m.dim
    coeffs_desc = [1]
    mk = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = m @ mk
        tr = am.trace()
        if tr % k != 0:
            raise InternalInvariantError("Faddeev-LeVerrier division not exact")
        ck = -(tr // k)
        coeffs_desc.append(ck)
        mk = am + IntMatrix.identity(n).scale(ck)
    # by Cayley-Hamilton the final auxiliary matrix must vanish
    if any(x != 0 for row in mk.entries for x in row):
        raise InternalInvariantError("Cayley-Hamilton check failed")
    return IntPolynomial.from_coeffs(list(reversed(coeffs_desc)))


def _relative_residual(p: IntPolynomial, x: complex) -> float:
    try:
        num = abs(complex(p(complex(x))))
        den = sum(abs(c) * abs(x) ** k for k, c in enumerate(p.coeffs))
    except OverflowError:
        # x^degree leaves the float range: divide every term by it
        y, d = 1 / complex(x), p.degree
        num = abs(sum(c * y ** (d - k) for k, c in enumerate(p.coeffs)))
        den = sum(abs(c) * abs(y) ** (d - k) for k, c in enumerate(p.coeffs))
    return num / den if den else num


def _companion_apply(coeffs: tuple[int, ...], vec: np.ndarray) -> np.ndarray:
    # multiplication by t modulo p, in the basis 1, t, ..., t^{d-1}
    d = len(coeffs) - 1
    lead = coeffs[-1]
    out = np.empty(d, dtype=complex)
    out[1:] = vec[:-1]
    out[0] = 0.0
    out -= (vec[-1] / lead) * np.array(coeffs[:-1], dtype=float)
    return out


def _dominant_by_power_iteration(p: IntPolynomial):
    """Dominant eigenvalue of the companion matrix by power iteration with a
    Rayleigh quotient; returns None when the iteration does not settle
    (dominant complex pair or tied moduli)."""
    d = p.degree
    if d == 0:
        return None
    vec = np.ones(d, dtype=complex) / math.sqrt(d)
    est = None
    for _ in range(POWER_ITERATIONS):
        img = _companion_apply(p.coeffs, vec)
        with np.errstate(over="ignore"):  # an overflowing norm ends the iteration
            nrm = np.linalg.norm(img)
        if nrm == 0 or not np.isfinite(nrm):
            return None
        ratio = complex(np.vdot(vec, img))  # Rayleigh quotient, |vec| = 1
        if est is not None and abs(ratio - est) < 1e-14 * max(1.0, abs(ratio)):
            return ratio
        est = ratio
        vec = img / nrm
    return None


def _newton_polish(p: IntPolynomial, x0: float) -> float:
    dp = p.derivative()
    x = float(x0)
    for _ in range(NEWTON_POLISH_STEPS):
        fx = float(p(x))
        dfx = float(dp(x))
        if dfx == 0.0:
            break
        step = fx / dfx
        x -= step
        if abs(step) <= 1e-17 * max(1.0, abs(x)):
            break
    return x


def dominant_root(p: IntPolynomial) -> tuple[float, complex, float]:
    """Locate the largest-modulus root of p.

    Returns (lambda, witness_root, relative_residual) where lambda is the
    modulus, witness_root is a complex root attaining it, and the residual
    certifies the witness against the exact coefficients.  When the witness
    is real it is polished by Newton iteration on the exact polynomial.
    """
    if p.degree == 0:
        raise PreconditionError("constant polynomial has no roots")
    roots = p.roots()  # first: it refuses coefficients beyond the float range
    est = _dominant_by_power_iteration(p)
    witness = roots[np.argmax(np.abs(roots))]
    if est is not None and abs(est.imag) <= 1e-8 * max(1.0, abs(est.real)):
        polished = _newton_polish(p, est.real)
        if abs(abs(polished) - abs(witness)) <= 1e-6 * max(1.0, abs(witness)):
            witness = complex(polished)
    elif abs(witness.imag) <= 1e-8 * max(1.0, abs(witness.real)):
        witness = complex(_newton_polish(p, witness.real))
    lam = abs(witness)
    return lam, witness, _relative_residual(p, witness)


# ---------------------------------------------------------------------------
# factor extraction and Salem classification


class SpectralClass(Enum):
    ONE = "ONE"
    RECIPROCAL_QUADRATIC = "RECIPROCAL_QUADRATIC"
    SALEM = "SALEM"
    OTHER = "OTHER"


def cyclotomic_strip(
    p: IntPolynomial,
) -> tuple[IntPolynomial, list[tuple[int, int]], int]:
    """Factor out powers of t and every cyclotomic factor, exactly.

    Returns (remainder, [(n, multiplicity), ...], t_power).  The remainder
    has no roots of unity among its roots, which gives an exact certificate
    for spectral radius 1: it holds iff the remainder is constant.
    """
    p = p.primitive()
    t_power = 0
    while p.degree > 0 and p.coeffs[0] == 0:
        p = IntPolynomial.from_coeffs(p.coeffs[1:])
        t_power += 1
    stripped: list[tuple[int, int]] = []
    for n in _cyclotomic_candidates(p.degree):
        p, count = _strip_factor(p, cyclotomic(n))
        if count:
            stripped.append((n, count))
        if p.degree == 0:
            break
    return p, stripped, t_power


def _strip_factor(p: IntPolynomial, f: IntPolynomial) -> tuple[IntPolynomial, int]:
    count = 0
    while p.degree >= f.degree:
        quo = f.divides_into(p)
        if quo is None:
            break
        p = quo
        count += 1
    return p, count


def _rational_root_factors(p: IntPolynomial) -> Iterator[IntPolynomial]:
    # candidate linear factors a*t - b with b | constant, a | leading
    leads, consts = _divisors(p.leading), _divisors(p.coeffs[0])
    for a in leads:
        for b in consts:
            for sb in (b, -b):
                cand = IntPolynomial.from_coeffs([-sb, a]).primitive()
                if cand.divides_into(p) is not None:
                    yield cand


def _check_trial_division(n: int) -> None:
    if math.isqrt(abs(n)) > FACTOR_SEARCH_CAP:
        raise CapExceededError(
            f"a {abs(n).bit_length()}-bit coefficient needs over {FACTOR_SEARCH_CAP} trial divisions")


def _divisors(n: int) -> list[int]:
    n = abs(n)
    _check_trial_division(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _quadratic_factors(p: IntPolynomial) -> Iterator[IntPolynomial]:
    root_bound = 1.0 + max(abs(c) for c in p.coeffs) / abs(p.leading)
    # the widest b range, 2 bmax + 1 at the largest a = |leading|
    if 4 * root_bound * abs(p.leading) + 3 > FACTOR_SEARCH_CAP:
        raise CapExceededError(
            f"a quadratic factor search needs over {FACTOR_SEARCH_CAP} middle coefficients")
    leads, consts = _divisors(p.leading), _divisors(p.coeffs[0])
    for a in leads:
        bmax = int(math.ceil(2 * root_bound * a)) + 1
        for c in consts:
            for sc in (c, -c):
                for b in range(-bmax, bmax + 1):
                    cand = IntPolynomial.from_coeffs([sc, b, a]).primitive()
                    if cand.divides_into(p) is not None:
                        yield cand


def _check_degree(degree: int) -> None:
    if degree > MAX_FACTOR_DEGREE:
        raise UnsupportedDegreeError(
            f"degree {degree} exceeds the supported factor bound {MAX_FACTOR_DEGREE}"
        )


def minimal_factor(p: IntPolynomial, root: complex) -> IntPolynomial:
    """The factor of p over Z containing the given nonzero (numerical) root.

    Strategy: take the cyclotomic factors that cyclotomic_strip removes,
    then rational-root and integer quadratic factors of its remainder;
    whichever extracted factor annihilates the root is returned, and
    otherwise the stripped remainder is.  For isometries of hyperbolic
    lattices the characteristic polynomial is the minimal polynomial of the
    dynamical degree times a product of cyclotomics, so the remainder
    returned here is that minimal polynomial.
    """
    _check_degree(p.degree)

    def hits(f: IntPolynomial) -> bool:
        try:
            scale = sum(abs(c) * max(1.0, abs(root)) ** k for k, c in enumerate(f.coeffs))
        except OverflowError:
            raise PreconditionError("the root's powers leave the float range") from None
        return abs(complex(f(root))) <= 1e-7 * scale

    rem, cyclos, _ = cyclotomic_strip(p)
    for n, _ in cyclos:
        if hits(cyclotomic(n)):
            return cyclotomic(n)
    # linear and quadratic factors are regenerated after every strip since
    # the candidate sets depend on the current constant and leading terms;
    # the remainder has a nonzero constant term, so t is never a candidate;
    # one of degree <= 3 with no rational root is irreducible (Gauss's lemma)
    for generate, low in ((_rational_root_factors, 1), (_quadratic_factors, 4)):
        while rem.degree >= low and (f := next(generate(rem), None)) is not None:
            if hits(f):
                return f
            rem, _ = _strip_factor(rem, f)
    if rem.degree == 0 or not hits(rem):
        raise InternalInvariantError("factor extraction lost the target root")
    return rem


def _classify_remainder(
    rem: IntPolynomial, witness: complex, lam: float
) -> tuple[SpectralClass, IntPolynomial]:
    """Classify a cyclotomic-free remainder whose radius exceeds 1.

    Working on the stripped remainder keeps repeated roots of unity in the
    original polynomial from polluting the numerical circle tests: their
    clusters scatter by roughly eps**(1/multiplicity) under root finding,
    but here they have already been removed exactly.
    """
    factor = minimal_factor(rem, witness)
    if factor.degree == 2 and factor.is_reciprocal():
        return SpectralClass.RECIPROCAL_QUADRATIC, factor
    roots = rem.roots()
    outside = [r for r in roots if abs(r) > 1 + UNIT_CIRCLE_TOL]
    if len(outside) != 1 or abs(witness.imag) > 1e-8 * lam:
        return SpectralClass.OTHER, factor
    # relative: an absolute 1e-6 cannot tell 1/lam from -1/lam once lam > 2e6
    has_reciprocal = any(abs(r - 1 / witness) <= 1e-6 / lam for r in roots)
    others_on_circle = all(
        abs(abs(r) - 1) <= UNIT_CIRCLE_TOL
        for r in roots
        if abs(r - witness) > 1e-6 and abs(r - 1 / witness) > 1e-6 / lam
    )
    if has_reciprocal and others_on_circle:
        return SpectralClass.SALEM, factor
    return SpectralClass.OTHER, factor


@dataclass(frozen=True)
class SpectralReport:
    """Dynamical degree data of an integer matrix action.

    min_poly is psi_f, the factor of char_poly over Z that has the dominant
    root as a root; it is t - 1 when lambda_f is exactly 1, and t for a
    nilpotent action.
    """

    char_poly: IntPolynomial
    lambda_f: float
    residual: float
    classification: SpectralClass
    min_poly: IntPolynomial

    @property
    def min_poly_degree(self) -> int:
        return self.min_poly.degree

    @property
    def kummer_possible(self) -> bool:
        return self.min_poly.degree <= 4

    @property
    def entropy(self) -> float:
        return math.log(self.lambda_f)

    @property
    def measure_verdict(self) -> str:
        """Consequence of the degree criterion: a dynamical degree whose
        minimal polynomial has degree at least 5 forces a singular measure
        of maximal entropy; degree at most 4 leaves it undetermined."""
        return "undetermined by degree" if self.kummer_possible else "mu_f singular"


def spectral_report(p: IntPolynomial) -> SpectralReport:
    """Spectral radius, certified classification, and degree criterion.

    The radius-1 case is decided exactly: after stripping powers of t and
    all cyclotomic factors, the radius is 1 iff a cyclotomic factor was
    present and the remainder is constant or has radius at most 1.
    """
    if p.degree < 1:
        raise PreconditionError("spectral data needs a nonconstant polynomial")
    _check_degree(p.degree)
    rem, cyclos, _ = cyclotomic_strip(p)
    lam = None
    witness = None
    if rem.degree > 0:
        lam, witness, _ = dominant_root(rem)
    if witness is None or lam <= 1 + UNIT_CIRCLE_TOL:
        if cyclos:
            # lambda_f is exactly 1, whose minimal polynomial is t - 1
            return SpectralReport(p, 1.0, 0.0, SpectralClass.ONE, IntPolynomial((-1, 1)))
        if witness is None:
            # pure power of t: nilpotent action, radius 0
            return SpectralReport(p, 0.0, 0.0, SpectralClass.OTHER, IntPolynomial((0, 1)))
        classification, factor = SpectralClass.OTHER, minimal_factor(rem, witness)
    else:
        classification, factor = _classify_remainder(rem, witness, lam)
    return SpectralReport(p, lam, _relative_residual(p, witness), classification, factor)


def dynamical_degree(m: IntMatrix) -> SpectralReport:
    """Spectral data of the action of m on a cohomology lattice."""
    _check_degree(m.dim)
    if (det := m.det()) == 0:
        raise NonInvertibleError("matrix is singular over Q")
    # minimal_factor trial-divides +-det, the stripped remainder's constant term
    _check_trial_division(det)
    return spectral_report(char_poly(m))


# ---------------------------------------------------------------------------
# quadratic lattices


@dataclass(frozen=True)
class QuadraticLattice:
    """Free Z-module with an integral symmetric bilinear form (Gram matrix)."""

    gram: IntMatrix

    def __post_init__(self):
        g = self.gram.entries
        if any(g[i][j] != g[j][i] for i in range(len(g)) for j in range(len(g))):
            raise PreconditionError("gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return self.gram.dim

    def is_even(self) -> bool:
        return all(self.gram.entries[i][i] % 2 == 0 for i in range(self.rank))


def isometry_check(m: IntMatrix, lattice: QuadraticLattice) -> bool:
    if m.dim != lattice.rank:
        raise DimensionMismatchError("matrix and lattice ranks differ")
    return (m.transpose() @ lattice.gram @ m).entries == lattice.gram.entries


def signature(lattice: QuadraticLattice) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) by Descartes' rule of signs on the
    exact characteristic polynomial p of the Gram matrix.

    A real symmetric matrix has only real eigenvalues, so with z the power
    of t dividing p, q = p / t^z has every root real and nonzero.  For such
    a q the sign changes of q(t) count its positive roots exactly and those
    of q(-t) its negative roots: each count is at least its number of roots,
    and the two counts add up to at most deg q, which is the number of roots.
    The counts skip zero coefficients, so p(t) and p(-t) give those of q(t)
    and +-q(-t) without dividing out t^z.
    """
    coeffs = char_poly(lattice.gram).coeffs
    zero = next(k for k, c in enumerate(coeffs) if c)
    q_pos = [c for c in coeffs if c]
    q_neg = [-c if k % 2 else c for k, c in enumerate(coeffs) if c]
    return _sign_changes(q_pos), _sign_changes(q_neg), zero


def _sign_changes(cs: list[int]) -> int:
    return sum(a * b < 0 for a, b in zip(cs, cs[1:]))


@dataclass(frozen=True)
class SplittingReport:
    """Characteristic polynomial split of a lattice isometry with degree > 1:
    the minimal polynomial of the dynamical degree times a cyclotomic part."""

    psi_f: IntPolynomial
    cyclotomic_part: IntPolynomial
    non_cyclotomic: IntPolynomial | None


def nf_splitting(m: IntMatrix, lattice: QuadraticLattice) -> SplittingReport:
    """Split char_poly(m) as psi_f times its complement.

    lambda_f and psi_f come from spectral_report; the complement's
    non-cyclotomic part must have every root on the unit circle.
    """
    if not isometry_check(m, lattice):
        raise NotIsometryError("matrix does not preserve the form")
    p = char_poly(m)
    rep = spectral_report(p)
    if rep.lambda_f <= 1 + UNIT_CIRCLE_TOL:
        raise PreconditionError("splitting requires dynamical degree > 1")
    psi = rep.min_poly
    comp = psi.divides_into(p)
    if comp is None:
        raise InternalInvariantError("extracted factor does not divide")
    # the non-cyclotomic complement must lie on the unit circle; test it on
    # the exactly-stripped complement so repeated cyclotomic roots cannot
    # trip the numerical check
    leftover, _, _ = cyclotomic_strip(comp)
    for r in leftover.roots():
        if abs(abs(r) - 1) > UNIT_CIRCLE_TOL:
            raise SplitViolationError(
                "complement has a root off the unit circle; splitting fails"
            )
    non_cyclo = None if leftover.degree == 0 else leftover
    return SplittingReport(psi_f=psi, cyclotomic_part=comp, non_cyclotomic=non_cyclo)


# ---------------------------------------------------------------------------
# rank-2 Picard analysis


@dataclass(frozen=True)
class Rank2Analysis:
    """Arithmetic of a rank-2 hyperbolic lattice controlling automorphisms.

    A projective K3-like surface with rank-2 Picard lattice has infinite
    automorphism group exactly when the form represents neither 0 nor -2;
    in that case the group is up to finite index generated by a hyperbolic
    isometry whose dilation factor is lambda_psi.
    """

    represents_zero: bool
    represents_minus_two: bool
    aut_infinite: bool
    lambda_psi: float | None


def represents_value(lattice: QuadraticLattice, value: int, bound: int) -> bool:
    """Whether q(x, y) = value has an integer solution with |x| <= bound
    (y is solved exactly per x, so it is unrestricted)."""
    if bound < 0:
        raise PreconditionError("search bound must be nonnegative")
    g = lattice.gram.entries
    a, b, c = g[0][0], g[0][1], g[1][1]
    for x in range(0, bound + 1):
        # c*y^2 + 2*b*x*y + (a*x^2 - value) = 0
        if c == 0:
            if b != 0 and x != 0:
                num = -(a * x * x - value)
                if num % (2 * b * x) == 0:
                    return True
            elif a * x * x == value:
                return True
            continue
        disc = (b * x) ** 2 - c * (a * x * x - value)
        if disc < 0:
            continue
        s = math.isqrt(disc)
        if s * s != disc:
            continue
        for sg in (s, -s):
            if (-b * x + sg) % c == 0:
                return True
    return False


def rank2_analysis(
    lattice: QuadraticLattice, search_bound: int = RANK2_SEARCH_BOUND
) -> Rank2Analysis:
    if lattice.rank != 2:
        raise WrongRankError("analysis requires a rank-2 lattice")
    g = lattice.gram.entries
    # the Gram's determinant is -disc, the product of its two eigenvalues:
    # signature (1,1) exactly when disc > 0
    disc = g[0][1] * g[0][1] - g[0][0] * g[1][1]
    if disc <= 0:
        raise WrongSignatureError("analysis requires signature (1,1)")
    rep_zero = math.isqrt(disc) ** 2 == disc
    rep_minus_two = represents_value(lattice, -2, search_bound)
    aut_inf = not rep_zero and not rep_minus_two
    return Rank2Analysis(
        represents_zero=rep_zero,
        represents_minus_two=rep_minus_two,
        aut_infinite=aut_inf,
        lambda_psi=_fundamental_dilation(lattice) if aut_inf else None,
    )


def _fundamental_dilation(lattice: QuadraticLattice) -> float:
    """Dilation factor of the fundamental orientation-preserving hyperbolic
    isometry, via the classical automorph parametrization: solutions of
    t^2 - D u^2 = 4 for the discriminant D of the primitive binary form."""
    g = lattice.gram.entries
    a, b, c = g[0][0], 2 * g[0][1], g[1][1]
    d = math.gcd(a, math.gcd(b, c))
    a, b, c = a // d, b // d, c // d
    D = b * b - 4 * a * c
    for u in range(1, PELL_BOUND + 1):
        t2 = D * u * u + 4
        t = math.isqrt(t2)
        if t * t == t2:
            # automorph [[(t-b u)/2, -c u], [a u, (t+b u)/2]] has det 1,
            # trace t, so its larger eigenvalue is (t + u sqrt(D)) / 2
            return (t + u * math.sqrt(D)) / 2
    raise SearchExhaustedError(
        f"no fundamental isometry with Pell parameter u <= {PELL_BOUND}"
    )


# ---------------------------------------------------------------------------
# built-in lattices and actions

# Dynkin diagram of E8, nodes 1..8: chain 1-3-4-5-6-7-8 with 2 attached to 4.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def enriques_lattice() -> QuadraticLattice:
    """The even unimodular lattice U + E8(-1) of signature (1, 9)."""
    n = 10
    g = [[0] * n for _ in range(n)]
    g[0][1] = g[1][0] = 1  # hyperbolic plane
    for i in range(8):
        g[2 + i][2 + i] = -2
    for u, v in _E8_EDGES:
        g[1 + u][1 + v] = g[1 + v][1 + u] = 1
    return QuadraticLattice(IntMatrix.from_rows(g))


def wehler_cohomology_action() -> tuple[IntMatrix, IntMatrix, IntMatrix, QuadraticLattice]:
    """Picard gram of a smooth (2,2,2) surface in (P1)^3 restricted to the
    three hyperplane classes, and the three involution actions on it.

    Each 2:1 coordinate projection induces an involution sending the
    corresponding class h_i to -h_i + 2 h_j + 2 h_k and fixing the others.
    """
    gram = QuadraticLattice(IntMatrix.from_rows([[0, 2, 2], [2, 0, 2], [2, 2, 0]]))
    m1 = IntMatrix.from_rows([[-1, 0, 0], [2, 1, 0], [2, 0, 1]])
    m2 = IntMatrix.from_rows([[1, 2, 0], [0, -1, 0], [0, 2, 1]])
    m3 = IntMatrix.from_rows([[1, 0, 2], [0, 1, 2], [0, 0, -1]])
    return m1, m2, m3, gram


# convenient named polynomials

LEHMER_POLY = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
"""Lehmer's degree-10 polynomial, the conjectural minimum of Salem numbers."""

PLASTIC_POLY = IntPolynomial((-1, -1, 0, 1))
"""x^3 - x - 1, whose real root is the smallest Pisot number."""
