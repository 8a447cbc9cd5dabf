"""Property tests for the exact torus layer.

Random unimodular 2x2 matrices drive the periodic-point enumeration
against a plain Fraction reference loop and the Lefschetz count, and fixed
maps up to 102 400 points, some with unequal Smith divisors, check its
int64 table row for row against the former Fraction-table loop; random
small integer matrices check the Smith normal form contract that the
enumeration relies on; random moduli in the standard fundamental domain
check the torus metric against a wide brute-force translate search.

The Weyl sums and the torus metric must also keep their bits: they are
compared bit for bit against reference kernels written with complex np.exp
and np.einsum.  The Weyl-sum equality rests on the numpy build (np.cos and
np.sin equal the parts of complex np.exp), so a build where it does not
hold fails here under a named test.  The torus metric's cutoff must keep
the bits of every distance within it and put every other point beyond it,
so the local dimension estimate is that of the uncut metric; its shortcut
for pairs with |z| < 1/2 must keep the bits a few ulps from |z| = 1/2.
Its bytes must not depend on the samples' memory layout or on what one
closure computed before, and the Haar dimension estimate is pinned to
the bit.

The lattice layer keeps one engine per question; each rewritten routine is
checked against a test-local copy of the code it replaced.  The inverse of
a random unimodular matrix must equal the cofactor adjugate; exact division
must equal long division over Q; minimal_factor must equal the former
cyclotomic loop on products of cyclotomics with a non-cyclotomic factor,
at the dominant root and at a root of unity; nf_splitting must equal
its former sequence of public calls on conjugated isometries; and the
signature read by Descartes' rule off the characteristic polynomial must
equal the former congruence reduction over Q on full, low-rank and
zero-diagonal Grams, while rank2_analysis refuses every 2x2 Gram but the
indefinite nondegenerate ones with one message.
"""

import cmath
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kummerlab import cli
from kummerlab import torus_kummer as tk
from kummerlab.errors import (
    InternalInvariantError,
    KummerlabError,
    NonInvertibleError,
    NotIsometryError,
    PreconditionError,
    SplitViolationError,
    UnsupportedDegreeError,
    WrongSignatureError,
)
from kummerlab.lattice_algebra import (
    LEHMER_POLY,
    MAX_FACTOR_DEGREE,
    PLASTIC_POLY,
    UNIT_CIRCLE_TOL,
    IntMatrix,
    IntPolynomial,
    QuadraticLattice,
    SplittingReport,
    _cyclotomic_candidates,
    _divisors,
    char_poly,
    cyclotomic,
    cyclotomic_strip,
    dominant_root,
    isometry_check,
    minimal_factor,
    nf_splitting,
    rank2_analysis,
    signature,
    smith_normal_form,
    spectral_report,
    wehler_cohomology_action,
)
from kummerlab.torus_kummer import (
    DIMENSION_RADII,
    TAU_I,
    TAU_ZETA3,
    WEYL_TRIVIAL_TOL,
    TorusAutomorphism,
    TorusLattice,
    TorusPoint,
    equidistribution_test,
    fix_enumerate,
    haar_samples,
    lattice_action_4x4,
    local_dimension_estimate,
    torus_distance,
)

ENUM_LIMIT = 5000


def lefschetz_count(m: IntMatrix, n: int) -> int:
    (a, b), (c, d) = m.power(n).entries
    return ((a - 1) * (d - 1) - b * c) ** 2


@st.composite
def unimodular_and_period(draw):
    """Alternating upper and lower transvections, optionally times
    diag(1, -1), so det is +-1; and a period n in 1..6 whose fixed set is
    finite and at most ENUM_LIMIT points."""
    m = IntMatrix.identity(2)
    steps = st.sampled_from([-3, -2, -1, 1, 2, 3])
    ts = draw(st.lists(steps, min_size=1, max_size=4))
    for i, t in enumerate(ts):
        m = m @ IntMatrix.from_rows([[1, t], [0, 1]] if i % 2 else [[1, 0], [t, 1]])
    if draw(st.booleans()):
        m = m @ IntMatrix.from_rows([[1, 0], [0, -1]])
    periods = [n for n in range(1, 7) if 0 < lefschetz_count(m, n) <= ENUM_LIMIT]
    assume(periods)
    return m, draw(st.sampled_from(periods))


def fraction_reference(f: TorusAutomorphism, n: int):
    """Coset enumeration V (k / d) mod 1 with every product a Fraction."""
    a4 = lattice_action_4x4(TorusAutomorphism(f.matrix.power(n)))
    _, d, v = smith_normal_form(a4 + IntMatrix.identity(4).scale(-1))
    diag = [d.entries[i][i] for i in range(4)]
    points = []
    for ks in itertools.product(*(range(di) for di in diag)):
        y = [Fraction(ks[i], diag[i]) for i in range(4)]
        points.append(
            tuple(
                sum((v.entries[r][c] * y[c] for c in range(4)), Fraction(0)) % 1
                for r in range(4)
            )
        )
    return points


@settings(max_examples=40, deadline=None)
@given(unimodular_and_period())
# Smith divisors [2, 2, 18, 18]: a divisor strictly between 1 and d4
@example((IntMatrix.from_rows([[0, 1], [1, 3]]), 3))
def test_fix_enumerate_matches_fraction_loop_and_lefschetz(case):
    m, n = case
    count = lefschetz_count(m, n)
    f = TorusAutomorphism(m)
    e = fix_enumerate(f, n)
    coords = [p.coords for p in e.points]
    assert coords == fraction_reference(f, n)
    assert all(type(c) is Fraction for p in coords for c in p)
    assert e.count == len(e.points) == count
    assert len(set(e.points)) == count
    for p in e.points:
        assert f.apply_n(p, n) == p


def table_loop_reference(f: TorusAutomorphism, n: int):
    """The former fix_enumerate body: one Fraction table lookup per
    coordinate, the k in itertools.product order."""
    a4 = lattice_action_4x4(TorusAutomorphism(f.matrix.power(n)))
    _, d, v = smith_normal_form(a4 + IntMatrix.identity(4).scale(-1))
    diag = [d.entries[i][i] for i in range(4)]
    d4 = diag[3]
    w = [[v.entries[r][c] * (d4 // diag[c]) for c in range(4)] for r in range(4)]
    table = [Fraction(j, d4) for j in range(d4)]
    points = []
    for k0, k1, k2, k3 in itertools.product(*(range(di) for di in diag)):
        points.append(
            tuple(table[(a * k0 + b * k1 + c * k2 + e * k3) % d4] for a, b, c, e in w)
        )
    return diag, points


@pytest.mark.parametrize(
    "rows, n, diag",
    [([[2, 1], [1, 1]], n, None) for n in range(1, 7)]
    + [([[3, 2], [1, 1]], 2, [2, 2, 6, 6]), ([[2, 1], [1, 1]], 4, [3, 3, 15, 15])],
)
def test_integer_table_matches_former_fraction_loop(rows, n, diag):
    f = TorusAutomorphism(IntMatrix.from_rows(rows))
    ref_diag, ref = table_loop_reference(f, n)
    if diag is not None:
        assert ref_diag == diag
    e = fix_enumerate(f, n)
    d4 = e.denominator
    assert d4 == ref_diag[3] and e.numerators.dtype == np.int64
    assert e.numerators.shape == (e.count, 4) == (len(ref), 4)
    assert [p.coords for p in e.points] == ref
    assert e.numerators.tolist() == [[int(c * d4) for c in p] for p in ref]
    # the Weyl sums read the table as numerators / d4: float(Fraction)'s bits
    floats = np.array([[float(c) for c in p] for p in ref])
    assert (e.numerators / d4).tobytes() == floats.tobytes()


@st.composite
def int_square(draw):
    n = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(-8, 8), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return IntMatrix.from_rows(rows)


@settings(max_examples=200, deadline=None)
@given(int_square())
def test_smith_normal_form_contract(a):
    u, d, v = smith_normal_form(a)
    n = a.dim
    assert (u @ a @ v).entries == d.entries
    assert u.det() in (1, -1) and v.det() in (1, -1)
    for i in range(n):
        for j in range(n):
            assert d.entries[i][j] >= 0 if i == j else d.entries[i][j] == 0
    diag = [d.entries[i][i] for i in range(n)]
    for di, dnext in zip(diag, diag[1:]):
        assert dnext == 0 if di == 0 else dnext % di == 0


def brute_distance(x: np.ndarray, i: int, tau: complex) -> np.ndarray:
    d = x - x[i]
    d -= np.round(d)
    total = np.zeros(len(x))
    for pa, pb in ((0, 1), (2, 3)):
        total += np.min(
            [
                np.abs((d[:, pa] + s) + (d[:, pb] + t) * tau) ** 2
                for s, t in itertools.product(range(-6, 7), repeat=2)
            ],
            axis=0,
        )
    return np.sqrt(total)


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.5, 0.5), st.floats(0.0, 2.0), st.integers(0, 2**16))
def test_torus_distance_exhaustive_on_fundamental_domain(re, lift, seed):
    tau = complex(re, np.sqrt(1.0 - re * re) + lift)
    dist = torus_distance(TorusLattice(tau))
    x = np.random.default_rng(seed).random((64, 4))
    for i in (0, 1, 2):
        err = np.abs(dist(x, i, math.inf) - brute_distance(x, i, tau))
        assert np.max(err) < 1e-12


def exp_weyl_reference(points, k_max: int):
    """Weyl sums as np.exp of the whole complex phase block."""
    x = np.array([[float(c) for c in p.coords] for p in points])
    ks = np.array(
        [k for k in itertools.product(range(-k_max, k_max + 1), repeat=4) if any(k)]
    )
    chunk_rows = max(1, 4_000_000 // len(points))
    max_abs = max_nontrivial = 0.0
    trivial = []
    for start in range(0, len(ks), chunk_rows):
        block = ks[start : start + chunk_rows]
        w = np.abs(np.exp(2j * np.pi * (block @ x.T)).mean(axis=1))
        max_abs = max(max_abs, float(w.max()))
        for kvec, wa in zip(block, w):
            if wa > WEYL_TRIVIAL_TOL:
                trivial.append(tuple(int(c) for c in kvec))
            else:
                max_nontrivial = max(max_nontrivial, float(wa))
    return max_abs, max_nontrivial, tuple(trivial)


@pytest.mark.golden
@settings(max_examples=25, deadline=None)
@given(unimodular_and_period(), st.integers(1, 3))
@example((IntMatrix.from_rows([[2, 1], [1, 1]]), 4), 3)
def test_equidistribution_bits_match_exp_reference(case, k_max):
    m, n = case
    e = fix_enumerate(TorusAutomorphism(m), n)
    rep = equidistribution_test(e, k_max)
    max_abs, max_nontrivial, trivial = exp_weyl_reference(e.points, k_max)
    assert rep.max_abs.hex() == max_abs.hex()
    assert rep.max_nontrivial_abs.hex() == max_nontrivial.hex()
    assert rep.trivial_frequencies == trivial


def cos_sin_reference(p: np.ndarray) -> np.ndarray:
    """np.cos and np.sin of p written into a complex array."""
    z = np.empty(p.shape, dtype=complex)
    np.cos(p, out=z.real)
    np.sin(p, out=z.imag)
    return z


@pytest.mark.golden
@pytest.mark.parametrize("slots", [1, 2, 1 << 16])
@pytest.mark.parametrize("size", [1, 2, 3, 17])
def test_cos_sin_cache_bits_match_direct(slots, size):
    """Fresh phases, phases an earlier call stored, and repeated phases
    (signed zeros among them), all through one table; with 1 or 2 slots
    nearly every phase collides with another."""
    rng = np.random.default_rng([slots, size])
    cache = tk._cos_sin_cache(slots)
    fresh = rng.uniform(-100.0, 100.0, (1, size))
    seen = np.where(rng.random((1, size)) < 0.5, fresh, rng.uniform(-1e4, 1e4, (1, size)))
    pool = np.concatenate([fresh.ravel(), [0.0, -0.0, 2.5]])
    repeated = rng.choice(pool, (2, size))
    for p in (fresh, seen, repeated, fresh):
        out = np.empty(p.shape, dtype=complex)
        tk._cos_sin(p, out, cache)
        assert out.tobytes() == cos_sin_reference(p).tobytes()


def einsum_distance_reference(x: np.ndarray, i: int, tau: complex) -> np.ndarray:
    """The torus metric as one einsum over a (n, 9, 2) translate array."""
    gram = np.array([[1.0, tau.real], [tau.real, abs(tau) ** 2]])
    shifts = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=2)))
    d = x - x[i]
    d -= np.round(d)
    total = np.zeros(len(x))
    for pair in ((0, 1), (2, 3)):
        cand = d[:, pair][:, None, :] + shifts[None, :, :]
        total += np.einsum("nsa,ab,nsb->ns", cand, gram, cand).min(axis=1)
    return np.sqrt(total)


@pytest.mark.golden
@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.sampled_from([-0.5, 0.5]), st.floats(-0.5, 0.5)),
    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    st.integers(0, 2**16),
)
@example(0.0, 0.0, 0)  # tau = i
@example(0.3, 1.2 - np.sqrt(0.91), 1)  # tau = 0.3 + 1.2i
@example(-0.5, 0.0, 2)  # tau = zeta3, a corner of the domain
def test_torus_distance_bits_match_einsum_reference(re, lift, seed):
    tau = complex(re, np.sqrt(1.0 - re * re) + lift)
    dist = torus_distance(TorusLattice(tau))
    x = np.random.default_rng(seed).random((500, 4))
    for i in (0, 1, 499):
        ref = einsum_distance_reference(x, i, tau)
        assert np.array_equal(dist(x, i, math.inf), ref)


@pytest.mark.golden
@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.sampled_from([-0.5, 0.5]), st.floats(-0.5, 0.5)),
    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    st.floats(0.0, 1.5),
    st.integers(0, 2**16),
)
@example(0.0, 0.0, 0.5, 0)  # tau = i
@example(-0.5, 0.0, 0.5, 1)  # tau = zeta3, where lambda_min = 1/2
@example(0.5, 0.0, 0.3, 2)  # Re tau = 1/2, |tau| = 1
def test_torus_distance_cutoff_keeps_bits_within(re, lift, cutoff, seed):
    """Within the cutoff the bits are the uncut metric's; beyond it, > cutoff.

    Cutoff 0 keeps the probe and its duplicate (row 1), and a cutoff equal
    to a computed distance keeps that point even where squaring the cutoff
    rounds below the prefilter's own sum of squares."""
    tau = complex(re, np.sqrt(1.0 - re * re) + lift)
    dist = torus_distance(TorusLattice(tau))
    x = np.random.default_rng(seed).random((500, 4))
    x[1] = x[0]
    for i in (0, 1, 499):
        full = dist(x, i, math.inf)
        for c in (cutoff, 0.0, *full[seed % 25 :: 25].tolist()):
            cut = dist(x, i, c)
            inside = full <= c
            assert cut[inside].tobytes() == full[inside].tobytes()
            assert np.all(cut[~inside] > c)


def near_half_pairs(tau: complex, rng, n: int) -> np.ndarray:
    """n lattice-coordinate pairs (c0, c1) within a few ulps of |z| = 1/2,
    z = c0 + c1*tau: half at midpoints w/2 of the vectors w = 1, tau,
    1 + tau and 1 - tau (ties between the zero translate and -w where w is
    a shortest vector), half at random angles; then every pair drawn from
    {-1/2, 0, 1/2} and its neighbouring floats."""
    mid = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5], [0.5, -0.5]])
    z = 0.5 * np.exp(2j * np.pi * rng.random(n - n // 2))
    c1 = z.imag / tau.imag
    circle = np.stack([z.real - c1 * tau.real, c1], axis=1)
    pairs = np.concatenate(
        [mid[rng.integers(0, 4, n // 2)] * rng.choice([-1.0, 1.0], (n // 2, 1)), circle]
    )
    pairs += rng.integers(-4, 5, pairs.shape) * np.spacing(pairs)
    edge = np.array([-0.5, np.nextafter(-0.5, 0), 0.0, np.nextafter(0.5, 0), 0.5])
    grid = np.array(list(itertools.product(edge, repeat=2)))
    return np.concatenate([grid, pairs])


@pytest.mark.golden
@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.sampled_from(
            [TAU_ZETA3, complex(0.5, math.sqrt(0.75)), TAU_I, 0.5 + 1j, 0.3 + 1e3j]
        ),
        st.builds(
            lambda re, lift: complex(re, math.sqrt(1.0 - re * re) + lift),
            st.one_of(st.sampled_from([-0.5, 0.5]), st.floats(-0.5, 0.5)),
            st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(10.0, 1e4)),
        ),
    ),
    st.integers(0, 2**16),
)
def test_torus_distance_shortcut_keeps_bits_near_half(tau, seed):
    """Rows a few ulps from |z| = 1/2 get the einsum reference's bits, and
    both the zero-translate shortcut and the 9-translate search run."""
    rng = np.random.default_rng(seed)
    pairs = near_half_pairs(tau, rng, 400)
    x = np.concatenate([np.zeros((1, 4)), np.hstack([pairs, rng.permutation(pairs)])])
    dist = torus_distance(TorusLattice(tau))
    with mock.patch.object(
        tk, "_min_translate_form", wraps=tk._min_translate_form
    ) as search:
        for i in (0, int(rng.integers(1, len(x)))):
            out = dist(x, i, math.inf)
            assert out.tobytes() == einsum_distance_reference(x, i, tau).tobytes()
    searched = [len(c[0][1]) for c in search.call_args_list]
    assert len(searched) == 4
    assert all(0 < k < len(x) for k in searched)


@pytest.mark.golden
@pytest.mark.parametrize("tau", [TAU_I, TAU_ZETA3, 0.5 + 1j, 0.3 + 1e3j])
def test_torus_distance_searches_the_slack_band(tau):
    """Pairs with |z|^2 = (1 - slack/2)/4, inside the slack band below 1/4,
    run the translate search; pairs at (1 - 2 slack)/4 keep the zero
    translate.  The angles keep both lattice coordinates inside the
    centered cell, so the wrap leaves every pair where it is."""
    slack = 1e-9 * abs(tau) ** 2
    z = 0.5 * np.exp(2j * np.pi * np.random.default_rng(0).random(400))
    c1 = z.imag / tau.imag
    z = z[np.maximum(np.abs(z.real - c1 * tau.real), np.abs(c1)) < 0.49][:50]
    rings = []
    for scale in (math.sqrt(1.0 - 2.0 * slack), math.sqrt(1.0 - 0.5 * slack)):
        c1 = scale * z.imag / tau.imag
        rings.append(np.stack([scale * z.real - c1 * tau.real, c1], axis=1))
    inner, band = rings
    x = np.concatenate(
        [np.zeros((1, 4)), np.hstack([inner, band]), np.hstack([band, inner])]
    )
    with mock.patch.object(
        tk, "_min_translate_form", wraps=tk._min_translate_form
    ) as search:
        out = torus_distance(TorusLattice(tau))(x, 0, math.inf)
    assert [len(c[0][1]) for c in search.call_args_list] == [50, 50]
    assert out.tobytes() == einsum_distance_reference(x, 0, tau).tobytes()


@pytest.mark.golden
@pytest.mark.parametrize(
    "tau", [TAU_I, 0.3 + 1.2j, TAU_ZETA3, 0.5 + 1j, complex(0.3, math.sqrt(0.91))]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_dimension_estimate_cutoff_matches_uncut(tau, seed):
    dist = torus_distance(TorusLattice(tau))
    samples = haar_samples(10**4, seed)

    def uncut(s, i, cutoff):
        return dist(s, i, math.inf)

    args = (DIMENSION_RADII, 64, seed + 1)
    assert local_dimension_estimate(samples, dist, *args) == local_dimension_estimate(
        samples, uncut, *args
    )


HAAR_DIMENSION_GOLDEN = [
    (TAU_I, 0, "0x1.024be73b3e05bp+2", "0x1.02f16db8d4f6fp-5"),
    (TAU_I, 1, "0x1.f92ca16ffae96p+1", "0x1.19266f15c7d33p-5"),
    (TAU_I, 2, "0x1.fffdb4da88b6cp+1", "0x1.0ea188ae99c9ap-5"),
    (TAU_ZETA3, 0, "0x1.0160f985717b6p+2", "0x1.abd4a65d54e44p-6"),
    (TAU_ZETA3, 1, "0x1.fe07ada0c9b4ap+1", "0x1.0c7e0add6f394p-5"),
    (TAU_ZETA3, 2, "0x1.000f6dc5aedcep+2", "0x1.f05bf718cc1e7p-6"),
    (0.3 + 1.2j, 0, "0x1.01428251cf421p+2", "0x1.fe0aceaac06b1p-6"),
    (0.3 + 1.2j, 1, "0x1.f6b008549ee40p+1", "0x1.60683046d7448p-5"),
    (0.3 + 1.2j, 2, "0x1.013a0a040112dp+2", "0x1.3fa63756f6fd0p-5"),
    (0.5 + 1j, 0, "0x1.02df53eba0f5cp+2", "0x1.f0b7739d8385ep-6"),
    (0.5 + 1j, 1, "0x1.f77bbf246029cp+1", "0x1.17fe060ac7534p-5"),
    (0.5 + 1j, 2, "0x1.0067fa789e008p+2", "0x1.f8e84a9f74a11p-6"),
]


@pytest.mark.golden
@pytest.mark.parametrize("tau, seed, dim, stderr", HAAR_DIMENSION_GOLDEN)
def test_haar_dimension_bits_are_golden(tau, seed, dim, stderr):
    """(dim, stderr) of 20 000 Haar samples at 64 probes, to the bit."""
    est, err = tk.haar_dimension(TorusLattice(complex(tau)), 20000, 64, seed)
    assert (est.hex(), err.hex()) == (dim, stderr)


def dist_cases(n: int, seed: int) -> np.ndarray:
    """n Haar-like rows whose row 1 duplicates row 0, so cutoff 0 keeps two."""
    x = np.random.default_rng(seed).random((n, 4))
    x[1] = x[0]
    return x


@pytest.mark.golden
@pytest.mark.parametrize("tau", [TAU_I, TAU_ZETA3, 0.3 + 1.2j, 0.5 + 1j])
def test_torus_distance_bits_do_not_depend_on_layout(tau):
    c_order = dist_cases(2000, 5)
    f_order = np.asfortranarray(c_order)
    assert f_order.T.flags.c_contiguous
    dist = torus_distance(TorusLattice(tau))
    for i in (0, 1, len(c_order) - 1):
        for cutoff in (math.inf, 0.5, 0.0):
            assert (
                dist(c_order, i, cutoff).tobytes() == dist(f_order, i, cutoff).tobytes()
            )


@pytest.mark.golden
@pytest.mark.parametrize("tau", [TAU_I, TAU_ZETA3, 0.3 + 1.2j])
def test_torus_distance_closure_reuse_matches_fresh_closure(tau):
    """One closure over arrays of changing length, and over an array changed
    in place between calls, returns what a fresh closure returns, each time
    in an array of its own."""
    lattice = TorusLattice(tau)
    dist = torus_distance(lattice)
    got, want = [], []

    def call(x, i, cutoff):
        got.append(dist(x, i, cutoff))
        want.append(torus_distance(lattice)(x, i, cutoff).tobytes())

    call(dist_cases(500, 6), 0, math.inf)
    call(dist_cases(1000, 7), 999, 0.5)
    call(dist_cases(500, 8), 1, 0.0)
    changed = dist_cases(1000, 9)
    call(changed, 3, 0.5)
    changed[::3] *= 0.5
    call(changed, 3, 0.5)
    assert want[3] != want[4]
    for out, ref in zip(got, want):
        assert out.flags.owndata
        assert out.tobytes() == ref


RANGE_TABLE = [
    (Fraction(0), True),
    (Fraction(1, 3), True),
    (Fraction(2, 3), True),
    (Fraction(-1, 3), False),
    (Fraction(1), False),
    (Fraction(4, 3), False),
    (0, True),
    (1, False),
    (-1, False),
    (0.0, True),
    (-0.0, True),
    (0.5, True),
    (0.9999999999999999, True),
    (1.0, False),
    (-1e-300, False),
]


@pytest.mark.golden
@pytest.mark.parametrize("c, accepted", RANGE_TABLE)
def test_torus_point_range_check_table(c, accepted):
    """The integer range check on Fractions accepts what 0 <= c < 1 does."""
    assert (0 <= c < 1) == accepted
    coords = (c, Fraction(0), Fraction(1, 2), Fraction(0))
    if accepted:
        assert TorusPoint(coords).coords == coords
    else:
        with pytest.raises(PreconditionError):
            TorusPoint(coords)


# ---------------------------------------------------------------------------
# lattice layer: one engine per question, against the code it replaced


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (KummerlabError, InternalInvariantError) as err:
        return type(err), str(err)


@st.composite
def unimodular(draw, n):
    """A product of transvections and sign flips, so det is +-1."""
    m = IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 6))):
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        i = draw(st.integers(0, n - 1))
        if n > 1 and draw(st.booleans()):
            j = draw(st.integers(0, n - 2))
            e[i][j + (j >= i)] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        else:
            e[i][i] = -1
        m = m @ IntMatrix.from_rows(e)
    return m


def adjugate_inverse(m: IntMatrix) -> IntMatrix:
    """det * adjugate, from cofactors of Bareiss minors."""
    d, n = m.det(), m.dim

    def minor(i, j):
        sub = [[x for c, x in enumerate(row) if c != j]
               for r, row in enumerate(m.entries) if r != i]
        return IntMatrix.from_rows(sub).det() if sub else 1

    return IntMatrix.from_rows(
        [[d * (-1) ** (i + j) * minor(j, i) for j in range(n)] for i in range(n)]
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(unimodular))
@example(IntMatrix.from_rows([[2, 1], [1, 1]]))
def test_inverse_unimodular_matches_adjugate(m):
    inv = m.inverse_unimodular()
    assert inv == adjugate_inverse(m)
    assert m @ inv == IntMatrix.identity(m.dim)


@settings(max_examples=100, deadline=None)
@given(int_square())
def test_inverse_unimodular_rejects_other_determinants(a):
    assume(a.det() not in (1, -1))
    with pytest.raises(NonInvertibleError):
        a.inverse_unimodular()


def fraction_divides_into(f: IntPolynomial, p: IntPolynomial):
    """Quotient p / f if it is integral, by long division over Q."""
    num = [Fraction(c) for c in p.coeffs]
    den = [Fraction(c) for c in f.coeffs]
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        q[shift] = factor
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        while len(num) > 1 and num[-1] == 0:
            num.pop()
    if any(num) or any(c.denominator != 1 for c in q):
        return None
    return IntPolynomial.from_coeffs([int(c) for c in q])


int_poly = st.lists(st.integers(-6, 6), min_size=1, max_size=7).map(
    IntPolynomial.from_coeffs
)


@settings(max_examples=300, deadline=None)
@given(int_poly, int_poly, st.booleans())
def test_divides_into_matches_fraction_division(f, g, multiply):
    assume(f.coeffs != (0,))
    p = f * g if multiply else g
    assert f.divides_into(p) == fraction_divides_into(f, p)


def former_minimal_factor(p: IntPolynomial, root: complex) -> IntPolynomial:
    """minimal_factor with its own cyclotomic loop, as it was written."""
    p = p.primitive()
    if p.degree > MAX_FACTOR_DEGREE:
        raise UnsupportedDegreeError(
            f"degree {p.degree} exceeds the supported factor bound {MAX_FACTOR_DEGREE}"
        )

    def hits(f):
        scale = sum(abs(c) * max(1.0, abs(root)) ** k for k, c in enumerate(f.coeffs))
        return abs(complex(f(root))) <= 1e-7 * scale

    def strip(p, f):
        count = 0
        while p.degree >= f.degree:
            quo = fraction_divides_into(f, p)
            if quo is None:
                break
            p, count = quo, count + 1
        return p, count

    def rational(p):
        if p.coeffs[0] == 0:
            yield IntPolynomial((0, 1))
            return
        for a in _divisors(p.leading):
            for b in _divisors(p.coeffs[0]):
                for sb in (b, -b):
                    cand = IntPolynomial.from_coeffs([-sb, a]).primitive()
                    if fraction_divides_into(cand, p) is not None:
                        yield cand

    def quadratic(p):
        if p.coeffs[0] == 0:
            return
        root_bound = 1.0 + max(abs(c) for c in p.coeffs) / abs(p.leading)
        for a in _divisors(p.leading):
            bmax = int(math.ceil(2 * root_bound * a)) + 1
            for c in _divisors(p.coeffs[0]):
                for sc in (c, -c):
                    for b in range(-bmax, bmax + 1):
                        cand = IntPolynomial.from_coeffs([sc, b, a]).primitive()
                        if fraction_divides_into(cand, p) is not None:
                            yield cand

    rem = p
    for n in _cyclotomic_candidates(p.degree):
        f = cyclotomic(n)
        if f.degree > rem.degree:
            continue
        stripped, count = strip(rem, f)
        if count:
            if hits(f):
                return f
            rem = stripped
        if rem.degree == 0:
            break
    for generate in (rational, quadratic):
        progress = True
        while progress and rem.degree > 0:
            progress = False
            for f in generate(rem):
                if hits(f):
                    return f
                rem, _ = strip(rem, f)
                progress = True
                break
    if rem.degree == 0 or not hits(rem):
        raise InternalInvariantError("factor extraction lost the target root")
    return rem


NON_CYCLOTOMIC = [
    LEHMER_POLY,
    PLASTIC_POLY,
    IntPolynomial((1, -3, 1)),
    IntPolynomial((1, -18, 1)),
    IntPolynomial((-1, 0, 2)),
]


@st.composite
def cyclotomic_product(draw):
    """One non-cyclotomic factor times up to three Phi_n with n <= 12."""
    p = draw(st.sampled_from(NON_CYCLOTOMIC))
    ns = draw(st.lists(st.integers(1, 12), max_size=3))
    for n in ns:
        p = p * cyclotomic(n)
    return p, ns


LEHMER_PHI1_SQ_PHI6 = (
    LEHMER_POLY * cyclotomic(1) * cyclotomic(1) * cyclotomic(6),
    [1, 1, 6],
)


@settings(max_examples=60, deadline=None)
@given(cyclotomic_product())
@example(LEHMER_PHI1_SQ_PHI6)
def test_minimal_factor_matches_former_cyclotomic_loop(case):
    p, ns = case
    witness = dominant_root(p)[1]
    assert outcome(minimal_factor, p, witness) == outcome(former_minimal_factor, p, witness)
    if ns:
        zeta = cmath.exp(2j * cmath.pi / ns[0])
        assert minimal_factor(p, zeta) == former_minimal_factor(p, zeta) == cyclotomic(ns[0])


@settings(max_examples=60, deadline=None)
@given(cyclotomic_product())
@example(LEHMER_PHI1_SQ_PHI6)
def test_degree_verdict_has_one_spelling(case):
    rep = spectral_report(case[0])
    assert rep.min_poly_degree == rep.min_poly.degree
    expected = "undetermined by degree" if rep.min_poly.degree <= 4 else "mu_f singular"
    assert rep.measure_verdict == cli.spectral_json(rep)["verdict"] == expected


def former_nf_splitting(m: IntMatrix, lattice: QuadraticLattice) -> SplittingReport:
    """nf_splitting as its former strip, root and factor sequence."""
    if not isometry_check(m, lattice):
        raise NotIsometryError("matrix does not preserve the form")
    p = char_poly(m)
    stripped, _, _ = cyclotomic_strip(p)
    if stripped.degree == 0:
        raise PreconditionError("splitting requires dynamical degree > 1")
    lam, witness, _ = dominant_root(stripped)
    if lam <= 1 + UNIT_CIRCLE_TOL:
        raise PreconditionError("splitting requires dynamical degree > 1")
    psi = minimal_factor(stripped, witness)
    leftover = psi.divides_into(stripped)
    if any(abs(abs(r) - 1) > UNIT_CIRCLE_TOL for r in leftover.roots()):
        raise SplitViolationError(
            "complement has a root off the unit circle; splitting fails"
        )
    return SplittingReport(
        psi_f=psi,
        cyclotomic_part=psi.divides_into(p),
        non_cyclotomic=None if leftover.degree == 0 else leftover,
    )


def _rows(rows):
    return IntMatrix.from_rows(rows)


M1, M2, M3, WEHLER_GRAM = wehler_cohomology_action()
SPLITTING_CASES = [
    (M1 @ M2 @ M3, WEHLER_GRAM.gram),
    (_rows([[2, 1], [1, 1]]), _rows([[-2, 1], [1, 2]])),
    # the zero form admits any matrix, so the complement can leave the circle
    (_rows([[2, 0], [0, 3]]), _rows([[0, 0], [0, 0]])),
    (IntMatrix.identity(2), _rows([[0, 1], [1, 0]])),
]


@st.composite
def conjugated_isometry(draw):
    m, gram = draw(st.sampled_from(SPLITTING_CASES))
    g = draw(unimodular(m.dim))
    return adjugate_inverse(g) @ m @ g, QuadraticLattice(g.transpose() @ gram @ g)


@settings(max_examples=80, deadline=None)
@given(conjugated_isometry())
def test_nf_splitting_matches_former_call_sequence(case):
    m, lattice = case
    assert outcome(nf_splitting, m, lattice) == outcome(former_nf_splitting, m, lattice)


def former_signature(lattice: QuadraticLattice) -> tuple[int, int, int]:
    """signature by exact symmetric reduction over Q, as it was written."""
    n = lattice.rank
    a = [[Fraction(x) for x in row] for row in lattice.gram.entries]
    pos = neg = zero = 0

    def add_sym(dst: int, src: int, c: Fraction):
        # congruence transform: simultaneous row and column operation
        for j in range(n):
            a[dst][j] += c * a[src][j]
        for i in range(n):
            a[i][dst] += c * a[i][src]

    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                add_sym(k, off, Fraction(1))
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                add_sym(i, k, -a[i][k] / pivot)
    return pos, neg, zero


def _symmetric(n: int, entry) -> list[list[int]]:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = entry(i, j)
    return g


@st.composite
def symmetric_gram(draw):
    n = draw(st.integers(0, 8))
    return _symmetric(n, lambda i, j: draw(st.integers(-6, 6)))


@st.composite
def low_rank_gram(draw):
    """A sum of at most three terms +-v v^T, so rank and sign are known to
    be small and the zero count is at least n - 3."""
    n = draw(st.integers(1, 8))
    g = [[0] * n for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        s = draw(st.sampled_from((1, -1)))
        for i in range(n):
            for j in range(n):
                g[i][j] += s * v[i] * v[j]
    return g


@st.composite
def hollow_gram(draw):
    """Zero diagonal with some nonzero off-diagonal entry: the reduction's
    off-diagonal pivot branch."""
    n = draw(st.integers(2, 8))
    g = _symmetric(n, lambda i, j: 0 if i == j else draw(st.integers(-4, 4)))
    assume(any(any(row) for row in g))
    return g


@settings(max_examples=300, deadline=None)
@given(st.one_of(symmetric_gram(), low_rank_gram(), hollow_gram()))
@example([[0, 1], [1, 0]])
@example([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
@example([[0, 0], [0, 3]])
def test_signature_matches_former_rational_reduction(g):
    lattice = QuadraticLattice(IntMatrix.from_rows(g))
    assert signature(lattice) == former_signature(lattice)


@pytest.mark.parametrize("gram", [
    [[2, 0], [0, 2]],
    [[-1, 0], [0, -3]],
    [[0, 0], [0, 3]],
    [[1, 1], [1, 1]],
    [[0, 0], [0, 0]],
], ids=["positive", "negative", "semidefinite", "rank-one", "zero"])
def test_rank2_analysis_refuses_all_but_signature_1_1(gram):
    with pytest.raises(WrongSignatureError, match=r"^analysis requires signature \(1,1\)$"):
        rank2_analysis(QuadraticLattice(IntMatrix.from_rows(gram)))


def test_rank2_analysis_reads_isotropy_from_the_discriminant():
    assert rank2_analysis(QuadraticLattice(IntMatrix.from_rows([[0, 1], [1, 0]]))).represents_zero
