"""Property tests for the exact torus layer.

Random unimodular 2x2 matrices drive the periodic-point enumeration
against a plain Fraction reference loop and the Lefschetz count; random
small integer matrices check the Smith normal form contract that the
enumeration relies on; random moduli in the standard fundamental domain
check the torus metric against a wide brute-force translate search.

The Weyl sums and the torus metric must also keep their bits: they are
compared bit for bit against reference kernels written with complex np.exp
and np.einsum.  The Weyl-sum equality rests on the numpy build (np.cos and
np.sin equal the parts of complex np.exp), so a build where it does not
hold fails here under a named test.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kummerlab.errors import PreconditionError
from kummerlab.lattice_algebra import IntMatrix, smith_normal_form
from kummerlab.torus_kummer import (
    WEYL_TRIVIAL_TOL,
    TorusAutomorphism,
    TorusLattice,
    TorusPoint,
    equidistribution_test,
    fix_enumerate,
    lattice_action_4x4,
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
        assert np.max(np.abs(dist(x, i) - brute_distance(x, i, tau))) < 1e-12


def exp_weyl_reference(points, k_max: int):
    """Weyl sums as np.exp of the whole complex phase block."""
    x = np.array([p.to_floats() for p in points])
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
        assert np.array_equal(dist(x, i), einsum_distance_reference(x, i, tau))


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
