import math
import random

import numpy as np
import pytest

from kummerlab.errors import (
    CapExceededError,
    NonInvertibleError,
    NotIsometryError,
    PreconditionError,
    SplitViolationError,
    UnsupportedDegreeError,
    WrongRankError,
    WrongSignatureError,
)
from kummerlab.lattice_algebra import (
    FACTOR_SEARCH_CAP,
    IntMatrix,
    IntPolynomial,
    LEHMER_POLY,
    PLASTIC_POLY,
    QuadraticLattice,
    SpectralClass,
    char_poly,
    cyclotomic,
    cyclotomic_strip,
    dominant_root,
    dynamical_degree,
    enriques_lattice,
    isometry_check,
    minimal_factor,
    nf_splitting,
    rank2_analysis,
    represents_value,
    signature,
    smith_normal_form,
    spectral_report,
    wehler_cohomology_action,
)
from kummerlab import lattice_algebra as la
from kummerlab.lattice_algebra import _divisors, _quadratic_factors

GOLDEN_SQ = (3 + math.sqrt(5)) / 2  # dominant root of t^2 - 3t + 1
WEHLER_LAMBDA = 9 + 4 * math.sqrt(5)

FIB = IntMatrix.from_rows([[2, 1], [1, 1]])


def rand_unimodular(rng, n):
    # product of elementary transvections and permutation flips
    m = IntMatrix.identity(n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[i][j] = rng.randint(-2, 2)
        m = m @ IntMatrix.from_rows(e)
    return m


class TestCharPoly:
    def test_2x2_hand_cofactor(self):
        # det(tI - [[2,1],[1,1]]) = (t-2)(t-1) - 1 = t^2 - 3t + 1
        assert char_poly(FIB).coeffs == (1, -3, 1)

    def test_identity_cube(self):
        p = char_poly(IntMatrix.identity(3))
        assert p.coeffs == (-1, 3, -3, 1)  # (t-1)^3

    def test_matches_bareiss_evaluation(self):
        # independent route: evaluate det(tI - m) at integers via Bareiss
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            p = char_poly(m)
            for t in range(-2, n + 2):
                shifted = IntMatrix.from_rows(
                    [
                        [(t if i == j else 0) - m.entries[i][j] for j in range(n)]
                        for i in range(n)
                    ]
                )
                assert p(t) == shifted.det()

    def test_reciprocal_for_isometry_words(self):
        m1, m2, m3, lattice = wehler_cohomology_action()
        rng = random.Random(3)
        gens = [m1, m2, m3]
        for _ in range(100):
            word = IntMatrix.identity(3)
            for _ in range(rng.randint(1, 6)):
                word = word @ rng.choice(gens)
            assert isometry_check(word, lattice)
            assert char_poly(word).is_reciprocal()


class TestSmithNormalForm:
    def test_diagonal_chain(self):
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        _, d, _ = smith_normal_form(m)
        diag = [d.entries[i][i] for i in range(3)]
        for i in range(2):
            assert diag[i] >= 0 and diag[i + 1] % max(diag[i], 1) == 0
        prod = diag[0] * diag[1] * diag[2]
        assert prod == abs(m.det())

    def test_random_consistency(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            )
            u, d, v = smith_normal_form(m)
            assert (u @ m @ v).entries == d.entries
            assert all(
                d.entries[i][j] == 0 for i in range(n) for j in range(n) if i != j
            )


class TestDominantRoot:
    def test_fibonacci_square(self):
        lam, _, res = dominant_root(char_poly(FIB))
        assert abs(lam - GOLDEN_SQ) < 1e-13
        assert res < 1e-12

    def test_plastic_number(self):
        lam, _, res = dominant_root(PLASTIC_POLY)
        assert abs(lam - 1.3247179572) < 1e-9
        assert res < 1e-12

    def test_lehmer_number(self):
        lam, _, res = dominant_root(LEHMER_POLY)
        assert abs(lam - 1.17628081825991) < 1e-10
        assert res < 1e-12

    def test_lehmer_float_newton_map_has_a_two_cycle(self):
        """The float Newton step on LEHMER_POLY swaps two neighbouring
        floats, on either side of the root, so _newton_polish never meets
        its step tolerance there and ends on the member its start decides."""
        lo, hi = 1.1762808182599174, 1.1762808182599176
        dp = LEHMER_POLY.derivative()
        assert float(LEHMER_POLY(lo)) < 0 < float(LEHMER_POLY(hi))
        for x, y in ((lo, hi), (hi, lo)):
            assert x - float(LEHMER_POLY(x)) / float(dp(x)) == y

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the polish ends its 2-cycle on the member its start decides: "
        "...174 from the power-iteration estimate, ...176 from the np.roots "
        "witness; ROADMAP item 10's lattice change drops the power iteration"))
    def test_lehmer_polish_does_not_depend_on_its_start(self):
        """dominant_root polishes from the power-iteration estimate
        1.1762808182600701; polishing the np.roots witness 1.176280818259916
        instead must give the same float for the power iteration to be
        deletable without moving the Lehmer outputs."""
        roots = LEHMER_POLY.roots()
        start = roots[np.argmax(np.abs(roots))].real
        assert dominant_root(LEHMER_POLY)[1].real == la._newton_polish(LEHMER_POLY, start)


class TestSalemClassify:
    def test_one_for_identity(self):
        assert spectral_report(char_poly(IntMatrix.identity(3))).classification is SpectralClass.ONE

    def test_one_for_rotation(self):
        rot = IntMatrix.from_rows([[0, -1], [1, 0]])
        assert spectral_report(char_poly(rot)).classification is SpectralClass.ONE

    def test_reciprocal_quadratic(self):
        assert spectral_report(IntPolynomial((1, -3, 1))).classification is SpectralClass.RECIPROCAL_QUADRATIC

    def test_lehmer_is_salem(self):
        assert spectral_report(LEHMER_POLY).classification is SpectralClass.SALEM
        # structure check: one root outside, its reciprocal inside, 8 on circle
        roots = LEHMER_POLY.roots()
        outside = [r for r in roots if abs(r) > 1 + 1e-10]
        inside = [r for r in roots if abs(r) < 1 - 1e-10]
        on_circle = [r for r in roots if abs(abs(r) - 1) <= 1e-10]
        assert len(outside) == 1 and len(inside) == 1 and len(on_circle) == 8
        assert abs(outside[0] * inside[0] - 1) < 1e-9

    def test_pisot_is_other(self):
        # plastic number: conjugates inside the disk but not on the circle
        assert spectral_report(PLASTIC_POLY).classification is SpectralClass.OTHER

    def test_golden_nonreciprocal_is_other(self):
        assert spectral_report(IntPolynomial((-1, -1, 1))).classification is SpectralClass.OTHER

    def test_salem_times_cyclotomic_keeps_quadratic_class(self):
        p = IntPolynomial((1, -3, 1)) * cyclotomic(4)
        assert spectral_report(p).classification is SpectralClass.RECIPROCAL_QUADRATIC

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        for _ in range(20):
            u = rand_unimodular(rng, 3)
            m = u.inverse_unimodular() @ IntMatrix.from_rows(
                [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
            ) @ u
            rep = dynamical_degree(m)
            assert rep.classification is SpectralClass.RECIPROCAL_QUADRATIC
            assert abs(rep.lambda_f - GOLDEN_SQ) < 1e-9

    def test_repeated_unit_root_is_one(self):
        # roots of (t-1)^3 scatter numerically by about eps^(1/3), so this
        # case must be decided by the exact cyclotomic certificate
        p = IntPolynomial((-1, 3, -3, 1))
        assert spectral_report(p).classification is SpectralClass.ONE
        rep = spectral_report(p)
        assert rep.lambda_f == 1.0
        assert rep.residual == 0.0

    def test_salem_times_repeated_cyclotomic(self):
        p = LEHMER_POLY * cyclotomic(1) * cyclotomic(1)
        assert spectral_report(p).classification is SpectralClass.SALEM


class TestCyclotomicStrip:
    def test_mixed_product(self):
        p = IntPolynomial((1, -18, 1)) * cyclotomic(4) * cyclotomic(1)
        rem, cyclos, t_pow = cyclotomic_strip(p)
        assert rem.coeffs == (1, -18, 1)
        assert sorted(cyclos) == [(1, 1), (4, 1)]
        assert t_pow == 0

    def test_t_power_and_content(self):
        # 2 t^2 (t + 1): content removed, t power counted, phi_2 stripped
        rem, cyclos, t_pow = cyclotomic_strip(IntPolynomial((0, 0, 2, 2)))
        assert t_pow == 2
        assert cyclos == [(2, 1)]
        assert rem.degree == 0


class TestMinimalFactor:
    def test_lehmer_irreducible(self):
        lam, w, _ = dominant_root(LEHMER_POLY)
        assert minimal_factor(LEHMER_POLY, w).degree == 10

    def test_strips_cyclotomic(self):
        p = IntPolynomial((1, -18, 1)) * cyclotomic(2)
        lam, w, _ = dominant_root(p)
        assert minimal_factor(p, w).coeffs == (1, -18, 1)

    def test_two_quadratic_factors(self):
        p = IntPolynomial((1, -3, 1)) * IntPolynomial((1, -5, 1))
        lam, w, _ = dominant_root(p)
        assert minimal_factor(p, w).coeffs == (1, -5, 1)

    def test_quadratic_remainder_is_returned_without_a_search(self, monkeypatch):
        # t^2 - 93 t + 9700 has no rational root, so it is irreducible
        monkeypatch.setattr(la, "_quadratic_factors",
                            lambda p: pytest.fail("quadratic factor search ran"))
        rep = dynamical_degree(IntMatrix.from_rows([[49, 92], [-82, 44]]))
        assert rep.min_poly.coeffs == (9700, -93, 1)

    def test_quadratic_with_a_wide_middle_coefficient(self):
        # the quadratic search here would need over FACTOR_SEARCH_CAP middle
        # coefficients; the remainder is irreducible and needs none
        rep = dynamical_degree(IntMatrix.from_rows([[300000, 1], [1, 1]]))
        assert rep.min_poly.coeffs == (299999, -300001, 1)
        assert rep.classification is SpectralClass.OTHER

    def test_large_root_with_minus_its_inverse_is_not_salem(self):
        # t^2 - 10^7 t - 1 has roots lam and -1/lam, which lie within 1e-6
        # of 1/lam; the quadratic factor search used to refuse it
        rep = dynamical_degree(IntMatrix.from_rows([[10**7, 1], [1, 0]]))
        assert rep.min_poly.coeffs == (-1, -(10**7), 1)
        assert rep.classification is SpectralClass.OTHER

    def test_degree_cap(self):
        coeffs = [0] * 107
        coeffs[0] = -1
        coeffs[1] = -1
        coeffs[106] = 1
        with pytest.raises(UnsupportedDegreeError):
            minimal_factor(IntPolynomial(tuple(coeffs)), 1.01)


class TestDynamicalDegree:
    def test_fibonacci_square_report(self):
        rep = dynamical_degree(FIB)
        assert abs(rep.lambda_f - GOLDEN_SQ) < 1e-12
        assert rep.classification is SpectralClass.RECIPROCAL_QUADRATIC
        assert rep.min_poly_degree == 2
        assert rep.kummer_possible
        assert rep.residual < 1e-12

    def test_singular_raises(self):
        with pytest.raises(NonInvertibleError):
            dynamical_degree(IntMatrix.from_rows([[1, 1], [1, 1]]))

    def test_dimension_above_the_degree_bound_is_refused_first(self, monkeypatch):
        monkeypatch.setattr(IntMatrix, "det", lambda self: pytest.fail("det ran"))
        with pytest.raises(UnsupportedDegreeError):
            dynamical_degree(IntMatrix.identity(106))

    @staticmethod
    def _doubled_shift(n):
        """2I plus the cyclic shift: det = 2^n - (-1)^n."""
        return IntMatrix.from_rows(
            [[2 * (i == j) + (j == (i + 1) % n) for j in range(n)] for i in range(n)])

    def test_huge_determinant_is_refused_before_char_poly(self, monkeypatch):
        monkeypatch.setattr(la, "char_poly", lambda m: pytest.fail("char_poly ran"))
        msg = f"a 106-bit coefficient needs over {FACTOR_SEARCH_CAP} trial divisions"
        with pytest.raises(CapExceededError, match=msg):
            dynamical_degree(self._doubled_shift(105))

    def test_huge_determinant_keeps_its_message(self):
        msg = f"a 60-bit coefficient needs over {FACTOR_SEARCH_CAP} trial divisions"
        with pytest.raises(CapExceededError, match=msg):
            dynamical_degree(self._doubled_shift(60))

    def test_lehmer_report_verdict(self):
        rep = spectral_report(LEHMER_POLY)
        assert rep.classification is SpectralClass.SALEM
        assert rep.min_poly_degree == 10
        assert not rep.kummer_possible
        assert rep.measure_verdict == "mu_f singular"

    def test_entropy_log(self):
        rep = dynamical_degree(FIB)
        assert abs(rep.entropy - math.log(GOLDEN_SQ)) < 1e-12


class TestSignature:
    def test_hyperbolic_plane(self):
        lat = QuadraticLattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
        assert signature(lat) == (1, 1, 0)

    def test_diagonal(self):
        lat = QuadraticLattice(IntMatrix.from_rows([[-2, 0], [0, 2]]))
        assert signature(lat) == (1, 1, 0)

    def test_degenerate(self):
        lat = QuadraticLattice(IntMatrix.from_rows([[0, 0], [0, 3]]))
        assert signature(lat) == (1, 0, 1)

    def test_congruence_invariance(self):
        rng = random.Random(19)
        base = QuadraticLattice(IntMatrix.from_rows([[0, 2, 2], [2, 0, 2], [2, 2, 0]]))
        sig = signature(base)
        for _ in range(20):
            u = rand_unimodular(rng, 3)
            lat = QuadraticLattice(u.transpose() @ base.gram @ u)
            assert signature(lat) == sig


class TestEnriques:
    def test_rank_signature_det_even(self):
        lat = enriques_lattice()
        assert lat.rank == 10
        assert signature(lat) == (1, 9, 0)
        assert lat.gram.det() == -1
        assert lat.is_even()


class TestWehlerAction:
    def test_involutions_and_isometries(self):
        m1, m2, m3, lat = wehler_cohomology_action()
        for m in (m1, m2, m3):
            assert (m @ m).entries == IntMatrix.identity(3).entries
            assert isometry_check(m, lat)

    def test_action_on_classes(self):
        m1, _, _, _ = wehler_cohomology_action()
        # h1 -> -h1 + 2 h2 + 2 h3, h2 and h3 fixed
        assert tuple(row[0] for row in m1.entries) == (-1, 2, 2)
        assert tuple(row[1] for row in m1.entries) == (0, 1, 0)
        assert tuple(row[2] for row in m1.entries) == (0, 0, 1)

    def test_product_spectrum(self):
        m1, m2, m3, lat = wehler_cohomology_action()
        prod = m1 @ m2 @ m3
        assert prod.trace() == 17
        p = char_poly(prod)
        # (t + 1)(t^2 - 18t + 1), expanded by hand
        assert p.coeffs == (1, -17, -17, 1)
        rep = dynamical_degree(prod)
        assert abs(rep.lambda_f - WEHLER_LAMBDA) < 1e-12
        assert rep.classification is SpectralClass.RECIPROCAL_QUADRATIC
        assert rep.min_poly_degree == 2
        assert rep.kummer_possible


class TestNfSplitting:
    def test_wehler_product_split(self):
        m1, m2, m3, lat = wehler_cohomology_action()
        rep = nf_splitting(m1 @ m2 @ m3, lat)
        assert rep.psi_f.coeffs == (1, -18, 1)
        assert rep.cyclotomic_part.coeffs == (1, 1)
        assert rep.non_cyclotomic is None

    def test_rank2_isometry_split(self):
        # [[2,1],[1,1]] preserves the form with gram [[-2,1],[1,2]]
        lat = QuadraticLattice(IntMatrix.from_rows([[-2, 1], [1, 2]]))
        assert isometry_check(FIB, lat)
        rep = nf_splitting(FIB, lat)
        assert rep.psi_f.coeffs == (1, -3, 1)
        assert rep.cyclotomic_part.coeffs == (1,)

    def test_not_isometry(self):
        lat = QuadraticLattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
        with pytest.raises(NotIsometryError):
            nf_splitting(FIB, lat)

    def test_identity_precondition(self):
        lat = QuadraticLattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
        with pytest.raises(PreconditionError):
            nf_splitting(IntMatrix.identity(2), lat)

    def test_split_violation_on_degenerate_gram(self):
        # a zero gram lets any invertible matrix through the isometry test,
        # so a non-circle complement root is reachable and must be flagged
        lat = QuadraticLattice(IntMatrix.from_rows([[0, 0], [0, 0]]))
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        with pytest.raises(SplitViolationError):
            nf_splitting(m, lat)


class BruteRank2:
    """Independent exhaustive-search oracle for small rank-2 lattices."""

    def __init__(self, gram_rows, box=50):
        self.g = gram_rows
        self.box = box

    def q(self, x, y):
        g = self.g
        return g[0][0] * x * x + 2 * g[0][1] * x * y + g[1][1] * y * y

    def represents(self, value, box=None):
        b = box or self.box
        for x in range(-b, b + 1):
            for y in range(-b, b + 1):
                if (x, y) != (0, 0) and self.q(x, y) == value:
                    return True
        return False

    def min_hyperbolic_dilation(self):
        best = None
        rng = range(-self.box, self.box + 1)
        cols = [
            (p, r)
            for p in rng
            for r in rng
            if self.q(p, r) == self.g[0][0]
        ]
        cols2 = [
            (q, s)
            for q in rng
            for s in rng
            if self.q(q, s) == self.g[1][1]
        ]
        pair_target = self.g[0][1]
        for p, r in cols:
            for q, s in cols2:
                if p * s - q * r not in (1, -1):
                    continue
                pairing = (
                    self.g[0][0] * p * q
                    + self.g[0][1] * (p * s + q * r)
                    + self.g[1][1] * r * s
                )
                if pairing != pair_target:
                    continue
                ev = np.linalg.eigvals(np.array([[p, q], [r, s]], dtype=float))
                rho = max(abs(ev))
                if rho > 1 + 1e-9 and (best is None or rho < best):
                    best = rho
        return best


class TestRank2:
    def test_represents_zero_hyperbolic(self):
        lat = QuadraticLattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
        rep = rank2_analysis(lat)
        assert rep.represents_zero
        assert not rep.aut_infinite
        assert rep.lambda_psi is None

    def test_represents_minus_two(self):
        lat = QuadraticLattice(IntMatrix.from_rows([[-2, 0], [0, 2]]))
        rep = rank2_analysis(lat)
        assert rep.represents_minus_two
        assert not rep.aut_infinite

    def test_represents_minus_two_needs_no_pell_search(self):
        # q(5, 2) = -2; the Pell search for the dilation would exhaust
        # its bound here, and the answer does not need it
        lat = QuadraticLattice(IntMatrix.from_rows([[-6, 2], [2, 27]]))
        rep = rank2_analysis(lat)
        assert not rep.represents_zero
        assert rep.represents_minus_two
        assert not rep.aut_infinite
        assert rep.lambda_psi is None

    def test_infinite_case_oracle_values(self):
        # oracle values frozen from exhaustive search before the build:
        # no vector of square -2 with |x| <= 10^4, fundamental dilation
        # (11 + sqrt(117)) / 2 found by enumerating isometries with
        # entries up to 50
        lat = QuadraticLattice(IntMatrix.from_rows([[2, 11], [11, 2]]))
        rep = rank2_analysis(lat)
        assert not rep.represents_zero  # 11^2 - 4 = 117 is not a square
        assert not rep.represents_minus_two
        assert rep.aut_infinite
        assert abs(rep.lambda_psi - 10.908326913195985) < 1e-9
        brute = BruteRank2([[2, 11], [11, 2]], box=15)
        assert not brute.represents(-2)
        assert abs(brute.min_hyperbolic_dilation() - rep.lambda_psi) < 1e-9

    def test_wrong_rank(self):
        with pytest.raises(WrongRankError):
            rank2_analysis(enriques_lattice())

    def test_wrong_signature(self):
        lat = QuadraticLattice(IntMatrix.from_rows([[2, 0], [0, 2]]))
        with pytest.raises(WrongSignatureError):
            rank2_analysis(lat)

    def test_agrees_with_brute_force_on_curated_forms(self):
        # indefinite forms picked so the exhaustive box-50 oracle is
        # conclusive for every field it checks
        grams = [
            [[2, 11], [11, 2]],
            [[0, 1], [1, 0]],
            [[-2, 0], [0, 2]],
            [[2, 3], [3, 2]],
            [[-2, 1], [1, 2]],
            [[2, 4], [4, 2]],
            [[-4, 1], [1, 2]],
            [[2, 5], [5, 2]],
            [[-2, 3], [3, 4]],
            [[4, 7], [7, 4]],
            [[-4, 3], [3, 2]],
            [[6, 1], [1, -2]],
            [[2, 7], [7, 2]],
            [[-6, 1], [1, 4]],
            [[4, 9], [9, 4]],
            [[-2, 5], [5, 2]],
            [[8, 3], [3, -2]],
            [[2, 9], [9, 2]],
            [[-8, 1], [1, 2]],
            [[6, 11], [11, 6]],
        ]
        for g in grams:
            lat = QuadraticLattice(IntMatrix.from_rows(g))
            rep = rank2_analysis(lat)
            brute = BruteRank2(g, box=50)
            # the exhaustive box is a subset of the analysis search space,
            # so any brute-force hit must be reproduced by the analysis
            if brute.represents(-2):
                assert rep.represents_minus_two
            if brute.represents(0):
                assert rep.represents_zero
            if rep.aut_infinite:
                assert rep.lambda_psi > 1
                dil = brute.min_hyperbolic_dilation()
                if dil is not None:
                    assert abs(dil - rep.lambda_psi) < 1e-6


class TestRepresentsValue:
    def test_simple_values(self):
        lat = QuadraticLattice(IntMatrix.from_rows([[2, 0], [0, -2]]))
        assert represents_value(lat, 2, 10)
        assert represents_value(lat, -2, 10)
        assert represents_value(lat, 0, 10)

    def test_negative_bound_is_a_precondition_failure(self):
        lat = QuadraticLattice(IntMatrix.from_rows([[2, 11], [11, 2]]))
        with pytest.raises(PreconditionError):
            represents_value(lat, -2, -1)
        with pytest.raises(PreconditionError):
            rank2_analysis(lat, search_bound=-1)


class TestFloatRangeGuards:
    def test_residual_of_a_root_whose_powers_overflow(self):
        # t^2 - 10^200 t - 1: x^2 ~ 1e400 leaves the float range
        p = IntPolynomial.from_coeffs([-1, -(10**200), 1])
        lam, witness, residual = dominant_root(p)
        assert lam == pytest.approx(1e200, rel=1e-12)
        assert 0.0 <= residual < 1e-15

    def test_factor_searches_refuse_long_ranges_before_starting(self):
        # a range of exactly the cap still runs
        assert _divisors(FACTOR_SEARCH_CAP**2)[-1] == FACTOR_SEARCH_CAP**2
        with pytest.raises(CapExceededError):
            _divisors((FACTOR_SEARCH_CAP + 1) ** 2)
        with pytest.raises(CapExceededError):
            next(_quadratic_factors(IntPolynomial.from_coeffs([1, FACTOR_SEARCH_CAP, 0, 1])))
