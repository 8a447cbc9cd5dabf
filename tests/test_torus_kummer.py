import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kummerlab import torus_kummer as tk
from kummerlab.errors import (
    CapExceededError,
    DegeneratePeriodError,
    DegenerateRadiiError,
    EmptyEnsembleError,
    InsufficientSamplesError,
    NotHyperbolicError,
    PreconditionError,
)
from kummerlab.lattice_algebra import IntMatrix, dynamical_degree
from kummerlab.torus_kummer import (
    ETA_TAU_MATRICES,
    LyapunovMethod,
    LyapunovReport,
    PeriodicEnsemble,
    TAU_I,
    TAU_ZETA3,
    TorusAutomorphism,
    TorusLattice,
    TorusPoint,
    equidistribution_test,
    fix_count,
    fix_enumerate,
    h2_action,
    haar_samples,
    half_log_h2_degree,
    kummer_project,
    lattice_action_4x4,
    local_dimension_estimate,
    lyapunov_exact,
    lyapunov_qr_orbit,
    mean_stderr,
    torus_distance,
    trivial_character_count,
)

GOLDEN_SQ = (3 + math.sqrt(5)) / 2

FIB = TorusAutomorphism(IntMatrix.from_rows([[2, 1], [1, 1]]))
ROTATION = TorusAutomorphism(IntMatrix.from_rows([[0, -1], [1, 0]]))
PARABOLIC = TorusAutomorphism(IntMatrix.from_rows([[1, 1], [0, 1]]))


def rand_point(rng):
    return TorusPoint.from_rationals(
        *(Fraction(rng.randint(0, 30), rng.randint(1, 31)) for _ in range(4))
    )


def lucas(n):
    # L_0 = 2, L_1 = 1; independent oracle for traces of Fibonacci powers
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestApply:
    def test_origin_fixed(self):
        assert FIB.apply(TorusPoint.origin()) == TorusPoint.origin()

    def test_half_point(self):
        p = TorusPoint.from_rationals(Fraction(1, 2), 0, 0, 0)
        q = FIB.apply(p)
        assert q == TorusPoint.from_rationals(0, 0, Fraction(1, 2), 0)

    def test_identity(self):
        ident = TorusAutomorphism(IntMatrix.identity(2))
        rng = random.Random(2)
        for _ in range(20):
            p = rand_point(rng)
            assert ident.apply(p) == p

    def test_inverse_roundtrip_exact(self):
        rng = random.Random(3)
        inv = FIB.inverse()
        for _ in range(200):
            p = rand_point(rng)
            assert inv.apply(FIB.apply(p)) == p
            assert FIB.apply(inv.apply(p)) == p

    def test_power_matches_repeated_apply(self):
        rng = random.Random(4)
        for _ in range(20):
            p = rand_point(rng)
            q = p
            for _ in range(5):
                q = FIB.apply(q)
            assert FIB.apply_n(p, 5) == q

    def test_non_unimodular_rejected(self):
        with pytest.raises(PreconditionError):
            TorusAutomorphism(IntMatrix.from_rows([[2, 0], [0, 1]]))


class TestLyapunovExact:
    def test_fibonacci_values(self):
        rep = lyapunov_exact(FIB)
        assert rep.method is LyapunovMethod.EXACT_EIGEN
        assert rep.stderr == 0.0
        assert abs(rep.lambda_u - math.log(GOLDEN_SQ)) < 1e-14
        assert rep.lambda_s == -rep.lambda_u

    def test_det_minus_one(self):
        f = TorusAutomorphism(IntMatrix.from_rows([[1, 1], [1, 0]]))
        rep = lyapunov_exact(f)
        phi = (1 + math.sqrt(5)) / 2
        assert abs(rep.lambda_u - math.log(phi)) < 1e-14

    def test_parabolic_rejected(self):
        with pytest.raises(NotHyperbolicError):
            lyapunov_exact(PARABOLIC)

    def test_elliptic_rejected(self):
        with pytest.raises(NotHyperbolicError):
            lyapunov_exact(ROTATION)

    def test_rigidity_gap_is_exactly_zero(self):
        # both sides route through the same closed-form spectral radius
        rep = lyapunov_exact(FIB)
        assert half_log_h2_degree(FIB) - rep.lambda_u == 0.0

    def test_half_log_matches_h2_matrix_route(self):
        half = half_log_h2_degree(FIB)
        lam_f = dynamical_degree(h2_action(FIB)).lambda_f
        assert abs(math.exp(2 * half) - lam_f) < 1e-12 * lam_f


class TestLyapunovQrOrbit:
    def test_matches_exact_at_1e4(self):
        rep = lyapunov_qr_orbit(FIB, TorusPoint.origin(), 10**4)
        exact = lyapunov_exact(FIB)
        assert rep.method is LyapunovMethod.QR_ORBIT
        assert abs(rep.lambda_u - exact.lambda_u) < 1e-6
        assert abs(rep.lambda_s - exact.lambda_s) < 1e-6
        assert rep.stderr >= 0.0 and math.isfinite(rep.stderr)

    def test_parabolic_decays(self):
        short = lyapunov_qr_orbit(PARABOLIC, TorusPoint.origin(), 10**3)
        long = lyapunov_qr_orbit(PARABOLIC, TorusPoint.origin(), 10**4)
        assert abs(long.lambda_u) < abs(short.lambda_u) + 1e-12
        assert abs(long.lambda_u) < 0.01

    def test_inverse_symmetry(self):
        rep = lyapunov_qr_orbit(FIB.inverse(), TorusPoint.origin(), 10**4)
        exact = lyapunov_exact(FIB)
        assert abs(rep.lambda_u - exact.lambda_u) < 1e-6

    def test_too_few_steps(self):
        with pytest.raises(PreconditionError):
            lyapunov_qr_orbit(FIB, TorusPoint.origin(), 99)


def full_qr_loop(f, n_steps, warmup):
    """The QR orbit with every step run, as before the fixed-point exits,
    and the number of steps up to the first whose frame has the bytes of
    its input or of the frame two steps back (every step if there is none)."""
    m = np.array(f.matrix.entries, dtype=float)
    frames = [np.eye(2).tobytes()]
    steps = warmup + n_steps
    logs = np.empty((warmup + n_steps, 2))
    q = np.eye(2)
    for k in range(warmup + n_steps):
        q, r = np.linalg.qr(m @ q)
        logs[k] = np.log(np.abs(np.diagonal(r)))
        if q.tobytes() in frames[-2:]:
            steps = min(steps, k + 1)
        frames.append(q.tobytes())
    logs = logs[warmup:]
    means = logs.mean(axis=0)
    lam_u, lam_s = float(means.max()), float(means.min())
    batch = np.array([b.mean(axis=0) for b in np.array_split(logs, 10)])
    stderr = mean_stderr(batch.max(axis=1))
    return LyapunovReport(lam_u, lam_s, LyapunovMethod.QR_ORBIT, stderr), steps


QR_CASES = {
    "fib": FIB,
    "fib_inverse": FIB.inverse(),
    "golden": TorusAutomorphism(IntMatrix.from_rows([[1, 1], [1, 0]])),
    "negative_trace": TorusAutomorphism(IntMatrix.from_rows([[-2, 1], [1, -1]])),
    "trace_4": TorusAutomorphism(IntMatrix.from_rows([[3, 1], [2, 1]])),
    # upper triangular: the first frame equals its input only up to the
    # sign of a zero, so the exit comes one step later
    "parabolic": PARABOLIC,
    "rotation": ROTATION,
    # frames of period 2 whose two rows differ: by sign at order 4, and in
    # the last bits for a hyperbolic map with det -1 (from step 24 on)
    "order_4": TorusAutomorphism(IntMatrix.from_rows([[-1, -1], [2, 1]])),
    "det_minus_one": TorusAutomorphism(IntMatrix.from_rows([[1, 1], [2, 1]])),
}


@pytest.mark.golden
@pytest.mark.parametrize("warmup", [tk.QR_WARMUP, 3, 2, 1])
@pytest.mark.parametrize("n_steps", [100, 101, 10**4])
@pytest.mark.parametrize("name", sorted(QR_CASES))
def test_qr_orbit_exit_matches_full_loop(monkeypatch, name, n_steps, warmup):
    """Same report repr as every step run; the loop stops at the first frame
    with the bytes of its input or of the frame two steps back (in the
    warmup or, with a short warmup, in the accumulation).  The rotation's
    frame has period 2 from its first step, so it stops at step 3: the last
    warm-up step with a warm-up of 3, and accumulation rows 0 and 1 with
    warm-ups 2 and 1."""
    f = QR_CASES[name]
    monkeypatch.setattr(tk, "QR_WARMUP", warmup)
    ref, steps = full_qr_loop(f, n_steps, warmup)
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a) or qr(a))
    rep = lyapunov_qr_orbit(f, TorusPoint.origin(), n_steps)
    assert repr(rep) == repr(ref)
    assert len(calls) == steps
    if name == "rotation":
        assert steps == 3
    else:
        assert steps < 50


class TestFixCount:
    def test_small_periods(self):
        assert fix_count(FIB, 1) == 1
        assert fix_count(FIB, 2) == 25
        assert fix_count(FIB, 3) == 256

    def test_lucas_trace_oracle(self):
        # trace(M^n) = L_{2n} for M = [[2,1],[1,1]], so the count is
        # (L_{2n} - 2)^2; the Lucas recurrence is an independent route
        for n in range(1, 9):
            assert fix_count(FIB, n) == (lucas(2 * n) - 2) ** 2

    def test_degenerate_period(self):
        with pytest.raises(DegeneratePeriodError):
            fix_count(ROTATION, 4)

    def test_conjugation_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            u = IntMatrix.identity(2)
            for _ in range(4):
                i = rng.randint(0, 1)
                e = [[1, 0], [0, 1]]
                e[i][1 - i] = rng.randint(-2, 2)
                u = u @ IntMatrix.from_rows(e)
            m = u.inverse_unimodular() @ FIB.matrix @ u
            g = TorusAutomorphism(m)
            for n in (1, 2, 3):
                assert fix_count(g, n) == fix_count(FIB, n)

    def test_growth_matches_entropy(self):
        lam_f = math.exp(2 * lyapunov_exact(FIB).lambda_u)
        ratios = [fix_count(FIB, n) / lam_f**n for n in range(4, 15)]
        for a, b in zip(ratios, ratios[1:]):
            assert b > a
        assert abs(ratios[-1] - 1) < 0.05


class TestFixEnumerate:
    def test_period_one_origin_only(self):
        e = fix_enumerate(FIB, 1)
        assert e.count == 1
        assert e.points == (TorusPoint.origin(),)

    def test_period_two_subgroup(self):
        e = fix_enumerate(FIB, 2)
        assert e.count == 25 and len(e.points) == 25
        pts = set(e.points)
        assert len(pts) == 25
        for p in e.points:
            assert FIB.apply_n(p, 2) == p
        for p in e.points:
            for q in e.points:
                assert p.add(q) in pts

    def test_count_consistency(self):
        e = fix_enumerate(FIB, 3)
        assert e.count == 256 and len(e.points) == 256

    def test_cap_exceeded(self):
        # 4862025 points at period 8 exceed the default cap
        with pytest.raises(CapExceededError):
            fix_enumerate(FIB, 8)

    def test_degenerate_period(self):
        with pytest.raises(DegeneratePeriodError):
            fix_enumerate(ROTATION, 4)

    def test_cap_above_fix_cap_refused(self):
        # refused before the count, even where the ensemble is one point
        fix_enumerate(FIB, 1, cap=tk.FIX_CAP)
        with pytest.raises(PreconditionError):
            fix_enumerate(FIB, 1, cap=tk.FIX_CAP + 1)


class TestEquidistribution:
    def test_subgroup_weyl_sums_zero_or_one(self):
        e = fix_enumerate(FIB, 2)
        rep = equidistribution_test(e, 3)
        assert rep.max_nontrivial_abs <= 1e-10
        assert rep.max_abs <= 1.0 + 1e-12
        for k in rep.trivial_frequencies:
            # verify exactly: <k, p> must be an integer for every point
            for p in e.points:
                phase = sum(ki * c for ki, c in zip(k, p.coords))
                assert phase.denominator == 1

    def test_origin_ensemble_all_trivial(self):
        e = PeriodicEnsemble(1, np.zeros((1, 4), dtype=np.int64), 1, 1)
        assert e.points == (TorusPoint.origin(),)
        rep = equidistribution_test(e, 2)
        assert abs(rep.max_abs - 1.0) < 1e-12
        assert len(rep.trivial_frequencies) == 5**4 - 1

    def test_empty_ensemble(self):
        with pytest.raises(EmptyEnsembleError):
            equidistribution_test(PeriodicEnsemble(1, np.zeros((0, 4), dtype=np.int64), 1, 0), 2)

    def test_k_max_below_one_rejected(self):
        e = fix_enumerate(FIB, 2)
        for k_max in (0, -1):
            with pytest.raises(PreconditionError):
                equidistribution_test(e, k_max)
            with pytest.raises(PreconditionError):
                trivial_character_count(FIB, 2, k_max)

    def test_k_max_above_the_frequency_cap_rejected(self):
        # 31^4 - 1 frequencies fit under FIX_CAP, 33^4 - 1 do not
        assert (2 * 15 + 1) ** 4 - 1 <= tk.FIX_CAP < (2 * 16 + 1) ** 4 - 1
        tk._frequency_vectors(15)
        with pytest.raises(CapExceededError):
            trivial_character_count(FIB, 2, 16)

    def test_reports_do_not_depend_on_call_order(self):
        # the cos/sin table lives for one call, so nothing crosses calls
        a, b = fix_enumerate(FIB, 3), fix_enumerate(FIB, 4)
        forward = [repr(equidistribution_test(e, 2)) for e in (a, b)]
        backward = [repr(equidistribution_test(e, 2)) for e in (b, a)]
        assert forward == backward[::-1]

    def test_one_phase_block_live_at_a_time(self):
        # 14641 points: 273-row phase blocks of 32 MB; holding the previous
        # block through the next block @ x.T peaks above two blocks
        e = fix_enumerate(FIB, 5)
        block = (4_000_000 // e.count) * e.count * 8
        tracemalloc.start()
        try:
            equidistribution_test(e, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block < peak < 1.8 * block

    def test_exact_counter_matches_direct_sums(self):
        for n in (2, 3):
            e = fix_enumerate(FIB, n)
            rep = equidistribution_test(e, 3)
            trivial, total = trivial_character_count(FIB, n, 3)
            assert total == 7**4 - 1
            assert trivial == len(rep.trivial_frequencies)

    def test_trivial_fraction_decreases(self):
        fracs = []
        for n in range(2, 9):
            trivial, total = trivial_character_count(FIB, n, 3)
            fracs.append(trivial / total)
        for a, b in zip(fracs, fracs[1:]):
            assert b <= a + 1e-15
        assert fracs[-1] < fracs[0]


class TestKummerProject:
    def test_idempotent_and_symmetric(self):
        rng = random.Random(5)
        for _ in range(1000):
            p = rand_point(rng)
            rep = kummer_project(p)
            assert kummer_project(rep) == rep
            assert kummer_project(-p) == rep

    def test_sixteen_fixed_double_points(self):
        half = (Fraction(0), Fraction(1, 2))
        fixed = [
            TorusPoint(c)
            for c in itertools.product(half, repeat=4)
            if TorusPoint(c) == -TorusPoint(c)
        ]
        assert len(fixed) == 16
        for p in fixed:
            assert kummer_project(p) == p


class TestEtaTauProject:
    def test_order_four_matrix(self):
        eta = ETA_TAU_MATRICES["i"]
        assert (eta.power(4)).entries == IntMatrix.identity(2).entries
        assert (eta.power(2)).entries != IntMatrix.identity(2).entries

    def test_order_three_matrix(self):
        eta = ETA_TAU_MATRICES["zeta3"]
        assert (eta.power(3)).entries == IntMatrix.identity(2).entries
        assert (eta.power(1)).entries != IntMatrix.identity(2).entries


class TestTorusDistance:
    def test_wraparound_square_lattice(self):
        dist = torus_distance(TorusLattice(TAU_I))
        samples = np.array([[0.0, 0, 0, 0], [0.6, 0, 0, 0]])
        d = dist(samples, 0, math.inf)
        assert abs(d[1] - 0.4) < 1e-12
        assert d[0] == 0.0

    def test_corner_square_lattice(self):
        dist = torus_distance(TorusLattice(TAU_I))
        samples = np.array([[0.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]])
        assert abs(dist(samples, 0, math.inf)[1] - 1.0) < 1e-12

    def test_hexagonal_lattice_value(self):
        # |1/2 + (1/2) zeta3| = 1/2 since |1 + zeta3| = 1
        dist = torus_distance(TorusLattice(TAU_ZETA3))
        samples = np.array([[0.0, 0, 0, 0], [0.5, 0.5, 0.0, 0.0]])
        assert abs(dist(samples, 0, math.inf)[1] - 0.5) < 1e-12

    def test_symmetry(self):
        dist = torus_distance(TorusLattice(TAU_ZETA3))
        rng = np.random.default_rng(8)
        samples = rng.random((10, 4))
        for i in range(10):
            di = dist(samples, i, math.inf)
            for j in range(10):
                assert abs(di[j] - dist(samples, j, math.inf)[i]) < 1e-12

    def test_rejects_tau_outside_fundamental_domain(self):
        # outside the domain the 3x3 translate grid can miss nearer
        # translates: against a 13x13 search it overestimates by up to 0.13
        # at 1.7 + 0.3i and 0.06 at 0.3 + 0.1i
        for tau in (complex(1.7, 0.3), complex(-0.6, 1.0), complex(0.3, 0.1)):
            with pytest.raises(PreconditionError):
                torus_distance(TorusLattice(tau))


class TestLocalDimension:
    RADII = np.geomspace(0.2, 0.02, 8)

    def test_haar_samples_above_fix_cap_refused(self):
        assert haar_samples(tk.FIX_CAP, 1).shape == (tk.FIX_CAP, 4)
        with pytest.raises(CapExceededError):
            haar_samples(tk.FIX_CAP + 1, 1)

    def test_haar_dimension_four(self):
        samples = haar_samples(10**5, 1)
        dim, stderr = local_dimension_estimate(
            samples, torus_distance(TorusLattice(TAU_I)), self.RADII, 64, 2
        )
        assert abs(dim - 4.0) < 0.2
        assert 0 <= stderr < 0.2

    def test_subtorus_dimension_two(self):
        samples = haar_samples(10**5, 3)
        samples[:, 1] = 0.0
        samples[:, 3] = 0.0
        dim, _ = local_dimension_estimate(
            samples, torus_distance(TorusLattice(TAU_I)), self.RADII, 64, 4
        )
        assert abs(dim - 2.0) < 0.2

    def test_atom_slope_zero(self):
        samples = np.zeros((2000, 4))
        dim, stderr = local_dimension_estimate(
            samples, torus_distance(TorusLattice(TAU_I)), self.RADII, 16, 5
        )
        assert abs(dim) < 1e-9
        assert stderr < 1e-9

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            local_dimension_estimate(
                haar_samples(500, 6),
                torus_distance(TorusLattice(TAU_I)),
                self.RADII,
                8,
            )

    def test_degenerate_radii(self):
        with pytest.raises(DegenerateRadiiError):
            local_dimension_estimate(
                haar_samples(1000, 7),
                torus_distance(TorusLattice(TAU_I)),
                [1e-6, 1e-7],
                16,
            )

    def test_narrow_radii_rejected(self):
        with pytest.raises(PreconditionError):
            local_dimension_estimate(
                haar_samples(1000, 8),
                torus_distance(TorusLattice(TAU_I)),
                [0.2, 0.1],
                8,
            )

    def test_too_many_probes(self):
        with pytest.raises(PreconditionError):
            local_dimension_estimate(
                haar_samples(1000, 9),
                torus_distance(TorusLattice(TAU_I)),
                self.RADII,
                1001,
            )

    def test_one_probe_refused(self):
        # one slope would get a stderr of 0.0
        with pytest.raises(PreconditionError):
            local_dimension_estimate(
                haar_samples(1000, 9),
                torus_distance(TorusLattice(TAU_I)),
                self.RADII,
                1,
            )

    def test_one_surviving_slope_refused(self):
        """The first probe sees neighbors at every radius; the others see
        them only at the largest, so they give no slope and are not empty."""
        calls = []

        def dist(samples, i, cutoff):
            calls.append(i)
            return np.full(len(samples), 0.01 if len(calls) == 1 else 0.15)

        with pytest.raises(DegenerateRadiiError):
            local_dimension_estimate(haar_samples(1000, 10), dist, self.RADII, 8)
        assert len(calls) == 8

    @pytest.mark.parametrize("self_entry", [0.0, 0.03, "tie", 1.0, np.inf, np.nan])
    @pytest.mark.parametrize("i", [0, 17, 399])
    def test_ball_counts_match_the_delete_form(self, i, self_entry):
        """Counting the whole row at each radius, less the probe's own entry,
        gives the integers of counting np.delete(d, i), whatever d[i] holds."""
        r_arr = np.sort(self.RADII)[::-1]
        rng = np.random.default_rng(i)
        d = rng.uniform(0.0, 0.5, 400)
        d[rng.choice(400, 40, replace=False)] = np.inf
        d[rng.choice(400, 40, replace=False)] = np.nan
        ties = rng.choice(400, 3 * len(r_arr), replace=False)
        d[ties] = np.repeat(r_arr, 3)
        d[i] = r_arr[3] if self_entry == "tie" else self_entry
        counts = tk._ball_counts(d, i, r_arr)
        expected = (np.delete(d, i)[None, :] <= r_arr[:, None]).sum(axis=1)
        assert counts.dtype.kind == "i"
        np.testing.assert_array_equal(counts, expected)


class TestH2Action:
    def test_shape_and_det(self):
        h2 = h2_action(FIB)
        assert h2.dim == 6
        assert h2.det() == 1

    def test_degree_is_squared_radius(self):
        rep = dynamical_degree(h2_action(FIB))
        assert abs(rep.lambda_f - GOLDEN_SQ**2) < 1e-12

    def test_functorial(self):
        rng = random.Random(10)
        mats = [
            IntMatrix.from_rows([[2, 1], [1, 1]]),
            IntMatrix.from_rows([[1, 1], [1, 0]]),
            IntMatrix.from_rows([[0, -1], [1, 0]]),
        ]
        for _ in range(10):
            m1 = mats[rng.randint(0, 2)]
            m2 = mats[rng.randint(0, 2)]
            f1 = TorusAutomorphism(m1)
            f2 = TorusAutomorphism(m2)
            prod = TorusAutomorphism(m1 @ m2)
            assert h2_action(prod).entries == (h2_action(f1) @ h2_action(f2)).entries

    def test_lefschetz_identity(self):
        # |det of the 4x4 lattice action of M^n - I| equals the fixed-point
        # count, an exact cross-check of the squared-determinant formula
        for n in range(1, 7):
            a4 = lattice_action_4x4(
                TorusAutomorphism(FIB.matrix.power(n))
            )
            delta = a4 + IntMatrix.identity(4).scale(-1)
            assert abs(delta.det()) == fix_count(FIB, n)
