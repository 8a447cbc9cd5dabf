"""Acceptance gate: eleven end-to-end checks across all four layers.

Each check prints a single pass or fail line with its wall time and
enforces its runtime budget, so a bare ``pytest -s tests/test_acceptance.py``
reads as a scorecard.  The heavy surface-dynamics check (number six) runs
three full saddle searches and takes a couple of minutes.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from kummerlab import cli
from kummerlab import blanc_cremona as bc
from kummerlab import lattice_algebra as la
from kummerlab import torus_kummer as tk
from kummerlab import wehler_dynamics as wd
from kummerlab.errors import KummerlabError
from kummerlab.lattice_algebra import IntMatrix, IntPolynomial


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:02d} FAIL ({elapsed:.1f}s): {label}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:02d} PASS ({elapsed:.1f}s): {label}", flush=True)
    assert elapsed < budget_s, f"budget exceeded: {elapsed:.1f}s > {budget_s}s"


FIB = IntMatrix.from_rows([[2, 1], [1, 1]])
GOLDEN_SQ = (3 + math.sqrt(5)) / 2


def test_criterion_01_quadratic_dynamical_degree():
    with criterion(1, "quadratic dynamical degree and induced H2 growth", 1.0):
        rep = la.dynamical_degree(FIB)
        assert abs(rep.lambda_f - GOLDEN_SQ) < 1e-12
        assert rep.classification is la.SpectralClass.RECIPROCAL_QUADRATIC
        assert rep.min_poly_degree == 2
        f = tk.TorusAutomorphism(FIB)
        radius = max(abs(e) for e in np.linalg.eigvals(tk.h2_action(f).to_numpy()))
        assert abs(radius - rep.lambda_f**2) < 1e-12
        assert abs(tk.half_log_h2_degree(f) - math.log(rep.lambda_f)) < 1e-12


def test_criterion_02_exact_cohomology_action():
    with criterion(2, "exact (2,2,2) cohomology action of the involutions", 1.0):
        m1, m2, m3, lattice = la.wehler_cohomology_action()
        ident = IntMatrix.identity(m1.dim)
        for m in (m1, m2, m3):
            assert (m @ m) == ident
            assert la.isometry_check(m, lattice)
        product = m1 @ m2 @ m3
        assert la.char_poly(product).coeffs == (1, -17, -17, 1)
        split = la.nf_splitting(product, lattice)
        assert split.psi_f.coeffs == (1, -18, 1)
        assert split.cyclotomic_part.coeffs == (1, 1)
        rep = la.dynamical_degree(product)
        assert abs(rep.lambda_f - (9 + 4 * math.sqrt(5))) < 1e-12
        assert rep.kummer_possible


def test_criterion_03_torus_control_identities():
    with criterion(3, "torus control: exact exponents, QR orbit, dimension", 30.0):
        f = tk.TorusAutomorphism(FIB)
        report = wd.torus_control_report(f)
        assert report.gap_u == 0.0
        assert report.gap_s == 0.0
        assert abs(report.qr_gap) <= 1e-5
        assert abs(report.dimension_est - 4.0) <= 0.2
        assert report.verdict is wd.RigidityVerdict.KUMMER_CONSISTENT


def test_criterion_04_periodic_census_and_weyl_sums():
    with criterion(4, "periodic point census, subgroup law, Weyl sums", 10.0):
        f = tk.TorusAutomorphism(FIB)
        assert [tk.fix_count(f, n) for n in (1, 2, 3)] == [1, 25, 256]
        for n in range(1, 5):
            ensemble = tk.fix_enumerate(f, n)
            assert ensemble.count == tk.fix_count(f, n)
            assert len(ensemble.points) == ensemble.count
        cube = tk.fix_enumerate(f, 3)
        members = set(cube.points)
        for p, q in itertools.product(cube.points[:40], cube.points[:40]):
            assert p.add(q) in members
        weyl = tk.equidistribution_test(cube, 3)
        assert weyl.max_nontrivial_abs <= 1e-10
        square = tk.equidistribution_test(tk.fix_enumerate(f, 2), 5)
        assert square.trivial_frequencies
        assert abs(square.max_abs - 1.0) <= 1e-10
        assert square.max_nontrivial_abs <= 1e-10


def test_criterion_05_quotient_fixed_points_and_orders():
    with criterion(5, "sixteen double points and eta_tau orders", 1.0):
        half = (Fraction(0), Fraction(1, 2))
        fixed = [
            tk.TorusPoint(c)
            for c in itertools.product(half, repeat=4)
            if tk.TorusPoint(c) == -tk.TorusPoint(c)
        ]
        assert len(fixed) == 16
        for p in fixed:
            assert tk.kummer_project(p) == p
        assert tk.ETA_TAU_ORDERS == {"i": 4, "zeta3": 3}
        for key, order in tk.ETA_TAU_ORDERS.items():
            eta = tk.ETA_TAU_MATRICES[key]
            assert eta.power(order) == IntMatrix.identity(2)
            for k in range(1, order):
                assert eta.power(k) != IntMatrix.identity(2)


def _involution_roundtrip_defect(surface, count, rng_seed):
    carr = surface.array()
    rng = np.random.default_rng(rng_seed)
    P = wd._seed_points(carr, rng, count)
    worst = 0.0
    for ax in range(3):
        Q = wd._plain_chain(carr, P, (ax,))
        R = wd._plain_chain(carr, Q, (ax,))
        cross = np.abs(P[:, :, 0] * R[:, :, 1] - P[:, :, 1] * R[:, :, 0])
        worst = max(worst, float(cross.max()))
    return worst


def _fd_tangent_defect(surface, count, rng_seed, h=1e-6):
    import test_wehler_dynamics as helpers

    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for _ in range(count):
        p = wd.random_surface_point(surface, rng)
        jac = wd.tangent_map(surface, p)
        q = wd.wehler_map(surface, p)
        s, free, picks = helpers._chart_state(surface, p)
        _, free_out, picks_out = helpers._chart_state(surface, q)
        fd = np.empty((2, 2), dtype=complex)
        for col, fax in enumerate(free):
            plus = wd.wehler_map(surface, helpers._perturb_and_rebuild(
                surface, p, s, fax, picks[fax], h))
            minus = wd.wehler_map(surface, helpers._perturb_and_rebuild(
                surface, p, s, fax, picks[fax], -h))
            for row, oax in enumerate(free_out):
                dp = helpers._affine_coord(plus, oax, picks_out[oax])
                dm = helpers._affine_coord(minus, oax, picks_out[oax])
                fd[row, col] = (dp - dm) / (2 * h)
        worst = max(worst, np.abs(fd - jac).max() / max(np.abs(jac).max(), 1.0))
    return worst


def test_criterion_06_surface_pipeline_with_ruelle_bounds():
    with criterion(6, "surface dynamics pipeline and Ruelle-type bounds", 600.0):
        for s in range(10):
            assert _involution_roundtrip_defect(wd.random_surface(s), 1000, s) < 1e-10
        assert _fd_tangent_defect(wd.random_surface(1), 100, 3) < 1e-6

        half = 0.5 * math.log(wd.wehler_lambda_f())
        verdicts = set()
        for s in (1, 7, 13):
            surface = wd.random_surface(s)
            report, orbits = wd.rigidity_report(surface, 5, 2000, rng_seed=0)
            assert report.n_saddles >= 100
            assert report.lambda_u_est >= half - 3 * report.lyap_stderr
            assert -report.lambda_s_est >= half - 3 * report.lyap_stderr
            verdicts.add(report.verdict)
            for orb in orbits[:50]:
                cur = orb.point
                for _ in range(orb.period):
                    cur = wd.wehler_map(surface, cur)
                assert orb.point.chordal(cur) < 1e-9
        allowed = {wd.RigidityVerdict.KUMMER_CONSISTENT,
                   wd.RigidityVerdict.RIGIDITY_GAP,
                   wd.RigidityVerdict.INCONCLUSIVE}
        assert verdicts <= allowed


def test_criterion_07_saddle_estimator_against_exact_torus():
    with criterion(7, "saddle estimator recovers exact torus exponents", 5.0):
        f = tk.TorusAutomorphism(FIB)
        exact = tk.lyapunov_exact(f)
        rep = wd.lyapunov_from_saddles(wd.torus_control_saddles(f))
        assert abs(rep.lambda_u - exact.lambda_u) < 1e-10
        assert abs(rep.lambda_s - exact.lambda_s) < 1e-10


def test_criterion_08_salem_classification_and_verdicts():
    with criterion(8, "Salem classification and singularity verdicts", 1.0):
        lehmer = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
        rep = la.spectral_report(lehmer)
        assert rep.classification is la.SpectralClass.SALEM
        assert rep.min_poly_degree == 10
        assert not rep.kummer_possible
        assert cli.spectral_json(rep)["verdict"] == "mu_f singular"
        plastic = la.spectral_report(IntPolynomial((-1, -1, 0, 1)))
        assert abs(plastic.lambda_f - 1.3247179572) < 1e-9


def _brute_represents(gram, value, box):
    (a, b), (c, d) = gram
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if (x, y) != (0, 0) and a * x * x + (b + c) * x * y + d * y * y == value:
                return True
    return False


def test_criterion_09_rank2_and_enriques_lattices():
    with criterion(9, "rank-2 analyses against brute force, Enriques shape", 30.0):
        plane = la.rank2_analysis(la.QuadraticLattice(IntMatrix.from_rows([[0, 1], [1, 0]])))
        assert plane.represents_zero
        assert not plane.aut_infinite

        rows = [[2, 11], [11, 2]]
        rep = la.rank2_analysis(la.QuadraticLattice(IntMatrix.from_rows(rows)))
        assert rep.represents_zero == _brute_represents(rows, 0, 40)
        assert rep.represents_minus_two == _brute_represents(rows, -2, 40)
        assert rep.aut_infinite
        assert abs(rep.lambda_psi - 10.908326913195985) < 1e-9

        lattice = la.enriques_lattice()
        assert la.signature(lattice) == (1, 9, 0)
        assert lattice.gram.det() == -1
        assert all(lattice.gram.entries[i][i] % 2 == 0 for i in range(10))


def test_criterion_10_pencil_involutions_on_cubics():
    with criterion(10, "pencil involution, fixed cubic, two-form defects", 30.0):
        cubic = bc.fermat_cubic()
        bases = bc.distinct_cubic_points(cubic, 3, rng_seed=5)
        q = bases[0]
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = bc.P2Point.make(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
            assert bc.sigma_q(cubic, q, bc.sigma_q(cubic, q, p)).chordal(p) <= 1e-10

        B1 = bc.BlancMap(cubic, (q,))
        for p in bc.cubic_points(cubic, 100, rng_seed=8):
            if p.chordal(q) < 1e-4:
                continue
            assert bc.blanc_compose(B1, p).chordal(p) <= 1e-9

        B3 = bc.BlancMap(cubic, bases)
        for B, tol in ((B1, 1e-6), (B3, 1e-5)):
            checked = 0
            while checked < 50:
                x = rng.normal() + 1j * rng.normal()
                y = rng.normal() + 1j * rng.normal()
                try:
                    defect = bc.two_form_check(B, bc.P2Point.make(x, y, 1.0))
                except KummerlabError:
                    continue
                assert defect <= tol
                checked += 1


def test_criterion_11_byte_identical_across_workers(tmp_path):
    with criterion(11, "byte-identical reports across worker counts", 120.0):
        base = ["wehler", "rigidity", "--random", "--seed", "1",
                "--nmax", "3", "--seeds", "512"]
        one = tmp_path / "w1.json"
        three = tmp_path / "w3.json"
        assert cli.main(base + ["--workers", "1", "--out", str(one)]) == 0
        assert cli.main(base + ["--workers", "3", "--out", str(three)]) == 0
        assert one.read_bytes() == three.read_bytes()
        payload = json.loads(one.read_text())
        assert payload["verdict"] in {"KUMMER_CONSISTENT", "RIGIDITY_GAP",
                                      "INCONCLUSIVE"}
