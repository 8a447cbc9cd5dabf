"""Tests for the helpers that hold one copy of work shared by several
callers: the value-only fiber quadratic, the saddle census, the damped
Gauss-Newton refiner and the rigidity verdict."""

import ctypes
import json
import math

import numpy as np
import pytest

from kummerlab import cli
from kummerlab import wehler_dynamics as wd
from kummerlab.wehler_dynamics import gauss_newton
from kummerlab.errors import TooFewSaddlesError
from kummerlab.torus_kummer import LyapunovMethod, LyapunovReport

# ---------------------------------------------------------------------------
# value-only fiber quadratic


def _lanes(surface_seed, count, nan_every=0):
    rng = np.random.default_rng(100 + surface_seed)
    P = rng.normal(size=(count, 3, 2)) + 1j * rng.normal(size=(count, 3, 2))
    if nan_every:
        P[::nan_every, rng.integers(0, 3), rng.integers(0, 2)] = np.nan
    return P


@pytest.mark.parametrize("surface_seed", [0, 1, 2, 7, 13])
@pytest.mark.parametrize("count, nan_every", [(1, 0), (256, 0), (256, 5)])
def test_value_only_fiber_coeffs_match_jet_values_bitwise(surface_seed, count, nan_every):
    carr = wd.random_surface(surface_seed).array()
    P = _lanes(surface_seed, count, nan_every)
    for axis in range(3):
        plain = wd._fiber_coeffs(carr, axis, P[None])[:, 0]
        jets = wd._fiber_coeffs(carr, axis, np.concatenate([P[None], np.zeros((2,) + P.shape)]))
        for value, jet in zip(plain, jets):
            assert isinstance(value, np.ndarray)
            assert value.tobytes() == jet[0].tobytes()


def test_value_only_fiber_coeffs_match_jets_with_tangents():
    carr = wd.random_surface(3, real_coeffs=True).array()
    P = _lanes(3, 64, nan_every=7)
    T = _lanes(4, 2 * 64).reshape(2, 64, 3, 2)
    S = np.concatenate([P[None], T])
    for axis in range(3):
        plain = wd._fiber_coeffs(carr, axis, P[None])[:, 0]
        for value, jet in zip(plain, wd._fiber_coeffs(carr, axis, S)):
            assert value.tobytes() == jet[0].tobytes()


# ---------------------------------------------------------------------------
# saddle census


def test_saddle_census_equals_the_per_period_loop():
    surface = wd.random_surface(1)
    orbits, estimates, per_period = wd.saddle_census(surface, 3, 256, 5)
    ref_orbits, ref_estimates, ref_rows = [], [], []
    for n in range(1, 4):
        batch = wd.newton_periodic(surface, n, 256, 5)
        ref_orbits.extend(batch)
        try:
            est = wd.lyapunov_from_saddles(batch)
        except TooFewSaddlesError:
            continue
        ref_estimates.append(est)
        ref_rows.append((n, len(batch), est.lambda_u))
    assert orbits == ref_orbits
    assert estimates == ref_estimates
    assert per_period == ref_rows
    # period 1 has no points on a very general surface, so it has no row
    assert [n for (n, _, _) in per_period] == [2, 3]


def test_lyapunov_and_rigidity_commands_report_the_same_per_period(tmp_path):
    argv = ["--random", "--seed", "2", "--nmax", "3", "--seeds", "256",
            "--workers", "1"]
    rows = {}
    for command in ("lyapunov", "rigidity"):
        out = tmp_path / f"{command}.json"
        assert cli.main(["wehler", command, *argv, "--out", str(out)]) == 0
        rows[command] = json.loads(out.read_text())["per_period"]
    assert rows["lyapunov"] == rows["rigidity"]
    assert len(rows["lyapunov"]) == 2


# ---------------------------------------------------------------------------
# damped Gauss-Newton


def _polynomial_system(W):
    x, y = W[:, 0], W[:, 1]
    zero = np.zeros_like(x)
    r = np.stack([x * x - 4.0, x * y - 2.0, y * y * y - 1.0], axis=1)
    jac = np.stack([np.stack([2 * x, zero], axis=1),
                    np.stack([y, x], axis=1),
                    np.stack([zero, 3 * y * y], axis=1)], axis=1)
    return r, jac


def _square_minus_four(W):
    """x^2 - 4 on one unknown, NaN (residual and Jacobian) where |x - 1| < 1/4."""
    nan = np.abs(W - 1) < 0.25
    return np.where(nan, np.nan, W * W - 4.0), np.where(nan, np.nan, 2 * W)[:, :, None]


def _flush_c_stdio():
    # LAPACK prints its complaint about NaN input through C stdio, outside
    # Python; flush C's buffers so that such output would be captured
    libc = ctypes.CDLL(None)
    libc.fflush.argtypes, libc.fflush.restype = [ctypes.c_void_p], ctypes.c_int
    libc.fflush(None)


def test_gauss_newton_converges_on_a_polynomial_system():
    W, ok = gauss_newton(_polynomial_system, np.array([[1.6 + 0.2j, 0.7 - 0.1j]]))
    assert ok.tolist() == [True]
    assert np.abs(W - np.array([2.0, 1.0])).max() < 1e-12
    assert np.abs(_polynomial_system(W)[0]).max() < 1e-12


def test_gauss_newton_caps_each_step():
    seen = []

    def system(W):
        seen.append(W.copy())
        return W - 10.0, np.ones((len(W), 1, 1), dtype=complex)

    W, ok = gauss_newton(system, np.array([[0j]]))
    assert ok.tolist() == [True] and abs(W[0, 0] - 10.0) < 1e-12
    # every call is a solve point, and each moves by at most 0.5
    solves = [v[0, 0] for v in seen]
    assert len(solves) == 21
    assert all(abs(b - a) <= 0.5 + 1e-15 for a, b in zip(solves, solves[1:]))


def test_gauss_newton_returns_last_finite_iterate_on_a_non_finite_step():
    # the residual jumps to 1e300 at w = 0.5 while the slope stays 1e-17,
    # so the least-squares step there overflows
    def system(W):
        r = np.where(W == 0.5, 1e300 + 0j, 1e-17 * W)
        return r, np.full((len(W), 1, 1), 1e-17 + 0j)

    with np.errstate(all="ignore"):
        W, ok = gauss_newton(system, np.array([[1.0 + 0j]]))
    assert ok.tolist() == [False]
    assert W.tolist() == [[0.5 + 0j]]


def test_gauss_newton_returns_last_finite_iterate_when_the_system_turns_nan(capfd):
    # x^2 - 4 from 0.5: the first step is capped at 0.5 and lands on w = 1,
    # where the system is NaN and the least-squares solve must not run
    with np.errstate(all="ignore"):
        W, ok = gauss_newton(_square_minus_four, np.array([[0.5 + 0j]]))
    assert ok.tolist() == [False]
    assert W.tolist() == [[1.0 + 0j]]
    _flush_c_stdio()
    assert capfd.readouterr() == ("", "")


def test_gauss_newton_lanes_do_not_see_a_nan_lane(capfd):
    # the middle lane turns NaN after one step; the others converge to 2
    # and -2 as they would alone
    start = np.array([[1.6 + 0.2j], [0.5 + 0j], [-1.7 - 0.3j]])
    with np.errstate(all="ignore"):
        W, ok = gauss_newton(_square_minus_four, start)
        alone = [gauss_newton(_square_minus_four, start[i:i + 1]) for i in range(3)]
    assert ok.tolist() == [True, False, True]
    assert ok.tolist() == [a[1][0] for a in alone]
    assert W.tolist() == [a[0][0].tolist() for a in alone]
    assert np.abs(W[[0, 2], 0] - np.array([2.0, -2.0])).max() < 1e-12
    _flush_c_stdio()
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# rigidity verdict

LAM = wd.wehler_lambda_f()
HALF = 0.5 * math.log(LAM)
V = wd.RigidityVerdict


def _lyap(lu, ls, stderr=0.01):
    return LyapunovReport(lu, ls, LyapunovMethod.SADDLE_MULTIPLIERS, stderr)


@pytest.mark.parametrize(
    "lyap, dimension, verdict",
    [
        (_lyap(HALF + 1.0, -HALF), None, V.RIGIDITY_GAP),
        # lambda_s does not enter the verdict: gap_s = +-1 with gap_u = 0
        (_lyap(HALF, -HALF - 1.0), (4.0, 0.1), V.KUMMER_CONSISTENT),
        (_lyap(HALF - 1.0, -HALF), (4.0, 0.1), V.INCONCLUSIVE),
        (_lyap(HALF, -HALF + 1.0), (4.0, 0.1), V.KUMMER_CONSISTENT),
        (_lyap(HALF + 0.01, -HALF), (4.0, 0.1), V.KUMMER_CONSISTENT),
        (_lyap(HALF, -HALF), (3.0, 0.1), V.INCONCLUSIVE),
        (_lyap(HALF, -HALF), None, V.INCONCLUSIVE),
        (None, (4.0, 0.1), V.INCONCLUSIVE),
        (None, None, V.INCONCLUSIVE),
        # the same gap_u = +-1 rows with a matching lambda_s keep their verdicts
        (_lyap(HALF + 1.0, -HALF - 1.0), (4.0, 0.1), V.RIGIDITY_GAP),
        (_lyap(HALF - 1.0, -HALF + 1.0), (4.0, 0.1), V.INCONCLUSIVE),
    ],
)
@pytest.mark.parametrize("qr_lambda_u", [None, HALF + 0.25])
def test_assemble_rigidity_table(lyap, dimension, verdict, qr_lambda_u):
    rows = ((2, 7, 1.5),)
    rep = wd.assemble_rigidity(LAM, HALF, lyap, dimension, 7, qr_lambda_u, rows)
    assert rep.verdict is verdict
    assert (rep.lambda_f, rep.n_saddles, rep.per_period) == (LAM, 7, rows)
    assert rep.qr_lambda_u == qr_lambda_u
    assert (rep.dimension_est, rep.dimension_stderr) == (dimension or (None, None))
    if lyap is None:
        assert rep.lambda_u_est is rep.lambda_s_est is rep.lyap_stderr is None
        assert rep.gap_u is rep.gap_s is None
        # without a saddle estimate there is no QR gap, even with a QR value
        assert rep.qr_gap is None
    else:
        assert (rep.lambda_u_est, rep.lambda_s_est, rep.lyap_stderr) == (
            lyap.lambda_u, lyap.lambda_s, lyap.stderr)
        assert rep.gap_u == lyap.lambda_u - HALF
        assert rep.gap_s == -lyap.lambda_s - HALF
        assert rep.qr_gap == (None if qr_lambda_u is None else qr_lambda_u - HALF)
