"""The singularity probe on exact jets, against its former finite-difference
refinement.

_former_suspect_system and _former_probe are the probe as it was written
before it refined all candidates at once: a scalar residual through
P1Points, a Jacobian by central differences with step 1e-7, one
Gauss-Newton run per candidate and its own dedup loop.  They are the
reference that _suspect_jets and the batched probe must reproduce.
"""

import numpy as np
import pytest

from kummerlab import wehler_dynamics as wd
from test_cayley_cubic import cayley_surface
from test_kummer_control import kummer_surface
from test_wehler_dynamics import _forced_node_surface


def _former_suspect_system(carr, wx, wy, wz):
    P = wd._pack_points([[wd.P1Point(1.0, w) for w in (wx, wy, wz)]])
    out = np.empty(4, dtype=complex)
    for axis, w in enumerate((wx, wy, wz)):
        A, B, C = wd._fiber_coeffs(carr, axis, P[None])[:, 0]
        out[1 + axis] = B[0] + 2 * C[0] * w
    out[0] = A[0] + B[0] * wz + C[0] * wz * wz
    return out


def _former_gauss_newton(system, w):
    h = 1e-7
    for _ in range(40):
        r = system(w)
        jac = np.empty((len(r), len(w)), dtype=complex)
        for j in range(len(w)):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            jac[:, j] = (system(wp) - system(wm)) / (2 * h)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
            return w, False
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            return w, False
        if not np.all(np.isfinite(step)):
            return w, False
        size = np.abs(step).max()
        if size > 0.5:
            step = step * (0.5 / size)
        w = w + step
        if size < 1e-14:
            break
    return w, True


def _former_refine(carr, cand):
    if any(abs(cand[ax, 0]) < 1e-6 for ax in range(3)):
        return None
    w = np.array([cand[ax, 1] / cand[ax, 0] for ax in range(3)])
    w, _ = _former_gauss_newton(lambda v: _former_suspect_system(carr, *v), w)
    r = _former_suspect_system(carr, *w)
    score = float(np.abs(r).max())
    if not (score < 1e-8 and np.all(np.isfinite(w))):
        return None
    x, y, z = (wd.P1Point.make(1.0, c) for c in w)
    return wd.Suspect(point=wd.SurfacePoint(x, y, z, float(np.abs(r[0]))), grad_max=score)


def _former_probe(surface, trials, rng_seed):
    carr = surface.array()
    rng = np.random.default_rng(rng_seed)
    with np.errstate(all="ignore"):
        P = wd._seed_points(carr, rng, max(trials, 1))
        P = P[wd._finite_lanes(P)]
        grads = np.abs(wd._chart(carr, P).partials).max(axis=0)
        kept = []
        for idx in np.argsort(grads)[:20]:
            hit = _former_refine(carr, P[idx])
            if hit is not None and all(hit.point.chordal(k.point) > 1e-6 for k in kept):
                kept.append(hit)
        return kept


def _lanes(count, seed):
    """Affine points of modulus about 1, where the probe's candidates start
    (|w| <= 1 on max-normalised lanes); central differences lose digits to
    rounding as |F| grows like |w|^6."""
    rng = np.random.default_rng(seed)
    return 0.5 * (rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3)))


@pytest.mark.parametrize("surface", [wd.random_surface(1), kummer_surface()],
                         ids=["random1", "kummer"])
def test_suspect_jets_match_former_system_and_central_differences(surface):
    carr = surface.array()
    W = _lanes(32, 4)
    r, jac = wd._suspect_jets(carr, W)
    assert r.shape == (32, 4) and jac.shape == (32, 4, 3)
    former = np.array([_former_suspect_system(carr, *w) for w in W])
    assert np.abs(r - former).max() < 1e-14
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        central = (wd._suspect_jets(carr, W + e)[0] - wd._suspect_jets(carr, W - e)[0]) / (2 * h)
        assert np.abs(jac[:, :, j] - central).max() < 1e-8
    # the gradient rows' Jacobian is the Hessian of the affine F: symmetric
    assert np.abs(jac[:, 1:] - jac[:, 1:].transpose(0, 2, 1)).max() < 1e-14


FIXTURES = {
    "forced_node": _forced_node_surface,
    "kummer": kummer_surface,
    "cayley": cayley_surface,
    **{f"forced_node_{s}": (lambda s=s: _forced_node_surface(s)) for s in (20, 21, 22, 23)},
}


@pytest.mark.parametrize("trials, rng_seed", [(200, 0), (3000, 5)])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_probe_matches_former_finite_difference_refinement(name, trials, rng_seed):
    surface = FIXTURES[name]()
    suspects = wd.singularity_probe(surface, trials, rng_seed)
    former = _former_probe(surface, trials, rng_seed)
    assert len(suspects) == len(former) >= 1
    for new, old in zip(suspects, former):
        assert new.point.chordal(old.point) < 1e-12
        assert new.grad_max < 1e-8


@pytest.mark.xfail(strict=True, reason=(
    "the probe refines in the chart u = 1 on every axis and skips candidates "
    "with some |u| < 1e-6, so a node at (0:1) on any axis is never reported; "
    "a per-lane chart found only 8 of the 12 Kummer-control suspects at 200 "
    "trials"))
def test_probe_flags_the_mirrored_node_at_zero_over_one():
    surface = _forced_node_surface(zeroed=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    zero = wd.P1Point(0.0, 1.0)
    assert wd.surface_residual(surface, zero, zero, zero) == 0.0
    suspects = wd.singularity_probe(surface, trials=3000, rng_seed=5)
    node = wd.SurfacePoint(zero, zero, zero, 0.0)
    assert any(s.point.chordal(node) < 1e-6 for s in suspects)
