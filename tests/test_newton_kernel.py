"""Equivalence tests for the vectorised periodic-point search kernel.

The dedup pass and the lane-frozen Newton loop must give the same bits as
the plain loops they replace; the plain loops live here as references.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerlab import wehler_dynamics as wd


# ---------------------------------------------------------------------------
# dedup


def _reference_chordal_displacement(P, Q):
    nP = np.empty_like(P)
    nQ = np.empty_like(Q)
    for ax in range(3):
        nP[:, ax, 0], nP[:, ax, 1] = wd._normalize_pair_arrays(P[:, ax, 0], P[:, ax, 1])
        nQ[:, ax, 0], nQ[:, ax, 1] = wd._normalize_pair_arrays(Q[:, ax, 0], Q[:, ax, 1])
    cross = np.abs(nP[:, :, 0] * nQ[:, :, 1] - nQ[:, :, 0] * nP[:, :, 1])
    return cross.max(axis=1)


def _reference_greedy_dedup(P, tol=wd.DEDUP_TOL):
    """The O(k^2) row-by-row loop: one pair of rows per comparison."""
    kept = []
    for row in P:
        cur = row[None]
        dup = False
        for k in kept:
            if _reference_chordal_displacement(cur, k[None])[0] <= tol:
                dup = True
                break
        if not dup:
            kept.append(row)
    if not kept:
        return P[:0]
    return np.stack(kept)


# near-duplicate offsets in units of DEDUP_TOL, straddling the threshold
_OFFSETS = (0.5, 0.999999, 0.9999999999, 1.0, 1.0000000001, 1.000001, 2.0)


@st.composite
def candidate_sets(draw):
    """Rows (m, 3, 2) drawn around a few base points: exact copies,
    projective rescalings of single axes, perturbations just inside and
    just outside DEDUP_TOL, and unrelated points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(draw(st.integers(1, 6)), 3, 2))
    base = base + 1j * rng.normal(size=base.shape)
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        row = base[draw(st.integers(0, len(base) - 1))].copy()
        kind = draw(st.sampled_from(["copy", "scale", "near", "fresh"]))
        ax = draw(st.integers(0, 2))
        if kind == "scale":
            row[ax] *= draw(st.sampled_from([-1.0, 1j, 0.001 - 2j, 1e3 + 1e-3j]))
        elif kind == "near":
            u, v = wd._normalize_pair_arrays(row[ax, 0:1], row[ax, 1:2])
            row[ax] = (u[0], v[0])
            phase = np.exp(2j * np.pi * draw(st.integers(0, 7)) / 8)
            eps = draw(st.sampled_from(_OFFSETS)) * wd.DEDUP_TOL * phase
            # perturb the smaller component: cross product ~ |eps|
            row[ax, 1 if abs(u[0]) >= abs(v[0]) else 0] += eps
            if draw(st.booleans()):
                row *= 3.0 - 0.5j
        elif kind == "fresh":
            row = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        rows.append(row)
    return np.array(rows, dtype=complex).reshape(-1, 3, 2)


@settings(max_examples=300, deadline=None)
@given(candidate_sets())
def test_greedy_dedup_matches_reference_loop(P):
    got = wd._greedy_dedup(P)
    want = _reference_greedy_dedup(P)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_greedy_dedup_threshold_is_inclusive():
    # the cross product of (1 : 0) and (1 : DEDUP_TOL) is exactly DEDUP_TOL
    row = np.array([[1.0, 0.0], [1.0, 0.5], [0.3, 1.0]], dtype=complex)
    twin = row.copy()
    twin[0, 1] = wd.DEDUP_TOL
    far = row.copy()
    far[0, 1] = 2 * wd.DEDUP_TOL
    assert len(wd._greedy_dedup(np.stack([row, twin, far]))) == 2
    assert len(_reference_greedy_dedup(np.stack([row, twin, far]))) == 2
    assert len(wd._greedy_dedup(np.empty((0, 3, 2), dtype=complex))) == 0


# ---------------------------------------------------------------------------
# Newton lane freezing


def _bits(*arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def test_newton_step_leaves_found_periodic_points_unchanged():
    carr = wd.random_surface(1).array()
    stab = wd._STABILIZERS[0]
    P = wd._newton_lanes(carr, 2, *wd._draw_seeds(carr, 2, 128, 3))
    assert len(P) > 5
    with np.errstate(all="ignore"):
        P2, alive, converged = wd._newton_step(carr, 2, stab, P)
    assert alive.all() and converged.all()
    assert _bits(P2) == _bits(P)


def test_newton_step_on_a_lane_subset_equals_restricted_full_step():
    carr = wd.random_surface(1).array()
    stab = wd._STABILIZERS[3]
    rng = np.random.default_rng(5)
    with np.errstate(all="ignore"):
        P = wd._seed_points(carr, rng, 64)
        # a few full steps give a mix of moving, converged and dead lanes
        for _ in range(4):
            P, _, _ = wd._newton_step(carr, 2, stab, P)
        full = wd._newton_step(carr, 2, stab, P)
        for idx in (np.arange(0, 64, 3), np.array([7]), rng.permutation(64)[:40]):
            sub = wd._newton_step(carr, 2, stab, P[idx])
            assert _bits(*sub) == _bits(*(a[idx] for a in full))


def _reference_newton_chunk(carr, n, count, rng_seed, chunk_index, max_iter):
    """The full-batch loop: every lane runs every iteration, and lanes that
    are dead keep their point."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=rng_seed, spawn_key=(n, chunk_index))
    )
    stab = wd._STABILIZERS[chunk_index % len(wd._STABILIZERS)]
    with np.errstate(all="ignore"):
        P = wd._seed_points(carr, rng, count)
        active = np.all(np.isfinite(P.reshape(count, -1)), axis=1)
        for _ in range(max_iter):
            P2, alive, _ = wd._newton_step(carr, n, stab, P)
            P = np.where(active[:, None, None], P2, P)
            active &= alive
        Q = wd._plain_chain(carr, P, wd.FORWARD_AXES, repeats=n)
        finite = np.all(np.isfinite(Q.reshape(count, -1)), axis=1)
        disp = np.where(finite, wd._chordal_displacement(P, Q), np.inf)
        good = active & finite & (disp <= wd.NEWTON_ACCEPT_TOL)
    return P[good]


def test_newton_chunk_with_frozen_lanes_matches_full_batch_loop(monkeypatch):
    monkeypatch.setattr(wd, "SEED_CHUNK", 48)
    monkeypatch.setattr(wd, "NEWTON_MAX_ITER", 30)
    carr = wd.random_surface(1).array()
    for n, chunk_index in ((2, 0), (3, 5)):
        P, stab = wd._draw_seeds(carr, n, 48 * (chunk_index + 1), 11)
        chunk = slice(48 * chunk_index, None)
        got = wd._newton_lanes(carr, n, P[chunk], stab[chunk])
        want = _reference_newton_chunk(carr, n, 48, 11, chunk_index, 30)
        assert len(got) > 0
        assert _bits(got) == _bits(want)
