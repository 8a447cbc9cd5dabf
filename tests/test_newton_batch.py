"""Equivalence tests for the three stages of the periodic-point search.

The seed stage draws every chunk from its own random stream and gives it
its own stabilizer, and the lane stage steps any set of lanes; so a lane
set must give the same bits as its chunks run one after another, any
subset of lanes the same bits as the whole set restricted to it, and a
per-lane stabilizer stack the same bits as one (2, 2) matrix per chunk.
"""

import concurrent.futures

import numpy as np
import pytest

from kummerlab import wehler_dynamics as wd
from test_newton_kernel import _bits, _reference_newton_chunk

# unequal sizes over chunk indices 0..8, so the stabilizer cycle wraps
_SIZES = (5, 9, 3, 7, 4, 8, 2, 6, 5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_newton_batch_equals_concatenated_chunks(n, monkeypatch):
    # 9 chunks of 6 seeds and one of 1 wrap the 8-stabilizer cycle
    monkeypatch.setattr(wd, "SEED_CHUNK", 6)
    monkeypatch.setattr(wd, "NEWTON_MAX_ITER", 25)
    carr = wd.random_surface(1).array()
    P, stab = wd._draw_seeds(carr, n, 55, 11)
    got = wd._newton_lanes(carr, n, P, stab)
    bounds = range(0, 55, 6)
    one_by_one = np.concatenate(
        [wd._newton_lanes(carr, n, P[a:a + 6], stab[a:a + 6]) for a in bounds]
    )
    want = np.concatenate([
        _reference_newton_chunk(carr, n, min(6, 55 - a), 11, k, 25)
        for k, a in enumerate(bounds)
    ])
    assert got.shape == one_by_one.shape == want.shape
    assert _bits(got) == _bits(one_by_one) == _bits(want)
    if n > 1:
        # n = 1 finds nothing: f has no fixed point on a general surface
        assert len(got) > 0


def test_newton_lanes_on_lane_subsets_equals_restricted_whole_set(monkeypatch):
    monkeypatch.setattr(wd, "SEED_CHUNK", 8)
    monkeypatch.setattr(wd, "NEWTON_MAX_ITER", 25)
    carr = wd.random_surface(1).array()
    P, stab = wd._draw_seeds(carr, 2, 24, 7)
    whole = wd._newton_lanes(carr, 2, P, stab)
    # each single lane on its own gives that lane's part of the whole set
    single = [wd._newton_lanes(carr, 2, P[i:i + 1], stab[i:i + 1]) for i in range(24)]
    assert _bits(np.concatenate(single)) == _bits(whole)
    assert 0 < len(whole) < 24
    rng = np.random.default_rng(3)
    for idx in (np.arange(5, 17), np.arange(0, 24, 5), rng.permutation(24)[:15]):
        got = wd._newton_lanes(carr, 2, P[idx], stab[idx])
        assert _bits(got) == _bits(np.concatenate([single[i] for i in idx]))


def test_newton_lanes_leaves_its_input_unchanged():
    carr = wd.random_surface(1).array()
    P, stab = wd._draw_seeds(carr, 2, 16, 5)
    before = _bits(P, stab)
    wd._newton_lanes(carr, 2, P[:8], stab[:8])
    assert _bits(P, stab) == before


def test_zero_lanes_pass_through_every_stage():
    carr = wd.random_surface(1).array()
    P, stab = wd._draw_seeds(carr, 2, 0, 5)
    assert P.shape == (0, 3, 2) and stab.shape == (0, 2, 2)
    for n in (1, 2, 4):
        found = wd._newton_lanes(carr, n, P, stab)
        assert found.shape == (0, 3, 2)
        assert wd._canonical_sort(found).shape == (0, 3, 2)
        assert wd._greedy_dedup(found).shape == (0, 3, 2)
        assert wd._exact_period_filter(carr, found, n).shape == (0, 3, 2)
        big, small, fail = wd._multipliers_at(carr, found, n)
        assert big.shape == small.shape == fail.shape == (0,)
        assert wd.newton_periodic(wd.random_surface(1), n, 0, 5) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_newton_step_with_per_lane_stabilizers_equals_per_chunk_steps(n):
    carr = wd.random_surface(1).array()
    rng = np.random.default_rng(9)
    bounds = np.cumsum((0,) + _SIZES)
    with np.errstate(all="ignore"):
        P = wd._seed_points(carr, rng, bounds[-1])
        stab = np.concatenate([
            np.broadcast_to(wd._STABILIZERS[k % len(wd._STABILIZERS)], (size, 2, 2))
            for k, size in enumerate(_SIZES)
        ])
        # a few steps give a mix of moving, converged and dead lanes
        for _ in range(4):
            P, _, _ = wd._newton_step(carr, n, stab, P)
        got = wd._newton_step(carr, n, stab, P)
        parts = [
            wd._newton_step(carr, n, wd._STABILIZERS[k % len(wd._STABILIZERS)], P[a:b])
            for k, (a, b) in enumerate(zip(bounds, bounds[1:]))
        ]
    want = [np.concatenate(column) for column in zip(*parts)]
    assert _bits(*got) == _bits(*want)


def _orbit_bytes(orbits):
    return repr([(o.point, o.multipliers, o.type) for o in orbits]).encode()


def test_newton_periodic_is_byte_identical_over_uneven_worker_groups():
    # 700 seeds make chunks of 256, 256 and 188; two and three workers
    # split the 700 lanes into slices that cut across the chunks
    surface = wd.random_surface(3)
    runs = [
        wd.newton_periodic(surface, 2, seeds=700, rng_seed=4, workers=w)
        for w in (1, 2, 3)
    ]
    assert len(runs[0]) > 0
    assert _orbit_bytes(runs[0]) == _orbit_bytes(runs[1]) == _orbit_bytes(runs[2])


def test_newton_periodic_starts_at_most_one_worker_per_chunk(monkeypatch):
    surface = wd.random_surface(3)
    serial = wd.newton_periodic(surface, 2, seeds=300, rng_seed=4, workers=1)
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    # newton_periodic imports the pool class when it starts workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # 300 seeds are two chunks, so four workers start two processes
    pooled = wd.newton_periodic(surface, 2, seeds=300, rng_seed=4, workers=4)
    assert started == [2]
    assert len(serial) > 0
    assert _orbit_bytes(pooled) == _orbit_bytes(serial)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collected_lanes_return_within_the_accept_tolerance(n):
    # newton_periodic keeps its survivors without replaying f^n: every lane
    # _newton_lanes returns, and every sorted, deduplicated and
    # period-filtered subset of them, returns within NEWTON_ACCEPT_TOL
    carr = wd.random_surface(1).array()
    found = wd._newton_lanes(carr, n, *wd._draw_seeds(carr, n, 512, 2))
    disp = wd._return_displacement(carr, found, n)
    assert (disp <= wd.NEWTON_ACCEPT_TOL).all()
    cand = wd._canonical_sort(found)
    dedup = wd._greedy_dedup(cand)
    for subset in (cand, dedup, wd._exact_period_filter(carr, dedup, n)):
        assert (wd._return_displacement(carr, subset, n) <= wd.NEWTON_ACCEPT_TOL).all()
    # a lane's displacement bits do not depend on the lanes beside it
    idx = np.random.default_rng(n).permutation(len(found))[: len(found) // 2]
    assert _bits(wd._return_displacement(carr, found[idx], n)) == _bits(disp[idx])
    if n > 1:
        assert len(dedup) > 0
