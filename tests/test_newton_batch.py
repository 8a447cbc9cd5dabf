"""Equivalence tests for stepping several seed chunks as one Newton lane set.

Each chunk keeps its own random stream and stabilizer, so a batch of chunks
must give the same bits as running the chunks one after another, and a
per-lane stabilizer stack the same bits as one (2, 2) matrix per chunk.
"""

import numpy as np
import pytest

from kummerlab import wehler_dynamics as wd
from test_newton_kernel import _bits, _reference_newton_chunk

# unequal sizes over chunk indices 0..8, so the stabilizer cycle wraps
_SIZES = (5, 9, 3, 7, 4, 8, 2, 6, 5)


def _chunks(carr, n, rng_seed, max_iter):
    return [(carr, n, size, rng_seed, k, max_iter) for k, size in enumerate(_SIZES)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_newton_batch_equals_concatenated_chunks(n):
    carr = wd.random_surface(1).array()
    chunks = _chunks(carr, n, 11, 25)
    got = wd._newton_batch(chunks)
    one_by_one = np.concatenate([wd._newton_batch([c]) for c in chunks])
    want = np.concatenate([_reference_newton_chunk(*c) for c in chunks])
    assert got.shape == one_by_one.shape == want.shape
    assert _bits(got) == _bits(one_by_one) == _bits(want)
    if n > 1:
        # n = 1 finds nothing: f has no fixed point on a general surface
        assert len(got) > 0


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
    # 700 seeds make chunks of 256, 256 and 188; two workers split them 1 + 2
    surface = wd.random_surface(3)
    runs = [
        wd.newton_periodic(surface, 2, seeds=700, rng_seed=4, workers=w)
        for w in (1, 2, 3)
    ]
    assert len(runs[0]) > 0
    assert _orbit_bytes(runs[0]) == _orbit_bytes(runs[1]) == _orbit_bytes(runs[2])
