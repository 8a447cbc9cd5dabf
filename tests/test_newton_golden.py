"""Golden digests that pin the periodic-point search bit for bit.

The digests were recorded before the Newton kernel was vectorised (lane
freezing, vectorised dedup, shared monomial products), so any change to
the rounding of the search, the dedup order or the multipliers fails here.
"""

import hashlib

import numpy as np
import pytest

from kummerlab import wehler_dynamics as wd

pytestmark = pytest.mark.golden

GOLDEN = {
    (3, 1): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 2): (87, "969ff598841698a1a0d8d128dcbc47d0adb767c748a185894185ba22edefb577"),
    (3, 3): (100, "cce4614c9112d91e3876643ea924c94eab8a0ebb03cdb528aacd8362b8f1dd98"),
    (17, 1): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (17, 2): (96, "b75e3c40d93b8f3dc4a088ae13ddcb26b7e80d5db92ec0c4c0457c25eef62388"),
    (17, 3): (115, "5b8ca985091e59e0cdb19ca8ea87912531117e5c7b1c272ec2ccc7873b1d8983"),
}


def _digest(orbits):
    pts = np.array(
        [
            [o.point.x.u, o.point.x.v, o.point.y.u, o.point.y.v, o.point.z.u, o.point.z.v]
            for o in orbits
        ],
        dtype=complex,
    ).reshape(-1, 6)
    mult = np.array([o.multipliers for o in orbits], dtype=complex).reshape(-1, 2)
    return hashlib.sha256(pts.tobytes() + mult.tobytes()).hexdigest()


@pytest.mark.parametrize("seed, n", sorted(GOLDEN))
def test_newton_periodic_matches_golden_digest(seed, n):
    orbits = wd.newton_periodic(wd.random_surface(1), n, 256, seed)
    count, digest = GOLDEN[(seed, n)]
    assert len(orbits) == count
    assert _digest(orbits) == digest
