"""Byte pins of the involution kernel and the Cremona step.

The CLI goldens run the kernel on one on-surface lane at a time and never
reach its ramification branches.  These digests pin the bytes of
_fiber_coeffs and of two turns of f through _apply_chain, on value lanes
and on lanes with two tangent rows, for three lane sets: random
off-surface lanes with NaN lanes, the branch lanes (A = 0 corners and a
double root) and seeded lanes on the Cayley cubic; 200 blanc_compose
steps of the map of the orbit benchmark; the Cremona step on a cubic with
all ten coefficients nonzero, whose mixed monomials no CLI golden reaches;
and the scalar surface wrappers, whose inverse chain and single
involutions no CLI golden runs.  A same-bytes change keeps every digest.
"""

import hashlib

import numpy as np
import pytest

from kummerlab import blanc_cremona as bc
from kummerlab import wehler_dynamics as wd
from test_blanc_cremona import DENSE, random_p2
from test_cayley_cubic import cayley_surface
from test_involution_engine import _branch_lanes, _branch_surface
from test_shared_helpers import _lanes

pytestmark = pytest.mark.golden


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _lane_set(name):
    if name == "random":
        return wd.random_surface(2).array(), _lanes(2, 256, nan_every=5)
    if name == "branch":
        surface = _branch_surface()
        return surface.array(), _branch_lanes(surface, 64)
    # seeded lanes, then the six points where two projections ramify at once
    # and the four nodes, (2a, 2b, -2ab) for a, b = +-1
    carr = cayley_surface().array()
    with np.errstate(all="ignore"):
        P = wd._seed_points(carr, np.random.default_rng(11), 256)
    special = [(0, 0, z) for z in (2, -2)] + [(0, y, 0) for y in (2, -2)]
    special += [(x, 0, 0) for x in (2, -2)]
    special += [(2 * a, 2 * b, -2 * a * b) for a in (1, -1) for b in (1, -1)]
    S = np.array([[(c, 1.0) for c in row] for row in special], dtype=complex)
    assert wd._residuals(carr, S).max() == 0.0
    return carr, np.concatenate([P, S])


def _kernel_bytes(name, kind):
    carr, P = _lane_set(name)
    rng = np.random.default_rng(9)
    T = rng.normal(size=(2,) + P.shape) + 1j * rng.normal(size=(2,) + P.shape)
    S = np.concatenate([P[None], T])
    with np.errstate(all="ignore"):
        if kind == "fiber_values":
            return [c for axis in range(3) for c in wd._fiber_coeffs(carr, axis, P[None])]
        if kind == "fiber_jets":
            return [part for axis in range(3) for c in wd._fiber_coeffs(carr, axis, S)
                    for part in (c[0], c[1:])]
        if kind == "chain_values":
            return [wd._apply_chain(carr, P[None], wd.FORWARD_AXES * 2)[0]]
        S = wd._apply_chain(carr, S, wd.FORWARD_AXES * 2)
        return [S[0], S[1:]]


def _same_bits(a, b):
    """Equal bytes once every NaN is the same NaN: numpy's complex loops over
    fewer than four elements give some NaNs of a dead lane another sign."""
    a, b = np.array(a), np.array(b)
    a[np.isnan(a)] = b[np.isnan(b)] = np.nan
    return a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["random", "branch", "cayley"])
@pytest.mark.parametrize("tangents", [0, 2])
def test_lane_bits_do_not_depend_on_the_lanes_beside_them(name, tangents):
    """Each lane alone and each run of 2 or 3 lanes gives the bits of the
    whole set, in _fiber_coeffs and in two turns of f: numpy may round a
    product of one-element arrays without FMA, which this would catch."""
    carr, P = _lane_set(name)
    rng = np.random.default_rng(9)
    T = rng.normal(size=(tangents,) + P.shape) + 1j * rng.normal(size=(tangents,) + P.shape)
    S = np.concatenate([P[None], T])
    with np.errstate(all="ignore"):
        fibers = [wd._fiber_coeffs(carr, axis, S) for axis in range(3)]
        images = wd._apply_chain(carr, S, wd.FORWARD_AXES * 2)
        for width in (1, 2, 3):
            for start in range(0, len(P) - width + 1, width):
                part = slice(start, start + width)
                for axis in range(3):
                    assert _same_bits(wd._fiber_coeffs(carr, axis, S[:, part]), fibers[axis][..., part])
                assert _same_bits(wd._apply_chain(carr, S[:, part], wd.FORWARD_AXES * 2), images[:, part])


KERNEL_PINS = {
    ("random", "fiber_values"): "e9817804dd79ed67",
    ("random", "fiber_jets"): "b2f92b00ae3e4736",
    ("random", "chain_values"): "166e816a85b267f3",
    ("random", "chain_jets"): "2fc30da889aa323c",
    ("branch", "fiber_values"): "ff1ae66c29b9bcdb",
    ("branch", "fiber_jets"): "dca0918c6f9634f5",
    ("branch", "chain_values"): "f07637b1373b0288",
    ("branch", "chain_jets"): "da820af54084cabb",
    ("cayley", "fiber_values"): "8462b445a9821914",
    ("cayley", "fiber_jets"): "f246a3013eb82002",
    ("cayley", "chain_values"): "a2c6465c44d17e2e",
    ("cayley", "chain_jets"): "a91d6bb98f3886ad",
}
BLANC_PIN = "8fcb4dc0e5a1b523"
INVERSE_PIN = "cfadb3c3fa608492"
SIGMA_PIN = "837c4be03f29d395"
DENSE_PINS = {
    "compose": "5bdb540d332d5143",
    "inverse": "72ebce8162fcbe1e",
    "sigma": "38f0b9439295942f",
    "line": "970857ed4eeda806",
    "infinity": "61c083c265b67ef2",
}


@pytest.mark.parametrize("name, kind", sorted(KERNEL_PINS))
def test_kernel_bytes_are_pinned(name, kind):
    assert _digest(*_kernel_bytes(name, kind)) == KERNEL_PINS[(name, kind)]


def test_blanc_compose_bytes_are_pinned():
    # the map and start point of `blanc orbit --seed 1 --l 3`
    cubic = bc.fermat_cubic()
    B = bc.BlancMap(cubic, tuple(bc.distinct_cubic_points(cubic, 3, 1)))
    rng = np.random.default_rng(1)
    p = bc.P2Point.make(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal(), 1.0)
    steps = []
    for _ in range(200):
        p = bc.blanc_compose(B, p)
        steps.append(p.array())
    assert _digest(*steps) == BLANC_PIN


def _dense_bytes(kind):
    B = bc.BlancMap(DENSE, tuple(bc.distinct_cubic_points(DENSE, 3, 1)))
    rng = np.random.default_rng(5)
    if kind in ("compose", "inverse"):
        step = bc.blanc_compose if kind == "compose" else bc.blanc_inverse
        p = bc.P2Point.make(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal(), 1.0)
        steps = []
        for _ in range(200):
            p = step(B, p)
            steps.append(p.array())
        return steps
    if kind == "sigma":
        return [bc.sigma_q(DENSE, B.base_points[0], random_p2(rng)).array() for _ in range(200)]
    if kind == "line":
        lines = rng.normal(size=(200, 2, 3)) + 1j * rng.normal(size=(200, 2, 3))
        return [np.array(bc._line_restriction(DENSE, a, d)) for a, d in lines]
    # inputs on the line at infinity of the chart of the first applied base
    # point, whose pivots are X0, X1, X2 in order
    assert [int(np.argmax(np.abs(q.array()))) for q in B.base_points] == [0, 1, 2]
    u, v = 0.3 + 0.7j, -1.1 + 0.2j
    return [
        bc.blanc_compose(B, bc.P2Point.make(u, v, 0.0)).array(),
        bc.blanc_inverse(B, bc.P2Point.make(0.0, u, v)).array(),
        bc.sigma_q(DENSE, B.base_points[0], bc.P2Point.make(0.0, u, v)).array(),
    ]


@pytest.mark.parametrize("kind", sorted(DENSE_PINS))
def test_dense_cubic_cremona_bytes_are_pinned(kind):
    assert _digest(*_dense_bytes(kind)) == DENSE_PINS[kind]


def _point_bytes(p):
    return np.array([p.x.u, p.x.v, p.y.u, p.y.v, p.z.u, p.z.v, p.residual])


def test_scalar_inverse_and_sigma_bytes_are_pinned():
    surface = wd.random_surface(3)
    rng = np.random.default_rng(4)
    p = wd.random_surface_point(surface, rng)
    steps = []
    for _ in range(200):
        p = wd.wehler_map_inverse(surface, p)
        steps.append(_point_bytes(p))
    assert _digest(*steps) == INVERSE_PIN
    images = []
    for _ in range(200):
        p = wd.random_surface_point(surface, rng)
        images += [_point_bytes(wd.sigma(surface, axis, p)) for axis in wd.Axis]
    assert _digest(*images) == SIGMA_PIN
