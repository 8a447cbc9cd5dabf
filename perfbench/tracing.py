"""The traced run: spans around each layer's public functions, called in the
order the CLI command calls them, plus one timing probe per layer function.

Spans are recorded only here, from the benchmark's own code; the package
itself carries no instrumentation.  A span's layer is the kummerlab module
that defines the function it wraps, and each operation has one root span in
the ``cli`` layer, whose self time is the CLI's own formatting and parsing.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from kummerlab import blanc_cremona as bc
from kummerlab import cli
from kummerlab import lattice_algebra as la
from kummerlab import torus_kummer as tk
from kummerlab import wehler_dynamics as wd
from kummerlab.errors import (
    DegenerateRadiiError,
    InsufficientSamplesError,
    InternalInvariantError,
    KummerlabError,
    TooFewSaddlesError,
)

import workloads as W

LAYERS = ("lattice_algebra", "torus_kummer", "wehler_dynamics", "blanc_cremona", "cli")


class Tracer:
    """In-memory spans: (id, parent id, operation id, layer, name, start,
    end, error type or None)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, layer: str, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               self.op, layer, name, perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        except BaseException as err:
            rec[7] = type(err).__name__
            raise
        finally:
            rec[6] = perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        layer = fn.__module__.rsplit(".", 1)[-1]
        with self.span(layer, f"{layer}.{fn.__qualname__}"):
            return fn(*args, **kwargs)

    def layer_stats(self) -> dict:
        """Per layer: self time (span time minus child-span time), calls
        and calls that raised."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[6] - s[5]
        stats = {layer: {"self_s": 0.0, "calls": 0, "errors": 0} for layer in LAYERS}
        for s in self.spans:
            entry = stats[s[3]]
            entry["self_s"] += (s[6] - s[5]) - child[s[0]]
            entry["calls"] += 1
            entry["errors"] += s[7] is not None
        return stats

    def dump(self, path: Path) -> None:
        keys = ("id", "parent", "op", "layer", "name", "start", "end", "error")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


# ---------------------------------------------------------------------------
# public decompositions of each CLI command, mirroring kummerlab.cli


def _census(t: Tracer, seed: int, workdir: Path) -> bytes:
    data = json.loads((workdir / W.SURFACE_FILE).read_text())["coeffs"]
    arr = np.array([[[complex(*c) for c in row] for row in plane] for plane in data])
    surface = t.call(wd.WehlerSurface.from_array, arr)
    lam_f = t.call(wd.wehler_lambda_f)
    orbits, per_period, estimates = [], [], []
    for n in range(1, W.CENSUS_NMAX + 1):
        batch = t.call(wd.newton_periodic, surface, n, W.CENSUS_SEEDS, seed, workers=1)
        orbits.extend(batch)
        try:
            est = t.call(wd.lyapunov_from_saddles, batch)
        except TooFewSaddlesError:
            continue
        estimates.append(est)
        per_period.append((n, len(batch), est.lambda_u))
    try:
        lyap = t.call(wd.pool_period_estimates, estimates)
    except TooFewSaddlesError:
        lyap = None
    dimension = None
    cloud = t.call(wd.saddle_cloud, orbits)
    if len(cloud) >= 1000:
        try:
            dimension = t.call(tk.local_dimension_estimate, cloud, wd.surface_cloud_distance,
                               wd.DEFAULT_SURFACE_RADII, min(64, len(cloud)), seed)
        except (InsufficientSamplesError, DegenerateRadiiError):
            dimension = None
    report = t.call(wd.assemble_rigidity, lam_f, 0.5 * math.log(lam_f), lyap, dimension,
                    len(orbits), per_period=tuple(per_period) if per_period else None)
    return t.call(cli.json_bytes, t.call(cli.rigidity_json, report))


def _wehler_orbit(t: Tracer, seed: int, workdir: Path) -> bytes:
    surface = t.call(wd.random_surface, seed)
    rng = np.random.default_rng(seed)
    p0 = t.call(wd.random_surface_point, surface, rng, tol=wd.MEMBERSHIP_TOL)
    points, _ = t.call(wd.orbit, surface, p0, W.ORBIT_STEPS, tol=wd.MEMBERSHIP_TOL)
    header = ["step"]
    for name in ("x_u", "x_v", "y_u", "y_v", "z_u", "z_v"):
        header += [f"{name}_re", f"{name}_im"]
    header.append("residual")
    rows = []
    for step, p in enumerate(points):
        cells = [step]
        for z in (p.x.u, p.x.v, p.y.u, p.y.v, p.z.u, p.z.v):
            cells += [repr(float(z.real)), repr(float(z.imag))]
        cells.append(repr(float(p.residual)))
        rows.append(cells)
    return t.call(cli.csv_bytes, header, rows)


def _wehler_density(t: Tracer, seed: int, workdir: Path) -> bytes:
    surface = t.call(wd.random_surface, seed)
    rng = np.random.default_rng(seed)
    p0 = t.call(wd.random_surface_point, surface, rng)
    img = t.call(wd.density_histogram, surface, p0, W.DENSITY_ITERS, proj=("x", "y"), bins=512)
    return f"P5 {img.shape[1]} {img.shape[0]} 255\n".encode() + img.tobytes()


def _blanc_map(t: Tracer, seed: int) -> bc.BlancMap:
    cubic = t.call(bc.fermat_cubic)
    points = tuple(t.call(bc.distinct_cubic_points, cubic, 3, seed))
    return t.call(bc.BlancMap, cubic, points)


def _blanc_orbit(t: Tracer, seed: int, workdir: Path) -> bytes:
    B = _blanc_map(t, seed)
    rng = np.random.default_rng(seed)
    p = t.call(bc.P2Point.make, rng.normal() + 1j * rng.normal(),
               rng.normal() + 1j * rng.normal(), 1.0)
    rows = []
    for idx in range(W.CREMONA_STEPS):
        p = t.call(bc.blanc_compose, B, p)
        arr = p.array()
        if not np.all(np.isfinite(arr)):
            raise InternalInvariantError("orbit left the finite range")
        cells = [idx + 1]
        for z in arr:
            cells += [repr(float(z.real)), repr(float(z.imag))]
        rows.append(cells)
    header = ["step", "x0_re", "x0_im", "x1_re", "x1_im", "x2_re", "x2_im"]
    return t.call(cli.csv_bytes, header, rows)


def _blanc_two_form(t: Tracer, seed: int, workdir: Path) -> bytes:
    B = _blanc_map(t, seed)
    rng = np.random.default_rng(seed)
    rows = []
    guard = 0
    while len(rows) < W.TWO_FORM_POINTS:
        guard += 1
        if guard > 50 * W.TWO_FORM_POINTS:
            raise InternalInvariantError("two-form sampling stalled")
        x = rng.normal() + 1j * rng.normal()
        y = rng.normal() + 1j * rng.normal()
        try:
            defect = t.call(bc.two_form_check, B, bc.P2Point.make(x, y, 1.0))
        except KummerlabError:
            continue
        rows.append([len(rows), repr(float(x.real)), repr(float(x.imag)),
                     repr(float(y.real)), repr(float(y.imag)), repr(float(defect))])
    return t.call(cli.csv_bytes, ["index", "x_re", "x_im", "y_re", "y_im", "defect"], rows)


def _torus(t: Tracer) -> tk.TorusAutomorphism:
    matrix = t.call(cli.parse_int_matrix, W.TORUS_MATRIX)
    return t.call(tk.TorusAutomorphism, matrix, t.call(tk.TorusLattice), tk.Quotient.NONE)


def _fix_enum(t: Tracer, seed: int, workdir: Path) -> bytes:
    ensemble = t.call(tk.fix_enumerate, _torus(t), W.TORUS_PERIOD, cap=10**6)
    rows = [[f"{c.numerator}/{c.denominator}" for c in p.coords] for p in ensemble.points]
    return t.call(cli.csv_bytes, ["a1", "b1", "a2", "b2"], rows)


def _equidist(t: Tracer, seed: int, workdir: Path) -> bytes:
    ensemble = t.call(tk.fix_enumerate, _torus(t), W.TORUS_PERIOD, cap=10**6)
    weyl = t.call(tk.equidistribution_test, ensemble, 3)
    return t.call(cli.json_bytes, {
        "period": W.TORUS_PERIOD,
        "count": cli.json_int(ensemble.count),
        "k_max": weyl.k_max,
        "max_abs": float(weyl.max_abs),
        "max_nontrivial_abs": float(weyl.max_nontrivial_abs),
        "n_trivial_frequencies": len(weyl.trivial_frequencies),
    })


def _dimension(t: Tracer, seed: int, workdir: Path) -> bytes:
    f = _torus(t)
    samples = t.call(tk.haar_samples, 100000, seed)
    radii = tuple(np.geomspace(0.5, 0.05, 8))
    est, err = t.call(tk.local_dimension_estimate, samples, t.call(tk.torus_distance, f.lattice),
                      radii, 64, seed + 1)
    return t.call(cli.json_bytes,
                  {"dimension": float(est), "stderr": float(err), "n_samples": 100000})


def _torus_rigidity(t: Tracer, seed: int, workdir: Path) -> bytes:
    # wd.torus_control_report, one public call at a time
    f = _torus(t)
    half = t.call(tk.half_log_h2_degree, f)
    exact = t.call(tk.lyapunov_exact, f)
    qr = t.call(tk.lyapunov_qr_orbit, f, tk.TorusPoint.origin(), 10**4)
    samples = t.call(tk.haar_samples, 10**5, seed)
    dimension = t.call(tk.local_dimension_estimate, samples, t.call(tk.torus_distance, f.lattice),
                       tuple(np.geomspace(0.5, 0.05, 8)), 64, seed + 1)
    report = t.call(wd.assemble_rigidity, math.exp(2 * half), half, exact, dimension, 0,
                    qr.lambda_u)
    return t.call(cli.json_bytes, t.call(cli.rigidity_json, report))


def _degree(t: Tracer, seed: int, workdir: Path) -> bytes:
    rep = t.call(la.dynamical_degree, t.call(cli.parse_int_matrix, W.TORUS_MATRIX))
    return t.call(cli.json_bytes, t.call(cli.spectral_json, rep))


def _salem(t: Tracer, seed: int, workdir: Path) -> bytes:
    rep = t.call(la.spectral_report, t.call(cli.parse_poly, "lehmer"))
    return t.call(cli.json_bytes, t.call(cli.spectral_json, rep))


def _rank2(t: Tracer, seed: int, workdir: Path) -> bytes:
    lattice = t.call(la.QuadraticLattice, t.call(cli.parse_int_matrix, W.RANK2_GRAM))
    analysis = t.call(la.rank2_analysis, lattice, search_bound=10000)
    return t.call(cli.json_bytes, {
        "represents_zero": analysis.represents_zero,
        "represents_minus_two": analysis.represents_minus_two,
        "aut_infinite": analysis.aut_infinite,
        "lambda_psi": None if analysis.lambda_psi is None else cli.sig15(analysis.lambda_psi),
    })


def _wehler_action(t: Tracer, seed: int, workdir: Path) -> bytes:
    m1, m2, m3, lattice = t.call(la.wehler_cohomology_action)
    rep = t.call(la.dynamical_degree, m1 @ m2 @ m3)
    ident = la.IntMatrix.identity(m1.dim)
    payload = t.call(cli.spectral_json, rep)
    payload["involution_check"] = all((m @ m) == ident for m in (m1, m2, m3))
    payload["isometry_check"] = all(t.call(la.isometry_check, m, lattice) for m in (m1, m2, m3))
    return t.call(cli.json_bytes, payload)


def _enriques(t: Tracer, seed: int, workdir: Path) -> bytes:
    lattice = t.call(la.enriques_lattice)
    pos, neg, zero = t.call(la.signature, lattice)
    entries = lattice.gram.entries
    return t.call(cli.json_bytes, {
        "rank": lattice.gram.dim,
        "signature": [pos, neg, zero],
        "det": cli.json_int(lattice.gram.det()),
        "even": all(entries[i][i] % 2 == 0 for i in range(lattice.gram.dim)),
    })


DECOMPOSITIONS = {
    ("wehler", "rigidity"): _census,
    ("wehler", "orbit"): _wehler_orbit,
    ("wehler", "density"): _wehler_density,
    ("blanc", "orbit"): _blanc_orbit,
    ("blanc", "check-two-form"): _blanc_two_form,
    ("torus", "fix-enum"): _fix_enum,
    ("torus", "equidist"): _equidist,
    ("torus", "dimension"): _dimension,
    ("torus", "rigidity"): _torus_rigidity,
    ("lattice", "degree"): _degree,
    ("lattice", "salem"): _salem,
    ("lattice", "rank2"): _rank2,
    ("lattice", "wehler-action"): _wehler_action,
    ("lattice", "enriques"): _enriques,
}


def traced_op(t: Tracer, op_id: int, argv: list[str], workdir: Path):
    """Run one operation's decomposition under a root span; returns the
    digest of the bytes it assembles, or None if it raised."""
    t.op = op_id
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    try:
        with t.span("cli", "cli.run " + " ".join(argv[:2])):
            payload = DECOMPOSITIONS[tuple(argv[:2])](t, seed, workdir)
            return str(t.call(cli.fnv1a64, payload))
    except Exception:  # a failing decomposition is a failed cross-check
        return None


# ---------------------------------------------------------------------------
# one timing probe per layer function


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - start, result


def _median_call(fn, args_list) -> float:
    times = []
    for args in args_list:
        start = perf_counter()
        fn(*args)
        times.append(perf_counter() - start)
    return statistics.median(times)


def layer_probes(seed: int) -> tuple[dict, list[str]]:
    """Per-layer timings and counts on fixed inputs, the same for every
    workload.  Returns (metrics, failure messages)."""
    m: dict[str, float] = {}
    failures: list[str] = []
    surface = wd.random_surface(W.CENSUS_SURFACE_SEED)

    # wehler_dynamics: the census search, one period at a time
    batches = {}
    for n in range(1, W.CENSUS_NMAX + 1):
        secs, batches[n] = _timed(wd.newton_periodic, surface, n, W.CENSUS_SEEDS, seed)
        m[f"wehler_dynamics.newton_periodic.n{n}_s"] = secs
    found = sum(len(b) for b in batches.values())
    m["wehler_dynamics.newton_periodic.points_per_seed"] = found / (W.CENSUS_NMAX * W.CENSUS_SEEDS)
    m["wehler_dynamics.newton_periodic.coverage_p2"] = len(batches[2]) / W.census_denominator()
    m["wehler_dynamics.newton_periodic.chunk_s"], _ = _timed(
        wd.newton_periodic, surface, 2, wd.SEED_CHUNK, seed)
    secs2, batch2 = _timed(wd.newton_periodic, surface, 2, W.CENSUS_SEEDS, seed, workers=2)
    m["wehler_dynamics.newton_periodic.workers2_speedup"] = (
        m["wehler_dynamics.newton_periodic.n2_s"] / secs2)
    if cli.saddles_csv(batch2) != cli.saddles_csv(batches[2]):
        failures.append("newton_periodic differs between workers 1 and 2")

    start = perf_counter()
    estimates, per_period = [], []
    for n, batch in batches.items():
        try:
            est = wd.lyapunov_from_saddles(batch)
        except TooFewSaddlesError:
            continue
        estimates.append(est)
        per_period.append((n, len(batch), est.lambda_u))
    lam_f = wd.wehler_lambda_f()
    wd.assemble_rigidity(lam_f, 0.5 * math.log(lam_f), wd.pool_period_estimates(estimates),
                         None, found, per_period=tuple(per_period))
    m["wehler_dynamics.estimators_s"] = perf_counter() - start

    p0 = wd.random_surface_point(surface, np.random.default_rng(seed))
    points, _ = wd.orbit(surface, p0, 200)
    m["wehler_dynamics.wehler_map.s"] = _median_call(
        wd.wehler_map, [(surface, p) for p in points])
    m["wehler_dynamics.sigma.s"] = _median_call(
        wd.sigma, [(surface, wd.Axis.Z, p) for p in points])
    secs, _ = _timed(wd.orbit, surface, p0, 500)
    m["wehler_dynamics.orbit.s_per_step"] = secs / 500
    secs, _ = _timed(wd.density_histogram, surface, p0, 500)
    m["wehler_dynamics.density_histogram.s_per_step"] = secs / 500

    # blanc_cremona, l = 3 on the Fermat cubic
    cubic = bc.fermat_cubic()
    secs, _ = _timed(bc.cubic_points, cubic, 300, seed)
    m["blanc_cremona.cubic_points.s_per_point"] = secs / 300
    B = bc.BlancMap(cubic, tuple(bc.distinct_cubic_points(cubic, 3, seed)))
    rng = np.random.default_rng(seed)
    orbit = [bc.P2Point.make(rng.normal() + 1j * rng.normal(),
                             rng.normal() + 1j * rng.normal(), 1.0)]
    for _ in range(299):
        orbit.append(bc.blanc_compose(B, orbit[-1]))
    m["blanc_cremona.blanc_compose.s"] = _median_call(bc.blanc_compose, [(B, p) for p in orbit])
    m["blanc_cremona.sigma_q.s"] = _median_call(
        bc.sigma_q, [(cubic, B.base_points[0], p) for p in orbit])
    times = []
    while len(times) < 100:
        p = bc.P2Point.make(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal(), 1.0)
        start = perf_counter()
        try:
            bc.two_form_check(B, p)
        except KummerlabError:
            continue
        times.append(perf_counter() - start)
    m["blanc_cremona.two_form_check.s"] = statistics.median(times)

    # torus_kummer on the cat map, period 5
    f = tk.TorusAutomorphism(la.IntMatrix.from_rows([[2, 1], [1, 1]]), tk.TorusLattice(),
                             tk.Quotient.NONE)
    m["torus_kummer.fix_enumerate.s"], ensemble = _timed(tk.fix_enumerate, f, W.TORUS_PERIOD)
    m["torus_kummer.equidistribution_test.s"], _ = _timed(tk.equidistribution_test, ensemble, 3)
    samples = tk.haar_samples(100000, seed)
    m["torus_kummer.local_dimension_estimate.s"], _ = _timed(
        tk.local_dimension_estimate, samples, tk.torus_distance(f.lattice),
        tuple(np.geomspace(0.5, 0.05, 8)), 64, seed + 1)
    m["torus_kummer.lyapunov_qr_orbit.s"], _ = _timed(
        tk.lyapunov_qr_orbit, f, tk.TorusPoint.origin(), 10**4)

    # lattice_algebra: sub-millisecond calls, so the median of many
    a4 = tk.lattice_action_4x4(tk.replace_matrix(f, f.matrix.power(W.TORUS_PERIOD)))
    delta = a4 + la.IntMatrix.identity(4).scale(-1)
    gram = la.QuadraticLattice(la.IntMatrix.from_rows([[2, 11], [11, 2]]))
    enriques = la.enriques_lattice()
    reps = 50
    m["lattice_algebra.dynamical_degree.s"] = _median_call(la.dynamical_degree, [(f.matrix,)] * reps)
    m["lattice_algebra.spectral_report.s"] = _median_call(la.spectral_report, [(la.LEHMER_POLY,)] * reps)
    m["lattice_algebra.rank2_analysis.s"] = _median_call(la.rank2_analysis, [(gram,)] * reps)
    m["lattice_algebra.signature.s"] = _median_call(la.signature, [(enriques,)] * reps)
    m["lattice_algebra.smith_normal_form.s"] = _median_call(la.smith_normal_form, [(delta,)] * reps)

    # cli: the digest every --out run computes over its result bytes
    data = bytes(range(256)) * 1024
    secs, _ = _timed(cli.fnv1a64, data)
    m["cli.fnv1a64.s_per_MB"] = secs / (len(data) / 1e6)
    return m, failures
