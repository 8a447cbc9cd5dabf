"""Command line harness: configuration, seeded runs, and report emission.

Every run is deterministic in (rng_seed, worker_count is irrelevant to the
bytes produced), result files are JSON, CSV, or binary PGM depending on the
subcommand, and a manifest with input digests and timings is written next
to the result file whenever --out is given.  Exit codes: 0 success, 2 for
usage and precondition failures, 3 for internal invariant violations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from . import blanc_cremona as bc
from . import lattice_algebra as la
from . import torus_kummer as tk
from . import wehler_dynamics as wd
from .errors import ConfigError, InternalInvariantError, KummerlabError, PreconditionError

BIG_INT = 2**53

DEFAULT_MATRIX = [[2, 1], [1, 1]]


FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1
FNV_BLOCK = 1 << 16
# P^1, ..., P^FNV_BLOCK mod 2^64; uint64 array products wrap silently
_FNV_POWERS = np.multiply.accumulate(np.full(FNV_BLOCK, FNV_PRIME, dtype=np.uint64))


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64 of data: h <- (h ^ b) * P mod 2^64 per byte, from the offset
    basis, computed exactly over blocks of FNV_BLOCK bytes.

    b touches only the low byte l of h, so h ^ b = h + delta with
    delta = (l ^ b) - l in (-256, 256), and a block of bytes b_0..b_{L-1}
    takes h to P^L h + sum_k P^(L-k) delta_k mod 2^64.  The deltas need
    every l_k, and l_{k+1} = m (l_k ^ b_k) mod 256 with m = P mod 256 = 0xB3.
    For odd m, bit j of m x is x_j xor bit j of m (x mod 2^j), since m x_j 2^j
    adds x_j at bit j and nothing below it.  The planes j = 0..7 run in turn
    and keep z_k = m ((l_k ^ b_k) mod 2^j) mod 256, from bits 0..j-1 alone.
    Bit j then obeys l_{k+1,j} = l_{k,j} xor t_k with t_k = b_{k,j} xor
    z_{k,j}, so l_{k,j} is bit j of l_0 xor the prefix xor of t_0..t_{k-1}.
    The t bits are packed 64 to a little-endian uint64 word; six shift-xor
    steps (1, 2, ..., 32) give each word's inclusive prefix, whose top bit is
    the word's parity, one xor-accumulate of the parities carries it across
    words, and an xor with the packed t leaves the exclusive prefix.  Then
    z_k += m 2^j (l_{k,j} xor b_{k,j}) takes z to bit j, and after plane 7
    z_k = l_{k+1}.  The sum runs in uint64 array arithmetic, which wraps
    mod 2^64, and h is a Python int masked to 64 bits.
    """
    stream = np.frombuffer(data, dtype=np.uint8)
    acc = FNV_OFFSET
    for start in range(0, len(stream), FNV_BLOCK):
        acc = _fnv1a64_block(acc, stream[start : start + FNV_BLOCK])
    return acc


def _fnv1a64_block(acc: int, b: np.ndarray) -> int:
    """fnv1a64's state acc after the bytes b; its scratch dies on return,
    so one block's worth is alive at a time."""
    m = np.uint8(FNV_PRIME & 0xFF)
    n = len(b)
    z = np.zeros(n, dtype=np.uint8)
    # t fills whole 64-bit words; its zero tail comes after every bit that is read
    t = np.zeros(-(-n // 64) * 64, dtype=np.uint8)
    for j in range(8):
        bit = 1 << j
        np.bitwise_xor(z, b, out=t[:n])
        t &= bit
        words = np.packbits(t, bitorder="little").view("<u8")
        prefix = words.copy()
        for shift in (1, 2, 4, 8, 16, 32):
            prefix ^= prefix << shift
        carry = np.bitwise_xor.accumulate(prefix.view("<i8") >> 63)
        prefix ^= words
        prefix[1:] ^= carry[:-1].view("<u8")
        if acc & bit:
            prefix ^= np.uint64(MASK64)
        u = np.unpackbits(prefix.view(np.uint8), count=n, bitorder="little")
        # u * bit, not u << j: numpy's uint8 shift is ten times slower
        u *= bit
        u ^= b
        u &= bit
        u *= m
        z += u
    low = np.empty(n, dtype=np.uint8)
    low[0] = acc & 0xFF
    low[1:] = z[:-1]
    delta = (low ^ b).astype(np.int64)
    delta -= low
    terms = np.dot(delta.view(np.uint64), _FNV_POWERS[n - 1 :: -1])
    return (int(_FNV_POWERS[n - 1]) * acc + int(terms)) & MASK64


def json_int(value: int):
    """Exact integers above 2^53 go to JSON as decimal strings."""
    value = int(value)
    return value if abs(value) <= BIG_INT else str(value)


def sig15(value: float) -> str:
    return f"{float(value):.15g}"


def _plain(value):
    """Recursively convert numpy scalars so json emits stable reprs."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def json_bytes(payload: dict) -> bytes:
    return (json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n").encode()


def csv_bytes(header: list[str], rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


class _RunFiles:
    """Tracks every input file read so the manifest can digest them."""

    def __init__(self):
        self.digests: dict[str, str] = {}

    def read(self, path: str) -> bytes:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as err:
            raise ConfigError(f"cannot read {path}: {err}") from None
        self.digests[os.path.basename(path)] = str(fnv1a64(data))
        return data

    def read_json(self, path: str):
        try:
            return json.loads(self.read(path).decode())
        except (ValueError, UnicodeDecodeError) as err:
            raise ConfigError(f"malformed JSON in {path}: {err}") from None


# ---------------------------------------------------------------------------
# input parsing


def _json_ints(values, what: str) -> None:
    """Refuse values unless it is a list of JSON integers: a float, a string
    or a bool would otherwise be truncated by int()."""
    if not isinstance(values, list) or any(type(x) is not int for x in values):
        raise ConfigError(f"{what} must be JSON integers")


def parse_int_matrix(text_or_obj) -> la.IntMatrix:
    obj = text_or_obj
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except ValueError as err:
            raise ConfigError(f"malformed matrix JSON: {err}") from None
    spec = obj if isinstance(obj, dict) else {"entries": obj}
    if "entries" not in spec:
        raise ConfigError("matrix object needs an 'entries' field")
    obj = spec["entries"]
    if not isinstance(obj, list) or not obj:
        raise ConfigError("matrix must be a non-empty list of rows")
    dim = spec.get("dim", len(obj))
    if not (type(dim) is int and dim == len(obj)):
        raise ConfigError(f"matrix 'dim' {dim!r} disagrees with its {len(obj)} rows")
    for row in obj:
        _json_ints(row, "matrix entries")
    try:
        return la.IntMatrix.from_rows(obj)
    except (KummerlabError, TypeError, ValueError) as err:
        raise ConfigError(f"bad matrix: {err}") from None


def parse_poly(text: str) -> la.IntPolynomial:
    if text == "lehmer":
        return la.LEHMER_POLY
    try:
        coeffs = json.loads(text)
    except ValueError as err:
        raise ConfigError(f"malformed polynomial JSON: {err}") from None
    if not isinstance(coeffs, list) or not coeffs:
        raise ConfigError("polynomial must be a list of integer coefficients")
    _json_ints(coeffs, "polynomial coefficients")
    try:
        return la.IntPolynomial.from_coeffs(coeffs)
    except (KummerlabError, TypeError, ValueError) as err:
        raise ConfigError(f"bad polynomial: {err}") from None


def parse_complex(text: str) -> complex:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError:
        raise ConfigError(f"bad complex literal: {text}") from None
    return _pair([z.real, z.imag])


def _pair(obj) -> complex:
    """A JSON number or [re, im] pair of JSON numbers (no string, no bool)
    as a finite complex."""
    z = math.nan
    try:
        if type(obj) in (int, float):
            z = complex(obj)
        elif isinstance(obj, list) and len(obj) == 2 and all(
            type(x) in (int, float) for x in obj
        ):
            z = complex(float(obj[0]), float(obj[1]))
    except (TypeError, ValueError, OverflowError):
        pass
    if not np.isfinite(z):
        raise ConfigError("complex values must be finite numbers or [re, im] pairs")
    return z


def torus_automorphism(args, files: _RunFiles) -> tk.TorusAutomorphism:
    matrix = tau = None
    if args.file:
        data = files.read_json(args.file)
        if not isinstance(data, dict) or "matrix" not in data:
            raise ConfigError("automorphism file needs a 'matrix' field")
        if "tau" in data:
            t = data["tau"]
            if not isinstance(t, dict) or "re" not in t or "im" not in t:
                raise ConfigError("tau must be {\"re\": ..., \"im\": ...}")
            tau = _pair([t["re"], t["im"]])
        if data.get("quotient", "none") != "none":
            raise ConfigError(
                f"unsupported quotient {data['quotient']!r}: no command "
                "computes on a quotient, so it must be \"none\""
            )
        matrix = parse_int_matrix(data["matrix"])
    if args.matrix is not None:
        matrix = parse_int_matrix(args.matrix)
    elif matrix is None:
        matrix = parse_int_matrix(DEFAULT_MATRIX)
    if args.tau:
        tau = parse_complex(args.tau)
    lattice = tk.TorusLattice(tau) if tau is not None else tk.TorusLattice()
    return tk.TorusAutomorphism(matrix, lattice)


def load_surface(args, files: _RunFiles) -> wd.WehlerSurface:
    if args.surface:
        data = files.read_json(args.surface)
        if not isinstance(data, dict) or "coeffs" not in data:
            raise ConfigError("surface file needs a 'coeffs' field")
        coeffs = data["coeffs"]
        try:
            arr = np.array(
                [[[_pair(coeffs[i][j][k]) for k in range(3)] for j in range(3)]
                 for i in range(3)],
                dtype=complex,
            )
        except (IndexError, TypeError, ConfigError):
            raise ConfigError(
                "surface coeffs must be a 3x3x3 nest of [re, im] pairs"
            ) from None
        try:
            return wd.WehlerSurface.from_array(arr)
        except KummerlabError as err:
            raise ConfigError(f"bad surface: {err}") from None
    if args.random:
        return wd.random_surface(args.seed)
    raise ConfigError("need --surface FILE or --random")


def load_cubic(args, files: _RunFiles) -> bc.PlaneCubic:
    if args.cubic:
        data = files.read_json(args.cubic)
        if not isinstance(data, list) or len(data) != 10:
            raise ConfigError("cubic file must hold a list of 10 coefficients")
        return bc.PlaneCubic.from_coefficients([_pair(c) for c in data])
    return bc.fermat_cubic()


def load_base_points(args, cubic: bc.PlaneCubic, files: _RunFiles):
    if args.base_points:
        data = files.read_json(args.base_points)
        if not isinstance(data, list) or not data:
            raise ConfigError("base point file must hold a list of triples")
        pts = []
        for row in data:
            if not isinstance(row, list) or len(row) != 3:
                raise ConfigError("each base point must be a homogeneous triple")
            pts.append(bc.P2Point.make(*(_pair(c) for c in row)))
        return tuple(pts)
    return tuple(bc.distinct_cubic_points(cubic, args.l, args.seed))


# ---------------------------------------------------------------------------
# serializers


def spectral_json(rep: la.SpectralReport) -> dict:
    return {
        "char_poly": [json_int(c) for c in rep.char_poly.coeffs],
        "lambda_f": sig15(rep.lambda_f),
        "residual": float(rep.residual),
        "classification": rep.classification.value,
        "min_poly_degree": rep.min_poly_degree,
        "kummer_possible": rep.kummer_possible,
        "verdict": rep.measure_verdict,
    }


def lyapunov_json(rep: tk.LyapunovReport) -> dict:
    return {
        "lambda_u": float(rep.lambda_u),
        "lambda_s": float(rep.lambda_s),
        "method": rep.method.value,
        "stderr": float(rep.stderr),
    }


def rigidity_json(rep: wd.RigidityReport) -> dict:
    def opt(x):
        return None if x is None else float(x)

    return {
        "lambda_f": float(rep.lambda_f),
        "half_log_lambda_f": 0.5 * math.log(rep.lambda_f),
        "lambda_u_est": opt(rep.lambda_u_est),
        "lambda_s_est": opt(rep.lambda_s_est),
        "lyap_stderr": opt(rep.lyap_stderr),
        "dimension_est": opt(rep.dimension_est),
        "dimension_stderr": opt(rep.dimension_stderr),
        "gap_u": opt(rep.gap_u),
        "gap_s": opt(rep.gap_s),
        "verdict": rep.verdict.value,
        "n_saddles": json_int(rep.n_saddles),
        "qr_lambda_u": opt(rep.qr_lambda_u),
        "qr_gap": opt(rep.qr_gap),
        "per_period": None
        if rep.per_period is None
        else [[int(n), int(c), float(e)] for (n, c, e) in rep.per_period],
    }


def _complex_cells(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


COORD_NAMES = ("x_u", "x_v", "y_u", "y_v", "z_u", "z_v")


def _complex_header(names) -> list[str]:
    return [f"{name}_{part}" for name in names for part in ("re", "im")]


def _complex_csv_cells(values) -> list[str]:
    """Real and imaginary parts of each value as exact float reprs."""
    return [repr(float(part)) for z in values for part in (z.real, z.imag)]


def saddles_csv(orbits) -> bytes:
    header = ["period", *_complex_header(COORD_NAMES + ("m1", "m2")), "type"]
    rows = []
    for orb in orbits:
        p = orb.point
        coords = (p.x.u, p.x.v, p.y.u, p.y.v, p.z.u, p.z.v, *orb.multipliers)
        rows.append([orb.period, *_complex_csv_cells(coords), orb.type.value])
    return csv_bytes(header, rows)


# ---------------------------------------------------------------------------
# lattice subcommands


def cmd_lattice_degree(args, files):
    rep = la.dynamical_degree(parse_int_matrix(args.matrix or DEFAULT_MATRIX))
    return json_bytes(spectral_json(rep)), "json"


def cmd_lattice_salem(args, files):
    rep = la.spectral_report(parse_poly(args.poly))
    return json_bytes(spectral_json(rep)), "json"


def cmd_lattice_rank2(args, files):
    lattice = la.QuadraticLattice(parse_int_matrix(args.gram))
    analysis = la.rank2_analysis(lattice, search_bound=args.bound)
    payload = {
        "represents_zero": analysis.represents_zero,
        "represents_minus_two": analysis.represents_minus_two,
        "aut_infinite": analysis.aut_infinite,
        "lambda_psi": None if analysis.lambda_psi is None else sig15(analysis.lambda_psi),
    }
    return json_bytes(payload), "json"


def cmd_lattice_wehler_action(args, files):
    m1, m2, m3, lattice = la.wehler_cohomology_action()
    product = m1 @ m2 @ m3
    rep = la.dynamical_degree(product)
    ident = la.IntMatrix.identity(m1.dim)
    payload = spectral_json(rep)
    payload["involution_check"] = all((m @ m) == ident for m in (m1, m2, m3))
    payload["isometry_check"] = all(
        la.isometry_check(m, lattice) for m in (m1, m2, m3)
    )
    return json_bytes(payload), "json"


def cmd_lattice_enriques(args, files):
    lattice = la.enriques_lattice()
    pos, neg, zero = la.signature(lattice)
    payload = {
        "rank": lattice.gram.dim,
        "signature": [pos, neg, zero],
        "det": json_int(lattice.gram.det()),
        "even": lattice.is_even(),
    }
    return json_bytes(payload), "json"


# ---------------------------------------------------------------------------
# torus subcommands


def cmd_torus_lyapunov(args, files):
    f = torus_automorphism(args, files)
    if args.method == "exact":
        rep = tk.lyapunov_exact(f)
    else:
        rep = tk.lyapunov_qr_orbit(f, tk.TorusPoint.origin(), args.steps)
    return json_bytes(lyapunov_json(rep)), "json"


def cmd_torus_fix_count(args, files):
    f = torus_automorphism(args, files)
    payload = {"n": args.n, "count": json_int(tk.fix_count(f, args.n))}
    return json_bytes(payload), "json"


# fix-enum CSV rows formatted per slice, so one slice's index array and
# str are live at a time beside the output bytes
FIX_ENUM_ROWS = 1 << 16


def cmd_torus_fix_enum(args, files):
    f = torus_automorphism(args, files)
    ensemble = tk.fix_enumerate(f, args.n, cap=args.cap)
    d4 = ensemble.denominator
    # every cell is one of the d4 fractions j/d4 in lowest terms, followed
    # by "," or, in the last column, by a newline: cells[j + d4]
    labels = [f"{q.numerator}/{q.denominator}" for q in (Fraction(j, d4) for j in range(d4))]
    cells = [s + "," for s in labels] + [s + "\n" for s in labels]
    last_column = np.array([0, 0, 0, d4])
    parts = [csv_bytes(["a1", "b1", "a2", "b2"], [])]
    for start in range(0, ensemble.count, FIX_ENUM_ROWS):
        index = ensemble.numerators[start : start + FIX_ENUM_ROWS] + last_column
        parts.append("".join(map(cells.__getitem__, index.ravel().tolist())).encode())
    return b"".join(parts), "csv"


def cmd_torus_equidist(args, files):
    f = torus_automorphism(args, files)
    ensemble = tk.fix_enumerate(f, args.n, cap=args.cap)
    weyl = tk.equidistribution_test(ensemble, args.kmax)
    payload = {
        "period": args.n,
        "count": json_int(ensemble.count),
        "k_max": weyl.k_max,
        "max_abs": float(weyl.max_abs),
        "max_nontrivial_abs": float(weyl.max_nontrivial_abs),
        "n_trivial_frequencies": len(weyl.trivial_frequencies),
    }
    return json_bytes(payload), "json"


def cmd_torus_dimension(args, files):
    f = torus_automorphism(args, files)
    est, err = tk.haar_dimension(f.lattice, args.samples, args.probes, args.seed)
    payload = {"dimension": float(est), "stderr": float(err), "n_samples": args.samples}
    return json_bytes(payload), "json"


def cmd_torus_rigidity(args, files):
    f = torus_automorphism(args, files)
    report = wd.torus_control_report(f, rng_seed=args.seed)
    return json_bytes(rigidity_json(report)), "json"


# ---------------------------------------------------------------------------
# wehler subcommands


def cmd_wehler_orbit(args, files):
    surface = load_surface(args, files)
    rng = np.random.default_rng(args.seed)
    p0 = wd.random_surface_point(surface, rng)
    points, _ = wd.orbit(surface, p0, args.n)
    header = ["step", *_complex_header(COORD_NAMES), "residual"]
    rows = []
    for step, p in enumerate(points):
        coords = (p.x.u, p.x.v, p.y.u, p.y.v, p.z.u, p.z.v)
        rows.append([step, *_complex_csv_cells(coords), repr(float(p.residual))])
    return csv_bytes(header, rows), "csv"


def _saddle_census(args, files):
    return wd.saddle_census(
        load_surface(args, files), args.nmax, args.seeds, args.seed,
        workers=args.workers,
    )


def cmd_wehler_saddles(args, files):
    orbits, _, _ = _saddle_census(args, files)
    return saddles_csv(orbits), "csv"


def cmd_wehler_lyapunov(args, files):
    _, estimates, per_period = _saddle_census(args, files)
    payload = lyapunov_json(wd.pool_period_estimates(estimates))
    payload["per_period"] = per_period
    return json_bytes(payload), "json"


def cmd_wehler_rigidity(args, files):
    surface = load_surface(args, files)
    report, _ = wd.rigidity_report(
        surface, args.nmax, args.seeds, args.seed, workers=args.workers
    )
    return json_bytes(rigidity_json(report)), "json"


def cmd_wehler_probe(args, files):
    surface = load_surface(args, files)
    suspects = wd.singularity_probe(surface, args.trials, args.seed)
    payload = {
        "n_suspects": len(suspects),
        "suspects": [
            {
                "grad_max": float(s.grad_max),
                "x": _complex_cells(s.point.x.u) + _complex_cells(s.point.x.v),
                "y": _complex_cells(s.point.y.u) + _complex_cells(s.point.y.v),
                "z": _complex_cells(s.point.z.u) + _complex_cells(s.point.z.v),
            }
            for s in suspects
        ],
    }
    return json_bytes(payload), "json"


def cmd_wehler_density(args, files):
    surface = load_surface(args, files)
    rng = np.random.default_rng(args.seed)
    p0 = wd.random_surface_point(surface, rng)
    img = wd.density_histogram(surface, p0, args.iters, proj=tuple(args.proj))
    header = f"P5 {img.shape[1]} {img.shape[0]} 255\n".encode()
    return header + img.tobytes(), "pgm"


# ---------------------------------------------------------------------------
# blanc subcommands


def _blanc_map(args, files):
    cubic = load_cubic(args, files)
    points = load_base_points(args, cubic, files)
    try:
        return bc.BlancMap(cubic, points)
    except KummerlabError as err:
        raise ConfigError(str(err)) from None


def cmd_blanc_check_involution(args, files):
    if args.points < 0:
        raise PreconditionError("point count must be nonnegative")
    B = _blanc_map(args, files)
    q = B.base_points[0]
    rng = np.random.default_rng(args.seed)
    rows = []
    for idx in range(args.points):
        p = bc.P2Point.make(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        defect = bc.sigma_q(B.cubic, q, bc.sigma_q(B.cubic, q, p)).chordal(p)
        rows.append([idx, repr(float(defect))])
    return csv_bytes(["index", "defect"], rows), "csv"


def cmd_blanc_check_fixed_cubic(args, files):
    B = _blanc_map(args, files)
    pts = bc.cubic_points(B.cubic, args.points, args.seed + 1)
    rows = []
    idx = 0
    for p in pts:
        if min(p.chordal(q) for q in B.base_points) < 1e-4:
            continue
        rows.append([idx, repr(float(bc.blanc_compose(B, p).chordal(p)))])
        idx += 1
    return csv_bytes(["index", "displacement"], rows), "csv"


def cmd_blanc_check_two_form(args, files):
    if args.points < 0:
        raise PreconditionError("point count must be nonnegative")
    B = _blanc_map(args, files)
    rng = np.random.default_rng(args.seed)
    rows = []
    idx = 0
    guard = 0
    while idx < args.points:
        guard += 1
        if guard > 50 * args.points:
            raise InternalInvariantError("two-form sampling stalled")
        x = rng.normal() + 1j * rng.normal()
        y = rng.normal() + 1j * rng.normal()
        try:
            defect = bc.two_form_check(B, bc.P2Point.make(x, y, 1.0))
        except KummerlabError:
            continue
        rows.append([idx, repr(float(x.real)), repr(float(x.imag)),
                     repr(float(y.real)), repr(float(y.imag)), repr(float(defect))])
        idx += 1
    return csv_bytes(["index", "x_re", "x_im", "y_re", "y_im", "defect"], rows), "csv"


def cmd_blanc_orbit(args, files):
    if args.n < 0:
        raise PreconditionError("orbit length must be nonnegative")
    B = _blanc_map(args, files)
    rng = np.random.default_rng(args.seed)
    p = bc.P2Point.make(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal(), 1.0)
    rows = []
    for idx in range(args.n):
        p = bc.blanc_compose(B, p)
        arr = p.array()
        if not np.all(np.isfinite(arr)):
            raise InternalInvariantError("orbit left the finite range")
        rows.append([idx + 1, *_complex_csv_cells(arr)])
    header = ["step", *_complex_header(("x0", "x1", "x2"))]
    return csv_bytes(header, rows), "csv"


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    common.add_argument("--workers", type=int, default=None,
                        help="worker count (default: KUMMERLAB_WORKERS or 1)")
    common.add_argument("--out", default=None,
                        help="result file path (default: stdout); a manifest "
                             "is written alongside")

    parser = argparse.ArgumentParser(
        prog="kummerlab",
        description="Invariants of surface automorphisms: exact lattice "
                    "algebra, torus models, (2,2,2) surface dynamics, and "
                    "plane Cremona involutions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="group", required=True)

    lat = top.add_parser("lattice", help="integer cohomology computations")
    sub = lat.add_subparsers(dest="command", required=True)
    p = sub.add_parser("degree", parents=[common], help="dynamical degree of a matrix")
    p.add_argument("--matrix", help="JSON rows or {\"dim\":..,\"entries\":..}")
    p.set_defaults(func=cmd_lattice_degree)
    p = sub.add_parser("salem", parents=[common], help="classify a polynomial")
    p.add_argument("--poly", required=True,
                   help="JSON coefficient list, constant term first, or 'lehmer'")
    p.set_defaults(func=cmd_lattice_salem)
    p = sub.add_parser("rank2", parents=[common], help="rank-2 lattice analysis")
    p.add_argument("--gram", required=True, help="2x2 Gram matrix JSON")
    p.add_argument("--bound", type=int, default=la.RANK2_SEARCH_BOUND)
    p.set_defaults(func=cmd_lattice_rank2)
    p = sub.add_parser("wehler-action", parents=[common],
                       help="cohomology action of the three involutions")
    p.set_defaults(func=cmd_lattice_wehler_action)
    p = sub.add_parser("enriques", parents=[common], help="rank-10 lattice summary")
    p.set_defaults(func=cmd_lattice_enriques)

    tor = top.add_parser("torus", help="linear torus automorphisms")
    sub = tor.add_subparsers(dest="command", required=True)

    def torus_parser(name, help_text):
        q = sub.add_parser(name, parents=[common], help=help_text)
        q.add_argument("--matrix", help="2x2 integer matrix JSON")
        q.add_argument("--file", help="automorphism JSON file")
        q.add_argument("--tau", help="lattice parameter as a complex literal")
        return q

    p = torus_parser("lyapunov", "Lyapunov exponents")
    p.add_argument("--method", choices=("exact", "qr"), default="exact")
    p.add_argument("--steps", type=int, default=tk.QR_STEPS)
    p.set_defaults(func=cmd_torus_lyapunov)
    p = torus_parser("fix-count", "periodic point count")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_torus_fix_count)
    p = torus_parser("fix-enum", "enumerate periodic points as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=tk.FIX_CAP)
    p.set_defaults(func=cmd_torus_fix_enum)
    p = torus_parser("equidist", "Weyl sum equidistribution report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--cap", type=int, default=tk.FIX_CAP)
    p.set_defaults(func=cmd_torus_equidist)
    p = torus_parser("dimension", "local dimension of Haar samples")
    p.add_argument("--samples", type=int, default=tk.HAAR_SAMPLES)
    p.add_argument("--probes", type=int, default=tk.DIMENSION_PROBES)
    p.set_defaults(func=cmd_torus_dimension)
    p = torus_parser("rigidity", "exactly solvable rigidity control")
    p.set_defaults(func=cmd_torus_rigidity)

    weh = top.add_parser("wehler", help="(2,2,2) surface dynamics")
    sub = weh.add_subparsers(dest="command", required=True)
    nmax_help = (f"largest period, at most {wd.PERIOD_CAP}; periods with primitive "
                 "Lefschetz count 0 (n = 1) are not searched: a smooth surface "
                 "with Fix(f) finite has no such point")

    def wehler_parser(name, help_text):
        q = sub.add_parser(name, parents=[common], help=help_text)
        q.add_argument("--surface", help="surface coefficient JSON file")
        q.add_argument("--random", action="store_true",
                       help="random surface from --seed")
        return q

    p = wehler_parser("orbit", "forward orbit as CSV")
    p.add_argument("--n", type=int, default=1000)
    p.set_defaults(func=cmd_wehler_orbit)
    p = wehler_parser("saddles", "periodic saddle search as CSV")
    p.add_argument("--nmax", type=int, default=3, help=nmax_help)
    p.add_argument("--seeds", type=int, default=512)
    p.set_defaults(func=cmd_wehler_saddles)
    p = wehler_parser("lyapunov", "saddle-multiplier Lyapunov estimate")
    p.add_argument("--nmax", type=int, default=3, help=nmax_help)
    p.add_argument("--seeds", type=int, default=512)
    p.set_defaults(func=cmd_wehler_lyapunov)
    p = wehler_parser("rigidity", "full rigidity report")
    p.add_argument("--nmax", type=int, default=5, help=nmax_help)
    p.add_argument("--seeds", type=int, default=2000)
    p.set_defaults(func=cmd_wehler_rigidity)
    p = wehler_parser("probe", "advisory singular point search")
    p.add_argument("--trials", type=int, default=3000)
    p.set_defaults(func=cmd_wehler_probe)
    p = wehler_parser("density", "orbit density histogram as PGM")
    p.add_argument("--proj", default="xy")
    p.add_argument("--iters", type=int, default=20000)
    p.set_defaults(func=cmd_wehler_density)

    bl = top.add_parser("blanc", help="plane Cremona involutions")
    sub = bl.add_subparsers(dest="command", required=True)

    def blanc_parser(name, help_text):
        q = sub.add_parser(name, parents=[common], help=help_text)
        q.add_argument("--cubic", help="cubic coefficient JSON file (default: Fermat)")
        q.add_argument("--base-points", dest="base_points",
                       help="JSON file of homogeneous triples")
        q.add_argument("--l", type=int, default=1,
                       help="number of generated base points when none given")
        return q

    p = blanc_parser("check-involution", "sigma_q round-trip defects")
    p.add_argument("--points", type=int, default=1000)
    p.set_defaults(func=cmd_blanc_check_involution)
    p = blanc_parser("check-fixed-cubic", "displacement of cubic points")
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=cmd_blanc_check_fixed_cubic)
    p = blanc_parser("check-two-form", "meromorphic 2-form defects")
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=cmd_blanc_check_two_form)
    p = blanc_parser("orbit", "composition orbit as CSV")
    p.add_argument("--n", type=int, default=100)
    p.set_defaults(func=cmd_blanc_orbit)

    return parser


def _worker_count(args) -> int:
    if args.workers is not None:
        return args.workers
    env = os.environ.get("KUMMERLAB_WORKERS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"bad KUMMERLAB_WORKERS value: {env}") from None
    return 1


def _echo_config(args) -> dict:
    return {key: value for key, value in vars(args).items() if not callable(value)}


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    args.workers = _worker_count(args)
    if not 0 <= args.seed < 2**64:
        raise ConfigError("rng seed must be between 0 and 2**64 - 1")
    if args.workers < 1:
        raise ConfigError("worker count must be positive")
    files = _RunFiles()
    started = time.perf_counter()
    payload, kind = args.func(args, files)
    compute_time = time.perf_counter() - started
    if args.out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return 0
    with open(args.out, "wb") as fh:
        fh.write(payload)
    emit_time = time.perf_counter() - started - compute_time
    manifest = {
        "artifact_version": __version__,
        "command": f"{args.group} {args.command}",
        "config": _plain(_echo_config(args)),
        "result_file": os.path.basename(args.out),
        "result_kind": kind,
        "result_digest": str(fnv1a64(payload)),
        "input_digests": files.digests,
        "wall_time_s": compute_time + emit_time,
        "stages": {"compute_s": compute_time, "emit_s": emit_time},
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except InternalInvariantError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except KummerlabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
