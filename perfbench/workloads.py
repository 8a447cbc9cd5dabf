"""Workload definitions: the CLI operations of each workload, the inputs
they need, and the output checks that decide whether an operation passed.

Every operation is a kummerlab argv list.  The census and orbit operations
carry ``--seed S``; the exact operations run at the CLI's default seed, so
that workload is the same for every seed.  (At ``--seed 6`` and ``--seed 12``
the torus control's dimension estimate leaves its 3-stderr band and the
verdict is INCONCLUSIVE, a defect of that estimator's error bar.)
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from kummerlab import blanc_cremona as bc
from kummerlab import lattice_algebra as la
from kummerlab import torus_kummer as tk
from kummerlab import wehler_dynamics as wd
from kummerlab.errors import KummerlabError

# The census searches one fixed surface, random_surface(1), and the seed
# drives only the Newton seeds.  Across surfaces the same search finds
# 416 to 647 points and its cost moves by about 30 %, which would swamp any
# change a later optimisation makes; across Newton seeds on one surface the
# count stays within 550 to 588.  At seed 1 the bytes equal those of
# `wehler rigidity --random --seed 1`.
CENSUS_SURFACE_SEED = 1
CENSUS_NMAX = 4
CENSUS_SEEDS = 1024
SURFACE_FILE = "census_surface.json"

ORBIT_STEPS = 2000
DENSITY_ITERS = 2000
CREMONA_STEPS = 5000
TWO_FORM_POINTS = 300
TORUS_PERIOD = 5
TORUS_MATRIX = "[[2,1],[1,1]]"
RANK2_GRAM = "[[2,11],[11,2]]"

ALLOWED_SURFACE_VERDICTS = {"INCONCLUSIVE", "RIGIDITY_GAP"}
RESIDUAL_MAX = 1e-10
TWO_FORM_DEFECT_MAX = 1e-5
REPLAY_MAX = 1e-9
WEYL_NONTRIVIAL_MAX = 1e-10
# exact Lefschetz counts of f^n on a very general (2,2,2) surface, n = 1..3
EXPECTED_LEFSCHETZ = (0, 344, 5760)


def operations(workload: str, seed: int, workdir: Path) -> list[list[str]]:
    """The kummerlab argv lists of one pass, without --workers and --out."""
    s = str(seed)
    if workload == "census":
        return [[
            "wehler", "rigidity", "--surface", str(workdir / SURFACE_FILE),
            "--seed", s, "--nmax", str(CENSUS_NMAX), "--seeds", str(CENSUS_SEEDS),
        ]]
    if workload == "orbit":
        return [
            ["wehler", "orbit", "--random", "--seed", s, "--n", str(ORBIT_STEPS)],
            ["wehler", "density", "--random", "--seed", s, "--iters", str(DENSITY_ITERS)],
            ["blanc", "orbit", "--seed", s, "--l", "3", "--n", str(CREMONA_STEPS)],
            ["blanc", "check-two-form", "--seed", s, "--l", "3",
             "--points", str(TWO_FORM_POINTS)],
        ]
    if workload == "exact":
        n = str(TORUS_PERIOD)
        return [
            ["torus", "fix-enum", "--n", n],
            ["torus", "equidist", "--n", n, "--kmax", "3"],
            ["torus", "dimension", "--samples", "100000"],
            ["torus", "rigidity", "--matrix", TORUS_MATRIX],
            ["lattice", "degree", "--matrix", TORUS_MATRIX],
            ["lattice", "salem", "--poly", "lehmer"],
            ["lattice", "rank2", "--gram", RANK2_GRAM],
            ["lattice", "wehler-action"],
            ["lattice", "enriques"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def golden_key(argv: list[str]) -> str:
    """The argv with the per-run surface path replaced by a fixed name."""
    return " ".join(SURFACE_FILE if a.endswith(SURFACE_FILE) else a for a in argv)


def build_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Construct the surfaces, cubic, base points and matrices of a
    workload, so that setup_s covers building them.  The census surface is
    also written where its argv points; the checks use the census surface
    and the torus map."""
    if workload == "census":
        surface = wd.random_surface(CENSUS_SURFACE_SEED)
        arr = surface.array()
        coeffs = [[[[float(arr[i, j, k].real), float(arr[i, j, k].imag)]
                    for k in range(3)] for j in range(3)] for i in range(3)]
        (workdir / SURFACE_FILE).write_text(json.dumps({"coeffs": coeffs}))
        return {"surface": surface}
    if workload == "orbit":
        cubic = bc.fermat_cubic()
        base = tuple(bc.distinct_cubic_points(cubic, 3, seed))
        return {
            "surface": wd.random_surface(seed),
            "blanc": bc.BlancMap(cubic, base),
        }
    if workload == "exact":
        matrix = la.IntMatrix.from_rows(json.loads(TORUS_MATRIX))
        return {
            "torus": tk.TorusAutomorphism(matrix, tk.TorusLattice(), tk.Quotient.NONE),
            "matrix": matrix,
            "gram": la.QuadraticLattice(la.IntMatrix.from_rows(json.loads(RANK2_GRAM))),
            "action": la.wehler_cohomology_action(),
            "enriques": la.enriques_lattice(),
        }
    raise ValueError(f"unknown workload {workload!r}")


def lefschetz_counts(nmax: int) -> list[int]:
    """L(f^n) = 2 + tr(M^n) + 19 (-1)^n with M = m1 m2 m3 acting on the
    hyperplane classes; the 19 is the transcendental lattice, on which each
    involution acts by -1."""
    m1, m2, m3, _ = la.wehler_cohomology_action()
    m = m1 @ m2 @ m3
    return [2 + m.power(n).trace() + 19 * (-1) ** n for n in range(1, nmax + 1)]


def census_denominator() -> int:
    """L(f^2), after the exact counts for n = 1..3 have been confirmed."""
    counts = lefschetz_counts(3)
    if tuple(counts) != EXPECTED_LEFSCHETZ:
        raise ValueError(f"Lefschetz counts {counts}, expected {EXPECTED_LEFSCHETZ}")
    return counts[1]


def work_items(workload: str, argv: list[str], payload: bytes) -> tuple[str, float]:
    """(kind, count) of the items one operation contributes to items_per_s."""
    if workload == "census":
        return "periodic_points", float(json.loads(payload)["n_saddles"])
    if workload == "orbit" and argv[:2] == ["wehler", "orbit"]:
        return "surface_steps", float(ORBIT_STEPS)
    if workload == "orbit" and argv[:2] == ["wehler", "density"]:
        return "surface_steps", float(DENSITY_ITERS)
    if workload == "exact" and argv[:2] == ["torus", "fix-enum"]:
        return "torus_points", float(payload.count(b"\n") - 1)
    return "", 0.0


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages, empty when it passed


def _csv_rows(payload: bytes) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(payload.decode())))
    return rows[1:]


def _floats_finite(rows, cols) -> bool:
    return all(math.isfinite(float(r[c])) for r in rows for c in cols)


def check_census(payload, inputs, batches) -> list[str]:
    errors = []
    report = json.loads(payload)
    if report["verdict"] not in ALLOWED_SURFACE_VERDICTS:
        errors.append(f"verdict {report['verdict']} not in {sorted(ALLOWED_SURFACE_VERDICTS)}")
    orbits = [o for batch in batches for o in batch]
    if len(orbits) != report["n_saddles"]:
        errors.append(f"{len(orbits)} captured points, report says {report['n_saddles']}")
    for n, count, _ in report["per_period"] or []:
        found = sum(1 for o in orbits if o.period == n)
        if found != count:
            errors.append(f"period {n}: report says {count}, search returned {found}")
    surface = inputs["surface"]
    bad = 0
    for o in orbits:
        q = o.point
        try:
            for _ in range(o.period):
                q = wd.wehler_map(surface, q)
        except KummerlabError:
            bad += 1
            continue
        if not q.chordal(o.point) < REPLAY_MAX:
            bad += 1
    if bad:
        errors.append(f"{bad} of {len(orbits)} points fail the wehler_map replay")
    try:
        census_denominator()
    except ValueError as err:
        errors.append(str(err))
    return errors


def coverage_p2(payload: bytes) -> float:
    """Period-2 points found over the exact count L(f^2)."""
    found = 0
    for n, count, _ in json.loads(payload)["per_period"] or []:
        if n == 2:
            found = count
    return found / census_denominator()


def check_orbit(argv, payload, inputs) -> list[str]:
    kind = argv[:2]
    if kind == ["wehler", "orbit"]:
        rows = _csv_rows(payload)
        errors = [] if len(rows) == ORBIT_STEPS + 1 else [f"{len(rows)} orbit rows"]
        if not _floats_finite(rows, range(1, 14)):
            errors.append("non-finite orbit coordinate")
        worst = max(float(r[13]) for r in rows)
        if not worst <= RESIDUAL_MAX:
            errors.append(f"residual {worst:.3e} above {RESIDUAL_MAX:g}")
        return errors
    if kind == ["wehler", "density"]:
        header = b"P5 512 512 255\n"
        if not payload.startswith(header) or len(payload) != len(header) + 512 * 512:
            return ["malformed PGM"]
        return [] if any(payload[len(header):]) else ["empty density image"]
    if kind == ["blanc", "orbit"]:
        rows = _csv_rows(payload)
        errors = [] if len(rows) == CREMONA_STEPS else [f"{len(rows)} Cremona rows"]
        if not _floats_finite(rows, range(1, 7)):
            errors.append("Cremona orbit left the finite range")
        return errors
    if kind == ["blanc", "check-two-form"]:
        rows = _csv_rows(payload)
        errors = [] if len(rows) == TWO_FORM_POINTS else [f"{len(rows)} two-form rows"]
        worst = max(float(r[5]) for r in rows)
        if not worst <= TWO_FORM_DEFECT_MAX:
            errors.append(f"two-form defect {worst:.3e} above {TWO_FORM_DEFECT_MAX:g}")
        return errors
    return [f"no check for {' '.join(kind)}"]


def check_exact(argv, payload, inputs) -> list[str]:
    kind = argv[:2]
    f = inputs["torus"]
    if kind == ["torus", "fix-enum"]:
        rows = _csv_rows(payload)
        expected = tk.fix_count(f, TORUS_PERIOD)
        errors = [] if len(rows) == expected else [f"{len(rows)} rows, fix_count {expected}"]
        if len({tuple(r) for r in rows}) != len(rows):
            errors.append("repeated periodic point")
        return errors
    report = json.loads(payload)
    if kind == ["torus", "equidist"]:
        trivial, _ = tk.trivial_character_count(f, TORUS_PERIOD, report["k_max"])
        errors = []
        if report["n_trivial_frequencies"] != trivial:
            errors.append(f"{report['n_trivial_frequencies']} trivial frequencies, exact {trivial}")
        if not report["max_nontrivial_abs"] <= WEYL_NONTRIVIAL_MAX:
            errors.append(f"max_nontrivial_abs {report['max_nontrivial_abs']:.3e}")
        return errors
    if kind == ["torus", "dimension"]:
        ok = math.isfinite(report["dimension"]) and report["n_samples"] == 100000
        return [] if ok else ["dimension estimate malformed"]
    if kind == ["torus", "rigidity"]:
        ok = (report["verdict"] == "KUMMER_CONSISTENT"
              and report["gap_u"] == 0.0 and report["gap_s"] == 0.0)
        return [] if ok else [f"torus control: {report['verdict']} gap {report['gap_u']}"]
    if kind == ["lattice", "degree"]:
        want = f"{(3 + math.sqrt(5)) / 2:.15g}"
        return [] if report["lambda_f"] == want else [f"lambda_f {report['lambda_f']}"]
    if kind == ["lattice", "wehler-action"]:
        want = f"{9 + 4 * math.sqrt(5):.15g}"
        ok = (report["lambda_f"] == want and report["involution_check"]
              and report["isometry_check"])
        return [] if ok else [f"wehler action lambda_f {report['lambda_f']}"]
    if kind == ["lattice", "salem"]:
        ok = report["verdict"] == "mu_f singular"
        return [] if ok else [f"Lehmer verdict {report['verdict']}"]
    if kind == ["lattice", "rank2"]:
        return [] if isinstance(report["aut_infinite"], bool) else ["rank2 malformed"]
    if kind == ["lattice", "enriques"]:
        ok = (report["rank"] == 10 and report["signature"] == [1, 9, 0]
              and report["det"] == -1 and report["even"])
        return [] if ok else [f"Enriques lattice {report}"]
    return [f"no check for {' '.join(kind)}"]


def check(workload, argv, payload, inputs, batches) -> list[str]:
    """Failure messages for one operation's output; never raises for bad output."""
    try:
        if workload == "census":
            return check_census(payload, inputs, batches)
        if workload == "orbit":
            return check_orbit(argv, payload, inputs)
        return check_exact(argv, payload, inputs)
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return [f"output unreadable: {type(err).__name__}: {err}"]
