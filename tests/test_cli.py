"""End-to-end tests for the command line harness.

Every invocation goes through kummerlab.cli.main with --out so the tests
read result files rather than captured stdout.  Determinism tests compare
raw bytes across worker counts and repeat runs.
"""

import json
import math
import re
import shlex
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from kummerlab import cli
from kummerlab import blanc_cremona as bc
from kummerlab import lattice_algebra as la
from kummerlab import torus_kummer as tk
from kummerlab import wehler_dynamics as wd
from test_wehler_dynamics import skew_multipliers


def run_cli(tmp_path, name, *argv):
    out = tmp_path / name
    rc = cli.main([*argv, "--out", str(out)])
    assert rc == 0
    return out


def run_json(tmp_path, name, *argv):
    out = run_cli(tmp_path, name, *argv)
    return json.loads(out.read_text())


def test_lattice_degree_fibonacci_square(tmp_path):
    payload = run_json(tmp_path, "deg.json",
                       "lattice", "degree", "--matrix", "[[2,1],[1,1]]")
    assert payload["char_poly"] == [1, -3, 1]
    assert payload["classification"] == "RECIPROCAL_QUADRATIC"
    assert abs(float(payload["lambda_f"]) - (3 + math.sqrt(5)) / 2) < 1e-12
    assert payload["kummer_possible"] is True
    assert payload["verdict"] == "undetermined by degree"


def test_lattice_degree_accepts_dim_entries_object(tmp_path):
    payload = run_json(tmp_path, "deg2.json", "lattice", "degree",
                       "--matrix", '{"dim": 2, "entries": [[2,1],[1,1]]}')
    assert payload["char_poly"] == [1, -3, 1]


def test_lattice_salem_lehmer_alias(tmp_path):
    payload = run_json(tmp_path, "salem.json",
                       "lattice", "salem", "--poly", "lehmer")
    assert payload["classification"] == "SALEM"
    assert payload["min_poly_degree"] == 10
    assert payload["kummer_possible"] is False
    assert payload["verdict"] == "mu_f singular"
    assert abs(float(payload["lambda_f"]) - 1.17628081825992) < 1e-12


def test_lattice_salem_plastic_dominant_root(tmp_path):
    payload = run_json(tmp_path, "plastic.json",
                       "lattice", "salem", "--poly", "[-1,-1,0,1]")
    assert abs(float(payload["lambda_f"]) - 1.3247179572447460) < 1e-9


def test_lattice_wehler_action(tmp_path):
    payload = run_json(tmp_path, "wa.json", "lattice", "wehler-action")
    assert payload["char_poly"] == [1, -17, -17, 1]
    assert payload["involution_check"] is True
    assert payload["isometry_check"] is True
    assert abs(float(payload["lambda_f"]) - (9 + 4 * math.sqrt(5))) < 1e-10


def test_lattice_rank2_hyperbolic_plane(tmp_path):
    payload = run_json(tmp_path, "r2.json",
                       "lattice", "rank2", "--gram", "[[0,1],[1,0]]")
    assert payload["represents_zero"] is True
    assert payload["aut_infinite"] is False


def test_lattice_rank2_minus_two_without_pell_search(tmp_path):
    payload = run_json(tmp_path, "r2m.json",
                       "lattice", "rank2", "--gram", "[[-6,2],[2,27]]")
    assert payload == {
        "represents_zero": False,
        "represents_minus_two": True,
        "aut_infinite": False,
        "lambda_psi": None,
    }


def test_lattice_enriques_summary(tmp_path):
    payload = run_json(tmp_path, "enr.json", "lattice", "enriques")
    assert payload["rank"] == 10
    assert payload["signature"] == [1, 9, 0]
    assert payload["det"] == -1
    assert payload["even"] is True


def test_torus_lyapunov_exact_and_qr(tmp_path):
    expected = math.log((3 + math.sqrt(5)) / 2)
    exact = run_json(tmp_path, "lex.json", "torus", "lyapunov",
                     "--matrix", "[[2,1],[1,1]]")
    assert abs(exact["lambda_u"] - expected) < 1e-14
    assert exact["method"] == "EXACT_EIGEN"
    qr = run_json(tmp_path, "lqr.json", "torus", "lyapunov",
                  "--matrix", "[[2,1],[1,1]]", "--method", "qr",
                  "--steps", "2000")
    assert abs(qr["lambda_u"] - expected) < 1e-10
    assert qr["method"] == "QR_ORBIT"


def test_torus_fix_count(tmp_path):
    payload = run_json(tmp_path, "fc.json", "torus", "fix-count", "--n", "3")
    assert payload["count"] == 256


def test_torus_fix_enum_rational_csv(tmp_path):
    out = run_cli(tmp_path, "fe.csv", "torus", "fix-enum", "--n", "2")
    lines = out.read_text().splitlines()
    assert lines[0] == "a1,b1,a2,b2"
    assert len(lines) == 1 + 25
    cell = re.compile(r"^-?\d+/\d+$")
    for line in lines[1:]:
        assert all(cell.match(c) for c in line.split(","))


def test_torus_fix_enum_slices_give_the_rows_of_the_points(tmp_path):
    # 102400 rows: more than one cli.FIX_ENUM_ROWS slice
    out = run_cli(tmp_path, "fe6.csv", "torus", "fix-enum", "--n", "6")
    e = tk.fix_enumerate(tk.TorusAutomorphism(la.IntMatrix.from_rows([[2, 1], [1, 1]])), 6)
    assert e.count == 102400 > cli.FIX_ENUM_ROWS
    rows = [[f"{c.numerator}/{c.denominator}" for c in p.coords] for p in e.points]
    assert out.read_bytes() == cli.csv_bytes(["a1", "b1", "a2", "b2"], rows)


def test_torus_equidist_report(tmp_path):
    payload = run_json(tmp_path, "eq.json", "torus", "equidist",
                       "--n", "3", "--kmax", "2")
    assert payload["count"] == 256
    assert payload["max_nontrivial_abs"] < 1e-10


def test_torus_dimension_estimate(tmp_path):
    payload = run_json(tmp_path, "dim.json", "torus", "dimension",
                       "--samples", "20000", "--probes", "32", "--seed", "3")
    assert abs(payload["dimension"] - 4.0) < 0.3
    assert payload["stderr"] > 0


def test_torus_rigidity_consistent(tmp_path):
    payload = run_json(tmp_path, "trig.json", "torus", "rigidity",
                       "--matrix", "[[2,1],[1,1]]")
    assert payload["verdict"] == "KUMMER_CONSISTENT"
    assert payload["gap_u"] == 0.0
    assert payload["gap_s"] == 0.0
    assert abs(payload["lambda_u_est"] - payload["half_log_lambda_f"]) == 0.0


def test_torus_automorphism_file(tmp_path):
    data = {"matrix": [[2, 1], [1, 1]],
            "tau": {"re": 0.0, "im": 1.0},
            "quotient": "none"}
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(data))
    payload = run_json(tmp_path, "fcf.json", "torus", "fix-count",
                       "--file", str(path), "--n", "3")
    assert payload["count"] == 256
    manifest = json.loads((tmp_path / "fcf.json.manifest.json").read_text())
    assert "auto.json" in manifest["input_digests"]


def test_torus_matrix_flag_overrides_file(tmp_path):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps({"matrix": [[2, 1], [1, 1]]}))
    payload = run_json(tmp_path, "fcm.json", "torus", "fix-count", "--n", "3",
                       "--file", str(path), "--matrix", "[[3,2],[1,1]]")
    assert payload["count"] == 2500


def test_torus_matrix_flag_still_checks_file_matrix(tmp_path, capsys):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps({"matrix": "junk"}))
    rc = cli.main(["torus", "fix-count", "--n", "3", "--file", str(path),
                   "--matrix", "[[2,1],[1,1]]"])
    assert rc == 2
    assert "matrix" in capsys.readouterr().err


def test_torus_automorphism_file_quotient_exits_2(tmp_path, capsys):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps({"matrix": [[2, 1], [1, 1]],
                                "quotient": "kummer"}))
    rc = cli.main(["torus", "fix-count", "--file", str(path), "--n", "3"])
    assert rc == 2
    assert "quotient" in capsys.readouterr().err


def test_torus_automorphism_file_tau_matches_flag(tmp_path):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps({"matrix": [[2, 1], [1, 1]],
                                "tau": {"re": 0.3, "im": 1.2}}))
    from_file = run_cli(tmp_path, "df.json", "torus", "dimension",
                        "--file", str(path), "--samples", "20000")
    from_flag = run_cli(tmp_path, "dt.json", "torus", "dimension",
                        "--tau", "0.3+1.2j", "--samples", "20000")
    assert from_file.read_bytes() == from_flag.read_bytes()


@pytest.mark.parametrize("tau", [{"re": "0", "im": True}, {"re": 0, "im": "1"},
                                 {"re": None, "im": 1}, {"re": 0.0, "im": [1.0]},
                                 {"re": 0.0, "im": float("inf")}])
def test_torus_automorphism_file_tau_must_be_numbers(tmp_path, capsys, tau):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps({"matrix": [[2, 1], [1, 1]], "tau": tau}))
    rc = cli.main(["torus", "fix-count", "--n", "2", "--file", str(path),
                   "--out", str(tmp_path / "out.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def _exits_2_with_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    rc = cli.main([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["torus", "dimension", "--tau", "0.2+1e308j", "--samples", "2000", "--probes", "4"],
    ["torus", "rigidity", "--tau", "0.2+1e200j"],
    ["torus", "fix-count", "--n", "2", "--tau", "infj"],
    ["torus", "fix-count", "--n", "2", "--tau", "nan+1j"],
], ids=["dimension-1e308", "rigidity-1e200", "infj", "nan"])
def test_non_finite_or_overflowing_tau_exits_2(tmp_path, capsys, argv):
    _exits_2_with_one_error_line(tmp_path, capsys, argv)


def test_overflowing_file_tau_exits_2(tmp_path, capsys):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps({"matrix": [[2, 1], [1, 1]],
                                "tau": {"re": 0.2, "im": 1e200}}))
    _exits_2_with_one_error_line(tmp_path, capsys, [
        "torus", "dimension", "--file", str(path), "--samples", "2000", "--probes", "4"])


HUGE = str(10**400)  # an exact JSON integer beyond the float range


@pytest.mark.parametrize("argv", [
    ["lattice", "salem", "--poly", f"[1, 3, {HUGE}]"],
    ["lattice", "degree", "--matrix", f"[[{HUGE},1],[1,0]]"],
    ["torus", "lyapunov", "--matrix", f"[[{HUGE},1],[-1,0]]"],
    ["torus", "lyapunov", "--method", "qr", "--matrix", f"[[{HUGE},1],[-1,0]]"],
    ["torus", "rigidity", "--matrix", f"[[{HUGE},1],[-1,0]]"],
], ids=["salem", "degree", "lyapunov", "lyapunov-qr", "rigidity"])
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, argv):
    _exits_2_with_one_error_line(tmp_path, capsys, argv)


@pytest.mark.parametrize("argv", [
    ["torus", "lyapunov", "--method", "qr", "--matrix", f"[[{10**308},1],[-1,0]]"],
    ["lattice", "degree", "--matrix", f"[[{10**200},1],[1,0]]"],
    ["lattice", "salem", "--poly", f"[1, 3, {10**30}]"],
], ids=["lyapunov-qr-nan", "degree-residual", "salem-divisors"])
def test_float_overflow_or_long_factor_search_exits_2_fast(tmp_path, capsys, argv):
    """Integers inside the float range whose QR logs, residual powers or
    factor searches leave it: one error line, well within a second."""
    start = time.perf_counter()
    _exits_2_with_one_error_line(tmp_path, capsys, argv)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    ["lattice", "rank2", "--gram", "[[1,2],[3,4]]"],
    ["lattice", "salem", "--poly", json.dumps([1] + [0] * 105 + [1])],
    ["torus", "equidist", "--n", "2", "--kmax", "16"],
    ["torus", "fix-enum", "--n", "1", "--cap", "1000001"],
    ["torus", "dimension", "--samples", "1000001"],
    ["wehler", "density", "--random", "--proj", "xx"],
    ["wehler", "density", "--random", "--proj", "xyz"],
    ["wehler", "density", "--random", "--proj", "x"],
    ["wehler", "density", "--random", "--proj", "xq"],
], ids=["rank2-non-symmetric", "salem-degree-106", "equidist-kmax-16",
        "fix-enum-cap", "dimension-samples", "density-proj-xx",
        "density-proj-xyz", "density-proj-x", "density-proj-xq"])
def test_refused_input_exits_2_fast(tmp_path, capsys, argv):
    """A non-symmetric Gram matrix, a degree above MAX_FACTOR_DEGREE, a
    frequency count above FIX_CAP, an enumeration cap above FIX_CAP, more
    than FIX_CAP Haar samples and a projection that is not two distinct
    axes of x, y, z are refused before any work starts."""
    start = time.perf_counter()
    _exits_2_with_one_error_line(tmp_path, capsys, argv)
    assert time.perf_counter() - start < 1.0


def test_torus_automorphism_file_integer_tau_matches_float(tmp_path):
    outs = []
    for name, tau in (("int", {"re": 0, "im": 1}), ("float", {"re": 0.0, "im": 1.0})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"matrix": [[2, 1], [1, 1]], "tau": tau}))
        outs.append(run_cli(tmp_path, f"{name}-out.json", "torus", "dimension",
                            "--file", str(path), "--samples", "2000").read_bytes())
    assert outs[0] == outs[1]


def test_wehler_orbit_csv_stays_on_surface(tmp_path):
    out = run_cli(tmp_path, "orb.csv", "wehler", "orbit",
                  "--random", "--seed", "4", "--n", "20")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,x_u_re")
    assert len(lines) == 1 + 21
    residuals = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(residuals) < 1e-8


def test_wehler_surface_file_matches_random(tmp_path):
    surface = wd.random_surface(4)
    arr = np.array(surface.coeffs, dtype=complex)
    data = {"coeffs": [[[[arr[i, j, k].real, arr[i, j, k].imag]
                         for k in range(3)] for j in range(3)]
                       for i in range(3)]}
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    from_file = run_cli(tmp_path, "of.csv", "wehler", "orbit",
                        "--surface", str(path), "--n", "5", "--seed", "4")
    from_seed = run_cli(tmp_path, "os.csv", "wehler", "orbit",
                        "--random", "--seed", "4", "--n", "5")
    assert from_file.read_bytes() == from_seed.read_bytes()


def test_wehler_saddles_worker_invariance(tmp_path):
    base = ("wehler", "saddles", "--random", "--seed", "4",
            "--nmax", "2", "--seeds", "256")
    one = run_cli(tmp_path, "w1.csv", *base, "--workers", "1")
    three = run_cli(tmp_path, "w3.csv", *base, "--workers", "3")
    assert one.read_bytes() == three.read_bytes()
    repeat = run_cli(tmp_path, "wr.csv", *base, "--workers", "1")
    assert one.read_bytes() == repeat.read_bytes()


def test_wehler_saddles_csv_layout(tmp_path):
    out = run_cli(tmp_path, "sad.csv", "wehler", "saddles",
                  "--random", "--seed", "4", "--nmax", "2", "--seeds", "256")
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "period"
    assert header[-1] == "type"
    assert "m1_re" in header and "m2_im" in header
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] in {"SADDLE", "NONSADDLE"}
        assert int(cells[0]) in {1, 2}


def test_wehler_lyapunov_pooled(tmp_path):
    payload = run_json(tmp_path, "wl.json", "wehler", "lyapunov",
                       "--random", "--seed", "4", "--nmax", "2",
                       "--seeds", "256")
    assert payload["lambda_u"] > 0
    assert payload["stderr"] > 0
    assert payload["per_period"]
    assert all(len(row) == 3 for row in payload["per_period"])


def test_wehler_density_pgm(tmp_path):
    out = run_cli(tmp_path, "den.pgm", "wehler", "density",
                  "--random", "--seed", "4", "--iters", "2000")
    data = out.read_bytes()
    assert data.startswith(b"P5 512 512 255\n")
    assert len(data) == 15 + 512 * 512


def test_wehler_probe_clean_surface(tmp_path):
    payload = run_json(tmp_path, "probe.json", "wehler", "probe",
                       "--random", "--seed", "11", "--trials", "800")
    assert payload["n_suspects"] == 0
    assert payload["suspects"] == []


def test_blanc_check_involution(tmp_path):
    out = run_cli(tmp_path, "binv.csv", "blanc", "check-involution",
                  "--points", "50", "--seed", "2")
    lines = out.read_text().splitlines()
    assert lines[0] == "index,defect"
    assert len(lines) == 51
    assert max(float(line.split(",")[1]) for line in lines[1:]) < 1e-10


def test_blanc_check_fixed_cubic(tmp_path):
    out = run_cli(tmp_path, "bfix.csv", "blanc", "check-fixed-cubic",
                  "--points", "30", "--seed", "2")
    lines = out.read_text().splitlines()
    assert len(lines) > 10
    assert max(float(line.split(",")[1]) for line in lines[1:]) < 1e-9


def test_blanc_check_two_form(tmp_path):
    out = run_cli(tmp_path, "btwo.csv", "blanc", "check-two-form",
                  "--points", "20", "--l", "1", "--seed", "2")
    lines = out.read_text().splitlines()
    assert len(lines) == 21
    assert max(float(line.split(",")[-1]) for line in lines[1:]) < 1e-6


def test_blanc_orbit_rows(tmp_path):
    out = run_cli(tmp_path, "borb.csv", "blanc", "orbit",
                  "--l", "3", "--n", "8", "--seed", "2")
    lines = out.read_text().splitlines()
    assert lines[0] == "step,x0_re,x0_im,x1_re,x1_im,x2_re,x2_im"
    assert len(lines) == 9


def test_blanc_cubic_and_base_point_files(tmp_path):
    cubic = bc.fermat_cubic()
    cpath = tmp_path / "cubic.json"
    cpath.write_text(json.dumps([[c.real, c.imag] for c in cubic.coeffs]))
    qs = bc.distinct_cubic_points(cubic, 2, 5)
    bpath = tmp_path / "bases.json"
    bpath.write_text(json.dumps(
        [[[z.real, z.imag] for z in q.array()] for q in qs]))
    out = run_cli(tmp_path, "bf.csv", "blanc", "check-involution",
                  "--cubic", str(cpath), "--base-points", str(bpath),
                  "--points", "10", "--seed", "2")
    manifest = json.loads((tmp_path / "bf.csv.manifest.json").read_text())
    assert set(manifest["input_digests"]) == {"cubic.json", "bases.json"}
    lines = out.read_text().splitlines()
    assert max(float(line.split(",")[1]) for line in lines[1:]) < 1e-10


def test_repeat_json_runs_byte_identical(tmp_path):
    first = run_cli(tmp_path, "a.json", "torus", "rigidity",
                    "--matrix", "[[2,1],[1,1]]")
    second = run_cli(tmp_path, "b.json", "torus", "rigidity",
                     "--matrix", "[[2,1],[1,1]]")
    assert first.read_bytes() == second.read_bytes()


def test_manifest_contents(tmp_path):
    out = run_cli(tmp_path, "m.json", "lattice", "degree",
                  "--matrix", "[[2,1],[1,1]]", "--seed", "9")
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["artifact_version"]
    assert manifest["command"] == "lattice degree"
    assert manifest["config"]["seed"] == 9
    assert manifest["result_file"] == "m.json"
    assert manifest["result_digest"] == str(cli.fnv1a64(out.read_bytes()))
    assert manifest["wall_time_s"] >= 0
    assert set(manifest["stages"]) == {"compute_s", "emit_s"}


@pytest.mark.parametrize("flags, expected", [((), 1), (("--workers", "3"), 3)],
                         ids=["default", "flag"])
def test_manifest_echoes_resolved_workers(tmp_path, flags, expected):
    run_cli(tmp_path, "fc.json", "torus", "fix-count", "--n", "2", *flags)
    manifest = json.loads((tmp_path / "fc.json.manifest.json").read_text())
    assert manifest["config"]["workers"] == expected


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("kummerlab ")]


def test_readme_command_lines_parse():
    parser = cli.build_parser()
    handlers = set()
    for line in _readme_command_lines():
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        handlers.add(args.func)
    commands = {f for name, f in vars(cli).items() if name.startswith("cmd_")}
    assert handlers == commands


def test_fnv1a64_reference_vectors():
    assert cli.fnv1a64(b"") == 0xCBF29CE484222325
    assert cli.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert cli.fnv1a64(b"foobar") == 0x85944171F73967E8


def fnv1a64_byte_loop(data: bytes) -> int:
    """FNV-1a 64 one byte at a time: the definition."""
    acc = 0xCBF29CE484222325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


BLOCK = cli.FNV_BLOCK


def fnv1a64_no_warnings(data: bytes) -> int:
    with warnings.catch_warnings():
        # wraparound stays in array ops and masked Python ints: no numpy
        # scalar overflow warning
        warnings.simplefilter("error", RuntimeWarning)
        return cli.fnv1a64(data)


# 63..129 and BLOCK +- 63..65 sit at the edges of the 64-bit words that
# carry the packed prefix xor
@pytest.mark.parametrize(
    "length", [0, 1, 2, 63, 64, 65, 127, 128, 129, 255, 256,
               BLOCK - 65, BLOCK - 64, BLOCK - 63, BLOCK - 1, BLOCK, BLOCK + 1,
               BLOCK + 63, BLOCK + 64, BLOCK + 65, 3 * BLOCK + 7])
def test_fnv1a64_matches_byte_loop(length):
    data = np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8).tobytes()
    digest = fnv1a64_no_warnings(data)
    assert type(digest) is int
    assert digest == fnv1a64_byte_loop(data)


def test_fnv1a64_every_low_byte_at_a_block_start():
    """The second block starts from each of the 256 low bytes l: the first
    block's last byte is b = l_prev ^ (m^-1 l mod 256), where l_prev is the
    low byte before it and m = FNV prime mod 256."""
    rng = np.random.default_rng(28)
    head = rng.integers(0, 256, BLOCK - 1, dtype=np.uint8).tobytes()
    tail = rng.integers(0, 256, 200, dtype=np.uint8).tobytes()
    h_prev = fnv1a64_byte_loop(head)
    m_inv = pow(cli.FNV_PRIME & 0xFF, -1, 256)
    for low in range(256):
        last = (h_prev ^ (m_inv * low)) & 0xFF
        h_block = ((h_prev ^ last) * cli.FNV_PRIME) & cli.MASK64
        assert h_block & 0xFF == low
        expected = h_block
        for byte in tail:
            expected = ((expected ^ byte) * cli.FNV_PRIME) & cli.MASK64
        assert fnv1a64_no_warnings(head + bytes([last]) + tail) == expected


def test_fnv1a64_scratch_is_bounded_by_one_block():
    """A 4 MiB payload is digested with at most 1 MiB traced above it."""
    tracemalloc.start()
    try:
        data = np.random.default_rng(4).integers(0, 256, 4 << 20, dtype=np.uint8).tobytes()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fnv1a64_no_warnings(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 1 << 20


def test_big_ints_become_decimal_strings(tmp_path):
    payload = run_json(tmp_path, "big.json", "torus", "fix-count",
                       "--matrix", "[[2,1],[1,1]]", "--n", "30")
    assert isinstance(payload["count"], str)
    assert int(payload["count"]) > 2**53


def test_malformed_matrix_exits_2(tmp_path, capsys):
    rc = cli.main(["lattice", "degree", "--matrix", "not json"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error:")


def test_precondition_failure_exits_2(capsys):
    rc = cli.main(["torus", "fix-count", "--n", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_torus_equidist_kmax_below_one_exits_2(capsys, kmax):
    rc = cli.main(["torus", "equidist", "--n", "2", "--kmax", kmax])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_torus_dimension_tau_outside_fundamental_domain_exits_2(capsys):
    rc = cli.main(["torus", "dimension", "--tau", "1.7+0.3j",
                   "--samples", "2000", "--probes", "8"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["wehler", "orbit", "--random", "--tol.membership", "1e-9"],
    ["torus", "fix-enum", "--n", "2", "--quotient", "kummer"],
], ids=["tol-membership", "quotient"])
def test_removed_flag_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["lattice"])
    assert exc.value.code == 2


def test_bad_seed_exits_2(capsys):
    rc = cli.main(["torus", "fix-count", "--n", "2", "--seed", "-1"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_out_of_range_names_the_range(capsys, seed):
    rc = cli.main(["torus", "fix-count", "--n", "2", "--seed", seed])
    assert rc == 2
    assert capsys.readouterr().err == "error: rng seed must be between 0 and 2**64 - 1\n"


def test_torus_dimension_one_probe_exits_2(capsys):
    rc = cli.main(["torus", "dimension", "--samples", "1000", "--probes", "1"])
    assert rc == 2
    assert "probes must be between 2" in capsys.readouterr().err


def test_bad_workers_exits_2(capsys):
    rc = cli.main(["torus", "fix-count", "--n", "2", "--workers", "0"])
    assert rc == 2
    assert "worker" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["torus", "dimension", "--samples", "-5"],
    ["wehler", "density", "--random", "--iters", "-5"],
    ["wehler", "orbit", "--random", "--n", "-3"],
    ["lattice", "rank2", "--gram", "[[2,11],[11,2]]", "--bound", "-1"],
    ["wehler", "saddles", "--random", "--seeds", "-5"],
    ["wehler", "rigidity", "--random", "--nmax", "-1"],
    ["wehler", "probe", "--random", "--trials", "-5"],
    ["blanc", "check-involution", "--points", "-5"],
    ["blanc", "check-fixed-cubic", "--points", "-5"],
    ["blanc", "check-two-form", "--points", "-5"],
    ["blanc", "orbit", "--n", "-3"],
], ids=["torus-dimension-samples", "wehler-density-iters", "wehler-orbit-n",
        "lattice-rank2-bound", "wehler-saddles-seeds", "wehler-rigidity-nmax",
        "wehler-probe-trials", "blanc-check-involution-points",
        "blanc-check-fixed-cubic-points", "blanc-check-two-form-points",
        "blanc-orbit-n"])
def test_negative_count_exits_2(tmp_path, capsys, argv):
    rc = cli.main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["wehler", "saddles", "--random", "--seeds", "0"],
    ["wehler", "rigidity", "--random", "--nmax", "0"],
    ["wehler", "probe", "--random", "--trials", "0"],
    ["blanc", "check-involution", "--points", "0"],
    ["blanc", "check-fixed-cubic", "--points", "0"],
    ["blanc", "check-two-form", "--points", "0"],
    ["blanc", "orbit", "--n", "0"],
], ids=lambda argv: "-".join(argv[:2]))
def test_zero_count_still_runs(tmp_path, argv):
    assert run_cli(tmp_path, "out", *argv).exists()


@pytest.mark.parametrize("kind, flag, data", [
    ("wehler", "--surface", {"coeffs": [[[["a", 0]] * 3] * 3] * 3}),
    ("blanc", "--cubic", [["x", 0]] + [[1, 0]] * 9),
    ("blanc", "--base-points", [[[None, 0], [1, 0], [0, 0]]]),
    ("blanc", "--cubic", [10**400] + [[1, 0]] * 9),
    ("blanc", "--cubic", [[math.nan, 0]] + [[1, 0]] * 9),
    ("blanc", "--cubic", [["1.5", 0]] + [[1, 0]] * 9),
    ("blanc", "--cubic", [[1, "2"]] + [[1, 0]] * 9),
    ("blanc", "--cubic", [True] + [[1, 0]] * 9),
    ("blanc", "--cubic", [[True, 0]] + [[1, 0]] * 9),
], ids=["surface-string", "cubic-string", "base-points-null", "cubic-huge-int",
        "cubic-nan", "cubic-numeric-string-re", "cubic-numeric-string-im",
        "cubic-bool", "cubic-bool-pair"])
def test_non_numeric_complex_in_file_exits_2(tmp_path, capsys, kind, flag, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    command = ["wehler", "orbit", "--n", "2"] if kind == "wehler" else [
        "blanc", "check-involution", "--points", "2"]
    rc = cli.main([*command, flag, str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["lattice", "degree", "--matrix", "[[2.7,1],[1,1]]"],
    ["lattice", "salem", "--poly", "[1,-3.9,1]"],
    ["lattice", "rank2", "--gram", "[[2,11.5],[11,2]]"],
    ["lattice", "degree", "--matrix", '[["2",1],[1,1]]'],
    ["lattice", "degree", "--matrix", "[[2,1],[1,true]]"],
    ["lattice", "degree", "--matrix", "[[2.0,1],[1,1]]"],
    ["lattice", "salem", "--poly", '[1,"-3",1]'],
    ["lattice", "salem", "--poly", "[1,true,1]"],
    ["lattice", "degree", "--matrix", '{"dim": 3, "entries": [[2,1],[1,1]]}'],
    ["lattice", "degree", "--matrix", '{"dim": "2", "entries": [[2,1],[1,1]]}'],
], ids=["matrix-float", "poly-float", "gram-float", "matrix-string",
        "matrix-bool", "matrix-integral-float", "poly-string", "poly-bool",
        "matrix-dim-disagrees", "matrix-dim-string"])
def test_non_integer_input_exits_2(tmp_path, capsys, argv):
    rc = cli.main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_non_integer_file_matrix_exits_2(tmp_path, capsys):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps({"matrix": [[2.5, 1], [1, 1]]}))
    rc = cli.main(["torus", "fix-count", "--n", "3", "--file", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_two_form_defect_exits_3_with_one_internal_error_line(tmp_path, capsys, monkeypatch):
    skew_multipliers(monkeypatch)
    out = tmp_path / "s.csv"
    rc = cli.main(["wehler", "saddles", "--random", "--seed", "1", "--nmax", "2",
                   "--seeds", "256", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: two-form identity fails at period 2")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["saddles", "lyapunov", "rigidity"])
def test_nmax_above_period_cap_exits_2_before_any_search(tmp_path, capsys, monkeypatch,
                                                        command):
    calls = []
    monkeypatch.setattr(wd, "newton_periodic", lambda *a, **k: calls.append(a) or [])
    rc = cli.main(["wehler", command, "--random", "--nmax", str(wd.PERIOD_CAP + 1),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    # the cap itself is still searched, one call per period with a nonzero
    # primitive count: every period but n = 1
    run_cli(tmp_path, "cap.csv", "wehler", "saddles", "--random",
            "--nmax", str(wd.PERIOD_CAP))
    searched = [n for n in range(1, wd.PERIOD_CAP + 1) if wd.wehler_primitive_count(n)]
    assert [a[1] for a in calls] == searched == list(range(2, wd.PERIOD_CAP + 1))
