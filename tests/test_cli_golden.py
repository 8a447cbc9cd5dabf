"""Golden result digests for a fixed matrix of CLI runs.

Each run goes through kummerlab.cli.main with --workers 1 and --out, and
the manifest's result_digest (FNV-1a 64 of the result bytes) is compared
with a value recorded before the engines were consolidated.  A refactor
that keeps the maths must keep every one of these digests.
"""

import json

import numpy as np
import pytest

from kummerlab import cli
from kummerlab import wehler_dynamics as wd

pytestmark = pytest.mark.golden

SURFACE_FILE = "@forced_node_surface"

CASES = {
    "wehler_saddles": (
        ["wehler", "saddles", "--random", "--seed", "1", "--nmax", "2",
         "--seeds", "256"],
        "5299584082807734245",
    ),
    "wehler_lyapunov": (
        ["wehler", "lyapunov", "--random", "--seed", "1", "--nmax", "3",
         "--seeds", "256"],
        "13184767276357245067",
    ),
    "wehler_rigidity": (
        ["wehler", "rigidity", "--random", "--seed", "1", "--nmax", "3",
         "--seeds", "256"],
        "3346039778583280993",
    ),
    "wehler_orbit": (
        ["wehler", "orbit", "--random", "--seed", "1", "--n", "200"],
        "17404448583983012674",
    ),
    "wehler_density": (
        ["wehler", "density", "--random", "--seed", "1", "--iters", "200"],
        "8323539877776394411",
    ),
    # longer scalar orbits on other surfaces, so a change to the chain's
    # bookkeeping shows past the first few hundred steps
    "wehler_orbit_seed2": (
        ["wehler", "orbit", "--random", "--seed", "2", "--n", "500"],
        "12487844437584969760",
    ),
    "wehler_orbit_seed7": (
        ["wehler", "orbit", "--random", "--seed", "7", "--n", "500"],
        "11859839265778892793",
    ),
    "wehler_density_seed7": (
        ["wehler", "density", "--random", "--seed", "7", "--iters", "500"],
        "12762174389262651219",
    ),
    "wehler_probe_node": (
        ["wehler", "probe", "--surface", SURFACE_FILE, "--seed", "5"],
        "2324053470535728170",
    ),
    "blanc_orbit": (
        ["blanc", "orbit", "--seed", "2", "--l", "3", "--n", "200"],
        "2356064085214483640",
    ),
    "blanc_check_two_form": (
        ["blanc", "check-two-form", "--seed", "2", "--l", "3", "--points", "50"],
        "11735282713394328755",
    ),
    "blanc_check_fixed_cubic": (
        ["blanc", "check-fixed-cubic", "--seed", "2", "--l", "3",
         "--points", "50"],
        "16968233737132459758",
    ),
    "torus_fix_enum": (
        ["torus", "fix-enum", "--n", "3"],
        "5298220331473556777",
    ),
    "torus_fix_enum_n5": (
        ["torus", "fix-enum", "--n", "5"],
        "9555876699668246799",
    ),
    "torus_equidist_n5": (
        ["torus", "equidist", "--n", "5", "--kmax", "3"],
        "14409565806005773967",
    ),
    # 80 trivial frequencies: the n = 5 case has none above WEYL_TRIVIAL_TOL
    "torus_equidist_n2": (
        ["torus", "equidist", "--n", "2", "--kmax", "3"],
        "9956907491564104251",
    ),
    # Smith divisors [2, 2, 18, 18]: the other torus cases have equal divisors
    "torus_fix_enum_uneven_divisors": (
        ["torus", "fix-enum", "--matrix", "[[0,1],[1,3]]", "--n", "3"],
        "11963519027775673001",
    ),
    "torus_rigidity": (
        ["torus", "rigidity"],
        "3864535233900715432",
    ),
    # a Gram matrix with nonzero off-diagonal terms: the other cases use tau = i
    "torus_dimension_tau": (
        ["torus", "dimension", "--tau", "0.3+1.2j", "--samples", "20000"],
        "15382271108167285120",
    ),
    # corners of the fundamental domain, where the metric's translate search
    # has ties: tau = zeta3 and Re tau = 1/2
    "torus_dimension_zeta3": (
        ["torus", "dimension", "--tau=-0.5+0.8660254037844386j",
         "--samples", "20000", "--probes", "16"],
        "801137881918393470",
    ),
    "torus_dimension_re_half": (
        ["torus", "dimension", "--tau", "0.5+1j", "--samples", "20000",
         "--probes", "16"],
        "17207217544728375785",
    ),
    # QR frames: positive and negative dominant eigenvalue, a parabolic
    # shear, and a rotation whose frame has period 2
    "torus_lyapunov_qr_fib": (
        ["torus", "lyapunov", "--method", "qr", "--matrix", "[[1,1],[1,0]]"],
        "2320655486367793045",
    ),
    "torus_lyapunov_qr_negative_trace": (
        ["torus", "lyapunov", "--method", "qr", "--matrix", "[[-2,1],[1,-1]]"],
        "1899782085602564624",
    ),
    "torus_lyapunov_qr_parabolic": (
        ["torus", "lyapunov", "--method", "qr", "--matrix", "[[1,1],[0,1]]"],
        "17633343934273863042",
    ),
    "torus_lyapunov_qr_rotation": (
        ["torus", "lyapunov", "--method", "qr", "--matrix", "[[0,-1],[1,0]]"],
        "17633343934273863042",
    ),
    "torus_rigidity_matrix": (
        ["torus", "rigidity", "--matrix", "[[3,1],[2,1]]"],
        "6993876428339106727",
    ),
    "torus_lyapunov_exact": (
        ["torus", "lyapunov"],
        "11942179324816188421",
    ),
    "torus_lyapunov_qr": (
        ["torus", "lyapunov", "--method", "qr", "--steps", "2000"],
        "16421877710988319572",
    ),
    "torus_fix_count_n3": (
        ["torus", "fix-count", "--n", "3"],
        "12864667318046246392",
    ),
    "torus_dimension_probes": (
        ["torus", "dimension", "--samples", "20000", "--probes", "16"],
        "7643489435297281349",
    ),
    "blanc_check_involution": (
        ["blanc", "check-involution", "--points", "50"],
        "539577444796623989",
    ),
    "lattice_salem_lehmer": (
        ["lattice", "salem", "--poly", "lehmer"],
        "7866479313749720055",
    ),
    "lattice_wehler_action": (
        ["lattice", "wehler-action"],
        "6280756361115419478",
    ),
    # one case per branch of spectral_report
    "lattice_salem_one": (
        ["lattice", "salem", "--poly", "[1,0,1]"],
        "276140303822595806",
    ),
    "lattice_salem_nilpotent": (
        ["lattice", "salem", "--poly", "[0,0,1]"],
        "16472766621091299524",
    ),
    "lattice_salem_other_below_one": (
        ["lattice", "salem", "--poly", "[-1,0,2]"],
        "5647883920181522642",
    ),
    "lattice_salem_plastic": (
        ["lattice", "salem", "--poly", "[-1,-1,0,1]"],
        "10444274586579347684",
    ),
    # Lehmer * Phi_1^2 * Phi_6: SALEM with stripped cyclotomic factors
    "lattice_salem_lehmer_cyclotomic": (
        ["lattice", "salem", "--poly", "[1,-2,1,0,0,-1,1,0,1,-1,0,0,1,-2,1]"],
        "7436063552577188277",
    ),
    "lattice_degree_fibonacci": (
        ["lattice", "degree", "--matrix", "[[2,1],[1,1]]"],
        "7278416437077573336",
    ),
    "lattice_rank2": (
        ["lattice", "rank2", "--gram", "[[2,11],[11,2]]"],
        "17208076531819536269",
    ),
    "lattice_enriques": (
        ["lattice", "enriques"],
        "13442331491017950311",
    ),
}


def _forced_node_surface_file(path):
    """The surface of tests/test_wehler_dynamics.py with a node at
    x = y = z = (1:0), written as a --surface coefficient file."""
    arr = wd.random_surface(3).array()
    arr[2, 2, 2] = 0.0
    arr[1, 2, 2] = 0.0
    arr[2, 1, 2] = 0.0
    arr[2, 2, 1] = 0.0
    arr = wd.WehlerSurface.from_array(arr).array()
    data = {"coeffs": [[[[arr[i, j, k].real, arr[i, j, k].imag]
                         for k in range(3)] for j in range(3)]
                       for i in range(3)]}
    path.write_text(json.dumps(data))
    return path


def result_digest(tmp_path, name, argv):
    argv = [str(_forced_node_surface_file(tmp_path / "node.json"))
            if a == SURFACE_FILE else a for a in argv]
    out = tmp_path / name
    assert cli.main([*argv, "--workers", "1", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / (name + ".manifest.json")).read_text())
    return manifest["result_digest"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_result_digest_is_golden(tmp_path, name):
    argv, digest = CASES[name]
    assert result_digest(tmp_path, name, argv) == digest


def test_forced_node_surface_file_round_trips(tmp_path):
    path = _forced_node_surface_file(tmp_path / "node.json")
    data = json.loads(path.read_text())["coeffs"]
    arr = np.array([[[complex(*c) for c in row] for row in plane] for plane in data])
    inf = wd.P1Point(1.0, 0.0)
    assert wd.surface_residual(wd.WehlerSurface.from_array(arr), inf, inf, inf) < 1e-14
