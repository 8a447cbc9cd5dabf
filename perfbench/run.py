"""kummerlab benchmark: three workloads through the public CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 35 --trace 0

``--trace 0`` times whole passes of the workload's CLI operations and
prints the end-to-end metrics; ``--trace 1`` runs the traced decomposition
and the per-layer probes and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; the setup probes inherit the same environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
REPORTS = ROOT / ".perfbench"
SETUP_PROBES = 8


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("census", "orbit", "exact"))
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measured time per run; at least one pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="add this run's result digests to perfbench/golden.json")
    return p.parse_args(argv)


def locate_package():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    if not (SRC / "kummerlab" / "__init__.py").is_file():
        print(f"perfbench: no kummerlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import kummerlab

    if Path(kummerlab.__file__).resolve().parent != (SRC / "kummerlab").resolve():
        print(f"perfbench: imported kummerlab from {kummerlab.__file__}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# machine record


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit, dirty = None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, env=env, timeout=30)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_pinned": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit,
        "git_dirty": dirty,
    }


# ---------------------------------------------------------------------------
# set-up time: fresh processes from start to the first workload operation


def measure_setup(workload: str, seed: int, workdir: Path, probes: int) -> list[float]:
    """Seconds from the start of each fresh probe process to its "ready"."""
    times = []
    for _ in range(probes):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# one untraced pass through the CLI


class SaddleCapture:
    """Keeps what wehler_dynamics.newton_periodic returns during an
    operation, so the census check can replay every point it reported."""

    def __init__(self, wd):
        self.wd = wd
        self.batches = []

    def __enter__(self):
        self.batches = []
        self.original = self.wd.newton_periodic

        def capture(*args, **kwargs):
            out = self.original(*args, **kwargs)
            self.batches.append(out)
            return out

        self.wd.newton_periodic = capture
        return self

    def __exit__(self, *exc):
        self.wd.newton_periodic = self.original


def run_pass(workload, ops, inputs, workdir, golden, checked) -> list[dict]:
    """Every operation through kummerlab.cli.main, timed; checks run after
    each timed call.  `checked` maps argv to the digest already checked in
    an earlier pass: the same bytes are not checked again, other bytes fail."""
    from kummerlab import cli
    from kummerlab import wehler_dynamics as wd

    import workloads as W

    capture = SaddleCapture(wd)
    results = []
    for idx, argv in enumerate(ops):
        out = workdir / f"op{idx}.out"
        rec = {"argv": W.golden_key(argv), "rc": None, "wall_s": None, "errors": []}
        with capture:
            rec["start"] = perf_counter()
            try:
                rec["rc"] = cli.main(argv + ["--workers", "1", "--out", str(out)])
            except Exception:  # the run goes on; the operation counts as failed
                rec["errors"].append(traceback.format_exc(limit=3))
            rec["end"] = perf_counter()
            rec["wall_s"] = rec["end"] - rec["start"]
        if rec["rc"] != 0:
            rec["errors"].append(f"exit code {rec['rc']}")
            results.append(rec)
            continue
        payload = out.read_bytes()
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        rec["digest"] = manifest["result_digest"]
        if rec["argv"] in checked:
            if checked[rec["argv"]] != rec["digest"]:
                rec["errors"].append("result bytes differ from an earlier pass")
        else:
            checked[rec["argv"]] = rec["digest"]
            if rec["digest"] != str(cli.fnv1a64(payload)):
                rec["errors"].append("manifest digest does not match the result bytes")
            rec["errors"] += W.check(workload, argv, payload, inputs, capture.batches)
        rec["golden"] = ("unrecorded" if rec["argv"] not in golden
                         else "unchanged" if golden[rec["argv"]] == rec["digest"]
                         else "changed")
        rec["bytes_out"] = len(payload)
        rec["compute_s"] = manifest["stages"]["compute_s"]
        rec["emit_s"] = manifest["stages"]["emit_s"]
        if not rec["errors"]:
            rec["items"] = W.work_items(workload, argv, payload)
            if workload == "census":
                rec["coverage_p2"] = W.coverage_p2(payload)
        results.append(rec)
    return results


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(args, inputs, workdir, golden):
    """Whole passes until the next would overrun --seconds.  Each operation's
    time is also converted to reference seconds (see speed.py)."""
    import workloads as W

    ops = W.operations(args.workload, args.seed, workdir)
    passes, checked = [], {}
    with speed.SpeedSampler() as sampler:
        while not passes or (sum(p["wall_s"] for p in passes)
                             + statistics.median(p["wall_s"] for p in passes)) <= args.seconds:
            done = run_pass(args.workload, ops, inputs, workdir, golden, checked)
            passes.append({"ops": done, "wall_s": sum(r["wall_s"] for r in done)})
    for p in passes:
        whole = sampler.factor(p["ops"][0]["start"], p["ops"][-1]["end"])
        for r in p["ops"]:
            r["ref_s"] = sampler.ref_seconds(r["start"], r["end"], whole)
        rated = [r for r in p["ops"] if r.get("items", ("", 0))[1] > 0]
        p["ref_s"] = sum(r["ref_s"] for r in p["ops"])
        # no item at all when every item-producing operation failed
        p["items_per_ref_s"] = (sum(r["items"][1] for r in rated) / sum(r["ref_s"] for r in rated)
                                if rated else 0.0)
    return passes


def traced_run(args, inputs, workdir, golden):
    import tracing
    import workloads as W

    tracer = tracing.Tracer()
    untraced, traced = [], []
    # each operation untraced, then traced, so both see the same host load
    with speed.SpeedSampler() as sampler:
        for op_id, argv in enumerate(W.operations(args.workload, args.seed, workdir)):
            untraced += run_pass(args.workload, [argv], inputs, workdir, golden, {})
            start = perf_counter()
            digest = tracing.traced_op(tracer, op_id, argv, workdir)
            traced.append((digest, start, perf_counter()))
    whole = sampler.factor(untraced[0]["start"], traced[-1][2])
    untraced_ref = sum(sampler.ref_seconds(r["start"], r["end"], whole) for r in untraced)
    traced_ref = sum(sampler.ref_seconds(start, end, whole) for _, start, end in traced)
    cross = []
    for rec, (digest, _, _) in zip(untraced, traced):
        if digest is None or digest != rec.get("digest"):
            cross.append(f"{rec['argv']}: traced decomposition bytes differ from the CLI output")
    metrics, probe_failures = tracing.layer_probes(args.seed)
    for layer, stats in tracer.layer_stats().items():
        for key, value in stats.items():
            metrics[f"{layer}.{key}"] = value
    ok = [r for r in untraced if "bytes_out" in r]
    metrics["cli.bytes_out"] = sum(r["bytes_out"] for r in ok)
    metrics["cli.compute_s"] = sum(r["compute_s"] for r in ok)
    metrics["cli.emit_s"] = sum(r["emit_s"] for r in ok)
    metrics["trace.untraced_wall_s"] = untraced_ref
    metrics["trace.traced_wall_s"] = traced_ref
    metrics["trace.overhead_s"] = traced_ref - untraced_ref
    metrics["trace.spans"] = len(tracer.spans)
    return untraced, cross + probe_failures, metrics, tracer


# ---------------------------------------------------------------------------
# reporting


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads as W

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    REPORTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=REPORTS))
    try:
        machine = machine_info()
        setup_times = []
        if args.trace:
            inputs = W.build_inputs(args.workload, args.seed, workdir)
            ops_done, extra_failures, metrics, tracer = traced_run(args, inputs, workdir, golden)
            passes = [{"ops": ops_done}]
            tracer.dump(REPORTS / f"spans-{args.workload}-seed{args.seed}.json")
            # one cross-check per operation plus the workers 1/2 comparison
            extra_attempted = len(ops_done) + 1
        else:
            # half the set-up probes before the passes and half after, so
            # that they see the host at two moments of the run
            setup_times = measure_setup(args.workload, args.seed, workdir, SETUP_PROBES // 2)
            inputs = W.build_inputs(args.workload, args.seed, workdir)
            passes = untraced_run(args, inputs, workdir, golden)
            setup_times += measure_setup(args.workload, args.seed, workdir, SETUP_PROBES // 2)
            extra_failures, extra_attempted = [], 0
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(p["ref_s"] for p in passes),
                "items_per_s": statistics.median(p["items_per_ref_s"] for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes for r in p["ops"]]
    attempted = len(records) + extra_attempted
    failed = sum(1 for r in records if r["errors"]) + len(extra_failures)
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es), {attempted} operations and checks, {failed} failed, "
          f"fail_rate {failed / attempted:.4f}")
    for r in passes[0]["ops"]:
        status = "ok" if not r["errors"] else "FAIL " + "; ".join(r["errors"])
        print(f"  op {r['argv']}: {r['wall_s']:.3f} s, check {status}, "
              f"bytes {r.get('golden', 'not produced')}")
    for msg in extra_failures:
        print(f"  check FAIL {msg}")
    if not args.trace:
        walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
        print(f"  measured wall time per pass: {walls} s")
    first = passes[0]["ops"][0]
    if "coverage_p2" in first:
        print(f"  coverage_p2 = {first['coverage_p2']:.6f} (period-2 points / L(f^2))")

    out_metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = metrics[m["name"]]
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']} = {value:.6g} {m['unit']} ({m['better']} is better)")

    if args.record_golden:
        for r in records:
            if "digest" in r:
                golden[r["argv"]] = r["digest"]
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    report = {"machine": machine, "args": vars(args), "setup_times_s": setup_times,
              "passes": passes, "extra_failures": extra_failures, "metrics": metrics}
    (REPORTS / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
