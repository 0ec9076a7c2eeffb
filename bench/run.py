"""Benchmark of braidline, run from the root of a source checkout.

    python3 bench/run.py --workload cli_default --seed 1 --seconds 30 --trace 0

Workloads: cli_default, scatter_n102, kernels_q99 (see bench/README.md).
The process pins every BLAS/OpenMP pool to one thread before numpy is
imported and imports braidline from ``src/`` of this checkout.  It times
set-up in fresh child interpreters (spawn to ready, median of five), then
repeats rounds of the workload until another round would overrun
``--seconds``.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics, the
tracing overhead, and per-call times of three layers at one BLAS thread and
at ``nproc`` threads (the latter from a child process, since the thread count
is fixed at import).  ``--smoke`` shrinks sizes and repetitions for the
benchmark's own tests.

Human-readable lines go first; the last line of stdout is the JSON result.
A full record (environment, samples, checks) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing  # stdlib only; safe before the thread pins

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 5
PROBE_REPS = 20

# subcommand (or sweep) wall times; reported per round, traced as layers
STAGE_METRICS = {"basis_s": "basis", "propagate_s": "propagate", "scatter_s": "scatter",
                 "dyson_s": "dyson", "verify_s": "verify", "kernels_s": None}
COUNTED = ("basis.build_hamiltonian_basis", "basis.delta_kernel",
           "propagator.free_propagator", "propagator.compose",
           "propagator.schrodinger_residual", "scattering.smatrix_momentum",
           "scattering.lippmann_schwinger_solve", "dyson.ode_evolution",
           "cli.write_matrix_csv")
N_TAGS = ("n202", "n402", "n802")
N_SCALED = ("qcalc.derivative_matrix", "basis.build_hamiltonian_basis", "basis.delta_kernel",
            "propagator.free_propagator", "propagator.compose",
            "propagator.schrodinger_residual")
PROBED = ("propagator.free_propagator", "propagator.compose",
          "scattering.lippmann_schwinger_solve")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli_default", "scatter_n102", "kernels_q99"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small sizes, one set-up")
    p.add_argument("--probe", choices=("setup", "threads"),
                   help="internal: set up and exit, or print per-call times at nproc threads")
    return p.parse_args(argv)


def import_program() -> None:
    """Import braidline from this checkout's ``src/`` and nowhere else."""
    pkg = SRC / "braidline"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"{pkg} is missing")
    sys.path.insert(0, str(SRC))
    import braidline.cli  # noqa: F401  (pulls numpy, scipy.linalg, scipy.integrate)

    if Path(braidline.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"braidline resolved to {braidline.__file__}, not {pkg}")


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return None
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": sys.version,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def spawn_probe(args, probe: str) -> tuple[float, str]:
    """Run this script as a child in ``--probe`` mode; (wall seconds, stdout)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", probe]
    if args.smoke:
        cmd.append("--smoke")
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{probe} probe failed:\n{proc.stderr}")
    return wall, proc.stdout


def layer_metrics(tracer, workload, import_s, rounds, probe_st, probe_mt) -> dict:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    table, top = tracer.totals()
    roots = tracer.roots

    def col(name, i, tag=None):
        def pick(root):
            return sum(v[i] for (n, t), v in root.items()
                       if n == name and (tag is None or t == tag))
        return tracing.per_unit(table, roots, pick)

    def gflops(tag=None):
        busy = col("propagator.free_propagator", 0, tag)
        return col("propagator.free_propagator", 2, tag) / busy / 1e9 if busy else 0.0

    m = {"import.s": (import_s, "s")}
    names = [t[0] for t in tracing.SPAN_TARGETS] + [f"cli.check.{c}"
                                                    for c in tracing.CHECK_NAMES]
    for name in names:
        m[f"{name}.s"] = (col(name, 0), "s")
    for name in COUNTED:
        m[f"{name}.calls"] = (col(name, 1), "count")
    m["propagator.free_propagator.gflops"] = (gflops(), "GFLOP/s-computed")
    m["cli.write_matrix_csv.rows"] = (col("cli.write_matrix_csv", 2), "count")
    m["dyson.rhs_evals"] = (col("dyson.rhs_evals", 1), "count")
    for tag in N_TAGS:
        for name in N_SCALED:
            m[f"{name}.s.{tag}"] = (col(name, 0, tag), "s")
        m[f"propagator.free_propagator.gflops.{tag}"] = (gflops(tag), "GFLOP/s-computed")
    for name in PROBED:
        m[f"{name}.s.st"] = (median(probe_st[name]), "s")
        m[f"{name}.s.mt"] = (median(probe_mt[name]), "s")
        m[f"{name}.s.mt_max"] = (max(probe_mt[name]), "s")
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    for metric, stage in STAGE_METRICS.items():
        m[metric] = (stage_median(workload, plain, stage, metric), "s")
    round_roots = [i for i, k in enumerate(roots) if k == "round"]
    overhead = median([r["wall"] for r in traced]) - median([r["wall"] for r in plain])
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_frac"] = (overhead / median([r["wall"] for r in plain]), "ratio")
    m["trace.unattributed_s"] = (median([r["wall"] - top[i]
                                         for r, i in zip(traced, round_roots)]), "s")
    m["trace.spans"] = (median([sum(1 for s in tracer.spans if s[4] == i)
                                for i in round_roots]), "count")
    return m


def stage_median(workload, rounds, stage, metric) -> float:
    if metric == "kernels_s":
        return median([r["wall"] for r in rounds]) if workload == "kernels_q99" else 0.0
    return median([r["stages"][stage] for r in rounds if stage in r["stages"]])


def count_repeats(tracer) -> dict:
    """Per-round values of every count; each list must hold one value."""
    table, _ = tracer.totals()
    out = {}
    for name in COUNTED + ("dyson.rhs_evals",):
        vals = [sum(v[1] for (n, _), v in table[i].items() if n == name)
                for i, k in enumerate(tracer.roots) if k == "round"]
        out[name] = sorted(set(vals))
    rows = [sum(v[2] for (n, _), v in table[i].items() if n == "cli.write_matrix_csv")
            for i, k in enumerate(tracer.roots) if k == "round"]
    out["cli.write_matrix_csv.rows"] = sorted(set(rows))
    return out


def run(args, import_s: float, workdir: Path, nproc: int) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, str(workdir))
    meter = workloads.Meter()
    probe_reps = 3 if args.smoke else PROBE_REPS
    if args.probe == "setup":
        wl.setup(meter)
        return 0
    if args.probe == "threads":
        wl.setup(meter)
        print(json.dumps(workloads.probe_calls(*wl.probe_scene(), probe_reps)))
        return 0
    tracer = tracing.Tracer(stage=lambda: meter.stage) if args.trace else None

    # set-up from a fresh interpreter, several times: spawn to ready
    reps = 1 if args.smoke else SETUP_REPS
    setup_times = [] if tracer else [spawn_probe(args, "setup")[0] for _ in range(reps)]
    for _ in range(reps if tracer else 1):
        if tracer:
            tracer.begin_root("setup")
            tracer.install()
        try:
            wl.setup(meter)
        finally:
            if tracer:
                tracer.uninstall()
    checks = list(wl.setup_checks())

    rounds = []
    deadline = perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        gc.collect()
        meter.reset()
        if traced:
            tracer.begin_root("round")
            tracer.install()
        try:
            checks += wl.run_round(meter)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"traced": traced, "wall": meter.total, "stages": dict(meter.stages)})
        # stop once both kinds ran and another round would overrun the window
        kinds = {r["traced"] for r in rounds}
        if (kinds == ({False, True} if tracer else {False})
                and perf_counter() + meter.total > deadline):
            break

    attempted = len(checks)
    failed = sum(1 for _, ok, _ in checks if not ok)
    plain_walls = [r["wall"] for r in rounds if not r["traced"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(nproc),
        "import_s": import_s, "setup_s_samples": setup_times, "rounds": rounds,
        "checks": summarize_checks(checks), "diagnostics": wl.diagnostics,
    }
    if tracer:
        probe_st = workloads.probe_calls(*wl.probe_scene(), probe_reps)
        probe_mt = json.loads(spawn_probe(args, "threads")[1].strip().splitlines()[-1])
        metrics = layer_metrics(tracer, args.workload, import_s, rounds,
                                probe_st, probe_mt)
        record.update(probe_st=probe_st, probe_mt=probe_mt, missing_targets=tracer.missing,
                      count_repeats=count_repeats(tracer))
    else:
        metrics = {
            "round_s": (median(plain_walls), "s"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        stages = {k: stage_median(args.workload, rounds, s, k)
                  for k, s in STAGE_METRICS.items()}
        record["stage_medians_s"] = stages
        print(f"{args.workload}: {len(plain_walls)} rounds, {len(setup_times)} set-ups")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:.6g} {unit}")
        for name, value in stages.items():
            if value:
                print(f"  {name:<14} {value:.6g} s  (median of {len(plain_walls)})")
        print(f"  failed_frac    {failed / attempted:.6g}  ({failed}/{attempted} checks)")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")
    for name, info in record["checks"].items():
        if info["failed"]:
            print(f"bench: check {name} failed {info['failed']} of {info['attempted']} "
                  f"(worst {info['worst']!r})", file=sys.stderr)
    print(f"  record         {OUT_DIR.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def summarize_checks(checks) -> dict:
    out: dict = {}
    for name, ok, value in checks:
        info = out.setdefault(name, {"attempted": 0, "failed": 0, "worst": None})
        info["attempted"] += 1
        info["failed"] += 0 if ok else 1
        if info["worst"] is None or abs(value) > abs(info["worst"]):
            info["worst"] = value
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc if args.probe == "threads" else 1)
    t0 = perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"bench: cannot import braidline from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, import_s, workdir, nproc)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
