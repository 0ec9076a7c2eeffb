"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The end-to-end tests run ``bench/run.py --smoke`` (small sizes, one round of
each kind) as a child process, exactly as the benchmark is run; the gate
tests corrupt real program outputs in a temporary directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from braidline import basis, cli, propagator, qcalc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("propagator.free_propagator.calls", "scattering.lippmann_schwinger_solve.calls",
          "dyson.rhs_evals", "cli.write_matrix_csv.rows")


def run_bench(workload, trace, seed=3, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


def values(res):
    return {k: v["value"] for k, v in res["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {w: result(run_bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    res = result(run_bench(workload, 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v > 0 for v in values(res).values())


def test_traced_run_emits_every_per_layer_metric(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in traced.values():
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_layers_land_on_their_workloads(traced):
    m = {w: values(r) for w, r in traced.items()}
    assert m["kernels_q99"]["propagator.free_propagator.calls"] == 2 * 8 * 4
    assert m["kernels_q99"]["propagator.free_propagator.s.n202"] > 0
    assert m["kernels_q99"]["propagator.free_propagator.gflops"] > 0
    assert m["kernels_q99"]["basis.build_hamiltonian_basis.s"] > 0
    for idle in ("scattering.lippmann_schwinger_solve.calls", "dyson.rhs_evals"):
        assert m["kernels_q99"][idle] == 0
    assert m["scatter_n102"]["dyson.rhs_evals"] == 0
    assert m["scatter_n102"]["propagator.free_propagator.calls"] == 0
    assert m["scatter_n102"]["scattering.lippmann_schwinger_solve.calls"] > 0
    assert m["cli_default"]["dyson.rhs_evals"] > 0
    assert all(m["cli_default"][f"cli.check.{c}.s"] > 0 for c in
               ("born", "boundary", "composition", "conjugation", "cross_formalism",
                "crossing", "residual", "unitarity_negative_control", "unitarity_trend"))
    for w, vals in m.items():
        wall = sum(vals[k] for k in ("basis_s", "propagate_s", "scatter_s", "dyson_s",
                                     "verify_s", "kernels_s"))
        # the traced layers account for the round but for a sliver of glue
        assert abs(vals["trace.unattributed_s"]) < 0.02 * wall, w


def test_counts_repeat_exactly(traced):
    again = values(result(run_bench("scatter_n102", 1)))
    first = values(traced["scatter_n102"])
    assert {k: first[k] for k in COUNTS} == {k: again[k] for k in COUNTS}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("cli_default", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_catches_a_changed_report_byte(tmp_path):
    assert cli.main(["basis", "--out", str(tmp_path)]) == 0
    same = workloads.SameBytes()
    assert same.check(str(tmp_path)) == []
    assert all(ok for _, ok, _ in same.check(str(tmp_path)))
    report = tmp_path / "basis_report.json"
    data = bytearray(report.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    report.write_bytes(bytes(data))
    assert not any(ok for _, ok, _ in same.check(str(tmp_path)))


def test_gate_catches_a_failing_verify_report(tmp_path):
    path = tmp_path / "verify_report.json"
    report = {"all_pass": True, "checks": [{"check": "born", "pass": True}]}
    path.write_text(json.dumps(report))
    assert workloads.verify_check(str(path))[1]
    report["checks"][0]["pass"] = False
    path.write_text(json.dumps(report))
    assert not workloads.verify_check(str(path))[1]


def test_gate_catches_a_perturbed_smatrix(tmp_path):
    assert cli.main(["scatter", "--out", str(tmp_path)]) == 0
    cfg = cli.load_config(None)
    checks, _ = workloads.scatter_checks(str(tmp_path), cfg["family"], cfg["eps_sweep"], True)
    assert all(ok for _, ok, _ in checks)
    path = tmp_path / f"smatrix_{cfg['family']}_eps{cfg['eps_sweep'][1]!r}.csv"
    s = workloads.read_matrix_csv(str(path))
    s[3, 3] += 1e-9
    cli.write_matrix_csv(str(path), s)
    checks, _ = workloads.scatter_checks(str(tmp_path), cfg["family"], cfg["eps_sweep"], True)
    failed = {name for name, ok, _ in checks if not ok}
    assert "scatter.omega_is_abs_s_squared" in failed


def test_gate_catches_a_perturbed_kernel():
    ctx = qcalc.braided_line(0.99)
    b = basis.build_hamiltonian_basis(qcalc.make_lattice(0.99, j_min=-10, j_max=10), 1.0, ctx)
    t0, t1, t2 = -0.7, 0.1, 0.8
    direct = propagator.free_propagator(b, "K1", t0, t2)
    composed = propagator.compose(propagator.free_propagator(b, "K1", t0, t1),
                                  propagator.free_propagator(b, "K1", t1, t2)).matrix
    residual = propagator.schrodinger_residual(propagator.make_retarded(direct))
    coincident = propagator.free_propagator(b, "K1", t2, t2).matrix
    delta = basis.delta_kernel(b)

    def failing(**override):
        args = dict(direct=direct.matrix, composed=composed, residual=residual,
                    coincident=coincident, delta=delta)
        args.update(override)
        return {n for n, ok, _ in workloads.kernel_checks(b, t2 - t0, **args) if not ok}

    assert failing() == set()
    assert failing(composed=composed * (1 + 1e-9)) == {"kernel.composition"}
    assert failing(residual=residual + 1e-6 * np.max(b.energies)) == {"kernel.residual"}
    assert failing(coincident=coincident + 1e-11) == {"kernel.boundary"}
