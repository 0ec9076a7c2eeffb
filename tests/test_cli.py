import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracles
from braidline import basis as bbasis
from braidline import checks, cli, propagator
from braidline.cli import (
    CHECKS,
    DEFAULT_CONFIG,
    ConfigError,
    Scene,
    config_hash,
    load_config,
    main,
)
from braidline import scattering
from braidline.propagator import VARIANTS, free_propagator
from braidline.scattering import transition_probability_table
from oracles import SPECIAL_FLOATS


def run(args):
    return main(args)


FOOTPRINT = """
import sys, tempfile
from braidline.cli import main
with tempfile.TemporaryDirectory() as out:
    for cmd in (["basis", "--qexp"], ["propagate"], ["scatter"], ["dyson"], ["verify"]):
        assert main([*cmd, "--out", f"{out}/{cmd[0]}"]) == 0, cmd
heavy = [m for m in ("scipy.linalg", "numpy.f2py", "numpy.testing") if m in sys.modules]
assert not heavy, f"imported {heavy}"
"""


def test_commands_never_import_scipy_linalg():
    # the free basis loads only SciPy's LAPACK extension (scipy.linalg._flapack):
    # a fresh interpreter running every command keeps the 0.2-0.4 s import out
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_print_defaults(capsys):
    assert run(["--print-defaults"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == DEFAULT_CONFIG


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["verify"], ["--print-defaults"], ["--help"]],
                         ids=["verify", "print_defaults", "help"])
def test_closed_stdout_is_not_an_error(tmp_path, argv, unbuffered):
    # `braidline verify | head -1`: a reader that has gone costs neither the
    # run's files nor its exit code, and leaves no traceback on stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    out = tmp_path / "o"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "braidline.cli", *argv,
             *(["--out", str(out)] if argv == ["verify"] else [])],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=300)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (out / "verify_report.json").is_file() == (argv == ["verify"])


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2


def test_config_defaults_and_merge(tmp_path):
    cfg = load_config(None)
    assert cfg == DEFAULT_CONFIG
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ctx": {"q": 0.8}, "mass": 2.0}))
    cfg = load_config(str(path))
    assert cfg["ctx"]["q"] == 0.8
    assert cfg["mass"] == 2.0
    assert cfg["lattice"] == DEFAULT_CONFIG["lattice"]


def test_config_hash_is_stable(tmp_path):
    a = load_config(None)
    b = load_config(None)
    assert config_hash(a) == config_hash(b)


def test_bad_q_exits_2_with_field(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ctx": {"q": -1.0}}))
    code = run(["basis", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["field"] == "ctx.q"


def test_subnormal_q_exits_2_with_field(tmp_path, capsys):
    # q = 5e-324 is a valid G1 context whose crossing overflows; the config is
    # refused for its lattice before any crossed basis is built
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ctx": {"q": 5e-324}}))
    for cmd in ("basis", "verify"):
        assert run([cmd, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["field"] == "lattice.x0"


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"turbo": True}))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_invalid_json_rejected(tmp_path):
    # malformed, and nested past the parser's recursion limit (a RecursionError
    # traceback before): an array and an object 100,000 deep
    depth = 100_000
    for text in ("{not json", "[" * depth + "]" * depth,
                 '{"a":' * depth + "1" + "}" * depth):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.field == "config"


# wrongly typed or out-of-range fields: (override, field named in the error)
TYPE_PROBES = [
    ({"mass": "1"}, "mass"),
    ({"lattice": {"j_min": "a"}}, "lattice.j_min"),
    ({"eps_sweep": [0.1, "x"]}, "eps_sweep"),
    ({"time_target": "x"}, "time_target"),
    ({"time_target": 0}, "time_target"),
    ({"lattice": {"j_min": 0, "j_max": 0}}, "lattice.j_min"),
    ({"born_order": 1.5}, "born_order"),
    ({"potential": {"epsilon": math.nan}}, "potential.epsilon"),
    ({"dyson": {"n_modes": 2.5}}, "dyson.n_modes"),
    ({"mass": True}, "mass"),
    ({"born_order": False}, "born_order"),
    ({"eps_sweep": [0.1, math.inf]}, "eps_sweep"),
    ({"family": ["S2minus"]}, "family"),
    ({"potential": {"epsilon": 0}}, "potential.epsilon"),
    ({"lattice": {"j_min": -1, "j_max": 0}}, "lattice.j_min"),
    ({"lattice": {"j_min": -2, "j_max": 2}, "dyson": {"n_modes": 11}}, "dyson.n_modes"),
    # lattices too large, or out of the float range: used to end in a
    # traceback or run for minutes
    ({"lattice": {"j_min": -200, "j_max": 201}}, "lattice.j_min"),
    ({"lattice": {"j_min": -3000, "j_max": 3000}}, "lattice.j_min"),
    ({"ctx": {"q": 0.1}, "lattice": {"j_min": -400, "j_max": 400}}, "lattice.j_min"),
    ({"ctx": {"q": 0.1}, "lattice": {"j_min": -200, "j_max": 200}}, "lattice.x0"),
    ({"ctx": {"q": 1e-300}}, "lattice.x0"),
    ({"lattice": {"x0": 1e-320}}, "lattice.x0"),
    # H0's diagonal spans 1e-159..1e-77, where the stemr eigensolver fails
    ({"ctx": {"q": 0.25}, "lattice": {"j_min": -132, "j_max": -64}}, "lattice.x0"),
    # E*t overflowed the phases: NaN kernels and a numpy warning on stderr
    ({"time_target": -1e308}, "time_target"),
    ({"lattice": {"x0": 1e-45}, "time_target": 1e220}, "time_target"),
    # 2 * width**2 left the normal floats: a NaN potential, or an overflow
    ({"potential": {"width": 1e-170}}, "potential.width"),
    ({"potential": {"width": 1.3407807929942597e154}}, "potential.width"),
]

# the smallest lattice validate_config admits: N = 2 * (2 + 2 + 1) = 10 modes
SMALLEST_LATTICE = {"lattice": {"j_min": -2, "j_max": 2}, "dyson": {"n_modes": 10}}


def test_validation_fields(tmp_path):
    cases = [
        ({"lattice": {"x0": -1.0}}, "lattice.x0"),
        ({"lattice": {"j_min": 5, "j_max": 1}}, "lattice.j_min"),
        ({"mass": 0.0}, "mass"),
        ({"potential": {"shape": "cubic"}}, "potential.shape"),
        ({"potential": {"epsilon": -0.1}}, "potential.epsilon"),
        ({"eps_sweep": []}, "eps_sweep"),
        ({"born_order": -1}, "born_order"),
        ({"family": "S5"}, "family"),
        ({"dyson": {"tol": 0.0}}, "dyson.tol"),
        ({"dyson": {"tol": 1e-300}}, "dyson.tol"),
        ({"dyson": {"tol": 1e-17}}, "dyson.tol"),
        ({"dyson": {"n_modes": 1}}, "dyson.n_modes"),
    ] + TYPE_PROBES
    for override, field in cases:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(override))
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.field == field


def test_config_type_errors_exit_2(tmp_path, capsys):
    # through main(): a JSON error naming the field, never a traceback
    for override, field in TYPE_PROBES:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(override))
        assert run(["basis", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == field


@pytest.mark.parametrize("command", ["basis", "propagate", "scatter", "dyson", "verify"])
def test_smallest_lattice_runs_every_subcommand(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALLEST_LATTICE))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("override", [SMALLEST_LATTICE, {"ctx": {"q": 0.5}}])
def test_unavailable_qexp_diagnostic_exits_2(tmp_path, capsys, override):
    # a numerically degenerate q-exponential family (10 modes at q = 0.9), or
    # every momentum rejected by the series diagnostic (q = 0.5)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override))
    assert run(["basis", "--qexp", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err)["field"] == "qexp"


def test_largest_lattice_accepted(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ctx": {"q": 0.99}, "lattice": {"j_min": -200, "j_max": 200}}))
    assert Scene(load_config(str(path))).basis.size == 802


def test_integral_floats_accepted(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mass": 2, "eps_sweep": [1, 0.5]}))
    cfg = load_config(str(path))
    assert cfg["mass"] == 2 and cfg["eps_sweep"] == [1, 0.5]
    # an integer sweep entry is written as a float, in file names and values
    assert run(["scatter", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "smatrix_S2minus_eps1.0.csv").exists()
    trend = (tmp_path / "o" / "unitarity_trend.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in trend[1:]] == ["1.0", "0.5"]


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=8), inner, max_size=3),
                     max_leaves=8)


def _typed(default):
    """Values of the default's type: the default itself, any number of the
    kind the field takes, or a list of any floats."""
    if isinstance(default, list):
        return st.just(default) | st.lists(st.floats(), max_size=3)
    if isinstance(default, float):
        return st.just(default) | st.floats()
    if isinstance(default, int):
        return st.just(default) | st.integers(-64, 64) | st.integers()
    return st.just(default)


def _config_objects(schema, leaf=lambda default: _JSON):
    """JSON objects over the config's keys (plus an unknown one), with a
    ``leaf`` value (any JSON value by default) at every key and the schema
    followed into nested objects."""
    fields = {k: (_config_objects(v, leaf) | _JSON if isinstance(v, dict) else leaf(v))
              for k, v in schema.items()}
    fields["bogus"] = _JSON
    return st.fixed_dictionaries({}, optional=fields)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(user=_config_objects(DEFAULT_CONFIG))
def test_load_config_fuzz(fuzz_dir, user):
    # any JSON object yields a config or a ConfigError, nothing else
    path = fuzz_dir / "cfg.json"
    path.write_text(json.dumps(user))
    try:
        cfg = load_config(str(path))
    except ConfigError as exc:
        assert exc.field
    else:
        assert set(cfg) == set(DEFAULT_CONFIG)
        # an accepted config builds a finite basis
        basis = Scene(cfg).basis
        assert np.all(np.isfinite(basis.energies)) and np.all(np.isfinite(basis.vectors))


_FUZZ_CONFIGS = _config_objects(DEFAULT_CONFIG, lambda default: _typed(default) | _JSON)


@settings(max_examples=300, deadline=None)
@example(command="scatter", user={"eps_sweep": [1.3407807929942597e154]})  # eps**2 overflowed
# width**2 overflowed or underflowed, (x - center)**2 overflowed
@example(command="scatter", user={"potential": {"width": 1.3407807929942597e154}})
@example(command="scatter", user={"potential": {"width": 4.5e-303}})
@example(command="scatter", user={"potential": {"center": 1e200}})
@given(command=st.sampled_from(["basis", "scatter"]), user=_FUZZ_CONFIGS)
def test_main_fuzz(fuzz_dir, command, user):
    _main_contract(fuzz_dir, command, user)


# dyson and verify run the interaction picture, a second or more per config;
# propagate builds and checks the free kernels at the configured time
@settings(max_examples=30, deadline=None)
@example(command="dyson", user={"dyson": {"epsilon": 1.12}})  # exp(-eps*T) rounded above 1e-8
@example(command="propagate", user={"time_target": -1e308})  # E*t overflowed
@example(command="dyson", user={"potential": {"width": 1.3407807929942597e154}})
@example(command="verify", user={"potential": {"width": 4.5e-303}})
@example(command="verify", user={"potential": {"center": 1e200}})
@example(command="dyson", user={"potential": {"center": 1e200}})
@given(command=st.sampled_from(["dyson", "verify", "propagate"]), user=_FUZZ_CONFIGS)
def test_main_fuzz_dyson_verify(fuzz_dir, command, user):
    _main_contract(fuzz_dir, command, user)


def _main_contract(fuzz_dir, command, user):
    # the CLI contract for any config-shaped JSON: exit 0, exit 1 when a verify
    # check fails, or exit 2 with exactly one JSON error object naming a field
    # on stderr; never a traceback
    path = fuzz_dir / "main.json"
    path.write_text(json.dumps(user))
    err = io.StringIO()
    with tempfile.TemporaryDirectory(dir=fuzz_dir) as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(path), "--out", out])
    event(f"{command} exit {code}")
    if code == 0:
        assert err.getvalue() == ""
    elif code == 1:
        assert command == "verify" and err.getvalue().startswith("failing checks: ")
    else:
        assert code == 2
        error = json.loads(err.getvalue())
        assert isinstance(error, dict) and error["field"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["scatter", "verify"])
@pytest.mark.parametrize("override", [{"eps_sweep": [1e-300]},
                                      {"potential": {"strength": 1e300}}])
def test_refused_lippmann_schwinger_system_exits_2(tmp_path, capsys, command, override):
    # the solver's condition guard refuses the system: a config error, not a
    # LinAlgError traceback, and no numpy warning ahead of it on stderr
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["field"] == "potential" and "ill conditioned" in error["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strength", [1e6, 1e300])
def test_refused_interaction_picture_exits_2(tmp_path, capsys, strength):
    # |V|_2 asks for more sub-steps than the evolution takes: a config error,
    # with no traceback and no numpy warning ahead of the JSON on stderr
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": {"strength": strength}}))
    assert run(["dyson", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["field"] == "potential" and "steps" in error["message"]


def test_cmd_basis_outputs(tmp_path):
    out = tmp_path / "bout"
    assert run(["basis", "--out", str(out)]) == 0
    report = json.loads((out / "basis_report.json").read_text())
    assert report["modes"] == 50
    assert report["gram_defect"] <= 1e-12
    assert report["completeness_defect"] <= 1e-12
    assert (out / "basis.csv").exists()
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "mode,energy,momentum,parity"
    assert len(spectrum) == 51


def test_cmd_basis_qexp_report(tmp_path):
    out = tmp_path / "bq"
    assert run(["basis", "--qexp", "--out", str(out)]) == 0
    report = json.loads((out / "basis_report.json").read_text())
    assert "qexp" in report
    assert report["qexp"]["n_modes"] >= 1


def test_cmd_propagate_outputs(tmp_path):
    out = tmp_path / "pout"
    assert run(["propagate", "--out", str(out)]) == 0
    checks = (out / "propagator_checks.csv").read_text().splitlines()
    assert checks[0] == "variant,schrodinger_residual,boundary_defect"
    assert len(checks) == 9  # eight variants
    for line in checks[1:]:
        _, residual, boundary = line.split(",")
        assert float(residual) <= 1e-10
        assert float(boundary) <= 1e-12
    # one file per distinct kernel; the report maps every variant to its file
    kernels = json.loads((out / "propagator_report.json").read_text())["kernels"]
    assert sorted(kernels) == sorted(VARIANTS)
    assert sorted(p.name for p in out.glob("kernel_*.csv")) == sorted(set(kernels.values()))
    scene, expect = Scene(load_config(None)), tmp_path / "expect.csv"
    for variant, name in kernels.items():
        b = scene.basis if VARIANTS[variant][0] == 1 else scene.basis2
        cli.write_matrix_csv(str(expect),
                             free_propagator(b, variant, 0.0, scene.cfg["time_target"]).matrix)
        assert (out / name).read_bytes() == expect.read_bytes(), variant


def test_cmd_scatter_zero_potential_identity(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"potential": {"shape": "none"},
                                "eps_sweep": [0.05]}))
    out = tmp_path / "sout"
    assert run(["scatter", "--config", str(cfgp), "--out", str(out)]) == 0
    rows = (out / "smatrix_S2minus_eps0.05.csv").read_text().splitlines()[1:]
    for row in rows:
        i, j, re, im = row.split(",")
        expect = 1.0 if i == j else 0.0
        assert float(re) == expect
        assert float(im) == 0.0


def test_cmd_scatter_trend_monotone(tmp_path):
    out = tmp_path / "strend"
    assert run(["scatter", "--out", str(out)]) == 0
    lines = (out / "unitarity_trend.csv").read_text().splitlines()[1:]
    defects = [float(line.split(",")[1]) for line in lines]
    rowdevs = [float(line.split(",")[2]) for line in lines]
    for earlier, later in zip(defects, defects[1:]):
        assert later <= earlier * 1.2
    for defect, rowdev in zip(defects, rowdevs):
        assert rowdev <= defect


def test_dyson_tol_floor(tmp_path, capsys):
    # the integrator targets no tail below machine epsilon / 10: that tol runs,
    # and any smaller one is refused under its own field, not as `potential`
    floor = float(np.finfo(float).eps) / 10
    for tol, code in ((floor, 0), (float(np.nextafter(floor, 0)), 2), (1e-300, 2)):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dyson": {"tol": tol}}))
        assert run(["dyson", "--config", str(path), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        if code:
            error = json.loads(err)
            assert error["field"] == "dyson.tol" and repr(floor) in error["message"]


def test_cmd_dyson_outputs(tmp_path):
    out = tmp_path / "dout"
    assert run(["dyson", "--out", str(out)]) == 0
    report = json.loads((out / "dyson_report.json").read_text())
    assert report["unitarity_drift"] <= 1e-8
    assert report["smatrix_unitarity_defect"] <= 1e-6
    assert (out / "evolution.csv").exists()


def test_cmd_verify_all_pass_and_deterministic(tmp_path, capsys):
    # byte-for-byte reproducibility of the report is C12
    out = tmp_path / "vout"
    assert run(["verify", "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_pass"]
    names = [c["check"] for c in report["checks"]]
    assert names == sorted(CHECKS)
    printed = capsys.readouterr().out
    for name in names:
        assert name in printed


def test_one_decomposition_per_hamiltonian(tmp_path, monkeypatch):
    # H0 + V is decomposed once per (basis, V): a whole scatter sweep and the
    # configured H that verify shares between its checks read one decomposition each.
    # The sizes pin the split: a mirror-even V is decomposed on its half, at N=50 and
    # N=102, and only the mirror-broken cross_formalism scene at full size
    sizes = []
    real = scattering._eigen
    monkeypatch.setattr(scattering, "_eigen",
                        lambda m, hermitian: sizes.append(len(m)) or real(m, hermitian))
    for k, (override, half) in enumerate([({}, 25),
                                          ({"lattice": {"j_min": -25, "j_max": 25}}, 51)]):
        cfgp = tmp_path / f"cfg{k}.json"
        cfgp.write_text(json.dumps(override))
        sizes.clear()
        assert run(["scatter", "--config", str(cfgp), "--out", str(tmp_path / f"s{k}")]) == 0
        assert sizes == [half], override
    sizes.clear()
    assert run(["verify", "--out", str(tmp_path / "v")]) == 0
    assert sorted(sizes) == [25, 25, 25, 25, 50]
    cfg = load_config(None)
    scene = Scene(cfg)
    per_check = {}
    for name in sorted(CHECKS):
        sizes.clear()
        checks.run_check(name, scene)
        per_check[name] = list(sizes)
    # conjugation decomposes the shared H and its tilde partner's H0 + conj(V),
    # so unitarity_trend, run after it, reads the shared decomposition
    assert {name: n for name, n in per_check.items() if n} == {
        "cross_formalism": [50], "conjugation": [25, 25], "born": [25],
        "unitarity_negative_control": [25]}


def test_checks_registry_is_shared():
    assert CHECKS is checks.CHECKS
    assert all(len(entry) == 2 for entry in CHECKS.values())


def test_every_exported_function_is_read_by_a_command_a_check_or_the_benchmark():
    # the package exports only what cli.py, checks.py or bench/ reads, so library
    # surface that nothing runs cannot come back unnoticed; classes are return types
    import braidline

    root = Path(__file__).resolve().parents[1]
    readers = [root / "src" / "braidline" / name for name in ("cli.py", "checks.py")]
    text = "\n".join(path.read_text() for path in readers + sorted((root / "bench").glob("*.py")))
    exported = sorted(name for name, obj in vars(braidline).items() if inspect.isfunction(obj))
    assert "free_propagator" in exported
    unread = [name for name in exported if not re.search(rf"\b{name}\b", text)]
    assert not unread, f"exported but read by no command, check or benchmark: {unread}"


def test_born_check_reads_a_fixed_scene(tmp_path):
    # C06 tests the Born series on its own weak Gaussian: a zero configured
    # potential no longer makes it read 0.0
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"potential": {"shape": "none"}}))
    out = tmp_path / "v"
    assert run(["verify", "--config", str(cfgp), "--out", str(out)]) == 0
    born = next(c for c in json.loads((out / "verify_report.json").read_text())["checks"]
                if c["check"] == "born")
    assert born["value"] != 0.0 and born["pass"]


def test_removed_check_knob_exits_2(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"born_order": 2}))
    assert run(["verify", "--config", str(cfgp), "--out", str(tmp_path / "v")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "born_order" and "born_order" in err["message"]


@pytest.mark.parametrize("override", [{"eps_sweep": [0.05]},
                                      {"potential": {"shape": "none"}}])
def test_unitarity_trend_degenerate_sweeps(tmp_path, capsys, override):
    # one sweep entry, or all-zero defects, report 0.0 and pass
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(override))
    out = tmp_path / "v"
    assert run(["verify", "--only", "unitarity_trend", "--config", str(cfgp),
                "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "verify_report.json").read_text())
    assert report["checks"][0]["value"] == 0.0


def test_worst_ratio_edge_cases():
    assert checks.worst_ratio([]) == 0.0
    assert checks.worst_ratio([0.3]) == 0.0
    assert checks.worst_ratio([0.0, 0.0]) == 0.0
    assert checks.worst_ratio([0.0, 1e-3]) == math.inf
    assert checks.worst_ratio([0.4, 0.2, 0.3]) == pytest.approx(1.5)


def test_cmd_verify_only_filter(tmp_path):
    out = tmp_path / "vonly"
    assert run(["verify", "--only", "boundary", "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert [c["check"] for c in report["checks"]] == ["boundary"]


def test_cmd_verify_unknown_only(tmp_path, capsys):
    code = run(["verify", "--only", "nonsense", "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "only"


@pytest.mark.parametrize("case", ["empty", "config_file", "option_file"])
def test_unwritable_out_exits_2(tmp_path, capsys, case):
    # an empty or file-occupied output path exits 2 naming `out` before any
    # check runs (empty stdout), not with an os.makedirs traceback and exit 1
    taken = tmp_path / "taken"
    taken.write_text("")
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"out": "" if case == "empty" else str(taken)}))
    argv = ["verify", "--config", str(cfgp)]
    assert run(argv + (["--out", str(taken)] if case == "option_file" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["field"] == "out"


@pytest.mark.parametrize("argv, builds", [
    (["basis", "--qexp"], 1), (["propagate"], 2), (["scatter"], 1), (["dyson"], 1),
    (["verify"], 2), (["verify", "--only", "born"], 1), (["verify", "--only", "nope"], 0)],
    ids=["basis", "propagate", "scatter", "dyson", "verify", "verify_born", "verify_unknown"])
def test_each_command_builds_only_the_bases_it_reads(tmp_path, monkeypatch, argv, builds):
    # the crossed G2 basis only for the two-geometry kernels and checks, and no
    # basis at all for a refused --only
    real, calls = bbasis.build_hamiltonian_basis, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (bbasis, cli, checks):
        if getattr(module, "build_hamiltonian_basis", None) is real:
            monkeypatch.setattr(module, "build_hamiltonian_basis", spy)
    assert run([*argv, "--out", str(tmp_path / "o")]) == (2 if argv[-1] == "nope" else 0)
    assert len(calls) == builds


@pytest.mark.parametrize("argv, builds", [(["verify"], 0), (["basis", "--qexp"], 0),
                                          (["propagate"], 2)],
                         ids=["verify", "basis", "propagate"])
def test_each_command_builds_only_the_kernel_matrices_it_writes(tmp_path, monkeypatch, argv,
                                                                builds):
    # every kernel is its positive-branch block, and the checks and the completeness
    # defect compare blocks: a default verify and basis build no N x N kernel matrix, and
    # propagate builds the one per geometry that its CSV writes (90, 1 and 4 while the
    # checks and the defects read matrices)
    real, calls = bbasis.mirror_block, []

    def spy(block):
        calls.append(len(block))
        return real(block)

    for module in (bbasis, propagator):
        monkeypatch.setattr(module, "mirror_block", spy)
    assert run([*argv, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == builds


def test_cmd_verify_negative_control_in_report(tmp_path):
    out = tmp_path / "vneg"
    assert run(["verify", "--only", "unitarity_negative_control",
                "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    check = report["checks"][0]
    assert check["sense"] == "min"
    assert check["value"] >= check["tolerance"]


@pytest.mark.parametrize("argv", [["basis", "--qexp"], ["propagate"], ["scatter"], ["dyson"],
                                  ["verify"]], ids=lambda argv: argv[0])
def test_outputs_byte_identical(tmp_path, argv):
    # every output file of a subcommand, byte for byte across two runs
    outs = []
    for name in ("r1", "r2"):
        assert run([*argv, "--out", str(tmp_path / name)]) == 0
        outs.append({f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())})
    assert outs[0] == outs[1] and outs[0]


COMPLEX_SPECIAL = np.empty((4, 3), dtype=complex)
COMPLEX_SPECIAL.real = SPECIAL_FLOATS.reshape(4, 3)
COMPLEX_SPECIAL.imag = SPECIAL_FLOATS[::-1].reshape(4, 3)


@pytest.mark.parametrize("mat", [SPECIAL_FLOATS.reshape(3, 4), COMPLEX_SPECIAL,
                                 np.arange(-6, 6).reshape(3, 4)], ids=["real", "complex", "int"])
def test_write_matrix_csv_matches_per_entry_oracle(tmp_path, mat):
    cli.write_matrix_csv(str(tmp_path / "new.csv"), mat)
    oracles.write_matrix_csv(str(tmp_path / "ref.csv"), mat)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _special_chunk_edges(mat, chunk, offset=0):
    """Put SPECIAL_FLOATS on the first and last entry of each chunk the writer
    formats in one orjson call (whole rows, about ``chunk`` entries)."""
    n, m = mat.shape
    step = max(1, chunk // max(m, 1))
    edges = [pos for r in range(0, n if m else 0, step)
             for pos in ((r, 0), (min(r + step, n) - 1, m - 1))]
    vals = np.roll(SPECIAL_FLOATS, offset)
    for k, pos in enumerate(edges):
        re, im = vals[k % vals.size], vals[-1 - k % vals.size]
        mat[pos] = complex(re, im) if np.iscomplexobj(mat) else re


def _format_cases():
    """Every decade from 5e-324 to 1e308, the steps around repr's and Ryu's
    notation switches, signed zeros, subnormals, nan, inf and random bits."""
    rng = np.random.default_rng(20181)
    decades = np.array([float(f"{m}e{k}") for k in range(-324, 309)
                        for m in (1, 3, 7.25, 9.87654321)])
    edges = [9999999999999998.0]
    for x in (1e-5, 1e-4, 1e15, 1e16):
        for toward in (0.0, np.inf):
            y = x
            for _ in range(4):
                y = np.nextafter(y, toward)
                edges.append(y)
    special = [0.0, 5e-324, 2.5e-310, 2.225073858507201e-308, *SPECIAL_FLOATS]
    return {"decades": np.r_[decades, -decades], "edges": np.r_[edges, np.negative(edges)],
            "special": np.r_[special, np.negative(special)],
            "random_bits": rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64).view(float)}


_FORMAT_CASES = _format_cases()


@pytest.mark.parametrize("case", sorted(_FORMAT_CASES))
def test_reprs_match_float_repr(case):
    # orjson's Ryu text respelled (e+16, e-05, the 1e-05 window, nan and inf)
    # against Python's own repr, value by value
    values = _FORMAT_CASES[case]
    got, want = cli._reprs(values), tuple(map(repr, values.tolist()))
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def test_reprs_interleave_complex():
    values = _FORMAT_CASES["decades"][::7]
    z = np.empty(values.size // 2, complex)
    z.real, z.imag = values[:z.size], values[z.size:2 * z.size]
    want = tuple(repr(part) for v in z.tolist() for part in (v.real, v.imag))
    assert cli._reprs(z) == want


# every dtype the writer widens to float64, with values of any repr
_MATRIX_KINDS = {
    "real": (np.float64, st.floats()),
    "complex": (np.complex128, st.builds(complex, st.floats(), st.floats())),
    "int": (np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    "complex64": (np.complex64, st.builds(complex, st.floats(width=32), st.floats(width=32))),
}
_SHAPES = (st.tuples(st.just(1), st.integers(0, 12)) | st.tuples(st.integers(0, 12), st.just(1))
           | st.tuples(st.integers(0, 8), st.integers(0, 8)))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_MATRIX_KINDS)), shape=_SHAPES, chunk=st.integers(1, 10),
       data=st.data())
def test_write_matrix_csv_property(fuzz_dir, kind, shape, chunk, data):
    # a small chunk size makes small matrices span several chunks
    dtype, elements = _MATRIX_KINDS[kind]
    n, m = shape
    values = data.draw(st.lists(elements, min_size=n * m, max_size=n * m))
    mat = np.array(values, dtype=dtype).reshape(shape)
    if kind in ("real", "complex"):
        _special_chunk_edges(mat, chunk, data.draw(st.integers(0, SPECIAL_FLOATS.size - 1)))
    with mock.patch.object(cli, "CHUNK", chunk):
        cli.write_matrix_csv(str(fuzz_dir / "new.csv"), mat)
    oracles.write_matrix_csv(str(fuzz_dir / "ref.csv"), mat)
    assert (fuzz_dir / "new.csv").read_bytes() == (fuzz_dir / "ref.csv").read_bytes()


_SPAN_SHAPES = [(3, cli.CHUNK + 1), (2 * cli.CHUNK + 3, 1), (7, cli.CHUNK // 3)]


@pytest.mark.parametrize("shape, fill", [
    pytest.param(shape, fill, id=f"shape{k}" + ("" if fill == "ldexp" else f"-{fill}"))
    for fill in ("ldexp", "window", "nonfinite") for k, shape in enumerate(_SPAN_SHAPES)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_write_matrix_csv_spans_chunks(tmp_path, shape, dtype, fill):
    # several chunks at the real chunk size, one row wider than a chunk or many
    # rows per chunk, with subnormal to ~1e301 magnitudes; "window" and
    # "nonfinite" then fill the first half, at least one whole chunk, with
    # values that all take the per-index repr patch
    rng = np.random.default_rng(7)
    mat = np.ldexp(rng.standard_normal(shape), rng.integers(-1070, 1000, size=shape))
    if dtype is complex:
        mat = mat + 1j * np.ldexp(rng.standard_normal(shape), rng.integers(-1070, 1000, size=shape))
    _special_chunk_edges(mat, cli.CHUNK)
    half = mat.size // 2
    if fill == "window":
        head = rng.uniform(1e-5, 1e-4, (2, half)) * rng.choice([-1.0, 1.0], (2, half))
    elif fill == "nonfinite":
        head = rng.choice([np.nan, np.inf, -np.inf], (2, half))
    if fill != "ldexp":
        flat = mat.reshape(-1)
        if dtype is complex:
            flat.real[:half], flat.imag[:half] = head
        else:
            flat[:half] = head[0]
    cli.write_matrix_csv(str(tmp_path / "new.csv"), mat)
    oracles.write_matrix_csv(str(tmp_path / "ref.csv"), mat)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_small_tables_match_csv_oracles(tmp_path, monkeypatch):
    # spectrum.csv, propagator_checks.csv and unitarity_trend.csv against the
    # csv.writer oracles, with SPECIAL_FLOATS standing in for the spectrum and
    # for every defect the CLI writes
    special = iter(np.resize(SPECIAL_FLOATS, 64).tolist())
    cfg = load_config(None)
    scene = Scene(cfg)
    basis = scene.basis
    m = basis.size
    odd = replace(basis, energies=np.resize(SPECIAL_FLOATS, m),
                  momenta=np.resize(SPECIAL_FLOATS[::-1], m),
                  parity=np.resize(SPECIAL_FLOATS[5:], m))
    with monkeypatch.context() as mp:
        mp.setattr(cli, "build_scene", lambda _: (basis.ctx, basis.lattice, odd))
        assert run(["basis", "--out", str(tmp_path / "b")]) == 0
    oracles.write_spectrum(odd, tmp_path / "spectrum.csv")
    spectrum = (tmp_path / "b" / "spectrum.csv").read_bytes()
    assert spectrum == (tmp_path / "spectrum.csv").read_bytes()

    residual, boundary, trend = {}, {}, []
    monkeypatch.setattr(cli, "schrodinger_residual",
                        lambda k: residual.setdefault(k.variant, next(special)))
    monkeypatch.setattr(cli, "boundary_defect",
                        lambda b, variant, t: boundary.setdefault(variant, next(special)))

    def unitarity(s):
        dev = float(np.max(np.abs(transition_probability_table(s).sum(axis=1) - 1.0)))
        trend.append([cfg["eps_sweep"][len(trend)], next(special), dev])
        return trend[-1][1]

    monkeypatch.setattr(cli, "unitarity_defect", unitarity)
    assert run(["propagate", "--out", str(tmp_path / "p")]) == 0
    assert run(["scatter", "--out", str(tmp_path / "s")]) == 0
    rows = [(variant, residual[names[0]], boundary[names[0]])
            for _, names in scene.geometries
            for variant in names]
    oracles.write_propagator_checks(rows, tmp_path / "propagator_checks.csv")
    oracles.write_unitarity_trend(trend, tmp_path / "unitarity_trend.csv")
    for out, name in (("p", "propagator_checks.csv"), ("s", "unitarity_trend.csv")):
        assert (tmp_path / out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_scatter_n102_matrices_match_oracle(tmp_path):
    # the benchmark's scatter scene (N=102): each matrix CSV, read back with
    # float() and rewritten by the per-entry oracle, repeats byte for byte
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"lattice": {"j_min": -25, "j_max": 25}}))
    out = tmp_path / "o"
    assert run(["scatter", "--config", str(cfgp), "--out", str(out)]) == 0
    paths = sorted(out.glob("*_eps*.csv"))
    assert len(paths) == 2 * len(DEFAULT_CONFIG["eps_sweep"])
    for path in paths:
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        if len(rows[0]) == 4:
            mat = np.array([complex(float(re), float(im)) for _, _, re, im in rows])
        else:
            mat = np.array([float(value) for _, _, value in rows])
        oracles.write_matrix_csv(str(tmp_path / "ref.csv"), mat.reshape(102, 102))
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
