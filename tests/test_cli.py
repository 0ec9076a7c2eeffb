import contextlib
import io
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from braidline import checks
from braidline.cli import (
    CHECKS,
    DEFAULT_CONFIG,
    ConfigError,
    build_scene,
    config_hash,
    load_config,
    main,
)


def run(args):
    return main(args)


def test_print_defaults(capsys):
    assert run(["--print-defaults"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == DEFAULT_CONFIG


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


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"turbo": True}))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


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
    assert build_scene(load_config(str(path)))[2].size == 802


def test_integral_floats_accepted(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mass": 2, "eps_sweep": [1, 0.5]}))
    cfg = load_config(str(path))
    assert cfg["mass"] == 2 and cfg["eps_sweep"] == [1, 0.5]


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
        basis = build_scene(cfg)[2]
        assert np.all(np.isfinite(basis.energies)) and np.all(np.isfinite(basis.vectors))


_FUZZ_CONFIGS = _config_objects(DEFAULT_CONFIG, lambda default: _typed(default) | _JSON)


@settings(max_examples=300, deadline=None)
@example(command="scatter", user={"eps_sweep": [1.3407807929942597e154]})  # eps**2 overflowed
@given(command=st.sampled_from(["basis", "scatter"]), user=_FUZZ_CONFIGS)
def test_main_fuzz(fuzz_dir, command, user):
    _main_contract(fuzz_dir, command, user)


# dyson and verify run the interaction picture, a second or more per config
@settings(max_examples=30, deadline=None)
@example(command="dyson", user={"dyson": {"epsilon": 1.12}})  # exp(-eps*T) rounded above 1e-8
@given(command=st.sampled_from(["dyson", "verify"]), user=_FUZZ_CONFIGS)
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
    assert (out / "kernel_K1prime.csv").exists()


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


def test_checks_registry_is_shared():
    assert CHECKS is checks.CHECKS
    assert all(len(entry) == 2 for entry in CHECKS.values())


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


def test_cmd_verify_negative_control_in_report(tmp_path):
    out = tmp_path / "vneg"
    assert run(["verify", "--only", "unitarity_negative_control",
                "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    check = report["checks"][0]
    assert check["sense"] == "min"
    assert check["value"] >= check["tolerance"]


def test_scatter_outputs_byte_identical(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"eps_sweep": [0.05]}))
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run(["scatter", "--config", str(cfgp), "--out", str(out)]) == 0
        outs.append((out / "smatrix_S2minus_eps0.05.csv").read_bytes())
    assert outs[0] == outs[1]
