"""Config-driven scenario runner.

Subcommands build bases, propagator kernels, S-matrices and
interaction-picture evolutions from a single JSON config, and run the
verification suite over every operator identity the library implements.
All data files are CSV with repr-formatted floats and fixed orderings, so
identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 config error.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import orjson

from . import __version__
from .basis import (WaveBasis, build_hamiltonian_basis, build_qexp_basis,
                    half_line_hamiltonian)
from .checks import CHECKS, boundary_defect, delta_defect, run_check
from .dyson import TOL_FLOOR, ode_evolution, smatrix_from_evolution
from .propagator import VARIANTS, free_propagator, make_retarded, schrodinger_residual
from .qcalc import braided_line, crossing_transform, make_lattice
from .scattering import (
    Hamiltonian,
    Potential,
    S_FAMILIES,
    gaussian_potential,
    gaussian_width_ok,
    smatrix_momentum,
    transition_probability_table,
    unitarity_defect,
)

DEFAULT_CONFIG = {
    "ctx": {"q": 0.9},
    "lattice": {"x0": 1.0, "j_min": -12, "j_max": 12},
    "mass": 1.0,
    "potential": {
        "shape": "gaussian",
        "strength": 0.05,
        "width": 1.0,
        "center": 0.0,
    },
    "eps_sweep": [0.1, 0.03, 0.01],
    "time_target": 0.7,
    "family": "S2minus",
    "dyson": {"epsilon": 0.5, "tol": 1e-8, "n_modes": 16},
    "out": "out",
}

POTENTIAL_SHAPES = ("gaussian", "point", "none")
MIN_MODES = 10
MAX_MODES = 802  # the largest lattice the benchmark builds
CHUNK = 1024  # array entries per CSV formatter (orjson) call and write, in whole rows
# the eigensolver (stemr) fails on some H0 diagonals spanning ~240 decades
H0_RANGE = 1e100


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _finite(x) -> bool:
    """A JSON number that is not a bool, NaN or +-Inf."""
    try:
        return not isinstance(x, bool) and isinstance(x, (int, float)) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _check_type(path: str, default, val) -> None:
    """Each field takes the type of its default: int fields take only ints,
    float fields (and eps_sweep entries) any finite number; bools never count
    as numbers."""
    if isinstance(default, list):
        ok, kind = isinstance(val, list) and all(map(_finite, val)), "a list of finite numbers"
    elif isinstance(default, float):
        ok, kind = _finite(val), "a finite number"
    elif isinstance(default, int):
        ok, kind = isinstance(val, int) and not isinstance(val, bool), "an integer"
    else:
        ok, kind = isinstance(val, str), "a string"
    if not ok:
        raise ConfigError(path, f"{path} must be {kind}")


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(path, f"unknown config field {path!r}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(path, f"{path} must be an object")
            out[key] = _merge(base[key], val, prefix=path + ".")
        else:
            _check_type(path, base[key], val)
            out[key] = val
    return out


def load_config(path: str | None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read config: {exc}")
        except (ValueError, RecursionError) as exc:  # malformed, bad encoding, too deep
            raise ConfigError("config", f"invalid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config", "top-level config must be an object")
        cfg = _merge(cfg, user)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    # every field already has its default's type, so each rule can be evaluated
    lat, pot, dy = cfg["lattice"], cfg["potential"], cfg["dyson"]
    size = 2 * (lat["j_max"] - lat["j_min"] + 1)
    for field, ok, rule in (
        ("ctx.q", 0.0 < cfg["ctx"]["q"] < 1.0, "must lie in (0, 1)"),
        ("lattice.x0", lat["x0"] > 0, "must be positive"),
        # verify reads incoming mode 6 and a 10 x 10 mode block; every
        # kernel and S-matrix is a dense N x N matrix
        ("lattice.j_min", MIN_MODES <= size <= MAX_MODES,
         f"must leave {MIN_MODES} <= 2 * (j_max - j_min + 1) <= {MAX_MODES} lattice modes"),
        ("mass", cfg["mass"] > 0, "must be positive"),
        ("potential.shape", pot["shape"] in POTENTIAL_SHAPES,
         f"must be one of {POTENTIAL_SHAPES}"),
        ("potential.width", pot["shape"] != "gaussian" or gaussian_width_ok(pot["width"]),
         "must be positive with 2 * width**2 a normal float"),
        ("eps_sweep", min(cfg["eps_sweep"], default=0) > 0,
         "must be a nonempty list of positive numbers"),
        ("time_target", cfg["time_target"] != 0, "must be nonzero"),
        ("family", cfg["family"] in S_FAMILIES, f"must be one of {sorted(S_FAMILIES)}"),
        ("dyson.epsilon", dy["epsilon"] > 0, "must be positive"),
        ("dyson.tol", dy["tol"] >= TOL_FLOOR,
         f"must be at least {TOL_FLOOR!r} (machine epsilon / 10)"),
        ("dyson.n_modes", 2 <= dy["n_modes"] <= min(50, size),
         f"must be between 2 and {min(50, size)} (the lattice has {size} modes)"),
    ):
        if not ok:
            raise ConfigError(field, f"{field} {rule}")
    # the size rule keeps this lattice small
    q = cfg["ctx"]["q"]
    try:  # make_lattice refuses an outermost point beyond the floats
        lattice = make_lattice(q, **lat)
        with np.errstate(all="ignore"):
            diag = half_line_hamiltonian(lattice, cfg["mass"], braided_line(q))[0]
        vals = np.abs(np.concatenate([lattice.points, lattice.weights]))
        ok = (np.all(np.isfinite(vals) & (vals >= np.finfo(float).tiny))
              and np.all((diag >= 1 / H0_RANGE) & (diag <= H0_RANGE)))
    except ValueError:
        ok = False
    if not ok:
        raise ConfigError("lattice.x0", f"lattice.x0: q={q}, x0={lat['x0']}, j_min={lat['j_min']}, "
                          f"j_max={lat['j_max']} and mass={cfg['mass']} put a point or weight outside the"
                          f" normal floats, or H0 ~ 1/(2m((1-q)x)^2) outside [{1 / H0_RANGE:g}, {H0_RANGE:g}]")
    # every kernel phase E*t must be a finite float; E_max < 4 max diag (Gershgorin)
    if not np.isfinite(4.0 * float(diag.max()) * abs(cfg["time_target"])):
        raise ConfigError("time_target", f"time_target: E_max*|time_target| overflows the "
                          f"kernel phases (largest H0 diagonal {float(diag.max()):g})")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def build_scene(cfg: dict):
    ctx = braided_line(cfg["ctx"]["q"])
    lat = make_lattice(cfg["ctx"]["q"], **cfg["lattice"])
    return ctx, lat, build_hamiltonian_basis(lat, cfg["mass"], ctx)


def build_potential(cfg: dict, lattice) -> Potential:
    pot = cfg["potential"]
    if pot["shape"] == "gaussian":
        return gaussian_potential(lattice, strength=pot["strength"],
                                  width=pot["width"], center=pot["center"])
    if pot["shape"] == "point":
        vals = np.zeros(lattice.size)
        vals[np.argmin(np.abs(lattice.points - pot["center"]))] = 1.0
        return Potential(vals, strength=pot["strength"])
    return Potential(np.zeros(lattice.size))


@dataclass(frozen=True, eq=False)
class Scene:
    """One run's validated config and the operators it reads, each built on
    first use and then shared: the G1 basis, its crossed G2 partner and the
    configured H0 + V on the G1 basis, so a run decomposes H0 + V once."""

    cfg: dict

    @functools.cached_property
    def basis(self) -> WaveBasis:
        return build_scene(self.cfg)[2]

    @functools.cached_property
    def basis2(self) -> WaveBasis:
        """The G2 basis of the crossed context over the same j range."""
        c2, lat = crossing_transform(self.basis.ctx), self.basis.lattice
        return build_hamiltonian_basis(
            make_lattice(c2.q, x0=lat.x0, j_min=lat.j_min, j_max=lat.j_max), self.basis.mass, c2)

    @functools.cached_property
    def h(self) -> Hamiltonian:
        return build_potential(self.cfg, self.basis.lattice).on(self.basis)

    @property
    def geometries(self) -> list[tuple[WaveBasis, list[str]]]:
        """Each geometry's basis with its sorted variants, one kernel serving all their names."""
        return [(b, sorted(v for v in VARIANTS if VARIANTS[v][0] == family))
                for family, b in ((1, self.basis), (2, self.basis2))]


# ---------------------------------------------------------------------------
# deterministic writers

def _reprs(values) -> tuple:
    """repr(float(x)) of each value, complex as re, im: Ryu's shortest digits
    from one orjson call, respelled to repr's bytes."""
    flat = np.ravel(values)
    flat = flat.astype(complex).view(float) if np.iscomplexobj(flat) else flat.astype(float)
    if not flat.size:
        return ()
    # orjson's "[a,b,...]" as "a,b,...,", so a "," ends every entry
    raw = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
    text = np.frombuffer(raw[1:-1] + b",", np.uint8)
    e = np.flatnonzero(text == ord("e"))
    neg = text[e + 1] == ord("-")
    # Ryu's e16 is repr's e+16, and its e-5 is repr's e-05
    plus, zero = e[~neg] + 1, e[neg & (text[e + 3] == ord(","))] + 2
    fill = np.frombuffer(b"+" * plus.size + b"0" * zero.size, np.uint8)
    out = np.insert(text, np.r_[plus, zero], fill).tobytes().decode().split(",")[:-1]
    # Ryu writes 1e-05 <= |x| < 1e-04 positionally and nan, inf as null
    mag = np.abs(flat)
    for i in np.flatnonzero(~np.isfinite(mag) | ((1e-5 <= mag) & (mag < 1e-4))).tolist():
        out[i] = repr(float(flat[i]))
    return tuple(out)


def _write_table(path: str, header: list, values: np.ndarray, row_template, preamble=()):
    """The one CSV writer: the ``preamble`` (template, floats) lines, the header,
    then row k of the 2-D ``values`` as ``row_template(k)`` with a "%s" per float,
    one orjson call and one write per chunk of whole rows (about CHUNK entries).
    The bytes are ``csv.writer``'s: CRLF line ends, ints as str, floats as repr."""
    with open(path, "w", newline="") as fh:
        for template, floats in [*preamble, (",".join(header) + "\r\n", ())]:
            fh.write(template % _reprs(floats))
        step = max(1, CHUNK // max(values.shape[1], 1))
        for k in range(0, len(values), step):
            block = values[k:k + step]
            fh.write("".join(map(row_template, range(k, k + len(block)))) % _reprs(block))


def write_matrix_csv(path: str, mat: np.ndarray) -> None:
    """One (row, col, value) or (row, col, re, im) line per entry, row-major."""
    mat = np.asarray(mat)
    names = ("re", "im") if np.iscomplexobj(mat) else ("value",)
    cols = [f"{j}," + ",".join(["%s"] * len(names)) + "\r\n" for j in range(mat.shape[1])]
    _write_table(path, ["row", "col", *names], mat,
                 lambda i: f"{i}," + f"{i},".join(cols) if cols else "")


def export_basis(basis: WaveBasis, path: str) -> None:
    """Points, weights, energies/momenta and mode vectors, one row per lattice
    point, each mode as an interleaved real/imag column pair."""
    u = basis.vectors
    table = np.empty((u.shape[0], 2 + 2 * u.shape[1]))
    table[:, 0], table[:, 1] = basis.lattice.points, basis.weights
    table[:, 2::2], table[:, 3::2] = u.real, u.imag
    header = ["x", "w", *(f"{part}_u{k}" for k in range(basis.size) for part in ("re", "im"))]
    preamble = [(f"# q,%s,mass,%s,geometry,{basis.ctx.geometry}\r\n", [basis.ctx.q, basis.mass]),
                ("# energies" + ",%s" * basis.size + "\r\n", basis.energies),
                ("# momenta" + ",%s" * basis.size + "\r\n", basis.momenta)]
    row = ",".join(["%s"] * table.shape[1]) + "\r\n"
    _write_table(path, header, table, lambda k: row, preamble)


def write_report(path: str, cfg: dict, report: dict) -> None:
    """The JSON ``report`` with the provenance of ``cfg``: its hash and the package version."""
    provenance = {"config_sha256": config_hash(cfg), "version": __version__}
    with open(path, "w") as fh:
        json.dump({"provenance": provenance, **report}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _guarded(build, *args, **kwargs):
    """Call an S-matrix or evolution build; a refused one is a config error."""
    try:
        return build(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConfigError("potential", f"potential: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands

def cmd_basis(scene: Scene, out: str, qexp: bool) -> int:
    basis = scene.basis
    export_basis(basis, os.path.join(out, "basis.csv"))
    _write_table(os.path.join(out, "spectrum.csv"), ["mode", "energy", "momentum", "parity"],
                 np.column_stack([basis.energies, basis.momenta, basis.parity]),
                 "{},%s,%s,%s\r\n".format)
    report = {
        "modes": basis.size,
        "gram_defect": float(np.max(np.abs(basis.gram() - np.eye(basis.size)))),
        "completeness_defect": delta_defect(basis, basis.delta_block),
    }
    if qexp:
        grid = np.linspace(0.3, 2.0, 8)
        try:
            report["qexp"] = build_qexp_basis(basis.lattice, basis.ctx, grid, n_trunc=60)
        except ValueError as exc:  # every momentum rejected, or a degenerate family
            raise ConfigError("qexp", f"--qexp diagnostic unavailable: {exc}")
    write_report(os.path.join(out, "basis_report.json"), scene.cfg, report)
    return 0


def cmd_propagate(scene: Scene, out: str) -> int:
    t = scene.cfg["time_target"]
    rows, files = {}, {}
    for b, names in scene.geometries:
        kern = free_propagator(b, names[0], 0.0, t)
        name = f"kernel_{names[0]}.csv"  # one kernel serves every variant of the geometry
        write_matrix_csv(os.path.join(out, name), kern.matrix)
        files.update(dict.fromkeys(names, name))
        defects = [schrodinger_residual(make_retarded(kern)), boundary_defect(b, names[0], t)]
        rows.update(dict.fromkeys(names, defects))
    variants = sorted(rows)
    _write_table(os.path.join(out, "propagator_checks.csv"),
                 ["variant", "schrodinger_residual", "boundary_defect"],
                 np.array([rows[v] for v in variants]), lambda k: f"{variants[k]},%s,%s\r\n")
    write_report(os.path.join(out, "propagator_report.json"), scene.cfg, {
        "time_target": t,
        "kernels": files,
    })
    return 0


def cmd_scatter(scene: Scene, out: str) -> int:
    cfg, family = scene.cfg, scene.cfg["family"]
    trend = []
    for eps in cfg["eps_sweep"]:  # one decomposition of scene.h for the whole sweep
        s = _guarded(smatrix_momentum, scene.h, scene.basis, family, eps=eps)
        tag = float(eps)  # an integer sweep entry still names eps1.0
        write_matrix_csv(os.path.join(out, f"smatrix_{family}_eps{tag}.csv"), s.matrix)
        omega = transition_probability_table(s)
        write_matrix_csv(os.path.join(out, f"omega_{family}_eps{tag}.csv"), omega)
        trend.append([tag, unitarity_defect(s), float(np.max(np.abs(omega.sum(axis=1) - 1.0)))])
    _write_table(os.path.join(out, "unitarity_trend.csv"),
                 ["eps", "unitarity_defect", "max_row_sum_deviation"], np.array(trend),
                 lambda k: "%s,%s,%s\r\n")
    write_report(os.path.join(out, "scatter_report.json"), cfg, {
        "family": family,
        "eps_sweep": [float(e) for e in cfg["eps_sweep"]],
    })
    return 0


def cmd_dyson(scene: Scene, out: str) -> int:
    cfg = scene.cfg
    eps = cfg["dyson"]["epsilon"]
    tol = cfg["dyson"]["tol"]
    # restrict V to a low-energy mode block: a block-exponential step costs about
    # log2(E_max h) (K + 1)(K + 2) / 2 products of size n_modes, so all 50 modes
    # take 0.13 s per evolution against 6 ms on 16, and N = 802 is out of reach
    n_modes = cfg["dyson"]["n_modes"]
    vm = scene.h.v
    block = np.zeros_like(vm)
    block[:n_modes, :n_modes] = vm[:n_modes, :n_modes]
    h = Hamiltonian(scene.basis, block, epsilon=eps)
    horizon = float(np.log(1e8) / eps)
    # one evolution per run: the S-matrix of either time sign follows from it
    u = _guarded(ode_evolution, h, -horizon, horizon, tol)
    write_matrix_csv(os.path.join(out, "evolution.csv"), u.matrix)
    s = smatrix_from_evolution(h, u, cfg["family"])
    write_matrix_csv(os.path.join(out, f"smatrix_interaction_{cfg['family']}.csv"),
                     s.matrix)
    write_report(os.path.join(out, "dyson_report.json"), cfg, {
        "horizon": horizon,
        "epsilon": eps,
        "tol": tol,
        "n_modes": n_modes,
        "unitarity_drift": u.unitarity_drift(),
        "smatrix_unitarity_defect": unitarity_defect(s),
    })
    return 0


def cmd_verify(scene: Scene, out: str, only: str | None) -> int:
    names = sorted(CHECKS)
    if only is not None:
        if only not in CHECKS:
            raise ConfigError("only", f"unknown check {only!r}; available: {names}")
        names = [only]
    results = []
    for name in names:
        r = _guarded(run_check, name, scene)
        results.append(r)
        _write(f"{name}: value={r['value']:.3e} tol={r['tolerance']:.1e} "
               f"{'PASS' if r['pass'] else 'FAIL'}\n")
    failing = [r["check"] for r in results if not r["pass"]]
    write_report(os.path.join(out, "verify_report.json"), scene.cfg, {
        "checks": results,
        "all_pass": not failing,
    })
    if failing:
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point

def _write(text: str) -> None:
    """Write ``text`` to stdout and flush it.  A reader that has gone
    (``braidline verify | head -1``) is no error: stdout then becomes
    os.devnull (Python's SIGPIPE recipe), and the run goes on to write its
    files and exit as it would with an open stdout."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="braidline")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default config as JSON and exit")
    sub = parser.add_subparsers(dest="command")
    for name in ("basis", "propagate", "scatter", "dyson", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory")
        if name == "basis":
            p.add_argument("--qexp", action="store_true",
                           help="include the q-exponential plane-wave diagnostic")
        if name == "verify":
            p.add_argument("--only", default=None, help="run a single named check")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    finally:  # --help prints before it exits
        _write("")
    if args.print_defaults:
        _write(json.dumps(DEFAULT_CONFIG, sort_keys=True, indent=2) + "\n")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
        out = args.out if args.out is not None else cfg["out"]
        os.makedirs(out, exist_ok=True)
        scene = Scene(cfg)  # builds nothing until a command reads it
        if args.command == "basis":
            return cmd_basis(scene, out, args.qexp)
        if args.command == "verify":
            return cmd_verify(scene, out, args.only)
        cmd = {"propagate": cmd_propagate, "scatter": cmd_scatter, "dyson": cmd_dyson}
        return cmd[args.command](scene, out)
    except ConfigError as exc:
        field, message = exc.field, str(exc)
    except OSError as exc:  # load_config reports its own; a command opens only its outputs
        field, message = "out", f"cannot write to output directory {out!r}: {exc}"
    print(json.dumps({"error": "config", "field": field, "message": message}), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
