"""Experiment runner: deterministic bound tables, Monte Carlo averages,
loss densities with goodness-of-fit, and the self-check suite.

Configuration is flat ``section.key = value`` text; CLI flags override file
values; every emitted table embeds the effective configuration so a run can
be reproduced from its own output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from . import geoloss as geoloss_mod
from . import montecarlo as mc
from . import stochastic
from .beam import BeamParams
from .geometry import spherical_mean_position, tracking_orientation
from .geoloss import DetectorParams, loss_db
from .numerics import DEFAULT_REL_TOL, QuadratureError
from .validate import run_validation

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

DEG = math.pi / 180.0


class ConfigError(ValueError):
    pass


@contextmanager
def _model_errors():
    """A model constructor's ValueError (NaN, out of range, degenerate
    geometry) is a config error."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _parse_floats(s: str):
    if not s.strip():
        return ()
    try:
        values = tuple(float(v) for v in s.split(","))
    except ValueError as e:
        raise ConfigError(f"expected comma-separated numbers, got {s!r}") from e
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"expected finite numbers, got {s!r}")
    return values


def _parse_offsets(s: str):
    if not s.strip():
        return ((0.0, 0.0),)
    out = []
    for pair in s.split(";"):
        try:
            fy, fz = pair.split(":")
            out.append((float(fy), float(fz)))
        except ValueError as e:
            raise ConfigError(f"expected fy:fz pairs separated by ';', got {s!r}") from e
    return tuple(out)


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _fmt_offsets(values) -> str:
    return ";".join(f"{repr(float(fy))}:{repr(float(fz))}" for fy, fz in values)


def _key(key: str, default, parse=float, fmt=repr, choices=()):
    """A config field: its key in config text, how its value is parsed and
    echoed, and the values it may take (any, when `choices` is empty)."""
    return field(default=default, metadata={"key": key, "parse": parse, "fmt": fmt,
                                            "choices": choices})


@dataclass(frozen=True)
class ExperimentConfig:
    radius_m: float = _key("geometry.R_m", 1000.0)
    alpha_rad: float = _key("geometry.alpha_rad", 0.0)
    beta_rad: float = _key("geometry.beta_rad", math.pi / 2)
    w0_m: float = _key("beam.w0_m", 1e-3)
    wavelength_m: float = _key("beam.wavelength_m", 1550e-9)
    cn2: float = _key("beam.cn2", 1e-14)
    detector_radius_m: float = _key("detector.radius_m", 0.1)
    sigma_p_m: float = _key("stability.sigma_p_m", 0.0)
    sigma_o_rad: float = _key("stability.sigma_o_rad", 0.0)
    sweep_variable: str = _key("sweep.variable", "alpha", str, str, ("alpha", "sigma"))
    sweep_values: tuple = _key("sweep.values", (0.0,), _parse_floats, _fmt_floats)
    sweep_sigma_unit: str = _key("sweep.sigma_unit", "mrad", str, str, ("cm", "mrad"))
    sweep_distances_m: tuple = _key("sweep.distances_m", (), _parse_floats, _fmt_floats)
    bounds_offsets_m: tuple = _key("bounds.offsets_m", ((0.0, 0.0),), _parse_offsets, _fmt_offsets)
    pdf_n_bins: int = _key("pdf.n_bins", 0, int, str)  # 0 -> Sturges rule
    n_trials: int = _key("mc.n_trials", 100_000, int, str)
    seed: int = _key("mc.seed", 1234, int, str)
    rel_tol: float = _key("quadrature.rel_tol", DEFAULT_REL_TOL)
    output_path: str = _key("output.path", "-", str, str)
    output_format: str = _key("output.format", "csv", str, str, ("csv", "json"))

    def beam(self) -> BeamParams:
        return BeamParams(w0=self.w0_m, wavelength=self.wavelength_m, cn2=self.cn2)

    def detector(self) -> DetectorParams:
        return DetectorParams(a=self.detector_radius_m)

    def distribution(self) -> stochastic.PoseDistribution:
        return stochastic.PoseDistribution.from_spherical(
            self.radius_m, self.alpha_rad, self.beta_rad,
            sigma_p=self.sigma_p_m, sigma_o=self.sigma_o_rad)


# key in config text -> its field, in declaration (and echo) order
_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into an attribute dict."""
    values = {}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        # any *_rad key may be given in degrees as *_deg
        target = key[:-len("_deg")] + "_rad" if key.endswith("_deg") else key
        if target not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if target in seen:  # a key and its degree form set one field
            first, first_key = seen[target]
            clash = "duplicate key" if key == first_key else f"{key!r} conflicts with"
            raise ConfigError(f"line {lineno}: {clash} {first_key!r} (first set on line {first})")
        seen[target] = lineno, key
        f = _FIELDS[target]
        parse = f.metadata["parse"] if key == target else lambda v: float(v) * DEG
        try:
            values[f.name] = parse(val)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"line {lineno}: field {key}: {e}") from e
    return values


def load_config(path: str | None, **overrides) -> ExperimentConfig:
    values = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values = parse_config_text(fh.read())
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path} is not UTF-8 text: {e}") from e
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = ExperimentConfig(**values)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig):
    for key, f in _FIELDS.items():
        value, choices = getattr(cfg, f.name), f.metadata["choices"]
        if choices and value not in choices:
            raise ConfigError(f"{key} must be {' or '.join(choices)}, got {value!r}")
    if not cfg.sweep_values:
        raise ConfigError("sweep.values must not be empty")
    if tuple(sorted(cfg.sweep_values)) != cfg.sweep_values:
        raise ConfigError("sweep.values must be sorted ascending")
    if cfg.n_trials < 1:
        raise ConfigError("mc.n_trials must be >= 1")
    if not 0 <= cfg.seed < mc.SEED_LIMIT:
        raise ConfigError(f"mc.seed must lie in [0, 2**128), got {cfg.seed!r}")
    if not 0.0 < cfg.rel_tol < 1.0:
        raise ConfigError("quadrature.rel_tol must be in (0, 1)")
    if cfg.pdf_n_bins < 0:
        raise ConfigError("pdf.n_bins must be >= 0 (0 selects the Sturges rule)")
    # checked before anything is computed, since the table is written last
    if not cfg.output_path:
        raise ConfigError("output.path must not be empty ('-' is stdout)")
    out_dir = os.path.dirname(cfg.output_path) or "."
    if cfg.output_path != "-" and (not os.path.isdir(out_dir) or os.path.isdir(cfg.output_path)):
        raise ConfigError(f"output.path {cfg.output_path!r} is not a file in an existing directory")


def config_lines(cfg: ExperimentConfig) -> list[str]:
    """Canonical effective-config block; reparses to an equal config."""
    return [f"{key} = {f.metadata['fmt'](getattr(cfg, f.name))}" for key, f in _FIELDS.items()]


def config_sha256(cfg: ExperimentConfig) -> str:
    return hashlib.sha256("\n".join(config_lines(cfg)).encode()).hexdigest()


def parse_effective_config(text: str) -> ExperimentConfig:
    """Rebuild the config from an emitted table's '# config:' lines."""
    lines = [line[len("# config: "):] for line in text.splitlines()
             if line.startswith("# config: ")]
    return ExperimentConfig(**parse_config_text("\n".join(lines)))


def _fmt_cell(v) -> str:
    # repr(float) normalizes numpy scalars and spells inf, -inf and nan
    return repr(float(v)) if isinstance(v, float) else str(v)


def _json_cell(v):
    if isinstance(v, float):
        return float(v) if math.isfinite(v) else _fmt_cell(v)
    return v


def render_table(cfg: ExperimentConfig, command: str, columns, rows, extra_meta=None) -> str:
    meta = {"tool": f"fso-geoloss {__version__}", "command": command,
            "seed": cfg.seed, "config_sha256": config_sha256(cfg)}
    meta.update(extra_meta or {})
    if cfg.output_format == "json":
        doc = {
            "meta": {**meta, "config": dict(line.split(" = ", 1) for line in config_lines(cfg))},
            "columns": list(columns),
            "rows": [[_json_cell(v) for v in row] for row in rows],
        }
        return json.dumps(doc, sort_keys=True) + "\n"
    out = io.StringIO()
    out.writelines(f"# {k}: {_fmt_cell(v)}\n" for k, v in meta.items())
    out.writelines(f"# config: {line}\n" for line in config_lines(cfg))
    # a cell holding a comma or quote (a validate detail, say) is quoted
    csv.writer(out, lineterminator="\n").writerows(
        [columns, *([_fmt_cell(v) for v in row] for row in rows)])
    return out.getvalue()


def _emit(cfg: ExperimentConfig, text: str):
    if cfg.output_path == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _plans(cfg: ExperimentConfig, d, kernels) -> list:
    """One `TrialPlan` of distribution `d` per loss kernel."""
    return [mc.TrialPlan(n_trials=cfg.n_trials, seed=cfg.seed, distribution=d,
                         beam=cfg.beam(), detector=cfg.detector(), loss_kernel=kernel,
                         rel_tol=cfg.rel_tol) for kernel in kernels]


BOUNDS_COLUMNS = (
    "alpha_rad", "offset_fy_m", "offset_fz_m", "exact_db", "bound_low_db",
    "bound_upp_db", "approx_low_db", "approx_upp_db", "approx_mean_db",
)


def cmd_bounds(cfg: ExperimentConfig):
    """Deterministic loss table over the alpha sweep (sigma ignored)."""
    if cfg.sweep_variable != "alpha":
        raise ConfigError("bounds requires sweep.variable = alpha")
    with _model_errors():
        b, det = cfg.beam(), cfg.detector()
        # one tracked mean pose per alpha, displaced by each offset
        means = [spherical_mean_position(cfg.radius_m, alpha, cfg.beta_rad)
                 for alpha in cfg.sweep_values]
        orients = [tracking_orientation(mu) for mu in means]
        fy, fz = np.array(cfg.bounds_offsets_m, float).reshape(-1, 2).T
        m = len(fy)
        ry = np.add.outer([mu.ry for mu in means], fy).ravel()
        rz = np.add.outer([mu.rz for mu in means], fz).ravel()
        if not (np.isfinite(ry).all() and np.isfinite(rz).all()):
            raise ValueError("transmitter positions must be finite; check bounds.offsets_m")
        cols = geoloss_mod.bounds_batch(
            np.repeat([mu.rx for mu in means], m), ry, rz,
            np.repeat([o.theta for o in orients], m), np.repeat([o.phi for o in orients], m),
            b, det, cfg.rel_tol)
    # the captures are resolved to rel_tol; crossing or escaping within it is not counted
    crossed = int(np.count_nonzero(cols.lower > cols.upper * (1.0 + cfg.rel_tol)))
    outside = int(np.count_nonzero(
        (cols.exact < np.minimum(cols.lower, cols.upper) * (1.0 - cfg.rel_tol))
        | (cols.exact > np.maximum(cols.lower, cols.upper) * (1.0 + cfg.rel_tol))))
    crossed_approx = int(np.count_nonzero(cols.approx_lower > cols.approx_upper))
    rows = np.column_stack((np.repeat(cfg.sweep_values, m), np.tile(fy, len(means)),  # alpha-major
                            np.tile(fz, len(means)), loss_db(np.column_stack(cols)))).tolist()
    return BOUNDS_COLUMNS, rows, {"crossed_bounds": crossed, "exact_outside_bounds": outside,
                                  "crossed_approx_bounds": crossed_approx}


AVERAGE_COLUMNS = (
    "sigma", "sigma_unit", "distance_m", "mean_db_exact", "mean_db_approx",
    "mean_linear_exact", "mean_linear_approx", "std_linear_exact",
    "degenerate_trials",
)


def cmd_average_loss(cfg: ExperimentConfig):
    """Paired-seed Monte Carlo averages under both loss kernels."""
    if cfg.sweep_variable != "sigma":
        raise ConfigError("average-loss requires sweep.variable = sigma")
    name, scale = {"cm": ("sigma_p", 1e-2), "mrad": ("sigma_o", 1e-3)}[cfg.sweep_sigma_unit]
    with _model_errors():
        grid = [(dist_m, s, _plans(cfg, stochastic.PoseDistribution.from_spherical(
                    dist_m, cfg.alpha_rad, cfg.beta_rad, **{name: s * scale}),
                    mc.LOSS_KERNELS))
                for dist_m in cfg.sweep_distances_m or (cfg.radius_m,)
                for s in cfg.sweep_values]
    rows = []
    for dist_m, s, plans in grid:
        ex, apx = (mc.run_trials(plan)[1] for plan in plans)
        rows.append([
            s, cfg.sweep_sigma_unit, dist_m, ex.mean_db, apx.mean_db,
            ex.mean_linear, apx.mean_linear, ex.std_linear,
            ex.degenerate_trials,
        ])
    return AVERAGE_COLUMNS, rows, {}


PDF_COLUMNS = (
    "bin_lo", "bin_hi", "count", "density_empirical", "density_model",
)


def cmd_pdf(cfg: ExperimentConfig):
    """Histogram of exact-kernel losses with the analytic density overlay."""
    if cfg.sigma_p_m == 0.0 and cfg.sigma_o_rad == 0.0:
        raise ConfigError("pdf requires stability.sigma_p_m or stability.sigma_o_rad > 0")
    if cfg.pdf_n_bins > cfg.n_trials:  # the GOF's cells would outnumber the samples
        raise ConfigError(f"pdf.n_bins = {cfg.pdf_n_bins} exceeds mc.n_trials = {cfg.n_trials}")
    with _model_errors():  # the tracking constants are undefined at their poles
        (plan,) = _plans(cfg, cfg.distribution(), ("exact",))
        stochastic.tracking_constants(plan.distribution)
    samples, stats = mc.run_trials(plan)
    with _model_errors():  # after run_trials: perfbench pairs the density with its samples
        pdf = stochastic.geoloss_pdf(plan.distribution, plan.beam, plan.detector)
    n_bins = cfg.pdf_n_bins or mc.sturges_bins(len(samples))
    hist = mc.build_histogram(samples, n_bins)
    stat, dof, p_value = mc.chi_square_gof(hist, pdf)
    widths = hist.edges[1:] - hist.edges[:-1]
    rows = []
    for i, count in enumerate(hist.counts):
        center = 0.5 * (hist.edges[i] + hist.edges[i + 1])
        model = stochastic.pdf_hg(float(center), pdf) if center > 0 else 0.0
        rows.append([
            float(hist.edges[i]), float(hist.edges[i + 1]), int(count),
            float(count / (hist.total * widths[i])), model,
        ])
    meta = {
        "gof_statistic": stat, "gof_dof": dof, "gof_p_value": p_value,
        "a0": pdf.a0, "k_mean": pdf.k_mean, "beam_width_m": pdf.w,
        "hoyt_q": pdf.hoyt.q, "hoyt_omega": pdf.hoyt.omega, "varpi": pdf.varpi,
        "mean_db": stats.mean_db, "underflow": hist.underflow,
        "overflow": hist.overflow, "above_support": int((samples > pdf.a0).sum()),
        "degenerate_trials": stats.degenerate_trials,
    }
    return PDF_COLUMNS, rows, meta


VALIDATE_COLUMNS = ("check", "passed", "detail")


def cmd_validate(cfg: ExperimentConfig):
    results = run_validation(cfg.rel_tol)
    rows = [[r.name, str(r.passed), r.detail] for r in results]
    meta = {"all_passed": str(all(r.passed for r in results)),
            "failures": ";".join(r.name for r in results if not r.passed)}
    return VALIDATE_COLUMNS, rows, meta


_COMMANDS = {
    "bounds": cmd_bounds,
    "average-loss": cmd_average_loss,
    "pdf": cmd_pdf,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fso-geoloss",
        description="Geometric-loss experiments for a drone-mounted FSO fronthaul link",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--out", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=_FIELDS["output.format"].metadata["choices"],
                       help="output format")
        p.add_argument("--seed", type=int, help="Monte Carlo seed")
        p.add_argument("--trials", type=int, help="Monte Carlo trial count")
        p.add_argument("--tol", type=float, help="quadrature relative tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            output_path=args.out,
            output_format=args.format,
            seed=args.seed,
            n_trials=args.trials,
            rel_tol=args.tol,
        )
        mc.resolve_threads()  # a malformed thread-count variable is a config error
    except (ConfigError, OSError, mc.ThreadsEnvError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        columns, rows, meta = _COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (QuadratureError, mc.GofInconclusiveError, OverflowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except Warning as e:  # raised as an error, as under python -W error
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    _emit(cfg, render_table(cfg, args.command, columns, rows, meta))
    if args.command == "validate" and meta.get("all_passed") != "True":
        return EXIT_VALIDATION_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
