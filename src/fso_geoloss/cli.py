"""Experiment runner: deterministic bound tables, Monte Carlo averages,
loss densities with goodness-of-fit, and the self-check suite.

Configuration is flat ``section.key = value`` text; CLI flags override file
values; every emitted table embeds the effective configuration so a run can
be reproduced from its own output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass

from . import __version__
from . import geoloss as geoloss_mod
from . import montecarlo as mc
from . import stochastic
from .beam import BeamParams
from .geometry import Pose, Position, spherical_mean_position, tracking_orientation
from .geoloss import DetectorParams, loss_db
from .numerics import QuadratureError
from .validate import run_validation

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

DEG = math.pi / 180.0


class ConfigError(ValueError):
    pass


def _parse_floats(s: str):
    if not s.strip():
        return ()
    try:
        return tuple(float(v) for v in s.split(","))
    except ValueError as e:
        raise ConfigError(f"expected comma-separated numbers, got {s!r}") from e


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


@dataclass(frozen=True)
class ExperimentConfig:
    radius_m: float = 1000.0
    alpha_rad: float = 0.0
    beta_rad: float = math.pi / 2
    w0_m: float = 1e-3
    wavelength_m: float = 1550e-9
    cn2: float = 1e-14
    detector_radius_m: float = 0.1
    sigma_p_m: float = 0.0
    sigma_o_rad: float = 0.0
    sweep_variable: str = "alpha"
    sweep_values: tuple = (0.0,)
    sweep_sigma_unit: str = "mrad"
    sweep_distances_m: tuple = ()
    bounds_offsets_m: tuple = ((0.0, 0.0),)
    pdf_n_bins: int = 0  # 0 -> Sturges rule
    n_trials: int = 100_000
    seed: int = 1234
    rel_tol: float = 1e-9
    output_path: str = "-"
    output_format: str = "csv"

    def beam(self) -> BeamParams:
        return BeamParams(w0=self.w0_m, wavelength=self.wavelength_m, cn2=self.cn2)

    def detector(self) -> DetectorParams:
        return DetectorParams(a=self.detector_radius_m)

    def distribution(self) -> stochastic.PoseDistribution:
        return stochastic.PoseDistribution.from_spherical(
            self.radius_m, self.alpha_rad, self.beta_rad,
            sigma_p=self.sigma_p_m, sigma_o=self.sigma_o_rad)


# key in config text -> (attribute, parse, format)
_KEY_SPEC = {
    "geometry.R_m": ("radius_m", float, repr),
    "geometry.alpha_rad": ("alpha_rad", float, repr),
    "geometry.beta_rad": ("beta_rad", float, repr),
    "beam.w0_m": ("w0_m", float, repr),
    "beam.wavelength_m": ("wavelength_m", float, repr),
    "beam.cn2": ("cn2", float, repr),
    "detector.radius_m": ("detector_radius_m", float, repr),
    "stability.sigma_p_m": ("sigma_p_m", float, repr),
    "stability.sigma_o_rad": ("sigma_o_rad", float, repr),
    "sweep.variable": ("sweep_variable", str, str),
    "sweep.values": ("sweep_values", _parse_floats, _fmt_floats),
    "sweep.sigma_unit": ("sweep_sigma_unit", str, str),
    "sweep.distances_m": ("sweep_distances_m", _parse_floats, _fmt_floats),
    "bounds.offsets_m": ("bounds_offsets_m", _parse_offsets, _fmt_offsets),
    "pdf.n_bins": ("pdf_n_bins", int, str),
    "mc.n_trials": ("n_trials", int, str),
    "mc.seed": ("seed", int, str),
    "quadrature.rel_tol": ("rel_tol", float, repr),
    "output.path": ("output_path", str, str),
    "output.format": ("output_format", str, str),
}

# degree-valued conveniences mapped onto their radian keys
_DEG_KEYS = {
    "geometry.alpha_deg": "geometry.alpha_rad",
    "geometry.beta_deg": "geometry.beta_rad",
    "stability.sigma_o_deg": "stability.sigma_o_rad",
}


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
        if key in _DEG_KEYS:
            target = _DEG_KEYS[key]
            if target in seen:
                raise ConfigError(f"line {lineno}: {key} conflicts with {target}")
            seen[target] = lineno
            values[_KEY_SPEC[target][0]] = float(val) * DEG
            continue
        if key not in _KEY_SPEC:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {seen[key]})")
        seen[key] = lineno
        attr, parse, _fmt = _KEY_SPEC[key]
        try:
            values[attr] = parse(val)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"line {lineno}: field {key}: {e}") from e
    return values


def load_config(path: str | None, **overrides) -> ExperimentConfig:
    values = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            values = parse_config_text(fh.read())
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = ExperimentConfig(**values)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig):
    if cfg.output_format not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {cfg.output_format!r}")
    if cfg.sweep_variable not in ("alpha", "sigma"):
        raise ConfigError(f"sweep.variable must be alpha or sigma, got {cfg.sweep_variable!r}")
    if cfg.sweep_sigma_unit not in ("cm", "mrad"):
        raise ConfigError(f"sweep.sigma_unit must be cm or mrad, got {cfg.sweep_sigma_unit!r}")
    if not cfg.sweep_values:
        raise ConfigError("sweep.values must not be empty")
    if tuple(sorted(cfg.sweep_values)) != cfg.sweep_values:
        raise ConfigError("sweep.values must be sorted ascending")
    for name in ("radius_m", "w0_m", "wavelength_m", "detector_radius_m"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if cfg.n_trials < 1:
        raise ConfigError("mc.n_trials must be >= 1")
    if not 0.0 < cfg.rel_tol < 1.0:
        raise ConfigError("quadrature.rel_tol must be in (0, 1)")
    if cfg.pdf_n_bins < 0:
        raise ConfigError("pdf.n_bins must be >= 0 (0 selects the Sturges rule)")


def config_lines(cfg: ExperimentConfig) -> list[str]:
    """Canonical effective-config block; reparses to an equal config."""
    out = []
    for key, (attr, _parse, fmt) in _KEY_SPEC.items():
        out.append(f"{key} = {fmt(getattr(cfg, attr))}")
    return out


def config_sha256(cfg: ExperimentConfig) -> str:
    return hashlib.sha256("\n".join(config_lines(cfg)).encode()).hexdigest()


def parse_effective_config(text: str) -> ExperimentConfig:
    """Rebuild the config from an emitted table's '# config:' lines."""
    lines = [line[len("# config: "):] for line in text.splitlines()
             if line.startswith("# config: ")]
    return ExperimentConfig(**parse_config_text("\n".join(lines)))


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return repr(float(v))  # normalizes numpy scalars
    return str(v)


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
    lines = [f"# {k}: {_fmt_cell(v)}" for k, v in meta.items()]
    lines += [f"# config: {line}" for line in config_lines(cfg)]
    lines.append(",".join(columns))
    lines += [",".join(_fmt_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(cfg: ExperimentConfig, text: str):
    if cfg.output_path == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _deterministic_pose(cfg: ExperimentConfig, alpha: float, offset) -> Pose:
    mu = spherical_mean_position(cfg.radius_m, alpha, cfg.beta_rad)
    orient = tracking_orientation(mu)
    fy, fz = offset
    return Pose(Position(mu.rx, mu.ry + fy, mu.rz + fz), orient)


BOUNDS_COLUMNS = (
    "alpha_rad", "offset_fy_m", "offset_fz_m", "exact_db", "bound_low_db",
    "bound_upp_db", "approx_low_db", "approx_upp_db", "approx_mean_db",
)


def cmd_bounds(cfg: ExperimentConfig):
    """Deterministic loss table over the alpha sweep (sigma ignored)."""
    if cfg.sweep_variable != "alpha":
        raise ConfigError("bounds requires sweep.variable = alpha")
    b, det = cfg.beam(), cfg.detector()
    rows = []
    for alpha in cfg.sweep_values:
        for offset in cfg.bounds_offsets_m:
            pose = _deterministic_pose(cfg, alpha, offset)
            ap = geoloss_mod.approx_params(pose, b, det)
            alow, aupp = geoloss_mod.approx_bounds(ap)
            rows.append([
                alpha, offset[0], offset[1],
                loss_db(geoloss_mod.exact_loss(pose, b, det, cfg.rel_tol)),
                loss_db(geoloss_mod.bound_lower(pose, b, det, cfg.rel_tol)),
                loss_db(geoloss_mod.bound_upper(pose, b, det, cfg.rel_tol)),
                loss_db(alow), loss_db(aupp),
                loss_db(geoloss_mod.approx_mean(ap)),
            ])
    return BOUNDS_COLUMNS, rows, {}


AVERAGE_COLUMNS = (
    "sigma", "sigma_unit", "distance_m", "mean_db_exact", "mean_db_approx",
    "mean_linear_exact", "mean_linear_approx", "std_linear_exact",
    "degenerate_trials",
)


def cmd_average_loss(cfg: ExperimentConfig):
    """Paired-seed Monte Carlo averages under both loss kernels."""
    if cfg.sweep_variable != "sigma":
        raise ConfigError("average-loss requires sweep.variable = sigma")
    b, det = cfg.beam(), cfg.detector()
    distances = cfg.sweep_distances_m or (cfg.radius_m,)
    rows = []
    for dist_m in distances:
        for s in cfg.sweep_values:
            if cfg.sweep_sigma_unit == "cm":
                sigma_p, sigma_o = s * 1e-2, 0.0
            else:
                sigma_p, sigma_o = 0.0, s * 1e-3
            d = stochastic.PoseDistribution.from_spherical(
                dist_m, cfg.alpha_rad, cfg.beta_rad,
                sigma_p=sigma_p, sigma_o=sigma_o)
            results = {}
            for kernel in mc.LOSS_KERNELS:
                plan = mc.TrialPlan(
                    n_trials=cfg.n_trials, seed=cfg.seed, distribution=d,
                    beam=b, detector=det, loss_kernel=kernel, rel_tol=cfg.rel_tol)
                _samples, results[kernel] = mc.run_trials(plan)
            ex, apx = results["exact"], results["approx_mean"]
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
    b, det = cfg.beam(), cfg.detector()
    d = cfg.distribution()
    plan = mc.TrialPlan(n_trials=cfg.n_trials, seed=cfg.seed, distribution=d,
                        beam=b, detector=det, loss_kernel="exact",
                        rel_tol=cfg.rel_tol)
    samples, stats = mc.run_trials(plan)
    pdf = stochastic.geoloss_pdf(d, b, det)
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
        p.add_argument("--format", choices=("csv", "json"), help="output format")
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
    except (ConfigError, OSError) as e:
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
    _emit(cfg, render_table(cfg, args.command, columns, rows, meta))
    if args.command == "validate" and meta.get("all_passed") != "True":
        return EXIT_VALIDATION_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
