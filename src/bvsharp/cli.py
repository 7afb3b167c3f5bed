"""Batch experiment runner `bv-sharp`.

One task per invocation:

    bv-sharp <task> --config experiment.cfg [--key value ...]

Config files are flat ``key = value`` text with ``#`` comments; flags
override file values.  Unknown keys are errors, never silently
ignored.  Every task writes ``<out>/summary.json`` (nested, with a
schema_version field) and ``<out>/detail.csv`` (flat, for plotting);
payloads carry no timestamps, so identical configs reproduce identical
bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import asymptotics, constants, geometry, profiles, solver, surfaces

SCHEMA_VERSION = 1

_CSV_COLUMNS_DOC = """\
detail.csv columns per task:
  constants           n, omega_n, c_star, c_half
  sphere-certificate  q, value, residual, equals_c_star
  domain-certificate  q, best_quotient, threshold, gap, achieved, center_x, center_y, eps
                      (gap = threshold - quotient: positive certifies)
  domain-sweep        eps, cap, arc, beta, quotient, gap
                      (gap = quotient - threshold: negative certifies, the
                      opposite sign; beta reads inf where the plateau lies
                      beyond the float range, and the quotient stays finite)
  solve               iter, quotient, residual, tv, norm
  surface-classify    q, verdict, justification, S_max, threshold
  expansion-audit     target=domain-quotient: eps, exact, expansion, difference
                      target=gray: eps, ball_exact, ball_expansion, ball_diff,
                                   circle_exact, circle_expansion, circle_diff
"""


class ConfigError(ValueError):
    """Invalid configuration text or field value."""


# --------------------------------------------------------------------------
# configuration


def _parse_float_list(text: str):
    items = [part.strip() for part in text.split(",") if part.strip()]
    return tuple(float(part) for part in items)


@dataclass
class ExperimentConfig:
    task: str = ""
    out: str = "bv_sharp_out"
    # domain geometry
    shape: str = "disk"
    r: float = 1.0
    a: float = 2.0
    b: float = 1.0
    r0: float = 1.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()
    h: float = 1.0 / 256
    # surface geometry
    surface: str = "sphere"
    c: float = 1.0
    L1: float = 1.0
    L2: float = 1.0
    # exponents and radii
    q: float = 1.0
    q_list: tuple = ()
    eps_min: float = 0.02
    eps_max: float = 0.4
    eps_count: int = 16
    eps_list: tuple = ()
    # constants task
    n_min: int = 2
    n_max: int = 5
    # expansion audit
    target: str = "domain-quotient"
    # solver
    budget: int = 300
    seed: int = 0  # echoed in the solve summary; changes no result

    def domain_spec(self) -> geometry.DomainSpec:
        return self._models()["shape"][self.shape]()

    def surface_model(self) -> surfaces.SurfaceModel:
        return self._models()["surface"][self.surface]()

    def _models(self) -> dict:
        """The one list of model names: config key -> model name -> its builder."""
        return {
            "shape": {
                "disk": lambda: geometry.DomainSpec.disk(self.r),
                "ellipse": lambda: geometry.DomainSpec.ellipse(self.a, self.b),
                "fourier": lambda: geometry.DomainSpec.fourier(self.r0, self.cos_coeffs,
                                                               self.sin_coeffs),
                "square": lambda: geometry.DomainSpec(kind="square"),
            },
            "surface": {
                "sphere": lambda: surfaces.SurfaceModel.sphere(self.r),
                "spheroid": lambda: surfaces.SurfaceModel.spheroid(self.a, self.c),
                "torus": lambda: surfaces.SurfaceModel.flat_torus(self.L1, self.L2),
            },
        }


# Keyed by the field annotations, which are strings under
# `from __future__ import annotations`.
_CASTERS = {"str": str.strip, "float": float, "int": int, "tuple": _parse_float_list}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _cast_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    try:
        return _CASTERS[_FIELD_TYPES[key]](raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _parse_config_values(text: str) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        try:
            values[key] = _cast_value(key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines into a validated config."""
    return make_config(_parse_config_values(text))


def make_config(values: dict) -> ExperimentConfig:
    """Build and validate a config from a key/value mapping."""
    for key in values:
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}")
    config = ExperimentConfig(**values)
    _validate(config)
    return config


_Q_LIST_TASKS = ("sphere-certificate", "surface-classify")


def _validate(config: ExperimentConfig):
    if config.task not in TASKS:
        raise ConfigError(
            f"task: expected one of {', '.join(TASKS)}; got {config.task!r}"
        )
    for key, models in config._models().items():
        if getattr(config, key) not in models:
            raise ConfigError(f"{key}: unknown value {getattr(config, key)!r}")
    if config.q_list and config.task not in _Q_LIST_TASKS:
        raise ConfigError(
            f"q_list: only {' and '.join(_Q_LIST_TASKS)} accept an exponent list; "
            f"task {config.task} runs a single q"
        )
    # The rules from `constants`, each message prefixed with its key: the
    # model parameters of every model, the one in use or not, and the theory's
    # rules; planar domains and surface models are both of dimension n = 2.
    rules = [*[(name, constants._check_positive, getattr(config, name), name)
               for name in ("h", "r", "a", "b", "c", "L1", "L2", "r0")],
             ("q", constants._check_exponent, config.q, 2),
             *[("q_list", constants._check_exponent, q, 2) for q in config.q_list],
             ("eps_min", constants._check_positive, config.eps_min, "eps"),
             ("eps_max", constants._check_positive, config.eps_max, "eps"),
             *[("eps_list", constants._check_positive, eps, "eps") for eps in config.eps_list],
             ("n_min", constants._check_dimension, config.n_min, 2)]
    for key, rule, value, arg in rules:
        try:
            rule(value, arg)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if config.eps_max <= config.eps_min:
        raise ConfigError("eps_min/eps_max: need 0 < eps_min < eps_max")
    if config.eps_count < 2:
        raise ConfigError("eps_count: must be >= 2")
    if config.n_max < config.n_min:
        raise ConfigError("n_min/n_max: need n_min <= n_max")
    if config.budget < 1:
        raise ConfigError("budget: must be >= 1")
    if config.seed < 0:
        raise ConfigError("seed: must be >= 0")
    if config.target not in ("domain-quotient", "gray"):
        raise ConfigError("target: expected domain-quotient or gray")


# --------------------------------------------------------------------------
# sweep helper


def _parallel_map(fn, items):
    """The rows of a sweep, [fn(x) for x in items], in input order.

    A function of its own because the benchmark's tracer wraps
    ``cli._parallel_map`` by name to time each row.
    """
    return [fn(item) for item in items]


# --------------------------------------------------------------------------
# tasks


def _task_constants(config: ExperimentConfig):
    rows = [[n, constants.unit_ball_volume(n), constants.sharp_sobolev_constant(n),
             constants.half_space_constant(n)] for n in range(config.n_min, config.n_max + 1)]
    summary = {
        "c_star_2": constants.sharp_sobolev_constant(2) if config.n_min <= 2 else None,
        "rows": [
            {"n": r[0], "omega_n": r[1], "c_star": r[2], "c_half": r[3]} for r in rows
        ],
    }
    return summary, ["n", "omega_n", "c_star", "c_half"], rows


def _task_sphere_certificate(config: ExperimentConfig):
    q_values = config.q_list or (config.q,)
    hemisphere = 2.0 * np.pi
    rows = []
    for q in q_values:
        qv = surfaces.hemisphere_certificate(q)
        # The profile's levels 1 and -beta, each on a hemisphere.
        residual = profiles.constraint_residual([(1.0, hemisphere), (-qv.beta, hemisphere)], q)
        rows.append([q, qv.value, residual, abs(qv.gap_to_threshold) <= 1e-12])
    _, value, residual, equals = rows[0]
    summary = {"value": value, "residual": residual, "equals_c_star": equals,
               "q_values": list(q_values)}
    return summary, ["q", "value", "residual", "equals_c_star"], rows


def _task_domain_certificate(config: ExperimentConfig):
    domain = geometry.build_domain(config.domain_spec(), config.h)
    center, eps, exact = profiles.achievability_certificate(domain, config.q)
    gap = exact.threshold - exact.value  # not -gap_to_threshold, which reads -0.0 on a tie
    achieved = exact.gap_to_threshold < 0
    summary = {
        "best_quotient": exact.value,
        "threshold": exact.threshold,
        "gap": gap,
        "achieved": achieved,
        "theorem": "Prop 3.1",
        "flag": "achieved (Prop 3.1 + Prop 3.5)" if achieved else "not certified",
        "witness": {"center": list(center), "eps": eps, "q": config.q,
                    "quotient": exact.value, "threshold": exact.threshold},
    }
    rows = [[config.q, exact.value, exact.threshold, gap, achieved, *center, eps]]
    header = ["q", "best_quotient", "threshold", "gap", "achieved",
              "center_x", "center_y", "eps"]
    return summary, header, rows


def _task_domain_sweep(config: ExperimentConfig):
    domain = geometry.build_domain(config.domain_spec(), config.h)
    seed = geometry.max_curvature_seed(domain)
    eps_values = config.eps_list or tuple(
        np.geomspace(config.eps_min, config.eps_max, config.eps_count)
    )

    def evaluate(eps):
        cap = geometry.cap_measure(domain, seed.point, eps)
        arc = geometry.boundary_arc_inside(domain, seed.point, eps)
        qv = profiles.two_valued_quotient_exact(domain, seed.point, eps, config.q)
        return [float(eps), cap, arc, qv.beta, qv.value, qv.gap_to_threshold]

    rows = _parallel_map(evaluate, eps_values)
    best = min(rows, key=lambda row: (row[4], row[0]))
    summary = {
        "center": list(seed.point),
        "curvature": seed.curvature,
        "curvature_lower_bound": seed.curvature_lower_bound,
        "q": config.q,
        "best_eps": best[0],
        "best_quotient": best[4],
        "threshold": constants.half_space_constant(2),
    }
    return summary, ["eps", "cap", "arc", "beta", "quotient", "gap"], rows


def _task_solve(config: ExperimentConfig):
    domain = geometry.build_domain(config.domain_spec(), config.h)
    estimate = solver.minimize_quotient(domain, config.q, config.budget)
    summary = {
        "q": config.q,
        "value": estimate.value,
        "seed_value": estimate.seed_value,
        "seed_eps": estimate.seed_eps,
        "residual": estimate.residual,
        "threshold": estimate.threshold,
        "below_threshold": estimate.below_threshold,
        "iterations": int(estimate.history.shape[0]),
        "seed": config.seed,
    }
    rows = [[int(row[0]), row[1], row[2], row[3], row[4]] for row in estimate.history]
    return summary, ["iter", "quotient", "residual", "tv", "norm"], rows


def _task_surface_classify(config: ExperimentConfig):
    surface = config.surface_model()
    q_values = config.q_list or (config.q,)
    integral, target = surfaces.gauss_bonnet_check(surface)
    s_min, s_max, _ = surface.curvature_range()
    threshold = surfaces.critical_curvature_threshold(surface.dimension, surface.area)
    rows = []
    verdicts = []
    for qv in q_values:
        verdict = surfaces.classify_achievability(surface, qv)
        verdicts.append(verdict)
        rows.append([qv, verdict.verdict, verdict.justification, s_max, threshold])
    first = verdicts[0]
    summary = {
        "surface": config.surface,
        "area": surface.area,
        "euler_characteristic": surface.euler_characteristic,
        "scalar_curvature_max": s_max,
        "scalar_curvature_min": s_min,
        "critical_threshold": threshold,
        "gauss_bonnet": {"integral": integral, "target": target},
        "verdict": first.verdict,
        "justification": first.justification,
        "witness": first.witness,
        "q_values": list(q_values),
    }
    return summary, ["q", "verdict", "justification", "S_max", "threshold"], rows


def expansion_audit(config: ExperimentConfig):
    """Exact-versus-expansion table for the domain or surface asymptotics.

    Returns (summary, header, rows); also reachable as the
    ``expansion-audit`` CLI task.
    """
    if config.target == "domain-quotient":
        domain = geometry.build_domain(config.domain_spec(), config.h)
        seed = geometry.max_curvature_seed(domain)
        H = seed.curvature
        eps_values = config.eps_list or (0.05, 0.1, 0.2)

        def evaluate(eps):
            exact = profiles.two_valued_quotient_exact(domain, seed.point, eps, config.q).value
            expansion = asymptotics.domain_quotient_expansion(H, eps, 2)
            return [float(eps), exact, expansion, exact - expansion]

        rows = _parallel_map(evaluate, eps_values)
        eps_arr = [row[0] for row in rows]
        exact_arr = [row[1] for row in rows]
        c_half = constants.half_space_constant(2)
        fitted = asymptotics.fit_linear_coefficient(eps_arr, exact_arr, c_half)
        target_slope = asymptotics.domain_quotient_slope(H, 2)
        order = asymptotics.fit_remainder_order(eps_arr, [row[3] for row in rows])
        summary = {
            "target": config.target,
            "curvature": H,
            "fitted_linear_coefficient": fitted,
            "target_coefficient": target_slope,
            "relative_error": abs(fitted - target_slope) / abs(target_slope),
            "remainder_order": order,
            # The plateau term, of order eps^(2(2 - q)/q), stays below the
            # linear term the fit measures only while q < 4/3.
            "expansion_valid": config.q < 4.0 / 3.0,
        }
        return summary, ["eps", "exact", "expansion", "difference"], rows

    sphere = surfaces.SurfaceModel.sphere(config.r)
    S = surfaces.scalar_curvature(sphere, sphere.pole())
    eps_values = config.eps_list or tuple(np.geomspace(0.05, 0.4, 6))

    def evaluate(eps):
        ball = surfaces.geodesic_ball_area(sphere, sphere.pole(), eps)
        circle = surfaces.geodesic_circle_length(sphere, sphere.pole(), eps)
        ball_exp = asymptotics.gray_expansion(S, eps, 2)
        circle_exp = asymptotics.geodesic_circle_expansion(S, eps, 2)
        return [float(eps), ball, ball_exp, ball - ball_exp,
                circle, circle_exp, circle - circle_exp]

    rows = _parallel_map(evaluate, eps_values)
    eps_arr = [row[0] for row in rows]
    summary = {
        "target": config.target,
        "scalar_curvature": S,
        "ball_order": asymptotics.fit_remainder_order(eps_arr, [row[3] for row in rows]),
        "circle_order": asymptotics.fit_remainder_order(eps_arr, [row[6] for row in rows]),
    }
    header = ["eps", "ball_exact", "ball_expansion", "ball_diff",
              "circle_exact", "circle_expansion", "circle_diff"]
    return summary, header, rows


_RUNNERS = {
    "constants": _task_constants,
    "domain-certificate": _task_domain_certificate,
    "domain-sweep": _task_domain_sweep,
    "solve": _task_solve,
    "surface-classify": _task_surface_classify,
    "sphere-certificate": _task_sphere_certificate,
    "expansion-audit": expansion_audit,
}
TASKS = tuple(_RUNNERS)  # in this order in --help and in error messages


# --------------------------------------------------------------------------
# output


def _to_python(value):
    if isinstance(value, np.generic):  # numpy scalars to float, int, bool
        return value.item()
    if isinstance(value, dict):
        return {k: _to_python(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_python(v) for v in value]
    return value


def _write_reports(out_dir: Path, summary: dict, header, rows):
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(_to_python(summary))
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out_dir / "detail.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])


def _format_cell(cell):
    cell = _to_python(cell)
    if isinstance(cell, float):
        return repr(cell)
    return cell


def run(config: ExperimentConfig) -> int:
    """Execute one task and write summary.json / detail.csv under out."""
    summary, header, rows = _RUNNERS[config.task](config)
    summary = {**summary, "task": config.task}
    _write_reports(Path(config.out), summary, header, rows)
    return 0


# --------------------------------------------------------------------------
# entry point


def _parse_overrides(tokens):
    overrides = {}
    for i in range(0, len(tokens), 2):
        token = tokens[i]
        if not token.startswith("--") or i + 1 >= len(tokens):
            raise ConfigError(f"expected --key value pairs, got {token!r}")
        overrides[token[2:]] = tokens[i + 1]
    return overrides


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bv-sharp",
        description="Sharp BV Poincare-Sobolev constants: certificates, sweeps, solver runs.",
        epilog=_CSV_COLUMNS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,  # --h is the grid key, not an abbreviation of --help
    )
    parser.add_argument("task", nargs="?", choices=TASKS, help="experiment task to run")
    parser.add_argument("--config", type=Path, help="flat key = value config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    return parser


def main(argv=None) -> int:
    args, extra = _parser().parse_known_args(argv)

    try:
        values = {}
        if args.config is not None:
            values = _parse_config_values(args.config.read_text())
        for key, raw in _parse_overrides(extra).items():
            values[key] = _cast_value(key, raw)
        if args.task:
            values["task"] = args.task
        if args.out:
            values["out"] = args.out
        config = make_config(values)
        return run(config)
    except ValueError as exc:  # ConfigError and DomainBuildError are ValueErrors
        print(f"bv-sharp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
