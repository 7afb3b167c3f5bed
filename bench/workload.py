"""One benchmark workload in a fresh process: generate inputs, run, check.

Started by ``bench/run.py``; by hand:

    python3 bench/workload.py --workload certify --seed 1 --seconds 20 --trace 0

Protocol on stdout: the line ``ready <set-up seconds>`` once ``bvsharp.cli``
is imported and the inputs are generated (set-up is this process's CPU time up
to then, at reference CPU speed; see ``speed.py``), then, unless
``--setup-only`` is given, one JSON object with the pass timings, op counts,
oracle digits and, with ``--trace 1``, the per-layer metrics.

Ops run as a closed loop: each starts after the previous one returned.  An op
fails if it raised or if its output failed its check; failures are counted,
never dropped.  Only the op calls themselves are timed, not the checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bvsharp.cli as cli  # noqa: E402
import oracles  # noqa: E402  (tests/oracles.py, read-only shared reference)
from bvsharp import geometry, surfaces  # noqa: E402

import tracing  # noqa: E402
from speed import SpeedProbe, steal_seconds  # noqa: E402

WORKLOADS = ("certify", "sweep", "solve", "surface")
Q_CHOICES = (0.5, 1.0, 1.5)
ORACLE_RTOL = 1e-5  # the quadrature's stated accuracy target
SWEEP_RADII = tuple(float(e) for e in np.geomspace(0.05, 0.5, 8))
SURFACE_RADII = tuple(float(e) for e in np.linspace(0.1, 0.8, 6))
PROBE_RADII = (0.2, 0.5, 0.8)
CAP_PROBE_RADII = (0.1, 0.25, 0.5)


class CheckFailed(Exception):
    """An op's output contradicts its check."""


def digits(value: float, exact: float) -> float:
    """-log10 of the relative error, capped at 16 (double precision)."""
    rel = abs(value - exact) / abs(exact)
    return 16.0 if rel <= 1e-16 else -math.log10(rel)


def fourier_area(r0: float, cos_coeffs, sin_coeffs) -> float:
    """Area of the star domain rho(t) = r0 + sum c_k cos kt + s_k sin kt: (1/2) int rho^2."""
    return math.pi * r0 * r0 + 0.5 * math.pi * sum(c * c for c in (*cos_coeffs, *sin_coeffs))


def _fourier_feature_size(r0, cos_coeffs, sin_coeffs) -> float:
    """min(1 / max curvature, min rho) of the polar curve, on 4096 samples."""
    t = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    rho = np.full_like(t, r0)
    d1 = np.zeros_like(t)
    d2 = np.zeros_like(t)
    for k, c in enumerate(cos_coeffs, start=1):
        rho += c * np.cos(k * t)
        d1 -= c * k * np.sin(k * t)
        d2 -= c * k * k * np.cos(k * t)
    for k, s in enumerate(sin_coeffs, start=1):
        rho += s * np.sin(k * t)
        d1 += s * k * np.cos(k * t)
        d2 -= s * k * k * np.sin(k * t)
    kappa = (rho * rho + 2.0 * d1 * d1 - rho * d2) / (rho * rho + d1 * d1) ** 1.5
    return float(min(1.0 / np.max(np.abs(kappa)), np.min(rho)))


# --------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs, a function of the seed alone."""
    rng = np.random.default_rng(seed)
    if workload == "certify":
        return {"q_disk": float(rng.choice(Q_CHOICES)), "a": float(rng.uniform(1.6, 2.4)),
                "q_ellipse": float(rng.choice(Q_CHOICES))}
    if workload == "sweep":
        h = 1.0 / 64
        while True:
            coeffs = [float(x) for x in rng.uniform(-0.12, 0.12, 3)]
            cos_coeffs, sin_coeffs = tuple(coeffs[:2]), tuple(coeffs[2:])
            if _fourier_feature_size(1.0, cos_coeffs, sin_coeffs) >= 8.0 * h:
                break
        return {"cos": cos_coeffs, "sin": sin_coeffs, "h": h}
    if workload == "solve":
        return {"seed": seed}
    if workload == "surface":
        return {
            "c": float(rng.uniform(0.7, 1.4)),
            "q": float(rng.choice(Q_CHOICES)),
            "centres": [(float(rng.uniform(0.3, 2.8)), float(rng.uniform(0.0, 2.0 * math.pi)))
                        for _ in range(4)],
            "probe_centre": (float(rng.uniform(0.3, 2.8)), float(rng.uniform(0.0, 2.0 * math.pi))),
        }
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# ops


@dataclass
class Outcome:
    """What a checked op leaves behind: oracle digits and facts for the trace."""

    digits: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], object]          # the timed call
    check: Callable[[object], Outcome]  # raises CheckFailed


def _argv_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cli_op(name: str, out_root: Path, check, task: str, **keys) -> Op:
    out = out_root / name
    argv = [task, "--out", str(out)]
    for key, value in keys.items():
        argv += [f"--{key}", _argv_value(value)]

    def run():
        code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"bv-sharp {task} exited with code {code}")

    def checked(_):
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "detail.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return check(summary, rows)

    return Op(name, run, checked)


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _oracle(outcome: Outcome, key: str, value: float, exact: float):
    _require(abs(value - exact) <= ORACLE_RTOL * abs(exact),
             f"{key}: {value!r} vs closed form {exact!r}")
    outcome.digits[key] = min(outcome.digits.get(key, 16.0), digits(value, exact))


def _disk_quotient(eps: float, q: float) -> float:
    """Closed-form two-valued quotient on the unit disk, cap centred on the boundary."""
    return oracles.two_valued_quotient(
        oracles.lens_area(eps, 1.0, 1.0), oracles.disk_arc_inside(eps), math.pi, q)


def _check_certificate(disk_q):
    def check(summary, rows):
        _require(summary["achieved"] is True, "certificate not achieved")
        _require(summary["best_quotient"] < summary["threshold"],
                 "best quotient not below the threshold")
        _require(len(rows) == 1 and rows[0]["achieved"] == "True", "detail.csv disagrees")
        outcome = Outcome()
        if disk_q is not None:
            _oracle(outcome, "quotient", summary["best_quotient"],
                    _disk_quotient(summary["witness"]["eps"], disk_q))
        return outcome

    return check


def quarter_turns(cos_coeffs, sin_coeffs) -> list:
    """(cos, sin) coefficients of the domain rotated by 0, 1, 2 and 3 quarter turns.

    rho(t - pi/2) maps (c1, c2; s1) to (-s1, -c2; c1), exactly in floating point.
    """
    (c1, c2), (s1,) = cos_coeffs, sin_coeffs
    turns = [((c1, c2), (s1,))]
    for _ in range(3):
        (c1, c2), (s1,) = turns[-1]
        turns.append(((-s1, -c2), (c1,)))
    return turns


def _check_sweep(q, area, reference: dict):
    """Row checks, the oracle, and rotation invariance against the first orientation."""
    def check(summary, rows):
        _require(len(rows) == len(SWEEP_RADII), f"{len(rows)} rows, expected {len(SWEEP_RADII)}")
        outcome = Outcome(facts={"sweep_radii": len(rows)})
        values = [{k: float(v) for k, v in row.items()} for row in rows]
        for row in values:
            _require(all(math.isfinite(v) for v in row.values()), f"non-finite row {row}")
            _require(0.0 < row["cap"] < area, f"cap {row['cap']} outside (0, {area})")
            _require(row["arc"] > 0.0, f"arc {row['arc']} not positive")
            _oracle(outcome, "quotient", row["quotient"],
                    oracles.two_valued_quotient(row["cap"], row["arc"], area, q))
        first = reference.setdefault("rows", values)
        for row, ref in zip(values, first):
            for key in ("cap", "arc", "quotient"):
                _require(abs(row[key] - ref[key]) <= ORACLE_RTOL * abs(ref[key]),
                         f"{key} at eps={row['eps']} changes under rotation: "
                         f"{row[key]!r} vs {ref[key]!r}")
        return outcome

    return check


def _check_solve(q):
    def check(summary, rows):
        _require(summary["residual"] <= 1e-9, f"residual {summary['residual']}")
        best = [float(row["quotient"]) for row in rows]
        _require(best and len(best) == summary["iterations"], "history rows != iterations")
        _require(all(b <= a for a, b in zip(best, best[1:])), "best quotient increased")
        outcome = Outcome(facts={
            "history_rows": len(best),
            "improved_rows": 1 + sum(1 for a, b in zip(best, best[1:]) if b < a),
            "solver_gain": (summary["seed_value"] - summary["value"]) / summary["seed_value"],
        })
        _oracle(outcome, "seed_quotient", summary["seed_value"],
                _disk_quotient(summary["seed_eps"], q))
        return outcome

    return check


def _surface_ops(inputs) -> list:
    spheroid = surfaces.SurfaceModel.spheroid(1.0, inputs["c"])
    round_spheroid = surfaces.SurfaceModel.spheroid(1.0, 1.0)
    q = inputs["q"]
    ops = []

    def check_quotient(v):
        _require(all(math.isfinite(x) and x > 0 for x in (v.numerator, v.denominator, v.value)),
                 f"bad quotient {v}")
        return Outcome()

    # One op per call, so that each is short and repeated once per pass.
    for k, centre in enumerate(inputs["centres"]):
        for j, eps in enumerate(SURFACE_RADII):
            ops.append(Op(f"quotient-{k}-{j}",
                          lambda centre=centre, eps=eps:
                          surfaces.surface_two_valued_quotient(spheroid, centre, eps, q),
                          check_quotient))

    def check_verdict(verdict):
        _require(verdict.verdict == "achieved" and verdict.justification == "Thm7",
                 f"spheroid verdict {verdict}")
        return Outcome()

    ops.append(Op("classify", lambda: surfaces.classify_achievability(spheroid, q), check_verdict))

    def check_gauss_bonnet(result):
        integral, target = result
        _require(math.isfinite(integral) and abs(integral - target) <= 1e-8 * target,
                 f"Gauss-Bonnet {integral} vs {target}")
        return Outcome()

    ops.append(Op("gauss-bonnet", lambda: surfaces.gauss_bonnet_check(spheroid),
                  check_gauss_bonnet))

    def check_probe(value):
        eps, ball, circle = value
        outcome = Outcome()
        _require(math.isfinite(ball) and math.isfinite(circle), "non-finite probe")
        _require(0.0 < ball < round_spheroid.area, f"ball {ball} not inside the surface")
        _oracle(outcome, "ball", ball, oracles.sphere_cap_area(eps))
        _oracle(outcome, "circle", circle, oracles.sphere_circle_length(eps))
        return outcome

    def probe(eps):
        centre = inputs["probe_centre"]
        return (eps, surfaces.geodesic_ball_area(round_spheroid, centre, eps),
                surfaces.geodesic_circle_length(round_spheroid, centre, eps))

    for j, eps in enumerate(PROBE_RADII):
        ops.append(Op(f"oracle-probe-{j}", lambda eps=eps: probe(eps), check_probe))
    return ops


def make_ops(workload: str, inputs: dict, out_root: Path) -> list:
    if workload == "certify":
        return [
            _cli_op("disk", out_root, _check_certificate(inputs["q_disk"]),
                    "domain-certificate", shape="disk", r=1.0, h=1.0 / 256, q=inputs["q_disk"]),
            _cli_op("ellipse", out_root, _check_certificate(None), "domain-certificate",
                    shape="ellipse", a=inputs["a"], b=1.0, h=1.0 / 128, q=inputs["q_ellipse"]),
        ]
    if workload == "sweep":
        area = fourier_area(1.0, inputs["cos"], inputs["sin"])
        reference = {}
        return [_cli_op(f"sweep-turn{k}", out_root, _check_sweep(1.0, area, reference),
                        "domain-sweep", shape="fourier", r0=1.0, cos_coeffs=cos_coeffs,
                        sin_coeffs=sin_coeffs, h=inputs["h"], q=1.0, eps_list=SWEEP_RADII)
                for k, (cos_coeffs, sin_coeffs) in enumerate(quarter_turns(inputs["cos"],
                                                                           inputs["sin"]))]
    if workload == "solve":
        return [_cli_op(f"solve-q{q}", out_root, _check_solve(q), "solve",
                        shape="disk", r=1.0, h=1.0 / 128, q=q, seed=inputs["seed"])
                for q in (1.0, 0.5)]
    return _surface_ops(inputs)


def planar_domains(workload: str, inputs: dict) -> list:
    """(spec, h, exact area) of every planar domain the workload builds."""
    disk = geometry.DomainSpec.disk(1.0)
    if workload == "certify":
        return [(disk, 1.0 / 256, math.pi),
                (geometry.DomainSpec.ellipse(inputs["a"], 1.0), 1.0 / 128, math.pi * inputs["a"])]
    if workload == "sweep":
        area = fourier_area(1.0, inputs["cos"], inputs["sin"])
        return [(geometry.DomainSpec.fourier(1.0, c, s), inputs["h"], area)
                for c, s in quarter_turns(inputs["cos"], inputs["sin"])]
    if workload == "solve":
        return [(disk, 1.0 / 128, math.pi)]
    return []


def geometry_probe_digits(workload: str, inputs: dict) -> dict:
    """Layer accuracy against closed forms; zero where the workload has no planar domain."""
    out = {"geometry.cap_measure.digits": 0.0, "geometry.boundary_arc_inside.digits": 0.0,
           "geometry.measure.digits": 0.0}
    domains = planar_domains(workload, inputs)
    if not domains:
        return out
    out["geometry.measure.digits"] = min(
        digits(geometry.build_domain(spec, h).measure, area) for spec, h, area in domains)
    disk = geometry.build_domain(geometry.DomainSpec.disk(1.0), min(h for _, h, _ in domains))
    out["geometry.cap_measure.digits"] = min(
        digits(geometry.cap_measure(disk, (1.0, 0.0), eps), oracles.lens_area(eps, 1.0, 1.0))
        for eps in CAP_PROBE_RADII)
    out["geometry.boundary_arc_inside.digits"] = min(
        digits(geometry.boundary_arc_inside(disk, (1.0, 0.0), eps), oracles.disk_arc_inside(eps))
        for eps in CAP_PROBE_RADII)
    return out


# --------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    digits: dict = field(default_factory=dict)
    op_s: dict = field(default_factory=dict)      # op name -> wall time, probes left out
    op_run_s: dict = field(default_factory=dict)  # op name -> the time run_s sums
    ops: list = field(default_factory=list)  # (span range, facts) per succeeded op


def run_pass(ops, tracer=None, probe=None) -> PassResult:
    """Run each op once.  With a probe, run_s takes the op's CPU time at reference
    speed, otherwise its wall time less steal time (bench/speed.py)."""
    result = PassResult()
    for op in ops:
        result.attempted += 1
        first = len(tracer.spans) if tracer else 0
        start = perf_counter()
        try:
            if probe:
                output, elapsed, result.op_run_s[op.name] = probe.time(op.run)
            else:
                stolen = steal_seconds()
                output = op.run()
                elapsed = perf_counter() - start
                result.op_run_s[op.name] = elapsed - (steal_seconds() - stolen)
            result.seconds += elapsed
            result.op_s[op.name] = elapsed
            outcome = op.check(output)
        except Exception:  # a failed op is counted and reported, never dropped
            result.failed += 1
            print(f"op {op.name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        last = len(tracer.spans) if tracer else 0
        for key, value in outcome.digits.items():
            result.digits[key] = min(result.digits.get(key, 16.0), value)
        result.ops.append(((first, last), outcome.facts))
    return result


def traced_metrics(workload, inputs, ops, untraced: PassResult) -> tuple:
    """One pass with every public function wrapped; returns (pass, metrics, audit problems)."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    index = tracing.SpanIndex(tracer.spans)
    problems = tracing.call_count_audit(index, traced.ops)
    metrics = tracing.layer_metrics(index, traced.ops, _thread_cap())
    metrics.update(geometry_probe_digits(workload, inputs))
    metrics["surfaces.geodesic_ball_area.digits"] = traced.digits.get("ball", 0.0)
    metrics["surfaces.geodesic_circle_length.digits"] = traced.digits.get("circle", 0.0)
    gains = [facts["solver_gain"] for _, facts in traced.ops if "solver_gain" in facts]
    metrics["solver_gain"] = sum(gains) / len(gains) if gains else 0.0
    metrics["trace.overhead_s"] = traced.seconds - untraced.seconds
    return traced, metrics, problems


def _thread_cap() -> int:
    return max(1, int(os.environ.get("BV_SHARP_THREADS", "1")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bvsharp imported from {cli.__file__}, not from {ROOT / 'src'}")
    inputs = make_inputs(args.workload, args.seed)
    # Set-up at reference speed: CPU time since the interpreter started.
    print(f"ready {SpeedProbe().at_reference(process_time())!r}", flush=True)
    if args.setup_only:
        return 0

    out_root = Path(tempfile.mkdtemp(prefix=f".bench_out-{args.workload}-", dir=ROOT))
    try:
        ops = make_ops(args.workload, inputs, out_root)
        # Passes repeat while the next one is expected to end within --seconds.
        probe = SpeedProbe() if _thread_cap() == 1 else None
        start = perf_counter()
        passes = [run_pass(ops, probe=probe)]
        while not args.trace and perf_counter() - start + passes[-1].seconds <= args.seconds:
            passes.append(run_pass(ops, probe=probe))
        timed = list(passes)
        per_layer, audit = None, []
        if args.trace:
            traced, per_layer, audit = traced_metrics(args.workload, inputs, ops, passes[0])
            passes.append(traced)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if per_layer is not None:
        per_layer["failed_frac"] = failed / attempted
    for problem in audit:
        print(f"call-count audit: {problem}", file=sys.stderr)
    oracle = [v for p in passes for v in p.digits.values()]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "inputs": inputs,
        "pass_s": [p.seconds for p in timed],
        "op_s": [p.op_s for p in timed],
        "op_run_s": [p.op_run_s for p in timed],
        "attempted": attempted,
        "failed": failed,
        "audit_ok": not audit,
        "oracle_digits": min(oracle) if oracle else 0.0,
        "peak_rss_mb": peak_kb / 1024.0,
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
