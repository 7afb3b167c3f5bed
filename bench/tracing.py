"""Span tracing of bvsharp's public functions, installed from outside the package.

`Tracer.install` replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent span).  The
replacement happens at every binding of the function inside the package, not
only where it is defined: `profiles` and `solver` bind geometry and profiles
functions by ``from .geometry import ...``, and ``bvsharp/__init__`` re-exports
names.  `Tracer.uninstall` restores the originals.

The parent stack is thread-local because ``domain-sweep`` evaluates radii on a
thread pool; the wrapper of ``cli._parallel_map`` hands its own span to the
worker threads as the parent of one ``cli.sweep_eval`` span per item, so the
per-radius work stays attached to the sweep that caused it.  Spans stay in
memory; `layer_metrics` turns them into per-layer numbers afterwards.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("geometry", "profiles", "solver", "surfaces", "constants", "cli")

_CURRENT = object()  # parent marker: the innermost open span of the calling thread


def public_functions(module):
    """Names of the functions a module defines without a leading underscore."""
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )


def _build_domain_info(args, kwargs, result):
    return result.nx * result.ny


def _optimal_epsilon_info(args, kwargs, result):
    """Whether the best radius sits at the diameter/4 end of the bracket."""
    domain = args[0]
    hi = domain.diameter / 4.0
    eps_range = args[3] if len(args) > 3 else kwargs.get("eps_range")
    if eps_range is not None:
        hi = min(float(eps_range[1]), hi)
    return result[0] >= hi * (1.0 - 1e-6)


def _cli_run_info(args, kwargs, result):
    config = args[0]
    out = Path(config.out)
    return {
        "task": config.task,
        "bytes": sum((out / name).stat().st_size for name in ("summary.json", "detail.csv")),
    }


_INFO_HOOKS = {
    "geometry.build_domain": _build_domain_info,
    "profiles.optimal_epsilon": _optimal_epsilon_info,
    "cli.run": _cli_run_info,
}


class Tracer:
    """In-memory span recorder; each span is [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, parent, fn, args, kwargs, hook=None):
        stack = self._stack()
        if parent is _CURRENT:
            parent = stack[-1] if stack else None
        record = [name, 0.0, 0.0, parent, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
        if hook is not None:
            record[4] = hook(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        hook = _INFO_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, _CURRENT, fn, args, kwargs, hook)

        return traced

    def _wrap_parallel_map(self, original):
        def traced_map(fn, items):
            parent = self._stack()[-1]

            def task(item):
                return self._call("cli.sweep_eval", parent, fn, (item,), {})

            return original(task, items)

        return self.wrap("cli._parallel_map", traced_map)

    def install(self):
        """Wrap the public functions of MODULES at every binding in the package."""
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bvsharp" or name.startswith("bvsharp."))]
        replacements = {}
        for short in MODULES:
            module = sys.modules[f"bvsharp.{short}"]
            for name in public_functions(module):
                original = getattr(module, name)
                replacements[id(original)] = (original, self.wrap(f"{short}.{name}", original))
        cli = sys.modules["bvsharp.cli"]
        original_map = cli._parallel_map
        replacements[id(original_map)] = (original_map, self._wrap_parallel_map(original_map))
        for module in package:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


# --------------------------------------------------------------------------
# per-layer numbers


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


class SpanIndex:
    """Totals, self times and ancestry queries over one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        children = defaultdict(list)
        for i, span in enumerate(spans):
            if span[3] is not None:
                children[span[3]].append(i)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        for i, (name, start, end, *_rest) in enumerate(spans):
            child_cover = _covered(
                (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
            )
            self.total[name] += end - start
            self.self_time[name] += end - start - child_cover
            self.calls[name] += 1

    def named(self, name, lo=0, hi=None):
        hi = len(self.spans) if hi is None else hi
        return [i for i in range(lo, hi) if self.spans[i][0] == name]

    def ancestor(self, i, name):
        """Index of the nearest ancestor of span i called `name`, or None."""
        parent = self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return parent
            parent = self.spans[parent][3]
        return None


def expected_evals_per_search() -> int:
    """Quotient evaluations one `optimal_epsilon` call implies by its defaults.

    `coarse` grid points, the two golden-section interior points, then one
    evaluation per golden-section iteration.
    """
    from bvsharp import profiles

    params = inspect.signature(profiles.optimal_epsilon).parameters
    return params["coarse"].default + 2 + params["golden_iters"].default


def call_count_audit(index: SpanIndex, ops) -> list:
    """Mismatches between traced call counts and what the code implies.

    ops: (span range, facts) per op of the traced pass.  An empty list passes.
    """
    problems = []
    per_search = expected_evals_per_search()
    counts = defaultdict(int)
    for i in index.named("profiles.two_valued_quotient_exact"):
        parent = index.ancestor(i, "profiles.optimal_epsilon")
        if parent is not None:
            counts[parent] += 1
    for i in index.named("profiles.optimal_epsilon"):
        if counts[i] != per_search:
            problems.append(
                f"optimal_epsilon span {i}: {counts[i]} quotient evaluations, "
                f"expected {per_search}"
            )
    for (lo, hi), facts in ops:
        radii = facts.get("sweep_radii")
        if radii is not None:
            for name in ("geometry.cap_measure", "geometry.boundary_arc_inside"):
                found = len(index.named(name, lo, hi))
                if found != 2 * radii:
                    problems.append(f"sweep: {found} {name} calls for {radii} radii, "
                                    f"expected {2 * radii}")
        rows = facts.get("history_rows")
        if rows is not None:
            iterations = _solver_iterations(index, lo, hi)
            if iterations != rows:
                problems.append(f"solve: {iterations} traced iterations, "
                                f"{rows} history rows")
    return problems


def _solver_iterations(index: SpanIndex, lo=0, hi=None) -> int:
    """One `total_variation` call per solver iteration, made directly by the solver."""
    return sum(
        1 for i in index.named("solver.total_variation", lo, hi)
        if index.spans[i][3] is not None
        and index.spans[index.spans[i][3]][0] == "solver.minimize_quotient"
    )


def layer_metrics(index: SpanIndex, ops, threads: int) -> dict:
    """Per-layer metrics of one traced pass (probe digits are added by the caller)."""
    spans = index.spans
    out = {}

    def timed(name, *stats):
        for stat in stats:
            value = {"s": index.total[name], "self_s": index.self_time[name],
                     "calls": index.calls[name]}[stat]
            out[f"{name}.{stat}"] = value

    timed("geometry.build_domain", "s")
    out["geometry.build_domain.cells"] = sum(
        spans[i][4] for i in index.named("geometry.build_domain"))
    timed("geometry.cap_measure", "s", "calls")
    timed("geometry.boundary_arc_inside", "s", "calls")
    timed("geometry.max_curvature_seed", "s")

    searches = index.named("profiles.optimal_epsilon")
    timed("profiles.optimal_epsilon", "s", "self_s", "calls")
    nested = sum(1 for i in index.named("profiles.two_valued_quotient_exact")
                 if index.ancestor(i, "profiles.optimal_epsilon") is not None)
    out["profiles.optimal_epsilon.evals_per_call"] = nested / len(searches) if searches else 0.0
    out["profiles.optimal_epsilon.edge_frac"] = (
        sum(1 for i in searches if spans[i][4]) / len(searches) if searches else 0.0)
    timed("profiles.two_valued_quotient_exact", "s", "self_s", "calls")

    timed("solver.minimize_quotient", "s", "self_s")
    iterations = _solver_iterations(index)
    out["solver.iterations"] = iterations
    solver_s = index.total["solver.minimize_quotient"]
    out["solver.iters_per_s"] = iterations / solver_s if solver_s > 0 else 0.0
    rows = sum(f.get("history_rows", 0) for _, f in ops)
    improved = sum(f.get("improved_rows", 0) for _, f in ops)
    out["solver.improved_frac"] = improved / rows if rows else 0.0
    timed("solver.total_variation", "s", "calls")
    timed("solver.lp_norm_power", "s", "calls")
    timed("solver.rasterize_two_valued", "s")

    timed("surfaces.surface_two_valued_quotient", "s", "self_s", "calls")
    timed("surfaces.geodesic_ball_area", "s", "calls")
    timed("surfaces.geodesic_circle_length", "s", "calls")
    timed("surfaces.classify_achievability", "s")
    timed("surfaces.gauss_bonnet_check", "s")

    constant_names = {span[0] for span in spans if span[0].startswith("constants.")}
    out["constants.s"] = sum(index.total[name] for name in constant_names)
    out["constants.calls"] = sum(index.calls[name] for name in constant_names)

    timed("cli.run", "s", "self_s")
    out["cli.bytes_written"] = sum(spans[i][4]["bytes"] for i in index.named("cli.run"))
    busy = wall = 0.0
    for i in index.named("cli._parallel_map"):
        run = index.ancestor(i, "cli.run")
        if run is None or spans[run][4]["task"] != "domain-sweep":
            continue
        evals = [j for j in index.named("cli.sweep_eval") if spans[j][3] == i]
        busy += sum(spans[j][2] - spans[j][1] for j in evals)
        wall += min(threads, max(1, len(evals))) * (spans[i][2] - spans[i][1])
    out["cli.sweep_parallel_eff"] = busy / wall if wall > 0 else 0.0
    return out
