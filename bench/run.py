"""Benchmark entry point for the bvsharp certificate pipeline.

    python3 bench/run.py --workload {certify,sweep,solve,surface} --seed N \\
        --seconds S --trace {0,1}

Runs one workload (see ``BENCHMARK.json`` and ``bench/README.md``) in a fresh
single-client Python process, ``bench/workload.py``, built from this
checkout's ``src/``.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass.  A JSON line with
the machine context comes first; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Set-up time is the workload process's CPU time from its start until
``bvsharp.cli`` is imported and its inputs are generated, at reference CPU
speed (``bench/speed.py``); the wall time from spawning it to that point is
printed beside it.  A discarded warm-up spawn fills the ``.pyc`` caches
first; the reported value is the median over SETUP_SAMPLES spawns, the last
of which goes on to run the work.
Run time is each op's median over the passes, summed over the op list; an op
that runs on one thread is timed in CPU time at reference CPU speed
(``bench/speed.py``), the threaded sweep in wall time less steal time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "workload.py"
WORKLOADS = ("certify", "sweep", "solve", "surface")
SETUP_SAMPLES = 3
TIMEOUT_S = 150.0  # keeps a whole run under 180 s


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(workload: str) -> dict:
    """Single-threaded BLAS everywhere; the sweep's pool gets min(2, nproc) threads."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["BV_SHARP_THREADS"] = str(min(2, _nproc())) if workload == "sweep" else "1"
    return env


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_context(args, env, versions: dict) -> dict:
    return {
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "BV_SHARP_THREADS")},
    }


def spawn(args, env, setup_only: bool):
    """Start a workload process; return ((set-up wall s, set-up s at reference speed),
    result or None)."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    start = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            rest, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"workload {args.workload} exceeded {TIMEOUT_S} s")
    word, _, reported = ready.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise SystemExit(f"workload {args.workload} exited with code {proc.returncode}")
    setup = (setup, float(reported))
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def op_list_seconds(op_samples: list) -> float:
    """Time of the op list: each op's median over passes, summed.

    op_samples holds one {op name: seconds} dict per pass.
    """
    names = {name for sample in op_samples for name in sample}
    return sum(median(s[name] for s in op_samples if name in s) for name in names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bvsharp certificate-pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "bvsharp" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} missing; run from a bvsharp checkout",
                  file=sys.stderr)
            return 2

    env = worker_env(args.workload)
    spawn(args, env, setup_only=True)  # warm-up: fills the .pyc caches, discarded
    setups = [spawn(args, env, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, result = spawn(args, env, setup_only=False)
    setups.append(setup)

    context = machine_context(args, env, result["versions"])
    if args.trace:
        context["trace.overhead_s"] = result["per_layer"]["trace.overhead_s"]
    print(json.dumps({"context": context}))
    print(json.dumps({"inputs": result["inputs"], "pass_s": result["pass_s"],
                      "op_s": result["op_s"], "op_run_s": result["op_run_s"],
                      "setup_wall_s": [wall for wall, _ in setups],
                      "setup_s": [cpu for _, cpu in setups]}), flush=True)
    if args.trace:
        values = result["per_layer"]
    else:
        values = {"setup_s": median(cpu for _, cpu in setups),
                  "run_s": op_list_seconds(result["op_run_s"]),
                  "peak_rss_mb": result["peak_rss_mb"], "oracle_digits": result["oracle_digits"]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": result["failed"] == 0 and result["audit_ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
