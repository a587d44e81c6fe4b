"""Certification benchmark for scheme-forge; see perfbench/README.md.

    python3 perfbench/run.py --workload report-small --seed 0 --seconds 40 --trace 0

Runs one workload as one closed-loop client in this process: each op is a
scheme_forge.cli.run(argv) call that starts when the previous one returns.
Whole passes over the workload's ops repeat until the next pass would end
past --seconds (at least one pass).  Set-up is timed in fresh processes.
The last stdout line is the result object; the lines before it are the
run record and a metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5  # at least

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
}


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_threads() -> dict[str, str]:
    """Cap the report pool and BLAS at the usable cores; must precede numpy."""
    caps = {}
    for var in ("SCHEME_FORGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        caps[var] = os.environ[var] = str(usable_cores())
    return caps


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("report-small", "report-mid", "build-large"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "scheme_forge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def time_setup(workload: str, seed: int, work_dir: str) -> float:
    """Seconds from process start to inputs written, for one fresh set-up process."""
    argv = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), work_dir,
            str(SRC)]
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError("set-up failed:\n" + done.stderr)
    return seconds


class Client:
    """Closed-loop client: runs passes of a workload and checks every op."""

    def __init__(self, workload, seed: int, tracer=None):
        from scheme_forge import cli  # imported late: numpy must follow cap_threads()
        import workloads

        self.cli = cli
        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> dict:
        times = []
        for op in self.workload.ops:
            if self.tracer is not None:
                self.tracer.begin_op()
            seconds, problems = self.wl.run_op(self.cli, op, time.perf_counter)
            self.attempted += 1
            if problems:
                self.failures.append("%s: %s" % (op.label, "; ".join(problems)))
            times.append(seconds)
            if op.kind == "gen":
                self.wl.relabel_asc(op.argv[-1], self.seed)  # not part of any op
        return {
            "wall_s": sum(times),
            "slowest_op_s": max(times),
            "op_s": dict(zip((op.label for op in self.workload.ops), times)),
        }


def measure(client: Client, seconds: float, traced: bool, set_up) -> dict:
    """Repeat passes until the next one would end past `seconds`.

    Traced runs alternate untraced and traced passes, starting untraced,
    and do at least one of each.  `set_up()` writes the inputs and returns
    its time; it runs before the first pass and after every pass, so the
    set-up samples spread over the run like the passes do.
    """
    from tracing import Tracer

    tracer = Tracer() if traced else None
    passes: dict[str, list] = {"untraced": [], "traced": []}
    layers, spans = [], []
    start = time.perf_counter()
    setup = [set_up()]
    mode = "untraced"
    while True:
        pass_start = time.perf_counter()
        if mode == "traced":
            tracer.reset()
            tracer.install()
            client.tracer = tracer
            try:
                result = client.run_pass()
            finally:
                tracer.uninstall()
                client.tracer = None
            layers.append(tracer.summary())
            spans.append(tracer.span_records())
        else:
            result = client.run_pass()
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup.append(set_up())
        result["pass_s"] = time.perf_counter() - pass_start
        passes[mode].append(result)
        if traced:
            mode = "traced" if mode == "untraced" else "untraced"
            if not passes["traced"]:
                continue
        estimate = statistics.median(p["pass_s"] for p in passes[mode] or passes["untraced"])
        if time.perf_counter() - start + estimate > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(set_up())
    return {"setup": setup, "passes": passes, "layers": layers, "spans": spans}


def end_to_end(setup: list[float], passes: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "slowest_op_s": statistics.median(p["slowest_op_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(measured: dict) -> dict[str, float]:
    layers = measured["layers"]
    out = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    traced = statistics.median(p["wall_s"] for p in measured["passes"]["traced"])
    untraced = statistics.median(p["wall_s"] for p in measured["passes"]["untraced"])
    out["traced_wall_s"] = traced
    out["untraced_wall_s"] = untraced
    out["trace_overhead_ratio"] = traced / untraced
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scheme_forge" / "__init__.py").is_file():
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    cwd = os.getcwd()
    try:
        os.chdir(work_dir)
        client = Client(workload, args.seed)
        measured = measure(client, args.seconds, bool(args.trace),
                           lambda: time_setup(args.workload, args.seed, work_dir))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = measured["passes"]["untraced"]
    setup = measured["setup"]
    metrics = end_to_end(setup, untraced)
    failed = len(client.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "usable_cores": usable_cores(),
        "thread_caps": caps,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "client": "one closed-loop client, no concurrency",
        "ops_total": client.attempted,
        "ops_failed": failed,
        "ops_failed_ratio": failed / client.attempted,
        "failures": client.failures[:20],
        "medians": metrics,
        "raw": {"setup_s": setup, **measured["passes"]},
    }
    table = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    shown = table
    if args.trace:
        from tracing import per_layer_metrics

        layers = per_layer(measured)
        record["per_layer"] = layers
        trace_file = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        trace_file.write_text(json.dumps(measured["spans"]))
        record["spans_file"] = str(trace_file.relative_to(ROOT))
        shown = {name: {"value": layers[name], "unit": unit}
                 for name, (unit, _) in per_layer_metrics().items()}

    print(json.dumps({"record": record}))
    print("%s seed=%d: %d ops, %d failed (ops_failed_ratio %.4f)"
          % (args.workload, args.seed, client.attempted, failed, failed / client.attempted))
    for name, m in {**table, **shown}.items():
        print("  %-40s %14.6f %s" % (name, m["value"], m["unit"]))
    for line in client.failures[:5]:
        print("  FAILED %s" % line)
    print(json.dumps({"correct": failed == 0, "attempted": client.attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
