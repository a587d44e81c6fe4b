"""Fast self-test of the benchmark's own checks (a few seconds).

    python3 perfbench/selftest.py

1. The verdict checker passes true outputs and counts wrong ones,
   exceptions, tracebacks and bad exit codes as failed ops.
2. Traced self times cover the traced wall time.
3. BENCHMARK.json names exactly the metrics run.py and tracing.py report.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from scheme_forge import cli, scheme_core  # noqa: E402

C13 = wl.Instance("c13", 13)
TINY = wl.Workload("tiny", (C13,),
                   wl.report_ops((C13,)) + wl.build_ops(wl.Instance("c17", 17)))


class FakeCli:
    """Stands in for scheme_forge.cli: prints `stdout`, writes `stderr`, returns `code`."""

    def __init__(self, stdout="", stderr="", code=0, raises=None):
        self.stdout, self.stderr, self.code, self.raises = stdout, stderr, code, raises

    def run(self, argv):
        if self.raises is not None:
            raise self.raises
        sys.stdout.write(self.stdout)
        sys.stderr.write(self.stderr)
        return self.code


def true_report() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, C13.file)
        wl.set_up(wl.Workload("c13", (C13,), ()), 0, tmp)
        doc = cli.build_report(scheme_core.load_asc(path), C13.file).to_dict()
    return json.dumps(doc)


def test_verdicts() -> None:
    op = wl.report_ops((C13,))[0]
    good = true_report()
    _, problems = wl.run_op(FakeCli(good), op, time.perf_counter)
    assert problems == [], problems

    doc = json.loads(good)
    wrong_order = json.loads(good)
    for c in wrong_order["checks"]:
        if c["name"] == "frobenius-witness":
            c["detail"] = "witness of order 104 = 13 x 8, orbitals match"
    one_fail = json.loads(good)
    one_fail["checks"][3]["status"] = "fail"
    wrong_r = dict(doc, r=doc["r"] + 1)
    bad = [
        FakeCli(json.dumps(wrong_order)),
        FakeCli(json.dumps(one_fail)),
        FakeCli(json.dumps(wrong_r)),
        FakeCli(good, code=1),
        FakeCli(good, stderr="Traceback (most recent call last):\n  boom\n"),
        FakeCli(raises=RuntimeError("boom")),
        FakeCli("not json"),
    ]
    for fake in bad:
        _, problems = wl.run_op(fake, op, time.perf_counter)
        assert problems, "wrong output passed: %r" % fake.__dict__

    fission_op = wl.build_ops(C13)[-1]
    wrong_fission = {"distinguished": [0], "num_colors": 9, "num_fibers": C13.r,
                     "fibers": [], "semiregular_off": None, "complete": True}
    _, problems = wl.run_op(FakeCli(json.dumps(wrong_fission)), fission_op, time.perf_counter)
    assert problems, "a complete one-point fission passed"

    client = run.Client(wl.Workload("bad", (), (op, op)), seed=0)
    client.cli = FakeCli(json.dumps(one_fail))
    client.run_pass()
    assert (client.attempted, len(client.failures)) == (2, 2), client.failures


def traced_pass(threads: str, seed: int) -> tuple[run.Client, tracing.Tracer, dict]:
    os.environ["SCHEME_FORGE_THREADS"] = threads
    tracer = tracing.Tracer()
    client = run.Client(TINY, seed, tracer)
    tracer.install()
    try:
        result = client.run_pass()
    finally:
        tracer.uninstall()
    return client, tracer, result


def test_trace_covers_wall() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        wl.set_up(TINY, 5, tmp)
        os.chdir(tmp)
        try:
            serial = traced_pass("1", 5)
            pooled = traced_pass("2", 5)
        finally:
            os.chdir(cwd)
    for client, tracer, result in (serial, pooled):
        assert client.failures == [], client.failures
        assert cli.run.__name__ == "run" and not hasattr(cli.run, "__wrapped__")
        roots = [s for s in tracer.spans if s.parent is None]
        assert [s.name for s in roots] == ["cli.run"] * len(TINY.ops)
        layers = tracer.summary()
        total_self = sum(layers[m + ".self_s"] for m in tracing.SPANNED)
        wall = result["wall_s"]
        assert total_self >= 0.99 * wall, (total_self, wall)
        assert layers["groups.automorphism_group.calls"] == 1
        assert layers["fission.wl_stabilize.cells"] > 0
    client, tracer, result = serial
    total_self = sum(s.self_seconds() for s in tracer.spans)
    root_time = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    assert abs(total_self - root_time) < 1e-6, (total_self, root_time)
    assert result["wall_s"] - root_time < 0.01 * result["wall_s"]


def test_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


if __name__ == "__main__":
    for test in (test_verdicts, test_trace_covers_wall, test_benchmark_json):
        test()
        print("ok", test.__name__)
