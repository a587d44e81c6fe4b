"""Workload definitions, seeded inputs and the known-answer verdict checker.

Every instance is the orbital scheme of a Frobenius group Z_p^d x Z_4, so
its answers follow from the construction: n = p^d points, r = (n-1)/4 + 1
colors, common valency 4, a Frobenius witness of order 4n = n x 4, rows
forming a 2-(n,4,3) design with n(r-1) blocks, and a one-point fission
with r fibers that is semiregular off the split point but not complete.
No expected value here was copied from a run of the program.

Run as a script, this module is the benchmark's set-up step:

    python3 perfbench/workloads.py <workload> <seed> <work-dir> <src-dir>

It imports the program from <src-dir> and writes the workload's seeded
.asc inputs into <work-dir>; run.py times it in a fresh process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """The orbital scheme of Z_p^d extended by a scalar of order 4."""

    name: str
    p: int
    d: int = 1

    @property
    def n(self) -> int:
        return self.p**self.d

    @property
    def r(self) -> int:
        return (self.n - 1) // 4 + 1

    @property
    def file(self) -> str:
        return self.name + ".asc"

    def gen_argv(self, path: str) -> list[str]:
        if self.d == 1:
            return ["gen", "cyclotomic", "--p", str(self.p), "-o", path]
        return ["gen", "vector", "--p", str(self.p), "--d", str(self.d), "-o", path]


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `kind` selects its known-answer check."""

    kind: str
    argv: tuple[str, ...]
    instance: Instance

    @property
    def label(self) -> str:
        return "%s %s" % (self.kind, self.instance.name)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[Instance, ...]  # generated and written during set-up
    ops: tuple[Op, ...]  # one pass, run in order


Z5, Z13, Z17, Z29 = (Instance("z%d" % p, p) for p in (5, 13, 17, 29))
V25 = Instance("v25", 5, 2)
C53, C101, C197 = (Instance("c%d" % p, p) for p in (53, 101, 197))
V125 = Instance("v125", 5, 3)


def report_ops(instances) -> tuple[Op, ...]:
    return tuple(Op("report", ("report", i.file, "--json"), i) for i in instances)


def build_ops(instance: Instance) -> tuple[Op, ...]:
    f = instance.file
    return (
        Op("gen", tuple(instance.gen_argv(f)), instance),
        Op("check", ("check", f), instance),
        Op("props", ("props", f, "--json"), instance),
        Op("lemmas", ("lemmas", f, "--json"), instance),
        Op("design", ("design", f, "--json"), instance),
        Op("fission", ("fission", f, "--points", "0", "--json"), instance),
    )


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-small", (Z5, Z13, Z17, Z29, V25, C53),
                 report_ops((Z5, Z13, Z17, Z29, V25, C53))),
        Workload("report-mid", (C101, V125), report_ops((C101, V125))),
        Workload("build-large", (), build_ops(C197)),
    )
}


# --- seeded relabelling ---


def relabel_asc(path: str, seed: int) -> None:
    """Permute the points and the non-diagonal colors of an .asc file in place.

    Seed 0 keeps the generated labelling.  Every verdict the benchmark
    checks is invariant under relabelling, so the known answers hold.
    """
    if seed == 0:
        return
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    n, r = (int(v) for v in lines[0].split())
    color = np.array([row.split() for row in lines[1 : n + 1]], dtype=np.int64)
    name = os.path.basename(path).encode()
    rng = np.random.default_rng([seed, zlib.crc32(name)])
    points = rng.permutation(n)
    colors = np.concatenate(([0], 1 + rng.permutation(r - 1)))
    out = np.empty_like(color)
    out[np.ix_(points, points)] = colors[color]
    rows = [" ".join(map(str, row)) for row in out.tolist()]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("%d %d\n" % (n, r) + "\n".join(rows) + "\n")


def set_up(workload: Workload, seed: int, work_dir: str) -> None:
    """Generate, write and relabel the workload's inputs with the program's CLI."""
    from scheme_forge import cli

    for instance in workload.inputs:
        path = os.path.join(work_dir, instance.file)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(instance.gen_argv(path))
        if code != 0:
            raise RuntimeError("set-up: %s exited %s" % (" ".join(instance.gen_argv(path)), code))
        relabel_asc(path, seed)


# --- known-answer verdicts ---


def _check_report(doc, inst: Instance) -> list[str]:
    problems = []
    if (doc["n"], doc["r"], doc["k"]) != (inst.n, inst.r, 4):
        problems.append("n, r, k = %s, expected %s" % (
            (doc["n"], doc["r"], doc["k"]), (inst.n, inst.r, 4)))
    failed = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
    if failed:
        problems.append("failed checks: %s" % failed)
    witness = [c for c in doc["checks"] if c["name"] == "frobenius-witness"]
    expected = "witness of order %d = %d x 4, orbitals match" % (4 * inst.n, inst.n)
    if [(c["status"], c["detail"]) for c in witness] != [("pass", expected)]:
        problems.append("frobenius-witness is %s, expected pass: %s" % (witness, expected))
    return problems


def _check_props(doc, inst: Instance) -> list[str]:
    problems = []
    if (doc["n"], doc["r"], doc["k"]) != (inst.n, inst.r, 4):
        problems.append("n, r, k = %s" % ((doc["n"], doc["r"], doc["k"]),))
    if doc["pseudocyclic"] is not True:
        problems.append("not pseudocyclic")
    if doc["indistinguishing"] != [3] * (inst.r - 1):
        problems.append("indistinguishing numbers %s, expected all 3" % doc["indistinguishing"])
    return problems


def _check_lemmas(doc, inst: Instance) -> list[str]:
    return [] if doc["passed"] is True else ["lemmas failed: %s" % doc["violations"]]


def _check_design(doc, inst: Instance) -> list[str]:
    expected = {"n": inst.n, "blocks": inst.n * (inst.r - 1), "k": 4, "lambda": 3,
                "verified": True}
    return [] if doc == expected else ["design %s, expected %s" % (doc, expected)]


def _check_fission(doc, inst: Instance) -> list[str]:
    got = (doc["num_fibers"], doc["semiregular_off"], doc["complete"])
    if got != (inst.r, None, False):
        return ["num_fibers, semiregular_off, complete = %s, expected %s"
                % (got, (inst.r, None, False))]
    return []


_JSON_CHECKS = {
    "report": _check_report,
    "props": _check_props,
    "lemmas": _check_lemmas,
    "design": _check_design,
    "fission": _check_fission,
}


def verdict(op: Op, code, stdout: str, stderr: str, error: str | None) -> list[str]:
    """Problems with one op's outcome; an empty list means it passed."""
    if error is not None:
        return ["exception escaped run: %s" % error.strip().splitlines()[-1]]
    problems = []
    if code != 0:
        problems.append("exit code %r, expected 0" % (code,))
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    inst = op.instance
    if op.kind == "gen":
        expected = "wrote %s: n=%d r=%d\n" % (op.argv[-1], inst.n, inst.r)
        if stdout != expected:
            problems.append("gen printed %r, expected %r" % (stdout, expected))
    elif op.kind == "check":
        expected = "ok: n=%d r=%d k=4\n" % (inst.n, inst.r)
        if stdout != expected:
            problems.append("check printed %r, expected %r" % (stdout, expected))
    else:
        try:
            doc = json.loads(stdout)
            problems.extend(_JSON_CHECKS[op.kind](doc, inst))
        except (ValueError, KeyError, TypeError) as err:
            problems.append("unreadable %s output: %r" % (op.kind, err))
    return problems


def run_op(cli, op: Op, clock) -> tuple[float, list[str]]:
    """Run one op through cli.run in-process; return its seconds and problems."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(op.argv))
    except Exception:  # an escaping exception is a failed op, not a crashed run
        error = traceback.format_exc()
    seconds = clock() - start
    return seconds, verdict(op, code, out.getvalue(), err.getvalue(), error)


if __name__ == "__main__":
    name, seed, work_dir, src_dir = sys.argv[1:5]
    sys.path.insert(0, src_dir)
    set_up(WORKLOADS[name], int(seed), work_dir)
