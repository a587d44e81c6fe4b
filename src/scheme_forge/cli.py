"""Command line front end: generate, inspect and certify schemes.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 invalid
input file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import designs, fission, groups, planes, products, scheme_core
from .scheme_core import FormatError, Scheme, SchemeForgeError

NA = "n/a (hypothesis unmet)"

# what validate raises on a file that parsed: an axiom failure (exit 1);
# read_asc's own checks make validate's ValueErrors unreachable from a file
_AXIOM_ERRORS = (scheme_core.DiagonalViolation, scheme_core.DualViolation,
                 scheme_core.NonConstantIntersection)


class UsageError(Exception):
    """A command-line value is malformed, names a point the scheme lacks or
    names an output file that cannot be written."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    operation: str
    statement: str
    status: str
    detail: str


@dataclass(frozen=True)
class Report:
    source: str
    n: int
    r: int
    k: int | None
    checks: tuple[CheckResult, ...]

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "checks": [asdict(c) for c in self.checks],
            "summary": self.summary(),
        }

    def summary(self) -> dict:
        statuses = [c.status for c in self.checks]
        return {"pass": statuses.count("pass"), "fail": statuses.count("fail"),
                "n/a": statuses.count(NA)}


def _emit(args, payload, lines) -> None:
    """Print a command's result: its JSON payload under --json, else its text lines."""
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for line in lines:
            print(line)


# --- report context and checks ---


def _plane_base(scheme: Scheme, pp, sigma, s: int, alpha: int):
    """The base of the plane of color s at alpha: from sigma_alpha when there
    is one (so the plane's quarter turn is sigma's), else the first valid
    base; None when there is neither."""
    if sigma is not None:
        return planes.sigma_base(scheme, sigma, s, alpha)
    bases = planes.valid_bases(scheme, pp, s, alpha)
    return bases[0] if bases else None


def _origin_planes(ctx) -> dict:
    """The plane of each s3 color at point 0, or the detail of its failure,
    on the bases of _plane_base (so the rotation and the alignment checks
    read the same planes)."""
    scheme = ctx["scheme"]
    pp = ctx["pp"]
    bases = {s: _plane_base(scheme, pp, ctx["sigma"].get(0), s, 0) for s in sorted(pp.s3)}
    built = planes.build_planes(scheme, pp, {s: b for s, b in bases.items() if b is not None},
                                radius=ctx["radius"])
    out: dict = {}
    for s, base in bases.items():
        if base is None:
            out[s] = "color %d has no valid base at point 0" % s
        elif isinstance(built[s], SchemeForgeError):
            out[s] = "color %d: %s" % (s, built[s])
        else:
            out[s] = built[s]
    return out


# Each hypothesis a check may need: whether it holds on the report context,
# and the n/a detail when it does not, formatted with the context.
HYPOTHESES = {
    "even k": (lambda ctx: ctx["k"] is not None and ctx["k"] % 2 == 0,
               "no even common valency"),
    "symmetric": (lambda ctx: ctx["symmetric"], "scheme is not symmetric"),
    "k=4": (lambda ctx: ctx["k"] == 4, "needs common valency 4"),
    "k=4, r>=3": (lambda ctx: ctx["k"] == 4 and ctx["scheme"].r >= 3,
                  "needs common valency 4 and at least 2 non-diagonal colors"),
    "k=4, r>=4": (lambda ctx: ctx["k"] == 4 and ctx["scheme"].r >= 4,
                  "needs common valency 4 and at least 3 non-diagonal colors"),
    "r>=5": (lambda ctx: ctx["scheme"].r >= 5, "fewer than 4 non-diagonal colors"),
    "s3": (lambda ctx: ctx["pp"] is not None and bool(ctx["pp"].s3),
           "no color with a 2u+v square"),
    "aut": (lambda ctx: ctx["aut"] is not None, "skipped: {aut_error}"),
    "sigma at 0": (lambda ctx: ctx["sigma"].get(0) is not None,
                   "no rotation automorphism at point 0"),
}


def _automorphisms_or_error(ctx):
    """Aut, or None with the reason kept as ctx["aut_error"] for the n/a detail."""
    try:
        return groups.automorphism_group(ctx["scheme"], ctx["bound"])
    except groups.BoundExceeded as err:
        ctx["aut_error"] = err
        return None


def _orbit_points(ctx):
    """The least point of each orbit of Aut, or every point without it.

    An automorphism g carries sigma_alpha to its conjugate at g(alpha) and
    the fission at alpha onto the fission at g(alpha), so the per-point
    checks need one point per orbit."""
    if ctx["aut"] is None:
        return tuple(range(ctx["scheme"].n))
    return tuple(orbit[0] for orbit in groups.orbits(ctx["aut"]))


# (context key, hypotheses, value when one does not hold, builder), built in
# this order: a layer is skipped by the same predicates that make its checks n/a
LAYERS = (
    ("structure", ("k=4",), None, lambda ctx: products.verify_structure_lemmas(ctx["scheme"])),
    ("pp", ("k=4",), None, lambda ctx: ctx["structure"].pp),
    ("aut", ("k=4",), None, _automorphisms_or_error),
    ("points", ("k=4",), (), _orbit_points),
    ("sigma", ("aut", "s3"), {}, lambda ctx: {
        alpha: groups.sigma_alpha(ctx["scheme"], alpha, ctx["aut"]) for alpha in ctx["points"]}),
    ("planes", ("s3",), {}, _origin_planes),
    ("fissions", ("k=4, r>=3",), {}, lambda ctx: {
        alpha: fission.point_fission(ctx["scheme"], (alpha,), ctx["aut"]) for alpha in ctx["points"]}),
)


def _build_context(scheme: Scheme, source: str, bound: int, cutoff: int, radius: int) -> dict:
    ctx: dict = {
        "scheme": scheme,
        "source": source,
        "bound": bound,
        "cutoff": cutoff,
        "radius": radius,
        "k": scheme_core.is_k_equivalenced(scheme),
        "symmetric": scheme_core.is_symmetric(scheme),
        "aut_error": None,
    }
    for key, hypotheses, unmet, build in LAYERS:
        ctx[key] = build(ctx) if all(HYPOTHESES[h][0](ctx) for h in hypotheses) else unmet
    return ctx


def _from_structure(key, ctx):
    report = ctx["structure"]
    bad = [v for v in report.violations if v.startswith(key + ":")]
    if bad:
        return "fail", "; ".join(bad)
    return "pass", "%d instances checked" % report.checked.get(key, 0)


def _check_axioms(ctx):
    s = ctx["scheme"]
    return "pass", "n=%d r=%d, intersection numbers constant" % (s.n, s.r)


def _check_four_equivalenced(ctx):
    k = ctx["k"]
    if k == 4:
        return "pass", "every non-diagonal valency is 4"
    return NA, "valencies are %s" % ("mixed" if k is None else "all %d" % k)


def _check_even_symmetry(ctx):
    k = ctx["k"]
    if ctx["symmetric"]:
        return "pass", "k=%d even and every color is self-dual" % k
    return "fail", "k=%d even but some color differs from its dual" % k


def _check_commutative(ctx):
    if scheme_core.is_commutative(ctx["scheme"]):
        return "pass", "c(s,t,u) = c(t,s,u) throughout"
    return "fail", "a pair of colors fails to commute"


def _check_pseudocyclic(ctx):
    s = ctx["scheme"]
    values = [scheme_core.indistinguishing_number(s, c) for c in s.nondiagonal()]
    if all(v == 3 for v in values):
        return "pass", "every indistinguishing number equals 3"
    return "fail", "indistinguishing numbers %s" % values


def _check_dichotomy(ctx):
    if ctx["pp"] is None:
        status, detail = _from_structure("square-dichotomy", ctx)
        return status, detail.removeprefix("square-dichotomy: ")
    pp = ctx["pp"]
    return "pass", "|s2|=%d |s3|=%d" % (len(pp.s2), len(pp.s3))


def _check_sigma_alpha(ctx):
    missing = [alpha for alpha in ctx["points"] if ctx["sigma"].get(alpha) is None]
    if missing:
        return "fail", "no rotation automorphism at points %s" % missing
    return "pass", "rotation automorphism at %d points" % ctx["scheme"].n


def _check_plane_rotation(ctx):
    for s, plane in ctx["planes"].items():
        if isinstance(plane, str):
            return "fail", plane
        if not planes.check_rotation_invariance(ctx["scheme"], plane):
            return "fail", "color %d breaks rotation invariance" % s
    return "pass", "%d planes at radius %d, both axes use the two-step rule" % (
        len(ctx["planes"]),
        ctx["radius"],
    )


def _check_plane_alignment(ctx):
    sigma = np.asarray(ctx["sigma"][0])
    for s, plane in ctx["planes"].items():
        if isinstance(plane, str):
            return "fail", plane
        cell = planes.misaligned_cell(plane, sigma)
        if cell is not None:
            return "fail", "color %d cell %s" % (s, (cell,))
    return "pass", "sigma carries grid(i,j) to grid(-j,i) for all cells"


def _check_rigidity(ctx):
    if groups.two_point_rigidity(ctx["scheme"], ctx["aut"]):
        return "pass", "only the identity fixes two points"
    return "fail", "a non-identity automorphism fixes two points"


def _check_witness(ctx):
    if groups.frobenius_witness(ctx["scheme"], ctx["aut"]) is None:
        return "fail", "no Frobenius subgroup reproduces the colors"
    # the lemma in frobenius_witness gives kernel n and stabiliser 4
    n = ctx["scheme"].n
    return "pass", "witness of order %d = %d x 4, orbitals match" % (4 * n, n)


def _check_semiregular(ctx):
    for alpha in ctx["points"]:
        if not fission.is_semiregular_off(ctx["fissions"][alpha], alpha):
            return "fail", "fission at point %d is not semiregular" % alpha
    return "pass", "semiregular off each of %d split points" % ctx["scheme"].n


def _check_fiber_rows(ctx):
    scheme = ctx["scheme"]
    for alpha in ctx["points"]:
        if not fission.fibers_refine_rows(scheme, ctx["fissions"][alpha], alpha):
            return "fail", "a fiber at point %d straddles two rows" % alpha
    return "pass", "fibers sit inside single rows at %d split points" % scheme.n


def _check_base_number(ctx):
    scheme = ctx["scheme"]
    pp = ctx["pp"]
    if pp is not None and pp.s2 and scheme.r >= 3:
        # every row of a scheme holds every color, and s2 holds no diagonal one
        pair = (0, int(np.flatnonzero(np.isin(scheme.color[0], list(pp.s2)))[0]))
        if not fission.point_fission(scheme, pair, ctx["aut"]).is_complete:
            return "fail", "pair %s does not complete" % (pair,)
        # one fission per orbit covers every point
        if any(cc.is_complete for cc in ctx["fissions"].values()):
            return "fail", "pair completes but single points were not ruled out"
        return "pass", "base number 2, witness pair %s of color %d" % (
            pair,
            int(scheme.color[pair]),
        )
    try:
        size, witness = fission.find_base(scheme, ctx["cutoff"], group=ctx["aut"],
                                          fissions=ctx["fissions"])
    except fission.CutoffExceeded:
        return NA, "recorded: base number exceeds cutoff %d" % ctx["cutoff"]
    return NA, "recorded: base number %d, witness %s (no doubled-square color)" % (
        size,
        witness,
    )


def _check_design(ctx):
    design = designs.scheme_to_design(ctx["scheme"])
    if designs.verify_design(design, k=4, lam=3):
        return "pass", "%d blocks, every pair in exactly 3" % len(design.blocks)
    return "fail", "%d blocks fail the 2-design count" % len(design.blocks)


# (name, operation, statement, hypotheses in the order they are tested, check)
CHECKS = (
    ("scheme-axioms", "validate",
     "diagonal color, dual pairing and constant intersection numbers", (), _check_axioms),
    ("four-equivalenced", "is_k_equivalenced",
     "every non-diagonal relation has valency 4", (), _check_four_equivalenced),
    ("even-valency-symmetry", "is_symmetric",
     "an even common valency forces every relation to be self-paired", ("even k",),
     _check_even_symmetry),
    ("symmetry-commutativity", "is_commutative",
     "symmetric schemes are commutative", ("symmetric",), _check_commutative),
    ("pseudocyclic", "is_pseudocyclic",
     "common valency 4 forces every indistinguishing number to be 3", ("k=4",),
     _check_pseudocyclic),
    ("square-dichotomy", "phi_psi",
     "each color square is 4*1 + 3s or 4*1 + 2u + v", ("k=4",), _check_dichotomy),
    ("product-trichotomy", "product_class",
     "distinct-color products take one of three shapes decided by phi", ("k=4",),
     functools.partial(_from_structure, "product-trichotomy")),
    ("phi-psi-bijections", "verify_structure_lemmas",
     "phi and psi permute the 2u+v colors with psi = phi o phi", ("k=4",),
     functools.partial(_from_structure, "phi-psi-bijections")),
    ("four-product-partner", "complex_product",
     "with at least 4 non-diagonal colors, every color has a partner with a 4-element product",
     ("k=4", "r>=5"), functools.partial(_from_structure, "four-product-partner")),
    ("independent-product-split", "wr",
     "colors with disjoint closures multiply into 4 new colors", ("k=4",),
     functools.partial(_from_structure, "independent-product-split")),
    ("split-intersection-bound", "complex_product",
     "phi-image and psi-image products of independent pairs share at most one color",
     ("k=4",), functools.partial(_from_structure, "split-intersection-bound")),
    ("sigma-alpha", "sigma_alpha",
     "each point admits an order-4 automorphism rotating its rows", ("s3", "aut"),
     _check_sigma_alpha),
    ("plane-rotation", "check_rotation_invariance",
     "colors from the origin are constant on quarter-turn orbits of the plane", ("s3",),
     _check_plane_rotation),
    ("plane-alignment", "build_plane",
     "the rotation automorphism carries plane cell (i,j) to cell (-j,i)",
     ("s3", "sigma at 0"), _check_plane_alignment),
    ("two-point-rigidity", "two_point_rigidity",
     "an automorphism fixing two points is the identity", ("k=4, r>=4", "aut"),
     _check_rigidity),
    ("frobenius-witness", "frobenius_witness",
     "some Frobenius permutation group has exactly these orbitals", ("k=4", "aut"),
     _check_witness),
    ("fission-semiregularity", "is_semiregular_off",
     "individualizing one point leaves a semiregular configuration off it", ("k=4, r>=3",),
     _check_semiregular),
    ("fission-fiber-rows", "point_fission",
     "fibers of a one-point fission refine that point's relation rows", ("k=4, r>=3",),
     _check_fiber_rows),
    ("base-number", "base_number",
     "two points, one pair with a doubled-square color, force the discrete fission",
     ("k=4",), _check_base_number),
    ("block-design", "verify_design",
     "relation rows form a 2-design with block size 4 and pair count 3", ("k=4",),
     _check_design),
)


def build_report(scheme: Scheme, source: str, bound: int = groups.DEFAULT_BOUND,
                 cutoff: int = fission.DEFAULT_CUTOFF,
                 radius: int = planes.DEFAULT_RADIUS) -> Report:
    """Run every registered check in registry order; a check whose
    hypotheses do not all hold is n/a with the first unmet one's detail."""
    ctx = _build_context(scheme, source, bound, cutoff, radius)
    results = []
    for name, operation, statement, hypotheses, check in CHECKS:
        unmet = [text for holds, text in map(HYPOTHESES.__getitem__, hypotheses)
                 if not holds(ctx)]
        status, detail = (NA, unmet[0].format_map(ctx)) if unmet else check(ctx)
        results.append(CheckResult(name, operation, statement, status, detail))
    return Report(source, scheme.n, scheme.r, ctx["k"], tuple(results))


def _report_lines(report: Report) -> list[str]:
    tags = {"pass": "pass", "fail": "FAIL"}
    counts = report.summary()
    return ["scheme: %s  n=%d r=%d k=%s" % (report.source, report.n, report.r, report.k),
            *("[%s] %-26s %s" % (tags.get(c.status, " n/a"), c.name, c.detail)
              for c in report.checks),
            "summary: %d pass / %d fail / %d n/a" % (counts["pass"], counts["fail"], counts["n/a"])]


# --- subcommands ---


def _parse_points(text: str, n: int) -> tuple[int, ...]:
    try:
        points = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError("%r is not a comma-separated list of points" % text) from None
    if not all(0 <= p < n for p in points):
        raise UsageError("points must lie in 0..%d, got %s" % (n - 1, text))
    return points


def _save(save, obj, path) -> None:
    """Write obj to path; a failed write is a usage error, not bad input."""
    try:
        save(obj, path)
    except OSError as err:
        raise UsageError("cannot write %s: %s" % (path, err.strerror)) from None


def _cmd_gen(args) -> int:
    if args.family == "cyclotomic":
        group = groups.cyclotomic_frobenius(args.p)
    elif args.d < 1:
        raise UsageError("--d must be at least 1")
    else:
        group = groups.vector_frobenius(args.p, args.d)
    scheme = groups.orbital_scheme(group)
    if args.group_out:
        _save(groups.save_perm, group, args.group_out)
    if args.out:
        _save(scheme_core.save_asc, scheme, args.out)
        print("wrote %s: n=%d r=%d" % (args.out, scheme.n, scheme.r))
    else:
        sys.stdout.write(scheme_core.write_asc(scheme))
    return 0


def _cmd_check(args) -> int:
    try:
        scheme = scheme_core.load_asc(args.file)
    except _AXIOM_ERRORS as err:
        print("invalid: %s: %s" % (type(err).__name__, err))
        return 1
    print("ok: n=%d r=%d k=%s" % (scheme.n, scheme.r, scheme_core.is_k_equivalenced(scheme)))
    return 0


def _cmd_props(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    k = scheme_core.is_k_equivalenced(scheme)
    payload = {
        "n": scheme.n,
        "r": scheme.r,
        "k": k,
        "valencies": [int(v) for v in scheme.valencies],
        "dual": [int(v) for v in scheme.dual],
        "symmetric": scheme_core.is_symmetric(scheme),
        "commutative": scheme_core.is_commutative(scheme),
        "pseudocyclic": scheme_core.is_pseudocyclic(scheme),
        "indistinguishing": [
            scheme_core.indistinguishing_number(scheme, s) for s in scheme.nondiagonal()
        ],
    }
    if k == 4:
        try:
            pp = products.phi_psi(scheme)
            payload["s2"] = sorted(pp.s2)
            payload["s3"] = sorted(pp.s3)
            payload["phi"] = list(pp.phi)
            payload["psi"] = list(pp.psi)
        except SchemeForgeError as err:
            payload["phi_psi_error"] = str(err)
    _emit(args, payload, ["%s: %s" % (key, payload[key]) for key in sorted(payload)])
    return 0


def _cmd_lemmas(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    report = products.verify_structure_lemmas(scheme)
    payload = {
        "checked": report.checked,
        "violations": report.violations,
        "passed": report.passed,
    }
    lines = ["%s: %d checked" % (key, report.checked[key]) for key in sorted(report.checked)]
    lines += ["violation: %s" % v for v in report.violations]
    _emit(args, payload, lines + ["passed" if report.passed else "failed"])
    return 0 if report.passed else 1


def _cmd_plane(args) -> int:
    # every argument is checked before phi/psi, which builds the tensor
    if args.radius < 1:
        raise UsageError("--radius must be at least 1")
    scheme = scheme_core.load_asc(args.file)
    (alpha,) = _parse_points(str(args.alpha), scheme.n)
    if not 0 < args.s < scheme.r:
        raise UsageError("--s must be a non-diagonal color in 1..%d" % (scheme.r - 1))
    base = None
    if args.base:
        parts = _parse_points(args.base, scheme.n)
        if len(parts) != 4:
            raise UsageError("--base needs four points: beta,gamma,delta,epsilon")
        base = (alpha, *parts)
    pp = products.phi_psi(scheme)
    if base is None:
        aut = _automorphisms(scheme, args.bound)
        sigma = None if aut is None else groups.sigma_alpha(scheme, alpha, aut)
        base = _plane_base(scheme, pp, sigma, args.s, alpha)
        if base is None:
            _emit(args, {"s": args.s, "alpha": alpha, "error": "no valid base"},
                  ["no valid base for color %d at point %d" % (args.s, alpha)])
            return 1
    plane = planes.build_plane(scheme, pp, args.s, *base, radius=args.radius)
    invariant = planes.check_rotation_invariance(scheme, plane)
    center = len(plane.grid) // 2
    payload = {
        "s": plane.s,
        "base": list(plane.base),
        "radius": args.radius,
        "cells": {"%d,%d" % (i - center, j - center): int(point)
                  for (i, j), point in np.ndenumerate(plane.grid) if point >= 0},
        "rotation_invariant": invariant,
        "axis_rule": "both axes extend by the two-step recurrence",
    }
    lines = ["plane for color %d, base %s" % (plane.s, list(plane.base)),
             "axis rule: both axes extend by the two-step recurrence"]
    # one printed row per j, from the top, with i from the left
    lines += [" ".join("%4d" % point if point >= 0 else "   ." for point in row)
              for row in plane.grid.T[::-1]]
    _emit(args, payload, lines + ["rotation invariance: %s" % ("pass" if invariant else "FAIL")])
    return 0 if invariant else 1


def _automorphisms(scheme: Scheme, bound: int = groups.DEFAULT_BOUND):
    """Aut, or None past bound: the commands that use Aut only to go faster
    or to pick a base fall back to working without it."""
    try:
        return groups.automorphism_group(scheme, bound)
    except groups.BoundExceeded:
        return None


def _cmd_fission(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    delta = sorted(set(_parse_points(args.points, scheme.n)))
    cc = fission.point_fission(scheme, delta, _automorphisms(scheme))
    fibers = cc.fibers
    # point_fission gives every split point a fiber of its own
    off = next((a for a in delta if not fission.is_semiregular_off(cc, a)), None)
    payload = {
        "distinguished": delta,
        "num_colors": cc.num_colors,
        "num_fibers": len(fibers),
        "fibers": [list(f) for f in fibers],
        "semiregular_off": off,
        "complete": cc.is_complete,
    }
    lines = ["distinguished: %s" % (delta,), "colors: %d  fibers: %d" % (cc.num_colors, len(fibers))]
    lines += ["fiber: %s" % (list(fiber),) for fiber in fibers]
    lines.append("complete: %s" % cc.is_complete)
    lines.append("semiregular off every split point" if off is None
                 else "not semiregular off point %d" % off)
    _emit(args, payload, lines)
    return 0


def _cmd_base(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    try:
        size, witness = fission.find_base(scheme, args.cutoff, group=_automorphisms(scheme))
    except fission.CutoffExceeded as err:
        _emit(args, {"cutoff": args.cutoff, "error": str(err)},
              ["base number exceeds cutoff %d" % args.cutoff])
        return 1
    _emit(args, {"base_number": size, "witness": list(witness)},
          ["base number: %d  witness: %s" % (size, list(witness))])
    return 0


def _cmd_aut(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    group = groups.automorphism_group(scheme, args.bound)
    order = groups.group_order(group)
    if args.out:
        _save(groups.save_perm, group, args.out)
    _emit(args, {"order": order, "generators": [list(g) for g in group.generators]},
          ["order: %d" % order, *(" ".join(str(v) for v in g) for g in group.generators)])
    return 0


def _cmd_frobenius(args) -> int:
    if args.file.endswith(".perm"):
        group = groups.load_perm(args.file)
        elems = groups.enumerate_elements(group, args.bound)
        verdict = groups.is_frobenius(elems, group.degree)
        _emit(args, {"frobenius": verdict, "order": len(elems)}, ["frobenius: %s" % verdict])
        return 0 if verdict else 1
    scheme = scheme_core.load_asc(args.file)
    witness = groups.frobenius_witness(scheme, groups.automorphism_group(scheme, args.bound))
    if witness is None:
        _emit(args, {"witness": None}, ["no Frobenius witness found"])
        return 1
    n = scheme.n  # kernel n, stabiliser 4, orbitals the colors: the lemma
    _emit(args, {"order": 4 * n, "kernel_size": n, "stabilizer_order": 4,
                 "orbital_match": True, "generators": [list(g) for g in witness.generators]},
          ["witness order %d = %d x 4, orbitals match: True" % (4 * n, n)])
    return 0


def _cmd_design(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    design = designs.scheme_to_design(scheme)
    ok = designs.verify_design(design, k=4, lam=3)
    _emit(args, {"n": design.n, "blocks": len(design.blocks), "k": 4, "lambda": 3, "verified": ok},
          ["design on %d points, %d blocks of size 4: %s"
           % (design.n, len(design.blocks), "pass" if ok else "FAIL")])
    return 0 if ok else 1


def _cmd_report(args) -> int:
    if args.radius < 1:
        raise UsageError("--radius must be at least 1")
    try:
        scheme = scheme_core.load_asc(args.file)
    except _AXIOM_ERRORS as err:
        name, operation, statement, *_ = CHECKS[0]
        detail = "%s: %s" % (type(err).__name__, err)
        failure = Report(
            args.file, 0, 0, None, (CheckResult(name, operation, statement, "fail", detail),)
        )
        _emit(args, failure.to_dict(), _report_lines(failure))
        return 1
    report = build_report(scheme, args.file, args.bound, args.cutoff, args.radius)
    _emit(args, report.to_dict(), _report_lines(report))
    return 1 if any(c.status == "fail" for c in report.checks) else 0


@functools.cache  # built once: a parser is ~190 objects in reference cycles
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scheme-forge",
        description="construct, verify and dissect 4-equivalenced association schemes",
    )
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("gen", help="generate a scheme from a group construction")
    gensub = gen.add_subparsers(dest="family")
    cyc = gensub.add_parser("cyclotomic", help="prime field, least multiplier of order 4")
    cyc.add_argument("--p", type=int, required=True)
    vec = gensub.add_parser("vector", help="prime-power vector space, scalar of order 4")
    vec.add_argument("--p", type=int, required=True)
    vec.add_argument("--d", type=int, required=True)
    for g in (cyc, vec):
        g.add_argument("-o", "--output", dest="out", default=None)
        g.add_argument("--group-out", default=None)
        g.set_defaults(func=_cmd_gen)

    def _file_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    check = sub.add_parser("check", help="validate a scheme file")
    check.add_argument("file")
    check.set_defaults(func=_cmd_check)

    _file_cmd("props", _cmd_props, "print scheme invariants")
    _file_cmd("lemmas", _cmd_lemmas, "run the product structure sweep")

    plane = _file_cmd("plane", _cmd_plane, "build and print a coordinate plane")
    plane.add_argument("--s", type=int, required=True)
    plane.add_argument("--alpha", type=int, default=0)
    plane.add_argument("--radius", type=int, default=planes.DEFAULT_RADIUS)
    plane.add_argument("--base", default=None, help="beta,gamma,delta,epsilon")
    plane.add_argument("--bound", type=int, default=groups.DEFAULT_BOUND)

    fis = _file_cmd("fission", _cmd_fission, "individualize points and stabilize")
    fis.add_argument("--points", required=True, help="comma-separated point list")

    base = _file_cmd("base", _cmd_base, "smallest point set with a complete fission")
    base.add_argument("--cutoff", type=int, default=fission.DEFAULT_CUTOFF)

    aut = _file_cmd("aut", _cmd_aut, "automorphism group by a base-driven search")
    aut.add_argument("--bound", type=int, default=groups.DEFAULT_BOUND)
    aut.add_argument("-o", "--output", dest="out", default=None,
                     help="write generators to a .perm file")

    frob = _file_cmd("frobenius", _cmd_frobenius, "Frobenius witness (.asc) or check (.perm)")
    frob.add_argument("--bound", type=int, default=groups.DEFAULT_BOUND)

    _file_cmd("design", _cmd_design, "rows as blocks of a 2-design")

    report = _file_cmd("report", _cmd_report, "run every applicable verifier")
    report.add_argument("--bound", type=int, default=groups.DEFAULT_BOUND)
    report.add_argument("--cutoff", type=int, default=fission.DEFAULT_CUTOFF)
    report.add_argument("--radius", type=int, default=planes.DEFAULT_RADIUS)

    return parser


def _check_limits(args) -> None:
    """--bound and --cutoff, where a command takes them, are counts."""
    if getattr(args, "bound", 1) < 1:
        raise UsageError("--bound must be at least 1")
    if getattr(args, "cutoff", 0) < 0:
        raise UsageError("--cutoff must be at least 0")


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    func = getattr(args, "func", None)
    if func is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _check_limits(args)
        return func(args)
    except UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 2
    except FormatError as err:
        print("bad input file: %s" % err, file=sys.stderr)
        return 3
    except OSError as err:
        print("cannot read input: %s" % err, file=sys.stderr)
        return 3
    except SchemeForgeError as err:
        print("%s: %s" % (type(err).__name__, err), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
