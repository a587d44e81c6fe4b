"""Command line front end: generate, inspect and certify schemes.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 invalid
input file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

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
            "checks": [
                {
                    "name": c.name,
                    "operation": c.operation,
                    "statement": c.statement,
                    "status": c.status,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "summary": {
                "pass": sum(1 for c in self.checks if c.status == "pass"),
                "fail": sum(1 for c in self.checks if c.status == "fail"),
                "n/a": sum(1 for c in self.checks if c.status == NA),
            },
        }


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# --- report context and checks ---


def _build_context(scheme: Scheme, source: str, bound: int, cutoff: int, radius: int) -> dict:
    ctx: dict = {
        "scheme": scheme,
        "source": source,
        "cutoff": cutoff,
        "radius": radius,
        "k": scheme_core.is_k_equivalenced(scheme),
        "symmetric": scheme_core.is_symmetric(scheme),
    }
    ctx["pp"] = None
    ctx["structure"] = None
    ctx["aut"] = None
    ctx["aut_error"] = None
    ctx["sigma"] = {}
    ctx["planes"] = {}
    ctx["fissions"] = {}
    if ctx["k"] == 4:
        ctx["structure"] = products.verify_structure_lemmas(scheme)
        ctx["pp"] = ctx["structure"].pp
        try:
            ctx["aut"] = groups.automorphism_group(scheme, bound)
        except groups.BoundExceeded as err:
            ctx["aut_error"] = err
        # An automorphism g carries sigma_alpha to its conjugate at g(alpha)
        # and the fission at alpha onto the fission at g(alpha), so the
        # per-point checks need one point per orbit; without the group,
        # every point is its own orbit.
        if ctx["aut"] is None:
            ctx["points"] = tuple(range(scheme.n))
        else:
            ctx["points"] = tuple(orbit[0] for orbit in groups.orbits(ctx["aut"]))
        if ctx["aut"] is not None and ctx["pp"] is not None and ctx["pp"].s3:
            for alpha in ctx["points"]:
                ctx["sigma"][alpha] = groups.sigma_alpha(scheme, alpha, ctx["aut"])
        if ctx["pp"] is not None and ctx["pp"].s3:
            ctx["planes"] = _origin_planes(ctx)
        if scheme.r >= 3:
            for alpha in ctx["points"]:
                ctx["fissions"][alpha] = fission.point_fission(scheme, (alpha,), ctx["aut"])
    else:
        ctx["points"] = ()
    return ctx


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
    out: dict = {}
    for s in sorted(pp.s3):
        base = _plane_base(scheme, pp, ctx["sigma"].get(0), s, 0)
        if base is None:
            out[s] = "color %d has no valid base at point 0" % s
            continue
        try:
            out[s] = planes.build_plane(scheme, pp, s, *base, radius=ctx["radius"])
        except SchemeForgeError as err:
            out[s] = "color %d: %s" % (s, err)
    return out


def _from_structure(ctx, key):
    report = ctx["structure"]
    if report is None:
        return NA, "needs common valency 4"
    bad = [v for v in report.violations if v.startswith(key + ":")]
    count = report.checked.get(key, 0)
    if bad:
        return "fail", "; ".join(bad)
    return "pass", "%d instances checked" % count


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
    if k is None or k % 2 != 0:
        return NA, "no even common valency"
    if ctx["symmetric"]:
        return "pass", "k=%d even and every color is self-dual" % k
    return "fail", "k=%d even but some color differs from its dual" % k


def _check_commutative(ctx):
    if not ctx["symmetric"]:
        return NA, "scheme is not symmetric"
    if scheme_core.is_commutative(ctx["scheme"]):
        return "pass", "c(s,t,u) = c(t,s,u) throughout"
    return "fail", "a pair of colors fails to commute"


def _check_pseudocyclic(ctx):
    if ctx["k"] != 4:
        return NA, "needs common valency 4"
    s = ctx["scheme"]
    values = [scheme_core.indistinguishing_number(s, c) for c in s.nondiagonal()]
    if all(v == 3 for v in values):
        return "pass", "every indistinguishing number equals 3"
    return "fail", "indistinguishing numbers %s" % values


def _check_dichotomy(ctx):
    if ctx["k"] != 4:
        return NA, "needs common valency 4"
    if ctx["pp"] is None:
        status, detail = _from_structure(ctx, "square-dichotomy")
        return status, detail.removeprefix("square-dichotomy: ")
    pp = ctx["pp"]
    return "pass", "|s2|=%d |s3|=%d" % (len(pp.s2), len(pp.s3))


def _check_trichotomy(ctx):
    return _from_structure(ctx, "product-trichotomy")


def _check_bijections(ctx):
    return _from_structure(ctx, "phi-psi-bijections")


def _check_partner(ctx):
    if ctx["structure"] is None:
        return NA, "needs common valency 4"
    if ctx["scheme"].r < 5:
        return NA, "fewer than 4 non-diagonal colors"
    return _from_structure(ctx, "four-product-partner")


def _check_independent_split(ctx):
    return _from_structure(ctx, "independent-product-split")


def _check_split_bound(ctx):
    return _from_structure(ctx, "split-intersection-bound")


def _check_sigma_alpha(ctx):
    pp = ctx["pp"]
    if pp is None or not pp.s3:
        return NA, "no color with a 2u+v square"
    if ctx["aut"] is None:
        return NA, "skipped: %s" % ctx["aut_error"]
    missing = [alpha for alpha in ctx["points"] if ctx["sigma"].get(alpha) is None]
    if missing:
        return "fail", "no rotation automorphism at points %s" % missing
    return "pass", "rotation automorphism at %d points" % ctx["scheme"].n


def _check_plane_rotation(ctx):
    pp = ctx["pp"]
    if pp is None or not pp.s3:
        return NA, "no color with a 2u+v square"
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
    pp = ctx["pp"]
    if pp is None or not pp.s3:
        return NA, "no color with a 2u+v square"
    sigma = ctx["sigma"].get(0)
    if sigma is None:
        return NA, "no rotation automorphism at point 0"
    sigma = np.asarray(sigma)
    for s, plane in ctx["planes"].items():
        if isinstance(plane, str):
            return "fail", plane
        cell = planes.misaligned_cell(plane, sigma)
        if cell is not None:
            return "fail", "color %d cell %s" % (s, (cell,))
    return "pass", "sigma carries grid(i,j) to grid(-j,i) for all cells"


def _check_rigidity(ctx):
    if ctx["k"] != 4 or ctx["scheme"].r < 4:
        return NA, "needs common valency 4 and at least 3 non-diagonal colors"
    if ctx["aut"] is None:
        return NA, "skipped: %s" % ctx["aut_error"]
    if groups.two_point_rigidity(ctx["scheme"], ctx["aut"]):
        return "pass", "only the identity fixes two points"
    return "fail", "a non-identity automorphism fixes two points"


def _check_witness(ctx):
    if ctx["k"] != 4:
        return NA, "needs common valency 4"
    if ctx["aut"] is None:
        return NA, "skipped: %s" % ctx["aut_error"]
    if groups.frobenius_witness(ctx["scheme"], ctx["aut"]) is None:
        return "fail", "no Frobenius subgroup reproduces the colors"
    # the lemma in frobenius_witness gives kernel n and stabiliser 4
    n = ctx["scheme"].n
    return "pass", "witness of order %d = %d x 4, orbitals match" % (4 * n, n)


def _check_semiregular(ctx):
    if ctx["k"] != 4 or ctx["scheme"].r < 3:
        return NA, "needs common valency 4 and at least 2 non-diagonal colors"
    for alpha in ctx["points"]:
        if not fission.is_semiregular_off(ctx["fissions"][alpha], alpha):
            return "fail", "fission at point %d is not semiregular" % alpha
    return "pass", "semiregular off each of %d split points" % ctx["scheme"].n


def _check_fiber_rows(ctx):
    if ctx["k"] != 4 or ctx["scheme"].r < 3:
        return NA, "needs common valency 4 and at least 2 non-diagonal colors"
    scheme = ctx["scheme"]
    for alpha in ctx["points"]:
        if not fission.fibers_refine_rows(scheme, ctx["fissions"][alpha], alpha):
            return "fail", "a fiber at point %d straddles two rows" % alpha
    return "pass", "fibers sit inside single rows at %d split points" % scheme.n


def _check_base_number(ctx):
    if ctx["k"] != 4:
        return NA, "needs common valency 4"
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
        size, witness = fission.find_base(
            scheme, ctx["cutoff"], group=ctx["aut"], fissions=ctx["fissions"], pp=pp
        )
    except fission.CutoffExceeded:
        return NA, "recorded: base number exceeds cutoff %d" % ctx["cutoff"]
    return NA, "recorded: base number %d, witness %s (no doubled-square color)" % (
        size,
        witness,
    )


def _check_design(ctx):
    if ctx["k"] != 4:
        return NA, "needs common valency 4"
    design = designs.scheme_to_design(ctx["scheme"])
    if designs.verify_design(design, k=4, lam=3):
        return "pass", "%d blocks, every pair in exactly 3" % len(design.blocks)
    return "fail", "%d blocks fail the 2-design count" % len(design.blocks)


CHECKS = (
    ("scheme-axioms", "validate",
     "diagonal color, dual pairing and constant intersection numbers", _check_axioms),
    ("four-equivalenced", "is_k_equivalenced",
     "every non-diagonal relation has valency 4", _check_four_equivalenced),
    ("even-valency-symmetry", "is_symmetric",
     "an even common valency forces every relation to be self-paired", _check_even_symmetry),
    ("symmetry-commutativity", "is_commutative",
     "symmetric schemes are commutative", _check_commutative),
    ("pseudocyclic", "is_pseudocyclic",
     "common valency 4 forces every indistinguishing number to be 3", _check_pseudocyclic),
    ("square-dichotomy", "phi_psi",
     "each color square is 4*1 + 3s or 4*1 + 2u + v", _check_dichotomy),
    ("product-trichotomy", "product_class",
     "distinct-color products take one of three shapes decided by phi", _check_trichotomy),
    ("phi-psi-bijections", "verify_structure_lemmas",
     "phi and psi permute the 2u+v colors with psi = phi o phi", _check_bijections),
    ("four-product-partner", "complex_product",
     "with at least 4 non-diagonal colors, every color has a partner with a 4-element product",
     _check_partner),
    ("independent-product-split", "wr",
     "colors with disjoint closures multiply into 4 new colors", _check_independent_split),
    ("split-intersection-bound", "complex_product",
     "phi-image and psi-image products of independent pairs share at most one color",
     _check_split_bound),
    ("sigma-alpha", "sigma_alpha",
     "each point admits an order-4 automorphism rotating its rows", _check_sigma_alpha),
    ("plane-rotation", "check_rotation_invariance",
     "colors from the origin are constant on quarter-turn orbits of the plane",
     _check_plane_rotation),
    ("plane-alignment", "build_plane",
     "the rotation automorphism carries plane cell (i,j) to cell (-j,i)", _check_plane_alignment),
    ("two-point-rigidity", "two_point_rigidity",
     "an automorphism fixing two points is the identity", _check_rigidity),
    ("frobenius-witness", "frobenius_witness",
     "some Frobenius permutation group has exactly these orbitals", _check_witness),
    ("fission-semiregularity", "is_semiregular_off",
     "individualizing one point leaves a semiregular configuration off it", _check_semiregular),
    ("fission-fiber-rows", "point_fission",
     "fibers of a one-point fission refine that point's relation rows", _check_fiber_rows),
    ("base-number", "base_number",
     "two points, one pair with a doubled-square color, force the discrete fission",
     _check_base_number),
    ("block-design", "verify_design",
     "relation rows form a 2-design with block size 4 and pair count 3", _check_design),
)


def build_report(scheme: Scheme, source: str, bound: int = groups.DEFAULT_BOUND,
                 cutoff: int = fission.DEFAULT_CUTOFF,
                 radius: int = planes.DEFAULT_RADIUS) -> Report:
    """Run every registered check in registry order."""
    ctx = _build_context(scheme, source, bound, cutoff, radius)
    results = tuple(
        CheckResult(name, operation, statement, *func(ctx))
        for name, operation, statement, func in CHECKS
    )
    return Report(source, scheme.n, scheme.r, ctx["k"], results)


def _print_report(report: Report) -> None:
    print("scheme: %s  n=%d r=%d k=%s" % (report.source, report.n, report.r, report.k))
    for c in report.checks:
        tag = {"pass": "pass", "fail": "FAIL"}.get(c.status, " n/a")
        print("[%s] %-26s %s" % (tag, c.name, c.detail))
    counts = report.to_dict()["summary"]
    print("summary: %d pass / %d fail / %d n/a" % (counts["pass"], counts["fail"], counts["n/a"]))


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
    if args.json:
        _emit_json(payload)
    else:
        for key in sorted(payload):
            print("%s: %s" % (key, payload[key]))
    return 0


def _cmd_lemmas(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    report = products.verify_structure_lemmas(scheme)
    if args.json:
        _emit_json(
            {
                "checked": report.checked,
                "violations": report.violations,
                "passed": report.passed,
            }
        )
    else:
        for key in sorted(report.checked):
            print("%s: %d checked" % (key, report.checked[key]))
        for v in report.violations:
            print("violation: %s" % v)
        print("passed" if report.passed else "failed")
    return 0 if report.passed else 1


def _cmd_plane(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    pp = products.phi_psi(scheme)
    (alpha,) = _parse_points(str(args.alpha), scheme.n)
    if not 0 < args.s < scheme.r:
        raise UsageError("--s must be a non-diagonal color in 1..%d" % (scheme.r - 1))
    if args.radius < 1:
        raise UsageError("--radius must be at least 1")
    if args.base:
        parts = _parse_points(args.base, scheme.n)
        if len(parts) != 4:
            raise UsageError("--base needs four points: beta,gamma,delta,epsilon")
        base = (alpha, *parts)
    else:
        aut = _automorphisms(scheme, args.bound)
        sigma = None if aut is None else groups.sigma_alpha(scheme, alpha, aut)
        base = _plane_base(scheme, pp, sigma, args.s, alpha)
        if base is None:
            print("no valid base for color %d at point %d" % (args.s, alpha))
            return 1
    plane = planes.build_plane(scheme, pp, args.s, *base, radius=args.radius)
    invariant = planes.check_rotation_invariance(scheme, plane)
    center = len(plane.grid) // 2
    if args.json:
        _emit_json(
            {
                "s": plane.s,
                "base": list(plane.base),
                "radius": args.radius,
                "cells": {"%d,%d" % (i - center, j - center): int(point)
                          for (i, j), point in np.ndenumerate(plane.grid) if point >= 0},
                "rotation_invariant": invariant,
                "axis_rule": "both axes extend by the two-step recurrence",
            }
        )
    else:
        print("plane for color %d, base %s" % (plane.s, list(plane.base)))
        print("axis rule: both axes extend by the two-step recurrence")
        # one printed row per j, from the top, with i from the left
        for row in plane.grid.T[::-1]:
            print(" ".join("%4d" % point if point >= 0 else "   ." for point in row))
        print("rotation invariance: %s" % ("pass" if invariant else "FAIL"))
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
    if args.json:
        _emit_json(
            {
                "distinguished": delta,
                "num_colors": cc.num_colors,
                "num_fibers": len(fibers),
                "fibers": [list(f) for f in fibers],
                "semiregular_off": off,
                "complete": cc.is_complete,
            }
        )
    else:
        print("distinguished: %s" % (delta,))
        print("colors: %d  fibers: %d" % (cc.num_colors, len(fibers)))
        for fiber in fibers:
            print("fiber: %s" % (list(fiber),))
        print("complete: %s" % cc.is_complete)
        if off is None:
            print("semiregular off every split point")
        else:
            print("not semiregular off point %d" % off)
    return 0


def _cmd_base(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    try:
        size, witness = fission.find_base(scheme, args.cutoff, group=_automorphisms(scheme))
    except fission.CutoffExceeded as err:
        if args.json:
            _emit_json({"cutoff": args.cutoff, "error": str(err)})
        else:
            print("base number exceeds cutoff %d" % args.cutoff)
        return 1
    if args.json:
        _emit_json({"base_number": size, "witness": list(witness)})
    else:
        print("base number: %d  witness: %s" % (size, list(witness)))
    return 0


def _listed_generators(group) -> tuple:
    """The greedy generators of the sorted elements, which are the same
    whatever search found the group.  A group without a chain here is a
    Frobenius witness built from its sorted elements, which holds them."""
    if group.chain is None:
        return group.generators
    return tuple(groups._dimino(groups.enumerate_elements(group), group.degree)[0])


def _cmd_aut(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    group = groups.automorphism_group(scheme, args.bound)
    order = groups.group_order(group)
    gens = _listed_generators(group)
    if args.out:
        _save(groups.save_perm, groups.PermGroup(scheme.n, gens), args.out)
    if args.json:
        _emit_json(
            {
                "order": order,
                "generators": [list(g) for g in gens],
            }
        )
    else:
        print("order: %d" % order)
        for g in gens:
            print(" ".join(str(v) for v in g))
    return 0


def _cmd_frobenius(args) -> int:
    if args.file.endswith(".perm"):
        group = groups.load_perm(args.file)
        verdict = groups.frobenius_check(group, args.bound)
        if args.json:
            _emit_json({"frobenius": verdict, "order": groups.group_order(group)})
        else:
            print("frobenius: %s" % verdict)
        return 0 if verdict else 1
    scheme = scheme_core.load_asc(args.file)
    witness = groups.frobenius_witness(scheme, groups.automorphism_group(scheme, args.bound))
    if witness is None:
        if args.json:
            _emit_json({"witness": None})
        else:
            print("no Frobenius witness found")
        return 1
    n = scheme.n  # kernel n, stabiliser 4, orbitals the colors: the lemma
    if args.json:
        _emit_json(
            {
                "order": 4 * n,
                "kernel_size": n,
                "stabilizer_order": 4,
                "orbital_match": True,
                "generators": [list(g) for g in _listed_generators(witness)],
            }
        )
    else:
        print("witness order %d = %d x 4, orbitals match: True" % (4 * n, n))
    return 0


def _cmd_design(args) -> int:
    scheme = scheme_core.load_asc(args.file)
    design = designs.scheme_to_design(scheme)
    ok = designs.verify_design(design, k=4, lam=3)
    if args.json:
        _emit_json({"n": design.n, "blocks": len(design.blocks), "k": 4, "lambda": 3, "verified": ok})
    else:
        print("design on %d points, %d blocks of size 4: %s" % (design.n, len(design.blocks), "pass" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_report(args) -> int:
    if args.radius < 1:
        raise UsageError("--radius must be at least 1")
    try:
        scheme = scheme_core.load_asc(args.file)
    except _AXIOM_ERRORS as err:
        name, operation, statement, _ = CHECKS[0]
        detail = "%s: %s" % (type(err).__name__, err)
        failure = Report(
            args.file, 0, 0, None, (CheckResult(name, operation, statement, "fail", detail),)
        )
        if args.json:
            _emit_json(failure.to_dict())
        else:
            _print_report(failure)
        return 1
    report = build_report(scheme, args.file, args.bound, args.cutoff, args.radius)
    if args.json:
        _emit_json(report.to_dict())
    else:
        _print_report(report)
    failed = any(c.status == "fail" for c in report.checks)
    return 1 if failed else 0


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
