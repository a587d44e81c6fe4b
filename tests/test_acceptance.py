"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each criterion is exercised on the standing battery of five schemes built
from first principles at session start: the prime-field instances on 5,
13, 17 and 29 points and the two-dimensional instance on 25 points.
"""

import json

import numpy as np

import scheme_forge as sf
from scheme_forge import groups
from scheme_forge.cli import run

import oracles
from conftest import ACCEPTANCE_RESULTS


def _verdict(label, fn):
    ok = False
    try:
        ok = bool(fn())
    finally:
        ACCEPTANCE_RESULTS[label] = "PASS" if ok else "FAIL"
        print("%s: %s" % (label, ACCEPTANCE_RESULTS[label]))
    assert ok, label


def test_criterion_1_axioms_and_valency(battery):
    def check():
        for scheme in battery.values():
            sf.validate(scheme.n, scheme.r, scheme.color, scheme.dual)
            if sf.is_k_equivalenced(scheme) != 4:
                return False
            if not sf.is_symmetric(scheme) or not sf.is_commutative(scheme):
                return False
            if not sf.is_pseudocyclic(scheme):
                return False
            if any(sf.indistinguishing_number(scheme, s) != 3 for s in scheme.nondiagonal()):
                return False
        return True

    _verdict("criterion-1 axioms, valency 4, pseudocyclic", check)


def test_criterion_2_product_structure(battery):
    def check():
        for scheme in battery.values():
            report = sf.verify_structure_lemmas(scheme)
            if not report.passed:
                return False
            if report.checked["square-dichotomy"] != scheme.r - 1:
                return False
            if report.checked["product-trichotomy"] != (scheme.r - 1) * (scheme.r - 2):
                return False
        return True

    _verdict("criterion-2 square dichotomy and product trichotomy", check)


def test_criterion_3_tensor_against_oracle(z5, z13, v25):
    def check():
        for scheme in (z5, z13):
            if not np.array_equal(scheme.tensor.c, oracles.tensor_by_matmul(scheme)):
                return False
            r = scheme.r
            for s in range(r):
                for t in range(r):
                    for u in range(r):
                        for v in range(r):
                            fast = sf.product_inner(scheme, s, t, u, v)
                            slow = oracles.inner_by_trace(scheme, s, t, u, v)
                            if fast != slow:
                                return False
        if sf.product_inner(z13, 1, 1, 1, 1) != 36:
            return False
        # every independent pair multiplies into 4 colors: norm 16 both ways
        pairs = [
            (s, t)
            for s in v25.nondiagonal()
            for t in v25.nondiagonal()
            if s < t and sf.wr(v25, s, t)
        ]
        if len(pairs) != 15:
            return False
        for s, t in pairs:
            if sf.product_inner(v25, s, t, s, t) != 16:
                return False
            if oracles.inner_by_trace(v25, s, t, s, t) != 16:
                return False
        return True

    _verdict("criterion-3 intersection tensor vs adjacency-matrix oracle", check)


def test_criterion_4_planes(z13, z17, auts):
    def check():
        for name, scheme in (("z13", z13), ("z17", z17)):
            pp = sf.phi_psi(scheme)
            sigma = sf.sigma_alpha(scheme, 0, group=auts[name])
            if sigma is None:
                return False
            for s in sorted(pp.s3):
                bases = sf.valid_bases(scheme, pp, s, 0)
                if len(bases) != 8:
                    return False
                for base in bases:
                    plane = sf.build_plane(scheme, pp, s, *base, radius=3)
                    if len(oracles.plane_cells(plane)) != 49:
                        return False
                    if not sf.check_rotation_invariance(scheme, plane):
                        return False
                aligned = sf.build_plane(
                    scheme, pp, s, *sf.sigma_base(scheme, sigma, s, 0), radius=3
                )
                cells = oracles.plane_cells(aligned)
                for cell, point in cells.items():
                    turned = oracles.rotate(cell)
                    if turned in cells and cells[turned] != sigma[point]:
                        return False
        return True

    _verdict("criterion-4 coordinate planes and quarter-turn invariance", check)


def test_criterion_5_automorphisms(battery, auts):
    def check():
        if sf.group_order(auts["z13"]) != 52 or sf.group_order(auts["z17"]) != 68:
            return False
        for name in ("z13", "z17"):
            fast = sorted(groups.enumerate_elements(auts[name]))
            if fast != oracles.aut_by_anchors(battery[name]):
                return False
        if sorted(groups.enumerate_elements(auts["z5"])) != oracles.aut_by_factorial(
            battery["z5"]
        ):
            return False
        for name, scheme in battery.items():
            if scheme.r >= 4 and not sf.two_point_rigidity(scheme, group=auts[name]):
                return False
            pp = sf.phi_psi(scheme)
            if not pp.s3:
                continue
            for alpha in range(scheme.n):
                sigma = sf.sigma_alpha(scheme, alpha, group=auts[name])
                if sigma is None or sigma[alpha] != alpha or sf.perm_order(sigma) != 4:
                    return False
                rows = {
                    frozenset(int(x) for x in scheme.row(alpha, s))
                    for s in scheme.nondiagonal()
                }
                cycles = set(map(frozenset, groups.orbits(sf.PermGroup(scheme.n, (sigma,)))))
                if cycles != rows | {frozenset({alpha})}:
                    return False
        return True

    _verdict("criterion-5 automorphism groups, rigidity, point rotations", check)


def test_criterion_6_frobenius_witnesses(battery, auts):
    def check():
        for name, scheme in battery.items():
            witness = sf.frobenius_witness(scheme, group=auts[name])
            if witness is None or sf.group_order(witness) != 4 * scheme.n:
                return False
            elements = groups.enumerate_elements(witness)
            if len(elements) != 4 * scheme.n:
                return False
            if not oracles.frobenius_by_definition(set(elements), scheme.n):
                return False
            expected = oracles.orbital_partition(elements, scheme.n)
            if oracles.partition_of(expected) != oracles.partition_of(scheme.color.tolist()):
                return False
            if name == "z5" and len(elements) != 20:
                return False
        return True

    _verdict("criterion-6 Frobenius witness groups with matching orbitals", check)


def test_criterion_7_fission(battery):
    def check():
        for name, scheme in battery.items():
            if scheme.r < 3:
                continue
            for alpha in range(scheme.n):
                cfg = sf.point_fission(scheme, (alpha,))
                if not sf.is_semiregular_off(cfg, alpha):
                    return False
                if not sf.fibers_refine_rows(scheme, cfg, alpha):
                    return False
        pp = sf.phi_psi(battery["v25"])
        size, witness = sf.find_base(battery["v25"], cutoff=3)
        if size != 2:
            return False
        if int(battery["v25"].color[witness[0], witness[1]]) not in pp.s2:
            return False
        return sf.point_fission(battery["v25"], witness).is_complete

    _verdict("criterion-7 point fissions: semiregularity and base number", check)


def test_criterion_8_designs(battery):
    def check():
        for scheme in battery.values():
            design = sf.scheme_to_design(scheme)
            if not sf.verify_design(design, k=4, lam=3):
                return False
            if not oracles.blocks_by_pair_count(design, t=2, lam=3):
                return False
        five = sf.scheme_to_design(battery["z5"])
        hits = sum(1 for b in five.blocks if 0 in b and 1 in b)
        return hits == 3

    _verdict("criterion-8 rows form 2-designs with block size 4", check)


def test_criterion_9_report_determinism(tmp_path, capsys):
    def check():
        path = tmp_path / "z13.asc"
        if run(["gen", "cyclotomic", "--p", "13", "-o", str(path)]) != 0:
            return False
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            if run(["report", str(path), "--json"]) != 0:
                return False
            outputs.append(capsys.readouterr().out)
        if outputs[0] != outputs[1]:
            return False
        payload = json.loads(outputs[0])
        return payload["summary"]["fail"] == 0 and payload["n"] == 13

    _verdict("criterion-9 full report, deterministic bytes", check)
