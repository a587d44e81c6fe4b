"""Kept mutants of the certificate and plane code, each with a test that must
kill it.

Run from the repository root:

    python tests/mutants.py

Each mutant replaces one exact text of one module under src/scheme_forge
and names the test node that must fail on the result.  The runner copies
src/, tests/ and pyproject.toml to a temporary directory, since
pyproject.toml's pythonpath = ["src"] would import the unmutated source
from the repository, and there applies one mutant at a time and runs only
its node.  It exits 1 when a mutant survives, when its old text does not
occur exactly once in its module (so a refactor of mutated code must
update this table), or when its node is not found.  The file name has no
test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the mutant breaks, module, exact old text, new text, test node)
MUTANTS = [
    ("orbit partition certified without its counts", "fission.py",
     "    return bool(counts[0] == num_orbits\n",
     "    return True or bool(counts[0] == num_orbits\n",
     "tests/test_fission.py::test_stalled_refinement_falls_back_to_wl"),
    ("refinement keys without the old cell", "fission.py",
     "_first_occurrence_rank((cells * p + h).ravel())",
     "_first_occurrence_rank(h.ravel())",
     "tests/test_fission.py::test_report_and_base_certify_pairs_without_full_wl"),
    ("no exact check when WL stalls", "fission.py",
     "            if not unstable.any():\n",
     "            if True:\n",
     "tests/test_fission.py::test_colliding_evaluations_fall_back_to_exact_splits"),
    ("first occurrence taken as the last", "scheme_core.py",
     "np.minimum.reduceat(order, starts)",
     "np.maximum.reduceat(order, starts)",
     "tests/test_scheme_core.py::test_first_occurrence_rank_matches_a_dict_oracle"),
    ("codes ranked in sorted order, not by first occurrence", "scheme_core.py",
     "rank[np.argsort(np.minimum.reduceat(order, starts))] = np.arange(len(starts))",
     "rank[:] = np.arange(len(starts))",
     "tests/test_scheme_core.py::test_first_occurrence_rank_matches_a_dict_oracle"),
    ("semiregularity skips the first repeated color", "fission.py",
     "touching[repeated]",
     "touching[repeated[1:]]",
     "tests/test_fission.py::test_semiregular_off_sees_a_lone_repeated_color"),
    ("constancy checked on row 0 only", "scheme_core.py",
     "_check_constancy(mat, r, _orbit_minima(mat, r))",
     "_check_constancy(mat, r, [0])",
     "tests/test_constancy.py::test_corruption_seen_only_by_last_block"),
    ("constancy checked on row 0 only", "scheme_core.py",
     "_check_constancy(mat, r, _orbit_minima(mat, r))",
     "_check_constancy(mat, r, [0])",
     "tests/test_constancy.py::test_corruption_matches_oracle"),
    ("commutativity compares sorted codes with unsorted ones", "scheme_core.py",
     "np.sort(back * r + out, axis=1)",
     "back * r + out",
     "tests/test_scheme_core.py::test_matrix_readers_match_the_tensor_formulas"),
    ("indistinguishing number counted against row 1", "scheme_core.py",
     "np.count_nonzero(row == scheme.color[y])",
     "np.count_nonzero(scheme.color[1] == scheme.color[y])",
     "tests/test_scheme_core.py::test_matrix_readers_match_the_tensor_formulas"),
    ("dual accepted unchecked", "scheme_core.py",
     "        if np.array_equal(dual[mat], mat.T):\n",
     "        if True:\n",
     "tests/test_scheme_core.py::test_dual_violation"),
    ("Frobenius witness without the transitivity check", "groups.py",
     "    return is_transitive(group) and all(\n",
     "    return all(\n",
     "tests/test_groups.py::test_certificate_needs_a_transitive_group"),
    ("forced map of the automorphism search unchecked", "autsearch.py",
     "if img.min() >= 0 and np.array_equal(color[np.ix_(img, img)], color):",
     "if img.min() >= 0:",
     "tests/test_groups.py::test_automorphisms_of_cospectral_rank_three_schemes"),
    ("design pair counts unchecked", "designs.py",
     "bool((counts == lam).all())",
     "True",
     "tests/test_designs.py::test_verify_design_rejects_uneven_pair_counts"),
    ("structure sweep accepts 1+1+1+1 products of phi-related colors", "products.py",
     "four_distinct = (size == 4) & (largest == 1) & (total == 4) & no_phi",
     "four_distinct = (size == 4) & (largest == 1) & (total == 4)",
     "tests/test_products.py::test_phi_related_pair_with_four_distinct_factors"),
    ("plane lane with several candidates counted as unique", "planes.py",
     "np.flatnonzero(counts != 1)",
     "np.flatnonzero(counts == 0)",
     "tests/test_planes.py::test_lockstep_failure_matches_build_plane"),
    ("later plane error overwrites an earlier one", "planes.py",
     "        if plane not in failed or order < failed[plane][0]:\n",
     "        if True:\n",
     "tests/test_planes.py::test_lockstep_failure_matches_build_plane"),
    ("plane axis errors ordered by step before axis", "planes.py",
     "fail(p, (0, q, t),",
     "fail(p, (0, t, q),",
     "tests/test_planes.py::test_lockstep_failure_matches_build_plane"),
    ("plane cell errors ordered by quadrant before cell", "planes.py",
     "fail(p, (1, i, j, q),",
     "fail(p, (1, q, i, j),",
     "tests/test_planes.py::test_lockstep_matches_plane_by_cells_on_tampered_schemes"),
    ("report layer gate met by any one hypothesis", "cli.py",
     "build(ctx) if all(HYPOTHESES[h][0](ctx) for h in hypotheses)",
     "build(ctx) if any(HYPOTHESES[h][0](ctx) for h in hypotheses)",
     "tests/test_cli.py::test_report_layers_are_gated_like_their_checks"),
    ("doubled squares read without the valency-4 gate", "scheme_core.py",
     "    if is_k_equivalenced(scheme) != 4:\n        return frozenset()\n",
     "    if False:\n        return frozenset()\n",
     "tests/test_scheme_core.py::test_doubled_squares_match_phi_psi"),
]

# a node that takes longer than this counts as killed, and says so
TIMEOUT_S = 600


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_node(dest: Path, node: str) -> str:
    """'killed', 'survived', or why the node could not decide."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node],
            cwd=dest, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed (timed out after %d s)" % TIMEOUT_S
    # pytest exits 1 when a test failed, 0 when all passed, and 2-5 when it
    # was interrupted, hit a usage error or collected nothing
    return {0: "survived", 1: "killed"}.get(
        done.returncode, "undecided (pytest exit %d): %s" % (done.returncode,
                                                             done.stdout.strip()[-300:]))


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="scheme-forge-mutants-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        for what, module, old, new, node in MUTANTS:
            path = dest / "src" / "scheme_forge" / module
            source = path.read_text()
            found = source.count(old)
            if found != 1:
                outcome = "old text occurs %d times in %s" % (found, module)
            else:
                path.write_text(source.replace(old, new))
                try:
                    outcome = _run_node(dest, node)
                finally:
                    path.write_text(source)
            bad += not outcome.startswith("killed")
            print("%-9s %s (%s, %s)" % (outcome.split(" ")[0], what, module, node), flush=True)
            if outcome not in ("killed", "survived"):
                print("          " + outcome, flush=True)
    print("%d of %d mutants killed" % (len(MUTANTS) - bad, len(MUTANTS)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
