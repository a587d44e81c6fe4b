import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scheme_forge as sf
from scheme_forge import fission, groups, planes
from scheme_forge.cli import run

import oracles


@pytest.fixture(scope="module")
def z13_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "z13.asc"
    assert run(["gen", "cyclotomic", "--p", "13", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def v25_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "v25.asc"
    assert run(["gen", "vector", "--p", "5", "--d", "2", "-o", str(path)]) == 0
    return str(path)


def test_gen_writes_loadable_scheme(z13_file):
    scheme = sf.load_asc(z13_file)
    assert (scheme.n, scheme.r) == (13, 4)


def test_gen_group_out(tmp_path):
    asc = tmp_path / "z5.asc"
    perm = tmp_path / "z5.perm"
    assert run(["gen", "cyclotomic", "--p", "5", "-o", str(asc), "--group-out", str(perm)]) == 0
    group = sf.load_perm(str(perm))
    assert sf.group_order(group) == 20
    assert sf.frobenius_check(group)


def test_gen_stdout(capsys):
    assert run(["gen", "cyclotomic", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert sf.read_asc(out).n == 5


def test_check_ok(z13_file, capsys):
    assert run(["check", z13_file]) == 0
    assert "ok: n=13 r=4 k=4" in capsys.readouterr().out


def test_check_corrupted_exits_1(tmp_path, z13_file, capsys):
    lines = Path(z13_file).read_text().splitlines()
    rows = [line.split() for line in lines[1:]]
    rows[1][2], rows[2][1] = "3", "3"
    bad = tmp_path / "bad.asc"
    bad.write_text(lines[0] + "\n" + "\n".join(" ".join(r) for r in rows) + "\n")
    assert run(["check", str(bad)]) == 1
    assert "NonConstantIntersection" in capsys.readouterr().out


def test_check_random_graph_exits_1_with_the_constancy_detail(tmp_path, random_graph, capsys):
    color = random_graph(60, 60)
    path = tmp_path / "random.asc"
    path.write_text("60 3\n" + "".join(" ".join(map(str, row)) + "\n" for row in color.tolist()))
    with pytest.raises(sf.NonConstantIntersection) as expected:
        oracles.constancy_by_matmul(color, 3)
    assert run(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "invalid: NonConstantIntersection: %s\n" % expected.value
    assert "Traceback" not in captured.err


def test_check_malformed_exits_3(tmp_path):
    path = tmp_path / "junk.asc"
    path.write_text("what is this\n")
    assert run(["check", str(path)]) == 3


def test_non_ascii_input_exits_3(tmp_path, capsys):
    scheme = tmp_path / "accent.asc"
    scheme.write_bytes("2 2\n0 1\n1 0é\n".encode())
    perm = tmp_path / "bad.perm"
    perm.write_bytes(b"2 1\n1 0\xff\n")
    for argv, detail in (
        (["check", str(scheme)], "0xc3 at offset 11"),
        (["report", str(scheme)], "0xc3 at offset 11"),
        (["frobenius", str(perm)], "0xff at offset 7"),
    ):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "bad input file: non-ASCII byte %s\n" % detail
        assert captured.out == ""


def test_missing_file_exits_3():
    assert run(["check", "/no/such/file.asc"]) == 3


def test_usage_errors_exit_2():
    assert run([]) == 2
    assert run(["gen"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["plane"]) == 2  # missing required --s and file


def test_gen_size_and_dimension_errors(capsys):
    # refused before the n x n tables are allocated
    assert _exit_without_traceback(["gen", "cyclotomic", "--p", "30013"], capsys) == 1
    assert _exit_without_traceback(["gen", "vector", "--p", "5", "--d", "10000"], capsys) == 1
    for d in ("0", "-2"):
        assert _exit_without_traceback(["gen", "vector", "--p", "5", "--d", d], capsys) == 2


def test_module_run_prints_no_warning(z13_file):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sf.__file__)))
    done = subprocess.run([sys.executable, "-m", "scheme_forge.cli", "check", z13_file],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""


def test_props_json(z13_file, capsys):
    assert run(["props", z13_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 4
    assert payload["s3"] == [1, 2, 3]
    assert payload["pseudocyclic"] is True
    assert payload["indistinguishing"] == [3, 3, 3]


def test_lemmas(z13_file, capsys):
    assert run(["lemmas", z13_file]) == 0
    out = capsys.readouterr().out
    assert "passed" in out


def test_plane_text(z13_file, capsys):
    assert run(["plane", z13_file, "--s", "1", "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert "rotation invariance: pass" in out


def test_plane_explicit_base(z13_file, capsys):
    assert run(["plane", z13_file, "--s", "1", "--base", "1,5,12,8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rotation_invariant"] is True
    assert payload["cells"]["0,0"] == 0
    assert payload["cells"]["1,0"] == 1
    assert payload["cells"]["0,1"] == 5


def test_plane_bad_base_exits_1(z13_file):
    assert run(["plane", z13_file, "--s", "1", "--base", "2,5,12,8"]) == 1


def test_fission_json(z13_file, capsys):
    assert run(["fission", z13_file, "--points", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_colors"] == 43
    assert payload["num_fibers"] == 4
    assert payload["complete"] is False


def test_base_command(z13_file, capsys):
    assert run(["base", z13_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["base_number"] == 2
    assert payload["witness"] == [0, 1]


def test_aut_command(z13_file, tmp_path, capsys):
    out = tmp_path / "aut.perm"
    assert run(["aut", z13_file, "--json", "-o", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 52
    group = sf.load_perm(str(out))
    assert sf.group_order(group) == 52


def test_aut_past_the_bound_exits_1_before_listing(tmp_path, capsys, monkeypatch):
    # the complete graph on 10 points: Aut = Sym(10), 3,628,800 elements; the
    # chain knows the order is past the bound before any element is listed
    color = np.ones((10, 10), dtype=np.int64)
    np.fill_diagonal(color, 0)
    path = tmp_path / "k10.asc"
    sf.save_asc(sf.from_matrix(color), str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("elements listed")

    monkeypatch.setattr(groups, "enumerate_elements", refuse)
    assert run(["aut", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "BoundExceeded: more than %d automorphisms\n" % groups.DEFAULT_BOUND


def test_frobenius_on_scheme(z13_file, capsys):
    assert run(["frobenius", z13_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 52
    assert payload["kernel_size"] == 13
    assert payload["orbital_match"] is True


def test_frobenius_past_the_bound_exits_1(z13_file, capsys):
    assert run(["frobenius", z13_file, "--bound", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "BoundExceeded: more than 10 automorphisms\n"


@pytest.fixture
def searches(monkeypatch):
    """The schemes whose automorphism group is searched, one per call."""
    found = []
    search = groups.automorphism_group

    def recording(scheme, *args, **kwargs):
        found.append(scheme.n)
        return search(scheme, *args, **kwargs)

    monkeypatch.setattr(groups, "automorphism_group", recording)
    return found


@pytest.mark.parametrize("argv", (["report"], ["plane", "--s", "1"], ["fission", "--points", "0"],
                                  ["base"], ["aut"], ["frobenius"]))
def test_each_command_searches_aut_once(z13_file, capsys, searches, argv):
    assert run([argv[0], z13_file, *argv[1:], "--json"]) == 0
    assert searches == [13]


def test_group_functions_read_the_group_they_are_given(z13, auts, searches):
    aut = auts["z13"]
    assert sf.sigma_alpha(z13, 0, aut) is not None
    assert sf.two_point_rigidity(z13, aut)
    assert sf.frobenius_witness(z13, aut) is not None
    assert not sf.point_fission(z13, (0,), aut).is_complete
    assert sf.find_base(z13, group=aut) == (2, (0, 1))
    assert searches == []


def test_frobenius_on_group(tmp_path, capsys):
    perm = tmp_path / "g.perm"
    sf.save_perm(sf.cyclotomic_frobenius(17), str(perm))
    assert run(["frobenius", str(perm)]) == 0
    assert "frobenius: True" in capsys.readouterr().out


def test_frobenius_on_non_frobenius_group(tmp_path):
    perm = tmp_path / "sym4.perm"
    sf.save_perm(sf.PermGroup(4, ((1, 0, 2, 3), (1, 2, 3, 0))), str(perm))
    assert run(["frobenius", str(perm)]) == 1


def test_design_command(v25_file, capsys):
    assert run(["design", v25_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["blocks"] == 150
    assert payload["verified"] is True


def test_report_passes(z13_file, capsys):
    assert run(["report", z13_file]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert " 0 fail" in out


def test_report_fails_on_corruption(tmp_path, z13_file, capsys):
    lines = Path(z13_file).read_text().splitlines()
    rows = [line.split() for line in lines[1:]]
    rows[1][2], rows[2][1] = "3", "3"
    bad = tmp_path / "bad.asc"
    bad.write_text(lines[0] + "\n" + "\n".join(" ".join(r) for r in rows) + "\n")
    assert run(["report", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_report_json_deterministic(z13_file, capsys):
    assert run(["report", z13_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["report", z13_file, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["summary"]["fail"] == 0
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(set(names), key=names.index)  # registry order, no dupes


def test_report_starts_no_thread(z13_file, capsys, monkeypatch):
    assert run(["report", z13_file, "--json"]) == 0
    expected = capsys.readouterr().out

    def refuse(self):
        raise AssertionError("report started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run(["report", z13_file, "--json"]) == 0
    assert capsys.readouterr().out == expected


def test_run_leaves_no_cyclic_garbage(z13_file, capsys):
    # objects in reference cycles outlive their op until the collector runs
    assert run(["report", z13_file]) == 0  # the first run also imports lazily
    gc.collect()
    gc.disable()
    try:
        for argv in (["report", z13_file], ["aut", z13_file], ["base", z13_file]):
            assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_report_builds_each_origin_plane_once(z13_file, capsys, monkeypatch):
    built = []
    original = planes.build_plane

    def counting(scheme, pp, s, *base, **kwargs):
        built.append(s)
        return original(scheme, pp, s, *base, **kwargs)

    monkeypatch.setattr(planes, "build_plane", counting)
    assert run(["report", z13_file, "--json"]) == 0
    assert built == [1, 2, 3]  # s3 of z13, one plane each


def test_report_plane_failure_detail(z13_file, capsys, monkeypatch):
    original = planes.build_plane

    def failing(scheme, pp, s, *base, **kwargs):
        if s == 2:
            raise planes.InvalidBase("no room")
        return original(scheme, pp, s, *base, **kwargs)

    monkeypatch.setattr(planes, "build_plane", failing)
    assert run(["report", z13_file, "--json"]) == 1
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("plane-rotation", "plane-alignment"):
        assert (by_name[name]["status"], by_name[name]["detail"]) == ("fail", "color 2: no room")


def test_report_v25_asserts_base_number(v25_file, capsys):
    assert run(["report", v25_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["base-number"]["status"] == "pass"
    assert by_name["independent-product-split"]["status"] == "pass"
    assert by_name["frobenius-witness"]["status"] == "pass"


@pytest.fixture(scope="module")
def two_point_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "two.asc"
    path.write_text("2 2\n0 1\n1 0\n")
    return str(path)


def _exit_without_traceback(argv, capsys):
    code = run(argv)
    assert "Traceback" not in capsys.readouterr().err
    return code


@st.composite
def _argvs(draw, path):
    num = lambda lo, hi: str(draw(st.integers(lo, hi)))
    command = draw(st.sampled_from(
        ["cyclotomic", "vector", "check", "props", "lemmas", "plane", "fission", "base",
         "aut", "frobenius", "design", "report"]))
    if command in ("cyclotomic", "vector"):
        p = draw(st.one_of(st.sampled_from([5, 13, 17, 29, 37, 41, 53]), st.integers(-2, 60)))
        d = draw(st.integers(-1, 3)) if command == "vector" else 1
        # 200 to 2048 points take seconds to build; more are refused up front
        assume(not 200 < p ** max(d, 1) <= groups.MAX_DEGREE)
        return ["gen", command, "--p", str(p)] + (["--d", str(d)] if command == "vector" else [])
    argv = [command, path]
    if command == "plane":
        argv += ["--s", num(-1, 5), "--alpha", num(-2, 15), "--radius", num(-1, 4)]
    if command == "fission":
        points = draw(st.lists(st.integers(-2, 15), min_size=1, max_size=3))
        argv += ["--points", ",".join(map(str, points))]
    if command in ("plane", "aut", "frobenius", "report"):
        argv += ["--bound", num(-1, 100)]
    if command in ("base", "report"):
        argv += ["--cutoff", num(-1, 4)]
    if command == "report":
        argv += ["--radius", num(-1, 4)]
    if command != "check" and draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150)
@given(st.data())
def test_argv_fuzz_exits_cleanly(z13_file, data):
    argv = data.draw(_argvs(z13_file))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


def test_fission_points_not_integers_exit_2(two_point_file, capsys):
    assert _exit_without_traceback(["fission", two_point_file, "--points", "a"], capsys) == 2


def test_fission_point_out_of_range_exit_2(two_point_file, capsys):
    assert _exit_without_traceback(["fission", two_point_file, "--points", "5"], capsys) == 2


def test_plane_base_not_integers_exit_2(z13_file, capsys):
    argv = ["plane", z13_file, "--s", "1", "--base", "a,b,c,d"]
    assert _exit_without_traceback(argv, capsys) == 2


def test_check_oversized_entry_exit_3(tmp_path, capsys):
    path = tmp_path / "big.asc"
    path.write_text("2 2\n0 99999999999999999999999\n1 0\n")
    assert _exit_without_traceback(["check", str(path)], capsys) == 3


def test_check_unused_color_exit_3(tmp_path, capsys):
    path = tmp_path / "unused.asc"
    path.write_text("2 3\n0 1\n1 0\n")
    assert _exit_without_traceback(["check", str(path)], capsys) == 3


def test_fission_command_stabilizes_once(z13_file, capsys, monkeypatch):
    calls = []
    original = fission.wl_stabilize

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fission, "wl_stabilize", counting)
    assert run(["fission", z13_file, "--points", "0"]) == 0
    assert "fiber: [0]" in capsys.readouterr().out
    assert len(calls) == 1


def test_plane_radius_below_one_exit_2(z13_file, capsys):
    argv = ["plane", z13_file, "--s", "1", "--radius", "-3"]
    assert _exit_without_traceback(argv, capsys) == 2


def test_report_radius_below_one_exit_2(z13_file, capsys):
    argv = ["report", z13_file, "--radius", "-1", "--json"]
    assert _exit_without_traceback(argv, capsys) == 2


def test_plane_falls_back_when_aut_passes_bound(z13_file, capsys):
    # |Aut| = 52 > 10: no sigma_alpha, so the plane takes the first valid base
    assert run(["plane", z13_file, "--s", "1", "--bound", "10", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["base"][0] == 0
    assert payload["rotation_invariant"] is True
