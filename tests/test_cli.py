import json

import pytest

import scheme_forge as sf
from scheme_forge import fission
from scheme_forge.cli import run


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
    lines = open(z13_file).read().splitlines()
    rows = [line.split() for line in lines[1:]]
    rows[1][2], rows[2][1] = "3", "3"
    bad = tmp_path / "bad.asc"
    bad.write_text(lines[0] + "\n" + "\n".join(" ".join(r) for r in rows) + "\n")
    assert run(["check", str(bad)]) == 1
    assert "NonConstantIntersection" in capsys.readouterr().out


def test_check_malformed_exits_3(tmp_path):
    path = tmp_path / "junk.asc"
    path.write_text("what is this\n")
    assert run(["check", str(path)]) == 3


def test_missing_file_exits_3():
    assert run(["check", "/no/such/file.asc"]) == 3


def test_usage_errors_exit_2():
    assert run([]) == 2
    assert run(["gen"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["plane"]) == 2  # missing required --s and file


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


def test_frobenius_on_scheme(z13_file, capsys):
    assert run(["frobenius", z13_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 52
    assert payload["kernel_size"] == 13
    assert payload["orbital_match"] is True


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
    lines = open(z13_file).read().splitlines()
    rows = [line.split() for line in lines[1:]]
    rows[1][2], rows[2][1] = "3", "3"
    bad = tmp_path / "bad.asc"
    bad.write_text(lines[0] + "\n" + "\n".join(" ".join(r) for r in rows) + "\n")
    assert run(["report", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_report_json_deterministic_across_threads(z13_file, capsys, monkeypatch):
    monkeypatch.setenv("SCHEME_FORGE_THREADS", "1")
    assert run(["report", z13_file, "--json"]) == 0
    first = capsys.readouterr().out
    monkeypatch.setenv("SCHEME_FORGE_THREADS", "8")
    assert run(["report", z13_file, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["summary"]["fail"] == 0
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(set(names), key=names.index)  # registry order, no dupes


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

    def counting(matrix):
        calls.append(1)
        return original(matrix)

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
