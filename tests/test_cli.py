import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scheme_forge as sf
from scheme_forge import cli, fission, groups, planes, products
from scheme_forge.cli import build_report, run

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


@pytest.mark.parametrize("p,digest", [
    (13, "95006f04719fe3491d36980cd6d402ac473a482feb6f19a5c417a36fcf9d49c6"),
    (401, "b89aec46e35493f8ccbbed3206b506c71709edfd292a80707b9ea59c70f22b7d"),
], ids=["z13", "c401"])
def test_gen_stdout_bytes_are_pinned(p, digest, capsys):
    # the SHA-256 of the text the per-element writer printed, and that text
    assert run(["gen", "cyclotomic", "--p", str(p)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
    scheme = sf.orbital_scheme(sf.cyclotomic_frobenius(p))
    lines = ["%d %d" % (scheme.n, scheme.r)]
    lines += [" ".join(map(str, row)) for row in scheme.color.tolist()]
    assert out == "\n".join(lines) + "\n"


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


def test_header_no_rows_back_exits_3_without_the_matrix(tmp_path, capsys):
    # 200000 empty rows: the row parser refuses row 0 before it allocates
    # the 200000 x 200000 matrix, 298 GiB of int64
    path = tmp_path / "hollow.asc"
    path.write_text("200000 1\n" + "\n" * 200000)
    tracemalloc.start()
    try:
        code = run(["check", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "bad input file: row 0 has 0 entries, expected 200000\n"
    assert peak < 64 * 2**20


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


@pytest.mark.parametrize("argv", (
    ["gen", "cyclotomic", "--p", "13", "-o", "{missing}"],
    ["gen", "cyclotomic", "--p", "13", "--group-out", "{missing}"],
    ["aut", "{z13}", "-o", "{missing}"],
))
def test_write_failure_exits_2(argv, z13_file, tmp_path, capsys):
    # the input is fine, so this is not exit 3
    missing = str(tmp_path / "missing" / "x.out")
    assert run([a.format(missing=missing, z13=z13_file) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: cannot write %s: No such file or directory\n" % missing


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


def test_report_json_on_an_axiom_violation(tmp_path, z13_file, capsys):
    lines = Path(z13_file).read_text().splitlines()
    rows = [line.split() for line in lines[1:]]
    rows[1][2], rows[2][1] = "3", "3"
    bad = tmp_path / "bad.asc"
    bad.write_text(lines[0] + "\n" + "\n".join(" ".join(r) for r in rows) + "\n")
    assert run(["report", str(bad), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "checks": [{
            "detail": "NonConstantIntersection: c(1,1;2) is not constant: pair (0, 3) gives 1, "
                      "first witness gave 0",
            "name": "scheme-axioms",
            "operation": "validate",
            "statement": "diagonal color, dual pairing and constant intersection numbers",
            "status": "fail",
        }],
        "k": None, "n": 0, "r": 0, "source": str(bad),
        "summary": {"fail": 1, "n/a": 0, "pass": 0},
    }


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


def test_plane_base_of_three_points_exits_2(z13_file, capsys):
    assert run(["plane", z13_file, "--s", "1", "--base", "1,5,12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --base needs four points: beta,gamma,delta,epsilon\n"


# sha256 of `plane FILE ARGS` stdout, recorded from the planes held as dicts
# of cells that the point arrays replaced
PLANE_SHA256 = {
    "z13 --s 1 --radius 1": "44da55fdc8d82735d35afb07237d2c82138d17bef34136bb6d2e49cb57403126",
    "z13 --s 1 --radius 1 --json": "45a00fc5fae4ff6b019d3deb0cb04629520e6b2155a96e9300338d022561b6fc",
    "z13 --s 1 --radius 2": "787af9f141a417e2d5364011afd6d0a1bcb89e8d44a1b136cd37f16f762190b3",
    "z13 --s 1 --radius 2 --json": "e8ec021e8e7652828d09ab558af939922cb3ba251d6447220d52304f28b82d8d",
    "z13 --s 1 --radius 3": "0e73d768b7c37ba1642c1d3336b3f1a517dd5b2bcb8643b53d171d8feaf3cc16",
    "z13 --s 1 --radius 3 --json": "240dd549a0000d28241417d4daf8669d3e869cdf874e1b6656c1a690c39339af",
    "z13 --s 2 --radius 1": "cd7bbe4014a01959057f3b0a5f8f99320bab37b43ce7a28e6e0334c85edadfc4",
    "z13 --s 2 --radius 1 --json": "581c6b8408e096affad03a0fe02c5f42357d276677fd5cb1f987da9507869308",
    "z13 --s 2 --radius 2": "c446b62496bab5a3454bd8fa68727b4fa258c7c1365c89ecf40e69b30a54f2c5",
    "z13 --s 2 --radius 2 --json": "bb6006ef9a56189e1e065fd5202f024b13967f3960497a12296ff72990979acd",
    "z13 --s 2 --radius 3": "6e7244b1432a7182fddadc457342d3c391c901ababbf6a5e08b10c3636134721",
    "z13 --s 2 --radius 3 --json": "2008c38dc92be460368b4eb579763fe9ac4770294bb38ce7562ea4739aed5d44",
    "z13 --s 3 --radius 1": "73a112d5ce45fb4a3c4b06198c250c070d586286b0a91a16288e3e5c5ba9c7fc",
    "z13 --s 3 --radius 1 --json": "b293c26b40dc2abd57c4d6d35dae06032f48b504943869d83b67a4188a907efe",
    "z13 --s 3 --radius 2": "9c99fd81d3dce32179053c98546a0e95d677a3ba009dd7af5169fde1960ac01e",
    "z13 --s 3 --radius 2 --json": "0e3de291e7a1ca560a0aee8be2fa2dd0a752af6fdb62017b30532fa7d9750369",
    "z13 --s 3 --radius 3": "dc7f1ee975e6dbe2d9f6ae39ceb83e7812f3809c9b8d19eb5b3441b9f2b08380",
    "z13 --s 3 --radius 3 --json": "3793f9a86da4cb3b88baf6e8f09c94664e9ee2331bb22a537523eb5e459c3426",
    "v25 --s 1": "649e73db378e967964d1738f49386ebd8100dcde38bf05bf9e49ed6055f90ccf",
    "v25 --s 1 --json": "dae53b3a2dd4f8a57d574325043a8f6f539235734978f80ea5aa2921e03429da",
    "z13 --s 2 --radius 2 --base 3,11,10,2": "9ee648ee6347ac863c3a1e7c53f641dccc225ba6712079c30b92eab941c6ddcd",
    "z13 --s 2 --radius 2 --base 3,11,10,2 --json": "74e03b6bad7788a424c2807fa8aee0ad834785752d956401958f0337b5d76e54",
}


@pytest.mark.parametrize("case", sorted(PLANE_SHA256))
def test_plane_output_is_unchanged(case, z13_file, v25_file, capsys):
    name, *args = case.split()
    assert run(["plane", {"z13": z13_file, "v25": v25_file}[name], *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PLANE_SHA256[case]


# sha256 of `report NAME.asc --json`, run from the file's directory, recorded
# from the same planes
REPORT_JSON_SHA256 = {
    "z5": "539da86087772dcfaa5b554fe16e67fd7a24dfef263ca6fbf72d1dca1c6a0aeb",
    "z13": "60a8644cd8424bf8ae7825baebc593aa54baba71c6e25b498f2e391ea28592b9",
    "z17": "f982f9ac401d363bb319de87d2cd1d22659d58ea74c944c08d4f3a31d70abe72",
    "z29": "8c2e21a767cb819d77adff0e2b20fa0d0c267efe60309282b3fde0af0b7e04f5",
    "v25": "922bd017485d02ac291c77cf25757b71e77837a4714302a59c6fa2e875c13362",
    "c53": "c185e0e260251238c6207f628df74040a0b5e7238485b66a222ee04e6342fa52",
    # recorded while configurations stored their fibers beside the matrix
    "c101": "1b9c9bf5f2243d4481a49c219657b2a0e7fab297a262d67b12220f3f0cac9854",
    "v125": "14bfd9f9e91e97235a37476709740a14a06b73c3b5cb4f0260be0c675ccb3629",
}


def test_report_json_is_unchanged(battery, c53, c101, v125, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, scheme in {**battery, "c53": c53, "c101": c101, "v125": v125}.items():
        sf.save_asc(scheme, name + ".asc")
        assert run(["report", name + ".asc", "--json"]) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == REPORT_JSON_SHA256


# sha256 of `report NAME.asc --json` and `report NAME.asc --bound 1 --json`
# off the ladder, where the checks' hypotheses fail: together these reach
# every n/a text of the report
REPORT_NA_SHA256 = {
    "f9": "96379ee2dbbff91e734de3f96d7a92c144c7253b504ed5289b4b86807e5c0728",
    "f9 --bound 1": "65b3564a642cebc0b29b9f53e9bfecc4fe94069c281a9074523e168e51de7556",
    "f9sq": "e0c48faaef26a9fe64fcea83ec3905b0ff028c4aaa840b18e726f1c8f2769604",
    "f9sq --bound 1": "52745ba7246f50855a95588e6e3309796db637873ff60e540985552077c526af",
    "thin12": "f3d527c94d0bc9be03ab536fcd1e6c4cf030800188fc5c80ab9d0d843cdc1f39",
    "thin12 --bound 1": "f3d527c94d0bc9be03ab536fcd1e6c4cf030800188fc5c80ab9d0d843cdc1f39",
    "paley13": "d1a361df5b6aa5ab403d4dcdeebd33872999c6b76bc623d6e907fae1d22c68cb",
    "paley13 --bound 1": "d1a361df5b6aa5ab403d4dcdeebd33872999c6b76bc623d6e907fae1d22c68cb",
    "k1": "e4882a8386b84e7c96f86bec11fa114866ea4feaf50bb24e54a90592bf15e748",
    "k1 --bound 1": "e4882a8386b84e7c96f86bec11fa114866ea4feaf50bb24e54a90592bf15e748",
    "k2": "043c3dd16b9c54ab2fe34aac53f4c74f79f21f0306b1cb1d9bdec9e788578651",
    "k2 --bound 1": "043c3dd16b9c54ab2fe34aac53f4c74f79f21f0306b1cb1d9bdec9e788578651",
    "k3": "2deb5b042ebf40628a9aa5604dd31b3a0630a75de4532b9913a70d16b47a4b13",
    "k3 --bound 1": "2deb5b042ebf40628a9aa5604dd31b3a0630a75de4532b9913a70d16b47a4b13",
    "k4": "6c484c13beaeb718a6665eb0ceca8ba19136de29e30e55c9b8319587c45734ab",
    "k4 --bound 1": "6c484c13beaeb718a6665eb0ceca8ba19136de29e30e55c9b8319587c45734ab",
    "k6": "17515af3180be83a414b859bdd549b9772ef8baf342ff5e5365a85f13d8e6a1a",
    "k6 --bound 1": "17515af3180be83a414b859bdd549b9772ef8baf342ff5e5365a85f13d8e6a1a",
    "k222": "12e6e4a2a394a68155d5c56317176f5c698d5d3e2b9e386a205c3ad36c76f728",
    "k222 --bound 1": "12e6e4a2a394a68155d5c56317176f5c698d5d3e2b9e386a205c3ad36c76f728",
    "rook": "1ce07b7b214f452cf0f5284c2763acebccf12e3906096d8d26ca21fbf4acecd4",
    "rook --bound 1": "1ce07b7b214f452cf0f5284c2763acebccf12e3906096d8d26ca21fbf4acecd4",
    "shrikhande": "b1fc1ccbfcf244a417bc190cc9b5ac1842fec6b3374c480a3d8a1cd586b8d4ce",
    "shrikhande --bound 1": "b1fc1ccbfcf244a417bc190cc9b5ac1842fec6b3374c480a3d8a1cd586b8d4ce",
}


def test_report_na_json_is_unchanged(f9, f9_squared, paley13, rook, shrikhande, tmp_path,
                                     capsys, monkeypatch):
    points = np.arange(12)
    # K_{2,2,2}: color 1 across the parts {0,1}, {2,3}, {4,5}, color 2 within
    part = np.arange(6) // 2
    octahedron = np.where(part[:, None] == part[None, :], 2, 1)
    np.fill_diagonal(octahedron, 0)
    schemes = {"f9": f9, "f9sq": f9_squared,
               "thin12": sf.from_matrix((points[None, :] - points[:, None]) % 12),
               "paley13": paley13,
               **{"k%d" % n: sf.from_matrix(1 - np.eye(n, dtype=int)) for n in (1, 2, 3, 4, 6)},
               "k222": sf.from_matrix(octahedron), "rook": rook, "shrikhande": shrikhande}
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, scheme in schemes.items():
        sf.save_asc(scheme, name + ".asc")
        for flags in ([], ["--bound", "1"]):
            run(["report", name + ".asc", *flags, "--json"])
            key = " ".join([name, *flags])
            digests[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == REPORT_NA_SHA256


# sha256 of `fission NAME.asc ARGS` stdout, recorded from the FissionReport
# summary that the command's own reading of the configuration replaced
FISSION_SHA256 = {
    "z5 --points 0": "2fd8fe4c4eb990d3a9d100f6b58c736313954981ec39c9476e792e282d61d73e",
    "z5 --points 0 --json": "172787e38edf673674492baa37e5cfbd53201d83df1ba2c66c1e9aae0e2ad5a2",
    "z5 --points 0,1": "ea9221f751a73981dbc42d6eee4c8c85165e83f900944b8dfd13dc7fb6811d87",
    "z5 --points 0,1 --json": "9bebb32a40911ed3e02e0fbff7f384734b249882f1040ab4d133194eb5169d06",
    "z5 --points 1,0,1": "ea9221f751a73981dbc42d6eee4c8c85165e83f900944b8dfd13dc7fb6811d87",
    "z5 --points 1,0,1 --json": "9bebb32a40911ed3e02e0fbff7f384734b249882f1040ab4d133194eb5169d06",
    "z5 --points 0,1,2": "0181a578bc951d9352612cba83989df5e90d6635ae7943da5e3e6486d9828e30",
    "z5 --points 0,1,2 --json": "03a4f6367d9c0dfeccc14a77b50d00da2a77276f4e7bbd49d2b68c10423ee30b",
    "z13 --points 0": "ad973d81b85df14e048517abbd5a1fd222be926a9c556e3934a65425f09230f0",
    "z13 --points 0 --json": "aff5dad53250a6dda07e425ab29a9816406cf8105413944792edf1d92159a283",
    "z13 --points 0,1": "c92cc18842c2ca831d31fa9db6dfeb62b1bfe5384563e5d67d0e5d595556a48f",
    "z13 --points 0,1 --json": "5859e49fab49a3ede7d160eb90ab447245eca4abf8078cf887c9dde6866ddfec",
    "z13 --points 1,0,1": "c92cc18842c2ca831d31fa9db6dfeb62b1bfe5384563e5d67d0e5d595556a48f",
    "z13 --points 1,0,1 --json": "5859e49fab49a3ede7d160eb90ab447245eca4abf8078cf887c9dde6866ddfec",
    "z13 --points 0,1,2": "d23f87abeb96498692edda3f0743c1a66adc375d8f646fb17afdafacc7d8b494",
    "z13 --points 0,1,2 --json": "4e687d3472cfcf162f5110b58d8ebc8b296feb7b663ddd3dd4d0d7dbfc18fa56",
    "v25 --points 0": "d2f46cc6931d0fc86f16f1531e4040ceceda2248b3ba83baa597ea9562150354",
    "v25 --points 0 --json": "cb1a628e3f2db4eb71a48e2b5773d0d4f441e2d0bd6c75a72e4cbdef207b812e",
    "v25 --points 0,1": "57a1be4518d7daec4b7957c9f1ed10ad4c4f57ef152c1662c36d58ca805429ef",
    "v25 --points 0,1 --json": "e9bf80eabc89956055f734cb894a0c13db1b740487928ba202145ddebf89b767",
    "v25 --points 1,0,1": "57a1be4518d7daec4b7957c9f1ed10ad4c4f57ef152c1662c36d58ca805429ef",
    "v25 --points 1,0,1 --json": "e9bf80eabc89956055f734cb894a0c13db1b740487928ba202145ddebf89b767",
    "v25 --points 0,1,2": "f8cd8c45d6637297806b5cada64b616ad8c188fc2591faead93e3dacbaff791c",
    "v25 --points 0,1,2 --json": "6ba0eb42422fa5195fe8c69c705f87ab8928eda78ef9010960a9dbc3b7b60f15",
    "c53 --points 0": "1e8ff0449b37a79ff53fbb284f15d346edae3c4cda7a34442b47f67e4195fc99",
    "c53 --points 0 --json": "b087305ec9eb28bdc9bc75bbbe3a79d086f871acd98c83a9cb40b99d0eacea63",
    "c53 --points 0,1": "bb056bea1cc3633ba4867920fed23dc3cf3cf2ef2f2bb1d85f3287688a0853c2",
    "c53 --points 0,1 --json": "b709d6a4dd5f2f3c65a30172e02599e00f329594a369db59ce53c0b1b83a0e12",
    "c53 --points 1,0,1": "bb056bea1cc3633ba4867920fed23dc3cf3cf2ef2f2bb1d85f3287688a0853c2",
    "c53 --points 1,0,1 --json": "b709d6a4dd5f2f3c65a30172e02599e00f329594a369db59ce53c0b1b83a0e12",
    "c53 --points 0,1,2": "8ea9e497b068c6e3a085efd11e814489798501fccd28449496cbb9630e082721",
    "c53 --points 0,1,2 --json": "fa9591589977e889256440cfd5b3d225070d377fa25d7d664df0178ca099fca9",
    "c197 --points 0": "fe2ec678c1e3bd720214237005157a16d0d7b27cc533ff0843dae50dd3395c31",
    "c197 --points 0 --json": "efc1fd62025d4ada3a4b77ef36f9921e53510a6c28dead08304cf4adfd1afa70",
    "c197 --points 0,1": "441b3a24a344ebb800ad3c0c57e635779fdb4ed4c83ec492a3183a454e0c179e",
    "c197 --points 0,1 --json": "b97f1d238abf755ac07e0794baadce4e5c704bf989feec84ab32a5d2cc8a32cd",
    "c197 --points 1,0,1": "441b3a24a344ebb800ad3c0c57e635779fdb4ed4c83ec492a3183a454e0c179e",
    "c197 --points 1,0,1 --json": "b97f1d238abf755ac07e0794baadce4e5c704bf989feec84ab32a5d2cc8a32cd",
    "c197 --points 0,1,2": "c7a971533041f5d84420a9387985a611c2f6b79fd353ed17d47c9b72cbec2c48",
    "c197 --points 0,1,2 --json": "ede0b9bd2becfb3eb92dc21e69bcca01ec9526d94c65b585549a16e59eb7c6d3",
}


@pytest.fixture(scope="module")
def fission_files(z5, z13, v25, c53, c197, tmp_path_factory):
    folder = tmp_path_factory.mktemp("fission")
    files = {}
    for name, scheme in {"z5": z5, "z13": z13, "v25": v25, "c53": c53, "c197": c197}.items():
        files[name] = str(folder / (name + ".asc"))
        sf.save_asc(scheme, files[name])
    return files


@pytest.mark.parametrize("case", sorted(FISSION_SHA256))
def test_fission_output_is_unchanged(case, fission_files, capsys):
    name, *args = case.split()
    assert run(["fission", fission_files[name], *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == FISSION_SHA256[case]


# sha256 of the JSON list [stdout, stderr, exit code] of `COMMAND NAME.asc
# ARGS`, run from the file's directory, recorded while each command wrote its
# JSON and its text in a branch of its own
EMITTED_SHA256 = {
    "props z5": "62d5d7c6e0009cc95e362f04a4613297d307332b0ae3c27c87ec6827b63c7e0a",
    "props z5 --json": "f057414a98e7333e448a51132de413513b45b117c5b291e871513c5a3fb58b09",
    "lemmas z5": "9c620c759eb1a3f0971814e107ad8cc305cfdd43d3a7b10c23f598bc4a53c94b",
    "lemmas z5 --json": "0d92fdb918c1595d40095126273b6a26e837cf0d360ef94ed813697001763128",
    "base z5": "6a2752a15f57fbf6654f82f6721e1a169747c7a75885dfafddbfe833b984a8c3",
    "base z5 --json": "88c57244c4ca8de69a8475c483fe780c3e891cac37c095de8e22b7dbb249be66",
    "base z5 --cutoff 1": "ea23baca31b65254e0b9a6fa11cbaadbcc4cd51d082b658b6f64c53375fa3477",
    "base z5 --cutoff 1 --json": "82fa508d0009597d97486c13a90bc82fcb04ceca514036e89e3fa666c9dce0f2",
    "design z5": "7a51d34dfa92cd12ef96c36f59c9c1cd4702d7bbc59e685104ab43fe1455810b",
    "design z5 --json": "33b0a3024246ad5ecabe3a1f38db83a20e056a2aa22bddf210c1e0b66ca067cb",
    "aut z5": "a9c8180810a124f7666f21db96f8d96d41fff91d770d5a7c689afe726cb2dee1",
    "report z5": "2332c004d57db6783da022412624cd63b23db99b259f04074c96355b3de09b22",
    "props z13": "45932f55689ce659d55c46024cc0e2031b7f8f95d5facf74686cf89fb26264a2",
    "props z13 --json": "dff14d6411598db21680d39d2345a957763cf879641038e22a78b4afb99045f5",
    "lemmas z13": "6eb5b7f2f6d95e5cf5a562d4e157b4dd2d436144ab55d2cf631628d53a77c3a0",
    "lemmas z13 --json": "487c8ed2761ffc183647f16e05de4b616ad2d2d23d1708ba57c21b9f7c96f1c0",
    "base z13": "8e61c58f79ad1a68d9fd119b133d14ae7a05c1054e57c7ee3720a8bc984ce73e",
    "base z13 --json": "e196f703cc0e609e6b89811fea5808c1c705f7264cd5871c74b449429834a748",
    "base z13 --cutoff 1": "ea23baca31b65254e0b9a6fa11cbaadbcc4cd51d082b658b6f64c53375fa3477",
    "base z13 --cutoff 1 --json": "82fa508d0009597d97486c13a90bc82fcb04ceca514036e89e3fa666c9dce0f2",
    "design z13": "f999f6375469c20f9d65a61e8d9dbb192e1c09f05daeb6acb836d03b18f65a29",
    "design z13 --json": "1341f499fdec29d8462bc6f4dd030e60f89123dac13cadf96e10519776add954",
    "aut z13": "787cca2235103d2b24e8380e971af14a866ff1678d87170bae54717e9ee5fbc6",
    "report z13": "2471808e888953d6a8beb9fc08632326eefb80a5e3cc9876c7b8cfad44513e32",
    "props v25": "b9bded707aea09dd93ec366421103fd6cef2730544d165da6f2f878233db70ed",
    "props v25 --json": "cb2332391bae905927f16792c47738139a578426bb855d5ea6983f75199b7bbd",
    "lemmas v25": "bbf52db4abd2964e123f86ddf69726c11132b164a2a03469139e685fe5e0ec14",
    "lemmas v25 --json": "56b26f423b33538c71c95b91ba13fcc00972e38fd4bbc5c591c1650cb351ce57",
    "base v25": "8e61c58f79ad1a68d9fd119b133d14ae7a05c1054e57c7ee3720a8bc984ce73e",
    "base v25 --json": "e196f703cc0e609e6b89811fea5808c1c705f7264cd5871c74b449429834a748",
    "base v25 --cutoff 1": "ea23baca31b65254e0b9a6fa11cbaadbcc4cd51d082b658b6f64c53375fa3477",
    "base v25 --cutoff 1 --json": "82fa508d0009597d97486c13a90bc82fcb04ceca514036e89e3fa666c9dce0f2",
    "design v25": "872065570071a7360777cebc981b082542d501001281573d05ca2da2c6e3a6b2",
    "design v25 --json": "be008818bb7ef0b2a1f6782d20ca1346a9f0726663292a68a04a812c0c86bd54",
    "aut v25": "eec2b9f9c5344c81b58a7c8d7d9fe254f794ad986847282a74eabb31acdd389e",
    "report v25": "615a02b35d8322719879edf272af9510852a9129bf3a1a4859ca7b493a644fba",
    "props f9": "0e3980895b27e5157f376d29e7aedbf53ae2cff4a23c4294de889a2da483b47a",
    "props f9 --json": "94e5c1929291d30f8d962ff7458eb5e6f7957cfe0abb20e9b97ec8a7fcd5bb81",
    "lemmas f9": "f127fa61f59aa5d6221a232d6f844ed7ef4e2ef577263e256193c087e1829141",
    "lemmas f9 --json": "ac2b5625a2ef04ac2f97c838eb7d6c0a9f7599ef1fe6d9b3408ab2ce298a8ac3",
    "base f9": "7b5b01f2569a7bda4c0b72fd1a2cdcc8eb450367e7ffa070b6dd23389d3f4ba5",
    "base f9 --json": "8115f7d11732626d0afda11d9b73469c6c04f27bd3ce2a03ec1c896062d02a99",
    "base f9 --cutoff 1": "ea23baca31b65254e0b9a6fa11cbaadbcc4cd51d082b658b6f64c53375fa3477",
    "base f9 --cutoff 1 --json": "82fa508d0009597d97486c13a90bc82fcb04ceca514036e89e3fa666c9dce0f2",
    "design f9": "01f5aed8d45cc5dda7d00f61191238469be504e75980b525233e317aa98a4369",
    "design f9 --json": "5079af4b20a6cd4de4c396db1074aa9514a2700ae92cc7d555a5bc38c21137d6",
    "aut f9": "5067c50968fec254ce14882c29203aec2cf4ef902a8178b7e507c1784cf2fdb5",
    "report f9": "30fb05e9c8437be07852ba6e6f67ccd51681bb6751efc4d9271f8c04324e7382",
    "props k4": "27859238884525f221861aab0d34b5ac31cc392ca4254e7dce2b04dd0d35d146",
    "props k4 --json": "8f3333ab3480b6f0d2b65604e66fbdb786df9d2b6009f75b53fb3b0b7cb45312",
    "lemmas k4": "f0523c955289c8ce27cef810e2115d9b1e9a069df28ce7029dde440f390dd86f",
    "lemmas k4 --json": "f0523c955289c8ce27cef810e2115d9b1e9a069df28ce7029dde440f390dd86f",
    "base k4": "99883dcc0e149a4a12bc392bfda673e3a7bc30237e560bbb650425766ee40bd4",
    "base k4 --json": "d23586ea75bac923f75089f04c11a1988b43ff1be0422536bb791be40e569895",
    "base k4 --cutoff 1": "ea23baca31b65254e0b9a6fa11cbaadbcc4cd51d082b658b6f64c53375fa3477",
    "base k4 --cutoff 1 --json": "82fa508d0009597d97486c13a90bc82fcb04ceca514036e89e3fa666c9dce0f2",
    "design k4": "8c12d860640f4ce81f5776f7f3cbed31090bc2cb578271af35db1f322e348de0",
    "design k4 --json": "8c12d860640f4ce81f5776f7f3cbed31090bc2cb578271af35db1f322e348de0",
    "aut k4": "aa6a1f9f8b4bb9513baf7d3ae84ceaaef7443b2282514a3df95c8dd16182a27c",
    "report k4": "5fe6a9e8d78e7c3c862ede9460241a903b8505adb7707f17651e268027237117",
}


@pytest.fixture(scope="module")
def emitted_dir(z5, z13, v25, f9, tmp_path_factory):
    folder = tmp_path_factory.mktemp("emitted")
    k4 = sf.from_matrix(1 - np.eye(4, dtype=int))
    for name, scheme in {"z5": z5, "z13": z13, "v25": v25, "f9": f9, "k4": k4}.items():
        sf.save_asc(scheme, str(folder / (name + ".asc")))
    return folder


@pytest.mark.parametrize("case", sorted(EMITTED_SHA256))
def test_emitted_output_is_unchanged(case, emitted_dir, capsys, monkeypatch):
    command, name, *args = case.split()
    monkeypatch.chdir(emitted_dir)
    code = run([command, name + ".asc", *args])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(json.dumps([out, err, code]).encode()).hexdigest()
    assert digest == EMITTED_SHA256[case]


def test_fission_json(z13_file, capsys):
    assert run(["fission", z13_file, "--points", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distinguished"] == [0]
    assert payload["num_colors"] == 43
    assert payload["num_fibers"] == 4
    assert payload["semiregular_off"] is None
    assert payload["complete"] is False


def test_fission_flags_the_point_off_which_it_is_not_semiregular(fission_files, capsys):
    # rank 2: the fission at 0 keeps the other four points in one fiber
    assert run(["fission", fission_files["z5"], "--points", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["semiregular_off"] == 0
    assert payload["fibers"] == [[0], [1, 2, 3, 4]]


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


@pytest.mark.parametrize("name", ("z13", "c101"))
def test_report_builds_phi_psi_once(request, monkeypatch, name):
    # c101 has no doubled square, so its base number comes from find_base
    builds = []
    original = products.phi_psi

    def recording(scheme):
        builds.append(scheme.n)
        return original(scheme)

    monkeypatch.setattr(products, "phi_psi", recording)
    scheme = request.getfixturevalue(name)
    build_report(scheme, name)
    assert builds == [scheme.n]


def test_report_layers_are_gated_like_their_checks(v25, z5, monkeypatch):
    calls = []
    for module, name in ((products, "verify_structure_lemmas"), (groups, "automorphism_group"),
                         (groups, "orbits"), (groups, "sigma_alpha"), (planes, "build_planes"),
                         (fission, "point_fission")):
        def spy(*args, _build=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    def context(scheme):
        calls.clear()
        return cli._build_context(scheme, "", groups.DEFAULT_BOUND, fission.DEFAULT_CUTOFF,
                                  planes.DEFAULT_RADIUS)

    # v25 has Aut but no 2u+v square: no sigma, no planes
    ctx = context(v25)
    assert ctx["aut"] is not None and not ctx["pp"].s3
    assert "sigma_alpha" not in calls and "build_planes" not in calls
    assert ctx["sigma"] == {} and ctx["planes"] == {}
    # z5 has rank 2: no one-point fissions
    ctx = context(z5)
    assert ctx["fissions"] == {} and "point_fission" not in calls
    # valency 1 and 3: no layer at all
    points = np.arange(12)
    for scheme in (sf.from_matrix((points[None, :] - points[:, None]) % 12),
                   sf.from_matrix(1 - np.eye(4, dtype=int))):
        ctx = context(scheme)
        assert calls == []
        assert (ctx["structure"], ctx["pp"], ctx["aut"], ctx["points"]) == (None, None, None, ())


def test_frobenius_on_group(tmp_path, capsys):
    perm = tmp_path / "g.perm"
    sf.save_perm(sf.cyclotomic_frobenius(17), str(perm))
    assert run(["frobenius", str(perm)]) == 0
    assert "frobenius: True" in capsys.readouterr().out


def test_frobenius_on_non_frobenius_group(tmp_path):
    perm = tmp_path / "sym4.perm"
    sf.save_perm(sf.PermGroup(4, ((1, 0, 2, 3), (1, 2, 3, 0))), str(perm))
    assert run(["frobenius", str(perm)]) == 1


def test_frobenius_on_the_groups_that_aut_writes(z13_file, tmp_path, capsys):
    perm = tmp_path / "aut.perm"
    assert run(["aut", z13_file, "-o", str(perm)]) == 0
    capsys.readouterr()
    assert run(["frobenius", str(perm), "--json"]) == 0
    assert capsys.readouterr().out == '{\n  "frobenius": true,\n  "order": 52\n}\n'


def test_frobenius_json_closes_a_perm_group_once(z13_file, tmp_path, monkeypatch):
    # the verdict and the printed order come from one list of the elements
    perm = tmp_path / "aut.perm"
    assert run(["aut", z13_file, "-o", str(perm)]) == 0
    calls = []
    dimino = groups._dimino

    def spy(*args, **kwargs):
        calls.append(args)
        return dimino(*args, **kwargs)

    monkeypatch.setattr(groups, "_dimino", spy)
    assert run(["frobenius", str(perm), "--json"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("flags, out", [((), "no Frobenius witness found\n"),
                                        (("--json",), '{\n  "witness": null\n}\n')])
def test_frobenius_without_a_witness_exits_1(tmp_path, capsys, flags, out):
    # K_4: valency 3, so the lemma does not apply
    path = tmp_path / "k4.asc"
    path.write_text("4 2\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n")
    assert run(["frobenius", str(path), *flags]) == 1
    assert capsys.readouterr() == (out, "")


def test_commands_count_no_intersection_number(tmp_path, thin120, capsys, monkeypatch):
    # only the valency-4 algebra of products reads the tensor: generating,
    # checking, fission, designs and the group commands on c53, and check,
    # props and report on a scheme whose valency is not 4, build none
    def refuse(*args, **kwargs):
        raise AssertionError("tensor built")

    monkeypatch.setattr(sf.scheme_core, "IntersectionTensor", refuse)
    c53, thin = tmp_path / "c53.asc", tmp_path / "thin120.asc"
    sf.save_asc(thin120, str(thin))
    assert run(["gen", "cyclotomic", "--p", "53", "-o", str(c53)]) == 0
    for argv in (["check"], ["fission", "--points", "0"], ["design"], ["aut"], ["frobenius"],
                 ["base"], ["base", "--json"]):
        assert run([argv[0], str(c53), *argv[1:]]) == 0, argv
    for argv in (["check"], ["props"], ["report"]):
        assert run([argv[0], str(thin), *argv[1:]]) == 0, argv


def test_thin_scheme_commands_stay_small(tmp_path, capsys):
    # the thin scheme of Z_300 has 300 colors, and a tensor of them 300**3
    # words (216 MB); check, props and report read the matrix alone
    points = np.arange(300)
    path = tmp_path / "thin300.asc"
    sf.save_asc(sf.from_matrix((points[None, :] - points[:, None]) % 300), str(path))
    for argv in (["check"], ["props", "--json"], ["report", "--json"]):
        tracemalloc.start()
        try:
            code = run([argv[0], str(path), *argv[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, argv
        assert peak < 32 * 2**20, (argv, peak)
    capsys.readouterr()


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
    calls = []
    original = planes.build_planes

    def counting(scheme, pp, bases, **kwargs):
        calls.append(list(bases))
        return original(scheme, pp, bases, **kwargs)

    monkeypatch.setattr(planes, "build_planes", counting)
    assert run(["report", z13_file, "--json"]) == 0
    assert calls == [[1, 2, 3]]  # s3 of z13, all planes in one lockstep call


def test_report_plane_failure_detail(z13_file, capsys, monkeypatch):
    # color 2's base with delta and epsilon swapped: color(beta, delta) is
    # then color(beta, sigma^3 beta), which is 1, not psi(2)
    original = cli._plane_base

    def swapped(scheme, pp, sigma, s, alpha):
        base = original(scheme, pp, sigma, s, alpha)
        return base[:3] + base[:2:-1] if s == 2 else base

    monkeypatch.setattr(cli, "_plane_base", swapped)
    assert run(["report", z13_file, "--json"]) == 1
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("plane-rotation", "plane-alignment"):
        assert (by_name[name]["status"], by_name[name]["detail"]) == (
            "fail", "color 2: color(beta,delta) = 1, expected psi(s) = 3")


def test_report_v25_asserts_base_number(v25_file, capsys):
    assert run(["report", v25_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["base-number"]["status"] == "pass"
    assert by_name["independent-product-split"]["status"] == "pass"
    assert by_name["frobenius-witness"]["status"] == "pass"


def test_base_number_fails_when_a_point_completes(v25_file, capsys, monkeypatch):
    # a complete one-point fission is semiregular too (every color has
    # out-degree 1), so only its completeness rules the single points out
    original = fission.point_fission

    def complete_at_points(scheme, points, group=None):
        if len(points) == 1:
            n = scheme.n
            return fission.CoherentConfiguration(np.arange(n * n).reshape(n, n), n * n)
        return original(scheme, points, group)

    monkeypatch.setattr(fission, "point_fission", complete_at_points)
    assert run(["report", v25_file, "--json"]) == 1
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert (by_name["base-number"]["status"], by_name["base-number"]["detail"]) == (
        "fail", "pair completes but single points were not ruled out")


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


def test_fission_command_builds_one_fission_without_wl(z13_file, capsys, monkeypatch):
    # with Aut the one-point fission is its certified orbit partition
    calls = {"wl_stabilize": 0, "point_fission": 0}
    for name in calls:
        original = getattr(fission, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fission, name, counting)
    assert run(["fission", z13_file, "--points", "0"]) == 0
    assert "fiber: [0]" in capsys.readouterr().out
    assert calls == {"wl_stabilize": 0, "point_fission": 1}


def test_plane_radius_below_one_exit_2(z13_file, capsys):
    argv = ["plane", z13_file, "--s", "1", "--radius", "-3"]
    assert _exit_without_traceback(argv, capsys) == 2


def test_report_radius_below_one_exit_2(z13_file, capsys):
    argv = ["report", z13_file, "--radius", "-1", "--json"]
    assert _exit_without_traceback(argv, capsys) == 2


@pytest.mark.parametrize("argv", [
    ["aut", "--bound", "0"], ["aut", "--bound", "-3", "--json"], ["frobenius", "--bound", "-3"],
    ["report", "--bound", "0"], ["report", "--bound", "-3", "--json"],
    ["plane", "--s", "1", "--bound", "0"], ["base", "--cutoff", "-1"],
    ["base", "--cutoff", "-1", "--json"], ["report", "--cutoff", "-1", "--json"],
    # fission and base take no --bound: argparse refuses it
    ["fission", "--points", "0", "--bound", "-3"], ["base", "--bound", "-3"]])
def test_bound_below_one_or_cutoff_below_zero_exit_2(z13_file, capsys, argv):
    code = run(argv[:1] + [z13_file] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "usage" in captured.err and "Traceback" not in captured.err


def test_smallest_bound_and_cutoff_are_accepted(z13_file, capsys):
    # |Aut(z13)| = 52 > 1, so aut stops at the bound; cutoff 0 finds no base
    assert run(["aut", z13_file, "--bound", "1"]) == 1
    assert "BoundExceeded" in capsys.readouterr().err
    assert run(["base", z13_file, "--cutoff", "0"]) == 1
    assert "base number exceeds cutoff 0" in capsys.readouterr().out


def test_plane_falls_back_when_aut_passes_bound(z13_file, capsys):
    # |Aut| = 52 > 10: no sigma_alpha, so the plane takes the first valid base
    assert run(["plane", z13_file, "--s", "1", "--bound", "10", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["base"][0] == 0
    assert payload["rotation_invariant"] is True
