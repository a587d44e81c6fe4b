"""README's library example and CLI block, run as written."""

import re
import shlex
from pathlib import Path

from scheme_forge.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_states_true_values():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    names: dict = {}
    exec(compile(block, str(README), "exec"), names)
    scheme, pp = names["scheme"], names["pp"]
    assert (scheme.n, scheme.r, names["sf"].is_k_equivalenced(scheme)) == (13, 4, 4)
    assert (pp.phi, pp.psi) == ((0, 3, 1, 2), (0, 2, 3, 1))
    assert names["sf"].group_order(names["aut"]) == 52
    assert names["sf"].group_order(names["witness"]) == 52


def test_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## CLI\n\n.*?```sh\n(.*?)```", text, re.S)
    lines = block.strip().splitlines()
    assert len(lines) == 13
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "scheme-forge"
        assert run(argv[1:]) == 0, line
        assert "Traceback" not in capsys.readouterr().err, line
