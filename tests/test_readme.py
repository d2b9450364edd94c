"""The README's library quick tour and command-line examples run as written."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from janbessel.cli import CSV_HEADER, run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title):
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_quick_tour_prints_what_its_comments_say():
    block = re.search(r"```python\n(.*?)```", _section("Library quick tour"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[0] == "(0.8414709848078965+0j)" and "# (0.8414709848078965+0j)\n" in block
    assert lines[1].startswith("True ")
    verdict, margin = lines[2].split()
    assert verdict == "holds-on-grid" and float(margin) > 0.0
    assert lines[3] == "0.999" and "# 0.999: the cap max_radius is feasible\n" in block


def test_command_line_examples_run(capsys):
    examples = _section("Command line").split("Examples:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = examples.splitlines()
    assert len(lines) == 8 and all(line.startswith("janbessel ") for line in lines)
    verbs = []
    for line in lines:
        argv = shlex.split(line)[1:]
        assert run(argv) == 0, line
        out, err = capsys.readouterr()
        assert err == "", line
        if argv[-2:] == ["--format", "csv"]:
            header, *rows = out.splitlines()
            assert header == CSV_HEADER and rows, line
            assert all(len(row.split(",")) == len(CSV_HEADER.split(",")) for row in rows), line
        else:
            doc = json.loads(out)
            assert list(doc) == ["schema_version", "command", "timestamp", "payload"], line
            assert doc["command"] == {"verb": argv[0], "argv": argv}, line
        verbs.append(argv[0])
    assert sorted(set(verbs)) == ["admissibility", "bounds", "check", "eval", "radius", "scan", "verify"]
