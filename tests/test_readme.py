"""The README's Python examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from isingrg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert blocks
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:  # later blocks reuse names of earlier ones
            exec(compile(block, str(README), "exec"), namespace)
    assert "disorder" in out.getvalue()


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "isingrg"]
    assert len(commands) >= 6
    monkeypatch.setenv("ISINGRG_OUTDIR", str(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert main(argv) == 0, argv
