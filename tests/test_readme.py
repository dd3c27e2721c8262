"""README's fenced ``python`` blocks run as written, in order, in one namespace, and
every ``chainopt`` line of its command-line block runs on README's own config."""

import re
import shlex
from pathlib import Path

from chainopt.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def test_python_blocks_run():
    blocks = _blocks(README.read_text(encoding="utf-8"), "python")
    assert blocks, "README has no python block"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # cloud.txt is an 8 x 8 grid on the unit square, exp.cfg is README's config block
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line)[1:] for line in
                _blocks(section, "sh")[0].replace("\\\n", " ").splitlines()]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(_blocks(text, "ini")[0], encoding="utf-8")
    (tmp_path / "cloud.txt").write_text("# dim=2\n" + "".join(
        f"{i / 7!r} {j / 7!r}\n" for i in range(8) for j in range(8)), encoding="utf-8")
    # cover, tree build, optimize, validate-upper, validate-lower, validate-lemmas
    assert [main(argv) for argv in commands] == [0, 0, 0, 0, 0, 0], capsys.readouterr().err
