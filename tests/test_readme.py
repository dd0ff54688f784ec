"""README's Library example runs as written against the package, and the
contracts README states match the code."""

import re
from pathlib import Path

from sgbm import _openblas, cli, harness

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no python block under ## Library"
    exec(compile(block.group(1), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3  # selection and accuracy, rank and eigenvalues, the match


def test_readme_exit_codes_are_the_cli_constants():
    """README's and the cli docstring's exit-code lines list each cli.EXIT_*
    code, in order, named after its constant (EXIT_CONFIG: "2 config ..."),
    and no other code."""
    constants = sorted((value, name.removeprefix("EXIT_").lower())
                       for name, value in vars(cli).items() if name.startswith("EXIT_"))
    for text in (README.read_text(), cli.__doc__):
        line = re.search(r"^Exit codes: (.*?)\.$", text, re.M | re.S)
        assert line is not None
        listed = [(int(code), word.lower()) for code, word in
                  re.findall(r"(?:^|, )(\d+) (\w+)", " ".join(line.group(1).split()))]
        assert listed == constants


def test_readme_meta_example_is_what_write_meta_writes(tmp_path, monkeypatch):
    """The eigensolver: lines of README's meta.txt example are the ones
    harness.write_meta writes with the LAPACKE routines bound and without."""
    written = []
    for routines in (dict.fromkeys(_openblas._LAPACK), None):
        monkeypatch.setattr(_openblas, "lapack", lambda routines=routines: routines)
        harness.write_meta(tmp_path / "meta.txt", {})
        written += [line for line in (tmp_path / "meta.txt").read_text().splitlines()
                    if line.startswith("eigensolver: ")]
    shown = re.findall(r"^eigensolver: .*$", README.read_text(), re.M)
    assert shown == written
