"""README's Library example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no python block under ## Library"
    exec(compile(block.group(1), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3  # selection and accuracy, rank and eigenvalues, the match
