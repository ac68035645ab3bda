"""README's "Library use" example runs as written against the package's top-level names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lam0, root, bracket = capsys.readouterr().out.split(maxsplit=2)
    assert float(lam0) > 0 and 0.1 < float(root) < 1.0
