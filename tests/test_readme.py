"""README's "Library use" example runs as written, and its config reference lists the schema."""

import re
from pathlib import Path

from dispersal_lab.cli import SCHEMA, integer

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lam0, root, bracket = capsys.readouterr().out.split(maxsplit=2)
    assert float(lam0) > 0 and 0.1 < float(root) < 1.0


def test_config_reference_lists_every_schema_key_and_no_other():
    """Each row of the table is | section | `key`, `key` | value | default |."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Scenario configuration", 1)[1].split("\n## ", 1)[0]
    listed = {(label.replace("`", ""), key)
              for label, keys in re.findall(r"^\| ([^|]+?) \| ([^|]+?) \|", section, re.M)
              for key in re.findall(r"`(\w+)`", keys)}
    assert listed == {(label, key) for label, table in SCHEMA.items() for key in table}


def test_integer_key_rule_lists_every_integer_key_and_no_other():
    """The rules name the integer keys once each, as "An integer key (`n`, ...) takes"."""
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"An integer key\s+\(([^)]*)\)", text).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(
        {key for table in SCHEMA.values() for key, row in table.items() if row.convert is integer})
