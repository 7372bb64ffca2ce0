"""The README's documented library use runs as written."""

import importlib
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import ghostcomb
from ghostcomb import RunConfig
from ghostcomb.config import parse_overrides

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library use") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    fit, geom = namespace["fit"], namespace["geom"]
    assert abs(fit.offset_est - geom.retarded_offset) < 5 * fit.offset_stderr
    assert capsys.readouterr().out.count("\n") == 2


def config_table() -> dict:
    """Key -> default text, from the README's config key table."""
    text = README.read_text()
    section = text[text.index("## Config keys") :]
    section = section[: section.index("\n## ", 1)]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) < 3 or not cells[0].startswith("`"):
            continue
        keys = re.findall(r"`(\w+)`", cells[0])
        defaults = [d.strip() for d in cells[1].split(",")]
        if len(defaults) == 1:
            defaults *= len(keys)
        assert len(defaults) == len(keys), line
        rows.update(zip(keys, defaults))
    return rows


def test_config_table_lists_every_key_with_its_default():
    table = config_table()
    defaults = RunConfig().as_dict()
    assert sorted(table) == sorted(defaults)
    for key, text in table.items():
        assert parse_overrides([f"{key}={text}"])[key] == defaults[key], key


def test_config_table_keys_are_the_runconfig_fields():
    # Each field once: a key listed twice, or a field with no row, fails.
    text = README.read_text()
    section = text[text.index("## Config keys") :]
    section = section[: section.index("\n## ", 1)]
    keys = [
        key
        for line in section.splitlines()
        if line.startswith("| `")
        for key in re.findall(r"`(\w+)`", line.split("|")[1])
    ]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))


def test_module_attributes_named_in_backticks_exist():
    # A rename in the package leaves no stale `module.name` behind.
    modules = {info.name for info in pkgutil.iter_modules(ghostcomb.__path__)}
    named = re.findall(r"`(?:ghostcomb\.)?(\w+)\.(\w+)", README.read_text())
    refs = {(module, name) for module, name in named if module in modules}
    assert refs
    for module, name in sorted(refs):
        assert hasattr(importlib.import_module(f"ghostcomb.{module}"), name), f"{module}.{name}"
