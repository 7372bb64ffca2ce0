"""The README's documented library use runs as written."""

import re
from pathlib import Path

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
