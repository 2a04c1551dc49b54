"""The README's Quickstart block runs as written and prints what its
comments say, so an API change cannot leave it stale."""
import contextlib
import io
import re

from conftest import ROOT


def quickstart() -> str:
    """The first python block under README's "## Quickstart" heading."""
    section = (ROOT / "README.md").read_text().split("## Quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs_and_prints_its_comments():
    code = quickstart()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "quickstart"})
    lines = out.getvalue().splitlines()
    assert "# (True, True, True, True)" in code and "(True, True, True, True)" in lines
    assert "# 0" in code and "0" in lines
    slope, target = map(float, lines[-1].split())
    assert "# ~1.330 vs 1.333..." in code
    assert round(slope, 3) == 1.330 and target == 4 / 3
