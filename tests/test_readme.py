"""The README's Quickstart block runs as written and prints what its
comments say, and every qualified name the README and the package's
docstrings cite exists, so an API change cannot leave them stale."""
import ast
import contextlib
import importlib
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


MODULES = ("channel", "cli", "designspace", "dof", "errors", "exactrank", "formats", "scheme",
           "sim", "verify")
# `module.name` or `module.name.attr`, biakit. prefix and call arguments optional
QUALIFIED = re.compile(r"`(?:biakit\.)?(%s)\.(\w+)(?:\.(\w+))?(?:\([^`]*\))?`" % "|".join(MODULES))


def cited_names() -> list[tuple[str, str]]:
    """(where, cited name) of every backticked qualified name in README.md
    and in the docstrings of src/biakit."""
    texts = [("README.md", (ROOT / "README.md").read_text())]
    for path in sorted((ROOT / "src" / "biakit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                texts.append((path.name, ast.get_docstring(node, clean=False) or ""))
    return [(where, match.group(0)) for where, text in texts for match in QUALIFIED.finditer(text)]


def test_every_cited_qualified_name_resolves():
    cited = cited_names()
    assert len(cited) >= 40  # the pattern still finds the citations
    missing = []
    for where, name in cited:
        module, attr, member = QUALIFIED.fullmatch(name).groups()
        owner = importlib.import_module("biakit." + module)
        found = hasattr(owner, attr)
        if found and member:
            owner = getattr(owner, attr)
            found = hasattr(owner, member) or member in getattr(owner, "__dataclass_fields__", {})
        if not found:
            missing.append((where, name))
    assert missing == []
