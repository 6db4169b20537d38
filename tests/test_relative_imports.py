"""`src/spanqa` imports its own modules only relatively, so the package
can be imported a second time under another name (an older tree beside
this one in one process) without either copy reaching the other."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spanqa"


def absolute_self_imports(source: str) -> list:
    """(line, module) for each import of `spanqa` by its absolute name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name == "spanqa" or name.startswith("spanqa.")]
    return found


def test_package_imports_itself_relatively():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) > 10
    offenders = {str(f.relative_to(PACKAGE)): absolute_self_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_absolute_self_imports_are_found():
    source = "import numpy\nimport spanqa.encoder\nfrom spanqa import model\nfrom . import corpus\nfrom spanqa_old import x\n"
    assert absolute_self_imports(source) == [(2, "spanqa.encoder"), (3, "spanqa")]
