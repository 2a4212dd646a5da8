"""Every name ``rydsim`` exports is read by the package or by the benchmark.

A name that only tests read is an oracle, which belongs in
``tests/oracles.py``, or dead code.  The scan is static: it parses
``src/rydsim/*.py`` (the package's own ``__init__.py`` aside, which only
re-exports) and ``bench/*.py``, and counts as a read every ``Name``, every
``Attribute``, every imported name and every string constant equal to the
name, since ``bench/layers.py`` names its traced functions as strings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rydsim"

#: subjects of acceptance criteria 06 (faulty gate) and 10 (duration
#: calibration), which no command reaches
CRITERION_SUBJECTS = {"faulty_gate", "calibrate_duration"}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def names_read(paths) -> set[str]:
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def test_every_export_is_read_outside_tests():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    unread = exported_names() - names_read(sources) - CRITERION_SUBJECTS
    assert not unread, f"exported from rydsim but read only by tests: {sorted(unread)}"
