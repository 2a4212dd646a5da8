"""Every function the benchmark's tracer instruments still exists.

``bench/layers.py`` names the traced functions as strings; a refactor that
renames or deletes one would only surface when ``bench/run.py --trace 1``
runs.  This guard reads the same ``TARGETS`` and resolves each name the way
the tracer does: ``getattr`` for a module function, the class ``__dict__``
for a ``Class.method``.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import TARGETS

    assert TARGETS
    missing = []
    for target in TARGETS:
        module = importlib.import_module(target.module)
        owner, _, attr = target.attr.rpartition(".")
        if owner:
            found = vars(getattr(module, owner, object)).get(attr)
        else:
            found = getattr(module, attr, None)
        if not callable(found):
            missing.append(f"{target.module}.{target.attr}")
    assert not missing, f"traced names missing from rydsim: {missing}"
