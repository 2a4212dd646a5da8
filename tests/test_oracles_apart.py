"""The oracles in ``tests/oracles.py`` stay apart from what they certify.

An oracle that reads a private ``rydsim`` name (one that starts with ``_``)
reuses the implementation it should check.  The three syndrome-chain
oracles, and the scalar SplitMix64 draws they read, go further and read
nothing from ``rydsim`` at all: they rebuild the chain from the lattice's
cell lists.  The scan is static: it parses
``tests/oracles.py`` and counts as read every name imported from
``rydsim`` and every attribute read off a name bound to ``rydsim``.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"

#: oracles that must import nothing from rydsim, with the draws they read
SELF_CONTAINED = ("syndrome_mc_reference", "sweep_loop_reference", "syndrome_chain_exact",
                  "splitmix64", "cooling_draw", "start_syndromes", "sweep_draws",
                  "_cooling_kinds")


def _is_rydsim(module) -> bool:
    return module is not None and (module == "rydsim" or module.startswith("rydsim."))


def rydsim_imports(nodes):
    """(names imported from rydsim, names bound to rydsim) in ``nodes``."""
    names, bound = [], set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.ImportFrom) and _is_rydsim(node.module):
            names += [alias.name for alias in node.names]
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_rydsim(alias.name):
                    names += alias.name.split(".")[1:]
                    bound.add(alias.asname or "rydsim")
    return names, bound


def rydsim_reads(nodes, bound) -> list[str]:
    """Every rydsim name ``nodes`` read: their rydsim imports, and each name
    or attribute read off a name that they or an enclosing scope
    (``bound``) bound to rydsim."""
    names, own = rydsim_imports(nodes)
    bound = bound | own
    for node in (n for top in nodes for n in ast.walk(top)):
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in bound:
            names.append(node.attr if isinstance(node, ast.Attribute) else node.id)
    return names


def _scopes():
    """(module-level statements, {function name: its node}) of the oracles."""
    body = ast.parse(ORACLES.read_text()).body
    functions = {node.name: node for node in body if isinstance(node, ast.FunctionDef)}
    return [node for node in body if not isinstance(node, ast.FunctionDef)], functions


def test_no_oracle_reads_a_private_rydsim_name():
    module, functions = _scopes()
    bound = rydsim_imports(module)[1]
    private = {name: [read for read in rydsim_reads([node], bound) if read.startswith("_")]
               for name, node in [("<module>", ast.Module(module, []))] + list(functions.items())}
    assert not any(private.values()), f"oracles read private rydsim names: {private}"


def test_syndrome_oracles_import_nothing_from_rydsim():
    module, functions = _scopes()
    bound = rydsim_imports(module)[1]
    assert set(SELF_CONTAINED) <= set(functions)
    for name in SELF_CONTAINED:
        reads = rydsim_reads([functions[name]], bound)
        assert not reads, f"{name} reads {reads} from rydsim"
