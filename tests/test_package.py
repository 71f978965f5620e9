import ast
import os
import subprocess
import sys
import types

import parcay


def test_all_lists_resolvable_names_and_no_modules():
    assert parcay.__all__, "the package exports nothing"
    assert len(set(parcay.__all__)) == len(parcay.__all__)
    for name in parcay.__all__:
        assert hasattr(parcay, name), name
        assert not isinstance(getattr(parcay, name), types.ModuleType), name


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, which every
    # command's start would pay for.
    code = ("import sys, parcay, parcay.cli; "
            "sys.exit('dataclasses' in sys.modules or 'inspect' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_graph_module_imports_nothing_from_words():
    # graph.py holds the graph type, its searches and its text formats;
    # words and relators belong to the modules above it.
    path = os.path.join(os.path.dirname(parcay.__file__), "graph.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(base + ("" if base.endswith(".") else ".")
                            + alias.name for alias in node.names)
    assert ".errors" in imported
    assert not {".words", "parcay.words"} & imported, sorted(imported)
