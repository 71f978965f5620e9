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


def _relative_imports():
    """Module name -> the parcay modules it imports, read with ``ast`` from
    every module of the package, imports inside functions included.  No
    module imports the package by its absolute name."""
    root = os.path.dirname(parcay.__file__)
    modules = {name[:-3] for name in os.listdir(root) if name.endswith(".py")}
    graph = {}
    for module in modules:
        path = os.path.join(root, module + ".py")
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                # from .module import x, or from . import module
                targets.update([node.module] if node.module
                               else [alias.name for alias in node.names])
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                assert not any(name.split(".")[0] == "parcay"
                               for name in names), (path, node.lineno)
        graph[module] = targets & modules
    return graph


def test_graph_module_imports_nothing_from_words():
    # graph.py holds the graph type, its searches and its text formats;
    # words and relators belong to the modules above it.
    imported = _relative_imports()["graph"]
    assert "errors" in imported
    assert "words" not in imported, sorted(imported)


def test_relative_imports_are_acyclic():
    graph = _relative_imports()
    assert "constructions" in graph["acceptance"]
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module not in done:
            path.append(module)
            for target in sorted(graph[module]):
                visit(target)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)


def test_decompose_imports_no_parcay_module_but_errors():
    # The decomposition layer sits on the graph type alone: it reads only
    # the graphs it is given, so it needs no construction or search.
    assert _relative_imports()["decompose"] == {"errors"}
