import ast
import os
import re
from collections import Counter

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "cohcfg")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")
CALLER_DIRS = ("demos", "perfbench", "tools")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def unused_imports(source):
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_finder():
    source = "import os\nimport numpy as np\nfrom .a import b, c\nnp.zeros(b)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_imports(module):
    assert unused_imports(read(os.path.join(SRC, module))) == []


def unnamed_definitions(modules, others=()):
    """Functions, methods and classes defined in the ``modules`` sources
    whose name occurs as a word in no module or ``others`` source except
    at their own definitions.  Dunders, and functions registered by a
    decorator call such as ``@claim(...)``, are exempt."""
    defined = Counter()
    for source in modules:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            registered = any(isinstance(d, ast.Call) for d in node.decorator_list)
            if not (dunder or registered):
                defined[node.name] += 1
    words = Counter(w for text in (*modules, *others) for w in re.findall(r"\w+", text))
    return sorted(name for name, count in defined.items() if words[name] <= count)


def test_unnamed_definition_finder():
    module = ("@claim('x')\ndef registered():\n    pass\n\n"
              "class A:\n    def __init__(self):\n        self.used()\n\n"
              "    def used(self):\n        pass\n\n"
              "    def unused(self):\n        pass\n")
    assert unnamed_definitions([module], ["A()\n"]) == ["unused"]
    assert unnamed_definitions([module]) == ["A", "unused"]


def test_every_definition_is_named_outside_the_tests():
    modules = [read(os.path.join(SRC, f)) for f in sorted(os.listdir(SRC))
               if f.endswith(".py")]
    others = [read(os.path.join(path, f))
              for d in CALLER_DIRS for path, _, files in os.walk(os.path.join(ROOT, d))
              for f in sorted(files) if f.endswith(".py")]
    assert unnamed_definitions(modules, others) == []
