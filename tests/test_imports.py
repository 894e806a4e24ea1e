import ast
import os
import re
from collections import Counter, defaultdict

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
    """Functions, methods and classes defined in the ``modules`` sources,
    a mapping from module name to source, whose name occurs as a word in
    no module or ``others`` source except at their own definitions.  A
    module-level function counts as named only where its name stands
    bare or as ``<its module>.name``, not as another object's attribute
    and not in ``__init__``, which only re-exports.  Dunders, and
    functions registered by a decorator call such as ``@claim(...)``,
    are exempt."""
    defined, home = Counter(), defaultdict(set)
    for module, source in modules.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            registered = any(isinstance(d, ast.Call) for d in node.decorator_list)
            if not (dunder or registered):
                defined[node.name] += 1
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                home[node.name].add(module)
    words = Counter(w for text in (*modules.values(), *others)
                    for w in re.findall(r"\w+", text))
    strict = Counter()              # bare words and <module>.name, outside __init__
    for text in (*(s for m, s in modules.items() if m != "__init__"), *others):
        strict.update(re.findall(r"(?<![\w.])\w+", text))
        strict.update(name for m, name in re.findall(r"(\w+)\.(?=(\w+))", text)
                      if m in home.get(name, ()))
    return sorted(name for name, count in defined.items()
                  if words[name] <= count or (name in home and strict[name] <= count))


def test_unnamed_definition_finder():
    module = ("@claim('x')\ndef registered():\n    pass\n\n"
              "class A:\n    def __init__(self):\n        self.used()\n\n"
              "    def used(self):\n        pass\n\n"
              "    def unused(self):\n        pass\n")
    assert unnamed_definitions({"m": module}, ["A()\n"]) == ["unused"]
    assert unnamed_definitions({"m": module}) == ["A", "unused"]
    # a module function named only as a method's attribute or re-exported
    shadowed = {"m": "def used():\n    pass\n\n" + module,
                "__init__": "from .m import used\n__all__ = ['used']\n"}
    assert unnamed_definitions(shadowed, ["A()\n"]) == ["unused", "used"]
    for caller in ("used()\n", "m.used()\n"):
        assert unnamed_definitions(shadowed, ["A()\n", caller]) == ["unused"]


def package_sources():
    return {f[:-3]: read(os.path.join(SRC, f)) for f in sorted(os.listdir(SRC))
            if f.endswith(".py")}


def caller_sources():
    return [read(os.path.join(path, f))
            for d in CALLER_DIRS for path, _, files in os.walk(os.path.join(ROOT, d))
            for f in sorted(files) if f.endswith(".py")]


def test_every_definition_is_named_outside_the_tests():
    assert unnamed_definitions(package_sources(), caller_sources()) == []


def _called_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _sets(call, index, param):
    """The call sets the parameter: by keyword, by ``**``, by ``*args``
    or (index not None) by position."""
    keywords = {k.arg for k in call.keywords}
    return (param in keywords or None in keywords
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index))


def unset_parameters(modules, others=()):
    """Defaulted parameters of the functions and methods defined in the
    ``modules`` sources that no call in a module or ``others`` source
    sets, as ``name(param=)``.  A call matches a definition by function
    or attribute name, and a class name stands for its ``__init__``.
    Functions registered by a decorator call such as ``@claim(...)``,
    and functions passed as an argument (``_attempt(cli.main, argv)``),
    are exempt."""
    calls, passed = defaultdict(list), set()
    for source in (*modules, *others):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                calls[_called_name(node.func)].append(node)
                passed.update(map(_called_name,
                                  (*node.args, *(k.value for k in node.keywords))))
    unset = []
    for source in modules:
        tree = ast.parse(source)
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name in passed or any(
                    isinstance(d, ast.Call) for d in node.decorator_list):
                continue
            name = owner[id(node)] if node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(_called_name(d) == "staticmethod" for d in node.decorator_list)
            if id(node) in owner and not static:
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            unset += [f"{name}({param}=)" for index, param in defaulted
                      if not any(_sets(call, index, param) for call in calls[name])]
    return sorted(unset)


def test_unset_parameter_finder():
    module = ("@claim('x')\ndef registered(a=1):\n    pass\n\n"
              "def main(argv=None):\n    pass\n\n"
              "def f(a, b=1, *, c=2, d=3):\n    pass\n\n"
              "class A:\n    def __init__(self, x=0, y=0):\n"
              "        self.g(1)\n        f(0, d=self.h(*x))\n\n"
              "    def g(self, u=0, v=0):\n        pass\n\n"
              "    @staticmethod\n    def h(s=0, t=0):\n        pass\n")
    assert unset_parameters([module]) == [
        "A(x=)", "A(y=)", "f(b=)", "f(c=)", "g(v=)", "main(argv=)"]
    assert unset_parameters([module], ["A(**kw)\nf(0, 1, c=2)\nrun(main)\n"]) == ["g(v=)"]


def test_every_defaulted_parameter_is_set_outside_the_tests():
    assert unset_parameters(package_sources().values(), caller_sources()) == []
