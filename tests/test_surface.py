"""The library keeps only what its own code runs.

Every public top-level function or class of ``src/tilecert``, and every
public named method or property of such a class, must be reached from
the library itself: it must appear as a ``Name``, an ``Attribute`` or an
import alias in some module of the package other than ``__init__.py``
(whose re-exports reach nothing).  Code that only tests call belongs in
``tests/``: as an oracle next to the tests that compare against it, or
nowhere.  There is no allow-list.

The match is by name only, with no scopes and no types, so the guard
misses some dead code: any use of the same name hides a dead definition.
A local variable ``shifted`` in ``intpoly.times_binomial``, for
instance, would hide a dead ``IntSet.shifted`` method.

Every memo of the library is bounded: an ``lru_cache`` with
``maxsize=None``, or a ``functools.cache``, keeps every entry a process
ever builds, and a long batch or a wide scan then grows without limit.
"""

import ast
from pathlib import Path

import tilecert

PACKAGE = Path(tilecert.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public(name: str) -> bool:
    return not name.startswith("_")


def defined_names(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes, and the public methods of those classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _public(node.name):
                continue
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _public(item.name)
                ]
    return found


def used_names(tree: ast.Module) -> set[str]:
    """Every Name, Attribute and import alias in the module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
            if node.asname:
                used.add(node.asname)
    return used


def unreached(modules: list[Path]) -> list[str]:
    """The public names defined in the modules that none of them uses."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in modules}
    used = set().union(*(used_names(tree) for tree in trees.values()))
    return [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in defined_names(tree)
        if name.rpartition(".")[2] not in used
    ]


def _called_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unbounded_memos(modules: list[Path]) -> list[str]:
    """Each lru_cache with maxsize None, and each use of functools.cache, as module:line."""
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _called_name(node.func) == "lru_cache":
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                    found.append(f"{path.stem}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "functools"
                  and any(alias.name == "cache" for alias in node.names)) or (
                    isinstance(node, ast.Attribute) and node.attr == "cache"
                    and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_every_memo_is_bounded():
    assert unbounded_memos(MODULES) == []


def test_memo_guard_flags_unbounded_caches(tmp_path):
    lib = tmp_path / "memo.py"
    lib.write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(n):\n"
        "    return n\n"
        "@functools.lru_cache(None)\n"
        "def b(n):\n"
        "    return n\n"
        "@functools.cache\n"
        "def c(n):\n"
        "    return n\n"
        "@lru_cache(maxsize=64)\n"
        "def d(n):\n"
        "    return n\n"
        "@lru_cache\n"
        "def e(n):\n"
        "    return n\n"
    )
    assert unbounded_memos([lib]) == ["memo:2", "memo:3", "memo:6", "memo:9"]


def test_guard_reads_the_whole_package():
    assert {p.stem for p in MODULES} >= {"cli", "report", "families", "tileset", "intpoly"}


def test_every_public_name_is_reached_from_the_library():
    assert unreached(MODULES) == []


def test_guard_flags_a_name_only_tests_use(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class Box:\n"
        "    def used(self):\n"
        "        return helper()\n"
        "    def spare(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "def helper():\n"
        "    return Box().size\n"
        "def _private():\n"
        "    return 0\n"
        "def oracle():\n"
        "    return 0\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from lib import Box\n\nBox().used()\n")
    assert unreached([lib, user]) == ["lib.Box.spare", "lib.oracle"]
