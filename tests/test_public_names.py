"""Every name in eccspec.__all__ has a reader in the library or the demos.

A public name that nothing in src/eccspec or demos/ reads is surface to
delete, not to keep in sync.  A reader is a Name, an Attribute or an import
alias; the name's own def or class statement is not one.
"""

import ast
import pathlib

import eccspec as es

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = [
    *(path for path in sorted((ROOT / "src" / "eccspec").glob("*.py")) if path.name != "__init__.py"),
    *sorted((ROOT / "demos").glob("*.py")),
]


def read_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_has_a_reader():
    assert SOURCES
    read = set().union(*map(read_names, SOURCES))
    assert sorted(set(es.__all__) - read) == []


STACK_KERNELS = {"_multipartite_adjacency", "_seidel", "_square", "_eccentricity_stack",
                 "_complement_stack", "_splits", "_energies", "_radii", "_twin_quotient",
                 "_closed_stack"}


def test_only_the_stack_kernels_cross_modules_as_private_names():
    imported = {
        alias.name
        for path in sorted((ROOT / "src" / "eccspec").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert imported == STACK_KERNELS
