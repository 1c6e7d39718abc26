"""Layout guard: every public function, class and method under ``src/`` has a
caller under ``src/``.

A name counts as called when some ``Name`` or ``Attribute`` node in the
package's source reads it; imports and re-exports are not reads. Library
code that only tests call belongs in a test helper module, next to
``tests/ipid_oracle.py`` and ``tests/analytics_oracle.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fleetscope"

# called by the standard library, not by the package
HOOKS = {"_Parser.error"}


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def _reads(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_under_src_has_a_caller_under_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    uncalled = [f"{module}:{qualified}"
                for module, tree in trees.items()
                for qualified, name in _definitions(tree)
                if name not in read and qualified not in HOOKS]
    assert not uncalled, "public names that nothing under src/ calls: " + ", ".join(uncalled)


# the scalar responder, now the reference in tests/responder_oracle.py
ORACLE_ONLY = {"serve_echo", "cumulative_packets"}


def test_the_scalar_responder_lives_only_in_its_oracle():
    defined = sorted(f"{path.name}:{node.name}"
                     for path in PACKAGE.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.FunctionDef) and node.name in ORACLE_ONLY)
    assert not defined, "defined under src/ again: " + ", ".join(defined)
