"""Layout guard: every public function, class and method under ``src/`` has a
caller under ``src/``.

A function or class counts as called when some ``Name`` or ``Attribute``
node in the package's source reads it; imports and re-exports are not
reads. A method counts only an ``Attribute`` read, and a method whose name
is also a field or data attribute of some class is matched by qualified
name instead (see ``uncalled``). Library code that only tests
call belongs in a test helper module, next to ``tests/ipid_oracle.py`` and
``tests/analytics_oracle.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fleetscope"

# called by the standard library, not by the package
HOOKS = {"_Parser.error"}


def _definitions(tree: ast.Module):
    """(qualified name, class name or None, bare name, is a property) of
    each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, None, node.name, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    is_property = any(isinstance(d, ast.Name) and d.id == "property"
                                      for d in member.decorator_list)
                    yield f"{node.name}.{member.name}", node.name, member.name, is_property


def _data_attributes(tree: ast.Module):
    """Names of each class's fields and class attributes, and of what its
    methods assign to ``self``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield node.target.id
            elif isinstance(node, ast.Assign):
                yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                yield node.attr


def _reads(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _qualified_reads(tree: ast.Module):
    """(owner, name) of each read that names its owner: ``(None, name)`` for
    a call ``x.name(...)``, ``(Class, name)`` for ``Class.name`` anywhere and
    for ``self.name`` inside ``Class``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield None, node.func.attr
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id != "self"):
            yield node.value.id, node.attr
        elif isinstance(node, ast.ClassDef):
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name)
                        and inner.value.id == "self"):
                    yield node.name, inner.attr


def uncalled(trees: dict[str, ast.Module]) -> list[str]:
    """``module:qualified name`` of each public function, class and method
    of ``trees`` (module name -> parsed source) that nothing in them reads.

    A function or class counts any read of its name. A method counts only
    attribute reads: a local variable of the same name would pass for a
    call. A method that shares its name with a field or data attribute of
    some class counts still less, since a read of the attribute would pass
    for a call of the method. Such a method (a property excepted, which is
    read like an attribute) counts only calls ``x.name(...)``, ``self.name``
    inside its own class and ``Class.name``.
    """
    read = {name for tree in trees.values() for name in _reads(tree)}
    # x.name, Class.name and self.name
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    data = {name for tree in trees.values() for name in _data_attributes(tree)}
    qualified = {pair for tree in trees.values() for pair in _qualified_reads(tree)}

    def is_read(owner, name, is_property):
        if owner is None:
            return name in read
        if is_property or name not in data:
            return name in attributes
        return (None, name) in qualified or (owner, name) in qualified

    return [f"{module}:{qualified_name}"
            for module, tree in trees.items()
            for qualified_name, owner, name, is_property in _definitions(tree)
            if not is_read(owner, name, is_property) and qualified_name not in HOOKS]


def test_every_public_name_under_src_has_a_caller_under_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    missing = uncalled(trees)
    assert not missing, "public names that nothing under src/ calls: " + ", ".join(missing)


# A dead method that shares its name with a live field, and one that shares
# its name with a local variable: a bare-name rule passes both, because
# reading ``record.addresses`` or ``total`` reads the name.
_FIELD_AND_METHOD = """
class Record:
    addresses: tuple

class Fleet:
    def addresses(self):
        return ()

    def size(self):
        return {in_class}

    def total(self):
        return 0

def run(record, fleet):
    total = len(record.addresses)
    return total, fleet.size(), {outside}

run(Record(), Fleet())
"""


def test_a_method_named_like_a_field_needs_a_qualified_caller():
    def uncalled_in(in_class="0", outside="0"):
        tree = ast.parse(_FIELD_AND_METHOD.format(in_class=in_class, outside=outside))
        assert {"addresses", "total"} <= set(_reads(tree))  # so the bare-name rule passes both
        return uncalled({"m.py": tree})

    both = ["m.py:Fleet.addresses", "m.py:Fleet.total"]
    assert uncalled_in() == both
    assert uncalled_in(in_class="self.addresses()") == both[1:]
    assert uncalled_in(outside="fleet.addresses()") == both[1:]
    assert uncalled_in(outside="Fleet.addresses") == both[1:]
    assert uncalled_in(outside="fleet.addresses") == both
    # a method named like no field counts any attribute read
    assert uncalled_in(in_class="self.total()") == both[:1]
    assert uncalled_in(outside="fleet.total") == both[:1]


# the scalar responder, now the reference in tests/responder_oracle.py
ORACLE_ONLY = {"background_count", "serve_echo"}


def test_the_scalar_responder_lives_only_in_its_oracle():
    defined = sorted(f"{path.name}:{node.name}"
                     for path in PACKAGE.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.FunctionDef) and node.name in ORACLE_ONLY)
    assert not defined, "defined under src/ again: " + ", ".join(defined)
