"""The exported surface: every ``__all__`` entry exists, listed once,
and every error raised is one of the exit-code classes."""

import ast
from pathlib import Path

import pytest

import corrkem
import corrkem.errors
import corrkem.harness


@pytest.mark.parametrize("package", [corrkem, corrkem.harness], ids=lambda p: p.__name__)
def test_all_lists_each_attribute_once(package):
    names = package.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(package, name)] == []


def _raises(node, owner=None):
    """(innermost enclosing class, raised class name) of every raise
    statement under node that names an exception; a bare re-raise names none."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield owner, exc.attr if isinstance(exc, ast.Attribute) else exc.id
        yield from _raises(child, child.name if isinstance(child, ast.ClassDef) else owner)


def test_every_raise_is_a_corrkem_error():
    # misuse surfaces as one of the exit-code classes, never a bare builtin
    errors = {name for name, obj in vars(corrkem.errors).items()
              if isinstance(obj, type) and issubclass(obj, corrkem.errors.CorrkemError)}
    allowed = {
        ("IkemAdversary", "NotImplementedError"),  # the two abstract adversary bases
        ("HeAdversary", "NotImplementedError"),
        (None, "ArgumentTypeError"),  # argparse's protocol for a type function: exit 1
    }
    package = Path(corrkem.__file__).parent
    stray = [
        (str(path.relative_to(package)), owner, name)
        for path in sorted(package.rglob("*.py"))
        for owner, name in _raises(ast.parse(path.read_text(encoding="utf-8")))
        if name not in errors and (owner, name) not in allowed
    ]
    assert stray == []
