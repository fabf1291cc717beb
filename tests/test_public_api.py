"""The exported surface: every ``__all__`` entry exists, listed once."""

import pytest

import corrkem
import corrkem.harness


@pytest.mark.parametrize("package", [corrkem, corrkem.harness], ids=lambda p: p.__name__)
def test_all_lists_each_attribute_once(package):
    names = package.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(package, name)] == []
