"""The package namespace: every public name is exported, and only those."""

import types

import tlbraid


def test_all_is_sorted_and_complete():
    names = tlbraid.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(tlbraid, name) is not None, name
    public = {
        name
        for name, value in vars(tlbraid).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
