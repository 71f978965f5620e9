import types

import parcay


def test_all_lists_resolvable_names_and_no_modules():
    assert parcay.__all__, "the package exports nothing"
    assert len(set(parcay.__all__)) == len(parcay.__all__)
    for name in parcay.__all__:
        assert hasattr(parcay, name), name
        assert not isinstance(getattr(parcay, name), types.ModuleType), name
