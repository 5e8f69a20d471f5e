"""The package's public names.

`bridgevar.__all__` is kept sorted and free of duplicates, and every
name in it resolves, so a name removed from a module cannot be left
exported.
"""

import bridgevar


def test_all_is_sorted_unique_and_resolves():
    names = bridgevar.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(bridgevar, n)]
    assert not missing, missing
