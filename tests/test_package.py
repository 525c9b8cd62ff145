from collections import Counter

import cnls


def test_public_names_resolve_and_do_not_repeat():
    assert [name for name, k in Counter(cnls.__all__).items() if k > 1] == []
    assert [name for name in cnls.__all__ if not hasattr(cnls, name)] == []
