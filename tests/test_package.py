import collections

import coordsim


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in collections.Counter(coordsim.__all__).items()
                if count > 1]
    assert repeated == []
    assert [name for name in coordsim.__all__ if not hasattr(coordsim, name)] == []
    namespace = {}
    exec("from coordsim import *", namespace)
    assert set(coordsim.__all__) <= set(namespace)
