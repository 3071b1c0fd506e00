from types import ModuleType

import projquad


def test_all_is_the_sorted_public_names_the_package_imports():
    names = projquad.__all__
    assert names == sorted(set(names))
    for name in names:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(projquad, name), ModuleType), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from projquad import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == projquad.__all__
