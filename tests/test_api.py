import inspect

import rootdist


def test_star_import_binds_the_public_classes_and_functions():
    namespace = {}
    exec("from rootdist import *", namespace)
    namespace.pop("__builtins__")
    names = rootdist.__all__
    assert set(namespace) == set(names) and len(names) == len(set(names))
    assert names == sorted(names) and "__version__" not in names
    for name in names:
        obj = getattr(rootdist, name)
        assert not name.startswith("_"), name
        assert inspect.isclass(obj) or inspect.isfunction(obj), name
        assert obj.__module__.startswith("rootdist."), name
