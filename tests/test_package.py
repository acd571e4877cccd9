"""The public names of the package."""

import brieskorn


def test_star_import_binds_every_public_name_once():
    names = brieskorn.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from brieskorn import *", namespace)
    for name in names:
        assert namespace[name] is getattr(brieskorn, name)
