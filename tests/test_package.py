"""The package's exports: `__all__` names each public name once, and each
resolves, so a deleted definition cannot leave a dangling export."""

import wavestack


def test_all_names_resolve_once():
    assert len(wavestack.__all__) == len(set(wavestack.__all__))
    missing = [name for name in wavestack.__all__
               if not hasattr(wavestack, name)]
    assert missing == []


def test_star_import_binds_every_name():
    namespace = {}
    exec("from wavestack import *", namespace)
    assert set(wavestack.__all__) <= namespace.keys()
