"""The package namespace: every exported name resolves, on first use, from
the module that defines it, and the export list is kept sorted so a stale
or missing entry shows in review."""
import importlib

import pytest

import lfqec


def test_every_export_resolves():
    missing = [name for name in lfqec.__all__ if not hasattr(lfqec, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert lfqec.__all__ == sorted(set(lfqec.__all__))


def test_dir_lists_the_exports():
    assert dir(lfqec) == lfqec.__all__


def test_star_import_binds_every_name():
    namespace = {}
    exec("from lfqec import *", namespace)
    assert [name for name in lfqec.__all__ if name not in namespace] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lfqec.no_such_name  # noqa: B018
    assert not hasattr(lfqec, "verify_stabilizer")


# removed from the package: no command, README example or acceptance criterion uses
# them, and kl_verify and min_distance take function bases as well as states
REMOVED = (
    "apc_sum",
    "apply_error",
    "autocorrelation_spectrum",
    "coverage_witness",
    "cyclo_from_histogram",
    "gram_matrix",
    "is_uncoverable",
    "kl_verify_functions",
    "min_distance_functions",
    "operator_matrix",
    "parse_function_file",
    "symplectic_weight",
    "zset_via_autocorrelation",
)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_raises_attribute_error(name):
    assert name not in lfqec.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(lfqec, name)


@pytest.mark.parametrize("name", lfqec.__all__)
def test_export_names_its_defining_module(name):
    module = f"lfqec.{lfqec._EXPORTS[name]}"
    assert getattr(importlib.import_module(module), name).__module__ == module
