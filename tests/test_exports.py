"""The package namespace: every exported name resolves, and the export list
is kept sorted so a stale or missing entry shows in review."""
import lfqec


def test_every_export_resolves():
    missing = [name for name in lfqec.__all__ if not hasattr(lfqec, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert lfqec.__all__ == sorted(set(lfqec.__all__))


def test_oracle_entries_for_states_and_for_functions_are_exported():
    entries = {"kl_verify", "kl_verify_functions", "min_distance", "min_distance_functions"}
    assert entries <= set(lfqec.__all__)
