"""Accuracy-profile tests: parsing, validation, lookup semantics, threshold
filtering, gain cross-checks, and the shipped synthetic default.

A drop set missing from the profile must come back as None (the solver treats
that as infeasible); nothing here may interpolate.
"""

from __future__ import annotations

import numpy as np
import pytest

import helpers
from resplan.config import default_profile
from resplan.errors import EmptyFeasibleSet, ParseError, ValidationError
from resplan.graph import build_resnet50, compute_load, memory_load
from resplan.profile import (
    AccuracyProfile,
    ProfileEntry,
    allowed_drop_sets,
    g_lookup,
    load_profile,
    save_profile,
)

GOOD_DOC = """
source_label: unit-test
baseline: 0.95
n_blocks: 5
entries:
  - drop: []
    accuracy: 0.95
  - drop: [3]
    accuracy: 0.90
  - drop: [3, 4]
    accuracy: 0.82
"""


class TestLoadProfile:
    def test_parses_entries_and_defaults(self):
        prof = load_profile(GOOD_DOC)
        assert prof.baseline == 0.95
        assert prof.n_blocks == 5
        assert prof.max_drop == 2
        assert prof.accuracy_for([3]) == 0.90
        assert prof.accuracy_for({4, 3}) == 0.82
        assert prof.accuracy_for([]) == 0.95
        assert prof.accuracy_for([2]) is None

    def test_empty_set_is_added_when_missing(self):
        prof = load_profile(
            "source_label: t\nbaseline: 0.9\nentries:\n  - drop: [3]\n    accuracy: 0.8\n"
        )
        assert prof.accuracy_for([]) == 0.9

    def test_reader_objects_and_paths_work(self, tmp_path):
        import io

        assert load_profile(io.StringIO(GOOD_DOC)).baseline == 0.95
        p = tmp_path / "prof.yaml"
        p.write_text(GOOD_DOC, encoding="utf-8")
        assert load_profile(str(p)).baseline == 0.95

    @pytest.mark.parametrize(
        "doc,err,needle",
        [
            ("- 1\n- 2", ParseError, "mapping"),
            ("baseline: 0.9", ParseError, "source_label"),
            ("source_label: t", ParseError, "baseline"),
            ("source_label: t\nbaseline: 0.9\nextra: 1", ParseError, "unknown"),
            ("source_label: t\nbaseline: 0.9\nentries: {a: 1}", ParseError, "list"),
            (
                "source_label: t\nbaseline: 0.9\nentries:\n  - accuracy: 0.5",
                ParseError,
                "drop",
            ),
            (
                "source_label: t\nbaseline: 0.9\nentries:\n"
                "  - drop: [2]\n    accuracy: 0.5\n    typo: 1",
                ParseError,
                "unknown keys",
            ),
            ("source_label: t\nbaseline: 0.9\nentries: [\n", ParseError, "YAML"),
        ],
    )
    def test_parse_errors(self, doc, err, needle):
        with pytest.raises(err, match=needle):
            load_profile(doc)

    @pytest.mark.parametrize(
        "doc,needle",
        [
            (
                "source_label: t\nbaseline: 0.9\nentries:\n"
                "  - drop: [2]\n    accuracy: 0.95",
                "exceeds",
            ),
            (
                "source_label: t\nbaseline: 0.9\nentries:\n"
                "  - drop: [1]\n    accuracy: 0.5",
                "stem",
            ),
            (
                "source_label: t\nbaseline: 0.9\nentries:\n"
                "  - drop: [2, 3, 4]\n    accuracy: 0.5",
                "limit",
            ),
            (
                "source_label: t\nbaseline: 0.9\nn_blocks: 5\nentries:\n"
                "  - drop: [9]\n    accuracy: 0.5",
                "outside",
            ),
            (
                "source_label: t\nbaseline: 0.9\nentries:\n"
                "  - drop: [2, 2]\n    accuracy: 0.5",
                "repeated",
            ),
            (
                "source_label: t\nbaseline: 0.9\nentries:\n"
                "  - drop: [2]\n    accuracy: 0.5\n  - drop: [2]\n    accuracy: 0.6",
                "duplicate",
            ),
            ("source_label: t\nbaseline: 1.2", "outside"),
        ],
    )
    def test_validation_errors(self, doc, needle):
        with pytest.raises(ValidationError, match=needle):
            load_profile(doc)

    def test_entry_accuracy_range(self):
        with pytest.raises(ValidationError):
            ProfileEntry(drop_set=frozenset({2}), accuracy=1.5)

    def test_a_profile_built_from_a_dict_cannot_change(self):
        # The solvers keep a profile's drop-set tables between solves, so
        # neither the profile nor the dict it was built from may edit it.
        entries = {frozenset(): ProfileEntry(drop_set=frozenset(), accuracy=0.95)}
        prof = AccuracyProfile(0.95, entries, "t", 5)
        with pytest.raises(TypeError):
            prof.entries[frozenset({3})] = ProfileEntry(drop_set=frozenset({3}), accuracy=0.9)
        entries[frozenset({3})] = ProfileEntry(drop_set=frozenset({3}), accuracy=0.9)
        assert prof.accuracy_for({3}) is None and len(prof.entries) == 1


class TestLookup:
    def test_g_lookup_maps_keep_vectors_to_entries(self):
        prof = load_profile(GOOD_DOC)
        assert g_lookup(prof, [1, 1, 1, 1, 1]) == 0.95
        assert g_lookup(prof, [1, 1, 0, 1, 1]) == 0.90
        assert g_lookup(prof, [1, 1, 0, 0, 1]) == 0.82
        assert g_lookup(prof, [1, 0, 1, 1, 1]) is None

    def test_g_lookup_rejects_bad_vectors(self):
        prof = load_profile(GOOD_DOC)
        with pytest.raises(ValueError, match="length"):
            g_lookup(prof, [1, 1, 1])
        with pytest.raises(ValueError, match="stem"):
            g_lookup(prof, [0, 1, 1, 1, 1])


class TestAllowedDropSets:
    def test_orders_by_accuracy_then_size_then_ids(self):
        entries = {
            frozenset(): ProfileEntry(frozenset(), 0.95),
            frozenset({3}): ProfileEntry(frozenset({3}), 0.90),
            frozenset({4}): ProfileEntry(frozenset({4}), 0.90),
            frozenset({3, 4}): ProfileEntry(frozenset({3, 4}), 0.90),
            frozenset({2}): ProfileEntry(frozenset({2}), 0.70),
        }
        prof = AccuracyProfile(0.95, entries, "t", n_blocks=5)
        got = allowed_drop_sets(prof, 0.8)
        assert got == [frozenset(), frozenset({3}), frozenset({4}), frozenset({3, 4})]

    def test_threshold_above_baseline_is_empty_feasible_set(self):
        prof = load_profile(GOOD_DOC)
        with pytest.raises(EmptyFeasibleSet):
            allowed_drop_sets(prof, 0.96)
        with pytest.raises(ValueError):
            allowed_drop_sets(prof, 1.5)

    def test_threshold_filters_low_accuracy_sets(self, shipped_profile):
        sets = allowed_drop_sets(shipped_profile, 0.85)
        assert frozenset() in sets
        assert all(len(s) <= 1 for s in sets)
        sets_all = allowed_drop_sets(shipped_profile, 0.8)
        assert any(len(s) == 2 for s in sets_all)


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        prof = load_profile(GOOD_DOC)
        path = tmp_path / "out.yaml"
        save_profile(prof, path)
        again = load_profile(str(path))
        assert again.baseline == prof.baseline
        assert again.n_blocks == prof.n_blocks
        assert again.max_drop == prof.max_drop
        assert again.entries == prof.entries


class TestGainCrossCheck:
    def test_derived_gains_pass_and_corrupted_gains_fail(self, resnet50):
        prof = helpers.build_synthetic_profile(resnet50)
        helpers.cross_check_gains(prof, resnet50)

        ds = frozenset({3})
        bad_entries = dict(prof.entries)
        bad_entries[ds] = ProfileEntry(
            drop_set=ds,
            accuracy=prof.entries[ds].accuracy,
            compute_gain_mults=int(prof.entries[ds].compute_gain_mults * 1.5),
        )
        bad = AccuracyProfile(prof.baseline, bad_entries, "t", prof.n_blocks)
        with pytest.raises(ValidationError, match="compute_gain_mults"):
            helpers.cross_check_gains(bad, resnet50)

    def test_block_count_mismatch_rejected(self, resnet50):
        prof = load_profile(GOOD_DOC)
        with pytest.raises(ValidationError, match="blocks"):
            helpers.cross_check_gains(prof, resnet50)


class TestSyntheticDefault:
    def test_structure_singles_and_adjacent_pairs(self, resnet50):
        prof = helpers.build_synthetic_profile(resnet50)
        singles = [s for s in prof.entries if len(s) == 1]
        pairs = [s for s in prof.entries if len(s) == 2]
        assert len(singles) == 12
        assert len(pairs) == 8
        assert len(prof.entries) == 21
        for s in singles:
            assert prof.entries[s].accuracy == 0.90
        for s in pairs:
            (a, b) = sorted(s)
            assert b == a + 1
            assert prof.entries[s].accuracy == 0.82
        assert prof.baseline == 0.9473

    def test_gains_match_block_model(self, resnet50):
        prof = helpers.build_synthetic_profile(resnet50)
        ds = frozenset({10, 11})
        entry = prof.entries[ds]
        assert entry.compute_gain_mults == sum(
            compute_load(resnet50.block(j)) for j in ds
        )
        assert entry.memory_gain_bytes == sum(
            memory_load(resnet50.block(j), "inputs", 4) for j in ds
        )

    def test_shipped_file_equals_builder_output(self, resnet50, shipped_profile):
        built = helpers.build_synthetic_profile(resnet50)
        assert shipped_profile.baseline == built.baseline
        assert shipped_profile.n_blocks == built.n_blocks
        assert shipped_profile.entries == built.entries
        assert "synthetic" in shipped_profile.source_label
