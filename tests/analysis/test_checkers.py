"""Each checker against its good/bad fixture pair.

Checker applicability is keyed on ``repro/<layer>/`` path fragments, so the
fixtures are copied into a throwaway tree that mimics the real source layout
before the analyzer runs over them.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis.lint import analyze
from repro.analysis.lint.checkers.backend import BackendChecker
from repro.analysis.lint.checkers.conc import ConcChecker
from repro.analysis.lint.checkers.determ import DetermChecker
from repro.analysis.lint.checkers.exact import ExactChecker
from repro.analysis.lint.checkers.obs import ObsChecker

FIXTURES = Path(__file__).parent / "fixtures"


def place(tmp_path: Path, fixture: str, virtual: str) -> Path:
    """Copy a fixture into a virtual repro/... location under tmp_path."""
    target = tmp_path / virtual
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(FIXTURES / fixture, target)
    return target


def rules_of(result):
    return sorted(finding.rule for finding in result.findings)


class TestExactChecker:
    def test_bad_fixture_triggers_every_rule(self, tmp_path):
        place(tmp_path, "exact_bad.py", "repro/ds/exact_bad.py")
        result = analyze([tmp_path], checkers=[ExactChecker()])
        assert rules_of(result) == ["EXACT001", "EXACT002", "EXACT003"]

    def test_good_fixture_is_clean(self, tmp_path):
        place(tmp_path, "exact_good.py", "repro/ds/exact_good.py")
        result = analyze([tmp_path], checkers=[ExactChecker()])
        assert result.findings == []

    def test_algebra_path_is_also_covered(self, tmp_path):
        place(tmp_path, "exact_bad.py", "repro/algebra/exact_bad.py")
        result = analyze([tmp_path], checkers=[ExactChecker()])
        assert "EXACT001" in rules_of(result)

    def test_other_layers_are_exempt(self, tmp_path):
        place(tmp_path, "exact_bad.py", "repro/stream/exact_bad.py")
        result = analyze([tmp_path], checkers=[ExactChecker()])
        assert result.findings == []


class TestDetermChecker:
    def test_bad_fixture_flags_set_iteration(self, tmp_path):
        place(tmp_path, "determ_bad.py", "repro/algebra/determ_bad.py")
        result = analyze([tmp_path], checkers=[DetermChecker()])
        rules = rules_of(result)
        assert rules and set(rules) == {"DETERM001"}
        # self.touched comprehension, `for item in members`, the set
        # literal loop, and list(set(...) | {...}) each flag once.
        assert len(rules) == 4

    def test_sorted_wrapping_silences_the_rule(self, tmp_path):
        place(tmp_path, "determ_good.py", "repro/algebra/determ_good.py")
        result = analyze([tmp_path], checkers=[DetermChecker()])
        assert result.findings == []

    def test_clock_import_flagged_in_query_layer_only(self, tmp_path):
        place(tmp_path, "determ_query_bad.py", "repro/query/determ_query_bad.py")
        place(tmp_path, "determ_query_bad.py", "repro/storage/determ_query_bad.py")
        result = analyze([tmp_path], checkers=[DetermChecker()])
        flagged = [f for f in result.findings if f.rule == "DETERM002"]
        assert len(flagged) == 1
        assert "repro/query/" in flagged[0].path


class TestConcChecker:
    def test_bad_fixture_flags_unguarded_writes(self, tmp_path):
        place(tmp_path, "conc_bad.py", "repro/query/conc_bad.py")
        result = analyze([tmp_path], checkers=[ConcChecker()])
        # STATS["hits"] += 1 and HISTORY.append.
        assert rules_of(result) == ["CONC001", "CONC001"]

    def test_locked_writes_and_local_handles_are_clean(self, tmp_path):
        place(tmp_path, "conc_good.py", "repro/query/conc_good.py")
        result = analyze([tmp_path], checkers=[ConcChecker()])
        assert result.findings == []


class TestBackendChecker:
    def test_incomplete_and_forgetful_backends_flagged(self, tmp_path):
        place(tmp_path, "backend_bad.py", "repro/storage/backend_bad.py")
        result = analyze([tmp_path], checkers=[BackendChecker()])
        by_rule = {}
        for finding in result.findings:
            by_rule.setdefault(finding.rule, []).append(finding)
        # IncompleteBackend is missing _delete_relation.
        assert len(by_rule["BACKEND001"]) == 1
        assert "_delete_relation" in by_rule["BACKEND001"][0].message
        # ForgetfulBackend never bumps from _save_relation or _delete_relation.
        assert len(by_rule["BACKEND002"]) == 2

    def test_complete_backend_with_bump_helper_is_clean(self, tmp_path):
        place(tmp_path, "backend_good.py", "repro/storage/backend_good.py")
        result = analyze([tmp_path], checkers=[BackendChecker()])
        assert result.findings == []


class TestObsChecker:
    def test_cross_package_mutations_flagged(self, tmp_path):
        place(tmp_path, "obs_bad.py", "repro/stream/obs_bad.py")
        result = analyze([tmp_path], checkers=[ObsChecker()])
        rules = rules_of(result)
        # The .bump() call, the augmented assignment, the attribute store.
        assert rules == ["OBS001", "OBS001", "OBS001"]

    def test_owner_and_registry_usage_is_clean(self, tmp_path):
        place(tmp_path, "obs_good.py", "repro/stream/obs_good.py")
        result = analyze([tmp_path], checkers=[ObsChecker()])
        assert result.findings == []

    def test_same_package_bump_is_the_owners_business(self, tmp_path):
        # ds/combination.py bumping ds.kernel's STATS is the canonical
        # legal case: same package, absolute import.
        place(tmp_path, "obs_bad.py", "repro/ds/obs_bad.py")
        result = analyze([tmp_path], checkers=[ObsChecker()])
        # Only the storage import stays foreign from repro/ds/.
        assert rules_of(result) == ["OBS001"]
        assert "repro.storage.backends.base" in result.findings[0].message

    def test_telemetry_layer_itself_is_exempt(self, tmp_path):
        place(tmp_path, "obs_bad.py", "repro/obs/obs_bad.py")
        place(tmp_path, "obs_bad.py", "repro/counters.py")
        result = analyze([tmp_path], checkers=[ObsChecker()])
        assert result.findings == []


class TestIgnorePragma:
    @pytest.fixture()
    def result(self, tmp_path):
        place(tmp_path, "ignore_pragma.py", "repro/ds/ignore_pragma.py")
        return analyze([tmp_path], checkers=[ExactChecker()])

    def test_all_findings_suppressed(self, result):
        assert result.findings == []

    def test_suppressions_counted_not_dropped(self, result):
        assert len(result.ignored) == 3
        assert sorted(f.rule for f in result.ignored) == [
            "EXACT001",
            "EXACT001",
            "EXACT002",
        ]
