"""The executor tiers are gone: naming one fails loudly, never silently.

Execution is serial only.  ``REPRO_EXECUTOR`` used to pick a tier
(``thread``, ``auto``, ``remote``, ...); the command line now refuses the
variable whatever tier it names, so a stale setting cannot quietly run
something other than what it asks for.
"""

import io

import pytest

from repro.cli import main


class TestRemovedKnobs:
    @pytest.mark.parametrize("kind", ("thread", "auto", "remote"))
    def test_removed_kind_via_env(self, kind, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EXECUTOR", kind)
        out = io.StringIO()
        assert main(["stats"], out=out) == 1
        assert out.getvalue() == ""
        error = capsys.readouterr().err
        assert "REPRO_EXECUTOR" in error and "removed" in error
