"""Unit tests for the execution layer: rewrite passes and lowering."""

from repro.datasets.restaurants import table_ra
from repro.exec import describe_physical
from repro.exec.rewrite import default_pipeline


class TestRewritePipeline:
    def test_pipeline_names_are_exposed(self):
        assert default_pipeline().describe() == (
            "fuse-and-push-selections -> prune-projections"
        )

    def test_pipeline_is_idempotent(self):
        from repro.storage import Database
        from repro.query.parser import parse
        from repro.query.planner import build_plan

        db = Database()
        db.add(table_ra())
        plan = build_plan(
            parse("SELECT rname FROM RA WHERE rating IS {ex}"), db
        )
        pipeline = default_pipeline()
        once = pipeline.run(plan)
        twice = pipeline.run(once)
        assert once.describe() == twice.describe()


class TestPhysicalLowering:
    def test_describe_physical_shows_strategies(self):
        from repro.storage import Database

        db = Database()
        db.add(table_ra())
        plan = db.session().plan("SELECT rname FROM RA WHERE rating IS {ex}")
        text = describe_physical(plan)
        assert "tuple-wise, one pass" in text
        assert "Scan RA" in text
