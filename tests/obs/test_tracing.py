"""Structured tracing: the cost contract, nesting, sinks."""

from __future__ import annotations

import json

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    JsonlSink,
    add_sink,
    enabled,
    remove_sink,
    set_tracing,
    span,
    take_records,
    tracing_scope,
)


@pytest.fixture(autouse=True)
def _clean_tracing_state():
    """Restore the flag and drain the buffer around every test."""
    previous = enabled()
    take_records()
    yield
    set_tracing(previous)
    take_records()


class TestCostContract:
    def test_disabled_span_is_the_shared_noop(self):
        set_tracing(False)
        first, second = span("a"), span("b", rows=3)
        assert first is second  # one singleton, no allocation
        with first as live:
            live.note(rows=9)  # discarded, not an error
        assert take_records() == []

    def test_scope_restores_the_previous_flag(self):
        set_tracing(False)
        with tracing_scope():
            assert enabled()
            with tracing_scope(False):
                assert not enabled()
            assert enabled()
        assert not enabled()


class TestNesting:
    def test_parent_child_links_and_order(self):
        with tracing_scope():
            with span("outer", layer="test") as outer:
                with span("inner") as inner:
                    inner.note(rows=3)
                outer.note(rows=6)
        records = take_records()
        assert [r.name for r in records] == ["inner", "outer"]
        inner_rec, outer_rec = records
        assert inner_rec.parent_id == outer_rec.span_id
        assert outer_rec.parent_id is None
        assert inner_rec.attrs == {"rows": 3}
        assert outer_rec.attrs == {"layer": "test", "rows": 6}
        assert all(r.duration >= 0.0 for r in records)

    def test_siblings_share_a_parent(self):
        with tracing_scope():
            with span("parent") as parent:
                with span("first"):
                    pass
                with span("second"):
                    pass
        first, second, _ = take_records()
        assert first.parent_id == second.parent_id == parent.span_id


class TestSinks:
    def test_jsonl_sink_appends_one_object_per_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        add_sink(sink)
        try:
            with tracing_scope():
                with span("a", step=1):
                    pass
                with span("b"):
                    pass
        finally:
            remove_sink(sink)
            sink.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert [line["name"] for line in lines] == ["a", "b"]
        assert lines[0]["attrs"] == {"step": 1}
        assert set(lines[0]) == {
            "span", "parent", "name", "thread", "duration", "attrs",
        }


class TestEnvironmentFlag:
    def test_env_values(self, monkeypatch):
        for raw, expect in (("", False), ("0", False), ("1", True),
                            ("yes", True)):
            monkeypatch.setenv("REPRO_TRACE", raw)
            assert tracing._env_enabled() is expect
        monkeypatch.delenv("REPRO_TRACE")
        assert tracing._env_enabled() is False


def _plans(db):
    """One plan per node type, each rooted at the named operation."""
    from repro.algebra import IsPredicate
    from repro.datasets.restaurants import table_ra
    from repro.query.plans import (
        IntersectPlan,
        LiteralPlan,
        ProductPlan,
        ProjectPlan,
        RenamePlan,
        ScanPlan,
        SelectPlan,
        UnionPlan,
    )

    def scan(name):
        return ScanPlan(name, db.get(name).schema)

    return {
        "scan": scan("RA"),
        "literal": LiteralPlan(table_ra()),
        "select": SelectPlan(scan("RA"), IsPredicate("speciality", {"si"})),
        "project": ProjectPlan(scan("RA"), ("rname", "rating")),
        "rename": RenamePlan(scan("RA"), {"rating": "stars"}),
        "union": UnionPlan(scan("RA"), scan("RB")),
        "intersect": IntersectPlan(scan("RA"), scan("RB")),
        "product": ProductPlan(scan("RA"), scan("RM_A")),
    }


class TestPlanSpans:
    """Every plan node evaluates in a ``physical.<op>`` span carrying its
    label and row counts, whichever engine runs it (the benchmark's
    per-layer breakdown maps these names to ``algebra.<op>_s``)."""

    @pytest.fixture
    def db(self):
        from repro.datasets.restaurants import table_ra, table_rb, table_rm_a
        from repro.storage import Database

        database = Database("spans")
        for relation in (table_ra(), table_rb(), table_rm_a()):
            database.add(relation)
        return database

    @pytest.mark.parametrize(
        "op",
        ["scan", "literal", "select", "project", "rename", "union",
         "intersect", "product"],
    )
    @pytest.mark.parametrize("engine", ["plan", "session"])
    def test_node_emits_its_physical_span(self, db, op, engine):
        from repro.session import Session

        plan = _plans(db)[op]
        assert plan.op == op
        inputs = [child.execute(db) for child in plan.children()]
        with tracing_scope():
            if engine == "plan":
                result = plan.execute(db)
            else:
                result = Session(db).execute(plan)
        records = [
            record
            for record in take_records()
            if record.name == f"physical.{op}"
            and record.attrs["label"] == plan.label()
        ]
        assert len(records) == 1
        assert records[0].attrs["rows_in"] == [len(r) for r in inputs]
        assert records[0].attrs["rows_out"] == len(result)

    def test_direct_algebra_calls_emit_no_span(self):
        from repro.algebra import IsPredicate, select, union
        from repro.datasets.restaurants import table_ra, table_rb

        with tracing_scope():
            union(select(table_ra(), IsPredicate("speciality", {"si"})), table_rb())
        assert take_records() == []
