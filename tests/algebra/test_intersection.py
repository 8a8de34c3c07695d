"""Tests for the extended intersection (consensus extension)."""

from fractions import Fraction

import pytest

from repro.errors import OperationError, TotalConflictError
from repro.algebra import intersection, intersection_with_report, union
from repro.algebra.properties import verify_boundedness, verify_closure
from repro.datasets.restaurants import expected_table4, table_ra, table_rb
from repro.model.attribute import Attribute
from repro.model.domain import EnumeratedDomain, TextDomain
from repro.model.etuple import ExtendedTuple
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema


def _one_tuple(name, membership):
    schema = RelationSchema(
        name,
        [
            Attribute("k", TextDomain("k"), key=True),
            Attribute(
                "colour", EnumeratedDomain("colour", ["r", "g", "b"]), uncertain=True
            ),
        ],
    )
    return ExtendedRelation(
        schema, [ExtendedTuple(schema, {"k": "a", "colour": "r"}, membership)]
    )


class TestIntersection:
    def test_keeps_only_matched_keys(self):
        consensus = intersection(table_ra(), table_rb())
        assert sorted(t.key()[0] for t in consensus) == [
            "country",
            "garden",
            "mehl",
            "olive",
            "wok",
        ]
        assert consensus.get("ashiana") is None

    def test_matched_tuples_equal_union_result(self):
        """On matched keys, intersection and union agree exactly."""
        consensus = intersection(table_ra(), table_rb())
        integrated = expected_table4()
        for t in consensus:
            merged = integrated.get(t.key())
            assert t.membership == merged.membership
            for name in ("speciality", "best_dish", "rating"):
                assert t.evidence(name) == merged.evidence(name)

    def test_report(self):
        _, report = intersection_with_report(table_ra(), table_rb())
        assert len(report.matched) == 5
        assert report.left_only == [("ashiana",)]
        assert report.right_only == []

    def test_result_name(self):
        assert intersection(table_ra(), table_rb()).name == "RA_intersect_RB"
        assert intersection(table_ra(), table_rb(), name="C").name == "C"

    def test_commutative(self):
        left = intersection(table_ra(), table_rb(), name="C")
        right = intersection(table_rb(), table_ra(), name="C")
        assert left.same_tuples(right)

    def test_conflict_policies(self):
        with pytest.raises(OperationError):
            intersection(table_ra(), table_rb(), on_conflict="panic")

    @pytest.mark.parametrize("policy", ["raise", "vacuous", "drop"])
    def test_membership_near_total_conflict_applies_the_policy(self, policy):
        """Float memberships ``(1-e, 1)`` and ``(e, e)`` at e = 1e-12 are a
        total conflict, as in the union: ``raise`` names the membership,
        and both recording policies drop the one matched entity."""
        eps = 1e-12
        left, right = _one_tuple("L", (1 - eps, 1)), _one_tuple("R", (eps, eps))
        if policy == "raise":
            with pytest.raises(TotalConflictError, match="membership"):
                intersection(left, right, on_conflict=policy)
            return
        merged, report = intersection_with_report(left, right, on_conflict=policy)
        assert len(merged) == 0
        assert report.matched == [(("a",), ("a",))]
        assert report.dropped == [("a",)]
        assert [record.attribute for record in report.total_conflicts] == ["(sn,sp)"]

    def test_theorem1_properties(self):
        assert verify_closure(intersection(table_ra(), table_rb()))
        assert verify_boundedness(
            intersection,
            [table_ra(), table_rb()],
            [[("phantom-a",)], [("phantom-b",)]],
        )

    def test_intersection_subset_of_union(self):
        consensus = intersection(table_ra(), table_rb(), name="X")
        integrated = union(table_ra(), table_rb(), name="X")
        assert set(consensus.keys()) <= set(integrated.keys())


class TestIntersectionViaSql:
    def test_intersect_statement(self):
        from repro.storage import Database

        db = Database()
        db.add(table_ra())
        db.add(table_rb())
        result = db.query("RA INTERSECT RB BY (rname)")
        assert len(result) == 5
        direct = intersection(table_ra(), table_rb())
        assert result.same_tuples(direct.with_name(result.name))

    def test_no_pushdown_through_intersect(self):
        from repro.storage import Database
        from repro.query.parser import parse
        from repro.query.planner import build_plan, optimize
        from repro.query.plans import IntersectPlan, SelectPlan

        db = Database()
        db.add(table_ra())
        db.add(table_rb())
        plan = optimize(
            build_plan(
                parse("SELECT * FROM (RA INTERSECT RB) WHERE rating IS {ex}"),
                db,
            )
        )
        assert isinstance(plan, SelectPlan)
        assert isinstance(plan.child, IntersectPlan)

    def test_explain_shows_intersect(self):
        from repro.storage import Database

        db = Database()
        db.add(table_ra())
        db.add(table_rb())
        assert "Intersect" in db.explain("RA INTERSECT RB")
