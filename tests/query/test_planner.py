"""Tests for plan binding and the optimizer's rewrite rules."""

import pytest

from repro.errors import PlanError
from repro.storage import Database
from repro.query.fingerprint import plan_key
from repro.query.parser import parse
from repro.query.planner import build_plan, optimize
from repro.query.plans import (
    ProductPlan,
    ProjectPlan,
    ScanPlan,
    SelectPlan,
    UnionPlan,
)
from repro.datasets.restaurants import table_ra, table_rb, table_rm_a


@pytest.fixture
def db():
    database = Database("test")
    database.add(table_ra())
    database.add(table_rb())
    database.add(table_rm_a())
    return database


def plan_of(db, text):
    return build_plan(parse(text), db)


class TestBinding:
    def test_scan(self, db):
        plan = plan_of(db, "SELECT * FROM RA")
        assert isinstance(plan, ScanPlan)
        assert plan.schema().name == "RA"

    def test_unknown_relation(self, db):
        with pytest.raises(Exception, match="no relation"):
            plan_of(db, "SELECT * FROM GHOST")

    def test_unknown_attribute(self, db):
        with pytest.raises(PlanError, match="unknown attribute"):
            plan_of(db, "SELECT * FROM RA WHERE ghost IS {x}")

    def test_projection_must_keep_keys(self, db):
        with pytest.raises(PlanError, match="retain key"):
            plan_of(db, "SELECT phone FROM RA")

    def test_dotted_name_resolution(self, db):
        plan = plan_of(
            db, "SELECT * FROM RA JOIN RM_A ON RA.rname = RM_A.rname"
        )
        assert isinstance(plan, SelectPlan)
        assert isinstance(plan.child, ProductPlan)

    def test_dotted_name_falls_back_to_plain(self, db):
        # mname is unique in the product; RM_A.mname resolves to mname.
        plan = plan_of(db, "SELECT * FROM RA JOIN RM_A ON RA.rname = RM_A.mname")
        assert plan is not None

    def test_unresolvable_dotted_name(self, db):
        with pytest.raises(PlanError, match="cannot resolve"):
            plan_of(db, "SELECT * FROM RA JOIN RM_A ON RA.ghost = RM_A.rname")

    def test_union_keys_validated(self, db):
        with pytest.raises(PlanError, match="does not match"):
            plan_of(db, "RA UNION RB BY (phone)")

    def test_union_compatible_enforced(self, db):
        with pytest.raises(Exception):
            plan_of(db, "RA UNION RM_A")

    def test_threshold_binding(self, db):
        plan = plan_of(db, "SELECT * FROM RA WITH SN >= 0.5 AND SP < 1")
        assert isinstance(plan, SelectPlan)
        assert plan.predicate is None
        assert "sn >= 1/2" in plan.threshold.description


class TestOptimizerRules:
    def test_pushdown_through_product(self, db):
        text = (
            "SELECT * FROM RA JOIN RM_A ON RA.rname = RM_A.rname "
            "WHERE speciality IS {si}"
        )
        optimized = optimize(plan_of(db, text))
        # The speciality conjunct must sit below the product, on RA's side.
        description = optimized.describe()
        product_line = description.splitlines()
        product_index = next(
            i for i, line in enumerate(product_line) if "Product" in line
        )
        below = "\n".join(product_line[product_index:])
        assert "speciality is" in below

    def test_join_condition_not_pushed(self, db):
        text = "SELECT * FROM RA JOIN RM_A ON RA.rname = RM_A.rname"
        optimized = optimize(plan_of(db, text))
        # The cross-side equality stays above the product.
        assert isinstance(optimized, SelectPlan)
        assert isinstance(optimized.child, ProductPlan)

    def test_adjacent_selects_fused(self, db):
        inner = plan_of(db, "SELECT * FROM RA WHERE speciality IS {si}")
        outer = SelectPlan(
            inner,
            plan_of(db, "SELECT * FROM RA WHERE rating IS {ex}").predicate,
        )
        optimized = optimize(outer)
        assert isinstance(optimized, SelectPlan)
        assert isinstance(optimized.child, ScanPlan)

    def test_adjacent_projects_fused(self, db):
        inner = ProjectPlan(
            plan_of(db, "SELECT * FROM RA"), ("rname", "phone", "rating")
        )
        outer = ProjectPlan(inner, ("rname", "rating"))
        optimized = optimize(outer)
        assert isinstance(optimized, ProjectPlan)
        assert isinstance(optimized.child, ScanPlan)
        assert optimized.names == ("rname", "rating")

    def test_projection_pushed_below_select(self, db):
        plan = plan_of(
            db, "SELECT rname, rating FROM RA WHERE rating IS {ex}"
        )
        optimized = optimize(plan)
        assert isinstance(optimized, SelectPlan)
        assert isinstance(optimized.child, ProjectPlan)

    def test_projection_not_pushed_when_predicate_needs_more(self, db):
        plan = plan_of(
            db, "SELECT rname, rating FROM RA WHERE speciality IS {si}"
        )
        optimized = optimize(plan)
        # speciality is not projected, so the project stays on top.
        assert isinstance(optimized, ProjectPlan)

    def test_no_pushdown_through_union(self, db):
        plan = plan_of(
            db, "SELECT * FROM (RA UNION RB) WHERE speciality IS {si}"
        )
        optimized = optimize(plan)
        assert isinstance(optimized, SelectPlan)
        assert isinstance(optimized.child, UnionPlan)


class TestOptimizerSemantics:
    """Optimized plans must return exactly the unoptimized results."""

    QUERIES = [
        "SELECT * FROM RA WHERE speciality IS {si}",
        "SELECT rname, rating FROM RA WHERE rating IS {ex} WITH SN >= 0.5",
        "SELECT * FROM RA JOIN RM_A ON RA.rname = RM_A.rname "
        "WHERE speciality IS {si}",
        "SELECT * FROM RA JOIN RM_A ON RA.rname = RM_A.rname "
        "WHERE speciality IS {si} AND mname IS {chen}",
        "RA UNION RB BY (rname)",
        "SELECT * FROM (RA UNION RB) WHERE rating IS {gd} WITH SN > 0.5",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_rewrites_preserve_results(self, db, text):
        raw = build_plan(parse(text), db)
        optimized = optimize(build_plan(parse(text), db))
        assert raw.execute(db).same_tuples(optimized.execute(db))

    def test_optimize_is_idempotent(self, db):
        """An optimized plan is a fixpoint: optimizing it again changes
        neither its canonical form nor its rendering."""
        for text in self.QUERIES + ["SELECT rname FROM RA WHERE rating IS {ex}"]:
            once = optimize(plan_of(db, text))
            twice = optimize(once)
            assert plan_key(twice) == plan_key(once), text
            assert twice.describe() == once.describe(), text

    def test_union_pushdown_would_be_wrong(self, db):
        """Demonstrate that pushing selection below union changes results:
        this is why the optimizer never does it."""
        from repro.algebra import IsPredicate, select, union

        ra, rb = table_ra(), table_rb()
        predicate = IsPredicate("rating", {"ex"})
        correct = select(union(ra, rb), predicate)
        pushed = union(
            select(ra, predicate), select(rb, predicate), name="RA_union_RB"
        )
        assert not correct.same_tuples(pushed)
