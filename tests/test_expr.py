"""The fluent lazy expression API (repro.expr)."""

import pytest

from repro.errors import CatalogError, PlanError
from repro.algebra import (
    attr,
    intersection,
    join,
    product,
    project,
    rename,
    select,
    sn_at_least,
    union,
)
from repro.expr import RelExpr
from repro.storage import Database
from repro.datasets.restaurants import (
    expected_table2,
    expected_table4,
    table_ra,
    table_rb,
    table_rm_a,
)


@pytest.fixture
def db():
    database = Database("tourist_bureau")
    database.add(table_ra())
    database.add(table_rb())
    database.add(table_rm_a())
    return database


class TestBuilding:
    def test_rel_returns_expression(self, db):
        expr = db.rel("RA")
        assert isinstance(expr, RelExpr)

    def test_rel_unknown_name_fails_eagerly_with_hint(self, db):
        with pytest.raises(CatalogError, match="did you mean 'RA'"):
            db.rel("RAA")

    def test_expressions_are_immutable(self, db):
        base = db.rel("RA")
        derived = base.select(attr("speciality").is_({"si"}))
        assert base.key() != derived.key()
        assert base.collect().same_tuples(table_ra())

    def test_shared_prefix_reuse(self, db):
        base = db.rel("RA").select(attr("speciality").is_({"si"}))
        names = base.project("rname")
        merged = base.union(db.rel("RB").select(attr("speciality").is_({"si"})))
        assert names.key() != merged.key()
        assert base.key() in names.key()
        assert base.key() in merged.key()

    def test_select_rejects_non_predicate(self, db):
        with pytest.raises(PlanError):
            db.rel("RA").select("speciality IS {si}")

    def test_union_coerces_names_and_relations(self, db):
        via_name = db.rel("RA").union("RB")
        via_relation = db.rel("RA").union(table_rb())
        assert via_name.collect().same_tuples(via_relation.collect())

    def test_union_rejects_junk(self, db):
        with pytest.raises(PlanError):
            db.rel("RA").union(42)

    @pytest.mark.parametrize("operator", ["union", "intersect"])
    def test_bad_conflict_policy_fails_when_the_plan_is_built(self, db, operator):
        """An unknown policy is a plan error when the plan node is
        built, so neither an explain nor a run gets past it."""
        expression = getattr(db.rel("RA"), operator)(
            db.rel("RB"), on_conflict="bogus"
        )
        with pytest.raises(PlanError, match="bogus"):
            expression.explain()
        with pytest.raises(PlanError, match="bogus"):
            expression.collect()

    def test_repr_shows_chain(self, db):
        expr = db.rel("RA").project("rname", "rating")
        assert "project" in repr(expr)
        assert "scan RA" in repr(expr)


class TestCollect:
    def test_select_matches_paper_table2(self, db):
        result = db.rel("RA").select(attr("speciality").is_({"si"})).collect()
        assert result.same_tuples(expected_table2())

    def test_union_matches_paper_table4(self, db):
        result = db.rel("RA").union(db.rel("RB")).collect()
        assert result.same_tuples(expected_table4())

    def test_threshold_filters(self, db):
        loose = db.rel("RA").select(attr("rating").is_({"ex"})).collect()
        tight = (
            db.rel("RA")
            .select(attr("rating").is_({"ex"}), sn_at_least(1))
            .collect()
        )
        assert len(tight) < len(loose)

    def test_with_support_threshold_only(self, db):
        result = db.rel("RA").with_support(sn_at_least(1)).collect()
        assert result.get("mehl") is None
        assert len(result) == 5

    def test_join_over_product_schema_names(self, db):
        result = (
            db.rel("RA")
            .join("RM_A", on=attr("RA_rname") == attr("RM_A_rname"))
            .collect()
        )
        assert len(result) == len(table_rm_a())

    def test_rename_then_project(self, db):
        result = (
            db.rel("RA").rename({"rname": "restaurant"}).project("restaurant")
        ).collect()
        assert result.schema.names == ("restaurant",)

    def test_intersect(self, db):
        result = db.rel("RA").intersect(db.rel("RB")).collect()
        assert sorted(t.key()[0] for t in result) == [
            "country",
            "garden",
            "mehl",
            "olive",
            "wok",
        ]

    def test_schema_binds_without_executing(self, db):
        assert db.rel("RA").project("rname", "rating").schema().names == (
            "rname",
            "rating",
        )


class TestSqlEquivalence:
    """Fluent chains and query strings must produce identical results."""

    CASES = [
        (
            "SELECT rname FROM RA WHERE rating IS {ex}",
            lambda db: db.rel("RA").select(attr("rating").is_({"ex"})).project("rname"),
        ),
        (
            "SELECT * FROM RA WHERE speciality IS {si} AND rating IS {ex}",
            lambda db: db.rel("RA").select(
                attr("speciality").is_({"si"}) & attr("rating").is_({"ex"})
            ),
        ),
        (
            "RA UNION RB",
            lambda db: db.rel("RA").union(db.rel("RB")),
        ),
        (
            "SELECT * FROM (RA UNION RB) WHERE rating IS {gd} WITH SN >= 0.5",
            lambda db: db.rel("RA")
            .union(db.rel("RB"))
            .select(attr("rating").is_({"gd"}), sn_at_least("1/2")),
        ),
    ]

    @pytest.mark.parametrize("text,build", CASES, ids=[c[0] for c in CASES])
    def test_same_tuples(self, db, text, build):
        fluent = build(db).collect()
        assert fluent.same_tuples(db.query(text))

    def test_explain_matches_sql_explain(self, db):
        text = "SELECT rname, rating FROM RA WHERE rating IS {ex}"
        fluent = (
            db.rel("RA").select(attr("rating").is_({"ex"})).project("rname", "rating")
        )
        assert fluent.explain() == db.explain(text)


class TestEagerWrappers:
    """algebra.* evaluates eagerly, one operation per call."""

    def test_select_unchanged(self):
        result = select(table_ra(), attr("speciality").is_({"si"}))
        assert result.same_tuples(expected_table2())

    def test_select_name_kwarg(self):
        result = select(table_ra(), attr("speciality").is_({"si"}), name="S")
        assert result.name == "S"

    def test_project_unchanged(self):
        result = project(table_ra(), ["rname", "rating"], name="P")
        assert result.schema.names == ("rname", "rating")
        assert result.name == "P"

    def test_product_unchanged(self):
        result = product(table_ra(), table_rm_a())
        assert len(result) == len(table_ra()) * len(table_rm_a())

    def test_union_unchanged(self):
        assert union(table_ra(), table_rb(), name="R").name == "R"

    def test_intersection_unchanged(self):
        assert len(intersection(table_ra(), table_rb())) == 5

    def test_join_unchanged(self):
        result = join(
            table_ra(), table_rm_a(), attr("RA_rname") == attr("RM_A_rname")
        )
        assert len(result) == len(table_rm_a())

    def test_rename_unchanged(self):
        result = rename(table_ra(), {"rname": "restaurant"}, name="REN")
        assert "restaurant" in result.schema
        assert result.name == "REN"
