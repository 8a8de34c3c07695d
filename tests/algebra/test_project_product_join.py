"""Tests for projection, cartesian product, join and rename."""

from fractions import Fraction

import pytest

from repro.errors import DomainError, OperationError, SchemaError
from repro.algebra import (
    ThetaPredicate,
    attr,
    equijoin,
    join,
    product,
    project,
    rename,
)
from repro.datasets.restaurants import table_m_a, table_ra, table_rm_a
from repro.model import etuple as etuple_module
from repro.model.attribute import Attribute
from repro.model.domain import EnumeratedDomain, NumericDomain, TextDomain
from repro.model.etuple import ExtendedTuple
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema


@pytest.fixture
def ra():
    return table_ra()


@pytest.fixture
def rm(
):
    return table_rm_a()


class TestProject:
    def test_drops_unlisted_attributes(self, ra):
        result = project(ra, ["rname", "rating"])
        assert result.schema.names == ("rname", "rating")
        assert result.get("wok").evidence("rating").mass({"avg"}) == Fraction(3, 4)

    def test_key_required(self, ra):
        with pytest.raises(SchemaError, match="retain key"):
            project(ra, ["rating"])

    def test_membership_carried(self, ra):
        result = project(ra, ["rname"])
        assert result.get("mehl").membership.as_tuple() == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_rename_result(self, ra):
        assert project(ra, ["rname"], name="names").name == "names"


def _two_key_schema(domain=None):
    return RelationSchema(
        "K",
        [
            Attribute("a", TextDomain("a"), key=True),
            Attribute("b", NumericDomain("b", low=0, integral=True), key=True),
            Attribute(
                "v",
                domain or EnumeratedDomain("v", ["x", "y", "z"]),
                uncertain=True,
            ),
            Attribute("w", TextDomain("w")),
        ],
    )


class TestProjectTrustedPath:
    """A projection shares the values its input already checked when the
    tuples carry the relation's own attributes, and goes through the
    constructor otherwise."""

    def test_reordered_keys_follow_the_projected_schema(self):
        schema = _two_key_schema()
        relation = ExtendedRelation(
            schema,
            [
                ExtendedTuple(
                    schema, {"a": "p", "b": 1, "v": "[x^1/4, {x,y}^3/4]", "w": "q"}
                ),
                ExtendedTuple(
                    schema, {"a": "r", "b": 2, "v": "x", "w": "s"}, ("1/2", "3/4")
                ),
            ],
        )
        result = project(relation, ["v", "b", "a"])
        assert result.schema.key_names == ("b", "a")
        assert [etuple.key() for etuple in result] == [(1, "p"), (2, "r")]
        assert result.keys() == ((1, "p"), (2, "r"))
        for projected, source in zip(result, relation):
            built = ExtendedTuple(
                result.schema,
                {name: source.value(name) for name in ("v", "b", "a")},
                source.membership,
            )
            assert projected == built
            assert projected.key() == built.key()
            assert projected == source.project(result.schema)

    def test_tuples_of_another_domain_go_through_the_constructor(self, monkeypatch):
        """Same attribute names, a wider domain for ``v``: the relation
        accepts the tuples, and the projection re-checks their values
        against its own domain."""
        narrow = _two_key_schema()
        wide = _two_key_schema(EnumeratedDomain("v", ["x", "y", "z", "u"]))
        inside = ExtendedTuple(wide, {"a": "p", "b": 1, "v": "x", "w": "q"})
        counts = {"coerced": 0}
        coerce = etuple_module._coerce_value

        def counting(attribute, raw):
            counts["coerced"] += 1
            return coerce(attribute, raw)

        monkeypatch.setattr(etuple_module, "_coerce_value", counting)
        result = project(ExtendedRelation(narrow, [inside]), ["a", "b", "v"])
        assert counts["coerced"] == 3
        assert result.get(("p", 1)).value("v").domain is narrow.attribute("v").domain
        outside = ExtendedTuple(wide, {"a": "r", "b": 2, "v": "u", "w": "s"})
        with pytest.raises(DomainError):
            project(ExtendedRelation(narrow, [outside]), ["a", "b", "v"])


class TestProduct:
    def test_cardinality(self, ra, rm):
        assert len(product(ra, rm)) == len(ra) * len(rm)

    def test_clashing_names_prefixed(self, ra, rm):
        paired = product(ra, rm)
        assert "RA_rname" in paired.schema
        assert "RM_A_rname" in paired.schema
        assert "mname" in paired.schema  # unique, not prefixed

    def test_memberships_multiply(self, ra, rm):
        paired = product(ra, rm)
        # mehl (1/2,1/2) x (garden,chen) (4/5,1) -> (2/5,1/2)
        row = paired.get(("mehl", "garden", "chen"))
        assert row.membership.as_tuple() == (Fraction(2, 5), Fraction(1, 2))

    def test_product_key_is_union(self, ra, rm):
        paired = product(ra, rm)
        assert set(paired.schema.key_names) == {"RA_rname", "RM_A_rname", "mname"}

    def test_values_preserved_on_both_sides(self, ra, rm):
        paired = product(ra, rm)
        row = paired.get(("wok", "wok", "chen"))
        assert row.evidence("speciality").definite_value() == "si"


class TestJoin:
    def test_equijoin_restaurant_to_relationship(self, ra, rm):
        linked = equijoin(ra, rm, [("rname", "rname")])
        # Every RM_A tuple references an existing restaurant.
        assert len(linked) == len(rm)
        for row in linked:
            assert row.value("RA_rname") == row.value("RM_A_rname")

    def test_join_memberships_combine(self, ra, rm):
        linked = equijoin(ra, rm, [("rname", "rname")])
        # garden (1,1) x rm(garden,chen) (4/5,1) -> (4/5,1); the join
        # predicate on definite keys contributes (1,1).
        row = linked.get(("garden", "garden", "chen"))
        assert row.membership.as_tuple() == (Fraction(4, 5), Fraction(1))

    def test_three_way_relationship_traversal(self, ra, rm):
        """R -> RM -> M: Figure 2's full relationship path."""
        managers = table_m_a()
        first = equijoin(ra, rm, [("rname", "rname")])
        second = equijoin(first, managers, [("mname", "mname")])
        chen_links = [
            t for t in second if t.value("M_A_mname") == "chen"
        ]
        assert sorted(t.value("RA_rname") for t in chen_links) == ["garden", "wok"]

    def test_custom_theta_join(self, ra):
        other = rename(
            table_ra("RA2"),
            {name: name for name in []},
        )
        linked = join(
            ra,
            table_ra("RA2"),
            ThetaPredicate("RA_bldg_no", "<", attr("RA2_bldg_no")),
        )
        for row in linked:
            left = row.value("RA_bldg_no").definite_value()
            right = row.value("RA2_bldg_no").definite_value()
            assert left < right

    def test_equijoin_requires_pairs(self, ra, rm):
        with pytest.raises(OperationError):
            equijoin(ra, rm, [])

    def test_equijoin_bare_names(self, ra):
        linked = equijoin(ra, table_ra("RA2"), ["rname"])
        assert len(linked) == len(ra)


class TestRename:
    def test_rename_attribute(self, ra):
        renamed = rename(ra, {"rname": "restaurant"})
        assert "restaurant" in renamed.schema
        assert "rname" not in renamed.schema
        assert renamed.get("wok").key() == ("wok",)

    def test_rename_preserves_values(self, ra):
        renamed = rename(ra, {"rating": "stars"})
        assert renamed.get("wok").evidence("stars").mass({"avg"}) == Fraction(3, 4)

    def test_rename_unknown_rejected(self, ra):
        with pytest.raises(SchemaError):
            rename(ra, {"ghost": "x"})
