"""Tests for extended relations (CWA_ER enforcement, keys, derivations)."""

import pytest

from repro.errors import RelationError
from repro.model.attribute import Attribute
from repro.model.domain import EnumeratedDomain, TextDomain
from repro.model.etuple import ExtendedTuple
from repro.model.membership import TupleMembership
from repro.model.relation import ExtendedRelation
from repro.model.schema import RelationSchema


@pytest.fixture
def schema():
    return RelationSchema(
        "R",
        [
            Attribute("k", TextDomain("k"), key=True),
            Attribute(
                "v", EnumeratedDomain("v", ["x", "y", "z"]), uncertain=True
            ),
        ],
    )


def _t(schema, key, value="x", membership=(1, 1)):
    return ExtendedTuple(schema, {"k": key, "v": value}, membership)


class TestCwaEr:
    def test_supported_tuples_accepted(self, schema):
        relation = ExtendedRelation(schema, [_t(schema, "a", membership=("1/2", 1))])
        assert len(relation) == 1

    def test_unsupported_raises_by_default(self, schema):
        with pytest.raises(RelationError, match="CWA_ER"):
            ExtendedRelation(schema, [_t(schema, "a", membership=(0, 1))])

    def test_drop_policy_filters(self, schema):
        relation = ExtendedRelation(
            schema,
            [_t(schema, "a"), _t(schema, "b", membership=(0, 1))],
            on_unsupported="drop",
        )
        assert relation.keys() == (("a",),)

    def test_allow_policy_admits(self, schema):
        relation = ExtendedRelation(
            schema,
            [_t(schema, "a", membership=(0, 1))],
            on_unsupported="allow",
        )
        assert len(relation) == 1

    def test_unknown_policy_rejected(self, schema):
        with pytest.raises(RelationError, match="on_unsupported"):
            ExtendedRelation(schema, [], on_unsupported="explode")


class TestKeys:
    def test_duplicate_keys_rejected(self, schema):
        with pytest.raises(RelationError, match="duplicate key"):
            ExtendedRelation(schema, [_t(schema, "a"), _t(schema, "a", value="y")])

    def test_get_by_key(self, schema):
        relation = ExtendedRelation(schema, [_t(schema, "a")])
        assert relation.get(("a",)).key() == ("a",)
        assert relation.get(("missing",)) is None

    def test_get_scalar_key_convenience(self, schema):
        relation = ExtendedRelation(schema, [_t(schema, "a")])
        assert relation.get("a") is relation.get(("a",))
        assert "a" in relation

    def test_schema_mismatch_rejected(self, schema):
        # Same attributes but a different declaration order: the tuple's
        # schema no longer matches the relation's.
        other = RelationSchema(
            "S",
            [
                Attribute(
                    "v", EnumeratedDomain("v", ["x", "y", "z"]), uncertain=True
                ),
                Attribute("k", TextDomain("k"), key=True),
            ],
        )
        with pytest.raises(RelationError, match="does not match"):
            ExtendedRelation(schema, [_t(other, "a")])

    def test_non_tuple_input_rejected(self, schema):
        with pytest.raises(RelationError):
            ExtendedRelation(schema, ["not a tuple"])


class TestFromRows:
    def test_mappings_default_certain(self, schema):
        relation = ExtendedRelation.from_rows(schema, [{"k": "a", "v": "x"}])
        assert relation.get("a").membership.is_certain

    def test_pairs_with_membership(self, schema):
        relation = ExtendedRelation.from_rows(
            schema, [({"k": "a", "v": "x"}, ("1/2", 1))]
        )
        assert relation.get("a").membership == TupleMembership("1/2", 1)


class TestDerivations:
    def test_with_name(self, schema):
        relation = ExtendedRelation(schema, [_t(schema, "a")])
        renamed = relation.with_name("S")
        assert renamed.name == "S"
        assert renamed.get("a").evidence("v").definite_value() == "x"

    def test_with_name_preserves_allow_policy(self, schema):
        relation = ExtendedRelation(
            schema, [_t(schema, "a", membership=(0, 1))], on_unsupported="allow"
        )
        assert len(relation.with_name("S")) == 1

    def test_add(self, schema):
        relation = ExtendedRelation(schema, [_t(schema, "a")])
        grown = relation.add(_t(schema, "b"))
        assert len(grown) == 2
        assert len(relation) == 1

    def test_filter(self, schema):
        relation = ExtendedRelation(schema, [_t(schema, "a"), _t(schema, "b")])
        kept = relation.filter(lambda t: t.key() == ("a",))
        assert kept.keys() == (("a",),)

    def test_map_tuples(self, schema):
        relation = ExtendedRelation(schema, [_t(schema, "a")])
        mapped = relation.map_tuples(lambda t: t.with_values({"v": "y"}))
        assert mapped.get("a").evidence("v").definite_value() == "y"

    def test_to_float(self, schema):
        relation = ExtendedRelation(
            schema, [_t(schema, "a", membership=("1/2", 1))]
        )
        floated = relation.to_float()
        assert isinstance(floated.get("a").membership.sn, float)


class TestComparison:
    def test_same_tuples_ignores_name(self, schema):
        a = ExtendedRelation(schema, [_t(schema, "a")])
        b = a.with_name("Other")
        assert a.same_tuples(b)
        assert a != b  # full equality includes the schema name

    def test_same_tuples_detects_value_change(self, schema):
        a = ExtendedRelation(schema, [_t(schema, "a")])
        b = ExtendedRelation(schema, [_t(schema, "a", value="y")])
        assert not a.same_tuples(b)

    def test_same_tuples_detects_key_difference(self, schema):
        a = ExtendedRelation(schema, [_t(schema, "a")])
        b = ExtendedRelation(schema, [_t(schema, "b")])
        assert not a.same_tuples(b)

    def test_equality_and_hash(self, schema):
        a = ExtendedRelation(schema, [_t(schema, "a")])
        b = ExtendedRelation(schema, [_t(schema, "a")])
        assert a == b
        assert hash(a) == hash(b)

    def test_iteration_order_is_insertion(self, schema):
        relation = ExtendedRelation(
            schema, [_t(schema, "b"), _t(schema, "a"), _t(schema, "c")]
        )
        assert [t.key()[0] for t in relation] == ["b", "a", "c"]


class TestEvidenceColumn:
    def test_rows_follow_the_tuples(self, schema):
        exact = _t(schema, "a", value={"x": "1/4", "y": "3/4"})
        floated = _t(schema, "b", value={"x": 0.25, "y": 0.75})
        relation = ExtendedRelation(schema, [exact, floated])
        (row_a, row_b) = relation.evidence_column("v")
        compiled = exact.evidence("v").mass_function.compiled()
        numerators, denominator = compiled.scaled()
        assert row_a == (exact, compiled, compiled.masks, numerators, denominator)
        compiled = floated.evidence("v").mass_function.compiled()
        assert row_b == (floated, compiled, compiled.masks, None, None)

    def test_built_once_per_relation_and_attribute(self, schema):
        relation = ExtendedRelation(schema, [_t(schema, "a"), _t(schema, "b")])
        assert relation.evidence_column("v") is relation.evidence_column("v")
        assert relation.evidence_column("k") is not relation.evidence_column("v")
        derived = relation.filter(lambda etuple: etuple.key() == ("b",))
        assert [row[0] for row in derived.evidence_column("v")] == [derived.get("b")]
