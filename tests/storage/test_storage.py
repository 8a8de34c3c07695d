"""Tests for the database catalog, serialization and formatting."""

import json
from fractions import Fraction

import pytest

from repro.errors import CatalogError, SerializationError
from repro.storage import (
    Database,
    database_from_json,
    database_to_json,
    format_relation,
    format_tuple,
    load_database,
    load_relation,
    relation_from_json,
    relation_to_json,
    save_database,
    save_relation,
)
from repro.storage.serialization import (
    domain_from_json,
    domain_to_json,
    schema_from_json,
    schema_to_json,
)
from repro.model.domain import (
    AnyDomain,
    BooleanDomain,
    EnumeratedDomain,
    NumericDomain,
    TextDomain,
)
from repro.datasets.restaurants import (
    restaurant_schema,
    table_m_a,
    table_ra,
    table_rb,
    table_rm_a,
)


class TestDatabase:
    def test_add_get(self):
        db = Database("d")
        db.add(table_ra())
        assert db.get("RA").name == "RA"
        assert "RA" in db
        assert len(db) == 1

    def test_duplicate_rejected(self):
        db = Database()
        db.add(table_ra())
        with pytest.raises(CatalogError, match="already exists"):
            db.add(table_ra())

    def test_replace(self):
        db = Database()
        db.add(table_ra())
        db.add(table_ra(), replace=True)
        assert len(db) == 1

    def test_unknown_get(self):
        with pytest.raises(CatalogError, match="no relation"):
            Database().get("missing")

    def test_drop(self):
        db = Database()
        db.add(table_ra())
        db.drop("RA")
        assert "RA" not in db
        with pytest.raises(CatalogError):
            db.drop("RA")

    def test_names_sorted(self):
        db = Database()
        db.add(table_rb())
        db.add(table_ra())
        assert db.names() == ("RA", "RB")

    def test_iteration(self):
        db = Database()
        db.add(table_ra())
        assert [r.name for r in db] == ["RA"]


class TestDomainSerialization:
    @pytest.mark.parametrize(
        "domain",
        [
            EnumeratedDomain("e", ["x", "y"]),
            NumericDomain("n", low=0, high=9, integral=True),
            NumericDomain("n2"),
            TextDomain("t"),
            TextDomain("t2", pattern=r"\d+"),
            BooleanDomain("b"),
            AnyDomain("a"),
        ],
    )
    def test_round_trip(self, domain):
        assert domain_from_json(domain_to_json(domain)) == domain

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            domain_from_json({"kind": "quantum", "name": "q"})


class TestSchemaSerialization:
    def test_round_trip(self):
        schema = restaurant_schema()
        assert schema_from_json(schema_to_json(schema)) == schema

    def test_missing_field_rejected(self):
        with pytest.raises(SerializationError):
            schema_from_json({"name": "R"})


class TestRelationSerialization:
    @pytest.mark.parametrize(
        "make_relation", [table_ra, table_rb, table_m_a, table_rm_a]
    )
    def test_round_trip_paper_tables(self, make_relation):
        relation = make_relation()
        document = relation_to_json(relation)
        # Must survive a JSON text round-trip as well.
        recovered = relation_from_json(json.loads(json.dumps(document)))
        assert recovered == relation

    def test_exact_fractions_preserved(self):
        document = relation_to_json(table_ra())
        recovered = relation_from_json(document)
        garden = recovered.get("garden")
        assert garden.evidence("rating").mass({"ex"}) == Fraction(1, 3)

    def test_reloaded_evidence_stays_compiled(self):
        """Enumerated evidence compiles eagerly on load, and every tuple
        shares one interned frame per attribute (see repro.ds.kernel)."""
        recovered = relation_from_json(relation_to_json(table_ra()))
        interned = {
            etuple.evidence("rating").mass_function.compiled().interned
            for etuple in recovered
        }
        assert all(
            etuple.evidence("rating").is_compiled for etuple in recovered
        )
        assert len(interned) == 1

    def test_open_domain_evidence_loads_uncompiled(self):
        """Unenumerable domains have no frame to intern; loading leaves
        them on the symbolic path."""
        recovered = relation_from_json(relation_to_json(table_ra()))
        sample = next(iter(recovered))
        assert not sample.evidence("street").is_compiled
        assert sample.evidence("rating").is_compiled

    def test_version_checked(self):
        document = relation_to_json(table_ra())
        document["format_version"] = 99
        with pytest.raises(SerializationError, match="version"):
            relation_from_json(document)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "ra.json"
        save_relation(table_ra(), path)
        assert load_relation(path) == table_ra()

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError, match=str(path)):
            load_relation(path)

    def test_missing_file_is_serialization_error(self, tmp_path):
        """A missing file surfaces as SerializationError naming the
        path, not a raw FileNotFoundError leaking to CLI users."""
        path = tmp_path / "absent.json"
        with pytest.raises(SerializationError, match=str(path)):
            load_relation(path)


class TestPartitionedSerialization:
    def test_legacy_tuple_partitions_document_loads(self):
        """Older versions could save a relation as hash shards under
        ``tuple_partitions``; such a hand-written document still loads,
        shard after shard."""
        relation = table_ra()
        flat = relation_to_json(relation)
        rows = flat["tuples"]
        document = {
            "format_version": flat["format_version"],
            "schema": flat["schema"],
            "partitions": 2,
            "tuple_partitions": [rows[3:], rows[:3]],
        }
        recovered = relation_from_json(document)
        keys = list(relation.keys())
        assert list(recovered.keys()) == keys[3:] + keys[:3]
        assert recovered.same_tuples(relation)

    def test_partition_layout_is_preserved(self, tmp_path):
        """A relation loaded from the legacy two-shard document saves
        back flat and reloads in the order it was loaded in."""
        flat = relation_to_json(table_ra())
        relation = relation_from_json(
            {
                "format_version": flat["format_version"],
                "schema": flat["schema"],
                "partitions": 2,
                "tuple_partitions": [flat["tuples"][3:], flat["tuples"][:3]],
            }
        )
        path = tmp_path / "ra.json"
        save_relation(relation, path)
        recovered = load_relation(path)
        assert list(recovered.keys()) == list(relation.keys())
        assert recovered.same_tuples(relation)

    def test_saves_use_the_flat_layout(self):
        document = relation_to_json(table_ra())
        assert "tuples" in document
        assert "partitions" not in document
        assert "tuple_partitions" not in document


class TestDatabaseSerialization:
    def test_round_trip(self, tmp_path):
        db = Database("tourist")
        db.add(table_ra())
        db.add(table_rb())
        path = tmp_path / "db.json"
        save_database(db, path)
        recovered = load_database(path)
        assert recovered.name == "tourist"
        assert recovered.names() == ("RA", "RB")
        assert recovered.get("RA") == table_ra()

    def test_document_round_trip(self):
        db = Database("d")
        db.add(table_rm_a())
        recovered = database_from_json(database_to_json(db))
        assert recovered.get("RM_A") == table_rm_a()

    def test_missing_file_is_serialization_error(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(SerializationError, match=str(path)):
            load_database(path)

    def test_bad_json_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2,")
        with pytest.raises(SerializationError, match=str(path)):
            load_database(path)


class TestFormatting:
    def test_header_uses_display_names(self):
        text = format_relation(table_ra())
        header = text.splitlines()[1]
        assert "yspeciality" in header
        assert "(sn,sp)" in header
        assert "rname" in header

    def test_rows_render_evidence(self):
        text = format_relation(table_ra())
        assert "[hu^0.25, si^0.5, Ω^0.25]" in text.replace("0.250", "0.25")

    def test_definite_values_render_bare(self):
        cells = format_tuple(table_ra().get("wok"))
        assert cells["yspeciality"] == "si"
        assert cells["street"] == "wash.ave."

    def test_membership_column(self):
        cells = format_tuple(table_ra().get("mehl"))
        assert cells["(sn,sp)"] == "(0.5,0.5)"

    def test_custom_title(self):
        text = format_relation(table_ra(), title="Table 1 upper half")
        assert text.splitlines()[0] == "Table 1 upper half"

    def test_alignment(self):
        lines = format_relation(table_ra()).splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded to the same width
