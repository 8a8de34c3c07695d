"""Tests for the pluggable storage-backend layer.

Engine-specific behavior (URL resolution, catalog versions, SQLite
point-load selectivity, log compaction and crash tolerance); the
cross-engine bit-for-bit equivalence properties live in
``test_serialization_properties.py``.
"""

import json

import pytest

from repro.datasets.restaurants import table_m_a, table_ra, table_rb
from repro.errors import CatalogError, SerializationError
from repro.storage import (
    Database,
    JsonBackend,
    create_database,
    open_backend,
    open_database,
    resolve_backend,
    save_database,
)
from repro.storage.backends import default_scheme, split_url
from tests.storage.legacy_layout import shard_index

ALL_SCHEMES = ("json", "sqlite", "log")


def url_for(scheme, tmp_path, name="store"):
    return f"{scheme}:{tmp_path / name}"


class TestUrlResolution:
    def test_explicit_scheme_wins(self):
        assert split_url("sqlite:some/file.json") == ("sqlite", "some/file.json")
        assert resolve_backend("sqlite:x.json").scheme == "sqlite"

    def test_bare_path_has_no_scheme(self):
        assert split_url("plain/path.json") == (None, "plain/path.json")

    def test_unknown_prefix_is_treated_as_path(self):
        # "C" is not a registered scheme; the whole string is a path.
        assert split_url("C:file.json") == (None, "C:file.json")

    @pytest.mark.parametrize(
        ("location", "scheme"),
        [
            ("db.json", "json"),
            ("db.sqlite", "sqlite"),
            ("db.sqlite3", "sqlite"),
            ("db.db", "sqlite"),
            ("db.jsonl", "log"),
            ("db.log", "log"),
            ("db.anything", "json"),
        ],
    )
    def test_extension_inference(self, location, scheme, monkeypatch):
        monkeypatch.delenv("REPRO_STORAGE", raising=False)
        assert default_scheme(location) == scheme

    def test_env_var_overrides_extension(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "sqlite")
        assert resolve_backend("db.json").scheme == "sqlite"

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "quantum")
        with pytest.raises(SerializationError, match="REPRO_STORAGE"):
            resolve_backend("db.json")

    def test_backend_instance_passes_through(self, tmp_path):
        backend = JsonBackend(tmp_path / "x.json")
        assert resolve_backend(backend) is backend

    def test_empty_location_rejected(self):
        with pytest.raises(SerializationError, match="names no path"):
            resolve_backend("json:")


class TestBackendContract:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_operations_require_open(self, scheme, tmp_path):
        backend = resolve_backend(url_for(scheme, tmp_path))
        with pytest.raises(SerializationError, match="not open"):
            backend.save_relation(table_ra())
        with pytest.raises(SerializationError, match="not open"):
            backend.load_database()

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_catalog_version_bumps_per_mutation(self, scheme, tmp_path):
        with open_backend(url_for(scheme, tmp_path)) as backend:
            assert backend.catalog_version() == 0
            backend.save_relation(table_ra())
            assert backend.catalog_version() == 1
            backend.save_relation(table_rb())
            assert backend.catalog_version() == 2
            backend.delete_relation("RA")
            assert backend.catalog_version() == 3
            assert backend.list_relations() == ("RB",)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_load_database_seeds_catalog_version(self, scheme, tmp_path):
        url = url_for(scheme, tmp_path)
        with open_backend(url) as backend:
            backend.save_relation(table_ra())
            backend.save_relation(table_m_a())
        db = open_database(url)
        assert db.version == db.backend.catalog_version() == 2
        db.close()

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_unknown_relation_names_stored_ones(self, scheme, tmp_path):
        with open_backend(url_for(scheme, tmp_path)) as backend:
            backend.save_relation(table_ra())
            with pytest.raises(SerializationError, match="stored: RA"):
                backend.load_relation("GHOST")
            with pytest.raises(SerializationError, match="no relation"):
                backend.delete_relation("GHOST")

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_missing_store_is_clean_error(self, scheme, tmp_path):
        with open_backend(url_for(scheme, tmp_path)) as backend:
            with pytest.raises(SerializationError):
                backend.load_database()
        with pytest.raises(SerializationError, match="no database"):
            open_database(url_for(scheme, tmp_path, "other"))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_database_name_round_trips(self, scheme, tmp_path):
        url = url_for(scheme, tmp_path)
        db = create_database(url, "tourist_bureau")
        db.add(table_ra())
        db.persist()
        db.close()
        reopened = Database.open(url)
        assert reopened.name == "tourist_bureau"
        reopened.close()


class TestDatabasePersistence:
    def test_persist_requires_backend(self):
        with pytest.raises(CatalogError, match="no attached storage backend"):
            Database("d").persist()

    def test_reload_reports_changed_names(self, tmp_path):
        url = url_for("sqlite", tmp_path)
        db = create_database(url, "d")
        db.add(table_ra())
        db.add(table_rb())
        db.persist()

        writer = Database.open(url)
        writer.drop("RB")
        writer.add(table_m_a())
        writer.persist()
        writer.close()

        changed = db.reload()
        assert changed == frozenset({"RB", "M_A"})
        assert db.names() == ("M_A", "RA")
        assert db.version >= db.backend.catalog_version()
        db.close()

    def test_reload_is_noop_when_unchanged(self, tmp_path):
        url = url_for("log", tmp_path)
        db = create_database(url, "d")
        db.add(table_ra())
        db.persist()
        assert db.reload() == frozenset()
        db.close()

    def test_reopened_database_invalidates_stale_results(self, tmp_path):
        """The backend-reported catalog version keys session
        invalidation: after another writer persists, reload() makes the
        session re-execute instead of serving the fingerprinted result."""
        url = url_for("sqlite", tmp_path)
        db = create_database(url, "d")
        db.add(table_ra())
        db.persist()

        session = db.session()
        before = session.execute("SELECT rname FROM RA")
        assert len(before) == 6

        writer = Database.open(url)
        smaller = writer.get("RA").filter(lambda t: t.key() != ("wok",))
        writer.add(smaller, replace=True)
        writer.persist()
        writer.close()

        db.reload()
        after = session.execute("SELECT rname FROM RA")
        assert len(after) == 5
        db.close()


class TestJsonBackendCompatibility:
    def test_pre_backend_files_still_load(self, tmp_path):
        """Files written by the plain serialization helpers (PR <= 4,
        no catalog_version field) load unchanged through JsonBackend."""
        path = tmp_path / "legacy.json"
        db = Database("legacy")
        db.add(table_ra())
        save_database(db, path)
        document = json.loads(path.read_text())
        assert "catalog_version" not in document
        loaded = open_database(f"json:{path}")
        assert loaded.version == 0
        assert loaded.get("RA") == table_ra()
        loaded.close()

    def test_first_save_creates_versioned_document(self, tmp_path):
        path = tmp_path / "fresh.json"
        with open_backend(f"json:{path}") as backend:
            backend.save_relation(table_ra())
        document = json.loads(path.read_text())
        assert document["catalog_version"] == 1
        assert document["format_version"] == 1

    def test_zero_byte_file_counts_as_empty_store(self, tmp_path):
        """Saving over a zero-byte file starts a fresh store instead of
        choking on 'invalid JSON at char 0'."""
        path = tmp_path / "empty.json"
        path.touch()
        with open_backend(f"json:{path}") as backend:
            assert not backend.exists()
            assert backend.catalog_version() == 0
            backend.save_relation(table_ra())
            assert backend.load_relation("RA") == table_ra()


class TestSqliteBackend:
    def test_point_load_skips_other_relations(self, tmp_path, monkeypatch):
        """load_relation deserializes only the requested relation's
        rows -- the defining advantage over the monolithic JSON file."""
        import repro.storage.backends.sqlite as sqlite_module

        url = url_for("sqlite", tmp_path)
        db = Database("d")
        db.add(table_ra())
        db.add(table_rb())
        db.add(table_m_a())
        with open_backend(url) as backend:
            backend.save_database(db)

            decoded = []
            original = sqlite_module.tuple_from_json

            def counting(row, schema):
                decoded.append(schema.name)
                return original(row, schema)

            monkeypatch.setattr(
                sqlite_module, "tuple_from_json", counting
            )
            relation = backend.load_relation("M_A")
        assert relation == table_m_a()
        assert decoded == ["M_A"] * len(table_m_a())

    def test_hash_sharded_relation_from_an_older_version_loads(
        self, tmp_path
    ):
        """Older versions could store a relation in ``partitions = 3``
        hash shards.  Such a store, written here with raw SQL, loads
        shard by shard; the next save stores it flat."""
        import sqlite3

        from repro.storage.serialization import schema_to_json, tuple_to_json

        relation = table_ra()
        path = tmp_path / "old.sqlite"
        connection = sqlite3.connect(str(path))
        connection.executescript(
            """
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE relations (
                name TEXT PRIMARY KEY, position INTEGER NOT NULL,
                partitions INTEGER NOT NULL DEFAULT 0,
                schema_json TEXT NOT NULL
            );
            CREATE TABLE tuples (
                relation TEXT NOT NULL, partition INTEGER NOT NULL DEFAULT 0,
                position INTEGER NOT NULL, row_json TEXT NOT NULL,
                key_json TEXT, PRIMARY KEY (relation, position)
            );
            INSERT INTO meta VALUES ('format_version', '1');
            INSERT INTO meta VALUES ('name', 'db');
            INSERT INTO meta VALUES ('catalog_version', '1');
            """
        )
        connection.execute(
            "INSERT INTO relations VALUES ('RA', 0, 3, ?)",
            (json.dumps(schema_to_json(relation.schema)),),
        )
        connection.executemany(
            "INSERT INTO tuples (relation, partition, position, row_json) "
            "VALUES ('RA', ?, ?, ?)",
            [
                (
                    shard_index(etuple.key(), 3),
                    position,
                    json.dumps(tuple_to_json(etuple)),
                )
                for position, etuple in enumerate(relation)
            ],
        )
        connection.commit()
        connection.close()
        sharded_order = sorted(
            relation.keys(), key=lambda key: shard_index(key, 3)
        )
        assert sharded_order != list(relation.keys())
        with open_backend(f"sqlite:{path}") as backend:
            assert backend.catalog()["RA"] == {"tuples": 6, "partitions": 3}
            loaded = backend.load_relation("RA")
            assert list(loaded.keys()) == sharded_order
            assert loaded.same_tuples(relation)
            backend.save_relation(relation)
            assert backend.catalog()["RA"] == {"tuples": 6, "partitions": 0}
            assert list(backend.load_relation("RA").keys()) == list(
                relation.keys()
            )

    def test_corrupt_store_is_clean_error(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is not a sqlite database")
        with open_backend(f"sqlite:{path}") as backend:
            with pytest.raises((SerializationError, Exception)):
                backend.load_database()


class TestLogBackend:
    def test_saves_append(self, tmp_path):
        url = url_for("log", tmp_path)
        with open_backend(url) as backend:
            backend.save_relation(table_ra())
            size_one = backend.path.stat().st_size
            backend.save_relation(table_ra())
            assert backend.path.stat().st_size > size_one
            # Last write wins on load.
            assert backend.load_relation("RA") == table_ra()

    def test_torn_tail_is_ignored(self, tmp_path):
        url = url_for("log", tmp_path)
        with open_backend(url) as backend:
            backend.save_relation(table_ra())
        path = resolve_backend(url).path
        with open(path, "a") as handle:
            handle.write('{"record": "relation", "docu')  # crash mid-append
        with open_backend(url) as backend:
            assert backend.load_relation("RA") == table_ra()

    def test_appending_after_torn_tail_truncates_it(self, tmp_path):
        """The first append of a session drops a torn tail instead of
        welding the new record onto the fragment (which would corrupt a
        mid-file line and poison every later read)."""
        url = url_for("log", tmp_path)
        with open_backend(url) as backend:
            backend.save_relation(table_ra())
        path = resolve_backend(url).path
        with open(path, "a") as handle:
            handle.write('{"record": "relation", "docu')
        with open_backend(url) as backend:
            backend.save_relation(table_rb())
            assert backend.list_relations() == ("RA", "RB")
        # Every record on disk is intact again.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_corrupt_middle_record_raises(self, tmp_path):
        url = url_for("log", tmp_path)
        with open_backend(url) as backend:
            backend.save_relation(table_ra())
        path = resolve_backend(url).path
        lines = path.read_text().splitlines()
        lines.insert(1, "{broken")
        path.write_text("\n".join(lines) + "\n")
        with open_backend(url) as backend:
            with pytest.raises(SerializationError, match="invalid JSON record"):
                backend.load_relation("RA")

    def test_compaction_drops_history_keeps_state(self, tmp_path):
        url = url_for("log", tmp_path)
        with open_backend(url) as backend:
            for _ in range(5):
                backend.save_relation(table_ra())
            backend.save_relation(table_rb())
            backend.delete_relation("RB")
            version = backend.catalog_version()
            before = backend.path.stat().st_size
            report = backend.compact()
            assert report["bytes_after"] < before
            # Representation changed; catalog state did not.
            assert backend.catalog_version() == version
            assert backend.list_relations() == ("RA",)
            assert backend.load_relation("RA") == table_ra()
