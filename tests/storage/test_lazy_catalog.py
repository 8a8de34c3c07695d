"""Lazy catalog open: name stubs first, rows on first access.

``Database.open`` over a backend that advertises ``lazy_catalog``
(SQLite) must not parse a single tuple until someone asks for a
relation -- and once it does, every catalog semantic (names, versions,
invalidation, ``reload()``, persistence) must be indistinguishable from
the historical eager load.
"""

from __future__ import annotations

import pytest

from repro.datasets.restaurants import table_m_a, table_ra, table_rb
from repro.errors import CatalogError
from repro.obs.registry import registry
from repro.storage import Database, open_backend, open_database


def _loads() -> tuple[int, int]:
    """(full database loads, single-relation point loads) for sqlite."""
    collected = registry().collect()
    return (
        collected.get("storage.sqlite.loads", 0),
        collected.get("storage.sqlite.point_loads", 0),
    )


@pytest.fixture
def store_url(tmp_path):
    """A SQLite store holding RA and RB."""
    url = f"sqlite:{tmp_path / 'lazy.sqlite'}"
    db = Database("lazydb")
    db.add(table_ra())
    db.add(table_rb())
    backend = open_backend(url)
    backend.save_database(db)
    backend.close()
    return url


def test_open_holds_stubs_without_reading_rows(store_url):
    loads_before = _loads()
    db = open_database(store_url)
    try:
        # The catalog knows its names and size, but no relation has
        # been materialized -- nothing parsed any rows yet.
        assert db.names() == ("RA", "RB")
        assert len(db) == 2
        assert "RA" in db and "RB" in db
        assert db._relations == {}
        assert _loads() == loads_before
        db.get("RA")
        assert _loads() == (loads_before[0], loads_before[1] + 1)
    finally:
        db.close()


def test_first_access_materializes_exactly_that_relation(store_url):
    db = open_database(store_url)
    try:
        version_before = db.version
        assert db.get("RA") == table_ra()
        # Materialization is silent: no version bump, RB still a stub.
        assert db.version == version_before
        assert set(db._relations) == {"RA"}
        assert db.get("RB") == table_rb()
        assert db.relations() == (table_ra(), table_rb())
    finally:
        db.close()


def test_unknown_name_error_lists_pending_stubs(store_url):
    db = open_database(store_url)
    try:
        with pytest.raises(CatalogError) as caught:
            db.get("RC")
        message = str(caught.value)
        assert "RA" in message and "RB" in message
    finally:
        db.close()


def test_version_is_seeded_from_the_backend(store_url):
    lazy = open_database(store_url)
    try:
        with open_backend(store_url) as backend:
            assert lazy.version == backend.load_database().version
    finally:
        lazy.close()


def test_replacing_a_stub_bumps_the_version(store_url):
    db = open_database(store_url)
    try:
        version = db.version
        db.add(table_ra().with_name("RA"), replace=True)
        assert db.version > version
        assert "RA" in db.changed_names_since(version)
    finally:
        db.close()


def test_dropping_a_stub_never_reads_its_rows(store_url):
    loads_before = _loads()
    db = open_database(store_url)
    try:
        version = db.version
        db.drop("RB")
        assert _loads() == loads_before
        assert db.names() == ("RA",)
        assert db.version > version
        with pytest.raises(CatalogError):
            db.get("RB")
    finally:
        db.close()


def test_reload_semantics_are_unchanged(store_url):
    db = open_database(store_url)
    try:
        assert db.get("RA") == table_ra()  # materialize one of two
        # Another writer replaces RA, drops RB, adds M_A.
        writer = open_database(store_url)
        try:
            writer.drop("RB")
            writer.add(table_m_a())
            writer.add(table_rb().with_name("RA"), replace=True)
            writer.persist()
        finally:
            writer.close()
        touched = db.reload()
        assert touched == frozenset({"RA", "RB", "M_A"})
        assert db.get("RA") == table_rb().with_name("RA")
        assert db.get("M_A") == table_m_a()
        assert "RB" not in db
    finally:
        db.close()


def test_reload_keeps_untouched_stubs_silent(store_url):
    db = open_database(store_url)
    try:
        # Nothing materialized, nothing changed in the store: reload
        # must not report (or notify) anything.
        events = []
        db.add_listener(events.append)
        assert db.reload() == frozenset()
        assert events == []
        assert db.get("RA") == table_ra()
    finally:
        db.close()


def test_persist_round_trips_a_lazy_catalog(store_url, tmp_path):
    db = open_database(store_url)
    try:
        db.persist()  # materializes everything, writes all of it back
        copy = open_database(store_url)
        try:
            assert copy.get("RA") == table_ra()
            assert copy.get("RB") == table_rb()
        finally:
            copy.close()
    finally:
        db.close()


def test_close_materializes_stubs_first(store_url):
    # The historical contract: a loaded-then-closed database still
    # holds every relation, even though the backend is gone.
    db = open_database(store_url)
    db.close()
    assert db.get("RA") == table_ra()
    assert db.get("RB") == table_rb()


def test_json_backend_stays_eager(tmp_path):
    url = f"json:{tmp_path / 'eager.json'}"
    source = Database("eagerdb")
    source.add(table_ra())
    backend = open_backend(url)
    backend.save_database(source)
    backend.close()
    db = open_database(url)
    try:
        assert set(db._relations) == {"RA"}
        assert db._pending == set()
    finally:
        db.close()
