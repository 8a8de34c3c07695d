"""Object lifecycles: what closing and dropping a database frees.

Each test runs with the cyclic garbage collector disabled, so an object
freed here was freed by reference counting, the moment its last holder
went away.  ``gc.collect()`` then counts what only the collector could
free: a reference cycle left behind.  A cycle holding a closed
database's relations and cached results keeps them in memory until the
next full collection, which then pays to walk and free them.
"""

import gc

import pytest

from repro.algebra import attr
from repro.datasets.generators import (
    SyntheticConfig,
    synthetic_pair,
    synthetic_schema,
)
from repro.datasets.restaurants import table_ra, table_rb
from repro.integration import Federation, TupleMerger
from repro.obs import registry
from repro.session import Session
from repro.storage import Database
from repro.storage.backends import create_database, open_backend
from repro.stream import (
    StreamEngine,
    apply_event,
    read_events,
    relation_to_events,
    write_events,
)

QUERIES = (
    "SELECT id, category FROM L WHERE category IS {c1, c2} WITH SN >= 0.10",
    "SELECT * FROM R WHERE score IS {1, 3} WITH SP >= 0.20",
    "SELECT id, label FROM L",
)


@pytest.fixture
def no_gc():
    """Collect earlier garbage, then keep the collector off for the test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _pair():
    config = SyntheticConfig(n_tuples=40, overlap=0.6, exact=True, seed=11)
    return synthetic_pair(config, "L", "R")


@pytest.fixture
def store(tmp_path):
    """A SQLite store of two exact relations, ``L`` and ``R``."""
    url = f"sqlite:{tmp_path / 'query.db'}"
    database = create_database(url, "store")
    database.add_all(_pair())
    database.persist()
    database.close()
    return url


def _query_session(database) -> None:
    """Selections, a projection and a fluent union, through the default
    session."""
    for text in QUERIES:
        database.query(text)
    session = database.session()
    union = session.rel("L").union(session.rel("R"), on_conflict="vacuous")
    union.select(attr("category").is_({"c0", "c3"})).collect()


def test_closed_and_dropped_database_leaves_no_cycle(store, no_gc):
    database = Database.open(store)
    _query_session(database)
    database.close()
    del database
    assert gc.collect() == 0


def test_dropped_session_leaves_the_session_totals(no_gc):
    """The registry's ``session.*`` totals sum over live sessions: a
    closed and dropped database's session stops counting at once, not
    when the collector happens to run."""
    before = registry().group_total("session", "queries")
    database = Database("totals")
    database.add(table_ra())
    database.query("SELECT rname FROM RA WHERE rating IS {ex}")
    database.query("SELECT rname FROM RA WHERE rating IS {ex}")
    assert registry().group_total("session", "queries") == before + 2
    database.close()
    del database
    assert registry().group_total("session", "queries") == before


def test_integrate_and_persist_leave_no_cycle(tmp_path, no_gc):
    left, right = _pair()
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    federation.add_source("L", left, 1)
    federation.add_source("R", right, 0.9)
    relation, report = federation.integrate(name="F")
    database = create_database(f"sqlite:{tmp_path / 'integrated.db'}", "out")
    database.add(relation)
    database.persist()
    database.close()
    del federation, relation, report, database
    assert gc.collect() == 0


def test_stream_pass_leaves_no_cycle(tmp_path, no_gc):
    left, right = _pair()
    events_path = tmp_path / "events.jsonl"
    write_events(
        list(relation_to_events(left, "L")) + list(relation_to_events(right, "R")),
        events_path,
    )
    engine = StreamEngine(
        synthetic_schema(SyntheticConfig(exact=True), "F"),
        name="F",
        merger=TupleMerger(on_conflict="vacuous"),
        backend=open_backend(f"sqlite:{tmp_path / 'stream.db'}"),
    )
    for count, event in enumerate(read_events(events_path), start=1):
        apply_event(engine, event)
        if count % 25 == 0:
            engine.flush()
    engine.flush()
    engine.backend.close()
    del engine
    assert gc.collect() == 0


class TestDefaultSessionAtClose:
    def test_same_session_while_open(self):
        database = Database("open")
        database.add(table_ra())
        assert database.session() is database.session()

    def test_close_releases_the_default_session(self):
        database = Database("closing")
        database.add(table_ra())
        first = database.session()
        database.close()
        fresh = database.session()
        assert fresh is not first
        assert fresh is database.session()
        assert len(fresh.execute("SELECT rname FROM RA WHERE rating IS {ex}")) == 4

    def test_close_releases_the_lazy_store_session(self, store):
        database = Database.open(store)
        first = database.session()
        database.query(QUERIES[0])
        database.close()
        assert database.session() is not first
        assert len(database.query(QUERIES[0])) == len(first.execute(QUERIES[0]))

    def test_explicit_sessions_are_unaffected(self):
        database = Database("explicit")
        database.add(table_ra())
        session = Session(database)
        session.execute("SELECT rname FROM RA WHERE rating IS {ex}")
        database.close()
        assert session.database is database
        session.execute("SELECT rname FROM RA WHERE rating IS {ex}")
        assert session.stats().result_cache_hits == 1

    def test_subscriptions_survive_close(self):
        """A default session with subscriptions is kept: its standing
        queries refresh on later catalog changes, and it still lists
        them."""
        database = Database("subscribed")
        database.add(table_ra())
        session = database.session()
        results = []
        subscription = session.subscribe("SELECT rname FROM RA", results.append)
        database.close()
        assert database.session() is session
        assert database.session().subscriptions() == (subscription,)
        database.add(table_rb().with_name("RA"), replace=True)
        assert subscription.refreshes == 2
        assert results[-1] is subscription.result
        assert len(subscription.result) == len(table_rb())

    def test_cancelled_subscriptions_release_at_the_next_close(self):
        database = Database("cancelled")
        database.add(table_ra())
        session = database.session()
        session.subscribe("SELECT rname FROM RA").cancel()
        database.close()
        assert database.session() is not session
