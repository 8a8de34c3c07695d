"""Bit-for-bit golden digests of the exact query path over SQLite.

Each case persists two synthetic 300-entity relations (60 % key overlap)
to a SQLite store, reopens it lazily, and runs a fixed mix of queries:
``IS {...} WITH SN >= x`` and ``WITH SP >= x`` selections, projections,
and a fluent ``union(..., on_conflict="vacuous")`` with a selection on
top.  Every answer is hashed with each number spelled out by type
(``Fraction`` numerator/denominator, ``float.hex``), so a moved float
bit, or an exact value that turns float (or back), changes the digest.

Three cases are exact, as the paper's algebra is; one is float.  The
digests were recorded before the query path was optimized and must
never move.  Every answer must also equal the answer of an in-memory
:class:`Database` built from the same relations.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.algebra.predicates import attr
from repro.algebra.thresholds import sn_at_least
from repro.datasets.generators import SyntheticConfig, synthetic_pair
from repro.ds.frame import is_omega
from repro.model.evidence import EvidenceSet
from repro.storage.backends import create_database
from repro.storage.database import Database
from tests.integration.test_golden_integrate import spell

ENTITIES = 300

#: Query texts, and ``("union", categories, threshold)`` for a fluent
#: union with a category selection on top (``None``: the bare union).
QUERIES = (
    "SELECT id, category FROM L WHERE category IS {c1} WITH SN >= 0.3",
    "SELECT id, category FROM R WHERE category IS {c0, c5} WITH SN >= 0.15",
    "SELECT * FROM L WHERE category IS {c2, c3, c7} WITH SN >= 0.5",
    "SELECT * FROM R WHERE score IS {4} WITH SP >= 0.2",
    "SELECT id, score FROM L WHERE score IS {1, 6, 9} WITH SP >= 0.65",
    "SELECT id, label FROM R",
    "SELECT id, category FROM L",
    ("union", None, None),
    ("union", ("c3", "c8"), "0.25"),
)

#: ``(seed, exact) -> SHA-256 per query``, recorded at the parent of the
#: query-path optimization.
GOLDEN = {
    (31, True): (
        "8f4e5037f17b975e869c5d011222d87c5e9ee3e71114070d12ff3b5277be56b5",
        "7c17912144d8f3e328daab400acdc178dc1036afbada3fbf77469b8189368a90",
        "3fdc32455efa3caccb073f4bd8f7bece0bec49153537377ea54a51a082d13099",
        "c1f99ada69aab0134b1cb0eaa2bcec361c9b72e9e8dd8b2299cc117b62de3f1a",
        "9157dbb47ce84cebd675f62622a87dce27694448af4e17b804f0f5c827c58d27",
        "3c378d22080d77c4d3707a8e55b2529559d80c6557bf65b61f899fb4df509b70",
        "8d41847e45bd0a508f760cccfc80dd665c6d3c433fe7a958b368275ec26d1668",
        "ceb8ec7dded0cfe39fcd8adaacf077a60a37edc99b4fc7bb85195654275c9565",
        "b71a48db5dcf4065a92b3d80f79aba4aea4b977a3d6a3fbb2dedfa2c5c66bc94",
    ),
    (32, True): (
        "cf96a6651115a06dae429aacb8149af8bd49d752dcb4468802ff0f481e9d428f",
        "1a958488e157fd7b4fdaba1166d1ea58829083d986eac5140248c86c7ddf1e43",
        "21f61a4d72bd07abbb627dabca521e6f04d39135356a4a43c147a7f0f1d8045a",
        "a67abd1abee9f5fa73e2335d9b9ff19fab83674e01ad794341d24091d08d9b17",
        "6b6a805e8b38066bafa166c193dc2301269e8a6f4665567000898a8469791db1",
        "f24a4817b75ee2582c193d38ad2eab8f59cf152186c2d47f9a8bf29f3733cff7",
        "aaed49ffe21971225a39d4095c188f04921eb82d87f27801d191140ccb2ace5d",
        "e09b82d1052af545606f36595ff524875437d3bb625161e3c61d57258f1a4fad",
        "2d9a9892563c4d4e417f5b86a18bf1bb17d2c382b2a3b8ff19d942a598319663",
    ),
    (33, True): (
        "673c485ba7b689c3b5764933fd90ad4098b61ccae858aed9c96dfca87ffb10b8",
        "5ea3d520a72ca52edd8b32748f9a8918c52dae0b931d9df81dc2dbdb0b2625a7",
        "0852f0fd3aaa0c9cddf1561c98ed94a166d83aa3b477a16d13a916863bf1a000",
        "2dbc898008234f284bb7e929583bb5dea2c5517386df0a07ffeb01da3ed90709",
        "4abd5cd5545e4775fc2785f290fa59f102482070bf87739d12e24170e7fdb832",
        "6062ce0b01180f25628eda6a12d57d2653eff93fb0448fe7f67e372f953374ff",
        "0e1b1975aa089b84b701d54de7632dc3944de639ef514d1dce0354e6032979ca",
        "e2bbc9252ff9384e0ad7a6d47d6cdd9362ddde0bb77c4877e07c326cb09f989a",
        "49b41693cc0cbd0b4c4a77cc5d8a2092439e890c0172250bac7b6b217064c08d",
    ),
    (34, False): (
        "e8d1620ea5244e6463dadf868cc25b4ec8c231546059e746b154a169846d2434",
        "f8583f7fab82793d7d2927b8239f78a520b509cf899ce4dfa84ed0ef44743714",
        "ca5b1e54d2f174c6f002a826249b2fe973fb827d51252249b01efddbbe648339",
        "c6ca5fad85c06a6cd4007cc209fd15bb998fbbf0714081e51a8f69ae2aaffd23",
        "b593b0647dee6a3f7ce14fb4cae12c5e517ac45dfcedc5e4a9bacf7542d52260",
        "0c560defeb129396e4755e7abe7cba2af3f89336ebd13ea51dd828294acde3c0",
        "797e1965a2cb9df7f893bdcfb39ef870ef37a7ca20227b2e93977f497e4b0011",
        "f3680b4b60f164e7015b44adbfad7642d6b5e02a76c4d77cdaea7731f010f48c",
        "87671b5f21e32b6d0c1a1c2af2ec89d11292da89949ba973bff8cac744ce0d13",
    ),
}


def golden_relations(seed: int, exact: bool):
    config = SyntheticConfig(
        n_tuples=ENTITIES, overlap=0.6, exact=exact, seed=seed
    )
    return synthetic_pair(config, "L", "R")


def run_query(database: Database, spec):
    if isinstance(spec, str):
        return database.query(spec)
    _, categories, threshold = spec
    session = database.session()
    union = session.rel("L").union(session.rel("R"), on_conflict="vacuous")
    if categories is not None:
        union = union.select(
            attr("category").is_(set(categories)), sn_at_least(threshold)
        )
    return union.collect()


def answer_digest(relation) -> str:
    """SHA-256 of an answer: tuples by key, focal elements by sorted
    members, every number spelled with its type."""
    lines = [repr(relation.schema.names)]
    for etuple in sorted(relation, key=lambda t: repr(t.key())):
        parts = [repr(etuple.key())]
        for name, value in etuple.items():
            if isinstance(value, EvidenceSet):
                focal = sorted(
                    (
                        "*"
                        if is_omega(element)
                        else ",".join(sorted(map(repr, element)))
                    )
                    + f"={spell(mass)}"
                    for element, mass in value.items()
                )
                parts.append(f"{name}:[{' '.join(focal)}]")
            else:
                parts.append(f"{name}:{value!r}")
        membership = etuple.membership
        parts.append(f"({spell(membership.sn)},{spell(membership.sp)})")
        lines.append(" ".join(parts))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def stored_answers(seed: int, exact: bool, directory) -> tuple[str, ...]:
    """The digest of every query, run on a lazily reopened SQLite store."""
    url = f"sqlite:{directory / f'golden-{seed}.db'}"
    database = create_database(url, "golden")
    database.add_all(golden_relations(seed, exact))
    database.persist()
    database.close()
    database = Database.open(url)
    try:
        return tuple(answer_digest(run_query(database, spec)) for spec in QUERIES)
    finally:
        database.close()


def memory_answers(seed: int, exact: bool) -> tuple[str, ...]:
    database = Database("reference")
    database.add_all(golden_relations(seed, exact))
    return tuple(answer_digest(run_query(database, spec)) for spec in QUERIES)


@pytest.mark.parametrize("seed,exact", sorted(GOLDEN))
def test_stored_answers_are_bit_identical(seed, exact, tmp_path):
    answers = stored_answers(seed, exact, tmp_path)
    assert answers == GOLDEN[(seed, exact)]
    assert answers == memory_answers(seed, exact)


def test_every_query_answers_something():
    """The mix is not vacuous: every query keeps some tuples, and the
    selections drop some."""
    database = Database("reference")
    left, right = golden_relations(31, True)
    database.add_all((left, right))
    sizes = [len(run_query(database, spec)) for spec in QUERIES]
    assert all(size > 0 for size in sizes)
    assert all(size < ENTITIES for size in sizes[:5])
