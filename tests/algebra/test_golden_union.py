"""Bit-for-bit golden digests of the extended union and intersection.

Each case runs :func:`union_with_report` or
:func:`intersection_with_report` on a seeded synthetic pair (200
entities, 60 % key overlap, conflict 0.5, so some attributes conflict
totally) under the ``vacuous`` or ``drop`` policy, and hashes

* every result tuple in output order -- key, each value spelled with
  its type, every focal element and mass, and the membership pair, with
  each number spelled by type (``Fraction`` numerator/denominator,
  ``float.hex``);
* the report's ``matched`` / ``left_only`` / ``right_only`` /
  ``dropped`` lists, in order;
* every conflict record, in order, with kappa spelled by type.

The digests were recorded before both operators were moved onto
:class:`repro.integration.merging.TupleMerger`'s pair merge; any change
to the arithmetic, the output order or the report fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.algebra import intersection_with_report, union_with_report
from repro.datasets.generators import SyntheticConfig, synthetic_pair
from repro.ds.frame import is_omega
from repro.model.evidence import EvidenceSet
from tests.integration.test_golden_integrate import spell

OPERATORS = {
    "union": union_with_report,
    "intersection": intersection_with_report,
}


def golden_pair(seed: int, exact: bool):
    config = SyntheticConfig(
        n_tuples=200, overlap=0.6, conflict=0.5, exact=exact, seed=seed
    )
    return synthetic_pair(config, "L", "R")


def _value_text(value) -> str:
    if isinstance(value, EvidenceSet):
        focal = []
        for element, mass in value.items():
            rendered = (
                "*" if is_omega(element) else ",".join(sorted(map(repr, element)))
            )
            focal.append(f"{{{rendered}}}={spell(mass)}")
        return f"[{' '.join(focal)}]"
    return f"{type(value).__name__}:{value!r}"


def result_lines(relation, report):
    """One text line per result tuple (in output order), per report list
    and per conflict record (in report order)."""
    yield relation.name
    for etuple in relation:
        parts = [repr(etuple.key())]
        parts.extend(f"{name}:{_value_text(value)}" for name, value in etuple.items())
        membership = etuple.membership
        parts.append(f"({spell(membership.sn)},{spell(membership.sp)})")
        yield " ".join(parts)
    matched = []
    for left_key, right_key in report.matched:
        assert left_key == right_key
        matched.append(left_key)
    yield f"matched {matched!r}"
    yield f"left_only {report.left_only!r}"
    yield f"right_only {report.right_only!r}"
    yield f"dropped {report.dropped!r}"
    for record in report.conflicts:
        yield (
            f"conflict {record.key!r} {record.attribute} "
            f"{spell(record.kappa)} {record.total}"
        )


def digest(relation, report) -> str:
    return hashlib.sha256(
        "\n".join(result_lines(relation, report)).encode()
    ).hexdigest()


#: ``(operator, seed, exact, policy) -> digest``, recorded before the
#: merge was unified.
GOLDEN = {
    ("union", 31, False, "vacuous"): (
        "ba1ebc091cebb0a393334e6d36590419c93d80e376e5f3b0cb48943489270674"
    ),
    ("union", 31, False, "drop"): (
        "c39cdf6ac44a54ffae4892017b5802d0ae635bc2e4aadf6acadab85420e43d41"
    ),
    ("union", 32, True, "vacuous"): (
        "b2696b6eab9596b995fdb4267e6a48db7d6b2786da526b5c4fa32d4223aa1f50"
    ),
    ("union", 32, True, "drop"): (
        "cfc84f4b4ba0f819897a61c00c3c50c297f84f59c7199e98540aa1431fa1d9aa"
    ),
    ("intersection", 31, False, "vacuous"): (
        "1f34eaadc6dd6c09a34c286d1bf40e1c7f1a5b0384e15539eef2e709fd18b295"
    ),
    ("intersection", 31, False, "drop"): (
        "6fc1c275d59fb5ca9dc68faebbeca93b4df28eb72b0581e4dbd7611e2c0f03d3"
    ),
    ("intersection", 32, True, "vacuous"): (
        "15cacfb3965e69c6ee23ad7239b015e5cb40be4f47e27df5d9daa2ada7656518"
    ),
    ("intersection", 32, True, "drop"): (
        "c77aefe32255742e903dc6253676ef11b5b255647c02fbe69f42eff564bf2862"
    ),
}


@pytest.mark.parametrize("operator,seed,exact,policy", sorted(GOLDEN))
def test_merge_output_and_report_are_bit_identical(operator, seed, exact, policy):
    left, right = golden_pair(seed, exact)
    relation, report = OPERATORS[operator](left, right, on_conflict=policy)
    assert digest(relation, report) == GOLDEN[(operator, seed, exact, policy)]


@pytest.mark.parametrize("exact", [False, True])
def test_golden_pairs_exercise_total_conflicts(exact):
    """The recorded cases cover the conflict policies, not just the
    conflict-free path."""
    seed = 32 if exact else 31
    _, vacuous = union_with_report(*golden_pair(seed, exact), on_conflict="vacuous")
    _, dropped = union_with_report(*golden_pair(seed, exact), on_conflict="drop")
    assert vacuous.total_conflicts
    assert dropped.dropped
    assert len(vacuous.conflicts) > len(vacuous.total_conflicts)
