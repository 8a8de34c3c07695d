"""Output checks, run outside the timed region.  A failed check raises
:class:`CheckFailed`, which fails the whole benchmark run."""

from __future__ import annotations

import hashlib
import math

from repro.ds.frame import is_omega
from repro.ds.mass import FLOAT_SUM_TOLERANCE
from repro.model.evidence import EvidenceSet


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _close(left, right) -> bool:
    return math.isclose(
        left, right, rel_tol=FLOAT_SUM_TOLERANCE, abs_tol=FLOAT_SUM_TOLERANCE
    )


def _element_key(element) -> tuple:
    """A sortable, order-independent name for a focal element."""
    if is_omega(element):
        return (0,)
    return (1,) + tuple(sorted(repr(member) for member in element))


def _masses(evidence: EvidenceSet) -> dict:
    return {_element_key(element): value for element, value in evidence.items()}


def canonical_digest(relation) -> str:
    """SHA-256 over the relation's content in a canonical order: tuples by
    key, focal elements by their sorted members, masses by ``repr``.  Two
    runs of the same code on the same inputs must produce equal digests."""
    digest = hashlib.sha256()
    for etuple in sorted(relation, key=lambda t: repr(t.key())):
        parts = [repr(etuple.key())]
        for name, value in etuple.items():
            if isinstance(value, EvidenceSet):
                parts.append(f"{name}={sorted(_masses(value).items())!r}")
            else:
                parts.append(f"{name}={value!r}")
        membership = etuple.membership
        parts.append(repr((membership.sn, membership.sp)))
        digest.update("|".join(parts).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def check_masses_sum_to_one(relation, label: str) -> None:
    """Every evidence set of *relation* is a mass function summing to 1."""
    for etuple in relation:
        for name, value in etuple.items():
            if not isinstance(value, EvidenceSet):
                continue
            total = sum(mass for _, mass in value.items())
            if not _close(total, 1):
                raise CheckFailed(
                    f"{label}: masses of {name} in tuple {etuple.key()!r} "
                    f"sum to {total!r}, not 1"
                )


def check_same_relation(actual, expected, label: str) -> None:
    """*actual* holds the tuples of *expected*, masses and memberships
    equal within ``FLOAT_SUM_TOLERANCE``."""
    actual_keys = set(actual.keys())
    expected_keys = set(expected.keys())
    if actual_keys != expected_keys:
        raise CheckFailed(
            f"{label}: {len(actual_keys - expected_keys)} unexpected and "
            f"{len(expected_keys - actual_keys)} missing tuples"
        )
    for key in sorted(expected_keys, key=repr):
        got, want = actual.get(key), expected.get(key)
        for (name, value), (_, reference) in zip(got.items(), want.items()):
            if isinstance(reference, EvidenceSet):
                got_masses, want_masses = _masses(value), _masses(reference)
                if set(got_masses) != set(want_masses) or not all(
                    _close(got_masses[element], want_masses[element])
                    for element in want_masses
                ):
                    raise CheckFailed(
                        f"{label}: {name} of tuple {key!r} is "
                        f"{value.format()}, expected {reference.format()}"
                    )
            elif value != reference:
                raise CheckFailed(
                    f"{label}: {name} of tuple {key!r} is {value!r}, "
                    f"expected {reference!r}"
                )
        if not (
            _close(got.membership.sn, want.membership.sn)
            and _close(got.membership.sp, want.membership.sp)
        ):
            raise CheckFailed(
                f"{label}: membership of tuple {key!r} is {got.membership!r}, "
                f"expected {want.membership!r}"
            )
