"""Bit-for-bit golden digests of the serial integrate -> serialize path.

Each case integrates three generated 3 x 200 sources with
:class:`Federation` (reliabilities 1, 0.9 and 0.8, total conflicts fall
back to ignorance) and hashes

* every integrated tuple -- key, every focal element and mass, and the
  membership pair, with each number spelled out by type (``Fraction``
  numerator/denominator, ``float.hex``), so a moved float bit or a
  float that turns exact (or back) changes the digest;
* the merge reports' conflict records (kappa by the same spelling);
* the JSON rows :func:`repro.storage.serialization.tuple_to_json`
  writes for those tuples, exactly as the storage backends dump them.

The float cases mix ``CERTAIN`` (exact ``Fraction``) memberships with
float ones; the exact case runs the same shape on ``Fraction`` masses
and reliabilities.  The digests were recorded before the serial path
was optimized and must never move: any change to the arithmetic, the
pair visiting order or the serialized form fails here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.datasets.generators import SyntheticConfig, synthetic_pair
from repro.ds.frame import is_omega
from repro.integration import Federation, TupleMerger
from repro.model.evidence import EvidenceSet
from repro.storage.serialization import tuple_to_json

FLOAT_RELIABILITIES = (1, 0.9, 0.8)
EXACT_RELIABILITIES = (1, Fraction(9, 10), Fraction(4, 5))


def spell(value) -> str:
    """A number spelled with its type, exact to the last bit."""
    if isinstance(value, Fraction):
        return f"F{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"f{value.hex()}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"i{value}"
    raise TypeError(f"unexpected numeric {value!r}")


def golden_sources(seed: int, *, exact: bool, entities: int = 200):
    """Three sources: ``s0``/``s1`` a perturbed pair (conflict 0.3), and
    ``s2`` the right side of an independent second pair."""
    config = SyntheticConfig(
        n_tuples=entities, overlap=0.8, conflict=0.3, exact=exact, seed=seed
    )
    s0, s1 = synthetic_pair(config, "s0", "s1")
    _, s2 = synthetic_pair(replace(config, seed=seed + 1), "t0", "s2")
    return s0, s1, s2


def integrate(sources, reliabilities):
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    for name, relation, reliability in zip(("s0", "s1", "s2"), sources, reliabilities):
        federation.add_source(name, relation, reliability)
    return federation.integrate(name="F")


def relation_lines(relation, report):
    """One text line per tuple (in relation order) and per conflict
    record."""
    for etuple in relation:
        parts = [repr(etuple.key())]
        for name, value in etuple.items():
            if isinstance(value, EvidenceSet):
                focal = []
                for element, mass in value.items():
                    rendered = (
                        "*" if is_omega(element) else ",".join(sorted(map(repr, element)))
                    )
                    focal.append(f"{{{rendered}}}={spell(mass)}")
                parts.append(f"{name}:[{' '.join(focal)}]")
            else:
                parts.append(f"{name}:{value!r}")
        membership = etuple.membership
        parts.append(f"({spell(membership.sn)},{spell(membership.sp)})")
        yield " ".join(parts)
    for label, step in report.steps:
        yield (
            f"step {label}: {len(step.matched)} {len(step.left_only)} "
            f"{len(step.right_only)} {sorted(step.dropped)}"
        )
        # Sorted: a partitioned fold lists each step's records in shard
        # order, while the records themselves are the serial ones.
        yield from sorted(
            f"conflict {record.key!r} {record.attribute} "
            f"{spell(record.kappa)} {record.total}"
            for record in step.conflicts
        )


def digests(relation, report) -> tuple[str, str]:
    """``(integrated-output digest, serialized-rows digest)``."""
    output = hashlib.sha256(
        "\n".join(relation_lines(relation, report)).encode()
    ).hexdigest()
    rows = hashlib.sha256(
        "\n".join(json.dumps(tuple_to_json(etuple)) for etuple in relation).encode()
    ).hexdigest()
    return output, rows


#: ``(seed, exact) -> (output digest, JSON rows digest)``, recorded
#: before the serial-path optimization.
GOLDEN = {
    (11, False): (
        "13e65f3f3b697ac5f2a361284052adad0961b3a5db54bbcb8f1bc85f3bb6e01d",
        "cc07956b5eb31ec1eb632249ac84bac824a81773450e6b436ec3b3cd37475e38",
    ),
    (12, False): (
        "b5cd8e41121cd8ea840123e66701f2aa40d51e1d702b94d79e810a7d1cf0fc8f",
        "361c86ebc086e7fa66148714e267f5e4e62ef5e462f03ee747a4bb6b887eae8f",
    ),
    (13, False): (
        "a092f4477513862e27619eb23e6e6c78f69c639cca87c3108b21817cf1403dcf",
        "64e57ee548a511883ed1b4ef77de03f9da5d7d7e1d8519780f88ddcae46ba9cf",
    ),
    (21, True): (
        "0b108715e71b5dce8fbc1b7874881944e9eac4a77f36cae6681c5dd19753bb48",
        "b24444f485e43c8e4f5ad9a101d9a1be37ac9828199e63c4abc725af25abc70c",
    ),
}


@pytest.mark.parametrize("seed,exact", sorted(GOLDEN))
def test_integrate_and_serialize_are_bit_identical(seed, exact):
    reliabilities = EXACT_RELIABILITIES if exact else FLOAT_RELIABILITIES
    relation, report = integrate(golden_sources(seed, exact=exact), reliabilities)
    assert digests(relation, report) == GOLDEN[(seed, exact)]


def test_float_cases_mix_exact_and_float_memberships():
    """The float golden inputs exercise both membership arithmetics."""
    relation, _ = integrate(golden_sources(11, exact=False), FLOAT_RELIABILITIES)
    kinds = {type(etuple.membership.sn) for etuple in relation}
    assert kinds == {Fraction, float}


def test_exact_case_stays_exact():
    relation, _ = integrate(golden_sources(21, exact=True), EXACT_RELIABILITIES)
    for etuple in relation:
        assert isinstance(etuple.membership.sn, Fraction)
        assert isinstance(etuple.membership.sp, Fraction)
        for _, value in etuple.items():
            if isinstance(value, EvidenceSet):
                assert value.mass_function.is_exact()
