"""Shafer discounting of evidence sources.

Discounting weakens a mass function to account for the *reliability* of
its source: with reliability ``r`` (``0 <= r <= 1``), every focal element
keeps only ``r`` of its mass and the rest moves to the whole frame
(ignorance).  A fully reliable source (``r = 1``) is unchanged; a fully
unreliable one (``r = 0``) becomes vacuous.

The paper itself treats both component databases as fully reliable; the
integration layer exposes discounting so a deployment can down-weight a
source known to be stale or noisy before tuple merging, which is the
standard evidential-reasoning treatment of differential source quality.

Discounting runs on the compiled evidence kernel
(:mod:`repro.ds.kernel`), for enumerated frames and open domains alike,
so the streaming engine's per-source re-discounting keeps its states
compiled.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import MassFunctionError
from repro.ds.kernel import discount_compiled
from repro.ds.mass import MassFunction, coerce_mass_value


def discount(m: MassFunction, reliability: object) -> MassFunction:
    """Discount *m* by the given source *reliability*.

    >>> from repro.ds import MassFunction, OMEGA
    >>> m = MassFunction({"ex": 1})
    >>> discounted = discount(m, "4/5")
    >>> discounted[{"ex"}], discounted[OMEGA]
    (Fraction(4, 5), Fraction(1, 5))
    """
    r = coerce_mass_value(reliability)
    if not 0 <= r <= 1:
        raise MassFunctionError(f"reliability must lie in [0, 1], got {r!r}")
    if r == 1:
        return m
    return MassFunction._from_compiled(discount_compiled(m.compiled(), r))


def discount_all(
    masses: dict[str, MassFunction], reliabilities: dict[str, object]
) -> dict[str, MassFunction]:
    """Discount a keyed family of mass functions by per-source reliability.

    Sources without an entry in *reliabilities* are treated as fully
    reliable.  Returns a new dict; inputs are not mutated.
    """
    return {
        name: discount(m, reliabilities.get(name, Fraction(1)))
        for name, m in masses.items()
    }
