#!/usr/bin/env python3
"""Federating three news agencies with unequal reliability.

Extends the paper's two-database scenario: a third agency ("campus
weekly") joins, with a spottier survey the bureau trusts less
(reliability 0.7).  The federation folds the evidential merge across all
three sources in registration order -- the order a point query and the
stream engine fold in too -- and then a decision view commits each
attribute to its best value for the printed tourist guide, confidence
alongside.

Run:  python examples/federation.py
"""

from fractions import Fraction

from repro import format_relation
from repro.analysis import decide, relation_quality
from repro.datasets.restaurants import restaurant_schema, table_ra, table_rb
from repro.integration import Federation, TupleMerger
from repro.model import ExtendedRelation, ExtendedTuple, TupleMembership
from repro.ds.frame import OMEGA


def build_campus_weekly() -> ExtendedRelation:
    """A third, noisier survey covering three restaurants."""
    schema = restaurant_schema("campus")
    f = Fraction

    def row(rname, street, bldg_no, phone, speciality, best_dish, rating, sn, sp):
        return ExtendedTuple(
            schema,
            {
                "rname": rname,
                "street": street,
                "bldg_no": bldg_no,
                "phone": phone,
                "speciality": speciality,
                "best_dish": best_dish,
                "rating": rating,
            },
            TupleMembership(sn, sp),
        )

    rows = [
        row(
            "garden", "univ.ave.", 2011, "371-2155",
            {"si": f(2, 5), ("hu", "si"): f(2, 5), OMEGA: f(1, 5)},
            {"d31": f(3, 5), OMEGA: f(2, 5)},
            {"gd": f(3, 5), "ex": f(1, 5), OMEGA: f(1, 5)},
            1, 1,
        ),
        row(
            "wok", "wash.ave.", 600, "382-4165",
            {"si": f(1, 2), OMEGA: f(1, 2)},
            {"d6": f(2, 5), "d7": f(2, 5), OMEGA: f(1, 5)},
            {"gd": f(1, 2), "avg": f(1, 4), OMEGA: f(1, 4)},
            f(9, 10), 1,
        ),
        row(
            "ashiana", "univ.ave.", 353, "371-0824",
            {"mu": f(3, 5), "ta": f(1, 5), OMEGA: f(1, 5)},
            {"d34": f(1, 2), OMEGA: f(1, 2)},
            {"ex": f(4, 5), OMEGA: f(1, 5)},
            f(4, 5), 1,
        ),
    ]
    return ExtendedRelation(schema, rows)


def main() -> None:
    federation = Federation(TupleMerger(on_conflict="vacuous"))
    federation.add_source("daily", table_ra())
    federation.add_source("tribune", table_rb())
    federation.add_source("campus", build_campus_weekly(), reliability="7/10")

    integrated, report = federation.integrate(name="R")
    print(format_relation(integrated, title="Three-way federated relation"))
    print()
    print("Merge steps:")
    print(report.summary())
    print()

    quality = relation_quality(integrated)
    print("Quality:", quality.summary())
    for entry in quality.attributes:
        print(
            f"  {entry.attribute:<10} mean ignorance {entry.mean_ignorance:.3f}  "
            f"nonspecificity {entry.mean_nonspecificity:.3f} bits  "
            f"discord {entry.mean_discord:.3f} bits"
        )
    print()

    print("Decision view for the printed guide (pignistic policy):")
    for crisp in decide(integrated, "pignistic", min_membership_sn="1/2"):
        print(
            f"  {crisp.key[0]:<8} speciality={crisp.values['speciality']:<3} "
            f"(conf {float(crisp.confidence['speciality']):.2f})  "
            f"rating={crisp.values['rating']:<3} "
            f"(conf {float(crisp.confidence['rating']):.2f})"
        )


if __name__ == "__main__":
    main()
