"""Dempster-Shafer theory of evidence substrate.

This package implements the evidential-reasoning machinery of Section 2 of
the paper: frames of discernment, mass functions over subsets of a domain,
belief and plausibility functions, and Dempster's rule of combination with
normalization and total-conflict detection.  Extensions that the follow-on
literature commonly relies on (discounting, pignistic transform,
disjunctive combination) are included as clearly-marked extras.

All arithmetic defaults to :class:`fractions.Fraction` so the worked
examples of the paper (e.g. the Section 2.2 combination producing masses
3/7, 1/3, 2/21, 2/21 and 1/21) reproduce *exactly*; float masses are
supported for large-scale benchmarking.

Example
-------
>>> from repro.ds import MassFunction, OMEGA, combine
>>> m1 = MassFunction({("ca",): "1/2", ("hu", "si"): "1/3", OMEGA: "1/6"})
>>> m2 = MassFunction({("ca", "hu"): "1/2", ("hu",): "1/4", OMEGA: "1/4"})
>>> combined = combine(m1, m2)
>>> combined[{"ca"}]
Fraction(3, 7)
"""

from repro.ds.frame import OMEGA, FocalElement, FrameOfDiscernment, Omega
from repro.ds.mass import MassFunction
from repro.ds.kernel import (
    CompiledMass,
    InternedFrame,
    KernelStats,
    compile_mass_function,
    intern_frame,
    kernel_stats,
)
from repro.ds.belief import (
    belief,
    commonality,
    doubt,
    plausibility,
    uncertainty_interval,
)
from repro.ds.combination import (
    combine,
    combine_all,
    combine_with_conflict,
    conflict,
    conjunctive,
    disjunctive,
    weight_of_conflict,
)
from repro.ds.discounting import discount
from repro.ds.conditioning import condition
from repro.ds.moebius import belief_table, mass_from_belief
from repro.ds.measures import (
    discord,
    information_gain,
    nonspecificity,
    total_uncertainty,
)
from repro.ds.transforms import (
    max_belief_decision,
    max_pignistic_decision,
    max_plausibility_decision,
    pignistic,
    plausibility_transform,
)
from repro.ds.notation import format_evidence, format_focal_element, parse_evidence

__all__ = [
    "OMEGA",
    "Omega",
    "FocalElement",
    "FrameOfDiscernment",
    "MassFunction",
    "belief",
    "plausibility",
    "commonality",
    "doubt",
    "uncertainty_interval",
    "CompiledMass",
    "InternedFrame",
    "KernelStats",
    "compile_mass_function",
    "intern_frame",
    "kernel_stats",
    "combine",
    "combine_all",
    "combine_with_conflict",
    "conflict",
    "conjunctive",
    "disjunctive",
    "weight_of_conflict",
    "discount",
    "condition",
    "belief_table",
    "mass_from_belief",
    "nonspecificity",
    "discord",
    "total_uncertainty",
    "information_gain",
    "pignistic",
    "plausibility_transform",
    "max_belief_decision",
    "max_plausibility_decision",
    "max_pignistic_decision",
    "format_evidence",
    "format_focal_element",
    "parse_evidence",
]
