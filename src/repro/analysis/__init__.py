"""Analysis over extended relations.

Downstream consumers of an integrated database often cannot handle
evidence sets -- a report generator wants one value per cell, and a data
administrator wants to know *how good* the integration is.  This package
provides both endpoints:

* :mod:`repro.analysis.decisions` -- collapse an extended relation into
  a crisp (classical) one under a decision strategy (max-belief,
  max-plausibility, or pignistic), with per-cell confidence;
* :mod:`repro.analysis.quality` -- relation-level uncertainty metrics
  (mean ignorance, nonspecificity/discord totals, membership statistics)
  and merge-report digests.

It also hosts :mod:`repro.analysis.lint` (reprolint), the repo's own
invariant-enforcing static analyzer -- ``python -m repro.analysis``
checks the source tree for exactness (EXACT), determinism (DETERM),
thread-safety (CONC) and storage-contract (BACKEND) violations.
"""

from repro.analysis.decisions import CrispRow, DecisionPolicy, decide
from repro.analysis.quality import (
    QualityReport,
    attribute_uncertainty,
    relation_quality,
)

__all__ = [
    "decide",
    "DecisionPolicy",
    "CrispRow",
    "relation_quality",
    "attribute_uncertainty",
    "QualityReport",
]
