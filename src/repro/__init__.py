"""repro: evidential reasoning for database integration.

A complete Python implementation of

    Ee-Peng Lim, Jaideep Srivastava, Shashi Shekhar.
    "Resolving Attribute Incompatibility in Database Integration:
     An Evidential Reasoning Approach."  ICDE 1994.

The paper extends the relational model so that attribute values may be
*evidence sets* (Dempster-Shafer mass functions over subsets of the
attribute domain) and every tuple carries an ``(sn, sp)`` membership
pair; the extended union resolves attribute-value conflicts between
independently developed databases by pooling their evidence with
Dempster's rule of combination.

Package map
-----------
``repro.ds``           Dempster-Shafer substrate (mass, Bel/Pls, combination)
``repro.model``        extended relational model (domains ... relations)
``repro.algebra``      the five extended operations + Theorem 1 checks
``repro.expr``         lazy fluent expression builder (RelExpr)
``repro.session``      the caching query engine behind both front ends
``repro.query``        SQL-like language, planner, plan IR, fingerprints
``repro.integration``  the Figure 1 framework (preprocess, match, merge)
``repro.stream``       streaming integration (incremental delta-merges)
``repro.sources``      evidence from summaries (votes, classification, history)
``repro.baselines``    Dayal / DeMichiel / Tseng / PDM comparators
``repro.storage``      catalog, pluggable backends (json/sqlite/log), rendering
``repro.obs``          telemetry: metrics registry, tracing spans, profiles
``repro.datasets``     the paper's restaurant tables + synthetic generators

Quickstart
----------
Build queries fluently; nothing runs until ``collect()``, and the
session behind the database caches plans and results for you:

>>> from repro import Database, attr, sn_at_least, table_ra, table_rb
>>> db = Database("tourist_bureau")
>>> db.add(table_ra())
>>> db.add(table_rb())
>>> result = (
...     db.rel("RA").union(db.rel("RB"))
...     .select(attr("rating").is_({"ex"}), sn_at_least("1/2"))
...     .project("rname", "rating")
...     .collect()
... )
>>> sorted(t.key()[0] for t in result)
['ashiana', 'country', 'mehl']

The SQL-like string front end lowers into the identical plans (same
optimizer, same caches).  The eager ``algebra.*`` functions run one
operation at once, and plan nodes evaluate by calling them:

>>> db.add(union(table_ra(), table_rb(), name="R"))
>>> result = db.query("SELECT rname, rating FROM R WHERE rating IS {ex} WITH SN >= 0.5")
>>> sorted(t.key()[0] for t in result)
['ashiana', 'country', 'mehl']
"""

from repro.errors import (
    CatalogError,
    DomainError,
    ExecutionError,
    IntegrationError,
    MassFunctionError,
    MembershipError,
    NotationError,
    OperationError,
    ParseError,
    PlanError,
    PredicateError,
    QueryError,
    RelationError,
    ReproError,
    SchemaError,
    SerializationError,
    StreamError,
    TotalConflictError,
)
from repro.ds import (
    OMEGA,
    FrameOfDiscernment,
    MassFunction,
    belief,
    combine,
    combine_all,
    conflict,
    format_evidence,
    parse_evidence,
    plausibility,
)
from repro.model import (
    CERTAIN,
    IMPOSSIBLE,
    UNKNOWN,
    AnyDomain,
    Attribute,
    BooleanDomain,
    Domain,
    EnumeratedDomain,
    EvidenceSet,
    ExtendedRelation,
    ExtendedTuple,
    NumericDomain,
    RelationSchema,
    TextDomain,
    TupleMembership,
)
from repro.algebra import (
    And,
    IsPredicate,
    Not,
    Or,
    Predicate,
    SN_CERTAIN,
    SN_POSITIVE,
    ThetaPredicate,
    attr,
    equijoin,
    join,
    lit,
    product,
    project,
    rename,
    select,
    union,
    union_with_report,
)
from repro.algebra import intersection
from repro.algebra.thresholds import sn_at_least, sn_greater, sp_at_least, sp_greater
from repro.analysis import decide, relation_quality
from repro.expr import RelExpr
from repro.integration import Federation, IntegrationPipeline, TupleMerger
from repro.session import Session, SessionStats, Subscription
from repro.storage import (
    Database,
    create_database,
    format_relation,
    open_backend,
    open_database,
)
from repro.obs import (
    FlushProfile,
    MetricsRegistry,
    QueryProfile,
    registry,
    set_tracing,
    span,
    tracing_scope,
)
from repro.stream import BatchDelta, ChangeLog, StreamEngine
from repro.datasets import (
    SyntheticConfig,
    synthetic_pair,
    table_ra,
    table_rb,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "MassFunctionError",
    "NotationError",
    "TotalConflictError",
    "DomainError",
    "SchemaError",
    "MembershipError",
    "RelationError",
    "PredicateError",
    "OperationError",
    "QueryError",
    "ParseError",
    "PlanError",
    "ExecutionError",
    "IntegrationError",
    "StreamError",
    "SerializationError",
    "CatalogError",
    # evidence
    "OMEGA",
    "FrameOfDiscernment",
    "MassFunction",
    "belief",
    "plausibility",
    "combine",
    "combine_all",
    "conflict",
    "parse_evidence",
    "format_evidence",
    # model
    "Domain",
    "EnumeratedDomain",
    "NumericDomain",
    "TextDomain",
    "BooleanDomain",
    "AnyDomain",
    "Attribute",
    "RelationSchema",
    "EvidenceSet",
    "TupleMembership",
    "CERTAIN",
    "UNKNOWN",
    "IMPOSSIBLE",
    "ExtendedTuple",
    "ExtendedRelation",
    # algebra
    "Predicate",
    "IsPredicate",
    "ThetaPredicate",
    "And",
    "Or",
    "Not",
    "attr",
    "lit",
    "select",
    "union",
    "union_with_report",
    "project",
    "product",
    "join",
    "equijoin",
    "rename",
    "SN_POSITIVE",
    "SN_CERTAIN",
    "sn_greater",
    "sn_at_least",
    "sp_greater",
    "sp_at_least",
    "intersection",
    # lazy expressions / session engine
    "RelExpr",
    "Session",
    "SessionStats",
    "Subscription",
    # streaming integration
    "StreamEngine",
    "ChangeLog",
    "BatchDelta",
    # observability
    "MetricsRegistry",
    "registry",
    "span",
    "set_tracing",
    "tracing_scope",
    "QueryProfile",
    "FlushProfile",
    # integration / analysis / storage / datasets
    "IntegrationPipeline",
    "TupleMerger",
    "Federation",
    "decide",
    "relation_quality",
    "Database",
    "create_database",
    "open_backend",
    "open_database",
    "format_relation",
    "table_ra",
    "table_rb",
    "SyntheticConfig",
    "synthetic_pair",
    "__version__",
]
