"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.

The exceptions mirror the layers of the system:

* evidence layer (:class:`MassFunctionError`, :class:`TotalConflictError`),
* model layer (:class:`DomainError`, :class:`SchemaError`,
  :class:`MembershipError`, :class:`RelationError`),
* algebra layer (:class:`PredicateError`, :class:`OperationError`),
* query layer (:class:`QueryError` and its lexing/parsing/planning
  subclasses, plus :class:`ExecutionError` for query execution and
  its :class:`ConfigError` refinement),
* integration layer (:class:`IntegrationError`),
* storage layer (:class:`SerializationError`, :class:`CatalogError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


# ---------------------------------------------------------------------------
# Evidence (Dempster-Shafer) layer
# ---------------------------------------------------------------------------


class MassFunctionError(ReproError):
    """An invalid mass assignment was supplied.

    Raised when masses are negative, sum to something other than one, or
    are assigned to the empty set (the paper requires ``m(empty) = 0``).
    """


class NotationError(ReproError):
    """The textual evidence-set notation could not be parsed."""


class TotalConflictError(ReproError):
    """Dempster's rule was applied to totally conflicting evidence.

    The paper (Section 2.2) notes that when no focal elements of the two
    mass functions intersect, the sources are in total conflict and "some
    actions may be necessary to inform the data administrators or
    integrators about the conflict".  This exception is that action.
    """

    def __init__(self, message: str = "evidence sources are in total conflict (kappa = 1)"):
        super().__init__(message)


class TransformError(ReproError):
    """An evidence transform (e.g. pignistic) could not be computed."""


# ---------------------------------------------------------------------------
# Extended relational model layer
# ---------------------------------------------------------------------------


class DomainError(ReproError):
    """A value does not belong to an attribute domain, or the domain is
    unsuitable for the requested operation (e.g. enumerating an infinite
    domain)."""


class SchemaError(ReproError):
    """Relation schemas are inconsistent with the requested operation.

    Examples: duplicate attribute names, a missing key, union-incompatible
    schemas, or a projection that drops the key attributes.
    """


class MembershipError(ReproError):
    """A tuple membership pair violates ``0 <= sn <= sp <= 1``."""


class RelationError(ReproError):
    """An extended relation invariant was violated.

    The generalized closed world assumption (CWA_ER, Section 2.3 of the
    paper) requires every stored tuple to carry positive necessary support
    (``sn > 0``); duplicate keys within one relation are also rejected
    because the paper's relations have definite, identifying keys.
    """


# ---------------------------------------------------------------------------
# Algebra layer
# ---------------------------------------------------------------------------


class PredicateError(ReproError):
    """A selection/join predicate is malformed or refers to unknown
    attributes."""


class OperationError(ReproError):
    """An extended relational operation was invoked on unsuitable inputs."""


# ---------------------------------------------------------------------------
# Query layer
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for query-language failures."""


class LexError(QueryError):
    """The query text contains characters that cannot be tokenized."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(QueryError):
    """The token stream does not form a valid statement."""


class PlanError(QueryError):
    """A logical plan could not be built or executed.

    Typically raised when a statement references a relation or attribute
    that does not exist in the database catalog.
    """


class ExecutionError(ReproError):
    """Query execution failed or was misconfigured."""


class ConfigError(ExecutionError):
    """A configuration setting is invalid or names a removed feature.

    The CLI raises it (exit status 1) when the environment sets a
    variable of a removed feature -- the executor and partitioning
    settings, the remote tier's addresses and thresholds, the
    warm-pool switch -- and the message names the variable.  Execution
    is serial only, so silently ignoring such a setting would run a
    different setup than the operator asked for.  Subclasses
    :class:`ExecutionError`, so existing handlers keep working.
    """


# ---------------------------------------------------------------------------
# Integration layer
# ---------------------------------------------------------------------------


class IntegrationError(ReproError):
    """The integration pipeline was misconfigured or failed."""


class EntityIdentificationError(IntegrationError):
    """Tuple matching failed (e.g. ambiguous or contradictory matches)."""


class StreamError(IntegrationError):
    """A streaming-integration event was invalid or could not be applied.

    Raised by :mod:`repro.stream` for malformed events (an upsert with
    ``sn = 0`` violating CWA_ER, a retraction of an unknown tuple, an
    unknown source, ...).
    """


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


class SerializationError(ReproError):
    """A relation or database could not be (de)serialized."""


class CatalogError(ReproError):
    """A database catalog operation failed (unknown or duplicate name)."""
