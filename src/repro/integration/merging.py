"""Tuple merging (Figure 1): combine matched tuples into the integrated
relation.

:class:`TupleMerger` owns the one Dempster merge of two tuples that
denote the same entity.  The extended union and intersection of
:mod:`repro.algebra` run on it, and it generalizes them:

* the tuple matching may come from any entity-identification strategy
  (not only key equality), and
* each attribute may use its own integration method (evidential,
  aggregate, intersection, ...) per the attribute integration methods
  extracted during schema integration.

Tuple *membership* is always pooled with Dempster's rule -- membership is
evidence about existence, and both sources supplied some.  With every
attribute on the evidential method, merging a key-matched pair *is* the
extended union's attribute-value conflict resolution: both call the same
pair merge, so they agree by construction.

Total conflict (``kappa = 1``) means the sources are irreconcilable for
an attribute or for the membership; per Section 2.2 "some actions may be
necessary to inform the data administrators".  :data:`CONFLICT_POLICIES`
names the three actions: ``"raise"`` propagates
:class:`TotalConflictError`; ``"vacuous"`` records the conflict and falls
back to total ignorance for the offending *uncertain* attribute (a
certain attribute cannot hold ignorance, and a membership conflict has
no fallback, so the tuple is dropped and recorded instead); ``"drop"``
records the conflict and drops the merged tuple.  Every conflict lands
in the :class:`MergeReport` as a :class:`ConflictRecord`.

Evidential combinations ride the compact evidence kernel
(:mod:`repro.ds.kernel`) whenever the attribute's domain is enumerated:
the merged evidence keeps its compiled (bitmask) state, so the n-ary
folds built on the merger (the federation's tree fold and point
queries, the stream engine's per-entity cache) never re-derive masks
between combinations.

Validation policy
-----------------
A merged tuple is built directly, without the :class:`ExtendedTuple`
constructor, when its trust can be shown.  Both source tuples' schemas
must list the result schema's attributes in the same order, which
makes their values already coerced against the result's domains and
flags.  Every non-key attribute must also have gone through
:class:`EvidentialMethod`.  Then the key is the left tuple's validated
key, and each kernel result is already bound to the left attribute's
domain.  A certain attribute holds definite evidence on both sides.
Dempster's rule keeps two equal definite values definite, and two
different ones conflict totally, which takes the ``on_conflict`` path:
raise, or drop the tuple (only an uncertain attribute falls back to
ignorance).  When Dempster's rule returns the left value's own mass
function (two equal definite values, see
:func:`repro.ds.kernel.combine_compiled`) and the left value has a
domain, the merged value is the left :class:`EvidenceSet` itself, not
a copy: that very object was checked against that domain when it was
built, so no check is skipped.  Left-only and right-only tuples are
copied under the result schema by sharing their values under the same
condition.
Everything else keeps the full constructor: a non-evidential method
(its result is arbitrary evidence) and a source schema whose
attributes are reordered or differ.  The membership pair always comes
from the checked ``F`` rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.errors import IntegrationError, TotalConflictError
from repro.ds.combination import combine_with_conflict
from repro.ds.mass import Numeric
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.relation import ExtendedRelation
from repro.integration.entity_identification import KeyMatcher, TupleMatching
from repro.integration.methods import (
    EvidentialMethod,
    IntegrationMethod,
    get_method,
)

#: Accepted total-conflict policies (see the module docstring).
CONFLICT_POLICIES = ("raise", "vacuous", "drop")


def require_policy(on_conflict: str, error_class=IntegrationError) -> str:
    """Return *on_conflict* if it is one of :data:`CONFLICT_POLICIES`.

    The one policy check shared by the merger, the algebra and the
    query plans; *error_class* picks the layer's exception.
    """
    if on_conflict not in CONFLICT_POLICIES:
        raise error_class(
            f"on_conflict must be one of {CONFLICT_POLICIES}, got {on_conflict!r}"
        )
    return on_conflict


@dataclass(frozen=True)
class ConflictRecord:
    """One observed conflict between the two sources.

    ``attribute`` is the attribute name, or ``"(sn,sp)"`` for the tuple
    membership evidence.  ``kappa`` is Dempster's conflict mass (``1``
    for a membership pair or a non-evidential method that conflicts
    totally); ``total`` marks irreconcilable conflicts.
    """

    key: tuple
    attribute: str
    kappa: Numeric
    total: bool


def _combine_evidence(
    left: EvidenceSet, right: EvidenceSet
) -> tuple[EvidenceSet | None, Numeric]:
    """Dempster-combine two attribute values; ``(None, kappa)`` on total
    conflict.  Returns the conflict mass alongside the result.

    Runs on the compiled evidence kernel whenever both sides carry the
    attribute's enumerated frame (see :mod:`repro.ds.kernel`); the
    merged evidence then stays compiled, so the integration fold and
    the streaming engine's resident states never re-derive masks.
    A result that is *left*'s own mass function, under *left*'s
    domain, is *left* (see "Validation policy" in the module
    docstring).
    """
    combined, kappa = combine_with_conflict(
        left.mass_function, right.mass_function
    )
    if combined is None:
        return None, kappa
    if combined is left.mass_function and left.domain is not None:
        return left, kappa
    return EvidenceSet(combined, left.domain or right.domain), kappa


class _SameLayout:
    """Which tuple schemas list *schema*'s attributes in the same order.

    A tuple of such a schema holds values already coerced and checked
    against *schema*'s domains and flags, so results built from it can
    skip the constructor.  One merge call sees few distinct schemas;
    each is compared once (an attribute-wise comparison costs several
    microseconds) and the answer is kept with the schema object.
    """

    __slots__ = ("_attributes", "_seen")

    def __init__(self, schema):
        self._attributes = schema.attributes
        self._seen: dict[int, tuple] = {}

    def __call__(self, source) -> bool:
        entry = self._seen.get(id(source))
        if entry is None or entry[0] is not source:
            attributes = source.attributes
            entry = (
                source,
                attributes is self._attributes or attributes == self._attributes,
            )
            self._seen[id(source)] = entry
        return entry[1]


def _copy_under(schema, etuple: ExtendedTuple, same_layout) -> ExtendedTuple:
    """*etuple* under the result *schema*, sharing its values when its
    own schema has *schema*'s layout."""
    if same_layout(etuple.schema):
        return etuple._derive(schema, None, etuple.membership)
    return ExtendedTuple(schema, dict(etuple.items()), etuple.membership)


@dataclass
class MergeReport:
    """Administrator-facing record of one merge run."""

    matched: list[tuple[tuple, tuple]] = field(default_factory=list)
    left_only: list[tuple] = field(default_factory=list)
    right_only: list[tuple] = field(default_factory=list)
    conflicts: list[ConflictRecord] = field(default_factory=list)
    dropped: list[tuple] = field(default_factory=list)

    @property
    def total_conflicts(self) -> list[ConflictRecord]:
        """Only the irreconcilable conflicts."""
        return [record for record in self.conflicts if record.total]

    def max_kappa(self) -> Numeric:
        """The largest observed conflict mass (0 when conflict-free)."""
        return max((record.kappa for record in self.conflicts), default=0)

    def summary(self) -> str:
        """One-line digest for logs."""
        return (
            f"{len(self.matched)} matched, {len(self.left_only)} left-only, "
            f"{len(self.right_only)} right-only, {len(self.conflicts)} "
            f"conflicts ({len(self.total_conflicts)} total), "
            f"{len(self.dropped)} dropped"
        )


class TupleMerger:
    """Merges two preprocessed relations into the integrated relation.

    Parameters
    ----------
    methods:
        ``{attribute_name: method-or-name}`` overriding the default per
        attribute.
    default_method:
        Method for attributes without an override (the paper's
        evidential method).
    on_conflict:
        ``"raise"`` (default), ``"vacuous"`` or ``"drop"`` (see the
        module docstring).

    >>> from repro.datasets.restaurants import table_ra, table_rb
    >>> merged, report = TupleMerger().merge(table_ra(), table_rb())
    >>> len(merged), report.summary()[:10]
    (6, '5 matched,')
    """

    def __init__(
        self,
        methods: Mapping[str, object] | None = None,
        default_method: object = None,
        on_conflict: str = "raise",
    ):
        require_policy(on_conflict)
        self._methods = {
            name: get_method(method) for name, method in (methods or {}).items()
        }
        self._default = (
            get_method(default_method)
            if default_method is not None
            else EvidentialMethod()
        )
        self._on_conflict = on_conflict

    def method_for(self, attribute_name: str) -> IntegrationMethod:
        """The integration method applied to *attribute_name*."""
        return self._methods.get(attribute_name, self._default)

    @property
    def on_conflict(self) -> str:
        """The total-conflict policy (``raise`` / ``vacuous`` / ``drop``)."""
        return self._on_conflict

    def merge(
        self,
        left: ExtendedRelation,
        right: ExtendedRelation,
        matching: TupleMatching | None = None,
        name: str | None = None,
    ) -> tuple[ExtendedRelation, MergeReport]:
        """The integrated relation plus a merge report.

        When *matching* is omitted, tuples are matched on the common key
        (the paper's assumption).  Matched pairs take the *left* key.
        """
        left.schema.require_union_compatible(right.schema)
        if matching is None:
            matching = KeyMatcher().match(left, right)
        matching.validate_one_to_one()
        schema = left.schema.with_name(
            name if name is not None else f"{left.name}_integrated_{right.name}"
        )
        report = MergeReport()
        merged: list[ExtendedTuple] = []
        same_layout = _SameLayout(schema)

        for left_key, right_key in matching.pairs:
            l_tuple = left.get(left_key)
            r_tuple = right.get(right_key)
            if l_tuple is None or r_tuple is None:
                raise IntegrationError(
                    f"matching references missing tuple(s) "
                    f"{left_key!r} / {right_key!r}"
                )
            report.matched.append((left_key, right_key))
            result = self._merge_pair(
                l_tuple, r_tuple, schema, report, same_layout
            )
            if result is not None:
                merged.append(result)

        for key in matching.left_only:
            report.left_only.append(key)
            merged.append(_copy_under(schema, left.get(key), same_layout))
        for key in matching.right_only:
            report.right_only.append(key)
            merged.append(_copy_under(schema, right.get(key), same_layout))
        return ExtendedRelation(schema, merged, on_unsupported="drop"), report

    def merge_pair(
        self,
        left: ExtendedTuple,
        right: ExtendedTuple,
        schema=None,
        report: MergeReport | None = None,
    ) -> ExtendedTuple | None:
        """Combine two tuples known to denote the same entity.

        This is the single-entity core of :meth:`merge`, exposed so
        engines that maintain per-entity state (the streaming engine,
        federated point queries) can pay for exactly one Dempster
        combination per arrival instead of a relation-level merge.

        Returns the merged tuple, or ``None`` when the pair hit a total
        conflict and the ``on_conflict`` policy dropped it.  Conflicts
        are appended to *report* when one is given.
        """
        if left.key() != right.key():
            raise IntegrationError(
                f"merge_pair needs tuples of the same entity, got keys "
                f"{left.key()!r} and {right.key()!r}"
            )
        if schema is None:
            schema = left.schema
        if report is None:
            report = MergeReport()
        return self._merge_pair(left, right, schema, report, _SameLayout(schema))

    def merge_entity(
        self,
        tuples,
        schema=None,
        report: MergeReport | None = None,
    ) -> ExtendedTuple | None:
        """Fold one entity's matched tuples (any number of sources).

        Dempster's rule is associative, so the left-to-right fold equals
        any other combination order on the conflict-free path.  Returns
        ``None`` when a total conflict dropped the entity under the
        configured policy.
        """
        items = list(tuples)
        if not items:
            raise IntegrationError("merge_entity needs at least one tuple")
        if schema is None:
            schema = items[0].schema
        if report is None:
            report = MergeReport()
        same_layout = _SameLayout(schema)
        accumulated = _copy_under(schema, items[0], same_layout)
        for nxt in items[1:]:
            if nxt.key() != accumulated.key():
                raise IntegrationError(
                    f"merge_entity needs tuples of one entity, got keys "
                    f"{accumulated.key()!r} and {nxt.key()!r}"
                )
            accumulated = self._merge_pair(
                accumulated, nxt, schema, report, same_layout
            )
            if accumulated is None:
                return None
        return accumulated

    def _merge_pair(self, l_tuple, r_tuple, schema, report, same_layout):
        key = l_tuple.key()
        values: dict[str, object] = dict(
            zip(schema.key_names, key)
        )
        evidential = True
        for attr_name in schema.nonkey_names:
            attribute = schema.attribute(attr_name)
            method = self.method_for(attr_name)
            left_value = l_tuple.evidence(attr_name)
            right_value = r_tuple.evidence(attr_name)
            if isinstance(method, EvidentialMethod):
                combined, kappa = _combine_evidence(left_value, right_value)
                if kappa != 0:
                    report.conflicts.append(
                        ConflictRecord(key, attr_name, kappa, combined is None)
                    )
                if combined is None:
                    fallback = self._handle_total_conflict(
                        attribute, key, left_value, right_value, report
                    )
                    if fallback is None:
                        return None
                    values[attr_name] = fallback
                else:
                    values[attr_name] = combined
            else:
                evidential = False
                try:
                    values[attr_name] = method.combine(
                        left_value, right_value, attribute
                    )
                except TotalConflictError:
                    report.conflicts.append(ConflictRecord(key, attr_name, 1, True))
                    fallback = self._handle_total_conflict(
                        attribute, key, left_value, right_value, report
                    )
                    if fallback is None:
                        return None
                    values[attr_name] = fallback

        membership, membership_kappa = (
            l_tuple.membership.combine_dempster_with_conflict(r_tuple.membership)
        )
        if membership is None:
            report.conflicts.append(ConflictRecord(key, "(sn,sp)", 1, True))
            if self._on_conflict == "raise":
                raise TotalConflictError(
                    f"total conflict on membership of tuple {key!r}: "
                    f"{l_tuple.membership.format()} vs "
                    f"{r_tuple.membership.format()}"
                )
            report.dropped.append(key)
            return None
        if membership_kappa != 0:
            report.conflicts.append(
                ConflictRecord(key, "(sn,sp)", membership_kappa, False)
            )
        if (
            evidential
            and same_layout(l_tuple.schema)
            and same_layout(r_tuple.schema)
        ):
            # Every value is the left key or Dempster's result on the
            # left attribute's domain; a certain attribute's definite
            # operands combine to a definite value or took the
            # on_conflict path above (see the module docstring).
            return l_tuple._derive(schema, values, membership)
        return ExtendedTuple(schema, values, membership)

    def _handle_total_conflict(self, attribute, key, left_value, right_value, report):
        """Apply the on_conflict policy; ``None`` means drop the tuple."""
        if self._on_conflict == "raise":
            raise TotalConflictError(
                f"total conflict on attribute {attribute.name!r} of tuple "
                f"{key!r}: {left_value.format()} vs {right_value.format()}"
            )
        if self._on_conflict == "vacuous" and attribute.uncertain:
            return EvidenceSet.vacuous(attribute.domain)
        report.dropped.append(key)
        return None
