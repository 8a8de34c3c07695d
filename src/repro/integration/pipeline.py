"""The end-to-end integration pipeline (all of Figure 1).

:class:`IntegrationPipeline` wires the framework's stages together:

1. attribute preprocessing of each source relation into the global
   schema (optional -- pass ``None`` mappings when sources are already
   preprocessed, as the paper's R_A/R_B are);
2. optional source discounting -- down-weighting an unreliable source's
   evidence before pooling (extension; see
   :mod:`repro.ds.discounting`);
3. entity identification (key-based by default);
4. tuple merging under per-attribute integration methods;
5. the integrated relation, ready for query processing.

The result bundles the integrated relation with the merge report and the
intermediate preprocessed relations for inspection.

Validation policy
-----------------
Discounting changes only what it computes.  :func:`discount_tuple`
shares the source tuple's already-coerced values and key, as
:meth:`~repro.model.etuple.ExtendedTuple.with_membership` does, and
replaces the uncertain evidence, which still goes through
:class:`EvidenceSet` (the frame and domain checks run on every
discounted value).  The discounted membership pair still goes through
the :class:`TupleMembership` constructor, range check and float clamp
included, but once per distinct ``(sn, sp)`` pair of a relation, not
once per tuple: sources hold few distinct pairs (most tuples are
certain), and the pair is keyed with its types because ``Fraction(1)``
and ``1.0`` hash equal yet discount to different types.  When the
schema passed in disagrees with the tuple's own schema on which
attributes are uncertain, the result goes through the full
:class:`ExtendedTuple` constructor instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IntegrationError
from repro.ds.discounting import discount
from repro.ds.mass import coerce_mass_value
from repro.model.etuple import ExtendedTuple
from repro.model.evidence import EvidenceSet
from repro.model.membership import TupleMembership
from repro.model.relation import ExtendedRelation
from repro.obs import tracing
from repro.integration.correspondence import SchemaMapping
from repro.integration.entity_identification import KeyMatcher, TupleMatching
from repro.integration.merging import MergeReport, TupleMerger
from repro.integration.preprocess import AttributePreprocessor


@dataclass
class IntegrationResult:
    """Everything the pipeline produced."""

    integrated: ExtendedRelation
    report: MergeReport
    preprocessed_left: ExtendedRelation
    preprocessed_right: ExtendedRelation
    matching: TupleMatching


def coerce_reliability(value, error_class=IntegrationError):
    """Coerce a source-reliability factor and require it in [0, 1].

    The one validation shared by the batch paths (pipeline, federation)
    and the streaming engine; *error_class* picks the layer's exception.
    """
    reliability = coerce_mass_value(value)
    if not 0 <= reliability <= 1:
        raise error_class(f"reliability must lie in [0, 1], got {value!r}")
    return reliability


def discount_tuple(etuple: ExtendedTuple, schema, reliability) -> ExtendedTuple:
    """Discount one tuple's evidence and membership by *reliability*.

    With reliability ``r``, every uncertain attribute's mass function is
    discounted (see :mod:`repro.ds.discounting`) and the membership pair
    becomes ``sn' = r * sn`` and ``sp' = 1 - r * (1 - sp)`` -- mass moves
    from both committed hypotheses toward ignorance.
    """
    return _discount(etuple, schema, coerce_mass_value(reliability), {})


def _discount(etuple: ExtendedTuple, schema, reliability, memberships: dict):
    """:func:`discount_tuple` for a coerced *reliability*.

    *memberships* memoizes the discounted membership per typed
    ``(sn, sp)`` pair across one relation: ``Fraction(1)`` and ``1.0``
    hash equal but discount to different types, so the key holds the
    types too.
    """
    tm = etuple.membership
    sn, sp = tm.sn, tm.sp
    pair = (type(sn), sn, type(sp), sp)
    membership = memberships.get(pair)
    if membership is None:
        membership = memberships[pair] = TupleMembership(
            reliability * sn, 1 - reliability * (1 - sp)
        )
    names = schema.uncertain_names
    own = etuple.schema.uncertain_names
    # Uncertain attributes are never keys, so each holds an EvidenceSet.
    discounted = {}
    for name in names:
        value = etuple.value(name)
        discounted[name] = EvidenceSet(
            discount(value.mass_function, reliability), value.domain
        )
    if own is names or own == names:
        return etuple._derive(etuple.schema, discounted, membership)
    # *schema* disagrees with the tuple's own schema on which attributes
    # are uncertain: let the constructor decide what it accepts.
    values = dict(etuple.items())
    values.update(discounted)
    return ExtendedTuple(etuple.schema, values, membership)


def _discount_relation(relation: ExtendedRelation, reliability) -> ExtendedRelation:
    """Discount every evidence set of a relation by *reliability*.

    Tuples whose discounted membership loses all necessary support
    (``sn' = 0``) are dropped, per CWA_ER.
    """
    schema = relation.schema
    reliability = coerce_mass_value(reliability)
    memberships: dict = {}
    with tracing.span("integration.discount", relation=relation.name):
        return ExtendedRelation(
            schema,
            [_discount(t, schema, reliability, memberships) for t in relation],
            on_unsupported="drop",
        )


class IntegrationPipeline:
    """Configurable Figure-1 pipeline for two source relations.

    Parameters
    ----------
    left_mapping, right_mapping:
        :class:`SchemaMapping` per source, or ``None`` when the source is
        already in the global schema.
    matcher:
        Entity-identification strategy (default: :class:`KeyMatcher`).
    merger:
        Tuple merger (default: all-evidential :class:`TupleMerger`).
    reliabilities:
        Optional ``(left_reliability, right_reliability)`` discounting
        factors in [0, 1].

    >>> from repro.datasets.restaurants import table_ra, table_rb
    >>> result = IntegrationPipeline().run(table_ra(), table_rb())
    >>> len(result.integrated)
    6
    """

    def __init__(
        self,
        left_mapping: SchemaMapping | None = None,
        right_mapping: SchemaMapping | None = None,
        matcher=None,
        merger: TupleMerger | None = None,
        reliabilities: tuple | None = None,
    ):
        self._left_mapping = left_mapping
        self._right_mapping = right_mapping
        self._matcher = matcher if matcher is not None else KeyMatcher()
        self._merger = merger if merger is not None else TupleMerger()
        if reliabilities is not None:
            if len(reliabilities) != 2:
                raise IntegrationError(
                    "reliabilities must be a (left, right) pair"
                )
            reliabilities = tuple(
                coerce_reliability(r) for r in reliabilities
            )
        self._reliabilities = reliabilities

    def run(
        self,
        left: ExtendedRelation,
        right: ExtendedRelation,
        name: str = "integrated",
    ) -> IntegrationResult:
        """Execute the pipeline and return the bundled result."""
        if self._left_mapping is not None:
            left = AttributePreprocessor(self._left_mapping).preprocess(
                left, name=f"{left.name}_preprocessed"
            )
        if self._right_mapping is not None:
            right = AttributePreprocessor(self._right_mapping).preprocess(
                right, name=f"{right.name}_preprocessed"
            )
        if self._reliabilities is not None:
            left_r, right_r = self._reliabilities
            if left_r != 1:
                left = _discount_relation(left, left_r)
            if right_r != 1:
                right = _discount_relation(right, right_r)
        matching = self._matcher.match(left, right)
        integrated, report = self._merger.merge(left, right, matching, name=name)
        return IntegrationResult(
            integrated=integrated,
            report=report,
            preprocessed_left=left,
            preprocessed_right=right,
            matching=matching,
        )
