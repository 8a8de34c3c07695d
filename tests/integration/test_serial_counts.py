"""Host-independent cost counts of the serial integrate and query paths.

A wall-clock floor depends on the machine; these counts do not.  On the
fixed float federation of :mod:`test_golden_integrate` (seed 11) the
serial fold must

* allocate no ``Fraction`` inside the bitmask combination loop
  (:func:`repro.ds.kernel.conjunctive_compiled`) or the membership rule
  ``F`` (:class:`TupleMembership`'s Dempster combination) whenever every
  operand is a float, nor in ``F`` on an exact pair beside a float one;
* compile every evidence value without sorting focal elements by the
  ``repr`` of their members;
* validate each mass function a kernel operation produces exactly once
  (:func:`repro.ds.mass.validate_mass_total`), and make exactly as many
  validation calls in total as it always has;
* re-coerce no attribute value while discounting and merging, and
  range-check one discounted membership per distinct typed ``(sn, sp)``
  pair of a source, not one per tuple.

The extended union and intersection of two same-layout relations
re-coerce no attribute value either, and the exact union of a fixed
pair allocates a recorded number of Fractions: one per result mass,
conflict mass and membership component, and none to check a total.

Persisting the integrated relation to a new SQLite store is one
transaction (one ``COMMIT``), and a first save that fails leaves no
store behind.

On a fixed exact relation of ``N`` tuples, the extended selection must

* range-check no membership pair: the exact predicate supports ``F_SS``
  are int sums (no ``bel_pls`` call), and neither they nor the ``F_TM``
  products are checked;
* run ``F_TM`` only for the tuples whose predicate support has
  ``sn > 0``;
* re-coerce no attribute value of a kept tuple, and seed no ``Bel``/
  ``Pls`` sum with a fresh ``Fraction(0)``;

while loading that relation from SQLite still validates every stored
evidence value once (validation at ingress stays), and projecting the
loaded relation re-coerces no value.  On the float relation of the same
seed, an ``IS`` scan computes ``Bel``/``Pls`` only for the tuples with
``Bel > 0``: the focal-mask index never hands it another row.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from repro.algebra.intersection import intersection_with_report
from repro.algebra.predicates import IsPredicate
from repro.algebra.project import project
from repro.algebra.select import select
from repro.algebra.thresholds import sn_at_least
from repro.algebra.union import union_with_report
from repro.datasets.generators import (
    SyntheticConfig,
    synthetic_pair,
    synthetic_relation,
)
from repro.ds import combination, discounting, kernel, mass
from repro.errors import SerializationError
from repro.integration.pipeline import _discount_relation
from repro.model import etuple as etuple_module
from repro.model.membership import TupleMembership
from repro.storage.backends import create_database
from repro.storage.database import Database
from tests.integration.test_golden_integrate import (
    FLOAT_RELIABILITIES,
    golden_sources,
    integrate,
)

#: Code objects that construct a Fraction (``_from_coprime_ints`` is the
#: arithmetic's constructor on Python >= 3.12).
_FRACTION_CONSTRUCTORS = {Fraction.__new__.__code__} | (
    {Fraction._from_coprime_ints.__func__.__code__}
    if hasattr(Fraction, "_from_coprime_ints")
    else set()
)

#: Counts of the seed-11 float federation, recorded before the serial
#: path was optimized (the validation counts must never move).  The
#: kernel combinations are 720 float combinations of the uncertain
#: attributes plus 360 exact definite-with-definite combinations of the
#: certain open-domain ``label``.
KERNEL_COMBINATIONS = 720 + 360
KERNEL_DISCOUNTS = 800
VALIDATE_CALLS = 4280
FLOAT_MEMBERSHIP_COMBINATIONS = 210
#: ``F`` on an exact pair beside a float pair, and the evidence
#: compilations, of the same federation.
MIXED_MEMBERSHIP_COMBINATIONS = 150
COMPILATIONS = 1782


class CallCounter:
    """Counts calls of the functions whose code objects are *codes*,
    made while :meth:`call` runs."""

    def __init__(self, codes):
        self.codes = codes
        self.hits = 0
        self.calls = 0

    def call(self, function, *args):
        def hook(frame, event, arg):
            if event == "call" and frame.f_code in self.codes:
                self.hits += 1

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            return function(*args)
        finally:
            sys.setprofile(previous)
            self.calls += 1


class FractionCounter(CallCounter):
    """Counts Fraction constructions made while :meth:`call` runs."""

    def __init__(self):
        super().__init__(_FRACTION_CONSTRUCTORS)

    @property
    def allocations(self) -> int:
        return self.hits


def _all_float(values) -> bool:
    return all(type(value) is float for value in values)


def _mixed(left, right) -> bool:
    """An all-Fraction membership pair beside an all-float one."""
    kinds = {(type(left.sn), type(left.sp)), (type(right.sn), type(right.sp))}
    return kinds == {(Fraction, Fraction), (float, float)}


@pytest.fixture
def counted(monkeypatch):
    """Run the fixed federation serially with every counter installed."""
    counts = {"kernel_validates": 0, "validates": 0, "produced": 0}
    kernel_loop = FractionCounter()
    membership_rule = FractionCounter()
    mixed_rule = FractionCounter()

    original_conjunctive = kernel.conjunctive_compiled

    def conjunctive(a, b):
        if _all_float(a.values + b.values):
            return kernel_loop.call(original_conjunctive, a, b)
        kernel_loop.calls += 1
        return original_conjunctive(a, b)

    original_membership = TupleMembership.combine_dempster_with_conflict

    def membership(self, other):
        if _all_float((self.sn, self.sp, other.sn, other.sp)):
            return membership_rule.call(original_membership, self, other)
        if _mixed(self, other):
            return mixed_rule.call(original_membership, self, other)
        return original_membership(self, other)

    original_kernel_validate = kernel.validate_mass_total

    def kernel_validate(values):
        counts["kernel_validates"] += 1
        return original_kernel_validate(values)

    original_validate = mass.validate_mass_total

    def validate(values):
        counts["validates"] += 1
        return original_validate(values)

    def producing(function):
        def wrapper(*args):
            result = function(*args)
            produced = result[0] if isinstance(result, tuple) else result
            if produced is not None:
                counts["produced"] += 1
            return result

        return wrapper

    monkeypatch.setattr(kernel, "conjunctive_compiled", conjunctive)
    monkeypatch.setattr(
        TupleMembership, "combine_dempster_with_conflict", membership
    )
    monkeypatch.setattr(kernel, "validate_mass_total", kernel_validate)
    monkeypatch.setattr(mass, "validate_mass_total", validate)
    monkeypatch.setattr(
        combination, "combine_compiled", producing(kernel.combine_compiled)
    )
    monkeypatch.setattr(
        discounting, "discount_compiled", producing(kernel.discount_compiled)
    )
    sources = golden_sources(11, exact=False)
    integrate(sources, FLOAT_RELIABILITIES)
    counts["validates"] += counts["kernel_validates"]
    return counts, kernel_loop, membership_rule, mixed_rule


def test_float_kernel_loop_allocates_no_fraction(counted):
    _, kernel_loop, _, _ = counted
    assert kernel_loop.calls == KERNEL_COMBINATIONS
    assert kernel_loop.allocations == 0


def test_float_membership_rule_allocates_no_fraction(counted):
    _, _, membership_rule, _ = counted
    assert membership_rule.calls == FLOAT_MEMBERSHIP_COMBINATIONS
    assert membership_rule.allocations == 0


def test_mixed_membership_rule_allocates_no_fraction(counted):
    """The exact ``CERTAIN`` memberships of the reliability-1 source meet
    discounted float ones: ``F`` runs on floats for them."""
    _, _, _, mixed_rule = counted
    assert mixed_rule.calls == MIXED_MEMBERSHIP_COMBINATIONS
    assert mixed_rule.allocations == 0


def test_compilation_sorts_no_focal_element_by_repr(monkeypatch):
    """Every compilation of the federation maps its focal elements to
    masks and orders them by the table's cached sort keys: no
    ``_focal_sort_key`` call while any evidence compiles."""
    sort_keys = CallCounter({mass._focal_sort_key.__code__})
    original = kernel.compile_mass_function
    monkeypatch.setattr(
        kernel,
        "compile_mass_function",
        lambda m: sort_keys.call(original, m),
    )
    integrate(golden_sources(11, exact=False), FLOAT_RELIABILITIES)
    assert sort_keys.calls == COMPILATIONS
    assert sort_keys.hits == 0


def test_each_kernel_result_is_validated_exactly_once(counted):
    counts, _, _, _ = counted
    assert counts["produced"] == KERNEL_COMBINATIONS + KERNEL_DISCOUNTS
    assert counts["kernel_validates"] == counts["produced"]
    assert counts["validates"] == VALIDATE_CALLS


def test_membership_rule_float_operands_stay_float():
    left = TupleMembership(0.9, 1.0)
    right = TupleMembership(0.5, 0.75)
    counter = FractionCounter()
    result = counter.call(left.combine_dempster, right)
    assert counter.allocations == 0
    assert type(result.sn) is float and type(result.sp) is float


# -- the read path --------------------------------------------------------------

#: Tuples of the fixed exact relation the read-path counts run on.
READ_TUPLES = 400

#: Non-key attributes of the synthetic schema (category, score, label):
#: each stored tuple holds one evidence value per attribute.
EVIDENCE_PER_TUPLE = 3


def read_relation():
    return synthetic_relation(
        SyntheticConfig(n_tuples=READ_TUPLES, exact=True, seed=41), "R"
    )


def _counting(counts, name, function):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)

    return wrapper


def _zero_seeds(function, *args):
    """Run *function*, counting ``Fraction(0)`` constructions (a bare
    zero numerator; the arithmetic always passes a denominator)."""
    zeros = 0

    def hook(frame, event, arg):
        nonlocal zeros
        if (
            event == "call"
            and frame.f_code is Fraction.__new__.__code__
            and frame.f_locals.get("denominator") is None
            and frame.f_locals.get("numerator") == 0
        ):
            zeros += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = function(*args)
    finally:
        sys.setprofile(previous)
    return result, zeros


def test_selection_checks_supports_not_products(monkeypatch):
    relation = read_relation()
    predicate = IsPredicate("category", {"c1", "c4", "c7"})
    threshold = sn_at_least("0.05")
    select(relation, predicate, threshold)  # compile the evidence
    counts = {"memberships": 0, "coerced": 0, "zero_seeds": 0, "bel_pls": 0}
    monkeypatch.setattr(
        TupleMembership,
        "__init__",
        _counting(counts, "memberships", TupleMembership.__init__),
    )
    monkeypatch.setattr(
        etuple_module,
        "_coerce_value",
        _counting(counts, "coerced", etuple_module._coerce_value),
    )
    original_bel_pls = kernel.CompiledMass.bel_pls

    def bel_pls(self, query_mask):
        counts["bel_pls"] += 1
        result, zeros = _zero_seeds(original_bel_pls, self, query_mask)
        counts["zero_seeds"] += zeros
        return result

    monkeypatch.setattr(kernel.CompiledMass, "bel_pls", bel_pls)
    selected = select(relation, predicate, threshold)
    assert 0 < len(selected) < READ_TUPLES
    assert counts["bel_pls"] == 0
    assert counts["memberships"] == 0
    assert counts["coerced"] == 0
    assert counts["zero_seeds"] == 0


def test_scan_reads_only_the_rows_with_belief(monkeypatch):
    """Float rows are summed by ``bel_pls``; the scan makes one call per
    tuple with ``Bel > 0`` and none for the others."""
    relation = synthetic_relation(
        SyntheticConfig(n_tuples=READ_TUPLES, exact=False, seed=41), "R"
    )
    predicate = IsPredicate("category", {"c1", "c4", "c7"})
    believed = sum(1 for etuple in relation if predicate.support(etuple).sn > 0)
    assert 0 < believed < READ_TUPLES
    list(predicate.supported(relation))  # build the column and its index
    counts = {"bel_pls": 0}
    monkeypatch.setattr(
        kernel.CompiledMass,
        "bel_pls",
        _counting(counts, "bel_pls", kernel.CompiledMass.bel_pls),
    )
    assert len(list(predicate.supported(relation))) == believed
    assert counts["bel_pls"] == believed


def test_product_rule_runs_only_for_supported_tuples(monkeypatch):
    """A zero predicate support would revise ``sn`` to 0, which the scan
    drops anyway: ``F_TM`` is skipped for it."""
    relation = read_relation()
    predicate = IsPredicate("category", {"c1", "c4", "c7"})
    threshold = sn_at_least("0.05")
    supported = sum(
        1 for etuple in relation if predicate.support(etuple).sn > 0
    )
    assert 0 < supported < READ_TUPLES
    counts = {"products": 0}
    monkeypatch.setattr(
        TupleMembership,
        "combine_product",
        _counting(counts, "products", TupleMembership.combine_product),
    )
    select(relation, predicate, threshold)
    assert counts["products"] == supported


def test_bel_pls_misses_return_the_shared_zero():
    compiled = next(iter(read_relation())).evidence("category").mass_function.compiled()
    (sn, sp), zeros = _zero_seeds(compiled.bel_pls, 0)
    assert (sn, sp) == (0, 0) and type(sn) is Fraction and type(sp) is Fraction
    assert zeros == 0


def _stored_read_relation(tmp_path) -> str:
    """The URL of a new SQLite store holding :func:`read_relation`."""
    url = f"sqlite:{tmp_path / 'read.db'}"
    database = create_database(url, "read")
    database.add(read_relation())
    database.persist()
    database.close()
    return url


def test_loading_validates_every_stored_evidence_value(monkeypatch, tmp_path):
    url = _stored_read_relation(tmp_path)
    counts = {"validates": 0}
    monkeypatch.setattr(
        mass,
        "validate_mass_total",
        _counting(counts, "validates", mass.validate_mass_total),
    )
    database = Database.open(url)
    try:
        loaded = database.get("R")
    finally:
        database.close()
    assert len(loaded) == READ_TUPLES
    assert counts["validates"] == READ_TUPLES * EVIDENCE_PER_TUPLE


def test_projecting_a_loaded_relation_coerces_no_value(monkeypatch, tmp_path):
    """The loaded tuples carry the relation's own schema, whose values
    the load checked: the projection shares them, with no
    ``_coerce_value`` call."""
    database = Database.open(_stored_read_relation(tmp_path))
    try:
        loaded = database.get("R")
    finally:
        database.close()
    counts = {"coerced": 0}
    monkeypatch.setattr(
        etuple_module,
        "_coerce_value",
        _counting(counts, "coerced", etuple_module._coerce_value),
    )
    projected = project(loaded, ["id", "category"])
    assert len(projected) == READ_TUPLES
    assert counts["coerced"] == 0


# -- trusted discount and merge, one-transaction persist ------------------------


def _typed_pair(membership) -> tuple:
    sn, sp = membership.sn, membership.sp
    return (type(sn), sn, type(sp), sp)


def test_discount_and_merge_coerce_no_value(monkeypatch):
    """Discounting and merging build their tuples from values the
    sources already coerced: the whole fold makes no
    ``_coerce_value`` call."""
    sources = golden_sources(11, exact=False)
    counts = {"coerced": 0}
    monkeypatch.setattr(
        etuple_module,
        "_coerce_value",
        _counting(counts, "coerced", etuple_module._coerce_value),
    )
    relation, _ = integrate(sources, FLOAT_RELIABILITIES)
    assert len(relation) > 0
    assert counts["coerced"] == 0


@pytest.mark.parametrize("operator", [union_with_report, intersection_with_report])
@pytest.mark.parametrize("exact", [False, True])
def test_union_and_intersection_coerce_no_value(monkeypatch, operator, exact):
    """Both sides of a union or intersection share the result's layout,
    so matched, left-only and right-only tuples are built from values
    the sources already coerced: no ``_coerce_value`` call."""
    config = SyntheticConfig(n_tuples=120, overlap=0.6, exact=exact, seed=5)
    left, right = synthetic_pair(config, "L", "R")
    counts = {"coerced": 0}
    monkeypatch.setattr(
        etuple_module,
        "_coerce_value",
        _counting(counts, "coerced", etuple_module._coerce_value),
    )
    merged, report = operator(left, right, on_conflict="vacuous")
    assert len(report.matched) == 72
    assert len(merged) > 0
    assert counts["coerced"] == 0


#: Fractions the exact union of the fixed seed-5 pair allocates: 496
#: result masses and kappas of the attribute combinations, 166
#: ``(sn, sp)`` components and kappas of the membership rule ``F``, and
#: 9 vacuous masses of total-conflict fallbacks.  Pooling and checking
#: Fractions allocated 3412 (Python 3.11) and 4063 (3.12).
EXACT_UNION_FRACTIONS = 671


def test_exact_union_allocates_the_recorded_fractions():
    config = SyntheticConfig(n_tuples=120, overlap=0.6, exact=True, seed=5)
    left, right = synthetic_pair(config, "L", "R")
    counter = FractionCounter()
    merged, report = counter.call(
        lambda: union_with_report(left, right, on_conflict="vacuous")
    )
    assert len(report.matched) == 72 and len(merged) > 0
    assert counter.allocations == EXACT_UNION_FRACTIONS


@pytest.mark.parametrize("reliability", [0.9, Fraction(4, 5)])
def test_discount_builds_one_membership_per_typed_pair(monkeypatch, reliability):
    """``_discount_relation`` range-checks each distinct ``(sn, sp)``
    pair once -- ``Fraction(1)`` and ``1.0`` count as two pairs."""
    _, s1, _ = golden_sources(11, exact=False)
    distinct = {_typed_pair(etuple.membership) for etuple in s1}
    assert (Fraction, Fraction(1), Fraction, Fraction(1)) in distinct
    assert 1 < len(distinct) < len(s1)
    counts = {"memberships": 0}
    monkeypatch.setattr(
        TupleMembership,
        "__init__",
        _counting(counts, "memberships", TupleMembership.__init__),
    )
    discounted = _discount_relation(s1, reliability)
    assert counts["memberships"] == len(distinct)
    assert len(discounted) == len(s1)


def _fresh_store_persist(tmp_path, relation):
    """Persist *relation* to a new SQLite store; return the SQL traced."""
    statements: list[str] = []
    database = create_database(f"sqlite:{tmp_path / 'fresh.db'}", "fresh")
    try:
        database.backend._db.set_trace_callback(statements.append)
        database.add(relation)
        database.persist()
    finally:
        database.close()
    return statements


def test_fresh_store_persist_is_one_transaction(tmp_path):
    relation, _ = integrate(golden_sources(11, exact=False), FLOAT_RELIABILITIES)
    statements = _fresh_store_persist(tmp_path, relation)
    verbs = [statement.split(None, 1)[0].upper() for statement in statements]
    assert verbs.count("COMMIT") == 1
    assert verbs.count("BEGIN") == 1
    # The tables are created inside that transaction.
    assert verbs.index("BEGIN") < verbs.index("CREATE") < verbs.index("COMMIT")
    database = Database.open(f"sqlite:{tmp_path / 'fresh.db'}")
    try:
        assert database.get("F") == relation
    finally:
        database.close()


def test_failed_first_save_leaves_no_store(monkeypatch, tmp_path):
    """A first save that fails mid-write rolls the new tables back with
    it: the location still holds no database."""
    from repro.storage.backends.sqlite import SqliteBackend

    relation, _ = integrate(golden_sources(11, exact=False), FLOAT_RELIABILITIES)
    url = f"sqlite:{tmp_path / 'failed.db'}"

    def failing(self, relation):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(SqliteBackend, "_insert_relation", failing)
    database = create_database(url, "failed")
    database.add(relation)
    try:
        with pytest.raises(RuntimeError, match="disk on fire"):
            database.persist()
    finally:
        database.close()
    with pytest.raises(SerializationError, match="no database"):
        Database.open(url)
