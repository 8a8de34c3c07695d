"""Compact evidence kernel: the one engine behind every evidence operation.

Every operation the paper defines -- Dempster's rule (Section 2.2),
belief/plausibility selection (Section 3.1.1), the extended union
(Section 3.2) -- bottoms out in pairwise intersections of focal
elements.  This module runs all of them on bitmasks:

* :class:`InternedFrame` assigns each value a bit position, so a focal
  element becomes an ``int`` bitmask and the whole frame (OMEGA) the
  all-ones mask.  Over an enumerated frame there is one bit per frame
  value.  An open domain (text, numbers, anything) has no frame, so its
  evidence is compiled over the *atoms* the operation mentions -- both
  operands of a combination, or the mass function and the query of a
  belief measure -- plus two bits that, among focal elements, only OMEGA
  carries: the *query* bit stands for values a query names that no
  focal element does, the *residual* bit for the rest of the domain.
  So ``OMEGA & X == X`` for every concrete ``X``, OMEGA is never a
  subset of a finite query, and it meets every non-empty one -- the
  semantics of the symbolic :data:`~repro.ds.frame.OMEGA`;
* :class:`CompiledMass` stores the mass function as parallel
  ``(mask, mass)`` tuples in the library's canonical focal order;
* combination, discounting, belief and plausibility then run as
  bitwise-AND/OR loops with no per-pair set allocation;
* when both operands of a conjunctive combination hold only Fractions
  and more than one product is pooled, the loop multiplies and pools
  int numerators over the operands' common denominators
  (:meth:`CompiledMass.scaled`, computed once per form) and Dempster's
  rule builds one normalized Fraction per result mass.  Fractions are
  canonical, so values and types equal the Fraction loop's; float and
  mixed operands, and a single product, keep that loop.

Bits follow sorted-``repr`` order, so a mask's sort key is
order-isomorphic to :func:`repro.ds.mass._focal_sort_key` (compilation
orders masks by it instead of sorting focal elements by ``repr``; see
:func:`compile_mass_function` for the atoms where it does not hold),
every loop visits pairs in the canonical focal order, and results -- exact
Fractions and float round-off alike -- equal the textbook frozenset
loops bit for bit (the property-based test-suite checks the kernel
against such a reference implementation).  Coercion and validation
are *not* re-implemented here: compilation starts from an already
validated :class:`~repro.ds.mass.MassFunction` (whose constructor owns
:func:`~repro.ds.mass.coerce_mass_value`) or from framed bracket text,
whose decoder (:func:`repro.ds.notation.parse_evidence`) runs the
constructor's checks, and totals are checked through the shared
:func:`~repro.ds.mass.validate_mass_total` (the one
``FLOAT_SUM_TOLERANCE`` check in the library).

A mass function caches its compiled form, and equal frames or equal
atom sets intern to one shared :class:`InternedFrame`, so a pair whose
operands mention the same atoms is combined without re-mapping
(:func:`align`).  Atoms that compare equal but differ in type (``1``,
``1.0``, ``True``; ``2.5`` and ``Fraction(5, 2)``) share a bit within
one table but not a table: atom tables are keyed by type and ``repr``
unless every atom is a ``str``, so an operand decodes to its own
values whatever the process compiled before.  :data:`STATS` counts
combinations and compilations (surfaced by ``repro repl``'s ``:stats``
and the streaming throughput report).
"""

from __future__ import annotations

import math
import threading

from dataclasses import asdict, dataclass
from fractions import Fraction

from repro.counters import ThreadLocalCounters
from repro.errors import MassFunctionError
from repro.ds.frame import (
    OMEGA,
    FocalElement,
    FrameOfDiscernment,
    is_omega,
    typed_values_key,
)
from repro.ds.mass import (
    Numeric,
    _focal_sort_key,
    is_fraction,
    validate_mass_total,
)
from repro.ds.notation import format_atom
from repro.obs.registry import registry as _metrics_registry

#: The value of an empty belief-measure sum (shared, never re-allocated).
_ZERO = Fraction(0)

#: The one mass type of a form :meth:`CompiledMass.scaled` scales.
_FRACTION_ONLY = frozenset({Fraction})


# -- observability ------------------------------------------------------------


@dataclass
class KernelStats:
    """A point-in-time snapshot of kernel usage.

    ``kernel_combinations`` counts pairwise combination operations
    (Dempster, conjunctive, disjunctive); ``compilations`` counts mass
    functions compiled to kernel form.  The live process-wide counters
    are :data:`STATS` (a :class:`LiveKernelStats`); this dataclass is
    the immutable value :meth:`LiveKernelStats.snapshot` and
    :meth:`LiveKernelStats.since` hand out.
    """

    kernel_combinations: int = 0
    compilations: int = 0

    def snapshot(self) -> "KernelStats":
        """An immutable-by-convention copy of the current counters."""
        return KernelStats(self.kernel_combinations, self.compilations)

    def since(self, baseline: "KernelStats") -> "KernelStats":
        """The counter deltas accumulated after *baseline* was taken."""
        return KernelStats(
            self.kernel_combinations - baseline.kernel_combinations,
            self.compilations - baseline.compilations,
        )

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"kernel: {self.kernel_combinations} combination(s), "
            f"{self.compilations} compilation(s)"
        )


class LiveKernelStats:
    """The process-wide counters, safe to bump from any thread.

    Combination and compilation may run on several caller threads at
    once, so increments go through
    :class:`~repro.counters.ThreadLocalCounters` -- each thread bumps a
    private cell, reads aggregate -- so counts observed after the work
    completes are exact, with no lock on the combination hot path.

    Reads mirror the :class:`KernelStats` attribute API;
    :meth:`snapshot`/:meth:`since` return :class:`KernelStats` values.
    """

    _FIELDS = ("kernel_combinations", "compilations")

    def __init__(self):
        self._counters = ThreadLocalCounters(self._FIELDS)

    @property
    def kernel_combinations(self) -> int:
        return self._counters.total("kernel_combinations")

    @property
    def compilations(self) -> int:
        return self._counters.total("compilations")

    def bump(self, field: str, amount: int = 1) -> None:
        """Add *amount* to *field* (lock-free; callable from any thread)."""
        self._counters.bump(field, amount)

    def snapshot(self) -> KernelStats:
        """A consistent :class:`KernelStats` copy of the counters."""
        return KernelStats(**self._counters.totals())

    def since(self, baseline: KernelStats) -> KernelStats:
        """The counter deltas accumulated after *baseline* was taken."""
        return self.snapshot().since(baseline)

    def reset(self) -> None:
        """Zero the counters in place (the object identity is shared)."""
        self._counters.reset()

    def summary(self) -> str:
        """One-line human-readable digest."""
        return self.snapshot().summary()


#: The shared counter object; mutate via :meth:`LiveKernelStats.bump` /
#: :meth:`LiveKernelStats.reset`, never rebind (modules hold direct
#: references).
STATS = LiveKernelStats()

# Surface the kernel counters on the process-wide metrics registry
# (``kernel.*`` names) without changing any bump site: the registry
# reads through snapshot(), the STATS object keeps its attribute API.
_metrics_registry().register_source(
    "kernel", lambda: asdict(STATS.snapshot()), STATS.reset
)


def kernel_stats() -> KernelStats:
    """The process-wide :data:`STATS` object (live, not a copy)."""
    return STATS


# -- interned frames ----------------------------------------------------------


class InternedFrame:
    """A bit assignment: each value of a frame or atom set gets a bit.

    Built from a :class:`FrameOfDiscernment` it is a *frame table*: one
    bit per frame value, OMEGA the all-ones mask, and values outside the
    frame raise the frame's :class:`~repro.errors.DomainError`.  Built
    from a ``frozenset`` of atoms it is an *atom table* for open-domain
    evidence (:attr:`frame` is ``None``): one bit per atom, then the
    query bit and the residual bit that only OMEGA carries (see the
    module docstring).

    Bit positions follow the values sorted by ``repr``, so two
    independently interned copies of equal frames (or of equal atom sets
    with the same types) produce identical masks, and a mask's ascending
    bit positions enumerate its members in the same order the library's
    canonical focal-element sort uses.
    """

    __slots__ = (
        "_frame",
        "_atoms",
        "_bit_by_value",
        "_value_by_bit",
        "_omega",
        "_query_bit",
        "_sort_keys",
        "_renderings",
        "_text_atoms",
        "_str_atoms",
    )

    def __init__(self, source: FrameOfDiscernment | frozenset):
        if isinstance(source, FrameOfDiscernment):
            self._frame = source
            self._atoms = source.values
        else:
            self._frame = None
            self._atoms = source
        ordered = sorted(self._atoms, key=repr)
        self._bit_by_value = {value: bit for bit, value in enumerate(ordered)}
        self._value_by_bit = ordered
        self._text_atoms = all(type(value) in (str, int) for value in ordered)
        self._str_atoms = all(type(value) is str for value in ordered)
        width = len(ordered) if self._frame is not None else len(ordered) + 2
        self._omega = (1 << width) - 1
        self._query_bit = 1 << len(ordered)
        # Per-mask caches (see sort_key / rendered_members), bounded and
        # written under _INTERN_LOCK like the interning cache itself.
        self._sort_keys: dict[int, tuple] = {}
        self._renderings: dict[int, tuple | None] = {}

    @property
    def frame(self) -> FrameOfDiscernment | None:
        """The underlying enumerated frame; ``None`` for an atom table."""
        return self._frame

    @property
    def atoms(self) -> frozenset:
        """The values that have a bit of their own."""
        return self._atoms

    @property
    def text_atoms(self) -> bool:
        """Whether every atom is a ``str`` or an ``int``: the values whose
        :func:`~repro.ds.notation.format_atom` text
        :func:`~repro.ds.notation.parse_atom` reads back unchanged."""
        return self._text_atoms

    @property
    def omega_mask(self) -> int:
        """The all-ones mask standing for the whole frame (OMEGA)."""
        return self._omega

    def __len__(self) -> int:
        return len(self._value_by_bit)

    def mask_of(self, element: FocalElement) -> int:
        """Encode a focal element as a bitmask.

        :data:`OMEGA` encodes to :attr:`omega_mask`, and so does the
        full value set of a frame table -- the same canonicalization
        :meth:`FrameOfDiscernment.canonicalize` performs.  Values
        outside a frame raise the frame's own :class:`DomainError`;
        every member of an atom-table element must be one of its atoms.
        """
        if is_omega(element):
            return self._omega
        mask = 0
        bits = self._bit_by_value
        try:
            for value in element:
                mask |= 1 << bits[value]
        except (KeyError, TypeError):
            if self._frame is not None:
                self._frame.resolve(element)  # raises the canonical DomainError
            raise
        return mask

    def query_mask(self, subset: FocalElement) -> int:
        """Encode a belief-measure query as a bitmask.

        Like :meth:`mask_of`, except that an atom table encodes the
        values it has no bit for as the query bit: no focal element but
        OMEGA holds them, so one bit stands for all of them.
        """
        if self._frame is not None or is_omega(subset):
            return self.mask_of(subset)
        mask = 0
        bits = self._bit_by_value
        for value in subset:
            bit = bits.get(value)
            mask |= self._query_bit if bit is None else 1 << bit
        return mask

    def element_of(self, mask: int) -> FocalElement:
        """Decode a bitmask back to a focal element (all-ones -> OMEGA)."""
        if mask == self._omega:
            return OMEGA
        values = self._value_by_bit
        members = []
        while mask:
            low = mask & -mask
            members.append(values[low.bit_length() - 1])
            mask ^= low
        return frozenset(members)

    def sort_key(self, mask: int):
        """Canonical focal ordering key, matching the frozenset order.

        Ascending bit positions enumerate members in sorted-``repr``
        order, so ``(size, positions)`` is order-isomorphic to the
        ``(size, sorted reprs)`` key of
        :func:`repro.ds.mass._focal_sort_key`; OMEGA sorts last.  Keys
        are cached per mask: every canonicalization of a pooled result
        sorts by them.
        """
        key = self._sort_keys.get(mask)
        if key is None:
            if mask == self._omega:
                key = (1, 0, ())
            else:
                positions = []
                rest = mask
                while rest:
                    low = rest & -rest
                    positions.append(low.bit_length())
                    rest ^= low
                key = (0, len(positions), tuple(positions))
            _cache_put(self._sort_keys, mask, key)
        return key

    def repr_ordered(self, elements) -> bool:
        """Whether :meth:`sort_key` orders the masks of *elements* as
        :func:`repro.ds.mass._focal_sort_key` orders the elements.

        It does when every member has its bit's own type and ``repr``,
        which holds for a table of ``str`` atoms without a look (among
        the built-in types only a ``str`` equals a ``str``).  An equal
        member of another type (``True`` at the bit of ``1``) or
        spelling (``-0.0`` at ``0.0``) can sort elsewhere by its own
        ``repr``.
        """
        if self._str_atoms:
            return True
        bits = self._bit_by_value
        values = self._value_by_bit
        for element in elements:
            if element is OMEGA:
                continue
            for value in element:
                own = values[bits[value]]
                if own is not value and (
                    type(own) is not type(value) or repr(own) != repr(value)
                ):
                    return False
        return True

    def rendered_members(self, mask: int) -> tuple | None:
        """The members of *mask* as sorted
        :func:`~repro.ds.notation.format_atom` strings; ``None`` for
        OMEGA.  This is the structural float-evidence encoding of
        :mod:`repro.storage.serialization`, cached per mask."""
        try:
            return self._renderings[mask]
        except KeyError:
            pass
        if mask == self._omega:
            rendered = None
        else:
            rendered = tuple(sorted(map(format_atom, self.element_of(mask))))
        _cache_put(self._renderings, mask, rendered)
        return rendered

    def __repr__(self) -> str:
        name = "atoms" if self._frame is None else repr(self._frame.name)
        return f"InternedFrame({name}, {len(self._value_by_bit)} bits)"


#: Interned tables, keyed by a frame's
#: :attr:`~repro.ds.frame.FrameOfDiscernment.typed_key` or by the
#: :func:`~repro.ds.frame.typed_values_key` of an atom set, so every
#: relation sharing a domain, and every pair of open-domain operands
#: mentioning the same atoms, shares one bit assignment.
#: Bounded: interning is a cache, not an identity requirement (bit order
#: is a pure function of the values, and :func:`align` compares layouts,
#: not table identity), so clearing it is always safe.
#: Writes are guarded by :data:`_INTERN_LOCK`: compilation may run on
#: several caller threads at once, and the evict-then-insert sequence
#: must not interleave.
_INTERNED: dict[tuple | frozenset, InternedFrame] = {}
_INTERN_LIMIT = 4096
_INTERN_LOCK = threading.Lock()


def _cache_put(cache: dict, key, value) -> None:
    """Insert into a bounded per-frame cache under :data:`_INTERN_LOCK`
    (cleared when full, like :data:`_INTERNED`)."""
    with _INTERN_LOCK:
        if len(cache) >= _INTERN_LIMIT:
            cache.clear()
        cache[key] = value


def _intern(source: FrameOfDiscernment | frozenset, key) -> InternedFrame:
    interned = _INTERNED.get(key)
    if interned is None:
        with _INTERN_LOCK:
            interned = _INTERNED.get(key)
            if interned is None:
                if len(_INTERNED) >= _INTERN_LIMIT:
                    _INTERNED.clear()
                interned = InternedFrame(source)
                _INTERNED[key] = interned
    return interned


def intern_frame(frame: FrameOfDiscernment) -> InternedFrame:
    """The shared frame table for *frame* (interning cache)."""
    return _intern(frame, frame.typed_key)


def intern_atoms(atoms: frozenset) -> InternedFrame:
    """The shared atom table for the open-domain values *atoms*."""
    return _intern(atoms, typed_values_key(atoms))


# -- compiled mass functions --------------------------------------------------


class CompiledMass:
    """A mass function as parallel ``(mask, mass)`` tuples.

    ``masks`` and ``values`` are aligned tuples in the library's
    canonical focal order (size, then members, OMEGA last); values are
    the exact :class:`~fractions.Fraction`/``float`` masses of the
    source mass function, never re-coerced.
    """

    __slots__ = ("interned", "masks", "values", "_scaled")

    def __init__(self, interned: InternedFrame, masks: tuple, values: tuple):
        self.interned = interned
        self.masks = masks
        self.values = values
        self._scaled = None

    def __len__(self) -> int:
        return len(self.masks)

    def is_exact(self) -> bool:
        """``True`` when every mass is a :class:`Fraction`."""
        return all(map(is_fraction, self.values))

    def scaled(self) -> tuple[tuple[int, ...], int] | None:
        """The masses as ``(numerators, denominator)``: int numerators,
        aligned with :attr:`masks`, over the least common denominator of
        the masses; ``None`` unless every mass is a ``Fraction``.
        Computed once, then cached."""
        scaled = self._scaled
        if scaled is None:
            values = self.values
            if not _FRACTION_ONLY.issuperset(map(type, values)):
                scaled = False
            else:
                denominators = [value.denominator for value in values]
                common = math.lcm(*denominators)
                scaled = (
                    tuple(
                        [
                            value.numerator * (common // denominator)
                            for value, denominator in zip(values, denominators)
                        ]
                    ),
                    common,
                )
            self._scaled = scaled
        return scaled or None

    def to_mass_dict(self) -> dict[FocalElement, Numeric]:
        """Decode back to a ``{focal element: mass}`` dict."""
        element_of = self.interned.element_of
        return {
            element_of(mask): value
            for mask, value in zip(self.masks, self.values)
        }

    # -- belief measures (subset-mask tests) -------------------------------

    # The sums below start from the first matching mass rather than a
    # ``Fraction(0)`` seed: ``Fraction(0) + x == x`` (and ``0.0 + x`` is
    # ``x`` for non-negative floats), so values and types are unchanged,
    # and an empty sum returns the shared :data:`_ZERO`.

    def bel(self, query_mask: int) -> Numeric:
        """``Bel``: total mass on submasks of *query_mask*."""
        total = None
        for mask, value in zip(self.masks, self.values):
            if mask & query_mask == mask:
                total = value if total is None else total + value
        return _ZERO if total is None else total

    def pls(self, query_mask: int) -> Numeric:
        """``Pls``: total mass on masks intersecting *query_mask*."""
        total = None
        for mask, value in zip(self.masks, self.values):
            if mask & query_mask:
                total = value if total is None else total + value
        return _ZERO if total is None else total

    def bel_pls(self, query_mask: int) -> tuple[Numeric, Numeric]:
        """``(Bel, Pls)`` in a single pass (the selection support pair)."""
        sn = sp = None
        for mask, value in zip(self.masks, self.values):
            meet = mask & query_mask
            if meet:
                sp = value if sp is None else sp + value
                if meet == mask:
                    sn = value if sn is None else sn + value
        return (_ZERO if sn is None else sn), (_ZERO if sp is None else sp)

    def commonality(self, query_mask: int) -> Numeric:
        """``Q``: total mass on supermasks of *query_mask*."""
        total = None
        for mask, value in zip(self.masks, self.values):
            if mask & query_mask == query_mask:
                total = value if total is None else total + value
        return _ZERO if total is None else total

    def __repr__(self) -> str:
        frame = self.interned.frame
        return (
            f"CompiledMass({'atoms' if frame is None else repr(frame.name)}, "
            f"{len(self.masks)} focal, "
            f"{'exact' if self.is_exact() else 'float'})"
        )


def compile_mass_function(m) -> CompiledMass:
    """Compile a :class:`MassFunction` to kernel form.

    A mass function with a frame compiles over the frame's table, one
    without over the table of the atoms its focal elements mention.
    Compilation starts from the mass function's masses -- already
    coerced through :func:`~repro.ds.mass.coerce_mass_value` and
    validated by the ``MassFunction`` constructor -- so the kernel
    re-implements neither coercion nor validation.

    Each focal element is mapped to its mask, and the masks are put in
    canonical focal order by the table's cached :meth:`~InternedFrame.
    sort_key`, which is order-isomorphic to the frozenset order: no
    member's ``repr`` is computed.  A single focal element needs no
    sort.  Where the isomorphism fails -- an element holds an atom
    equal to, but typed or spelled unlike, the atom at its bit (see
    :meth:`InternedFrame.repr_ordered`) -- the elements are sorted by
    :func:`~repro.ds.mass._focal_sort_key` and the table is built in
    that order, so the table, masks and values never depend on which
    path ran.
    """
    masses = m._mass_dict()
    STATS.bump("compilations")
    interned = _table_of(m.frame, masses)
    mask_of = interned.mask_of
    if len(masses) == 1:
        ((element, value),) = masses.items()
        return CompiledMass(interned, (mask_of(element),), (value,))
    by_mask = {mask_of(element): value for element, value in masses.items()}
    if len(by_mask) == len(masses) and interned.repr_ordered(masses):
        order = sorted(by_mask, key=interned.sort_key)
        return CompiledMass(
            interned, tuple(order), tuple([by_mask[mask] for mask in order])
        )
    elements = sorted(masses, key=_focal_sort_key)
    interned = _table_of(m.frame, elements)
    mask_of = interned.mask_of
    return CompiledMass(
        interned,
        tuple([mask_of(element) for element in elements]),
        tuple([masses[element] for element in elements]),
    )


def _table_of(frame: FrameOfDiscernment | None, elements) -> InternedFrame:
    """The frame's table, or the table of the atoms *elements* (focal
    elements, in the order given) mention.  Of equal atoms of different
    types, the first one met keeps the bit."""
    if frame is not None:
        return intern_frame(frame)
    concrete = [element for element in elements if element is not OMEGA]
    if len(concrete) == 1:
        return intern_atoms(concrete[0])
    return intern_atoms(frozenset().union(*concrete))


def align(a: CompiledMass, b: CompiledMass) -> tuple[CompiledMass, CompiledMass]:
    """Put two operands of one combination on one bit assignment.

    Operands over tables with the same layout (equal frames, or equal
    atom sets) already share their masks and are returned as they are.
    An open-domain operand meeting a framed one is re-mapped onto the frame
    (its values must lie in the frame: the frame's :class:`DomainError`
    otherwise), and two open-domain operands onto the table of the union
    of their atoms, where an atom of *a* stands for an equal atom of *b*.
    The caller checks that two frames agree.
    """
    left, right = a.interned, b.interned
    if left is right:
        return a, b
    if left.frame is not None or right.frame is not None:
        if left.frame is None:
            return _remap(a, right), b
        if right.frame is None or not _same_layout(left, right):
            return a, _remap(b, left)
        return a, b
    if _same_layout(left, right):
        return a, b
    table = intern_atoms(left.atoms | right.atoms)
    return (
        a if _same_layout(left, table) else _remap(a, table),
        b if _same_layout(right, table) else _remap(b, table),
    )


def _same_layout(left: InternedFrame, right: InternedFrame) -> bool:
    """Whether every bit of two tables stands for equal values.

    Equal value *sets* are not enough: ``{2.5, 3}`` and
    ``{Fraction(5, 2), 3}`` are equal, but their ``repr`` orders put the
    two halves at different bits (equal frames interned apart, after the
    cache was cleared, can differ the same way).
    """
    return left is right or left._value_by_bit == right._value_by_bit


def _remap(compiled: CompiledMass, target: InternedFrame) -> CompiledMass:
    """*compiled* with each mask re-encoded on *target*.

    The source's canonical order carries over: bits of a superset of
    atoms keep their relative order, and OMEGA stays last.
    """
    element_of = compiled.interned.element_of
    mask_of = target.mask_of
    return CompiledMass(
        target,
        tuple(mask_of(element_of(mask)) for mask in compiled.masks),
        compiled.values,
    )


def _canonical(interned: InternedFrame, pooled: dict) -> CompiledMass:
    """Order pooled ``{mask: mass}`` results canonically and validate.

    The canonical order makes chained kernel combinations visit pairs in
    exactly the order a frozenset loop over ``items()`` would, so even
    float results are bit-identical to it; validation reuses the shared
    :func:`~repro.ds.mass.validate_mass_total` check.
    """
    order = tuple(sorted(pooled, key=interned.sort_key))
    values = tuple([pooled[mask] for mask in order])
    validate_mass_total(values)
    return CompiledMass(interned, order, values)


# -- combination kernels ------------------------------------------------------


def conjunctive_compiled(
    a: CompiledMass, b: CompiledMass
) -> tuple[dict[int, Numeric], Numeric, int | None]:
    """Unnormalized conjunctive combination on bitmasks.

    Returns ``(pooled, kappa, denominator)`` where *pooled* maps
    non-empty intersection masks to pooled mass (in first-insertion
    order, mirroring the frozenset loop pair for pair) and *kappa* is
    the mass on the empty set.  When both operands hold only Fractions
    and there is more than one product, the masses are pooled as int
    numerators over their common denominators
    (:meth:`CompiledMass.scaled`): *pooled* and *kappa* hold ints over
    the returned *denominator*, the product of the two.  Otherwise the
    masses are pooled as they are, and *denominator* is ``None``: float
    and mixed operands, and a definite pair, whose one product costs
    less than scaling it.
    """
    # A float form fails the first test, without a scan.
    if (
        type(a.values[0]) is Fraction
        and type(b.values[0]) is Fraction
        and len(a.values) + len(b.values) > 2
    ):
        a_scaled = a.scaled()
        b_scaled = a_scaled and b.scaled()
        if b_scaled:
            return _conjunctive_scaled(a.masks, a_scaled, b.masks, b_scaled)
    pooled: dict[int, Numeric] = {}
    # An int seed keeps float workloads on float arithmetic (0 + x is x
    # for either mass type, bit for bit).
    kappa: Numeric = 0
    get = pooled.get
    b_pairs = tuple(zip(b.masks, b.values))
    for x_mask, x_value in zip(a.masks, a.values):
        for y_mask, y_value in b_pairs:
            product = x_value * y_value
            if product == 0:
                continue
            meet = x_mask & y_mask
            if meet:
                current = get(meet)
                pooled[meet] = (
                    product if current is None else current + product
                )
            else:
                kappa = kappa + product
    return pooled, kappa, None


def _conjunctive_scaled(
    a_masks: tuple, a_scaled: tuple, b_masks: tuple, b_scaled: tuple
) -> tuple[dict[int, int], int, int]:
    """The exact conjunctive loop on int numerators.

    A product is zero exactly when the Fraction product is, so a mask
    enters *pooled* exactly when the Fraction loop would put it there,
    in the same order.
    """
    a_numerators, a_denominator = a_scaled
    b_numerators, b_denominator = b_scaled
    pooled: dict[int, int] = {}
    kappa = 0
    get = pooled.get
    b_pairs = tuple(zip(b_masks, b_numerators))
    for x_mask, x_value in zip(a_masks, a_numerators):
        for y_mask, y_value in b_pairs:
            product = x_value * y_value
            if not product:
                continue
            meet = x_mask & y_mask
            if meet:
                pooled[meet] = get(meet, 0) + product
            else:
                kappa += product
    return pooled, kappa, a_denominator * b_denominator


def combine_compiled(
    a: CompiledMass, b: CompiledMass
) -> tuple[CompiledMass | None, Numeric]:
    """Dempster's rule on bitmasks: ``(normalized result, kappa)``.

    Returns ``(None, kappa)`` on total conflict: no surviving mass, a
    float kappa that rounds to exactly 1 beside surviving mass, or float
    mass whose normalization by ``1 - kappa`` fails the total check (see
    :data:`~repro.ds.mass.FLOAT_SUM_TOLERANCE`).

    Exact operands are normalized on their int numerators: a pooled
    numerator ``n`` over ``D`` with conflict ``K`` becomes the one
    Fraction ``n / (D - K)``, which equals ``(n / D) / (1 - K / D)``
    (Fractions are canonical, so value and type are those of the
    Fraction loop).  A conflict-free kappa is the int ``0``, as the
    Fraction loop's int seed leaves it.

    On the Fraction/float loop, a conflict-free result that is *a*'s
    single mask with *a*'s mass, equal in value and type (two equal
    definite values, or a float definite value met by evidence that
    includes it), is *a* itself: its values are validated once, as a
    new result's would be, and no new form is built.  ``Fraction(1)``
    against ``1.0`` pools the float ``1.0``, so it builds a new form,
    and so does every result of the int path.
    """
    pooled, kappa, denominator = conjunctive_compiled(a, b)
    if denominator is not None:
        exact_kappa = Fraction(kappa, denominator) if kappa else 0
        if not pooled:
            return None, exact_kappa
        remaining = denominator - kappa
        return (
            _canonical(
                a.interned,
                {mask: Fraction(n, remaining) for mask, n in pooled.items()},
            ),
            exact_kappa,
        )
    if not pooled:
        return None, kappa
    if kappa:
        remaining = 1 - kappa
        if not remaining:
            # Float products rounded the conflict up to exactly 1, though
            # a tiny mass survived: nothing is left to normalize by.
            return None, kappa
        pooled = {mask: value / remaining for mask, value in pooled.items()}
        try:
            return _canonical(a.interned, pooled), kappa
        except MassFunctionError:
            # Exact operands took the int path above, so only float
            # round-off magnified by a tiny 1 - kappa gets here.
            return None, kappa
    if len(pooled) == 1 and len(a.masks) == 1:
        ((mask, value),) = pooled.items()
        own = a.values[0]
        if mask == a.masks[0] and type(value) is type(own) and value == own:
            validate_mass_total(a.values)
            return a, kappa
    return _canonical(a.interned, pooled), kappa


def disjunctive_compiled(a: CompiledMass, b: CompiledMass) -> CompiledMass:
    """Disjunctive rule on bitmasks (union of focal elements)."""
    pooled: dict[int, Numeric] = {}
    get = pooled.get
    b_pairs = tuple(zip(b.masks, b.values))
    for x_mask, x_value in zip(a.masks, a.values):
        for y_mask, y_value in b_pairs:
            product = x_value * y_value
            if product == 0:
                continue
            join = x_mask | y_mask
            current = get(join)
            pooled[join] = product if current is None else current + product
    return _canonical(a.interned, pooled)


def discount_compiled(compiled: CompiledMass, reliability) -> CompiledMass:
    """Shafer discounting on a compiled mass (*reliability* < 1, coerced).

    Focal masses scale by ``r`` (zeros dropped, as the
    ``MassFunction`` constructor would), the rest joins the ignorance on
    OMEGA, in the order the textbook loop over ``items()`` adds them.
    Canonical order is preserved because OMEGA already sorts last.
    """
    omega = compiled.interned.omega_mask
    masks = []
    values = []
    ignorance: Numeric = 1 - reliability
    for mask, value in zip(compiled.masks, compiled.values):
        if mask == omega:
            ignorance = ignorance + reliability * value
        else:
            scaled = reliability * value
            if scaled == 0:
                continue
            masks.append(mask)
            values.append(scaled)
    masks.append(omega)
    values.append(ignorance)
    validate_mass_total(values)
    return CompiledMass(compiled.interned, tuple(masks), tuple(values))
