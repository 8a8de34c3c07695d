"""Compact evidence kernel: interned frames and bitmask focal elements.

Every operation the paper defines -- Dempster's rule (Section 2.2),
belief/plausibility selection (Section 3.1.1), the extended union
(Section 3.2) -- bottoms out in pairwise intersections of focal
elements.  The default representation (``frozenset`` keys in a dict)
pays hash-set costs per pair; this module compiles a mass function over
an *enumerated* frame into a form where those set operations are single
machine-word instructions:

* :class:`InternedFrame` assigns each frame value a bit position, so a
  focal element becomes an ``int`` bitmask and the whole frame (OMEGA)
  the all-ones mask;
* :class:`CompiledMass` stores the mass function as parallel
  ``(mask, mass)`` tuples in the library's canonical focal order;
* combination, discounting, belief and plausibility then run as
  bitwise-AND/OR + popcount loops with no per-pair set allocation.

The kernel changes the *representation*, never the arithmetic: masses
stay :class:`fractions.Fraction` (exact) or ``float`` exactly as in
:mod:`repro.ds.mass`, every loop visits pairs in the same canonical
order as the frozenset path, and results are therefore identical --
bit-for-bit, including float round-off -- to the uncompiled path (the
property-based test-suite asserts this).  Coercion and validation are
*not* re-implemented here: compilation always starts from an already
validated :class:`~repro.ds.mass.MassFunction` (whose constructor owns
:func:`~repro.ds.mass.coerce_mass_value`), and result totals are
re-checked through the shared
:func:`~repro.ds.mass.validate_mass_total` (the one
``FLOAT_SUM_TOLERANCE`` check in the library).

Dispatch lives in :mod:`repro.ds.combination`, :mod:`repro.ds.belief`
and :mod:`repro.ds.discounting`: when both operands carry the same
enumerated frame the kernel path runs, otherwise the symbolic
frozenset path (which handles unenumerable domains and the symbolic
OMEGA) is used.  :func:`set_kernel_enabled` / :func:`kernel_disabled`
turn the kernel off globally -- used by the equivalence tests and the
``bench_kernel_combination`` benchmark -- and :data:`STATS` counts how
many combinations ran on each path (surfaced by ``repro repl``'s
``:stats`` and the streaming throughput report).
"""

from __future__ import annotations

import threading

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction

from repro.counters import ThreadLocalCounters
from repro.ds.frame import OMEGA, FocalElement, FrameOfDiscernment, is_omega
from repro.ds.mass import Numeric, validate_mass_total
from repro.ds.notation import format_atom
from repro.obs.registry import registry as _metrics_registry

#: The value of an empty belief-measure sum (shared, never re-allocated).
_ZERO = Fraction(0)


# -- path selection and observability -----------------------------------------


@dataclass
class KernelStats:
    """A point-in-time snapshot of kernel vs fallback usage.

    ``kernel_combinations`` / ``fallback_combinations`` count pairwise
    combination operations (Dempster, conjunctive, disjunctive) by the
    path they executed on; ``compilations`` counts mass functions
    compiled to kernel form.  The live process-wide counters are
    :data:`STATS` (a :class:`LiveKernelStats`); this dataclass is the
    immutable value :meth:`LiveKernelStats.snapshot` and
    :meth:`LiveKernelStats.since` hand out.
    """

    kernel_combinations: int = 0
    fallback_combinations: int = 0
    compilations: int = 0

    def snapshot(self) -> "KernelStats":
        """An immutable-by-convention copy of the current counters."""
        return KernelStats(
            self.kernel_combinations,
            self.fallback_combinations,
            self.compilations,
        )

    def since(self, baseline: "KernelStats") -> "KernelStats":
        """The counter deltas accumulated after *baseline* was taken."""
        return KernelStats(
            self.kernel_combinations - baseline.kernel_combinations,
            self.fallback_combinations - baseline.fallback_combinations,
            self.compilations - baseline.compilations,
        )

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"kernel: {self.kernel_combinations} combination(s) on the "
            f"kernel path, {self.fallback_combinations} on the fallback "
            f"path, {self.compilations} compilation(s)"
        )


class LiveKernelStats:
    """The process-wide counters, safe to bump from executor workers.

    Combination and compilation may run on several caller threads at
    once, so increments go through
    :class:`~repro.counters.ThreadLocalCounters` -- each thread bumps a
    private cell, reads aggregate -- so counts observed after the work
    completes are exact, with no lock on the combination hot path.

    Reads mirror the :class:`KernelStats` attribute API;
    :meth:`snapshot`/:meth:`since` return :class:`KernelStats` values.
    """

    _FIELDS = ("kernel_combinations", "fallback_combinations", "compilations")

    def __init__(self):
        self._counters = ThreadLocalCounters(self._FIELDS)

    @property
    def kernel_combinations(self) -> int:
        return self._counters.total("kernel_combinations")

    @property
    def fallback_combinations(self) -> int:
        return self._counters.total("fallback_combinations")

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


_enabled = True


def kernel_enabled() -> bool:
    """``True`` when compiled evidence kernels may be used."""
    return _enabled


def set_kernel_enabled(flag: bool) -> bool:
    """Globally enable/disable the kernel path; returns the prior state."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def kernel_disabled():
    """Context manager forcing the frozenset fallback path.

    Used by the equivalence property tests and benchmarks to compute
    reference results on the symbolic path.
    """
    previous = set_kernel_enabled(False)
    try:
        yield
    finally:
        set_kernel_enabled(previous)


# -- interned frames ----------------------------------------------------------


class InternedFrame:
    """A frame of discernment with each value assigned a bit position.

    Bit positions follow the frame's deterministic iteration order
    (values sorted by ``repr``), so two independently interned copies of
    equal frames produce identical masks, and a mask's ascending bit
    positions enumerate its members in the same order the library's
    canonical focal-element sort uses.
    """

    __slots__ = (
        "_frame",
        "_bit_by_value",
        "_value_by_bit",
        "_omega",
        "_sort_keys",
        "_renderings",
    )

    def __init__(self, frame: FrameOfDiscernment):
        self._frame = frame
        ordered = sorted(frame.values, key=repr)
        self._bit_by_value = {value: bit for bit, value in enumerate(ordered)}
        self._value_by_bit = ordered
        self._omega = (1 << len(ordered)) - 1
        # Per-mask caches (see sort_key / rendered_members), bounded and
        # written under _INTERN_LOCK like the interning cache itself.
        self._sort_keys: dict[int, tuple] = {}
        self._renderings: dict[int, tuple | None] = {}

    @property
    def frame(self) -> FrameOfDiscernment:
        """The underlying enumerated frame."""
        return self._frame

    @property
    def omega_mask(self) -> int:
        """The all-ones mask standing for the whole frame (OMEGA)."""
        return self._omega

    def __len__(self) -> int:
        return len(self._value_by_bit)

    def mask_of(self, element: FocalElement) -> int:
        """Encode a focal element (or query subset) as a bitmask.

        :data:`OMEGA` and the full concrete value set both encode to
        :attr:`omega_mask` -- the same canonicalization
        :meth:`FrameOfDiscernment.canonicalize` performs.  Values
        outside the frame raise the frame's own :class:`DomainError`.
        """
        if is_omega(element):
            return self._omega
        mask = 0
        bits = self._bit_by_value
        try:
            for value in element:
                mask |= 1 << bits[value]
        except (KeyError, TypeError):
            self._frame.resolve(element)  # raises the canonical DomainError
            raise
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
        """Canonical focal ordering key, matching the frozenset path.

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
        return (
            f"InternedFrame({self._frame.name!r}, "
            f"{len(self._value_by_bit)} bits)"
        )


#: Interned frames, keyed by (equal) frames so every relation sharing a
#: domain shares one bit assignment.  Bounded: interning is a cache, not
#: an identity requirement (bit order is a pure function of the value
#: set), so clearing it is always safe.  Writes are guarded by
#: :data:`_INTERN_LOCK`: compilation runs inside executor worker threads,
#: and the evict-then-insert sequence must not interleave.
_INTERNED: dict[FrameOfDiscernment, InternedFrame] = {}
_INTERN_LIMIT = 4096
_INTERN_LOCK = threading.Lock()


def _cache_put(cache: dict, key, value) -> None:
    """Insert into a bounded per-frame cache under :data:`_INTERN_LOCK`
    (cleared when full, like :data:`_INTERNED`)."""
    with _INTERN_LOCK:
        if len(cache) >= _INTERN_LIMIT:
            cache.clear()
        cache[key] = value


def intern_frame(frame: FrameOfDiscernment) -> InternedFrame:
    """The shared :class:`InternedFrame` for *frame* (interning cache)."""
    interned = _INTERNED.get(frame)
    if interned is None:
        with _INTERN_LOCK:
            interned = _INTERNED.get(frame)
            if interned is None:
                if len(_INTERNED) >= _INTERN_LIMIT:
                    _INTERNED.clear()
                interned = InternedFrame(frame)
                _INTERNED[frame] = interned
    return interned


# -- compiled mass functions --------------------------------------------------


class CompiledMass:
    """A mass function as parallel ``(mask, mass)`` tuples.

    ``masks`` and ``values`` are aligned tuples in the library's
    canonical focal order (size, then members, OMEGA last); values are
    the exact :class:`~fractions.Fraction`/``float`` masses of the
    source mass function, never re-coerced.
    """

    __slots__ = ("interned", "masks", "values")

    def __init__(self, interned: InternedFrame, masks: tuple, values: tuple):
        self.interned = interned
        self.masks = masks
        self.values = values

    def __len__(self) -> int:
        return len(self.masks)

    def is_exact(self) -> bool:
        """``True`` when every mass is a :class:`Fraction`."""
        return all(isinstance(value, Fraction) for value in self.values)

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
        return (
            f"CompiledMass({self.interned.frame.name!r}, "
            f"{len(self.masks)} focal, "
            f"{'exact' if self.is_exact() else 'float'})"
        )


def compile_mass_function(m) -> CompiledMass:
    """Compile a frame-carrying :class:`MassFunction` to kernel form.

    Compilation starts from ``m.items()`` -- already coerced through
    :func:`~repro.ds.mass.coerce_mass_value` and validated by the
    ``MassFunction`` constructor, and iterated in canonical focal order
    -- so the kernel re-implements neither coercion nor validation.
    """
    frame = m.frame
    if frame is None:
        raise ValueError("cannot compile a mass function without a frame")
    interned = intern_frame(frame)
    mask_of = interned.mask_of
    masks = []
    values = []
    for element, value in m.items():
        masks.append(mask_of(element))
        values.append(value)
    STATS.bump("compilations")
    return CompiledMass(interned, tuple(masks), tuple(values))


def _canonical(interned: InternedFrame, pooled: dict) -> CompiledMass:
    """Order pooled ``{mask: mass}`` results canonically and validate.

    The canonical order makes chained kernel combinations visit pairs in
    exactly the order the frozenset path would, so even float results
    stay bit-identical across the two paths; validation reuses the
    shared :func:`~repro.ds.mass.validate_mass_total` check.
    """
    order = sorted(pooled, key=interned.sort_key)
    values = tuple(pooled[mask] for mask in order)
    validate_mass_total(values)
    return CompiledMass(interned, tuple(order), values)


# -- combination kernels ------------------------------------------------------


def conjunctive_compiled(
    a: CompiledMass, b: CompiledMass
) -> tuple[dict[int, Numeric], Numeric]:
    """Unnormalized conjunctive combination on bitmasks.

    Returns ``(pooled, kappa)`` where *pooled* maps non-empty
    intersection masks to pooled mass (in first-insertion order,
    mirroring the frozenset loop pair for pair) and *kappa* is the mass
    on the empty set.
    """
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
    return pooled, kappa


def combine_compiled(
    a: CompiledMass, b: CompiledMass
) -> tuple[CompiledMass | None, Numeric]:
    """Dempster's rule on bitmasks: ``(normalized result, kappa)``.

    Returns ``(None, kappa)`` on total conflict (no surviving mass).
    """
    pooled, kappa = conjunctive_compiled(a, b)
    if not pooled:
        return None, kappa
    if kappa:
        remaining = 1 - kappa
        pooled = {mask: value / remaining for mask, value in pooled.items()}
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

    Mirrors :func:`repro.ds.discounting.discount` operation for
    operation: focal masses scale by ``r`` (zeros dropped, as the
    ``MassFunction`` constructor would), the rest joins the ignorance on
    OMEGA.  Canonical order is preserved because OMEGA already sorts
    last.
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
