"""The paper's textual notation for evidence sets.

Throughout the paper an evidence set is printed as a bracketed list of
focal elements with superscripted masses, e.g.::

    [si^0.5, hu^0.25, Ω^0.25]
    [d31^0.5, {d35,d36}^0.5]
    [cantonese^1/2, {hunan,sichuan}^1/3, Ω^1/6]

This module renders :class:`~repro.ds.mass.MassFunction` objects in that
notation and parses it back, so datasets, serialized relations and test
fixtures can be written exactly the way the paper prints them.

Grammar::

    evidence  := '[' item (',' item)* ']'
    item      := element '^' number
    element   := atom | '{' atom (',' atom)* '}' | omega
    omega     := 'Ω' | 'Θ' | 'omega' | 'theta' | '*'
    atom      := identifier | integer | decimal | quoted string
    number    := decimal ('0.25') | rational ('1/3') | integer

Numbers always parse to exact :class:`fractions.Fraction` values.

Validation policy
-----------------
Parsing is on the load path of every stored exact relation, so it is
kept cheap without giving up a check.  The tokenizer must stay
linear-time: it matches the whole text once with a possessive repeat of
atomic token groups and only re-walks the tokens to locate the offset
of a :class:`~repro.errors.NotationError`.  Atom and mass-number parses
(:func:`parse_atom`, :func:`parse_number`) are memoized in bounded
caches; their results are immutable ``int``/``str``/``Fraction`` values
and stored evidence repeats a small vocabulary of tokens.

Evidence over an enumerated frame (every stored value of an enumerated
attribute) is decoded straight into the kernel form
(:mod:`repro.ds.kernel`): each element's atoms become a mask through
the frame's interned table, and no frozenset dict is built.  The
decoder runs the :class:`~repro.ds.mass.MassFunction` constructor's
checks itself, in the constructor's order and with its errors: negative
masses, elements outside the frame, and the total, which it checks once
through :func:`~repro.ds.mass.validate_mass_total`.  Unframed evidence
(an open domain, whose atom table depends on the atoms it names) goes
through the constructor and compiles on first use.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from repro.errors import DomainError, MassFunctionError, NotationError
from repro.ds import mass as _mass
from repro.ds.frame import OMEGA, FocalElement, is_omega
from repro.ds.mass import MassFunction, Numeric, _focal_sort_key

#: Spellings accepted for the whole-frame element.
OMEGA_SPELLINGS = frozenset({"Ω", "Θ", "omega", "theta", "*", "OMEGA", "THETA"})

#: One token, optionally preceded by whitespace.
_TOKEN = r"""
    \s*(
        \[ | \] | \{ | \} | , | \^
        | "(?:[^"\\]|\\.)*"          # double-quoted atom
        | '(?:[^'\\]|\\.)*'          # single-quoted atom
        | [^\[\]{},^\s]+             # bare atom / number
    )
    """
_TOKEN_RE = re.compile(_TOKEN, re.VERBOSE)

#: A whole text of tokens.  Each token is an atomic group repeated
#: possessively, so a failed match never backtracks across token
#: boundaries: this accepts exactly the texts the token-by-token loop in
#: :func:`_tokenize` accepts (that loop never backtracks either), in
#: linear time.  A plain ``(?:token)*`` would retry every split of a run
#: of atom characters and is exponential on malformed input.
_TOKENS_RE = re.compile(rf"(?>{_TOKEN})*+", re.VERBOSE)

#: Bound of the atom and number parse caches.
_PARSE_CACHE_SIZE = 4096


def _tokenize(text: str) -> list[str]:
    if _TOKENS_RE.fullmatch(text):
        return _TOKEN_RE.findall(text)
    # Malformed: walk the tokens to report where tokenizing stops.
    position = 0
    while True:
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise NotationError(
                f"cannot tokenize evidence set at offset {position}: {text[position:]!r}"
            )
        position = match.end()


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_atom(token: str):
    """Interpret a bare atom: int, exact decimal/rational, or string.

    Quoted atoms are always strings; bare atoms that look numeric become
    numbers so evidence over numeric domains (for theta-predicates)
    round-trips.  Results are immutable and memoized per token.
    """
    if len(token) >= 2 and token[0] == token[-1] and token[0] in {'"', "'"}:
        body = token[1:-1]
        return body.replace("\\" + token[0], token[0]).replace("\\\\", "\\")
    try:
        return int(token)
    except ValueError:
        pass
    if re.fullmatch(r"[+-]?\d+\.\d+", token) or re.fullmatch(r"[+-]?\d+/\d+", token):
        return Fraction(token)
    return token


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_number(token: str) -> Fraction:
    """``Fraction(token)``, memoized per token (mass values repeat).

    Raises what :class:`~fractions.Fraction` raises (``ValueError``,
    ``ZeroDivisionError``); callers turn that into their own error.
    """
    return Fraction(token)


def format_atom(value: object) -> str:
    """Render a domain value; strings needing quoting get double quotes.

    A string is quoted when it contains structural characters, spells
    OMEGA, or would re-parse as a *number* (so the string ``"1/3"``
    round-trips as a string, not as a Fraction).
    """
    if isinstance(value, str):
        if (
            re.fullmatch(r"[^\[\]{},^\s'\"]+", value)
            and value not in OMEGA_SPELLINGS
            and parse_atom(value) == value
        ):
            return value
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, bool):
        return "true" if value else "false"
    # Numbers, a Fraction as "n/d" included.
    return str(value)


def format_mass_value(value: Numeric, style: str = "auto", digits: int = 3) -> str:
    """Render a mass value.

    Styles:

    * ``"auto"`` -- fractions whose denominator divides a small power of
      ten print as short decimals (``1/4`` -> ``0.25``); other fractions
      print as rationals (``1/3``); floats print rounded to *digits*.
    * ``"fraction"`` -- always rational notation (floats converted).
    * ``"decimal"`` -- always decimals rounded to *digits* (this is how
      the paper prints Table 4: 19/29 appears as 0.655).
    """
    if style not in {"auto", "fraction", "decimal"}:
        raise NotationError(f"unknown mass style {style!r}")
    if style == "fraction":
        fraction = value if isinstance(value, Fraction) else Fraction(str(value))
        return str(fraction)
    if style == "decimal":
        # repro: ignore[EXACT] -- display formatting, not arithmetic
        return _trim_decimal(f"{float(value):.{digits}f}")
    # auto
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        if 10**digits % value.denominator == 0:
            # repro: ignore[EXACT] -- display formatting, not arithmetic
            return _trim_decimal(f"{float(value):.{digits}f}")
        return str(value)
    # repro: ignore[EXACT] -- display formatting, not arithmetic
    return _trim_decimal(f"{float(value):.{digits}f}")


def _trim_decimal(text: str) -> str:
    """Strip trailing zeros (keep at least one decimal digit)."""
    if "." not in text:
        return text
    trimmed = text.rstrip("0")
    if trimmed.endswith("."):
        trimmed += "0"
    return trimmed


def format_focal_element(element: FocalElement) -> str:
    """Render a focal element: ``si``, ``{d35,d36}`` or ``Ω``."""
    if is_omega(element):
        return "Ω"
    members = sorted(element, key=lambda v: (str(type(v).__name__), str(v)))
    if len(members) == 1:
        return format_atom(members[0])
    return "{" + ",".join(format_atom(member) for member in members) + "}"


def format_evidence(m: MassFunction, style: str = "auto", digits: int = 3) -> str:
    """Render a mass function in the paper's bracketed notation.

    >>> from repro.ds import MassFunction, OMEGA
    >>> format_evidence(MassFunction({"si": "1/2", "hu": "1/4", OMEGA: "1/4"}))
    '[hu^0.25, si^0.5, Ω^0.25]'
    """
    items = [
        f"{format_focal_element(element)}^{format_mass_value(value, style, digits)}"
        for element, value in m.items()
    ]
    return "[" + ", ".join(items) + "]"


#: Tokens that cannot start a focal element.
_STRUCTURAL = frozenset({"[", "]", "{", "}", ",", "^"})


def _parse_items(tokens: list[str]) -> list[tuple[object, Fraction]]:
    """Parse tokens into ``(members, mass)`` items in text order.

    *members* is :data:`OMEGA` for an OMEGA spelling, else the list of
    parsed atoms of a set or singleton element (duplicates kept); *mass*
    is the parsed Fraction.  Nothing is merged or checked beyond the
    grammar: the builders below do that once the whole text has parsed,
    so a malformed text always raises :class:`NotationError` first.
    """
    if not tokens:
        raise NotationError("unexpected end of evidence set")
    if tokens[0] != "[":
        raise NotationError(f"expected '[', got {tokens[0]!r}")
    if len(tokens) > 1 and tokens[1] == "]":
        raise NotationError("an evidence set needs at least one focal element")
    items = []
    position = 1
    try:
        while True:
            token = tokens[position]
            position += 1
            if token in OMEGA_SPELLINGS:
                members = OMEGA
            elif token == "{":
                members = [parse_atom(tokens[position])]
                position += 1
                while True:
                    token = tokens[position]
                    position += 1
                    if token == "}":
                        break
                    if token != ",":
                        raise NotationError(
                            f"expected ',' or '}}' in set, got {token!r}"
                        )
                    members.append(parse_atom(tokens[position]))
                    position += 1
            elif token in _STRUCTURAL:
                raise NotationError(f"expected a focal element, got {token!r}")
            else:
                members = [parse_atom(token)]
            token = tokens[position]
            position += 1
            if token != "^":
                raise NotationError(f"expected '^', got {token!r}")
            token = tokens[position]
            position += 1
            try:
                value = parse_number(token)
            except (ValueError, ZeroDivisionError) as exc:
                raise NotationError(f"cannot parse mass value {token!r}") from exc
            items.append((members, value))
            token = tokens[position]
            position += 1
            if token == "]":
                break
            if token != ",":
                raise NotationError(f"expected ',' or ']', got {token!r}")
    except IndexError:
        raise NotationError("unexpected end of evidence set") from None
    if position < len(tokens):
        raise NotationError(
            f"trailing input after evidence set: {tokens[position]!r}"
        )
    return items


def _element(members) -> FocalElement:
    """The focal element a parsed item names."""
    return OMEGA if members is OMEGA else frozenset(members)


def _mass_function(items: list) -> MassFunction:
    """Unframed evidence: the items, equal elements summed, through the
    :class:`~repro.ds.mass.MassFunction` constructor."""
    masses: dict[FocalElement, Fraction] = {}
    for members, value in items:
        element = _element(members)
        masses[element] = masses[element] + value if element in masses else value
    return MassFunction(masses)


def _compiled_mass_function(items: list, frame) -> MassFunction:
    """Framed evidence, decoded straight into the kernel form.

    Each item's atoms become a mask through the frame's interned table.
    The checks are the constructor's, in its order: items naming equal
    elements are summed (an OMEGA spelling apart from the whole frame's
    set, as the text names them); then, element by element, a negative
    sum raises, a zero one is dropped, an element outside the frame
    raises the frame's :class:`~repro.errors.DomainError`, and the
    whole frame's set joins OMEGA; last the total is checked once,
    through :func:`repro.ds.mass.validate_mass_total`.  Masks are
    ordered by the table's cached sort keys, unless a member is typed
    or spelled unlike the frame value at its bit (see
    :meth:`~repro.ds.kernel.InternedFrame.repr_ordered`): then the
    parsed elements are sorted by :func:`~repro.ds.mass._focal_sort_key`
    and kept as the decoded masses, as the constructor keeps them.
    """
    interned = _kernel.intern_frame(frame)
    mask_of = interned.mask_of
    omega = interned.omega_mask
    # Summed by element: keyed by mask, by OMEGA for an OMEGA spelling,
    # and by the element itself when it is outside the frame.
    merged: dict = {}
    firsts: dict = {}
    for members, value in items:
        if members is OMEGA:
            key = OMEGA
        else:
            try:
                key = mask_of(members)
            except DomainError:
                key = frozenset(members)
        if key in merged:
            merged[key] = merged[key] + value
        else:
            merged[key] = value
            firsts[key] = members
    masses: dict[int, Fraction] = {}
    for key, value in merged.items():
        # A Fraction has the sign of its numerator.
        numerator = value.numerator
        if numerator < 0:
            raise MassFunctionError(
                f"negative mass {value!r} for {_element(firsts[key])!r}"
            )
        if not numerator:
            del firsts[key]
            continue
        if key is OMEGA:
            key = omega
        elif type(key) is frozenset:
            frame.resolve(key)  # raises the canonical DomainError
        masses[key] = masses[key] + value if key in masses else value
    _mass.validate_mass_total(masses.values())
    _kernel.STATS.bump("compilations")
    # A member the fast order might misplace sends every element down
    # the constructor's sort (the same result when none is misplaced).
    if interned.repr_ordered(firsts.values()):
        order = sorted(masses, key=interned.sort_key) if len(masses) > 1 else masses
        return MassFunction._from_compiled(
            _kernel.CompiledMass(
                interned, tuple(order), tuple([masses[mask] for mask in order])
            )
        )
    parsed = {
        OMEGA if mask == omega else frozenset(firsts[mask]): value
        for mask, value in masses.items()
    }
    order = sorted(parsed, key=_focal_sort_key)
    compiled = _kernel.CompiledMass(
        interned,
        tuple([mask_of(element) for element in order]),
        tuple([parsed[element] for element in order]),
    )
    return MassFunction._from_compiled(compiled, parsed)


def parse_evidence(text: str, frame=None) -> MassFunction:
    """Parse the paper's bracketed notation into a mass function.

    >>> m = parse_evidence("[si^0.5, hu^0.25, Ω^0.25]")
    >>> m[{"si"}]
    Fraction(1, 2)

    Masses parse to exact fractions; ``0.33`` therefore means exactly
    33/100 -- write ``1/3`` for a third.  With a *frame* the result is
    born compiled over the frame's interned table (see
    :func:`_compiled_mass_function`); without one the atoms it reads
    make its table, so it compiles on first use.
    """
    items = _parse_items(_tokenize(text))
    if frame is None:
        return _mass_function(items)
    return _compiled_mass_function(items, frame)


# The kernel imports this module (for format_atom), so it is bound last.
from repro.ds import kernel as _kernel  # noqa: E402
