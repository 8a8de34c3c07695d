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
and stored evidence repeats a small vocabulary of tokens.  Every parsed
evidence set still goes through the :class:`~repro.ds.mass.MassFunction`
constructor, which rejects negative masses and totals other than one.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from repro.errors import NotationError
from repro.ds.frame import OMEGA, FocalElement, is_omega
from repro.ds.mass import MassFunction, Numeric

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


class _Parser:
    """Recursive-descent parser for the evidence-set grammar."""

    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> str | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise NotationError("unexpected end of evidence set")
        self._index += 1
        return token

    def _expect(self, expected: str) -> None:
        token = self._next()
        if token != expected:
            raise NotationError(f"expected {expected!r}, got {token!r}")

    def parse(self) -> dict:
        self._expect("[")
        masses: dict[FocalElement, Fraction] = {}
        if self._peek() == "]":
            raise NotationError("an evidence set needs at least one focal element")
        while True:
            element = self._parse_element()
            self._expect("^")
            value = self._parse_number()
            if element in masses:
                masses[element] += value
            else:
                masses[element] = value
            token = self._next()
            if token == "]":
                break
            if token != ",":
                raise NotationError(f"expected ',' or ']', got {token!r}")
        if self._peek() is not None:
            raise NotationError(f"trailing input after evidence set: {self._peek()!r}")
        return masses

    def _parse_element(self) -> FocalElement:
        token = self._next()
        if token in OMEGA_SPELLINGS:
            return OMEGA
        if token == "{":
            members = [parse_atom(self._next())]
            while True:
                token = self._next()
                if token == "}":
                    break
                if token != ",":
                    raise NotationError(f"expected ',' or '}}' in set, got {token!r}")
                members.append(parse_atom(self._next()))
            return frozenset(members)
        if token in {"[", "]", "}", ",", "^"}:
            raise NotationError(f"expected a focal element, got {token!r}")
        return frozenset({parse_atom(token)})

    def _parse_number(self) -> Fraction:
        token = self._next()
        try:
            return parse_number(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise NotationError(f"cannot parse mass value {token!r}") from exc


def parse_evidence(text: str, frame=None) -> MassFunction:
    """Parse the paper's bracketed notation into a mass function.

    >>> m = parse_evidence("[si^0.5, hu^0.25, Ω^0.25]")
    >>> m[{"si"}]
    Fraction(1, 2)

    Masses parse to exact fractions; ``0.33`` therefore means exactly
    33/100 -- write ``1/3`` for a third.
    """
    masses = _Parser(_tokenize(text)).parse()
    return MassFunction(masses, frame)
