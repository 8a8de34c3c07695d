"""Tests for the paper's evidence-set notation (parse and format)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.errors import NotationError
from repro.ds.frame import OMEGA, FrameOfDiscernment
from repro.ds.mass import MassFunction
from repro.ds.notation import (
    _TOKEN_RE,
    _tokenize,
    format_evidence,
    format_focal_element,
    format_mass_value,
    parse_atom,
    parse_evidence,
    parse_number,
)
from tests.conftest import mass_functions


class TestParse:
    def test_paper_style_evidence(self):
        m = parse_evidence("[si^0.5, hu^0.25, Ω^0.25]")
        assert m[{"si"}] == Fraction(1, 2)
        assert m[{"hu"}] == Fraction(1, 4)
        assert m[OMEGA] == Fraction(1, 4)

    def test_set_focal_elements(self):
        m = parse_evidence("[d31^0.5, {d35,d36}^0.5]")
        assert m[{"d35", "d36"}] == Fraction(1, 2)

    def test_rational_masses(self):
        m = parse_evidence("[cantonese^1/2, {hunan,sichuan}^1/3, Ω^1/6]")
        assert m[{"hunan", "sichuan"}] == Fraction(1, 3)

    def test_omega_spellings(self):
        for spelling in ("Ω", "Θ", "omega", "theta", "*"):
            m = parse_evidence(f"[a^0.5, {spelling}^0.5]")
            assert m[OMEGA] == Fraction(1, 2)

    def test_numeric_atoms(self):
        m = parse_evidence("[{1,4}^0.6, {2,6}^0.4]")
        assert m[{1, 4}] == Fraction(3, 5)

    def test_decimal_atoms_parse_exact(self):
        m = parse_evidence("[{1.5}^1]")
        assert m[{Fraction(3, 2)}] == 1

    def test_quoted_atoms(self):
        m = parse_evidence('["hello world"^0.5, \'x,y\'^0.5]')
        assert m[{"hello world"}] == Fraction(1, 2)
        assert m[{"x,y"}] == Fraction(1, 2)

    def test_whitespace_insensitive(self):
        assert parse_evidence("[a^0.5,b^0.5]") == parse_evidence("[ a ^ 0.5 , b ^ 0.5 ]")

    def test_duplicate_elements_accumulate(self):
        m = parse_evidence("[a^0.25, a^0.25, b^0.5]")
        assert m[{"a"}] == Fraction(1, 2)

    def test_frame_attachment(self):
        frame = FrameOfDiscernment("f", ["a", "b"])
        m = parse_evidence("[a^1]", frame)
        assert m.frame == frame

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "[]",
            "[a^]",
            "[a 0.5]",
            "[a^0.5",
            "a^0.5]",
            "[a^0.5] trailing",
            "[^0.5]",
            "[a^x]",
            "[{a,}^1]",
            "[a^0.5, b^0.4]",  # masses do not sum to 1
        ],
    )
    def test_malformed_inputs_rejected(self, bad):
        with pytest.raises((NotationError, Exception)):
            parse_evidence(bad)


class TestParseAtom:
    def test_integer(self):
        assert parse_atom("42") == 42

    def test_decimal_is_exact_fraction(self):
        assert parse_atom("0.5") == Fraction(1, 2)

    def test_rational(self):
        assert parse_atom("2/3") == Fraction(2, 3)

    def test_bare_word(self):
        assert parse_atom("cantonese") == "cantonese"

    def test_quoted_string(self):
        assert parse_atom('"a b"') == "a b"


class TestFormat:
    def test_simple(self):
        m = MassFunction({"si": 1})
        assert format_evidence(m) == "[si^1]"

    def test_paper_ordering_sets_after_singletons_omega_last(self):
        m = MassFunction({OMEGA: "1/4", ("d35", "d36"): "1/4", "d31": "1/2"})
        assert format_evidence(m) == "[d31^0.5, {d35,d36}^0.25, Ω^0.25]"

    def test_decimal_style_rounds(self):
        m = MassFunction({"si": "19/29", "hu": "8/29", OMEGA: "2/29"})
        text = format_evidence(m, style="decimal", digits=3)
        assert "si^0.655" in text
        assert "hu^0.276" in text
        assert "Ω^0.069" in text

    def test_fraction_style(self):
        m = MassFunction({"a": "1/3", "b": "2/3"})
        assert format_evidence(m, style="fraction") == "[a^1/3, b^2/3]"

    def test_auto_style_uses_short_decimals(self):
        m = MassFunction({"a": "1/4", "b": "3/4"})
        assert format_evidence(m) == "[a^0.25, b^0.75]"

    def test_mass_value_styles(self):
        assert format_mass_value(Fraction(1, 3)) == "1/3"
        assert format_mass_value(Fraction(1, 2)) == "0.5"
        assert format_mass_value(Fraction(1)) == "1"
        assert format_mass_value(0.12345, digits=3) == "0.123"
        assert format_mass_value(Fraction(1, 3), style="decimal") == "0.333"

    def test_unknown_style_rejected(self):
        with pytest.raises(NotationError):
            format_mass_value(Fraction(1), style="roman")

    def test_focal_element_rendering(self):
        assert format_focal_element(OMEGA) == "Ω"
        assert format_focal_element(frozenset({"b", "a"})) == "{a,b}"
        assert format_focal_element(frozenset({"x"})) == "x"

    def test_quoting_when_needed(self):
        assert format_focal_element(frozenset({"a b"})) == '"a b"'

    def test_numeric_looking_strings_quoted(self):
        """The *string* "1/3" must not round-trip as Fraction(1, 3)."""
        assert format_focal_element(frozenset({"1/3"})) == '"1/3"'
        assert format_focal_element(frozenset({"42"})) == '"42"'
        m = MassFunction({"1/3": 1})
        assert parse_evidence(format_evidence(m)) == m

    def test_omega_spelling_strings_quoted(self):
        m = MassFunction({"omega": 1})  # the string, not the frame
        round_tripped = parse_evidence(format_evidence(m))
        assert round_tripped == m
        assert round_tripped[{"omega"}] == 1


class TestRoundTrip:
    def test_paper_tables_round_trip(self):
        texts = [
            "[si^0.5, hu^0.25, Ω^0.25]",
            "[d31^0.5, {d35,d36}^0.5]",
            "[mu^0.8, ta^0.2]",
            "[d6^1/3, d7^1/3, d25^1/3]",
        ]
        for text in texts:
            m = parse_evidence(text)
            assert parse_evidence(format_evidence(m, style="fraction")) == m


@given(m=mass_functions())
def test_format_parse_round_trip(m):
    assert parse_evidence(format_evidence(m, style="fraction")) == m


# -- tokenizer ------------------------------------------------------------------


def reference_tokenize(text: str) -> list[str]:
    """The token-by-token loop the one-pass tokenizer must agree with."""
    tokens: list[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise NotationError(
                f"cannot tokenize evidence set at offset {position}: {text[position:]!r}"
            )
        tokens.append(match.group(1))
        position = match.end()
    return tokens


def outcome(tokenize, text: str):
    try:
        return ("tokens", tokenize(text))
    except NotationError as exc:
        return ("error", str(exc))


#: Pieces the generated texts are made of: every structural character,
#: both quotes, the escape character, whitespace and a few atoms.
TOKEN_ALPHABET = [
    "[", "]", "{", "}", ",", "^", '"', "'", "\\", " ", "  ", "\t", "\n",
    "a", "si", "hu", "Ω", "omega", "*", "0.5", "1/3", "7", "-2", '"a b"',
    "'x'", '"a\\"b"',
]


class TestTokenizer:
    @given(st.lists(st.sampled_from(TOKEN_ALPHABET), max_size=40).map("".join))
    def test_matches_the_token_loop(self, text):
        assert outcome(_tokenize, text) == outcome(reference_tokenize, text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "[si^0.5, hu^0.25, Ω^0.25]",
            '["a b"^1/2, {x,"y,z"}^1/2]',
            "[a^1] ",
            "[a^1]  \n",
            ' "unterminated',
        ],
    )
    def test_examples_match_the_token_loop(self, text):
        assert outcome(_tokenize, text) == outcome(reference_tokenize, text)

    def test_malformed_input_fails_in_linear_time(self):
        """A long run of atom characters before an unparseable tail must
        fail fast.  A plain repeated-token ``fullmatch`` retries every
        split of the run and never finishes, so the tokenizer runs in a
        child process the test can time out."""
        code = (
            "import json, time\n"
            "from repro.ds.notation import _tokenize\n"
            "from repro.errors import NotationError\n"
            "text = '[' + 'a' * 10_000 + ' '\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    _tokenize(text)\n"
            "except NotationError as exc:\n"
            "    message = str(exc)\n"
            "else:\n"
            "    message = None\n"
            "print(json.dumps([time.perf_counter() - start, message]))\n"
        )
        try:
            completed = subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1])),
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("tokenizing malformed input did not finish in 30 s")
        elapsed, message = json.loads(completed.stdout)
        assert message == "cannot tokenize evidence set at offset 10001: ' '"
        assert elapsed < 1.0


class TestMemoizedParses:
    def test_atoms_are_memoized(self):
        assert parse_atom("2/3") is parse_atom("2/3")
        assert parse_atom("cantonese") == "cantonese"

    def test_numbers_are_memoized(self):
        assert parse_number("1/3") == Fraction(1, 3)
        assert parse_number("0.25") is parse_number("0.25")

    @pytest.mark.parametrize("token", ["x", "1/0", ""])
    def test_bad_numbers_raise_every_time(self, token):
        for _ in range(2):
            with pytest.raises((ValueError, ZeroDivisionError)):
                parse_number(token)

    def test_bad_mass_value_is_a_notation_error(self):
        with pytest.raises(NotationError, match="cannot parse mass value"):
            parse_evidence("[a^x]")
