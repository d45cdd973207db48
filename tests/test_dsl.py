import random
import re
import sys
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLES, build_ref7, build_signed_inflow
from corpus import random_cao, wide_cao, wide_override
from snsq.dsl import KEYWORDS, Diagnostic, Span, _Builder, _parse, _serializable_name, parse, serialize
from snsq.model import (
    Cao,
    CarryKind,
    Entity,
    Image,
    Mode,
    Operand,
    Operator,
    Override,
    validate_cao,
)


def parse_file(name):
    return parse((SAMPLES / name).read_text(encoding="utf-8"))


class TestParsingGoodInput:
    def test_allforms7_sample_matches_handbuilt_network(self):
        result = parse_file("allforms7.sns")
        assert result.ok and result.diagnostics == ()
        assert result.cao == build_ref7()

    def test_signed_inflow_sample(self):
        result = parse_file("signed_inflow.sns")
        assert result.ok
        assert result.cao == build_signed_inflow()

    def test_drip_sample_schedule(self):
        result = parse_file("drip.sns")
        assert result.ok
        cao = result.cao
        assert cao.schedule == {
            1: (Override(0, "radix", 0, Fr(2)),),
            2: (Override(0, "radix", 0, Fr(1)),),
        }
        assert cao.operators[0].kind is CarryKind.INTEGER_FLOOR

    def test_header_defaults(self):
        cao = parse('cao "x" { entity a = 1; }').cao
        assert cao.mode is Mode.Q_PLUS
        assert cao.name == "x"
        assert cao.entities == (Entity(0, "a", 1),)

    def test_mode_header(self):
        assert parse('cao "x" mode qminus { }').cao.mode is Mode.Q_MINUS

    def test_kind_header_sets_operator_default(self):
        cao = parse(
            'cao "x" kind integer { entity a = 1; entity b = 0; op (a:2) -> (b:1); }'
        ).cao
        assert cao.operators[0].kind is CarryKind.INTEGER_FLOOR

    def test_per_operator_kind_beats_header(self):
        cao = parse(
            'cao "x" kind integer { entity a = 1; entity b = 0;'
            " op rational (a:2) -> (b:1); }"
        ).cao
        assert cao.operators[0].kind is CarryKind.RATIONAL_EXACT

    def test_shared_initial_value_declaration(self):
        cao = parse('cao "x" { entity p, q, r = 5/2; }').cao
        assert cao.entities == (
            Entity(0, "p", Fr(5, 2)),
            Entity(1, "q", Fr(5, 2)),
            Entity(2, "r", Fr(5, 2)),
        )

    def test_comments_and_whitespace(self):
        text = (
            "# top note\n"
            'cao "x" {  # body\n'
            "\tentity a = 1;# tight comment\n"
            "}\n"
        )
        result = parse(text)
        assert result.ok and result.cao.entities[0].name == "a"

    def test_at_blocks_with_same_step_merge(self):
        cao = parse(
            'cao "x" { entity a = 4; entity b = 0; op (a:2) -> (b:1);'
            " at 1 { op 0 radix a = 3; } at 1 { op 0 enabled = false; } }"
        ).cao
        assert cao.schedule == {
            1: (Override(0, "radix", 0, Fr(3)), Override(0, "enabled", None, False))
        }


class TestDiagnostics:
    def test_unknown_entity_with_span(self):
        result = parse('cao "t" {\n    entity a = 1;\n    op (b:2) -> (a:1);\n}\n')
        assert not result.ok
        (err,) = result.errors
        assert err.message == "unknown entity 'b'"
        assert err.span == Span(3, 9, 1)

    def test_duplicate_entity_name_first_wins(self):
        result = parse('cao "t" {\n    entity a = 1;\n    entity a = 2;\n}\n')
        (err,) = result.errors
        assert err.message == "duplicate entity name 'a'"
        assert err.span == Span(3, 12, 1)

    def test_keyword_cannot_name_an_entity(self):
        result = parse('cao "t" {\n    entity mode = 1;\n}\n')
        assert any(
            "keyword 'mode' cannot be used as an entity name" == d.message
            and d.span == Span(2, 12, 4)
            for d in result.errors
        )

    def test_recovery_reports_later_problems_too(self):
        text = (
            'cao "t" {\n'
            "    entity a = 1\n"  # missing semicolon
            "    entity b = 2;\n"  # parsed: recovery stops at its keyword
            "    op (b:2) -> (c:1);\n"
            "}\n"
        )
        result = parse(text)
        messages = [d.message for d in result.errors]
        assert messages == ["expected ';', found 'entity'", "unknown entity 'c'"]
        assert result.errors[0].span == Span(3, 5, 6)
        assert result.errors[1].span == Span(4, 18, 1)

    def test_validator_violations_point_at_tokens(self):
        text = 'cao "t" {\n    entity a = 1;\n    entity b = 0;\n    op (a:0) -> (b:-2);\n}\n'
        result = parse(text)
        assert not result.ok
        first, second = result.errors
        assert "non-positive radix" in first.message
        assert first.span == Span(4, 11, 1)
        assert "negative coefficient" in second.message
        assert second.span == Span(4, 20, 2)

    def test_negative_initial_points_at_value(self):
        result = parse('cao "t" {\n    entity a = -1;\n}\n')
        (err,) = result.errors
        assert "negative initial" in err.message
        assert err.span == Span(2, 16, 2)

    def test_multiple_outgoing_points_at_second_use(self):
        text = (
            'cao "t" {\n'
            "    entity a = 1;\n"
            "    entity b, c = 0;\n"
            "    op (a:2) -> (b:1);\n"
            "    op (a:3) -> (c:1);\n"
            "}\n"
        )
        result = parse(text)
        (err,) = result.errors
        assert "multiple outgoing operators" in err.message
        assert err.span == Span(5, 9, 1)

    def test_schedule_violation_spans(self):
        def with_schedule(line):
            return (
                'cao "t" {\n'
                "    entity a = 4;\n"
                "    entity b = 0;\n"
                "    op (a:2) -> (b:1);\n" + line + "\n"
                "}\n"
            )

        result = parse(with_schedule("    at 1 { op 0 radix b = 3; }"))
        (err,) = result.errors
        assert err.message.endswith("'b' is not an operand of operator 0")
        assert err.span == Span(5, 23, 1)

        result = parse(with_schedule("    at 1 { op 9 enabled = false; }"))
        (err,) = result.errors
        assert "unknown operator 9" in err.message
        assert err.span == Span(5, 15, 1)

    def test_zero_coefficient_warns_but_parses(self):
        result = parse(
            'cao "t" {\n    entity a = 4;\n    entity b = 0;\n    op (a:2) -> (b:0);\n}\n'
        )
        assert result.ok
        (warning,) = result.warnings
        assert warning.severity == "warning"
        assert "zero coefficient" in warning.message
        assert warning.span == Span(4, 20, 1)

    def test_unterminated_string(self):
        result = parse('cao "oops\n{ }\n')
        assert not result.ok
        assert any(d.message == "unterminated string" for d in result.errors)

    def test_zero_denominator_literal(self):
        result = parse('cao "t" { entity a = 1/0; }')
        assert not result.ok
        assert any("zero denominator" in d.message for d in result.errors)

    def test_literal_over_the_int_str_limit(self):
        result = parse('cao "t" { entity a = 1/' + "7" * 5000 + "; }")
        (err,) = result.errors
        limit = sys.get_int_max_str_digits()
        assert err.message == f"integer of 5000 digits exceeds the {limit}-digit limit"
        assert err.span == Span(1, 22, 5002)

    @pytest.mark.parametrize("digit", ["\u0663", "\u00b2"])  # ARABIC-INDIC THREE, SUPERSCRIPT TWO
    def test_non_ascii_digit_is_not_a_number(self, digit):
        result = parse('cao "t" { entity a = ' + digit + "; }")
        assert result.errors[0].message == f"unexpected character {digit!r}"
        assert result.errors[0].span == Span(1, 22, 1)
        assert not any("denominator" in d.message for d in result.errors)

    def test_unexpected_character(self):
        result = parse('cao "t" { entity a = 1; $ }')
        assert any(d.message == "unexpected character '$'" for d in result.errors)

    def test_fractional_step_index(self):
        result = parse('cao "t" { entity a = 1; at 1/2 { } }')
        assert any(d.message == "step index must be an integer" for d in result.errors)

    def test_trailing_text(self):
        result = parse('cao "t" { }\nextra\n')
        assert any("after the closing" in d.message for d in result.errors)

    def test_bad_mode_word(self):
        result = parse('cao "t" mode green { }')
        assert any("expected 'qplus' or 'qminus'" in d.message for d in result.errors)
        assert result.errors[0].expected == ("qplus", "qminus")

    def test_a_bad_mode_word_leaves_the_kind_clause(self):
        builder = _parse('cao "t" mode qfoo kind integer { }', _Builder())
        assert builder.default_kind is CarryKind.INTEGER_FLOOR

    def test_empty_input(self):
        result = parse("")
        assert not result.ok
        assert result.errors[0].message.startswith("expected 'cao'")

    def test_diagnostic_str_format(self):
        d = Diagnostic("error", "msg", Span(3, 5, 2))
        assert str(d) == "3:5: error: msg"



def _body(line):
    """A network whose fourth line is ``line``; its fifth names an unknown
    entity, so its diagnostic shows where parsing resumed."""
    return f'cao "t" {{\n  entity a, b = 1;\n  op (a:2) -> (b:1);\n  {line}\n  op (b:1) -> (zz:1);\n}}\n'


def _err(message, line, column, length, expected=None):
    return Diagnostic("error", message, Span(line, column, length), expected)


NEXT = _err("unknown entity 'zz'", 5, 16, 2)  # the fifth line of _body, parsed after recovery

# One malformed statement per place the parser reports a syntax error and
# resumes, with every diagnostic it reports.
RECOVERY_CASES = [
    ("header-missing-brace", 'cao "t"\n  entity a, b = 1;\n  op (a:2) -> (b:1);\n  op (b:1) -> (zz:1);\n}\n', [
        _err("expected '{', found 'entity'", 2, 3, 6, ("{",)),  # resumes at 'entity'
        _err("unknown entity 'zz'", 4, 16, 2),
    ]),
    ("header-missing-brace-before-text", 'cao "t"\n  foo = 1;\n  entity a, b = 1;\n  op (b:1) -> (zz:1);\n}\n', [
        _err("expected '{', found 'foo'", 2, 3, 3, ("{",)),  # skips through 'foo = 1;'
        _err("unknown entity 'zz'", 4, 16, 2),
    ]),
    ("header-stray-word", 'cao "t" bogus {\n  entity a, b = 1;\n  op (b:1) -> (zz:1);\n}\n', [
        _err("expected '{', found 'bogus'", 1, 9, 5, ("{",)),  # skips through the body's '{'
        _err("unknown entity 'zz'", 3, 16, 2),
    ]),
    ("header-bad-mode", 'cao "t" mode qfoo {\n  entity a, b = 1;\n  op (b:1) -> (zz:1);\n}\n', [
        _err("expected 'qplus' or 'qminus' after 'mode', found 'qfoo'", 1, 14, 4, ("qplus", "qminus")),
        _err("unknown entity 'zz'", 3, 16, 2),  # the bad word is skipped, so '{' opens the body
    ]),
    ("header-bad-kind", 'cao "t" kind wide {\n  entity a, b = 1;\n  op (b:1) -> (zz:1);\n}\n', [
        _err("expected 'rational' or 'integer' after 'kind', found 'wide'", 1, 14, 4, ("rational", "integer")),
        _err("unknown entity 'zz'", 3, 16, 2),
    ]),
    ("header-bad-mode-then-kind", 'cao "t" mode qfoo kind integer {\n  entity a, b = 1;\n  op (b:1) -> (zz:1);\n}\n', [
        _err("expected 'qplus' or 'qminus' after 'mode', found 'qfoo'", 1, 14, 4, ("qplus", "qminus")),
        _err("unknown entity 'zz'", 3, 16, 2),  # the kind clause is read, not skipped
    ]),
    ("header-mode-missing-word", 'cao "t" mode kind integer {\n  entity a, b = 1;\n  op (b:1) -> (zz:1);\n}\n', [
        _err("expected 'qplus' or 'qminus' after 'mode', found 'kind'", 1, 14, 4, ("qplus", "qminus")),
        _err("unknown entity 'zz'", 3, 16, 2),  # 'kind' is kept for the kind clause
    ]),
    ("body-stray-statement", _body("foo = 1;"), [
        _err("expected 'entity', 'op', 'at', or '}', found 'foo'", 4, 3, 3, ("entity", "op", "at", "}")),
        NEXT,
    ]),
    ("entity-missing-name", _body("entity = 1;"), [
        _err("expected an entity name, found '='", 4, 10, 1, ("an entity name",)), NEXT,
    ]),
    ("entity-missing-name-after-comma", _body("entity c, = 1;"), [
        _err("expected an entity name, found '='", 4, 13, 1, ("an entity name",)), NEXT,
    ]),
    ("entity-missing-equals", _body("entity c 1;"), [_err("expected '=', found '1'", 4, 12, 1, ("=",)), NEXT]),
    ("entity-missing-value", _body("entity c = ;"), [
        _err("expected a rational value, found ';'", 4, 14, 1, ("NUMBER",)), NEXT,
    ]),
    ("entity-missing-semicolon", _body("entity a = 1"), [  # the entity still counts: a duplicate
        _err("duplicate entity name 'a'", 4, 10, 1),
        _err("expected ';', found 'op'", 5, 3, 2, (";",)),  # resumes at 'op'
        NEXT,
    ]),
    ("op-missing-open-paren", _body("op a:2) -> (b:1);"), [_err("expected '(', found 'a'", 4, 6, 1, ("(",)), NEXT]),
    ("operand-missing-name", _body("op (:2) -> (b:1);"), [
        _err("expected an operand name, found ':'", 4, 7, 1, ("an operand name",)), NEXT,
    ]),
    ("operand-missing-colon", _body("op (a 2) -> (b:1);"), [_err("expected ':', found '2'", 4, 9, 1, (":",)), NEXT]),
    ("operand-missing-radix", _body("op (a:) -> (b:1);"), [
        _err("expected a rational value, found ')'", 4, 9, 1, ("NUMBER",)), NEXT,
    ]),
    ("operand-missing-close-paren", _body("op (a:2 -> (b:1);"), [
        _err("expected ')', found '->'", 4, 11, 2, (")",)), NEXT,
    ]),
    ("op-missing-arrow", _body("op (a:2) (b:1);"), [_err("expected '->', found '('", 4, 12, 1, ("ARROW",)), NEXT]),
    ("op-missing-image-paren", _body("op (a:2) -> b:1);"), [_err("expected '(', found 'b'", 4, 15, 1, ("(",)), NEXT]),
    ("image-missing-name", _body("op (a:2) -> (:1);"), [
        _err("expected an image name, found ':'", 4, 16, 1, ("an image name",)), NEXT,
    ]),
    ("image-missing-colon", _body("op (a:2) -> (b 1);"), [_err("expected ':', found '1'", 4, 18, 1, (":",)), NEXT]),
    ("image-missing-coefficient", _body("op (a:2) -> (b:);"), [
        _err("expected a rational value, found ')'", 4, 18, 1, ("NUMBER",)), NEXT,
    ]),
    ("image-missing-close-paren", _body("op (a:2) -> (b:1;"), [_err("expected ')', found ';'", 4, 19, 1, (")",)), NEXT]),
    ("image-missing-coefficient-after-unknown-operand", _body("op (zz:2) -> (b:);"), [
        _err("unknown entity 'zz'", 4, 7, 2),  # a pair read before the failure is still resolved
        _err("expected a rational value, found ')'", 4, 19, 1, ("NUMBER",)),
        NEXT,
    ]),
    ("op-missing-semicolon", _body("op (a:2) -> (b:1)"), [_err("expected ';', found 'op'", 5, 3, 2, (";",)), NEXT]),
    ("missing-semicolon-before-at", _body("entity c = 1 at 1 { op 0 radix zz = 1; }"), [
        _err("expected ';', found 'at'", 4, 16, 2, (";",)),  # the block is parsed, its '}' closes it
        _err("unknown entity 'zz'", 4, 34, 2),
        NEXT,
    ]),
    ("body-stray-group", _body("2 { op 0 enabled = false; }"), [
        _err("expected 'entity', 'op', 'at', or '}', found '2'", 4, 3, 1, ("entity", "op", "at", "}")),
        NEXT,  # the '{ ... }' group is skipped whole; its '}' does not close the network
    ]),
    ("at-missing-step", _body("at { op 0 enabled = false; op 0 radix zz = 1; }"), [
        _err("expected a step index, found '{'", 4, 6, 1, ("NUMBER",)),  # the block is still parsed
        _err("unknown entity 'zz'", 4, 41, 2),
        NEXT,
    ]),
    ("at-missing-brace", _body("at 1 op 0 enabled = false; op 0 radix zz = 1; }"), [
        _err("expected '{', found 'op'", 4, 8, 2, ("{",)),  # resumes at 'op'; its '}' closes the block
        _err("unknown entity 'zz'", 4, 41, 2),
        NEXT,
    ]),
    ("at-missing-brace-before-statement", _body("at 1 entity c = 1;"), [
        _err("expected '{', found 'entity'", 4, 8, 6, ("{",)),  # abandons the 'at' statement
        NEXT,
    ]),
    ("schedule-stray-statement", _body("at 1 { entity c = 1; op 0 radix zz = 1; }"), [
        _err("expected 'op' or '}' in a schedule block, found 'entity'", 4, 10, 6, ("op", "}")),
        _err("unknown entity 'zz'", 4, 35, 2),
        NEXT,
    ]),
    ("override-missing-index", _body("at 1 { op enabled = false; op 0 radix zz = 1; }"), [
        _err("expected an operator index, found 'enabled'", 4, 13, 7, ("NUMBER",)),
        _err("unknown entity 'zz'", 4, 41, 2),
        NEXT,
    ]),
    ("override-missing-name", _body("at 1 { op 0 radix = 2; op 0 radix zz = 1; }"), [
        _err("expected an entity name, found '='", 4, 21, 1, ("an entity name",)),
        _err("unknown entity 'zz'", 4, 37, 2),
        NEXT,
    ]),
    ("override-coeff-missing-name", _body("at 1 { op 0 coeff = 2; op 0 radix zz = 1; }"), [
        _err("expected an entity name, found '='", 4, 21, 1, ("an entity name",)),
        _err("unknown entity 'zz'", 4, 37, 2),
        NEXT,
    ]),
    ("override-missing-equals", _body("at 1 { op 0 radix a 2; op 0 radix zz = 1; }"), [
        _err("expected '=', found '2'", 4, 23, 1, ("=",)),
        _err("unknown entity 'zz'", 4, 37, 2),
        NEXT,
    ]),
    ("override-missing-value", _body("at 1 { op 0 coeff b = ; op 0 radix zz = 1; }"), [
        _err("expected a rational value, found ';'", 4, 25, 1, ("NUMBER",)),
        _err("unknown entity 'zz'", 4, 38, 2),
        NEXT,
    ]),
    ("override-abandoned-name-not-resolved", _body("at 1 { op 0 radix zz = ; op 0 radix zz = 1; }"), [
        _err("expected a rational value, found ';'", 4, 26, 1, ("NUMBER",)),  # the first 'zz' is not reported
        _err("unknown entity 'zz'", 4, 39, 2),
        NEXT,
    ]),
    ("override-value-missing-semicolon", _body("at 1 { op 0 radix zz = 3 op 0 enabled = true; }"), [
        _err("unknown entity 'zz'", 4, 21, 2),  # the override still counts: its name is resolved
        _err("expected ';', found 'op'", 4, 28, 2, (";",)),
        NEXT,
    ]),
    ("override-missing-semicolon-before-brace", _body("at 1 { op 0 coeff zz = 2 }"), [
        _err("unknown entity 'zz'", 4, 21, 2),  # the override still counts
        _err("expected ';', found '}'", 4, 28, 1, (";",)),
        NEXT,
    ]),
    ("enabled-missing-equals", _body("at 1 { op 0 enabled false; op 0 radix zz = 1; }"), [
        _err("expected '=', found 'false'", 4, 23, 5, ("=",)),
        _err("unknown entity 'zz'", 4, 41, 2),
        NEXT,
    ]),
    ("enabled-bad-flag", _body("at 1 { op 0 enabled = maybe; op 0 radix zz = 1; }"), [
        _err("expected 'true' or 'false', found 'maybe'", 4, 25, 5, ("true", "false")),
        _err("unknown entity 'zz'", 4, 43, 2),
        NEXT,
    ]),
    ("enabled-number-flag", _body("at 1 { op 0 enabled = 1; op 0 radix zz = 1; }"), [
        _err("expected 'true' or 'false', found '1'", 4, 25, 1, ("true", "false")),
        _err("unknown entity 'zz'", 4, 39, 2),
        NEXT,
    ]),
    ("enabled-missing-semicolon", _body("at 1 { op 0 enabled = false op 0 radix zz = 1; }"), [
        _err("expected ';', found 'op'", 4, 31, 2, (";",)),  # resumes at 'op'
        _err("unknown entity 'zz'", 4, 42, 2),
        NEXT,
    ]),
    ("override-bad-field", _body("at 1 { op 0 speed a = 1; op 0 radix zz = 1; }"), [
        _err("expected 'radix', 'coeff', or 'enabled', found 'speed'", 4, 15, 5, ("radix", "coeff", "enabled")),
        _err("unknown entity 'zz'", 4, 39, 2),
        NEXT,
    ]),
    ("override-negative-index", _body("at 1 { op -1 enabled = false; op 0 radix zz = 1; }"), [
        _err("operator index must be a non-negative integer", 4, 13, 2),  # the statement is read on
        _err("unknown entity 'zz'", 4, 44, 2),
        NEXT,
    ]),
    ("override-fractional-index", _body("at 1 { op 1/2 enabled = false; op 0 radix zz = 1; }"), [
        _err("operator index must be a non-negative integer", 4, 13, 3),
        _err("unknown entity 'zz'", 4, 45, 2),
        NEXT,
    ]),
]


class TestRecoveryPaths:
    """Every way a statement can fail, pinned to its exact diagnostics."""

    @pytest.mark.parametrize(
        "text, expected", [pytest.param(t, d, id=i) for i, t, d in RECOVERY_CASES]
    )
    def test_diagnostics_are_pinned(self, text, expected):
        result = parse(text)
        assert result.diagnostics == tuple(expected)
        assert result.cao is None


def _network(line):
    """A clean network of four entities and one operator, plus ``line`` as its fifth line."""
    return f'cao "t" {{\n  entity a, b = 1;\n  entity c, d = 0;\n  op (a:2) -> (b:1);\n  {line}\n}}\n'


# One syntax-clean text per structural rule the validator can report for a
# parsed file, with the one diagnostic it gets and the token that carries it;
# an empty schedule block is a step too, so its step is checked as well.
VIOLATION_CASES = [
    ("negative-initial", "entity e = -1/2;",
     _err("negative initial cardinal -1/2 for entity 'e'", 5, 14, 4)),
    ("non-positive-radix", "op (c:0) -> (d:1);",
     _err("non-positive radix 0 for operand 'c' of operator 1", 5, 9, 1)),
    ("duplicate-operand", "op (c:1, c:2) -> (d:1);",
     _err("duplicate operand 'c' in operator 1", 5, 12, 1)),
    ("multiple-outgoing", "op (c:1, a:3) -> (d:1);",
     _err("entity 'a' has multiple outgoing operators (already an operand of operator 0)", 5, 12, 1)),
    ("self-loop", "op (c:2) -> (d:1, c:1);",
     _err("operator 1 maps entity 'c' to itself", 5, 21, 1)),
    ("duplicate-image", "op (c:2) -> (d:1, d:2);",
     _err("duplicate image 'd' in operator 1", 5, 21, 1)),
    ("negative-coefficient", "op (c:2) -> (b:1, d:-3);",
     _err("negative coefficient -3 toward image 'd' (qplus mode forbids signs)", 5, 23, 2)),
    ("schedule-negative-step", "at -1 { op 0 enabled = false; }",
     _err("negative schedule step -1", 5, 6, 2)),
    ("schedule-negative-step-empty-block", "at -1 { }",
     _err("negative schedule step -1", 5, 6, 2)),
    ("schedule-bad-operator", "at 1 { op 0 enabled = true; op 5 enabled = false; }",
     _err("schedule step 1 targets unknown operator 5", 5, 34, 1)),
    ("schedule-not-operand", "at 1 { op 0 radix b = 2; }",
     _err("schedule step 1: 'b' is not an operand of operator 0", 5, 21, 1)),
    ("schedule-not-image", "at 2 { op 0 enabled = true; } at 2 { op 0 coeff a = 2; }",  # slot 1 of step 2
     _err("schedule step 2: 'a' is not an image of operator 0", 5, 51, 1)),
    ("schedule-non-positive-radix", "at 3 { op 0 radix a = 0; }",
     _err("schedule step 3: non-positive radix 0 for operand 'a'", 5, 25, 1)),
    ("schedule-negative-coefficient", "at 1 { op 0 coeff b = -2; }",
     _err("schedule step 1: negative coefficient -2 toward image 'b' (qplus mode forbids signs)", 5, 25, 2)),
]


class TestViolationSpans:
    """Every structural rule a parsed file can break, pinned to its message and token."""

    @pytest.mark.parametrize(
        "line, expected", [pytest.param(line, d, id=i) for i, line, d in VIOLATION_CASES]
    )
    def test_violation_points_at_its_token(self, line, expected):
        result = parse(_network(line))
        assert result.diagnostics == (expected,)
        assert result.cao is None

    def test_zero_coefficient_warning_points_at_the_coefficient(self):
        result = parse(_network("op (c:2) -> (d:0);"))
        assert result.diagnostics == (
            Diagnostic("warning", "zero coefficient toward image 'd' has no effect", Span(5, 18, 1)),
        )
        assert result.ok

    def test_violation_and_warning_in_one_file(self):
        result = parse(_network("op (c:0) -> (d:0);"))
        assert result.diagnostics == (
            _err("non-positive radix 0 for operand 'c' of operator 1", 5, 9, 1),
            Diagnostic("warning", "zero coefficient toward image 'd' has no effect", Span(5, 18, 1)),
        )
        assert result.cao is None


class TestLexing:
    """Edge cases of how text splits into tokens, pinned to exact spans."""

    def test_non_ascii_names(self):
        cao = parse('cao "x" { entity \u00e9, \u00df_1 = 1; entity a\u00b2 = 2; }').cao
        assert cao.entity_names() == ("\u00e9", "\u00df_1", "a\u00b2")

    def test_tab_and_crlf_count_one_column_each(self):
        text = 'cao "t" {\r\n\tentity a = 1;\r\n\top (a:2) -> (zz:1);\r\n}\r\n'
        (err,) = parse(text).diagnostics
        assert err.message == "unknown entity 'zz'"
        assert err.span == Span(3, 15, 2)

    def test_comment_at_end_of_input_without_newline(self):
        assert parse('cao "t" { entity a = 1; }  # end').ok
        (err,) = parse('cao "t" { entity a = 1; # end').diagnostics
        assert err.message == "expected '}', found end of input"
        assert err.span == Span(1, 25, 0)

    @pytest.mark.parametrize("line", ["op (a:2) -> (zz:1);", "op (a:0) -> (b:1);", "op (a:2) -> (b:0);"])
    def test_one_leading_byte_order_mark_is_dropped(self, line):
        text = f'cao "t" {{\n  entity a, b = 1;\n  {line}\n}}\n'
        assert parse(text).diagnostics  # an unknown name, a violation and a warning keep their spans
        assert parse("\ufeff" + text) == parse(text)

    def test_a_byte_order_mark_elsewhere_is_an_error(self):
        for text, span in [('\ufeff\ufeffcao "t" { }', Span(1, 1, 1)), ('cao "t" {\n\ufeff}\n', Span(2, 1, 1))]:
            (err,) = parse(text).diagnostics
            assert (err.message, err.span) == ("unexpected character '\\ufeff'", span)

    def test_slash_without_denominator_digits(self):
        (err,) = parse('cao "t" { entity a = 1/; }').diagnostics
        assert (err.message, err.span) == ("unexpected character '/'", Span(1, 23, 1))
        slash, semicolon = parse('cao "t" { entity a = 1/x; }').diagnostics
        assert (slash.message, slash.span) == ("unexpected character '/'", Span(1, 23, 1))
        assert (semicolon.message, semicolon.span) == ("expected ';', found 'x'", Span(1, 24, 1))

    def test_lone_minus_before_a_space(self):
        (err,) = parse('cao "t" { entity a = - 1; }').diagnostics
        assert (err.message, err.span) == ("unexpected character '-'", Span(1, 22, 1))

    def test_unterminated_string_runs_to_end_of_input(self):
        result = parse('cao "x { entity a = 1; }')
        assert [(d.message, d.span) for d in result.diagnostics] == [
            ("unterminated string", Span(1, 5, 20)),
            ("expected '{', found end of input", Span(1, 25, 0)),
            ("expected '}', found end of input", Span(1, 25, 0)),
        ]
        (err,) = parse('cao "x \t\r\n{ }').diagnostics  # blanks at the end of the line count
        assert (err.message, err.span) == ("unterminated string", Span(1, 5, 5))

    def test_text_after_the_closing_brace_is_still_lexed(self):
        result = parse('cao "x" { entity a = 1; } foo $')
        assert [(d.message, d.span) for d in result.diagnostics] == [
            ("unexpected text after the closing '}'", Span(1, 27, 3)),
            ("unexpected character '$'", Span(1, 31, 1)),
        ]


GOLDEN = Cao(
    "tiny",
    (Entity(0, "a", Fr(3, 2)), Entity(1, "b", 0)),
    (Operator(CarryKind.INTEGER_FLOOR, (Operand(0, 2),), (Image(1, Fr(1, 3)),)),),
    Mode.Q_MINUS,
    {2: (Override(0, "enabled", None, False), Override(0, "coeff", 1, Fr(-1, 2)))},
)

GOLDEN_TEXT = """\
cao "tiny" mode qminus {
    entity a = 3/2;
    entity b = 0;
    op integer (a:2) -> (b:1/3);
    at 2 {
        op 0 enabled = false;
        op 0 coeff b = -1/2;
    }
}
"""


class TestSerialization:
    def test_canonical_layout(self):
        assert serialize(GOLDEN) == GOLDEN_TEXT

    def test_golden_round_trip(self):
        assert parse(GOLDEN_TEXT).cao == GOLDEN

    def test_ref7_round_trip(self):
        ref7 = build_ref7()
        assert parse(serialize(ref7)).cao == ref7

    @pytest.mark.parametrize("name", ["allforms7.sns", "signed_inflow.sns", "drip.sns"])
    def test_sample_files_round_trip(self, name):
        cao = parse_file(name).cao
        assert parse(serialize(cao)).cao == cao
        # canonical text is a fixed point of serialize . parse
        assert serialize(parse(serialize(cao)).cao) == serialize(cao)

    def test_empty_step_round_trip(self):
        ref7 = build_ref7()
        schedule = {0: (), 3: (Override(0, "enabled", None, False),), 5: ()}
        cao = Cao(ref7.name, ref7.entities, ref7.operators, ref7.mode, schedule)
        assert validate_cao(cao) == []
        assert "    at 5 {\n    }\n" in serialize(cao)
        assert parse(serialize(cao)).cao == cao

    def test_corpus_round_trip(self):
        rng = random.Random(2024)
        for case in range(40):
            cao = random_cao(rng, name=f"rt{case}")
            reparsed = parse(serialize(cao))
            assert reparsed.cao == cao, serialize(cao)

    def test_wide_network_round_trip(self):
        rng = random.Random(4096)
        for case in range(20):
            cao = wide_cao(rng, with_schedule=case % 2 == 1, name=f"wide{case}")
            assert parse(serialize(cao)).cao == cao, serialize(cao)
        base = wide_cao(rng, name="long")
        schedule = {k: (wide_override(rng, base.operators),) for k in range(200)}
        cao = Cao(base.name, base.entities, base.operators, base.mode, schedule)
        assert parse(serialize(cao)).cao == cao

    def test_values_past_the_int_str_limit(self):
        big = Fr(10**5000, 3)
        text = serialize(Cao("big", (Entity(0, "a", big),)))
        assert "    entity a = 1" + "0" * 5000 + "/3;\n" in text
        # parsing keeps its guard: such a literal is a precise diagnostic
        (err,) = parse(text).errors
        assert err.message.startswith("integer of 5001 digits exceeds the")

    def test_unrepresentable_networks_are_refused(self):
        with pytest.raises(ValueError):
            serialize(Cao('has"quote'))
        with pytest.raises(ValueError):
            serialize(Cao("t", (Entity(0, "mode", 1),)))
        with pytest.raises(ValueError):
            serialize(Cao("t", (Entity(0, "0day", 1),)))
        disabled = Cao(
            "t",
            (Entity(0, "a", 1), Entity(1, "b", 0)),
            (Operator(CarryKind.RATIONAL_EXACT, (Operand(0, 2),), (Image(1, 1),), enabled=False),),
        )
        with pytest.raises(ValueError):
            serialize(disabled)


def identifier_rule(name):
    """The NAME rule written out by character: a letter or '_', then letters,
    digits or '_', and no keyword."""
    if not name or name in KEYWORDS or not (name[0].isalpha() or name[0] == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in name)


def assert_names_follow_the_lexer(code_points):
    for c in map(chr, code_points):
        for name in (c, "a" + c, c + "a", "_" + c):
            assert _serializable_name(name) == identifier_rule(name), repr(name)


class TestNameRule:
    """``serialize`` accepts exactly the entity names the lexer reads as one NAME."""

    def test_edge_names(self):
        for name in ["", *sorted(KEYWORDS), "a b", "a#", "a\n", " a", "0day", "é2", "a²", "²"]:
            assert _serializable_name(name) == identifier_rule(name), repr(name)

    def test_a_slice_of_the_basic_plane(self):
        assert_names_follow_the_lexer(range(0x3000))

    def test_accepted_names_round_trip(self):
        names = [n for n in map(chr, range(0x80, 0x3000, 7)) if _serializable_name(n)]
        assert len(names) > 300
        cao = Cao("names", tuple(Entity(i, name, i) for i, name in enumerate(names)))
        assert parse(serialize(cao)).cao == cao

    @pytest.mark.slow
    def test_every_code_point(self):
        assert_names_follow_the_lexer(range(sys.maxunicode + 1))


SAMPLE_TEXTS = tuple(path.read_text(encoding="utf-8") for path in sorted(SAMPLES.glob("*.sns")))

# Pieces of the grammar to drop into well-formed text, so the parser meets
# errors deep inside statements and schedule blocks, not only in the header.
PIECES = (
    ";", "}", "{", "(", ")", ",", ":", "=", "->", "op", "at", "entity", "radix",
    "coeff", "enabled", "true", "1/0", "-1", "7", "a", '"', "#", "\n",
)


@st.composite
def mutated_networks(draw):
    """A sample file or a serialized random network with a schedule, given
    one to four edits: a dropped token, a deleted slice, an inserted grammar
    piece, or two slices swapped."""
    text = draw(
        st.one_of(
            st.sampled_from(SAMPLE_TEXTS),
            st.integers(0, 2**32 - 1).map(
                lambda seed: serialize(random_cao(random.Random(seed), with_schedule=True))
            ),
        )
    )
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("drop", "delete", "insert", "swap")))
        if edit == "drop":
            tokens = [m.span() for m in re.finditer(r"->|[\w/-]+|\S", text)]
            i, j = draw(st.sampled_from(tokens))
            text = text[:i] + text[j:]
            continue
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "insert":
            text = text[:i] + draw(st.sampled_from(PIECES)) + text[i:]
        else:
            k = draw(st.integers(j, len(text)))
            end = draw(st.integers(k, min(len(text), k + 12)))
            text = text[:i] + text[k:end] + text[j:k] + text[i:j] + text[end:]
    return text


def assert_total(result):
    assert (result.cao is None) == bool(result.errors)
    positions = [(d.span.line, d.span.column) for d in result.diagnostics]
    assert positions == sorted(positions)


class TestTotality:
    @given(st.text())
    def test_arbitrary_text_never_crashes(self, text):
        assert_total(parse(text))

    @given(st.text(alphabet='cao entiyp{}();:=->#"0123456789/ \n-,', max_size=200))
    def test_near_miss_text_never_crashes(self, text):
        assert_total(parse(text))

    @settings(derandomize=True, max_examples=150)
    @given(mutated_networks())
    def test_mutated_networks_never_crash(self, text):
        assert_total(parse(text))

    @pytest.mark.slow
    @settings(max_examples=5000, deadline=None)
    @given(mutated_networks())
    def test_mutated_networks_sweep(self, text):
        assert_total(parse(text))
