import random
import sys
from fractions import Fraction as Fr

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SAMPLES, build_ref7, build_signed_inflow
from corpus import random_cao, wide_cao, wide_override
from snsq.dsl import Diagnostic, Span, parse, serialize
from snsq.model import (
    Cao,
    CarryKind,
    Entity,
    Image,
    Mode,
    Operand,
    Operator,
    Override,
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
            "    entity b = 2;\n"  # swallowed by recovery
            "    op (a:2) -> (b:1);\n"
            "}\n"
        )
        result = parse(text)
        messages = [d.message for d in result.errors]
        assert messages == ["expected ';', found 'entity'", "unknown entity 'b'"]
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

    def test_empty_input(self):
        result = parse("")
        assert not result.ok
        assert result.errors[0].message.startswith("expected 'cao'")

    def test_diagnostic_str_format(self):
        d = Diagnostic("error", "msg", Span(3, 5, 2))
        assert str(d) == "3:5: error: msg"


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


class TestTotality:
    @given(st.text())
    def test_arbitrary_text_never_crashes(self, text):
        result = parse(text)
        assert (result.cao is None) == bool(result.errors)

    @given(st.text(alphabet='cao entiyp{}();:=->#"0123456789/ \n-,', max_size=200))
    def test_near_miss_text_never_crashes(self, text):
        result = parse(text)
        assert (result.cao is None) == bool(result.errors)
