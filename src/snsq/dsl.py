"""Text form for networks: parser, diagnostics, and canonical serializer.

The format is line-oriented and small::

    # comments run to end of line
    cao "name" mode qplus kind rational {
        entity i, j = 0;                    # shared initial value
        op integer (i:10, j:8) -> (d:1, s:2);
        at 1 { op 0 radix i = 4; op 1 enabled = false; }
    }

Rationals are ``digits`` or ``digits/digits`` with an optional leading minus.
The ``mode`` and ``kind`` headers are optional (default ``qplus`` and
``rational``); a per-operator kind overrides the header. Operator form is
never written down — it follows from how many operands and images appear.

Parsing is total: any input, including binary garbage, yields a
:class:`ParseResult` whose diagnostics carry 1-based line/column spans.
After an error the parser skips to the next ``;`` or ``}`` and resumes, so
one run reports every problem it can reach. Structural rule violations
(duplicate operands, negative coefficients outside qminus, ...) are checked
once the file is syntactically clean and reported through the same
diagnostic channel, pointed at the offending token.

:func:`serialize` renders a network in a fixed canonical layout; parsing it
back reproduces the network exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from snsq.model import (
    Cao,
    CarryKind,
    Entity,
    Image,
    Mode,
    Operand,
    Operator,
    Override,
    Violation,
    validate_cao,
)
from snsq.rationals import format_rational, parse_rational

KEYWORDS = frozenset(
    {
        "cao", "mode", "qplus", "qminus", "kind", "rational", "integer",
        "entity", "op", "at", "radix", "coeff", "enabled", "true", "false",
    }
)

_PUNCT = "{}(),;:="
_DIGITS = frozenset("0123456789")  # the digits parse_rational accepts; str.isdigit takes more


@dataclass(frozen=True)
class Span:
    """A slice of source text: 1-based line and column, length in characters."""

    line: int
    column: int
    length: int


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: Span
    expected: tuple[str, ...] | None = None

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.column}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class ParseResult:
    """Outcome of a parse: the network (None whenever any error was reported)
    plus every diagnostic, sorted by source position."""

    cao: Cao | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.cao is not None

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")


@dataclass(frozen=True)
class _Token:
    type: str  # NAME, KEYWORD, NUMBER, STRING, ARROW, one of _PUNCT, EOF
    text: str
    span: Span
    value: object = None  # Fraction for NUMBER, str payload for STRING


def _lex(text: str, diags: list[Diagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = col
        if c == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] == "\n":
                diags.append(
                    Diagnostic("error", "unterminated string", Span(line, start, j - i))
                )
                tokens.append(_Token("STRING", text[i:j], Span(line, start, j - i), text[i + 1 : j]))
                col += j - i
                i = j
                continue
            tokens.append(
                _Token("STRING", text[i : j + 1], Span(line, start, j + 1 - i), text[i + 1 : j])
            )
            col += j + 1 - i
            i = j + 1
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("ARROW", "->", Span(line, start, 2)))
            i += 2
            col += 2
            continue
        if c in _DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            # a slash joins the literal only when digits follow it directly
            if j + 1 < n and text[j] == "/" and text[j + 1] in _DIGITS:
                j += 2
                while j < n and text[j] in _DIGITS:
                    j += 1
            lexeme = text[i:j]
            span = Span(line, start, j - i)
            try:
                value = parse_rational(lexeme)
            except ValueError as err:
                diags.append(Diagnostic("error", str(err), span))
                value = Fraction(0)
            tokens.append(_Token("NUMBER", lexeme, span, value))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            lexeme = text[i:j]
            ttype = "KEYWORD" if lexeme in KEYWORDS else "NAME"
            tokens.append(_Token(ttype, lexeme, Span(line, start, j - i), lexeme))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            tokens.append(_Token(c, c, Span(line, start, 1)))
            i += 1
            col += 1
            continue
        diags.append(Diagnostic("error", f"unexpected character {c!r}", Span(line, start, 1)))
        i += 1
        col += 1
    tokens.append(_Token("EOF", "", Span(line, col, 0)))
    return tokens


@dataclass
class _OpSpans:
    keyword: Span
    operands: list[tuple[Span, Span]]  # (name, radix) per slot
    images: list[tuple[Span, Span]]  # (name, coefficient) per slot


@dataclass
class _OverrideSpans:
    op_index: Span
    entity: Span | None
    value: Span


@dataclass
class _Builder:
    """Accumulates the network plus the token spans each piece came from,
    so structural violations can be pointed back at source text."""

    name: str = ""
    mode: Mode = Mode.Q_PLUS
    default_kind: CarryKind = CarryKind.RATIONAL_EXACT
    entities: list[Entity] = field(default_factory=list)
    by_name: dict[str, int] = field(default_factory=dict)
    entity_spans: list[tuple[Span, Span]] = field(default_factory=list)
    operators: list[Operator] = field(default_factory=list)
    op_spans: list[_OpSpans] = field(default_factory=list)
    schedule: dict[int, list[Override]] = field(default_factory=dict)
    override_spans: dict[tuple[int, int], _OverrideSpans] = field(default_factory=dict)
    step_spans: dict[int, Span] = field(default_factory=dict)

    def add_entity(self, name: str, name_span: Span, value: Fraction, value_span: Span) -> Diagnostic | None:
        if name in self.by_name:
            return Diagnostic("error", f"duplicate entity name '{name}'", name_span)
        self.by_name[name] = len(self.entities)
        self.entities.append(Entity(len(self.entities), name, value))
        self.entity_spans.append((name_span, value_span))
        return None

    def add_operator(
        self,
        kw: Span,
        kind: CarryKind,
        operands: list[tuple[int | None, Fraction]],
        ospans: list[tuple[Span, Span]],
        images: list[tuple[int | None, Fraction]],
        ispans: list[tuple[Span, Span]],
    ) -> None:
        if any(e is None for e, _ in operands) or any(e is None for e, _ in images):
            return  # unresolved names already reported; the file cannot build
        self.operators.append(
            Operator(
                kind,
                tuple(Operand(e, v) for e, v in operands),
                tuple(Image(e, v) for e, v in images),
            )
        )
        self.op_spans.append(_OpSpans(kw, ospans, ispans))

    def add_override(
        self, step: int, ov: Override, op_span: Span, ent_span: Span | None, val_span: Span
    ) -> None:
        slot = len(self.schedule.setdefault(step, []))
        self.schedule[step].append(ov)
        self.override_spans[(step, slot)] = _OverrideSpans(op_span, ent_span, val_span)

    def build(self) -> Cao:
        return Cao(
            self.name,
            tuple(self.entities),
            tuple(self.operators),
            self.mode,
            {k: tuple(v) for k, v in self.schedule.items()},
        )

    def span_for(self, v: Violation) -> Span:
        if v.code == "negative-initial" and v.entity is not None:
            return self.entity_spans[v.entity][1]
        if v.operator is not None and v.operator < len(self.op_spans):
            spans = self.op_spans[v.operator]
            if v.code == "non-positive-radix" and v.operand is not None:
                return spans.operands[v.operand][1]
            if v.code in ("duplicate-operand", "multiple-outgoing") and v.operand is not None:
                return spans.operands[v.operand][0]
            if v.code in ("self-loop", "duplicate-image") and v.image is not None:
                return spans.images[v.image][0]
            if v.code == "negative-coefficient" and v.image is not None:
                return spans.images[v.image][1]
            if v.step is None:
                return spans.keyword
        if v.step is not None:
            key = (v.step, v.override)
            if key in self.override_spans:
                spans = self.override_spans[key]
                if v.code == "schedule-bad-operator":
                    return spans.op_index
                if v.code in ("schedule-not-operand", "schedule-not-image"):
                    return spans.entity or spans.value
                return spans.value
            if v.step in self.step_spans:
                return self.step_spans[v.step]
        return Span(1, 1, 1)


class _Parser:
    def __init__(self, tokens: list[_Token], diags: list[Diagnostic]):
        self.toks = tokens
        self.pos = 0
        self.diags = diags

    @property
    def cur(self) -> _Token:
        return self.toks[self.pos]

    def at(self, ttype: str, text: str | None = None) -> bool:
        t = self.cur
        return t.type == ttype and (text is None or t.text == text)

    def advance(self) -> _Token:
        t = self.cur
        if t.type != "EOF":
            self.pos += 1
        return t

    def error(self, message: str, span: Span | None = None, expected: tuple[str, ...] | None = None) -> None:
        self.diags.append(Diagnostic("error", message, span or self.cur.span, expected))

    def _found(self) -> str:
        return "end of input" if self.cur.type == "EOF" else repr(self.cur.text)

    def expect(self, ttype: str, text: str | None = None, what: str | None = None) -> _Token | None:
        if self.at(ttype, text):
            return self.advance()
        want = what or repr(text or ttype)
        self.error(f"expected {want}, found {self._found()}", expected=(text or ttype,))
        return None

    def expect_name(self, what: str) -> _Token | None:
        if self.at("NAME"):
            return self.advance()
        if self.at("KEYWORD"):
            tok = self.cur
            self.error(f"keyword '{tok.text}' cannot be used as {what}", tok.span)
            return self.advance()
        self.error(f"expected {what}, found {self._found()}", expected=(what,))
        return None

    def recover(self) -> None:
        """Skip ahead to the next ';' (consumed) or '}' (left in place)."""
        while not self.at("EOF"):
            if self.at(";"):
                self.advance()
                return
            if self.at("}"):
                return
            self.advance()

    # --- grammar -----------------------------------------------------------

    def parse_cao(self) -> _Builder | None:
        if self.expect("KEYWORD", "cao", "'cao'") is None:
            return None
        b = _Builder()
        name_tok = self.expect("STRING", what="a quoted network name")
        if name_tok is not None:
            b.name = str(name_tok.value)
        if self.at("KEYWORD", "mode"):
            self.advance()
            if self.at("KEYWORD", "qplus") or self.at("KEYWORD", "qminus"):
                b.mode = Mode(self.advance().text)
            else:
                self.error(
                    f"expected 'qplus' or 'qminus' after 'mode', found {self._found()}",
                    expected=("qplus", "qminus"),
                )
        if self.at("KEYWORD", "kind"):
            self.advance()
            if self.at("KEYWORD", "rational") or self.at("KEYWORD", "integer"):
                b.default_kind = CarryKind(self.advance().text)
            else:
                self.error(
                    f"expected 'rational' or 'integer' after 'kind', found {self._found()}",
                    expected=("rational", "integer"),
                )
        if self.expect("{", what="'{'") is None:
            self.recover()
        while not self.at("}") and not self.at("EOF"):
            if self.at("KEYWORD", "entity"):
                self.parse_entity(b)
            elif self.at("KEYWORD", "op"):
                self.parse_op(b)
            elif self.at("KEYWORD", "at"):
                self.parse_at(b)
            else:
                self.error(
                    f"expected 'entity', 'op', 'at', or '}}', found {self._found()}",
                    expected=("entity", "op", "at", "}"),
                )
                self.recover()
        self.expect("}", what="'}'")
        if not self.at("EOF"):
            self.error("unexpected text after the closing '}'")
        return b

    def parse_entity(self, b: _Builder) -> None:
        self.advance()  # entity
        names: list[_Token] = []
        tok = self.expect_name("an entity name")
        if tok is None:
            self.recover()
            return
        names.append(tok)
        while self.at(","):
            self.advance()
            tok = self.expect_name("an entity name")
            if tok is None:
                self.recover()
                return
            names.append(tok)
        if self.expect("=", what="'='") is None:
            self.recover()
            return
        num = self.expect("NUMBER", what="a rational value")
        if num is None:
            self.recover()
            return
        if self.expect(";", what="';'") is None:
            self.recover()
        for tok in names:
            dup = b.add_entity(tok.text, tok.span, num.value, num.span)
            if dup is not None:
                self.diags.append(dup)

    def _resolve(self, b: _Builder, tok: _Token) -> int | None:
        idx = b.by_name.get(tok.text)
        if idx is None:
            self.error(f"unknown entity '{tok.text}'", tok.span)
        return idx

    def parse_pairs(
        self, b: _Builder, what: str
    ) -> tuple[list[tuple[int | None, Fraction]], list[tuple[Span, Span]], bool]:
        """``NAME : NUMBER`` pairs separated by commas, through the closing ')'."""
        pairs: list[tuple[int | None, Fraction]] = []
        spans: list[tuple[Span, Span]] = []
        while True:
            name_tok = self.expect_name(f"an {what} name")
            if name_tok is None:
                return pairs, spans, False
            if self.expect(":", what="':'") is None:
                return pairs, spans, False
            num = self.expect("NUMBER", what="a rational value")
            if num is None:
                return pairs, spans, False
            pairs.append((self._resolve(b, name_tok), num.value))
            spans.append((name_tok.span, num.span))
            if self.at(","):
                self.advance()
                continue
            break
        if self.expect(")", what="')'") is None:
            return pairs, spans, False
        return pairs, spans, True

    def parse_op(self, b: _Builder) -> None:
        kw = self.advance()  # op
        kind = b.default_kind
        if self.at("KEYWORD", "rational") or self.at("KEYWORD", "integer"):
            kind = CarryKind(self.advance().text)
        if self.expect("(", what="'('") is None:
            self.recover()
            return
        operands, ospans, ok = self.parse_pairs(b, "operand")
        if not ok:
            self.recover()
            return
        if self.expect("ARROW", what="'->'") is None:
            self.recover()
            return
        if self.expect("(", what="'('") is None:
            self.recover()
            return
        images, ispans, ok = self.parse_pairs(b, "image")
        if not ok:
            self.recover()
            return
        if self.expect(";", what="';'") is None:
            self.recover()
        b.add_operator(kw.span, kind, operands, ospans, images, ispans)

    def parse_at(self, b: _Builder) -> None:
        self.advance()  # at
        num = self.expect("NUMBER", what="a step index")
        if num is None:
            self.recover()
            return
        step_value = num.value
        if step_value.denominator != 1:
            self.error("step index must be an integer", num.span)
            step = 0
        else:
            step = int(step_value)
        b.step_spans.setdefault(step, num.span)
        if self.expect("{", what="'{'") is None:
            self.recover()
            return
        while not self.at("}") and not self.at("EOF"):
            if self.at("KEYWORD", "op"):
                self.parse_override(b, step)
            else:
                self.error(
                    f"expected 'op' or '}}' in a schedule block, found {self._found()}",
                    expected=("op", "}"),
                )
                self.recover()
        self.expect("}", what="'}'")

    def parse_override(self, b: _Builder, step: int) -> None:
        self.advance()  # op
        idx_tok = self.expect("NUMBER", what="an operator index")
        if idx_tok is None:
            self.recover()
            return
        if idx_tok.value.denominator != 1 or idx_tok.value < 0:
            self.error("operator index must be a non-negative integer", idx_tok.span)
            opidx = 0
        else:
            opidx = int(idx_tok.value)
        if self.at("KEYWORD", "radix") or self.at("KEYWORD", "coeff"):
            field_tok = self.advance()
            name_tok = self.expect_name("an entity name")
            if name_tok is None:
                self.recover()
                return
            if self.expect("=", what="'='") is None:
                self.recover()
                return
            num = self.expect("NUMBER", what="a rational value")
            if num is None:
                self.recover()
                return
            if self.expect(";", what="';'") is None:
                self.recover()
            ent = self._resolve(b, name_tok)
            if ent is not None:
                b.add_override(
                    step,
                    Override(opidx, field_tok.text, ent, num.value),
                    idx_tok.span,
                    name_tok.span,
                    num.span,
                )
        elif self.at("KEYWORD", "enabled"):
            self.advance()
            if self.expect("=", what="'='") is None:
                self.recover()
                return
            if self.at("KEYWORD", "true") or self.at("KEYWORD", "false"):
                val_tok = self.advance()
            else:
                self.error(
                    f"expected 'true' or 'false', found {self._found()}",
                    expected=("true", "false"),
                )
                self.recover()
                return
            if self.expect(";", what="';'") is None:
                self.recover()
            b.add_override(
                step,
                Override(opidx, "enabled", None, val_tok.text == "true"),
                idx_tok.span,
                None,
                val_tok.span,
            )
        else:
            self.error(
                f"expected 'radix', 'coeff', or 'enabled', found {self._found()}",
                expected=("radix", "coeff", "enabled"),
            )
            self.recover()


def parse(text: str) -> ParseResult:
    """Parse a network definition; never raises, whatever the input."""
    diags: list[Diagnostic] = []
    tokens = _lex(text, diags)
    builder = _Parser(tokens, diags).parse_cao()
    cao: Cao | None = None
    if builder is not None and not any(d.severity == "error" for d in diags):
        cao = builder.build()
        for v in validate_cao(cao):
            diags.append(Diagnostic("error", v.message, builder.span_for(v)))
        for oi, op in enumerate(cao.operators):
            for slot, im in enumerate(op.images):
                if im.coefficient == 0:
                    diags.append(
                        Diagnostic(
                            "warning",
                            f"zero coefficient toward image "
                            f"'{cao.entities[im.entity].name}' has no effect",
                            builder.op_spans[oi].images[slot][1],
                        )
                    )
    if any(d.severity == "error" for d in diags):
        cao = None
    diags.sort(key=lambda d: (d.span.line, d.span.column))
    return ParseResult(cao, tuple(diags))


def _serializable_name(name: str) -> bool:
    if not name or name in KEYWORDS:
        return False
    if not (name[0].isalpha() or name[0] == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in name)


def serialize(cao: Cao) -> str:
    """Render a network in canonical text; ``parse`` of the result rebuilds it.

    Canonical means: explicit mode, one entity per line in index order,
    explicit per-operator kind, schedule blocks in ascending step order with
    four-space indentation. Networks the grammar cannot express — entity
    names that collide with keywords or are not identifiers, operators
    disabled in the base declaration — raise ValueError.
    """
    if '"' in cao.name or "\n" in cao.name:
        raise ValueError(f"network name {cao.name!r} is not representable")
    names = cao.entity_names()
    for name in names:
        if not _serializable_name(name):
            raise ValueError(f"entity name {name!r} is not representable")
    lines = [f'cao "{cao.name}" mode {cao.mode.value} {{']
    for ent in cao.entities:
        lines.append(f"    entity {ent.name} = {format_rational(ent.initial)};")
    for op in cao.operators:
        if not op.enabled:
            raise ValueError("the text form cannot express a base-disabled operator")
        left = ", ".join(
            f"{names[o.entity]}:{format_rational(o.radix)}" for o in op.operands
        )
        right = ", ".join(
            f"{names[i.entity]}:{format_rational(i.coefficient)}" for i in op.images
        )
        lines.append(f"    op {op.kind.value} ({left}) -> ({right});")
    for step in sorted(cao.schedule):
        lines.append(f"    at {step} {{")
        for ov in cao.schedule[step]:
            if ov.field == "enabled":
                flag = "true" if ov.value else "false"
                lines.append(f"        op {ov.operator} enabled = {flag};")
            else:
                lines.append(
                    f"        op {ov.operator} {ov.field} {names[ov.entity]}"
                    f" = {format_rational(ov.value)};"
                )
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"
