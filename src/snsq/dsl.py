"""Text form for networks: parser, diagnostics, and canonical serializer.

The format is line-oriented and small::

    # comments run to end of line
    cao "name" mode qplus kind rational {
        entity i, j = 0;                    # shared initial value
        op integer (i:10, j:8) -> (d:1, s:2);
        at 1 { op 0 radix i = 4; op 1 enabled = false; }
    }

Rationals are ``digits`` or ``digits/digits`` with an optional leading minus
(ASCII digits; the pattern is :mod:`snsq.rationals`'s).
The ``mode`` and ``kind`` headers are optional (default ``qplus`` and
``rational``); a per-operator kind overrides the header. Operator form is
never written down — it follows from how many operands and images appear.

Lexing takes one regular-expression match per token, a line at a time, and
yields tokens as the LL(1) parser pulls them; only tokens a diagnostic may
point at are kept. Columns count characters, so a tab is one column; one
leading byte-order mark (U+FEFF) is dropped before lexing.

The parser reads syntax only; the builder alone turns each statement's tokens
into entity indices, values, model objects, token paths and name diagnostics.

Parsing is total: any input, including binary garbage, yields a
:class:`ParseResult` whose diagnostics carry 1-based line/column spans.
A statement is abandoned at its first syntax error, and one statement loop,
shared by the body and the schedule blocks, skips past the next ``;``, or to
the next ``}`` or statement keyword of the block it is in, and resumes, so
one run reports every problem it can reach. A ``{ ... }`` group met while
skipping is skipped whole, so its ``}`` never closes the enclosing block. A
missing ``;`` is reported and skipped the same way, but its statement still
counts. A block whose ``{`` is missing is still parsed when a statement
keyword of that block follows; otherwise the header skips past the body's
``{`` or the next ``;``, and an ``at`` is abandoned like any failed
statement. An ``at`` without its step number still parses its block.
Structural rule violations (duplicate operands, negative coefficients
outside qminus, ...) are checked once the file is syntactically clean and
reported through the same diagnostic channel. A file that breaks
one is parsed again, and that pass records each element's token under the
element's path; a violation points at the token of the longest recorded
prefix of its :attr:`Violation.at` path. A clean file keeps no tokens.

:func:`serialize` renders a network in a fixed canonical layout; parsing it
back reproduces the network exactly.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Collection, Iterator
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
from snsq.rationals import _RATIONAL_RE, format_rational, parse_rational

KEYWORDS = frozenset(
    {
        "cao", "mode", "qplus", "qminus", "kind", "rational", "integer",
        "entity", "op", "at", "radix", "coeff", "enabled", "true", "false",
    }
)

_PUNCT = "{}(),;:="


@dataclass(frozen=True, slots=True)
class Span:
    """A slice of source text: 1-based line and column, length in characters."""

    line: int
    column: int
    length: int


@dataclass(frozen=True, slots=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: Span
    expected: tuple[str, ...] | None = None

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.column}: {self.severity}: {self.message}"


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class _Token:
    type: str  # NAME, KEYWORD, NUMBER, STRING, ARROW, one of _PUNCT, EOF
    text: str
    line: int
    column: int
    value: object = None  # Fraction for NUMBER, str payload for STRING

    @property
    def span(self) -> Span:
        return Span(self.line, self.column, len(self.text))


_Pairs = list[tuple[_Token, _Token]]  # the (name, number) tokens of ``( NAME : NUMBER, ... )``

# One alternative per token class, tried in order after the blanks before a
# token. Lines are lexed one at a time: no token, string or comment spans a
# newline. WORD is NAME with a non-ASCII start, where ``[^\W\d]`` also admits
# numeric characters such as ``\u00b2`` that ``str.isalpha`` refuses.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:"
    rf"(?P<PUNCT>[{re.escape(_PUNCT)}])"
    r"|(?P<NAME>[A-Za-z_]\w*)"
    rf"|(?P<NUMBER>{_RATIONAL_RE.pattern})"
    r"|(?P<ARROW>->)"
    r'|(?P<STRING>"[^"]*")'
    r'|(?P<UNTERMINATED>"[^"]*)'
    r"|(?P<COMMENT>\#.*)"
    r"|(?P<WORD>[^\W\d]\w*)"
    r"|(?P<BAD>.)"
    r")",
    re.DOTALL,
)


def _lex(text: str, diags: list[Diagnostic]) -> Iterator[_Token]:
    """Yield the tokens of ``text``, ending with EOF; lex errors go to ``diags``."""
    match = _TOKEN_RE.match
    number = 0
    for raw in text.split("\n"):
        number += 1
        line = raw.rstrip(" \t\r")  # so the leading blanks of a match are always followed by a token
        pos, end, eof_col = 0, len(line), len(raw) + 1
        while pos < end:
            m = match(line, pos)
            pos = m.end()
            kind = m.lastgroup
            lexeme = m[kind]
            col = pos - len(lexeme) + 1
            if kind == "PUNCT":
                yield _Token(lexeme, lexeme, number, col)
            elif kind == "NAME":
                yield _Token("KEYWORD" if lexeme in KEYWORDS else "NAME", lexeme, number, col)
            elif kind == "NUMBER":
                try:
                    value = parse_rational(lexeme)
                except ValueError as err:
                    diags.append(Diagnostic("error", str(err), Span(number, col, len(lexeme))))
                    value = Fraction(0)
                yield _Token("NUMBER", lexeme, number, col, value)
            elif kind == "ARROW":
                yield _Token("ARROW", lexeme, number, col)
            elif kind == "STRING":
                yield _Token("STRING", lexeme, number, col, lexeme[1:-1])
            elif kind == "UNTERMINATED":
                lexeme = raw[col - 1 :]  # with the blanks the strip took
                diags.append(Diagnostic("error", "unterminated string", Span(number, col, len(lexeme))))
                yield _Token("STRING", lexeme, number, col, lexeme[1:])
            elif kind == "COMMENT":
                eof_col = col  # the EOF column ignores a comment on the last line
            elif kind == "WORD" and lexeme[0].isalpha():
                yield _Token("NAME", lexeme, number, col)  # keywords are ASCII
            else:
                pos = col  # a WORD that is no name resumes after its first character
                diags.append(Diagnostic("error", f"unexpected character {lexeme[0]!r}", Span(number, col, 1)))
    yield _Token("EOF", "", number, eof_col)


@dataclass
class _Builder:
    """Turns the tokens the parser read into the network, its name
    diagnostics (into ``diags``) and its zero-coefficient warnings. Given a
    ``tokens`` dict, it also records the token each element came from, keyed
    by the element's :class:`Violation` path."""

    name: str = ""
    mode: Mode = Mode.Q_PLUS
    default_kind: CarryKind = CarryKind.RATIONAL_EXACT
    entities: list[Entity] = field(default_factory=list)
    by_name: dict[str, int] = field(default_factory=dict)
    operators: list[Operator] = field(default_factory=list)
    schedule: dict[int, list[Override]] = field(default_factory=dict)
    step: int = 0  # of the schedule block being read
    diags: list[Diagnostic] = field(default_factory=list)
    warnings: list[Diagnostic] = field(default_factory=list)
    tokens: dict[tuple[str | int, ...], _Token] | None = None

    def record(self, tok: _Token | None, *path: str | int) -> None:
        if self.tokens is not None and tok is not None:
            self.tokens.setdefault(path, tok)

    def entity(self, name: _Token) -> int | None:
        """The index of the entity ``name`` names; an unknown name is reported."""
        i = self.by_name.get(name.text)
        if i is None:
            self.diags.append(Diagnostic("error", f"unknown entity '{name.text}'", name.span))
        return i

    def header(self, name: _Token | None, mode: _Token | None, kind: _Token | None) -> None:
        """``cao NAME [mode MODE] [kind KIND]``; a missing or malformed part is None."""
        if name is not None:
            self.name = name.value
        if mode is not None:
            self.mode = Mode(mode.text)
        if kind is not None:
            self.default_kind = CarryKind(kind.text)

    def add_entity(self, name: _Token, value: _Token) -> None:
        if name.text in self.by_name:
            self.diags.append(Diagnostic("error", f"duplicate entity name '{name.text}'", name.span))
            return
        i = self.by_name[name.text] = len(self.entities)
        self.entities.append(Entity(i, name.text, value.value))
        self.record(name, "entity", i)
        self.record(value, "entity", i, "initial")

    def add_operator(self, kw: _Token, kind: _Token | None, operands: _Pairs, images: _Pairs) -> None:
        """``op [KIND] (operands) -> (images)``, each side as (name, number) token pairs."""
        found = [self.entity(name) for name, _ in operands + images]
        if None in found:
            return  # the file cannot build
        o = len(self.operators)
        self.operators.append(
            Operator(
                CarryKind(kind.text) if kind is not None else self.default_kind,
                tuple([Operand(e, num.value) for e, (_, num) in zip(found, operands)]),
                tuple([Image(e, num.value) for e, (_, num) in zip(found[len(operands) :], images)]),
            )
        )
        for name, num in images:
            if num.value == 0:
                message = f"zero coefficient toward image '{name.text}' has no effect"
                self.warnings.append(Diagnostic("warning", message, num.span))
        if self.tokens is not None:  # the first pass records nothing: skip the calls
            self.record(kw, "operator", o)
            for side, number, pairs in (("operand", "radix", operands), ("image", "coefficient", images)):
                for slot, (name, num) in enumerate(pairs):
                    self.record(name, "operator", o, side, slot)
                    self.record(num, "operator", o, side, slot, number)

    def begin_step(self, num: _Token | None) -> None:
        """``at NUMBER {``: the overrides that follow belong to this step (0 without a number)."""
        self.step = int(num.value) if num is not None else 0
        self.schedule.setdefault(self.step, [])  # an empty block is a step with no overrides
        self.record(num, "schedule", self.step)

    def add_override(self, index: _Token, key: _Token, entity: _Token | None, value: _Token) -> None:
        """``op INDEX KEY [ENTITY] = VALUE`` at the current step; ``entity`` is None for 'enabled'."""
        e = None if entity is None else self.entity(entity)
        if e is None and entity is not None:
            return  # an unknown name
        setting = value.text == "true" if entity is None else value.value
        overrides = self.schedule[self.step]
        at = ("schedule", self.step, len(overrides))
        overrides.append(Override(int(index.value), key.text, e, setting))
        if self.tokens is not None:
            for part, tok in (("operator", index), ("entity", entity), ("value", value)):
                self.record(tok, *at, part)

    def build(self) -> Cao:
        return Cao(self.name, self.entities, self.operators, self.mode, self.schedule)

    def span_for(self, v: Violation) -> Span:
        """The token of the longest recorded prefix of the violation's path."""
        for n in range(len(v.at), 0, -1):
            tok = self.tokens.get(v.at[:n])
            if tok is not None:
                return tok.span
        return Span(1, 1, 1)


class _SkipStatement(Exception):
    """A statement failed and its diagnostic is reported: abandon it."""


class _Parser:
    """Recursive descent over a token stream; it reads syntax only and hands
    each statement's tokens to the builder. The grammar is LL(1): every
    decision reads ``cur`` alone, so tokens are pulled one at a time."""

    def __init__(self, tokens: Iterator[_Token], b: _Builder):
        self.tokens = tokens
        self.b = b
        self.cur = next(tokens)
        self.block: dict[str, Callable[[_Parser], None]] = {}  # statements of the block being parsed

    def at(self, ttype: str, text: str | None = None) -> bool:
        t = self.cur
        return t.type == ttype and (text is None or t.text == text)

    def advance(self) -> _Token:
        t = self.cur
        if t.type != "EOF":
            self.cur = next(self.tokens)
        return t

    def error(self, message: str, span: Span | None = None, expected: tuple[str, ...] | None = None) -> None:
        self.b.diags.append(Diagnostic("error", message, span or self.cur.span, expected))

    def _found(self) -> str:
        return "end of input" if self.cur.type == "EOF" else repr(self.cur.text)

    def missing(self, what: str, expected: str) -> None:
        self.error(f"expected {what}, found {self._found()}", expected=(expected,))

    def expect(self, ttype: str, what: str, text: str | None = None) -> _Token | None:
        """Consume the wanted token, or report it missing and return None."""
        if self.at(ttype, text):
            return self.advance()
        self.missing(what, text or ttype)
        return None

    def need(self, ttype: str, what: str) -> _Token:
        """Consume a token the statement cannot do without, or abandon the statement."""
        if self.cur.type == ttype:
            return self.advance()
        self.missing(what, ttype)
        raise _SkipStatement

    def need_name(self, what: str) -> _Token:
        if self.at("NAME"):
            return self.advance()
        if self.at("KEYWORD"):
            tok = self.cur
            self.error(f"keyword '{tok.text}' cannot be used as {what}", tok.span)
            return self.advance()
        self.missing(what, what)
        raise _SkipStatement

    def need_keyword(self, choices: tuple[str, ...]) -> _Token:
        """Consume one of the keywords ``choices``, or abandon the statement."""
        if self.at_keyword(choices):
            return self.advance()
        self.unexpected(choices)
        raise _SkipStatement

    def unexpected(self, choices: tuple[str, ...], where: str = "") -> None:
        """Report that none of ``choices`` comes next."""
        *rest, last = map(repr, choices)
        listed = f"{', '.join(rest)}, or {last}" if len(rest) > 1 else f"{rest[0]} or {last}"
        self.error(f"expected {listed}{where}, found {self._found()}", expected=choices)

    def recover(self, header: bool = False) -> None:
        """Skip ahead to the next ';' (consumed), or to a '}' or a statement
        keyword of the enclosing block (left in place). A '{ ... }' group is
        skipped whole, except after the ``header``, where a '{' opens the body
        and is consumed like a ';'. A caller has consumed a token since its
        statement began, or stands on none of these, so parsing moves on."""
        depth = 0
        while not self.at("EOF"):
            if depth:
                depth += self.at("{") - self.at("}")
            elif self.at(";") or header and self.at("{"):
                self.advance()
                return
            elif self.at("}") or self.at_keyword(self.block):
                return
            else:
                depth = int(self.at("{"))
            self.advance()

    def end_statement(self) -> None:
        """A missing ';' is reported and skipped to, but the statement stands."""
        if self.expect(";", "';'") is None:
            self.recover()

    def at_keyword(self, words: Collection[str]) -> bool:
        """Whether ``cur`` is one of the keywords ``words``."""
        return self.cur.type == "KEYWORD" and self.cur.text in words

    def statements(self, parsers: dict[str, Callable[[_Parser], None]], where: str) -> None:
        """Statements through the block's closing '}', each begun by a keyword
        in ``parsers``. The one recovery point: a failed statement is
        abandoned where :meth:`recover` stops."""
        outer, self.block = self.block, parsers
        while not self.at("}") and not self.at("EOF"):
            try:
                if not self.at_keyword(parsers):
                    self.unexpected((*parsers, "}"), where)
                    raise _SkipStatement
                parsers[self.cur.text](self)
            except _SkipStatement:
                self.recover()
        self.block = outer
        self.expect("}", "'}'")

    # --- grammar -----------------------------------------------------------

    def parse_cao(self) -> None:
        if self.expect("KEYWORD", "'cao'", "cao") is None:
            return
        name = self.expect("STRING", "a quoted network name")
        self.block = self.BODY
        self.b.header(name, self.option("mode", Mode), self.option("kind", CarryKind))
        if self.expect("{", "'{'") is None and not self.at_keyword(self.BODY):
            self.recover(header=True)
        self.statements(self.BODY, "")
        if not self.at("EOF"):
            self.error("unexpected text after the closing '}'")

    def option(self, keyword: str, values: type[Mode | CarryKind]) -> _Token | None:
        """The word after an optional header ``keyword`` if it names one of
        ``values``, or None. A bad word is reported and skipped; 'kind', a
        statement keyword of the body, punctuation or a string is reported
        and left in place."""
        if not self.at("KEYWORD", keyword):
            return None
        self.advance()
        choices = tuple(v.value for v in values)
        if self.at_keyword(choices):
            return self.advance()
        self.unexpected(choices, f" after '{keyword}'")
        word = self.cur.type in ("NAME", "NUMBER", "KEYWORD")
        if word and not (self.at("KEYWORD", "kind") or self.at_keyword(self.block)):
            self.advance()
        return None

    def parse_entity(self) -> None:
        self.advance()  # entity
        names = [self.need_name("an entity name")]
        while self.at(","):
            self.advance()
            names.append(self.need_name("an entity name"))
        self.need("=", "'='")
        value = self.need("NUMBER", "a rational value")
        self.end_statement()
        for name in names:
            self.b.add_entity(name, value)

    def parse_pairs(self, pairs: _Pairs, what: str) -> None:
        """``( NAME : NUMBER, ... )``: each pair's tokens go to ``pairs`` as it is read."""
        self.need("(", "'('")
        while True:
            name = self.need_name(f"an {what} name")
            self.need(":", "':'")
            pairs.append((name, self.need("NUMBER", "a rational value")))
            if not self.at(","):
                break
            self.advance()
        self.need(")", "')'")

    def parse_op(self) -> None:
        kw = self.advance()  # op
        kind = self.advance() if self.at_keyword(("rational", "integer")) else None
        operands: _Pairs = []
        images: _Pairs = []
        try:
            self.parse_pairs(operands, "operand")
            self.need("ARROW", "'->'")
            self.parse_pairs(images, "image")
        except _SkipStatement:  # the names read before the failure are still reported
            for name, _ in operands + images:
                self.b.entity(name)
            raise
        self.end_statement()
        self.b.add_operator(kw, kind, operands, images)

    def parse_at(self) -> None:
        self.advance()  # at
        num = self.expect("NUMBER", "a step index")
        if num is not None and num.value.denominator != 1:
            self.error("step index must be an integer", num.span)
        self.b.begin_step(num)
        if self.expect("{", "'{'") is None and not self.at_keyword(self.SCHEDULE):
            raise _SkipStatement
        self.statements(self.SCHEDULE, " in a schedule block")

    def parse_override(self) -> None:
        self.advance()  # op
        index = self.need("NUMBER", "an operator index")
        if index.value.denominator != 1 or index.value < 0:
            self.error("operator index must be a non-negative integer", index.span)
        key = self.need_keyword(("radix", "coeff", "enabled"))
        entity = None if key.text == "enabled" else self.need_name("an entity name")
        self.need("=", "'='")
        value = self.need("NUMBER", "a rational value") if entity else self.need_keyword(("true", "false"))
        self.end_statement()
        self.b.add_override(index, key, entity, value)

    # Each block's statements by keyword; plain functions, so no parser refers to itself
    BODY = {"entity": parse_entity, "op": parse_op, "at": parse_at}
    SCHEDULE = {"op": parse_override}


def _parse(text: str, b: _Builder) -> _Builder:
    """Parse ``text`` into ``b``, which also collects every diagnostic."""
    tokens = _lex(text, b.diags)
    _Parser(tokens, b).parse_cao()
    for _ in tokens:  # lex errors past where the parser stopped still count
        pass
    return b


def parse(text: str) -> ParseResult:
    """Parse a network definition; never raises, whatever the input. One
    leading byte-order mark (U+FEFF) is dropped first."""
    text = text.removeprefix("\ufeff")
    builder = _parse(text, _Builder())
    diags, cao = builder.diags, None
    if not diags:  # only errors land here before the warnings are merged
        cao = builder.build()
        diags.extend(builder.warnings)
        violations = validate_cao(cao)
        if violations:
            # A clean file keeps no tokens; parsing it again records each element's token.
            located = _parse(text, _Builder(tokens={}))
            diags.extend(Diagnostic("error", v.message, located.span_for(v)) for v in violations)
            cao = None
    diags.sort(key=lambda d: (d.span.line, d.span.column))
    return ParseResult(cao, tuple(diags))


def _serializable_name(name: str) -> bool:
    """Whether the lexer reads ``name`` back as one NAME token."""
    first = next(_lex(name, []))
    return first.type == "NAME" and first.text == name


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
