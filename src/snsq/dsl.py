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
point at are kept. Columns count characters, so a tab is one column.

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
from collections.abc import Callable, Iterator
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
    """Accumulates the network and its zero-coefficient warnings. Given a
    ``tokens`` dict, it also records the token each element came from, keyed
    by the element's :class:`Violation` path, so structural violations can be
    pointed back at source text."""

    name: str = ""
    mode: Mode = Mode.Q_PLUS
    default_kind: CarryKind = CarryKind.RATIONAL_EXACT
    entities: list[Entity] = field(default_factory=list)
    by_name: dict[str, int] = field(default_factory=dict)
    operators: list[Operator] = field(default_factory=list)
    schedule: dict[int, list[Override]] = field(default_factory=dict)
    warnings: list[Diagnostic] = field(default_factory=list)
    tokens: dict[tuple[str | int, ...], _Token] | None = None

    def add_entity(self, name_tok: _Token, value_tok: _Token) -> Diagnostic | None:
        name = name_tok.text
        if name in self.by_name:
            return Diagnostic("error", f"duplicate entity name '{name}'", name_tok.span)
        i = self.by_name[name] = len(self.entities)
        self.entities.append(Entity(i, name, value_tok.value))
        if self.tokens is not None:
            self.tokens["entity", i] = name_tok
            self.tokens["entity", i, "initial"] = value_tok
        return None

    def add_operator(
        self,
        kw: _Token,
        kind: CarryKind,
        operands: list[tuple[int | None, Fraction]],
        otoks: list[tuple[_Token, _Token]],
        images: list[tuple[int | None, Fraction]],
        itoks: list[tuple[_Token, _Token]],
    ) -> None:
        if any(e is None for e, _ in operands) or any(e is None for e, _ in images):
            return  # unresolved names already reported; the file cannot build
        o = len(self.operators)
        self.operators.append(
            Operator(
                kind,
                tuple(Operand(e, v) for e, v in operands),
                tuple(Image(e, v) for e, v in images),
            )
        )
        for name_tok, num_tok in itoks:
            if num_tok.value == 0:
                self.warnings.append(
                    Diagnostic(
                        "warning",
                        f"zero coefficient toward image '{name_tok.text}' has no effect",
                        num_tok.span,
                    )
                )
        if self.tokens is not None:
            self.tokens["operator", o] = kw
            for side, number, toks in (("operand", "radix", otoks), ("image", "coefficient", itoks)):
                for slot, (name_tok, num_tok) in enumerate(toks):
                    self.tokens["operator", o, side, slot] = name_tok
                    self.tokens["operator", o, side, slot, number] = num_tok

    def add_override(
        self, step: int, ov: Override, op_tok: _Token, ent_tok: _Token | None, val_tok: _Token
    ) -> None:
        slot = len(self.schedule.setdefault(step, []))
        self.schedule[step].append(ov)
        if self.tokens is not None:
            self.tokens["schedule", step, slot, "operator"] = op_tok
            if ent_tok is not None:
                self.tokens["schedule", step, slot, "entity"] = ent_tok
            self.tokens["schedule", step, slot, "value"] = val_tok

    def build(self) -> Cao:
        return Cao(
            self.name,
            tuple(self.entities),
            tuple(self.operators),
            self.mode,
            {k: tuple(v) for k, v in self.schedule.items()},
        )

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
    """Recursive descent over a token stream. The grammar is LL(1): every
    decision reads ``cur`` alone, so tokens are pulled one at a time."""

    def __init__(self, tokens: Iterator[_Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.cur = next(tokens)
        self.diags = diags
        self.block: dict[str, Callable[..., None]] = {}  # statements of the block being parsed

    def at(self, ttype: str, text: str | None = None) -> bool:
        t = self.cur
        return t.type == ttype and (text is None or t.text == text)

    def advance(self) -> _Token:
        t = self.cur
        if t.type != "EOF":
            self.cur = next(self.tokens)
        return t

    def error(self, message: str, span: Span | None = None, expected: tuple[str, ...] | None = None) -> None:
        self.diags.append(Diagnostic("error", message, span or self.cur.span, expected))

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
            elif self.at("}") or self.starts(self.block):
                return
            else:
                depth = int(self.at("{"))
            self.advance()

    def end_statement(self) -> None:
        """A missing ';' is reported and skipped to, but the statement stands."""
        if self.expect(";", "';'") is None:
            self.recover()

    def starts(self, parsers: dict[str, Callable[..., None]]) -> bool:
        """Whether ``cur`` is a keyword that begins one of ``parsers``' statements."""
        return self.cur.type == "KEYWORD" and self.cur.text in parsers

    def statements(self, parsers: dict[str, Callable[..., None]], where: str, *args: object) -> None:
        """Statements through the block's closing '}', each begun by a keyword
        in ``parsers``. The one recovery point: a failed statement is
        abandoned where :meth:`recover` stops."""
        outer, self.block = self.block, parsers
        while not self.at("}") and not self.at("EOF"):
            try:
                if not self.starts(parsers):
                    self.unexpected((*parsers, "}"), where)
                    raise _SkipStatement
                parsers[self.cur.text](*args)
            except _SkipStatement:
                self.recover()
        self.block = outer
        self.expect("}", "'}'")

    # --- grammar -----------------------------------------------------------

    def parse_cao(self, b: _Builder) -> _Builder | None:
        if self.expect("KEYWORD", "'cao'", "cao") is None:
            return None
        name_tok = self.expect("STRING", "a quoted network name")
        if name_tok is not None:
            b.name = str(name_tok.value)
        body = self.block = {"entity": self.parse_entity, "op": self.parse_op, "at": self.parse_at}
        b.mode = self.option("mode", Mode) or b.mode
        b.default_kind = self.option("kind", CarryKind) or b.default_kind
        if self.expect("{", "'{'") is None and not self.starts(body):
            self.recover(header=True)
        self.statements(body, "", b)
        if not self.at("EOF"):
            self.error("unexpected text after the closing '}'")
        return b

    def option(self, keyword: str, values: type[Mode | CarryKind]) -> Mode | CarryKind | None:
        """The ``values`` member named after an optional header ``keyword``, or
        None. A bad word is reported and skipped; 'kind', a statement keyword
        of the body, punctuation or a string is reported and left in place."""
        if not self.at("KEYWORD", keyword):
            return None
        self.advance()
        choices = tuple(v.value for v in values)
        if self.cur.type == "KEYWORD" and self.cur.text in choices:
            return values(self.advance().text)
        self.unexpected(choices, f" after '{keyword}'")
        word = self.cur.type in ("NAME", "NUMBER", "KEYWORD")
        if word and not (self.at("KEYWORD", "kind") or self.starts(self.block)):
            self.advance()
        return None

    def parse_entity(self, b: _Builder) -> None:
        self.advance()  # entity
        names = [self.need_name("an entity name")]
        while self.at(","):
            self.advance()
            names.append(self.need_name("an entity name"))
        self.need("=", "'='")
        num = self.need("NUMBER", "a rational value")
        self.end_statement()
        for tok in names:
            dup = b.add_entity(tok, num)
            if dup is not None:
                self.diags.append(dup)

    def _resolve(self, b: _Builder, tok: _Token) -> int | None:
        idx = b.by_name.get(tok.text)
        if idx is None:
            self.error(f"unknown entity '{tok.text}'", tok.span)
        return idx

    def parse_pairs(
        self, b: _Builder, what: str
    ) -> tuple[list[tuple[int | None, Fraction]], list[tuple[_Token, _Token]]]:
        """``( NAME : NUMBER, ... )``: the pairs, and the tokens of each."""
        self.need("(", "'('")
        pairs: list[tuple[int | None, Fraction]] = []
        toks: list[tuple[_Token, _Token]] = []
        while True:
            name_tok = self.need_name(f"an {what} name")
            self.need(":", "':'")
            num = self.need("NUMBER", "a rational value")
            pairs.append((self._resolve(b, name_tok), num.value))
            toks.append((name_tok, num))
            if not self.at(","):
                break
            self.advance()
        self.need(")", "')'")
        return pairs, toks

    def parse_op(self, b: _Builder) -> None:
        kw = self.advance()  # op
        kind = b.default_kind
        if self.at("KEYWORD", "rational") or self.at("KEYWORD", "integer"):
            kind = CarryKind(self.advance().text)
        operands, otoks = self.parse_pairs(b, "operand")
        self.need("ARROW", "'->'")
        images, itoks = self.parse_pairs(b, "image")
        self.end_statement()
        b.add_operator(kw, kind, operands, otoks, images, itoks)

    def parse_at(self, b: _Builder) -> None:
        self.advance()  # at
        num = self.expect("NUMBER", "a step index")
        step = 0
        if num is not None and num.value.denominator != 1:
            self.error("step index must be an integer", num.span)
        elif num is not None:
            step = int(num.value)
            if b.tokens is not None:
                b.tokens.setdefault(("schedule", step), num)
        block = {"op": self.parse_override}
        if self.expect("{", "'{'") is None and not self.starts(block):
            raise _SkipStatement
        self.statements(block, " in a schedule block", b, step)

    def parse_override(self, b: _Builder, step: int) -> None:
        self.advance()  # op
        idx_tok = self.need("NUMBER", "an operator index")
        if idx_tok.value.denominator != 1 or idx_tok.value < 0:
            self.error("operator index must be a non-negative integer", idx_tok.span)
            opidx = 0
        else:
            opidx = int(idx_tok.value)
        if self.at("KEYWORD", "radix") or self.at("KEYWORD", "coeff"):
            field_tok = self.advance()
            name_tok = self.need_name("an entity name")
            self.need("=", "'='")
            num = self.need("NUMBER", "a rational value")
            self.end_statement()
            ent = self._resolve(b, name_tok)
            if ent is not None:
                b.add_override(
                    step,
                    Override(opidx, field_tok.text, ent, num.value),
                    idx_tok,
                    name_tok,
                    num,
                )
        elif self.at("KEYWORD", "enabled"):
            self.advance()
            self.need("=", "'='")
            if not (self.at("KEYWORD", "true") or self.at("KEYWORD", "false")):
                self.unexpected(("true", "false"))
                raise _SkipStatement
            val_tok = self.advance()
            self.end_statement()
            b.add_override(
                step,
                Override(opidx, "enabled", None, val_tok.text == "true"),
                idx_tok,
                None,
                val_tok,
            )
        else:
            self.unexpected(("radix", "coeff", "enabled"))
            raise _SkipStatement


def _parse(text: str, diags: list[Diagnostic], builder: _Builder) -> _Builder | None:
    """Parse ``text`` into ``builder``; None if it does not begin with 'cao'."""
    tokens = _lex(text, diags)
    done = _Parser(tokens, diags).parse_cao(builder)
    for _ in tokens:  # lex errors past where the parser stopped still count
        pass
    return done


def parse(text: str) -> ParseResult:
    """Parse a network definition; never raises, whatever the input."""
    diags: list[Diagnostic] = []
    builder = _parse(text, diags, _Builder())
    cao: Cao | None = None
    if builder is not None and not any(d.severity == "error" for d in diags):
        cao = builder.build()
        diags.extend(builder.warnings)
        violations = validate_cao(cao)
        if violations:
            # A clean file keeps no tokens; parsing it again records each element's token.
            located = _parse(text, [], _Builder(tokens={}))
            diags.extend(Diagnostic("error", v.message, located.span_for(v)) for v in violations)
    if any(d.severity == "error" for d in diags):
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
