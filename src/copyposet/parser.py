"""Expression grammar for ordinal terms, and the lexer and ``card`` declarations
shared with the hypothesis grammar in ``cardexpr``.

Atoms: ``w`` (omega), ``w_1``, ``w_2``, ... and user atoms declared in a
preamble of ``card <name> rank <k> [singular cf <atom|w>];`` statements.
Operators ``+ * ^`` with precedence ``^ > * > +``; ``+`` and ``*`` associate
left, ``^`` right; parentheses and decimal naturals. Arithmetic is evaluated
on the spot, so the result is always canonical. The relation operators
``= < <= > >=`` are tokens too, for hypotheses; an ordinal term rejects them.
"""
from __future__ import annotations

from .atoms import AtomRegistry, AtomError
from .terms import (MAX_NUMERAL_DIGITS, OrdinalTerm, OMEGA, add, mul, power, nat,
                    from_atom)
from .values import Value, init


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# A decimal numeral longer than MAX_NUMERAL_DIGITS (the bound ``terms`` puts on every
# natural) is refused. So is nesting deeper than MAX_NESTING levels, where a level is
# a parenthesis, a function argument or an operand of an operator: the parsers and
# the recursive functions over terms and expressions then stay far inside Python's
# recursion limit.
MAX_NESTING = 100


class Token(Value):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        init(self, "kind", kind)  # "num" | "name" | "op" | "end"
        init(self, "text", text)
        init(self, "pos", pos)


def tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > MAX_NUMERAL_DIGITS:
                raise ParseError(f"numeral longer than {MAX_NUMERAL_DIGITS} digits", i)
            tokens.append(Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        if text.startswith(("<=", ">="), i):
            tokens.append(Token("op", text[i:i + 2], i))
            i += 2
            continue
        if c in "+*^();=<>":
            tokens.append(Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


class TokenStream:
    """A cursor over the tokens of one input, shared by every grammar."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, kind: str, text: str) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == kind and tok.text == text

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError(f"expected {what or repr(text)}", tok.pos)
        return self.advance()

    def nested(self, production, *args):
        """Run one production a level deeper, refusing to go past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             self.peek().pos)
        self.depth += 1
        result = production(*args)
        self.depth -= 1
        return result

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)


def parse_declaration(ts: TokenStream, registry: AtomRegistry) -> None:
    """Consume ``[card] NAME rank K [singular cf ATOM]`` and declare the atom."""
    if ts.at("name", "card"):
        ts.advance()
    name = ts.expect("name", what="atom name after 'card'")
    ts.expect("name", "rank")
    rank = int(ts.expect("num", what="rank number").text)
    cof: str | None = None
    singular = ts.at("name", "singular")
    if singular:
        ts.advance()
        ts.expect("name", "cf", what="'cf' after 'singular'")
        cof_name = ts.expect("name", what="cofinality atom").text
        cof = None if cof_name == "w" else cof_name
    try:
        registry.declare(name.text, rank, singular=singular, cofinality=cof)
    except AtomError as exc:
        raise ParseError(str(exc), name.pos) from exc


def parse_card(text: str, registry: AtomRegistry) -> None:
    """A whole declaration such as a ``--card`` value; offsets count from its start."""
    ts = TokenStream(tokenize(text))
    parse_declaration(ts, registry)
    ts.expect_end()


_PREC = {"+": 1, "*": 2, "^": 3}


class _Parser(TokenStream):
    def __init__(self, tokens: list[Token], registry: AtomRegistry,
                 env: dict[str, OrdinalTerm] | None):
        super().__init__(tokens)
        self.registry = registry
        self.env = env or {}

    def atom(self) -> OrdinalTerm:
        tok = self.advance()
        if tok.kind == "num":
            return nat(int(tok.text))
        if tok.kind == "name":
            if tok.text in self.env:
                return self.env[tok.text]
            if tok.text == "w":
                return OMEGA
            found = self.registry.lookup(tok.text)
            if found is None:
                raise ParseError(f"undeclared atom {tok.text!r}", tok.pos)
            return from_atom(found)
        if tok.kind == "op" and tok.text == "(":
            inner = self.nested(self.expression, 0)
            self.expect("op", ")")
            return inner
        raise ParseError("expected a number, atom or parenthesized expression", tok.pos)

    def expression(self, min_prec: int) -> OrdinalTerm:
        lhs = self.atom()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _PREC:
                return lhs
            prec = _PREC[tok.text]
            if prec < min_prec:
                return lhs
            self.advance()
            # ^ is right-associative, + and * left-associative
            rhs = self.nested(self.expression, prec if tok.text == "^" else prec + 1)
            if tok.text == "+":
                lhs = add(lhs, rhs)
            elif tok.text == "*":
                lhs = mul(lhs, rhs)
            else:
                lhs = power(lhs, rhs)


def parse_term(text: str, registry: AtomRegistry,
               env: dict[str, OrdinalTerm] | None = None) -> OrdinalTerm:
    """Parse and fully evaluate an expression, optionally with a declaration preamble."""
    parser = _Parser(tokenize(text), registry, env)
    while parser.at("name", "card"):
        parse_declaration(parser, registry)
        parser.expect("op", ";", what="';' after declaration")
    result = parser.expression(0)
    parser.expect_end()
    return result
