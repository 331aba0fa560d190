"""Expression language for user-defined immersions.

Three complex-valued expressions in the chart variables ``x, y`` and named
real parameters define a candidate immersion without touching code.  The
grammar (also documented in the README as EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom { "^" number } ;          (* exponent: integer literal *)
    atom    = number | ident | ident "(" expr ")" | "(" expr ")" ;

Precedence is ``^`` > unary minus > ``* /`` > ``+ -`` with left
associativity; ``i`` is the imaginary unit; the unary functions are
``exp sin cos sqrt log conj re im``.  Exponents must be integer literals so
that jet exponentiation stays exact (repeated multiplication), and at most
``MAX_EXPONENT``, so that it stays cheap.  ``validate`` is the one judge of
these rules and of names; ``eval_jet`` runs it before evaluating anything.

Evaluation over jets propagates holomorphic composition, which ``conj``,
``re`` and ``im`` break: applying them to a jet of degree >= 1 raises
ERR_NONANALYTIC.  On degree-0 jets (plain values) they act as expected, so
pointwise evaluation of expressions containing them still works.

Syntax errors carry the byte offset of the offending token.  ASTs compare
structurally (source positions are ignored by ``==``), which is what the
parse/print round-trip invariant relies on.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import DivideByZeroJetError, NonAnalyticError, SyntaxParseError, ValidationError
from .jets import Jet2

FUNCTIONS = ("exp", "sin", "cos", "sqrt", "log", "conj", "re", "im")
VARIABLES = ("x", "y")

#: Largest exponent of ``^`` (``base^n`` costs n - 1 jet products).
MAX_EXPONENT = 64


# -- AST nodes ---------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class ImagUnit:
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Param:
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "ExprAst"
    right: "ExprAst"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: "ExprAst"  # validated to be an integer Num
    pos: int = field(default=-1, compare=False)


ExprAst = Num | ImagUnit | Var | Param | Neg | Call | BinOp | Pow


@dataclass(frozen=True)
class Diagnostic:
    position: int
    message: str


# -- tokenizer ---------------------------------------------------------------

_NUMBER_RE = _re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", _re.ASCII)
_IDENT_RE = _re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPERATORS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | one of _OPERATORS | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        raise SyntaxParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise SyntaxParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise SyntaxParseError(f"unexpected trailing {tok.text!r}", tok.pos)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek().kind in "+-":
            op = self.advance()
            node = BinOp(op.kind, node, self.term(), pos=op.pos)
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while self.peek().kind in "*/":
            op = self.advance()
            node = BinOp(op.kind, node, self.unary(), pos=op.pos)
        return node

    def unary(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Neg(self.unary(), pos=tok.pos)
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        while self.peek().kind == "^":
            op = self.advance()
            # The exponent slot accepts any atom so that validate (rather
            # than the parser) can report non-literal exponents like "x^y".
            node = Pow(node, self.atom(), pos=op.pos)
        return node

    def atom(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), pos=tok.pos)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(tok.text, arg, pos=tok.pos)
            if tok.text == "i":
                return ImagUnit(pos=tok.pos)
            if tok.text in VARIABLES:
                return Var(tok.text, pos=tok.pos)
            return Param(tok.text, pos=tok.pos)
        raise SyntaxParseError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )


def parse(text: str) -> ExprAst:
    """Parse an expression; raises ERR_SYNTAX with a byte offset on failure."""
    return _Parser(text).parse()


# -- validation --------------------------------------------------------------


def validate(ast: ExprAst, params: dict[str, float]) -> list[Diagnostic]:
    """Collect diagnostics: unknown names, bad calls, non-integer or too large exponents.

    Empty result means the AST is evaluatable against ``params``.
    """
    out: list[Diagnostic] = []

    def walk(node: ExprAst) -> None:
        if isinstance(node, Param):
            if node.name in FUNCTIONS:
                out.append(
                    Diagnostic(node.pos, f"function '{node.name}' requires one argument")
                )
            elif node.name not in params:
                out.append(Diagnostic(node.pos, f"unknown parameter {node.name}"))
        elif isinstance(node, Call):
            if node.func not in FUNCTIONS:
                out.append(Diagnostic(node.pos, f"unknown function {node.func}"))
            walk(node.arg)
        elif isinstance(node, Neg):
            walk(node.arg)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Pow):
            walk(node.base)
            exp = node.exponent
            # The grammar's literals are non-negative; a built AST may hold any Num.
            if not (isinstance(exp, Num) and float(exp.value).is_integer() and exp.value >= 0):
                out.append(Diagnostic(node.pos, "exponent must be integer literal"))
            elif exp.value > MAX_EXPONENT:
                out.append(Diagnostic(node.pos, f"exponent above the limit of {MAX_EXPONENT}"))

    walk(ast)
    return out


def _params_read(node: ExprAst) -> set[str]:
    """Names of the parameters an expression reads."""
    if isinstance(node, Param):
        return {node.name}
    children = (v for v in vars(node).values() if isinstance(v, ExprAst))
    return set().union(*map(_params_read, children))


def _refuse(diags: list[Diagnostic]) -> None:
    """Raise ERR_VALIDATION carrying ``diags`` as ``.diagnostics``, if there are any."""
    if diags:
        summary = "; ".join(
            f"offset {d.position}: {d.message}" if d.position >= 0 else d.message for d in diags
        )
        err = ValidationError(f"invalid expression(s): {summary}")
        err.diagnostics = diags
        raise err


def require_valid(asts, params: dict[str, float]) -> None:
    """Raise ERR_VALIDATION (carrying the diagnostics) unless all are clean.

    Beyond each expression's own diagnostics, a parameter that no expression
    reads is an error (position -1): it is most likely a misspelt name.
    """
    diags: list[Diagnostic] = []
    for ast in asts:
        diags.extend(validate(ast, params))
    read = set().union(*map(_params_read, asts))
    diags.extend(
        Diagnostic(-1, f"parameter {name} is read by no expression")
        for name in params
        if name not in read
    )
    _refuse(diags)


# -- evaluation --------------------------------------------------------------


def eval_jet(ast: ExprAst, x_jet: Jet2, y_jet: Jet2, params: dict[str, float]) -> Jet2:
    """Evaluate over jet arithmetic, once ``validate`` finds nothing to flag
    (else ERR_VALIDATION carrying its diagnostics, before any jet is computed).

    Constants fold: a subtree without ``x`` and ``y`` evaluates to a scalar
    that meets jets through ``Jet2``'s scalar arithmetic, and a constant
    result is lifted once, to the batch of ``x_jet``.  Folding changes no
    error, except that a constant divisor names the offset of its ``/``, not
    a chart point (its ``magnitude`` is None).
    """
    _refuse(validate(ast, params))
    degree = min(x_jet.degree, y_jet.degree)

    def ev(node: ExprAst) -> Jet2 | complex:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, ImagUnit):
            return 1j
        if isinstance(node, Var):
            return x_jet if node.name == "x" else y_jet
        if isinstance(node, Param):
            return params[node.name]
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, BinOp):
            a, b = ev(node.left), ev(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if not isinstance(b, Jet2) and abs(b) <= jets.DIVIDE_TOL:
                raise DivideByZeroJetError(
                    f"constant divisor {to_source(node.right)} has magnitude {abs(b):.3e} "
                    f"<= {jets.DIVIDE_TOL:g} at offset {node.pos}", None)
            return a / b
        if isinstance(node, Pow):
            n = int(node.exponent.value)
            base = result = ev(node.base)
            for _ in range(n - 1):
                result = result * base
            return result if n else 1.0
        if isinstance(node, Call):
            arg = ev(node.arg)
            jet = arg if isinstance(arg, Jet2) else jets.constant(arg, 0)
            if node.func not in ("conj", "re", "im"):
                out = jets.analytic(node.func, jet)
            elif degree >= 1:
                raise NonAnalyticError(f"{node.func} is not analytic: only degree-0 jets allowed")
            else:
                out = {"conj": jet.conjugate, "re": jet.real_part, "im": jet.imag_part}[node.func]()
            return out if jet is arg else out.value
        raise ValidationError(f"unknown AST node {node!r}")

    value = ev(ast)
    return value if isinstance(value, Jet2) else jets.constant(value, degree, x_jet.batch_shape)


def eval_complex(ast: ExprAst, x: complex, y: complex, params: dict[str, float]) -> complex:
    """Plain complex-number evaluation (the degree-0 oracle)."""

    def ev(node: ExprAst) -> complex:
        if isinstance(node, Num):
            return complex(node.value)
        if isinstance(node, ImagUnit):
            return 1j
        if isinstance(node, Var):
            return complex(x) if node.name == "x" else complex(y)
        if isinstance(node, Param):
            return complex(params[node.name])
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, BinOp):
            a, b = ev(node.left), ev(node.right)
            return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node.op]
        if isinstance(node, Pow):
            return ev(node.base) ** int(node.exponent.value)  # type: ignore[union-attr]
        if isinstance(node, Call):
            v = ev(node.arg)
            table = {
                "exp": np.exp, "sin": np.sin, "cos": np.cos,
                "sqrt": np.sqrt, "log": np.log,
                "conj": np.conj, "re": lambda z: complex(z).real,
                "im": lambda z: complex(z).imag,
            }
            return complex(table[node.func](v))
        raise ValidationError(f"unknown AST node {node!r}")

    return ev(ast)


# -- pretty printer ----------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: ExprAst) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_UNARY
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _format_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def to_source(ast: ExprAst) -> str:
    """Print with minimal parentheses; reparsing gives a structurally equal AST.

    All binary operators are treated as strictly left-associative, so a right
    child at the same precedence level is parenthesized (``a-(b-c)`` keeps its
    parentheses, and so does ``a+(b+c)`` to preserve tree shape).
    """

    def wrap(node: ExprAst, minimum: int) -> str:
        s = go(node)
        return f"({s})" if _prec(node) < minimum else s

    def go(node: ExprAst) -> str:
        if isinstance(node, Num):
            return _format_number(node.value)
        if isinstance(node, ImagUnit):
            return "i"
        if isinstance(node, (Var, Param)):
            return node.name
        if isinstance(node, Neg):
            return "-" + wrap(node.arg, _PREC_UNARY)
        if isinstance(node, Call):
            return f"{node.func}({go(node.arg)})"
        if isinstance(node, Pow):
            return f"{wrap(node.base, _PREC_ATOM)}^{go(node.exponent)}"
        if isinstance(node, BinOp):
            p = _prec(node)
            return f"{wrap(node.left, p)}{node.op}{wrap(node.right, p + 1)}"
        raise ValidationError(f"unknown AST node {node!r}")

    return go(ast)
