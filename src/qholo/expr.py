"""Expression trees for smooth functions of z_1..z_n and conj(z_1)..conj(z_n).

The expression language is deliberately small: rational operations, integer
powers, and exp, over variables and their conjugates.  Every expression can be
evaluated to a second-order Wirtinger jet (value, both gradient blocks, all
three second-derivative blocks) by exact forward-mode propagation, treating
z and conj(z) as independent coordinates.  Evaluation compiles a tree to a
post-order tape, and one interpreter runs the tape over a batch of points,
for values or for 2-jets; single-point evaluation is a batch of one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "CVar", "Add", "Sub", "Mul", "Div", "Pow", "Exp",
    "Neg", "Jet2", "ParseError", "EvalError", "parse", "to_text", "conjugate",
    "eval_value", "eval_batch", "eval_jet2", "eval_jet2_batch", "finite_diff_jet",
]

# Denominators with modulus at or below this abort evaluation.
EPS_DIV = 1e-300


class ParseError(ValueError):
    """Syntax or validity error in expression text, with character offset."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


class EvalError(ValueError):
    """Numeric failure during evaluation (near-zero division, overflow)."""


@dataclass(frozen=True, slots=True)
class Expr:
    """Base node.  All nodes carry the ambient dimension n and are immutable."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be a positive integer")

    def _check_same_n(self, other):
        if not isinstance(other, Expr):
            raise TypeError(f"expected Expr, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def _lift(self, value):
        if isinstance(value, Expr):
            self._check_same_n(value)
            return value
        return Const(self.n, complex(value))

    def __add__(self, other):
        return Add(self.n, self, self._lift(other))

    def __radd__(self, other):
        return Add(self.n, self._lift(other), self)

    def __sub__(self, other):
        return Sub(self.n, self, self._lift(other))

    def __rsub__(self, other):
        return Sub(self.n, self._lift(other), self)

    def __mul__(self, other):
        return Mul(self.n, self, self._lift(other))

    def __rmul__(self, other):
        return Mul(self.n, self._lift(other), self)

    def __truediv__(self, other):
        return Div(self.n, self, self._lift(other))

    def __rtruediv__(self, other):
        return Div(self.n, self._lift(other), self)

    def __pow__(self, k):
        return Pow(self.n, self, k)

    def __neg__(self):
        return Neg(self.n, self)

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: complex

    def __post_init__(self):
        Expr.__post_init__(self)
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"constant must be finite, got {v}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int  # 1-based

    def __post_init__(self):
        Expr.__post_init__(self)
        if not 1 <= self.index <= self.n:
            raise ValueError(f"variable index {self.index} out of range 1..{self.n}")


@dataclass(frozen=True, slots=True)
class CVar(Expr):
    """Conjugated variable conj(z_index)."""

    index: int

    def __post_init__(self):
        Expr.__post_init__(self)
        if not 1 <= self.index <= self.n:
            raise ValueError(f"variable index {self.index} out of range 1..{self.n}")


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr

    def __post_init__(self):
        Expr.__post_init__(self)
        self._check_same_n(self.left)
        self._check_same_n(self.right)


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def __post_init__(self):
        Expr.__post_init__(self)
        self._check_same_n(self.left)
        self._check_same_n(self.right)


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def __post_init__(self):
        Expr.__post_init__(self)
        self._check_same_n(self.left)
        self._check_same_n(self.right)


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr

    def __post_init__(self):
        Expr.__post_init__(self)
        self._check_same_n(self.left)
        self._check_same_n(self.right)


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        Expr.__post_init__(self)
        self._check_same_n(self.base)
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ValueError("exponent must be an integer")
        if self.exponent < 0:
            raise ValueError("negative integer exponent not allowed; use division")


@dataclass(frozen=True, slots=True)
class Exp(Expr):
    arg: Expr

    def __post_init__(self):
        Expr.__post_init__(self)
        self._check_same_n(self.arg)


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr

    def __post_init__(self):
        Expr.__post_init__(self)
        self._check_same_n(self.arg)


# ---------------------------------------------------------------------------
# Conjugation

def conjugate(e: Expr) -> Expr:
    """Syntactic conjugate: constants conjugated, z_k and conj(z_k) swapped.

    Evaluating the result at any point gives the complex conjugate of
    evaluating e at that point.
    """
    t = type(e)
    if t is Const:
        return Const(e.n, e.value.conjugate())
    if t is Var:
        return CVar(e.n, e.index)
    if t is CVar:
        return Var(e.n, e.index)
    if t is Neg:
        return Neg(e.n, conjugate(e.arg))
    if t is Exp:
        return Exp(e.n, conjugate(e.arg))
    if t is Pow:
        return Pow(e.n, conjugate(e.base), e.exponent)
    if t is Add:
        return Add(e.n, conjugate(e.left), conjugate(e.right))
    if t is Sub:
        return Sub(e.n, conjugate(e.left), conjugate(e.right))
    if t is Mul:
        return Mul(e.n, conjugate(e.left), conjugate(e.right))
    if t is Div:
        return Div(e.n, conjugate(e.left), conjugate(e.right))
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([a-z][a-z0-9]*)|([+\-*/^()]))")

_FUNCTIONS = ("conj", "re", "im", "abs2", "exp")
_VAR_RE = re.compile(r"z([0-9]+)$")


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # Only whitespace may remain unmatched.
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group(1) is not None:
            toks.append(("num", float(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            toks.append(("ident", m.group(2), m.start(2)))
        else:
            toks.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    toks.append(("eof", None, len(text)))
    return toks


class _Parser:
    """Recursive descent over the grammar

        expr   := term (("+"|"-") term)*
        term   := factor (("*"|"/") factor)*
        factor := base ("^" uint)?
        base   := number | "i" | ident | ident "(" expr ")" | "(" expr ")" | "-" base

    Subtrees whose leaves are all constants fold into a single constant for
    +, -, *, / and unary minus, so complex literals like (2+3*i) parse to one
    Const node and the printer round-trips.
    """

    def __init__(self, toks, n):
        self.toks = toks
        self.n = n
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def advance(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def parse_expr(self):
        e = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            e = self._fold2(Add if op == "+" else Sub, e, rhs)
        return e

    def parse_term(self):
        e = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.parse_factor()
            e = self._fold2(Mul if op == "*" else Div, e, rhs)
        return e

    def parse_factor(self):
        e = self.parse_base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.advance()
            if tok[0] != "num" or tok[1] != int(tok[1]):
                raise ParseError("expected a nonnegative integer exponent", tok[2])
            e = Pow(self.n, e, int(tok[1]))
        return e

    def parse_base(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(self.n, complex(value))
        if kind == "-":
            inner = self.parse_base()
            if type(inner) is Const:
                return Const(self.n, -inner.value)
            return Neg(self.n, inner)
        if kind == "(":
            e = self.parse_expr()
            self.expect(")", "')'")
            return e
        if kind == "ident":
            return self.parse_ident(value, pos)
        raise ParseError("expected a number, identifier, or '('", pos)

    def parse_ident(self, name, pos):
        if name == "i":
            return Const(self.n, 1j)
        m = _VAR_RE.match(name)
        if m is not None:
            if self.peek()[0] == "(":
                raise ParseError(f"'{name}' is not callable", self.peek()[2])
            index = int(m.group(1))
            if not 1 <= index <= self.n:
                raise ParseError(
                    f"variable index out of range: {name} with n={self.n}", pos)
            return Var(self.n, index)
        if name in _FUNCTIONS:
            self.expect("(", f"'(' after '{name}'")
            arg = self.parse_expr()
            self.expect(")", "')'")
            return self._apply(name, arg)
        raise ParseError(f"unknown identifier '{name}'", pos)

    def _apply(self, name, arg):
        if name == "exp":
            return Exp(self.n, arg)
        if name == "conj":
            return conjugate(arg)
        # re, im, abs2 desugar into z / conj(z) algebra.
        if name == "abs2":
            return self._fold2(Mul, arg, conjugate(arg))
        if name == "re":
            return self._fold2(Div, self._fold2(Add, arg, conjugate(arg)),
                               Const(self.n, 2))
        # im(e) = (e - conj e) / 2i
        return self._fold2(Div, self._fold2(Sub, arg, conjugate(arg)),
                           Const(self.n, 2j))

    def _fold2(self, node, a, b):
        if type(a) is Const and type(b) is Const:
            if node is Add:
                return Const(self.n, a.value + b.value)
            if node is Sub:
                return Const(self.n, a.value - b.value)
            if node is Mul:
                return Const(self.n, a.value * b.value)
            if node is Div and b.value != 0:
                return Const(self.n, a.value / b.value)
        return node(self.n, a, b)


def parse(text: str, n: int) -> Expr:
    """Parse expression text over variables z1..zn.

    Raises ParseError (with .pos, a 0-based character offset) on malformed
    input, out-of-range variable indices, or non-integer exponents.
    """
    if not isinstance(text, str) or text.strip() == "":
        raise ParseError("empty expression", 0)
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    p = _Parser(_tokenize(text), n)
    e = p.parse_expr()
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError("unexpected trailing input", tok[2])
    return e


# ---------------------------------------------------------------------------
# Printer

def _float_text(x):
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return np.format_float_positional(x, unique=True, trim="-")


def _const_text(c):
    """Literal text for a complex constant plus its operator tightness
    (negations and the b*i shorthand carry product-level precedence)."""
    re_, im_ = c.real, c.imag
    if im_ == 0:
        if re_ < 0:
            return "-" + _float_text(-re_), 2
        return _float_text(re_), 4
    if re_ == 0:
        if im_ == 1:
            return "i", 4
        if im_ == -1:
            return "-i", 2
        sign = "-" if im_ < 0 else ""
        return f"{sign}{_float_text(abs(im_))}*i", 2
    op = "-" if im_ < 0 else "+"
    im_txt = "i" if abs(im_) == 1 else f"{_float_text(abs(im_))}*i"
    re_txt, _ = _const_text(complex(re_, 0))
    return f"({re_txt}{op}{im_txt})", 4


# Operator tightness used for minimal parenthesization.  A child is wrapped
# when its own level is below the level its slot requires.
_LEVEL = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 2, Pow: 3}


def to_text(e: Expr) -> str:
    """Render to parseable text; parse(to_text(e), e.n) rebuilds e for every
    tree whose constant-only subtrees are already folded (as parse produces)."""
    return _fmt(e, 0)


def _fmt(e, ctx):
    t = type(e)
    if t is Const:
        txt, level = _const_text(e.value)
        return f"({txt})" if level < ctx else txt
    if t is Var:
        txt = f"z{e.index}"
    elif t is CVar:
        txt = f"conj(z{e.index})"
    elif t is Exp:
        txt = f"exp({_fmt(e.arg, 0)})"
    elif t is Neg:
        txt = "-" + _fmt(e.arg, 4)
    elif t is Pow:
        txt = f"{_fmt(e.base, 4)}^{e.exponent}"
    elif t is Add:
        txt = f"{_fmt(e.left, 1)}+{_fmt(e.right, 2)}"
    elif t is Sub:
        txt = f"{_fmt(e.left, 1)}-{_fmt(e.right, 2)}"
    elif t is Mul:
        txt = f"{_fmt(e.left, 2)}*{_fmt(e.right, 3)}"
    elif t is Div:
        txt = f"{_fmt(e.left, 2)}/{_fmt(e.right, 3)}"
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    if _LEVEL.get(t, 4) < ctx:
        return f"({txt})"
    return txt


# ---------------------------------------------------------------------------
# Evaluation
#
# An expression is lowered once to a linear post-order tape (one instruction
# per node) and a single interpreter runs the tape over a batch of points,
# either for values alone or for full 2-jets in forward (Taylor) mode.  A batch 2-jet is a triple (v, G, H): v (m,) values, G (m, 2n) the
# gradient in the coordinates (z, conj z) and H (m, 2n, 2n) the Hessian in
# those coordinates, so h_zz, h_zzb and h_zbzb are its upper blocks.  One
# array per order keeps the number of numpy calls per instruction small; the
# lower-left block (the transpose of h_zzb) is computed but never read.

_CONST, _VAR, _CVAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _EXP = range(10)
_OPCODE = {Const: _CONST, Var: _VAR, CVar: _CVAR, Neg: _NEG, Add: _ADD,
           Sub: _SUB, Mul: _MUL, Div: _DIV, Pow: _POW, Exp: _EXP}

# Rows per 2-jet chunk are _BUDGET // n^2, which bounds the interpreter's
# scratch memory (a few (rows, 2n, 2n) arrays per live slot) at any n.  At
# 4096, a 1500-point n=2 sweep peaked about 2 MB (5%) higher in RSS than
# point-by-point evaluation; at 1024 it is within 0.5 MB.
_BUDGET = 1024


def _compile(e):
    """Lower e to a post-order tape, walking the tree without recursion.

    Instruction k is (opcode, argument slots, payload, slots whose last use
    is k) and writes slot k; the last slot holds the result.  Payloads: the
    constant, the 0-based variable index, the exponent, or for a division
    its node (named in error messages).  A node reached along several paths
    of the tree gets one slot.
    """
    tape = []
    slot_of = {}        # id(node) -> slot
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in slot_of:
            stack.pop()
            continue
        op = _OPCODE.get(type(node))
        if op is None:
            raise TypeError(f"not an Expr node: {node!r}")
        payload = None
        if _ADD <= op <= _DIV:
            a, b = slot_of.get(id(node.left)), slot_of.get(id(node.right))
            if b is None:
                stack.append(node.right)
            if a is None:
                stack.append(node.left)
            if a is None or b is None:
                continue
            args = (a, b)
            if op == _DIV:
                payload = node
        elif op == _NEG or op == _EXP or op == _POW:
            arg = node.base if op == _POW else node.arg
            a = slot_of.get(id(arg))
            if a is None:
                stack.append(arg)
                continue
            args = (a,)
            if op == _POW:
                payload = node.exponent
        else:
            args = ()
            payload = node.value if op == _CONST else node.index - 1
        stack.pop()
        slot_of[id(node)] = len(tape)
        tape.append((op, args, payload))
    last_use = {}
    for k, (_, args, _) in enumerate(tape):
        for a in args:
            last_use[a] = k
    return [(op, args, payload,
             tuple(a for a in dict.fromkeys(args) if last_use[a] == k))
            for k, (op, args, payload) in enumerate(tape)]


# Tapes of recently evaluated expressions, keyed by node identity.  Each
# entry holds its node, so the id cannot be reused while the entry lives.
_TAPES = {}
_TAPES_MAX = 64


def _tape(e):
    """The compiled tape of e, compiled on first use."""
    hit = _TAPES.get(id(e))
    if hit is not None:
        return hit[1]
    tape = _compile(e)
    if len(_TAPES) >= _TAPES_MAX:
        del _TAPES[next(iter(_TAPES))]
    _TAPES[id(e)] = (e, tape)
    return tape


def _outer(a, b):
    """Row-wise outer products of two (m, k) arrays."""
    return a[:, :, None] * b[:, None, :]


def _jet_product(a, b):
    av, ag, ah = a
    bv, bg, bh = b
    h = ah * bv[:, None, None]      # summed in place: fewer (m, 2n, 2n) temporaries
    h += _outer(ag, bg)
    h += _outer(bg, ag)
    h += av[:, None, None] * bh
    return (av * bv, ag * bv[:, None] + av[:, None] * bg, h)


def _jet_reciprocal(b):
    bv, bg, bh = b
    iv = 1.0 / bv
    iv2 = iv * iv
    iv3 = iv2 * iv
    return (iv, -bg * iv2[:, None],
            2.0 * _outer(bg, bg) * iv3[:, None, None] - bh * iv2[:, None, None])


def _jet_power(a, k):
    av, ag, ah = a
    if k == 0:
        return (np.ones_like(av), np.zeros_like(ag), np.zeros_like(ah))
    if k == 1:
        return a
    c1 = k * av ** (k - 1)
    c2 = k * (k - 1) * av ** (k - 2)
    return (av ** k, c1[:, None] * ag,
            c2[:, None, None] * _outer(ag, ag) + c1[:, None, None] * ah)


def _jet_exp(a):
    av, ag, ah = a
    u = np.exp(av)
    return (u, u[:, None] * ag, u[:, None, None] * (_outer(ag, ag) + ah))


def _divisor_check(d, node):
    if np.any(np.abs(d) <= EPS_DIV):
        raise EvalError(f"division by near-zero in '{to_text(node)}'")


def _leaf(op, index_or_value, pts, zeros):
    """Values (zeros is None) or batch 2-jets of a constant or a coordinate;
    zeros holds shared zero G and H blocks."""
    m, n = pts.shape
    if op == _CONST:
        v = np.full(m, index_or_value, dtype=complex)
    elif op == _VAR:
        v = pts[:, index_or_value].copy()
    else:
        v = np.conj(pts[:, index_or_value])
    if zeros is None:
        return v
    zero_g, zero_h = zeros
    if op == _CONST:
        return (v, zero_g, zero_h)
    g = zero_g.copy()
    g[:, index_or_value if op == _VAR else n + index_or_value] = 1.0
    return (v, g, zero_h)


def _value_op(op, payload, a, b=None):
    if op == _MUL:
        return a * b
    if op == _ADD:
        return a + b
    if op == _SUB:
        return a - b
    if op == _DIV:
        _divisor_check(b, payload)
        return a / b
    if op == _NEG:
        return -a
    if op == _POW:
        return a ** payload
    return np.exp(a)


def _jet_op(op, payload, a, b=None):
    if op == _MUL:
        return _jet_product(a, b)
    if op == _ADD:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    if op == _SUB:
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])
    if op == _DIV:
        _divisor_check(b[0], payload)
        return _jet_product(a, _jet_reciprocal(b))
    if op == _NEG:
        return (-a[0], -a[1], -a[2])
    if op == _POW:
        return _jet_power(a, payload)
    return _jet_exp(a)


def _run(tape, pts, jets):
    """Interpret the tape over the rows of pts: (m,) values, or the batch
    2-jet (v, G, H) when jets is true.  Raises EvalError at a near-zero
    divisor in any row; overflow is left to the caller's finiteness check.

    Operands reach each step only through the slots and the call's
    arguments, so a freed slot's arrays are released at once.
    """
    m, n = pts.shape
    zeros = ((np.zeros((m, 2 * n), dtype=complex),
              np.zeros((m, 2 * n, 2 * n), dtype=complex)) if jets else None)
    slots = [None] * len(tape)
    for k, (op, args, payload, free) in enumerate(tape):
        if op <= _CVAR:
            slots[k] = _leaf(op, payload, pts, zeros)
        elif jets:
            slots[k] = _jet_op(op, payload, *[slots[a] for a in args])
        else:
            slots[k] = _value_op(op, payload, *[slots[a] for a in args])
        for a in free:
            slots[a] = None
    return slots[-1]


def _as_point(z, n):
    z = np.asarray(z, dtype=complex)
    if z.shape != (n,):
        raise ValueError(f"point has shape {z.shape}, expected ({n},)")
    if not np.all(np.isfinite(z)):
        raise ValueError("point has non-finite coordinates")
    return z


def _as_points(pts, n):
    pts = np.asarray(pts, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"points have shape {pts.shape}, expected (m, {n})")
    return pts


def _values(e, pts):
    # overflow surfaces as a raised EvalError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = _run(_tape(e), pts, jets=False)
    if not np.all(np.isfinite(out)):
        raise EvalError(f"non-finite value while evaluating '{to_text(e)}'")
    return out


def eval_value(e: Expr, z) -> complex:
    """Evaluate just the value of e at point z (length-n complex vector)."""
    return complex(_values(e, _as_point(z, e.n)[None, :])[0])


def eval_batch(e: Expr, pts) -> np.ndarray:
    """Evaluate values of e at many points at once; pts has shape (m, n)."""
    return _values(e, _as_points(pts, e.n))


@dataclass(frozen=True, slots=True)
class Jet2:
    """Second-order Wirtinger jet at a point.

    value: f(z); g_z[i] = df/dz_i; g_zb[j] = df/dconj(z_j);
    h_zz[i,j] = d2f/dz_i dz_j (symmetric); h_zzb[i,j] = d2f/dz_i dconj(z_j);
    h_zbzb[i,j] = d2f/dconj(z_i) dconj(z_j) (symmetric).
    """

    value: complex
    g_z: np.ndarray
    g_zb: np.ndarray
    h_zz: np.ndarray
    h_zzb: np.ndarray
    h_zbzb: np.ndarray

    @property
    def n(self):
        return self.g_z.shape[0]

    def is_real_valued(self, tol=1e-9):
        return abs(self.value.imag) <= tol * max(1.0, abs(self.value.real))


def _jet_blocks(e, pts):
    """Batch 2-jets as six read-only blocks; pts is an (m, n) array."""
    n = e.n
    tape = _tape(e)
    rows = max(1, _BUDGET // (n * n))
    with np.errstate(over="ignore", invalid="ignore"):
        if len(pts) <= rows:
            v, g, h = _run(tape, pts, jets=True)
        else:
            m = len(pts)
            v = np.empty(m, dtype=complex)
            g = np.empty((m, 2 * n), dtype=complex)
            h = np.empty((m, 2 * n, 2 * n), dtype=complex)
            for lo in range(0, m, rows):
                v[lo:lo + rows], g[lo:lo + rows], h[lo:lo + rows] = _run(
                    tape, pts[lo:lo + rows], jets=True)
    blocks = (v, g[:, :n], g[:, n:], h[:, :n, :n], h[:, :n, n:], h[:, n:, n:])
    if not all(np.all(np.isfinite(b)) for b in blocks):
        raise EvalError(f"non-finite jet while evaluating '{to_text(e)}'")
    for b in blocks:
        b.flags.writeable = False
    return blocks


def eval_jet2_batch(e: Expr, pts) -> tuple:
    """Exact forward-mode 2-jets of e at the rows of pts, shape (m, n).

    Returns the read-only blocks (value, g_z, g_zb, h_zz, h_zzb, h_zbzb) of
    Jet2 with a leading point axis: shapes (m,), (m, n) and (m, n, n).  Row k
    equals eval_jet2(e, pts[k]) exactly.  A near-zero divisor or a non-finite
    entry in any row raises EvalError; non-finite input raises ValueError.
    """
    pts = _as_points(pts, e.n)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points have non-finite coordinates")
    return _jet_blocks(e, pts)


def eval_jet2(e: Expr, z) -> Jet2:
    """Exact forward-mode second-order Wirtinger jet of e at point z."""
    v, *blocks = _jet_blocks(e, _as_point(z, e.n)[None, :])
    return Jet2(complex(v[0]), *(b[0] for b in blocks))


# ---------------------------------------------------------------------------
# Finite-difference oracle

def finite_diff_jet(f, z, h: float = 1e-4, n: int | None = None) -> Jet2:
    """Central-difference approximation of the second-order Wirtinger jet.

    f is an Expr or a callable accepting a length-n complex vector (callables
    may also accept an (m, n) batch and return (m,) values; that path is
    tried first).  The full real Hessian in the 2n coordinates (x, y) is
    assembled from shared stencils, so the symmetry of the derived complex
    blocks is exact.  Used as an independent oracle for eval_jet2 and for
    functions outside the expression language.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    if isinstance(f, Expr):
        n = f.n
    elif n is None:
        z_arr = np.asarray(z, dtype=complex)
        if z_arr.ndim != 1:
            raise ValueError("point must be a vector")
        n = z_arr.shape[0]
    z = _as_point(z, n)
    m = 2 * n

    offsets = [np.zeros(m)]
    for a in range(m):
        ea = np.zeros(m)
        ea[a] = h
        offsets.append(ea)
        offsets.append(-ea)
    pair_index = {}
    for a in range(m):
        for b in range(a + 1, m):
            ea = np.zeros(m)
            ea[a] = h
            eb = np.zeros(m)
            eb[b] = h
            pair_index[(a, b)] = len(offsets)
            offsets.extend([ea + eb, ea - eb, -ea + eb, -ea - eb])
    offsets = np.array(offsets)
    pts = z[None, :] + offsets[:, :n] + 1j * offsets[:, n:]

    vals = _call_points(f, pts, n)

    f0 = vals[0]
    d1 = np.empty(m, dtype=complex)
    r = np.empty((m, m), dtype=complex)
    for a in range(m):
        fp = vals[1 + 2 * a]
        fm = vals[2 + 2 * a]
        d1[a] = (fp - fm) / (2 * h)
        r[a, a] = (fp - 2 * f0 + fm) / (h * h)
    for (a, b), base in pair_index.items():
        fpp, fpm, fmp, fmm = vals[base:base + 4]
        v = (fpp - fpm - fmp + fmm) / (4 * h * h)
        r[a, b] = v
        r[b, a] = v

    rxx = r[:n, :n]
    rxy = r[:n, n:]
    ryx = r[n:, :n]
    ryy = r[n:, n:]
    gz = (d1[:n] - 1j * d1[n:]) / 2
    gzb = (d1[:n] + 1j * d1[n:]) / 2
    h_zz = (rxx - 1j * rxy - 1j * ryx - ryy) / 4
    h_zzb = (rxx + 1j * rxy - 1j * ryx + ryy) / 4
    h_zbzb = (rxx + 1j * rxy + 1j * ryx - ryy) / 4
    for b in (gz, gzb, h_zz, h_zzb, h_zbzb):
        b.flags.writeable = False
    return Jet2(complex(f0), gz, gzb, h_zz, h_zzb, h_zbzb)


def _call_points(f, pts, n):
    if isinstance(f, Expr):
        return eval_batch(f, pts)
    try:
        vals = np.asarray(f(pts), dtype=complex)
        if vals.shape == (pts.shape[0],):
            return vals
    except (TypeError, ValueError, IndexError):
        pass
    return np.array([complex(f(p)) for p in pts], dtype=complex)
