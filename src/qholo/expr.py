"""Expression trees for smooth functions of z_1..z_n and conj(z_1)..conj(z_n).

The expression language is deliberately small: rational operations, integer
powers, and exp, over variables and their conjugates.  Every expression can be
evaluated to a second-order Wirtinger jet (value, both gradient blocks, all
three second-derivative blocks) by exact forward-mode propagation, treating
z and conj(z) as independent coordinates.  Evaluation compiles a tree to a
post-order tape, and one interpreter runs the tape over a batch of points,
for values, for values and gradients (1-jets), or for 2-jets; single-point
evaluation is a batch of one.  A 2-jet carries the whole Hessian through
the tape, or only the mixed block h_zzb that Levi forms and residuals read.

A row fails at its first divisor of modulus at most EPS_DIV = 1e-300 in tape
order, else at a non-finite result, and the other rows keep theirs bit for
bit; eval_* raise the first failing row's EvalError, its index in `row`.  The
guard is absolute: a divisor that cancels only to roundoff passes.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "CVar", "Add", "Sub", "Mul", "Div", "Pow", "Exp",
    "Neg", "Jet2", "ParseError", "EvalError", "parse", "to_text", "conjugate",
    "eval_value", "eval_batch", "eval_jet1_batch", "eval_jet2", "eval_jet2_batch",
    "eval_mixed_jet_batch", "finite_diff_jet",
]

# Denominators with modulus at or below this abort evaluation.  Absolute, not
# relative to the operands: roundoff-sized divisors pass (module docstring).
EPS_DIV = 1e-300


class ParseError(ValueError):
    """Syntax or validity error in expression text, with character offset."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


class EvalError(ValueError):
    """Numeric failure during evaluation (near-zero division, overflow) at
    the batch row `row`."""


class _Frozen:
    """Base of qholo's immutable classes.  A subclass names its fields in
    __slots__ (its bases' fields come first in _fields) and sets them once
    in __init__ through _set or object.__setattr__; assigning or deleting
    one later raises AttributeError.  repr shows the fields, == and hash
    compare their values between objects of one class, and copy and pickle
    keep them."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for c in reversed(cls.__mro__)
                            for f in c.__dict__.get("__slots__", ()))

    def _set(self, values):
        for f, v in zip(self._fields, values, strict=True):
            object.__setattr__(self, f, v)

    __setstate__ = _set

    def __getstate__(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = zip(self._fields, self.__getstate__())
        inner = ", ".join(f"{f}={v!r}" for f, v in fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self):
        return hash(self.__getstate__())


class Expr(_Frozen):
    """Base node.  All nodes carry the ambient dimension n and are immutable.
    Every node's constructor validates and sets n through Expr.__init__."""

    __slots__ = ("n",)

    def __init__(self, n):
        if n < 1:
            raise ValueError("dimension must be a positive integer")
        object.__setattr__(self, "n", n)

    def _same_n(self, other):
        """other, checked to be a node of this node's dimension."""
        if not isinstance(other, Expr):
            raise TypeError(f"expected Expr, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return other

    def _lift(self, value):
        if isinstance(value, Expr):
            return self._same_n(value)
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

    def __eq__(self, other):
        """Structural equality, walked without recursion."""
        if not isinstance(other, Expr):
            return NotImplemented
        stack = [(self, other)]
        seen = set()        # (id, id) pairs already compared
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if type(a) is not type(b) or a.n != b.n or _data(a) != _data(b):
                return False
            stack.extend(zip(_kids(a), _kids(b)))
        return True

    def __hash__(self):
        # structurally equal trees print alike (to_text prints -0.0 as 0)
        return hash((self.n, to_text(self)))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, n, value):
        Expr.__init__(self, n)
        v = complex(value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"constant must be finite, got {v}")
        object.__setattr__(self, "value", v)


class _Indexed(Expr):
    __slots__ = ("index",)      # 1-based

    def __init__(self, n, index):
        Expr.__init__(self, n)
        if not 1 <= index <= n:
            raise ValueError(f"variable index {index} out of range 1..{n}")
        object.__setattr__(self, "index", index)


class Var(_Indexed):
    """The variable z_index."""

    __slots__ = ()


class CVar(_Indexed):
    """Conjugated variable conj(z_index)."""

    __slots__ = ()


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, n, left, right):
        Expr.__init__(self, n)
        object.__setattr__(self, "left", self._same_n(left))
        object.__setattr__(self, "right", self._same_n(right))


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, n, base, exponent):
        Expr.__init__(self, n)
        object.__setattr__(self, "base", self._same_n(base))
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ValueError("exponent must be an integer")
        if exponent < 0:
            raise ValueError("negative integer exponent not allowed; use division")
        object.__setattr__(self, "exponent", exponent)


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, n, arg):
        Expr.__init__(self, n)
        object.__setattr__(self, "arg", self._same_n(arg))


class Exp(_Unary):
    __slots__ = ()


class Neg(_Unary):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Conjugation

def conjugate(e: Expr, memo=None) -> Expr:
    """Syntactic conjugate: constants conjugated, z_k and conj(z_k) swapped.

    Evaluating the result at any point gives the complex conjugate of
    evaluating e at that point.  The tree is walked without recursion, and a
    node reached along several paths is conjugated once.  A memo dict shared
    across calls maps id(node) to its conjugate both ways, so a conjugate of
    a conjugate is its source and no node is conjugated twice; it holds every
    node it names, so the ids stay valid while it lives.
    """
    done = {} if memo is None else memo
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        t = type(node)
        if t not in _CHILDREN:
            raise TypeError(f"not an Expr node: {node!r}")
        args = _kids(node)
        todo = [a for a in args if id(a) not in done]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if t is Const:
            conj = Const(node.n, node.value.conjugate())
        elif t is Var or t is CVar:
            conj = (CVar if t is Var else Var)(node.n, node.index)
        elif t is Pow:
            conj = Pow(node.n, done[id(node.base)], node.exponent)
        else:
            conj = t(node.n, *(done[id(a)] for a in args))
        done[id(node)] = conj
        done[id(conj)] = node
    return done[id(e)]


_CHILDREN = {Const: (), Var: (), CVar: (), Neg: ("arg",), Exp: ("arg",),
             Pow: ("base",), Add: ("left", "right"), Sub: ("left", "right"),
             Mul: ("left", "right"), Div: ("left", "right")}


def _kids(node):
    return [getattr(node, a) for a in _CHILDREN[type(node)]]


def _data(node):
    """What a node holds besides n and its children."""
    t = type(node)
    if t is Const:
        return node.value
    if t is Var or t is CVar:
        return node.index
    return node.exponent if t is Pow else None


def _tree_size(e, limit):
    """Nodes of e counted along every path, stopping once past limit."""
    count = 0
    stack = [e]
    while stack and count <= limit:
        node = stack.pop()
        count += 1
        stack.extend(getattr(node, a) for a in _CHILDREN[type(node)])
    return count


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([a-z][a-z0-9]*)|([+\-*/^()]))")

_FUNCTIONS = ("conj", "re", "im", "abs2", "exp")
_VAR_RE = re.compile(r"z([0-9]+)$")
# Deepest nesting of parentheses, calls and unary minus the parser accepts;
# it keeps the recursive descent far from Python's recursion limit.
MAX_NESTING = 100
# Most nodes a parsed tree may have, counted along every path.  Each token
# counts one, and re, im and abs2, which hold their argument and its
# conjugate, add the argument's size, so nesting them (which doubles the tree
# per level) is refused before the copy is built.
MAX_NODES = 20_000


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
    Const node and the printer round-trips.  Every nesting level passes
    through parse_base, which counts them against MAX_NESTING; the tokens
    and the arguments re, im and abs2 copy count against MAX_NODES.
    """

    def __init__(self, toks, n):
        self.toks = toks
        self.n = n
        self.k = 0
        self.depth = 0
        self.copied = 0     # nodes re, im and abs2 added by copying
        self.conj_memo = {}     # shared by every conjugate of this parse

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
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             self.peek()[2])
        e = self._parse_base()
        self.depth -= 1
        return e

    def _parse_base(self):
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
            if name in ("re", "im", "abs2"):
                self.copied += _tree_size(arg, MAX_NODES)
                if self.k + self.copied > MAX_NODES:
                    raise ParseError(
                        f"expression expands past {MAX_NODES} nodes", pos)
            return self._apply(name, arg)
        raise ParseError(f"unknown identifier '{name}'", pos)

    def _apply(self, name, arg):
        if name == "exp":
            return Exp(self.n, arg)
        conj = conjugate(arg, self.conj_memo)
        if name == "conj":
            return conj
        # re, im, abs2 desugar into z / conj(z) algebra.
        if name == "abs2":
            return self._fold2(Mul, arg, conj)
        if name == "re":
            return self._fold2(Div, self._fold2(Add, arg, conj), Const(self.n, 2))
        # im(e) = (e - conj e) / 2i
        return self._fold2(Div, self._fold2(Sub, arg, conj), Const(self.n, 2j))

    def _fold2(self, node, a, b):
        """node(a, b), folded to a Const when both are constants.  The fold
        runs the tape's numpy operation on one-row arrays, in the tape's
        operand order, so it rounds as evaluation at a point does (numpy's
        complex product is not bitwise commutative)."""
        if (type(a) is Const and type(b) is Const
                and (node is not Div or b.value != 0)):
            v = _FOLD[node](np.array([a.value]), np.array([b.value]))
            return Const(self.n, complex(v[0]))
        return node(self.n, a, b)


_FOLD = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}


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
    with np.errstate(all="ignore"):     # an overflowing fold fails in Const
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
# Binary operators: symbol and the levels their left and right slots require.
_INFIX = {Add: ("+", 1, 2), Sub: ("-", 1, 2), Mul: ("*", 2, 3),
          Div: ("/", 2, 3)}


def to_text(e: Expr) -> str:
    """Render to parseable text; parse(to_text(e), e.n) rebuilds e for every
    tree whose constant-only subtrees are already folded (as parse produces).

    Pieces are emitted left to right from an explicit stack of pending
    strings and (node, context level) pairs, so deep trees do not recurse.
    """
    out = []
    stack = [(e, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, ctx = item
        t = type(node)
        if t is Const:
            txt, level = _const_text(node.value)
            out.append(f"({txt})" if level < ctx else txt)
            continue
        if t is Var:
            pieces = [f"z{node.index}"]
        elif t is CVar:
            pieces = [f"conj(z{node.index})"]
        elif t is Exp:
            pieces = ["exp(", (node.arg, 0), ")"]
        elif t is Neg:
            pieces = ["-", (node.arg, 4)]
        elif t is Pow:
            pieces = [(node.base, 4), f"^{node.exponent}"]
        elif t in _INFIX:
            sym, left, right = _INFIX[t]
            pieces = [(node.left, left), sym, (node.right, right)]
        else:
            raise TypeError(f"not an Expr node: {node!r}")
        if _LEVEL.get(t, 4) < ctx:
            pieces = ["(", *pieces, ")"]
        stack.extend(reversed(pieces))
    return "".join(out)


# ---------------------------------------------------------------------------
# Evaluation
#
# An expression is lowered once to a linear post-order tape (one instruction
# per node) and a single interpreter runs the tape over a batch of points, for
# values alone or for jets in forward (Taylor) mode.  A batch jet of order 2
# is a triple (v, G, H): v (m,) values, G (m, 2n) the gradient in the
# coordinates (z, conj z) and H the block hb = (rows, cols) of the Hessian in
# those coordinates: all of it, (m, 2n, 2n) with upper blocks h_zz, h_zzb and
# h_zbzb, or h_zzb alone, (m, n, n).  The rules add Hessians times scalars and
# outer products of gradients, so restricting the outer products to hb
# (_outer) gives that block of the full H bit for bit.  A jet of order 1 is
# the pair (v, G), computed by the same formulas, so it equals the first two
# entries of the order-2 jet bit for bit without building H.  One array per
# order keeps the number of numpy calls per instruction small; the lower-left
# block of a full H (the transpose of h_zzb) is computed but never read.
#
# A structurally zero derivative block is None: a constant is (v, None, None)
# and a coordinate or an affine term (v, G, None).  The jet rules skip what a
# None block would add (Griewank & Walther 2008, ch. 7), and only the result's
# None blocks become zero arrays.  Dropping exact-zero addends leaves every sum
# unchanged; numpy's SIMD complex multiply is not bitwise commutative, so each
# product keeps the dense formula's operand order (ag * bv, not bv * ag), and
# the jets equal dense evaluation's bit for bit (up to the sign of zeros).

_CONST, _VAR, _CVAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _EXP = range(10)
_OPCODE = {Const: _CONST, Var: _VAR, CVar: _CVAR, Neg: _NEG, Add: _ADD,
           Sub: _SUB, Mul: _MUL, Div: _DIV, Pow: _POW, Exp: _EXP}

# Chunk rows bound the interpreter's scratch memory at any n: _BUDGET // n
# rows at order 1; at order 2, _HESSIAN_ENTRIES carried Hessian entries, so
# _BUDGET // n^2 rows of full jets and four times as many of mixed ones.
# A value slot holds one entry per row at any n: _VALUE_ROWS rows, 256 kB.
_BUDGET = 1024
_HESSIAN_ENTRIES = 4 * _BUDGET
_VALUE_ROWS = 16 * _BUDGET


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
        kids = _kids(node)
        todo = [k for k in kids if id(k) not in slot_of]
        if todo:
            stack.extend(reversed(todo))        # left operand first
            continue
        stack.pop()
        payload = node if op == _DIV else _data(node)
        if op == _VAR or op == _CVAR:
            payload -= 1
        slot_of[id(node)] = len(tape)
        tape.append((op, tuple(slot_of[id(k)] for k in kids), payload))
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


def _outer(a, b, hb):
    """Block hb = (rows, cols) of the row-wise outer products of a and b."""
    rows, cols = hb
    return a[:, rows, None] * b[:, None, cols]


def _plus(x, y):
    """x + y for derivative blocks, None standing for zero."""
    if x is None:
        return y
    return x if y is None else x + y


def _minus(x, y):
    """x - y for derivative blocks, None standing for zero."""
    if y is None:
        return x
    return -y if x is None else x - y


def _jet_product(a, b, hb):
    av, ag = a[:2]
    bv, bg = b[:2]
    out = (av * bv, _plus(None if ag is None else ag * bv[:, None],
                          None if bg is None else av[:, None] * bg))
    if len(a) == 2:
        return out
    h = None if a[2] is None else a[2] * bv[:, None, None]
    if ag is not None and bg is not None:
        h = _plus(_plus(h, _outer(ag, bg, hb)), _outer(bg, ag, hb))
    return out + (_plus(h, None if b[2] is None else av[:, None, None] * b[2]),)


def _jet_reciprocal(b, hb):
    bv, bg = b[:2]
    iv = 1.0 / bv
    iv2 = iv * iv
    out = (iv, None if bg is None else -bg * iv2[:, None])
    if len(b) == 2:
        return out
    iv3 = iv2 * iv
    h = None if bg is None else 2.0 * _outer(bg, bg, hb) * iv3[:, None, None]
    return out + (_minus(h, None if b[2] is None else b[2] * iv2[:, None, None]),)


def _jet_power(a, k, hb):
    av, ag = a[:2]
    if k == 0:
        return (np.ones_like(av),) + (None,) * (len(a) - 1)
    if k == 1:
        return a
    c1 = k * av ** (k - 1)
    out = (av ** k, None if ag is None else c1[:, None] * ag)
    if len(a) == 2:
        return out
    c2 = k * (k - 1) * av ** (k - 2)
    h = None if ag is None else c2[:, None, None] * _outer(ag, ag, hb)
    return out + (_plus(h, None if a[2] is None else c1[:, None, None] * a[2]),)


def _jet_exp(a, hb):
    u = np.exp(a[0])
    out = (u, None if a[1] is None else u[:, None] * a[1])
    if len(a) == 2:
        return out
    inner = _plus(None if a[1] is None else _outer(a[1], a[1], hb), a[2])
    return out + (None if inner is None else u[:, None, None] * inner,)


def _leaf(op, index_or_value, pts, order):
    """Values (order 0) or the batch jet of a constant or a coordinate."""
    m, n = pts.shape
    if op == _CONST:
        v = np.full(m, index_or_value, dtype=complex)
    elif op == _VAR:
        v = pts[:, index_or_value].copy()
    else:
        v = np.conj(pts[:, index_or_value])
    if not order:
        return v
    if op == _CONST:
        return (v,) + (None,) * order
    g = np.zeros((m, 2 * n), dtype=complex)
    g[:, index_or_value if op == _VAR else n + index_or_value] = 1.0
    return (v, g) + (None,) * (order - 1)


def _value_op(op, payload, a, b=None):
    if op == _MUL:
        return a * b
    if op == _ADD:
        return a + b
    if op == _SUB:
        return a - b
    if op == _DIV:
        return a / b
    if op == _NEG:
        return -a
    if op == _POW:
        return a ** payload
    return np.exp(a)


def _jet_op(op, payload, hb, a, b=None):
    if op == _MUL:
        return _jet_product(a, b, hb)
    if op == _ADD:
        return tuple(_plus(x, y) for x, y in zip(a, b))
    if op == _SUB:
        return tuple(_minus(x, y) for x, y in zip(a, b))
    if op == _DIV:
        return _jet_product(a, _jet_reciprocal(b, hb), hb)
    if op == _NEG:
        return tuple(None if x is None else -x for x in a)
    if op == _POW:
        return _jet_power(a, payload, hb)
    return _jet_exp(a, hb)


def _jet_shapes(n, order, hb):
    """Per-row shapes of a batch jet's arrays (the values' at order 0); hb is
    its Hessian block."""
    shapes = [(), (2 * n,)][:order + 1]
    return shapes + [tuple(len(range(2 * n)[s]) for s in hb)] if order == 2 else shapes


def _near_zero(first_div, d, k):
    """first_div, each row's first near-zero divisor (tape index, -1 for
    none; None before any), updated with divisor d at tape index k."""
    small = np.abs(d) <= EPS_DIV
    if small.any():
        if first_div is None:
            first_div = np.full(len(d), -1)
        first_div[small & (first_div < 0)] = k
    return first_div


def _run(tape, pts, order, hb=None):
    """Interpret the tape over the rows of pts: (v,), the (m,) values, at
    order 0, the batch jet (v, G) at order 1 or (v, G, H) at order 2, H the
    Hessian block hb, each block an array; and first_div (_near_zero).  Rows
    run on past near-zero divisors, so callers ignore floating point errors.

    Operands reach each step only through the slots and the call's
    arguments, so a freed slot's arrays are released at once.
    """
    m, n = pts.shape
    slots = [None] * len(tape)
    first_div = None
    for k, (op, args, payload, free) in enumerate(tape):
        if op == _DIV:
            first_div = _near_zero(
                first_div, slots[args[1]][0] if order else slots[args[1]], k)
        if op <= _CVAR:
            slots[k] = _leaf(op, payload, pts, order)
        elif order:
            slots[k] = _jet_op(op, payload, hb, *[slots[a] for a in args])
        else:
            slots[k] = _value_op(op, payload, *[slots[a] for a in args])
        for a in free:
            slots[a] = None
    if not order:
        return (slots[-1],), first_div
    return tuple(np.zeros((m,) + s, dtype=complex) if d is None else d
                 for s, d in zip(_jet_shapes(n, order, hb), slots[-1])), first_div


def _chunked(tape, pts, order, hb, rows):
    """_run over the rows of pts, at most `rows` at a time, with floating
    point errors ignored; first_div keeps global row positions."""
    m = len(pts)
    with np.errstate(all="ignore"):
        if m <= rows:
            return _run(tape, pts, order, hb)
        parts = [np.empty((m,) + s, dtype=complex)
                 for s in _jet_shapes(pts.shape[1], order, hb)]
        first_div = None
        for lo in range(0, m, rows):
            chunk, div = _run(tape, pts[lo:lo + rows], order, hb)
            for out, part in zip(parts, chunk):
                out[lo:lo + rows] = part
            del chunk       # hold no operands across the next _run
            if div is not None:
                first_div = np.full(m, -1) if first_div is None else first_div
                first_div[lo:lo + rows] = div
    return parts, first_div


def _failures(e, tape, first_div, blocks, what):
    """(bad rows, builder of the first bad row's EvalError), or (None, None);
    a row is bad at a near-zero divisor or a non-finite entry of `blocks`.
    The builder formats the message when called, `row` that row or `at`."""
    if first_div is None and all(np.isfinite(b).all() for b in blocks):
        return None, None
    bad = np.logical_or.reduce(
        [~np.isfinite(b).all(axis=tuple(range(1, b.ndim))) for b in blocks])
    if first_div is not None:
        bad |= first_div >= 0
    row = int(np.argmax(bad))
    k = -1 if first_div is None else int(first_div[row])

    def error(at=row):
        err = EvalError(f"division by near-zero in '{to_text(tape[k][2])}'" if k >= 0
                        else f"non-finite {what} while evaluating '{to_text(e)}'")
        err.row = at
        return err

    return bad, error


def _raised(result):
    """The result of a (result, bad rows, error builder) triple, or its error."""
    out, _, error = result
    if error is not None:
        raise error()
    return out


def _as_point(z, n):
    z = np.asarray(z, dtype=complex)
    if z.shape != (n,):
        raise ValueError(f"point has shape {z.shape}, expected ({n},)")
    if not np.all(np.isfinite(z)):
        raise ValueError("point has non-finite coordinates")
    return z


def _as_points(pts, n, finite=False):
    pts = np.asarray(pts, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"points have shape {pts.shape}, expected (m, {n})")
    if finite and not np.all(np.isfinite(pts)):
        raise ValueError("points have non-finite coordinates")
    return pts


def _values(e, pts):
    """(values, bad rows, error builder) of e at the rows of pts (_failures)."""
    pts = _as_points(pts, e.n)
    tape = _tape(e)
    (v,), first_div = _chunked(tape, pts, 0, None, _VALUE_ROWS)
    return (v, *_failures(e, tape, first_div, (v,), "value"))


def eval_value(e: Expr, z) -> complex:
    """Evaluate just the value of e at point z (length-n complex vector)."""
    return complex(_raised(_values(e, _as_point(z, e.n)[None, :]))[0])


def eval_batch(e: Expr, pts) -> np.ndarray:
    """Evaluate values of e at many points at once; pts has shape (m, n)."""
    return _raised(_values(e, pts))


class Jet2(NamedTuple):
    """Second-order Wirtinger jet at a point, or at each row of a stack.

    value: f(z); g_z[i] = df/dz_i; g_zb[j] = df/dconj(z_j);
    h_zz[i,j] = d2f/dz_i dz_j (symmetric); h_zzb[i,j] = d2f/dz_i dconj(z_j);
    h_zbzb[i,j] = d2f/dconj(z_i) dconj(z_j) (symmetric).  At a point value
    is a complex and the blocks are (n,) and (n, n); for a stack of m points
    every field has a leading point axis: (m,), (m, n) and (m, n, n), and
    is_real_valued answers per point.
    """

    value: complex | np.ndarray
    g_z: np.ndarray
    g_zb: np.ndarray
    h_zz: np.ndarray
    h_zzb: np.ndarray
    h_zbzb: np.ndarray

    @property
    def n(self):
        return self.g_z.shape[-1]

    def is_real_valued(self, tol=1e-9):
        v = self.value
        ok = np.abs(v.imag) <= tol * np.fmax(1.0, np.abs(v.real))
        return ok if np.ndim(ok) else bool(ok)


def _jet_blocks(e, pts, order=2, mixed=False):
    """(blocks, bad rows, error builder) of e at the rows of pts (_failures);
    the read-only blocks are (value, g_z, g_zb) and at order 2 also h_zzb
    alone when mixed, else a stacked Jet2."""
    n = e.n
    pts = _as_points(pts, n, finite=True)
    tape = _tape(e)
    hb = (slice(0, n), slice(n, 2 * n)) if mixed else (slice(None),) * 2
    rows = max(1, _HESSIAN_ENTRIES // math.prod(_jet_shapes(n, order, hb)[2])
               if order == 2 else _BUDGET // n)
    parts, first_div = _chunked(tape, pts, order, hb, rows)
    v, g = parts[:2]
    blocks = (v, g[:, :n], g[:, n:])
    if order == 2:
        h = parts[2]
        blocks += (h,) if mixed else (h[:, :n, :n], h[:, :n, n:], h[:, n:, n:])
    for b in blocks:
        b.flags.writeable = False
    if len(blocks) == 6:
        blocks = Jet2(*blocks)
    return (blocks, *_failures(e, tape, first_div, blocks, "jet"))


def eval_jet1_batch(e: Expr, pts) -> tuple:
    """The blocks (value, g_z, g_zb) of eval_jet2_batch(e, pts), bit for bit
    and with the same errors, without computing second derivatives."""
    return _raised(_jet_blocks(e, pts, order=1))


def eval_jet2_batch(e: Expr, pts) -> Jet2:
    """Exact forward-mode 2-jets of e at the rows of pts, shape (m, n).

    Returns one stacked Jet2 of read-only blocks with a leading point axis:
    shapes (m,), (m, n) and (m, n, n).  Row k equals eval_jet2(e, pts[k])
    exactly.  The first row with a near-zero divisor or a non-finite entry
    raises EvalError (module docstring); non-finite input raises ValueError.
    """
    return _raised(_jet_blocks(e, pts))


def eval_mixed_jet_batch(e: Expr, pts) -> tuple:
    """The blocks (value, g_z, g_zb, h_zzb) of eval_jet2_batch(e, pts), bit
    for bit, carrying only h_zzb through the tape.  The errors are the same,
    except that a row where only h_zz or h_zbzb overflows does not fail."""
    return _raised(_jet_blocks(e, pts, mixed=True))


def eval_jet2(e: Expr, z) -> Jet2:
    """Exact forward-mode second-order Wirtinger jet of e at point z."""
    j = _raised(_jet_blocks(e, _as_point(z, e.n)[None, :]))
    return Jet2(complex(j.value[0]), *(b[0] for b in j[1:]))


# ---------------------------------------------------------------------------
# Finite-difference oracle

def finite_diff_jet(f, z, h: float = 1e-4, n: int | None = None) -> Jet2:
    """Central-difference approximation of the second-order Wirtinger jet.

    f is an Expr or a callable that maps an (m, n) batch of points to its
    (m,) values (f is called once, on all stencil points).  The full real
    Hessian in the 2n coordinates (x, y) is assembled from shared stencils,
    so the symmetry of the derived complex blocks is exact.  Used as an
    independent oracle for eval_jet2 and for functions outside the
    expression language.
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

    e = h * np.eye(m)       # e[a]: the step along real coordinate a
    offsets = [np.zeros(m)]
    for a in range(m):
        offsets.extend([e[a], -e[a]])
    pair_index = {}
    for a in range(m):
        for b in range(a + 1, m):
            pair_index[(a, b)] = len(offsets)
            offsets.extend([e[a] + e[b], e[a] - e[b], -e[a] + e[b], -e[a] - e[b]])
    offsets = np.array(offsets)
    pts = z[None, :] + offsets[:, :n] + 1j * offsets[:, n:]

    vals = (eval_batch(f, pts) if isinstance(f, Expr)
            else np.asarray(f(pts), dtype=complex))
    if vals.shape != (len(pts),):
        raise ValueError(f"f must map an (m, n) batch to (m,) values, got {vals.shape}")

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

