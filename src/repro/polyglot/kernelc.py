"""A restricted CUDA C kernel front-end (the NVRTC substitute).

GrOUT's ``buildkernel`` hands a CUDA C++ source string to NVRTC at runtime;
here the same string is parsed into an AST and *compiled* to a vectorised
NumPy executor that runs the kernel SPMD-style: the global thread index is
an array, per-thread variables are arrays, divergent ``if`` bodies execute
under boolean masks.  Numerical results are therefore exact, and the parser
also derives the memory-access descriptors (direction per pointer
parameter, sequential vs. gather/scatter pattern) and a per-element FLOP
estimate that feed the UVM cost model.

Supported subset — enough for the paper's workload suite and examples:

* signature: ``extern "C" __global__ void name(const float* x, int n, …)``
* statements: declarations, (compound) assignments, ``if``/``else``,
  uniform-bound ``for``, bare ``return`` (thread guard)
* expressions: arithmetic, comparisons, logicals, ternary, array indexing,
  ``threadIdx/blockIdx/blockDim/gridDim`` (``.x`` only), calls to a math
  whitelist, ``atomicAdd(&target, value)``
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.numerics import erf


class KernelSyntaxError(ValueError):
    """Raised when a kernel source leaves the supported subset."""


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*|/\*.*?\*/|"[^"]*")
  | (?P<num>0[xX][0-9a-fA-F]+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[fF]?)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op><<=|>>=|\+\+|--|\+=|-=|\*=|/=|%=|==|!=|<=|>=|&&|\|\||<<|>>|[-+*/%<>=!&|^~?:;,.()\[\]{}])
""", re.VERBOSE | re.DOTALL)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str      # "num" | "name" | "op"
    text: str
    pos: int


def tokenize(source: str) -> list[Token]:
    """Split kernel source into tokens (comments/strings dropped)."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise KernelSyntaxError(
                f"unexpected character {source[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        assert kind is not None
        tokens.append(Token(kind, m.group(), m.start()))
    return tokens


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Num:
    value: float
    is_int: bool


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Builtin:
    name: str           # "threadIdx" | "blockIdx" | "blockDim" | "gridDim"


@dataclass(frozen=True, slots=True)
class Index:
    base: str
    index: object       # expression


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Ternary:
    cond: object
    if_true: object
    if_false: object


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    args: tuple


@dataclass(frozen=True, slots=True)
class Decl:
    type: str
    name: str
    init: object | None


@dataclass(frozen=True, slots=True)
class Assign:
    target: object      # Var or Index
    op: str             # "=", "+=", ...
    value: object


@dataclass(frozen=True, slots=True)
class AtomicAdd:
    target: Index
    value: object


@dataclass(frozen=True, slots=True)
class If:
    cond: object
    then: tuple
    orelse: tuple


@dataclass(frozen=True, slots=True)
class For:
    init: object        # Decl or Assign
    cond: object
    step: Assign
    body: tuple


@dataclass(frozen=True, slots=True)
class While:
    cond: object
    body: tuple


@dataclass(frozen=True, slots=True)
class Return:
    value: object | None = None    # expression in __device__ functions


@dataclass(frozen=True, slots=True)
class Param:
    type: str
    name: str
    is_pointer: bool
    is_const: bool


@dataclass(frozen=True, slots=True)
class DeviceFunction:
    """A ``__device__`` helper: pure scalar function, inlined at call time.

    Restrictions (checked at parse time): scalar parameters only, and the
    single ``return <expr>;`` must be the final statement — divergent
    early returns with values are out of the supported subset.
    """

    name: str
    params: tuple[Param, ...]
    body: tuple                  # statements, last is Return(expr)
    flops: float = 0.0


@dataclass(slots=True)
class KernelAst:
    name: str
    params: list[Param]
    body: tuple
    reads: set[str] = field(default_factory=set)     # pointer params read
    writes: set[str] = field(default_factory=set)    # pointer params written
    gathers: set[str] = field(default_factory=set)   # indexed via other data
    flops_per_thread: float = 0.0
    device_functions: dict[str, DeviceFunction] = field(
        default_factory=dict)


_TYPES = {"float", "double", "int", "long", "unsigned", "size_t", "bool",
          "char", "short"}
_FLOP_OPS = {"+": 1, "-": 1, "*": 1, "/": 4, "%": 4}
_FUNC_FLOPS = {"exp": 10, "expf": 10, "log": 10, "logf": 10, "sqrt": 5,
               "sqrtf": 5, "fabs": 1, "fabsf": 1, "pow": 15, "powf": 15,
               "erf": 12, "erff": 12, "fmax": 1, "fmaxf": 1, "fmin": 1,
               "fminf": 1, "sin": 10, "sinf": 10, "cos": 10, "cosf": 10,
               "tanh": 12, "tanhf": 12, "floor": 1, "ceil": 1,
               "normcdf": 15, "normcdff": 15, "min": 1, "max": 1,
               "abs": 1}


class _Parser:
    """Recursive-descent parser for the kernel subset."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    # -- cursor helpers -------------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise KernelSyntaxError("unexpected end of kernel source")
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise KernelSyntaxError(
                f"expected {text!r}, got {tok.text!r} at offset {tok.pos}")
        return tok

    def accept(self, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.text == text:
            self.i += 1
            return True
        return False

    # -- kernel & params -------------------------------------------------------

    def parse_kernel(self) -> KernelAst:
        """Parse a translation unit: __device__ helpers + one __global__."""
        device_fns: dict[str, DeviceFunction] = {}
        kernel: KernelAst | None = None
        while self.peek() is not None:
            # optional: extern "C" (string literal dropped as whitespace)
            self.accept("extern")
            tok = self.peek()
            if tok is None:
                break
            if tok.text == "__device__":
                fn = self._parse_device_function()
                device_fns[fn.name] = fn
            elif tok.text == "__global__":
                if kernel is not None:
                    raise KernelSyntaxError(
                        "only one __global__ kernel per source is "
                        "supported")
                kernel = self._parse_global()
            else:
                raise KernelSyntaxError(
                    f"expected __device__ or __global__, got {tok.text!r}")
        if kernel is None:
            raise KernelSyntaxError("source defines no __global__ kernel")
        kernel.device_functions = device_fns
        return kernel

    def _parse_global(self) -> KernelAst:
        self.expect("__global__")
        self.expect("void")
        name = self.next()
        if name.kind != "name":
            raise KernelSyntaxError(f"expected kernel name, got {name.text!r}")
        self.expect("(")
        params: list[Param] = []
        if not self.accept(")"):
            while True:
                params.append(self._parse_param())
                if self.accept(")"):
                    break
                self.expect(",")
        body = self._parse_block()
        return KernelAst(name=name.text, params=params, body=body)

    def _parse_device_function(self) -> DeviceFunction:
        self.expect("__device__")
        ret_type = self.next()
        if ret_type.text not in _TYPES:
            raise KernelSyntaxError(
                f"__device__ functions must return a scalar type, got "
                f"{ret_type.text!r}")
        name = self.next()
        if name.kind != "name":
            raise KernelSyntaxError(
                f"expected function name, got {name.text!r}")
        self.expect("(")
        params: list[Param] = []
        if not self.accept(")"):
            while True:
                param = self._parse_param()
                if param.is_pointer:
                    raise KernelSyntaxError(
                        f"__device__ function {name.text!r}: pointer "
                        "parameters are not supported")
                params.append(param)
                if self.accept(")"):
                    break
                self.expect(",")
        body = self._parse_block()
        _validate_device_body(name.text, body)
        return DeviceFunction(name=name.text, params=tuple(params),
                              body=body,
                              flops=_device_fn_flops(body))

    def _parse_param(self) -> Param:
        is_const = self.accept("const")
        type_tok = self.next()
        if type_tok.text not in _TYPES:
            raise KernelSyntaxError(f"unsupported type {type_tok.text!r}")
        # allow "unsigned int", "long long"
        while self.peek() is not None and self.peek().text in _TYPES:  # type: ignore[union-attr]
            self.next()
        is_pointer = False
        while self.accept("*"):
            is_pointer = True
        if self.accept("const"):
            is_const = True
        if self.accept("__restrict__"):
            pass
        name_tok = self.next()
        if name_tok.kind != "name":
            raise KernelSyntaxError(
                f"expected parameter name, got {name_tok.text!r}")
        return Param(type_tok.text, name_tok.text, is_pointer, is_const)

    # -- statements --------------------------------------------------------------

    def _parse_block(self) -> tuple:
        self.expect("{")
        stmts: list[object] = []
        while not self.accept("}"):
            stmts.append(self._parse_statement())
        return tuple(stmts)

    def _parse_statement(self) -> object:
        tok = self.peek()
        if tok is None:
            raise KernelSyntaxError("unexpected end of kernel body")
        if tok.text == "{":
            return If(Num(1.0, True), self._parse_block(), ())
        if tok.text == ";":
            self.next()
            return If(Num(1.0, True), (), ())
        if tok.text == "if":
            return self._parse_if()
        if tok.text == "for":
            return self._parse_for()
        if tok.text == "while":
            return self._parse_while()
        if tok.text == "return":
            self.next()
            value = None
            nxt = self.peek()
            if nxt is not None and nxt.text != ";":
                value = self._parse_expr()
            self.expect(";")
            return Return(value)
        if tok.text in _TYPES or tok.text == "const":
            decl = self._parse_decl()
            self.expect(";")
            return decl
        if tok.text == "atomicAdd":
            stmt = self._parse_atomic()
            self.expect(";")
            return stmt
        stmt = self._parse_assign()
        self.expect(";")
        return stmt

    def _parse_decl(self) -> Decl:
        self.accept("const")
        type_tok = self.next()
        if type_tok.text not in _TYPES:
            raise KernelSyntaxError(f"unsupported type {type_tok.text!r}")
        while self.peek() is not None and self.peek().text in _TYPES:  # type: ignore[union-attr]
            self.next()
        name_tok = self.next()
        init = None
        if self.accept("="):
            init = self._parse_expr()
        return Decl(type_tok.text, name_tok.text, init)

    def _parse_assign(self) -> Assign:
        target = self._parse_postfix()
        if not isinstance(target, (Var, Index)):
            raise KernelSyntaxError("left side of assignment must be a "
                                    "variable or an indexed pointer")
        op_tok = self.next()
        if op_tok.text == "++":
            return Assign(target, "+=", Num(1.0, True))
        if op_tok.text == "--":
            return Assign(target, "-=", Num(1.0, True))
        if op_tok.text not in ("=", "+=", "-=", "*=", "/="):
            raise KernelSyntaxError(
                f"unsupported assignment operator {op_tok.text!r}")
        value = self._parse_expr()
        return Assign(target, op_tok.text, value)

    def _parse_atomic(self) -> AtomicAdd:
        self.expect("atomicAdd")
        self.expect("(")
        self.expect("&")
        target = self._parse_postfix()
        if not isinstance(target, Index):
            raise KernelSyntaxError("atomicAdd target must be indexed")
        self.expect(",")
        value = self._parse_expr()
        self.expect(")")
        return AtomicAdd(target, value)

    def _parse_if(self) -> If:
        self.expect("if")
        self.expect("(")
        cond = self._parse_expr()
        self.expect(")")
        then = self._parse_branch()
        orelse: tuple = ()
        if self.accept("else"):
            orelse = self._parse_branch()
        return If(cond, then, orelse)

    def _parse_branch(self) -> tuple:
        if self.peek() is not None and self.peek().text == "{":  # type: ignore[union-attr]
            return self._parse_block()
        return (self._parse_statement(),)

    def _parse_while(self) -> While:
        self.expect("while")
        self.expect("(")
        cond = self._parse_expr()
        self.expect(")")
        return While(cond, self._parse_branch())

    def _parse_for(self) -> For:
        self.expect("for")
        self.expect("(")
        tok = self.peek()
        if tok is not None and (tok.text in _TYPES or tok.text == "const"):
            init: object = self._parse_decl()
        else:
            init = self._parse_assign()
        self.expect(";")
        cond = self._parse_expr()
        self.expect(";")
        step = self._parse_assign()
        self.expect(")")
        body = self._parse_branch()
        return For(init, cond, step, body)

    # -- expressions (precedence climbing) ----------------------------------------

    _PRECEDENCE = [
        ("||",), ("&&",), ("|",), ("^",), ("&",),
        ("==", "!="), ("<", ">", "<=", ">="),
        ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
    ]

    def _parse_expr(self) -> object:
        return self._parse_ternary()

    def _parse_ternary(self) -> object:
        cond = self._parse_binary(0)
        if self.accept("?"):
            if_true = self._parse_expr()
            self.expect(":")
            if_false = self._parse_expr()
            return Ternary(cond, if_true, if_false)
        return cond

    def _parse_binary(self, level: int) -> object:
        if level >= len(self._PRECEDENCE):
            return self._parse_unary()
        ops = self._PRECEDENCE[level]
        left = self._parse_binary(level + 1)
        while True:
            tok = self.peek()
            if tok is None or tok.text not in ops:
                return left
            self.next()
            right = self._parse_binary(level + 1)
            left = Binary(tok.text, left, right)

    def _parse_unary(self) -> object:
        tok = self.peek()
        if tok is not None and tok.text in ("-", "!", "+", "~"):
            self.next()
            operand = self._parse_unary()
            if tok.text == "+":
                return operand
            return Unary(tok.text, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> object:
        tok = self.next()
        if tok.kind == "num":
            text = tok.text
            if text.lower().startswith("0x"):
                return Num(float(int(text, 16)), True)
            text = text.rstrip("fF")
            is_int = not any(c in text for c in ".eE")
            value = float(int(text)) if is_int else float(text)
            return Num(value, is_int)
        if tok.text == "(":
            # Cast "(float)" or parenthesised expression.
            nxt = self.peek()
            if nxt is not None and nxt.text in _TYPES:
                self.next()
                self.expect(")")
                return self._parse_unary()
            inner = self._parse_expr()
            self.expect(")")
            return inner
        if tok.kind != "name":
            raise KernelSyntaxError(
                f"unexpected token {tok.text!r} at offset {tok.pos}")
        name = tok.text
        if name in ("threadIdx", "blockIdx", "blockDim", "gridDim"):
            self.expect(".")
            axis = self.next()
            if axis.text != "x":
                raise KernelSyntaxError(
                    f"only the .x launch axis is supported, got "
                    f".{axis.text}")
            return Builtin(name)
        if self.accept("("):
            args: list[object] = []
            if not self.accept(")"):
                while True:
                    args.append(self._parse_expr())
                    if self.accept(")"):
                        break
                    self.expect(",")
            return Call(name, tuple(args))
        if self.accept("["):
            index = self._parse_expr()
            self.expect("]")
            return Index(name, index)
        return Var(name)


# --------------------------------------------------------------------------
# Device-function validation & costing
# --------------------------------------------------------------------------

def _contains_valued_return(stmts: tuple) -> bool:
    for stmt in stmts:
        if isinstance(stmt, Return) and stmt.value is not None:
            return True
        if isinstance(stmt, If) and (
                _contains_valued_return(stmt.then)
                or _contains_valued_return(stmt.orelse)):
            return True
        if isinstance(stmt, (For, While)) and \
                _contains_valued_return(stmt.body):
            return True
    return False


def _validate_device_body(name: str, body: tuple) -> None:
    if not body or not isinstance(body[-1], Return) \
            or body[-1].value is None:
        raise KernelSyntaxError(
            f"__device__ function {name!r} must end with "
            "'return <expr>;'")
    if _contains_valued_return(body[:-1]):
        raise KernelSyntaxError(
            f"__device__ function {name!r}: early returns with values "
            "are not supported (use a ternary)")


def _expr_flops(node: object) -> float:
    """FLOP weight of an expression with no pointer context."""
    if isinstance(node, (Num, Var, Builtin)) or node is None:
        return 0.0
    if isinstance(node, Unary):
        return 1.0 + _expr_flops(node.operand)
    if isinstance(node, Binary):
        return (_FLOP_OPS.get(node.op, 1) + _expr_flops(node.left)
                + _expr_flops(node.right))
    if isinstance(node, Ternary):
        return (1.0 + _expr_flops(node.cond) + _expr_flops(node.if_true)
                + _expr_flops(node.if_false))
    if isinstance(node, Call):
        return float(_FUNC_FLOPS.get(node.func, 5)) + sum(
            _expr_flops(a) for a in node.args)
    if isinstance(node, Index):
        return _expr_flops(node.index)
    return 0.0


def _device_fn_flops(body: tuple) -> float:
    flops = 0.0
    for stmt in body:
        if isinstance(stmt, Decl):
            flops += _expr_flops(stmt.init)
        elif isinstance(stmt, Assign):
            flops += _expr_flops(stmt.value) + (stmt.op != "=")
        elif isinstance(stmt, If):
            flops += (_expr_flops(stmt.cond)
                      + _device_fn_flops(stmt.then)
                      + _device_fn_flops(stmt.orelse))
        elif isinstance(stmt, (For, While)):
            trip = _static_trip_count(stmt) if isinstance(stmt, For) \
                else 8.0
            flops += _expr_flops(stmt.cond) * trip \
                + _device_fn_flops(stmt.body) * trip
        elif isinstance(stmt, Return):
            flops += _expr_flops(stmt.value)
    return flops


# --------------------------------------------------------------------------
# Static analysis: directions, patterns, FLOP estimate
# --------------------------------------------------------------------------

def _walk_expr(node: object, ast: KernelAst, data_dependent: set[str]) -> float:
    """Accumulate reads/gathers and return the FLOP weight of ``node``."""
    if isinstance(node, (Num, Var, Builtin)) or node is None:
        return 0.0
    if isinstance(node, Index):
        pointer_names = {p.name for p in ast.params if p.is_pointer}
        if node.base in pointer_names:
            ast.reads.add(node.base)
            if _mentions_data(node.index, data_dependent, pointer_names):
                ast.gathers.add(node.base)
        return _walk_expr(node.index, ast, data_dependent)
    if isinstance(node, Unary):
        return 1.0 + _walk_expr(node.operand, ast, data_dependent)
    if isinstance(node, Binary):
        return (_FLOP_OPS.get(node.op, 1)
                + _walk_expr(node.left, ast, data_dependent)
                + _walk_expr(node.right, ast, data_dependent))
    if isinstance(node, Ternary):
        return (1.0 + _walk_expr(node.cond, ast, data_dependent)
                + _walk_expr(node.if_true, ast, data_dependent)
                + _walk_expr(node.if_false, ast, data_dependent))
    if isinstance(node, Call):
        if node.func in ast.device_functions:
            cost = ast.device_functions[node.func].flops
        else:
            cost = float(_FUNC_FLOPS.get(node.func, 5))
        for arg in node.args:
            cost += _walk_expr(arg, ast, data_dependent)
        return cost
    raise KernelSyntaxError(f"unsupported expression node {node!r}")


def _mentions_data(node: object, data_dependent: set[str],
                   pointers: set[str]) -> bool:
    """Does an index expression involve loaded data (gather/scatter)?"""
    if isinstance(node, Var):
        return node.name in data_dependent
    if isinstance(node, Index):
        return node.base in pointers or _mentions_data(
            node.index, data_dependent, pointers)
    if isinstance(node, Unary):
        return _mentions_data(node.operand, data_dependent, pointers)
    if isinstance(node, Binary):
        return (_mentions_data(node.left, data_dependent, pointers)
                or _mentions_data(node.right, data_dependent, pointers))
    if isinstance(node, Ternary):
        return any(_mentions_data(n, data_dependent, pointers)
                   for n in (node.cond, node.if_true, node.if_false))
    if isinstance(node, Call):
        return any(_mentions_data(a, data_dependent, pointers)
                   for a in node.args)
    return False


def _expr_loads_pointer(node: object, pointers: set[str]) -> bool:
    if isinstance(node, Index):
        return node.base in pointers or _expr_loads_pointer(
            node.index, pointers)
    if isinstance(node, Unary):
        return _expr_loads_pointer(node.operand, pointers)
    if isinstance(node, Binary):
        return (_expr_loads_pointer(node.left, pointers)
                or _expr_loads_pointer(node.right, pointers))
    if isinstance(node, Ternary):
        return any(_expr_loads_pointer(n, pointers)
                   for n in (node.cond, node.if_true, node.if_false))
    if isinstance(node, Call):
        return any(_expr_loads_pointer(a, pointers) for a in node.args)
    return False


def analyze(ast: KernelAst) -> None:
    """Populate reads/writes/gathers/flops of a parsed kernel in place."""
    pointers = {p.name for p in ast.params if p.is_pointer}
    data_dependent: set[str] = set()
    ast.flops_per_thread = _analyze_stmts(ast.body, ast, data_dependent,
                                          pointers, multiplier=1.0)


def _analyze_stmts(stmts: tuple, ast: KernelAst, data_dependent: set[str],
                   pointers: set[str], multiplier: float) -> float:
    flops = 0.0
    for stmt in stmts:
        if isinstance(stmt, Decl):
            flops += _walk_expr(stmt.init, ast, data_dependent) * multiplier
            if stmt.init is not None and _expr_loads_pointer(stmt.init,
                                                             pointers):
                data_dependent.add(stmt.name)
        elif isinstance(stmt, Assign):
            flops += _walk_expr(stmt.value, ast, data_dependent) * multiplier
            if stmt.op != "=":
                flops += multiplier
            target = stmt.target
            if isinstance(target, Index) and target.base in pointers:
                ast.writes.add(target.base)
                if stmt.op != "=":
                    ast.reads.add(target.base)
                if _mentions_data(target.index, data_dependent, pointers):
                    ast.gathers.add(target.base)
                flops += _walk_expr(target.index, ast,
                                    data_dependent) * multiplier
            elif isinstance(target, Var):
                if _expr_loads_pointer(stmt.value, pointers):
                    data_dependent.add(target.name)
        elif isinstance(stmt, AtomicAdd):
            flops += (_walk_expr(stmt.value, ast, data_dependent) + 1.0) \
                * multiplier
            if stmt.target.base in pointers:
                ast.writes.add(stmt.target.base)
                ast.reads.add(stmt.target.base)
        elif isinstance(stmt, If):
            flops += _walk_expr(stmt.cond, ast, data_dependent) * multiplier
            flops += _analyze_stmts(stmt.then, ast, data_dependent,
                                    pointers, multiplier)
            flops += _analyze_stmts(stmt.orelse, ast, data_dependent,
                                    pointers, multiplier)
        elif isinstance(stmt, For):
            trip = _static_trip_count(stmt)
            inner = multiplier * trip
            if isinstance(stmt.init, Decl):
                flops += _walk_expr(stmt.init.init, ast,
                                    data_dependent) * multiplier
            flops += _walk_expr(stmt.cond, ast, data_dependent) * inner
            flops += _analyze_stmts(stmt.body, ast, data_dependent,
                                    pointers, inner)
        elif isinstance(stmt, While):
            inner = multiplier * 8.0
            flops += _walk_expr(stmt.cond, ast, data_dependent) * inner
            flops += _analyze_stmts(stmt.body, ast, data_dependent,
                                    pointers, inner)
        elif isinstance(stmt, Return):
            flops += _walk_expr(stmt.value, ast,
                                data_dependent) * multiplier
        else:  # pragma: no cover - parser produces only the above
            raise KernelSyntaxError(f"unsupported statement {stmt!r}")
    return flops


def _static_trip_count(loop: For) -> float:
    """Best-effort constant trip count for FLOP estimation (default 8)."""
    if (isinstance(loop.init, Decl) and isinstance(loop.init.init, Num)
            and isinstance(loop.cond, Binary)
            and isinstance(loop.cond.right, Num)
            and loop.cond.op in ("<", "<=")):
        lo = loop.init.init.value
        hi = loop.cond.right.value + (1 if loop.cond.op == "<=" else 0)
        return max(1.0, hi - lo)
    return 8.0


# --------------------------------------------------------------------------
# SPMD NumPy interpreter
# --------------------------------------------------------------------------

_MATH_FUNCS: dict[str, Callable] = {
    "exp": np.exp, "expf": np.exp, "log": np.log, "logf": np.log,
    "sqrt": np.sqrt, "sqrtf": np.sqrt, "fabs": np.abs, "fabsf": np.abs,
    "abs": np.abs, "pow": np.power, "powf": np.power,
    "erf": erf, "erff": erf,
    "fmax": np.maximum, "fmaxf": np.maximum,
    "fmin": np.minimum, "fminf": np.minimum,
    "max": np.maximum, "min": np.minimum,
    "sin": np.sin, "sinf": np.sin, "cos": np.cos, "cosf": np.cos,
    "tanh": np.tanh, "tanhf": np.tanh,
    "floor": np.floor, "ceil": np.ceil,
    "normcdf": lambda x: 0.5 * (1.0 + erf(np.asarray(x) / math.sqrt(2.0))),
    "normcdff": lambda x: 0.5 * (1.0 + erf(np.asarray(x) / math.sqrt(2.0))),
}


class _ThreadReturn(Exception):
    """Internal: a uniform `return;` cut the remaining statements."""


class KernelInterpreter:
    """Executes a parsed kernel for one launch, vectorised over threads."""

    def __init__(self, ast: KernelAst):
        self.ast = ast

    def run(self, grid: tuple[int, ...], block: tuple[int, ...],
            args: tuple[object, ...]) -> None:
        """Execute the kernel SPMD-style over the launch grid."""
        if len(args) != len(self.ast.params):
            raise TypeError(
                f"kernel {self.ast.name!r} expects {len(self.ast.params)} "
                f"arguments, got {len(args)}")
        n_blocks = int(np.prod(grid))
        block_dim = int(np.prod(block))
        tid = np.arange(n_blocks * block_dim, dtype=np.int64)
        env: dict[str, object] = {}
        buffers: dict[str, np.ndarray] = {}
        for param, arg in zip(self.ast.params, args):
            if param.is_pointer:
                if isinstance(arg, np.ndarray):
                    data = arg
                else:
                    data = getattr(arg, "data", arg)
                if not isinstance(data, np.ndarray):
                    raise TypeError(
                        f"pointer parameter {param.name!r} needs an array, "
                        f"got {type(arg).__name__}")
                buffers[param.name] = data
            else:
                env[param.name] = (int(arg) if param.type in
                                   ("int", "long", "unsigned", "size_t")
                                   else float(arg))
        ctx = _EvalContext(
            env=env, buffers=buffers,
            builtins={
                "threadIdx": tid % block_dim,
                "blockIdx": tid // block_dim,
                "blockDim": block_dim,
                "gridDim": n_blocks,
            },
            mask=np.ones(len(tid), dtype=bool),
            returned=np.zeros(len(tid), dtype=bool),
            functions=self.ast.device_functions,
        )
        try:
            _exec_stmts(self.ast.body, ctx)
        except _ThreadReturn:
            pass


@dataclass(slots=True)
class _EvalContext:
    env: dict[str, object]
    buffers: dict[str, np.ndarray]
    builtins: dict[str, object]
    mask: np.ndarray
    #: Threads that executed `return;` — shared across branch sub-contexts
    #: so a divergent return silences those threads for the whole kernel.
    returned: np.ndarray
    #: __device__ helper functions, callable from any expression.
    functions: dict[str, DeviceFunction] = field(default_factory=dict)

    @property
    def active(self) -> np.ndarray:
        return self.mask & ~self.returned


def _eval(node: object, ctx: _EvalContext) -> object:
    if isinstance(node, Num):
        return int(node.value) if node.is_int else node.value
    if isinstance(node, Var):
        if node.name in ctx.env:
            return ctx.env[node.name]
        raise KernelSyntaxError(f"undefined variable {node.name!r}")
    if isinstance(node, Builtin):
        return ctx.builtins[node.name]
    if isinstance(node, Index):
        idx = _as_index(_eval(node.index, ctx))
        buf = ctx.buffers.get(node.base)
        if buf is None:
            raise KernelSyntaxError(f"{node.base!r} is not a pointer")
        flat = buf.reshape(-1)
        safe = np.clip(idx, 0, flat.size - 1)
        return flat[safe]
    if isinstance(node, Unary):
        val = _eval(node.operand, ctx)
        if node.op == "-":
            return -val  # type: ignore[operator]
        if node.op == "!":
            return np.logical_not(val)
        if node.op == "~":
            return ~_as_index(val)
        raise KernelSyntaxError(f"unsupported unary {node.op!r}")
    if isinstance(node, Binary):
        left = _eval(node.left, ctx)
        right = _eval(node.right, ctx)
        return _apply_binary(node.op, left, right)
    if isinstance(node, Ternary):
        cond = np.asarray(_eval(node.cond, ctx), dtype=bool)
        return np.where(cond, _eval(node.if_true, ctx),
                        _eval(node.if_false, ctx))
    if isinstance(node, Call):
        user_fn = ctx.functions.get(node.func)
        if user_fn is not None:
            return _call_device_function(
                user_fn, [_eval(a, ctx) for a in node.args], ctx)
        func = _MATH_FUNCS.get(node.func)
        if func is None:
            raise KernelSyntaxError(f"unsupported function {node.func!r}")
        return func(*[_eval(a, ctx) for a in node.args])
    raise KernelSyntaxError(f"cannot evaluate {node!r}")


def _call_device_function(fn: DeviceFunction, args: list[object],
                          ctx: _EvalContext) -> object:
    """Inline-interpret a __device__ helper for the active threads."""
    if len(args) != len(fn.params):
        raise KernelSyntaxError(
            f"__device__ {fn.name!r} expects {len(fn.params)} arguments, "
            f"got {len(args)}")
    local = _EvalContext(
        env=dict(zip((p.name for p in fn.params), args)),
        buffers={},                      # scalar-only helpers
        builtins=ctx.builtins,
        mask=ctx.mask,
        returned=ctx.returned.copy(),    # helper returns stay local
        functions=ctx.functions,
    )
    _exec_stmts(fn.body[:-1], local)
    tail = fn.body[-1]
    assert isinstance(tail, Return) and tail.value is not None
    return _eval(tail.value, local)


def _as_index(value: object) -> np.ndarray:
    return np.asarray(value).astype(np.int64)


def _apply_binary(op: str, left: object, right: object) -> object:
    if op == "+":
        return np.add(left, right)
    if op == "-":
        return np.subtract(left, right)
    if op == "*":
        return np.multiply(left, right)
    if op == "/":
        la = np.asarray(left)
        if la.dtype.kind in "iu" and np.asarray(right).dtype.kind in "iu":
            return la // np.asarray(right)
        return np.divide(left, right)
    if op == "%":
        return np.mod(left, right)
    if op == "<":
        return np.less(left, right)
    if op == ">":
        return np.greater(left, right)
    if op == "<=":
        return np.less_equal(left, right)
    if op == ">=":
        return np.greater_equal(left, right)
    if op == "==":
        return np.equal(left, right)
    if op == "!=":
        return np.not_equal(left, right)
    if op == "&&":
        return np.logical_and(left, right)
    if op == "||":
        return np.logical_or(left, right)
    if op == "&":
        return _as_index(left) & _as_index(right)
    if op == "|":
        return _as_index(left) | _as_index(right)
    if op == "^":
        return _as_index(left) ^ _as_index(right)
    if op == "<<":
        return _as_index(left) << _as_index(right)
    if op == ">>":
        return _as_index(left) >> _as_index(right)
    raise KernelSyntaxError(f"unsupported operator {op!r}")


def _broadcast_to_threads(value: object, n: int) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.broadcast_to(arr, (n,)).copy()
    return arr


def _exec_stmts(stmts: tuple, ctx: _EvalContext) -> None:
    for stmt in stmts:
        _exec_stmt(stmt, ctx)


def _exec_stmt(stmt: object, ctx: _EvalContext) -> None:
    n = len(ctx.mask)
    if isinstance(stmt, Decl):
        value = _eval(stmt.init, ctx) if stmt.init is not None else 0
        if stmt.type in ("int", "long", "unsigned", "size_t"):
            value = _as_index(value) if np.asarray(value).ndim else int(value)
        ctx.env[stmt.name] = value
        return
    if isinstance(stmt, Assign):
        value = _eval(stmt.value, ctx)
        target = stmt.target
        active = ctx.active
        if isinstance(target, Var):
            if stmt.op != "=":
                base = ctx.env.get(target.name, 0)
                value = _apply_binary(stmt.op[0], base, value)
            if active.all():
                ctx.env[target.name] = value
            else:
                old = _broadcast_to_threads(ctx.env.get(target.name, 0), n)
                new = _broadcast_to_threads(value, n)
                ctx.env[target.name] = np.where(active, new, old)
            return
        assert isinstance(target, Index)
        buf = ctx.buffers.get(target.base)
        if buf is None:
            raise KernelSyntaxError(f"{target.base!r} is not a pointer")
        flat = buf.reshape(-1)
        idx = _as_index(_eval(target.index, ctx))
        idx_b = np.broadcast_to(idx, (n,)) if idx.ndim else \
            np.full(n, int(idx))
        val_b = _broadcast_to_threads(value, n).astype(flat.dtype,
                                                       copy=False)
        valid = active & (idx_b >= 0) & (idx_b < flat.size)
        if stmt.op == "=":
            flat[idx_b[valid]] = np.broadcast_to(val_b, (n,))[valid]
        else:
            op = stmt.op[0]
            current = flat[idx_b[valid]]
            updated = _apply_binary(op, current,
                                    np.broadcast_to(val_b, (n,))[valid])
            flat[idx_b[valid]] = updated
        return
    if isinstance(stmt, AtomicAdd):
        buf = ctx.buffers.get(stmt.target.base)
        if buf is None:
            raise KernelSyntaxError(f"{stmt.target.base!r} is not a pointer")
        flat = buf.reshape(-1)
        idx = _as_index(_eval(stmt.target.index, ctx))
        idx_b = np.broadcast_to(idx, (n,)) if idx.ndim else \
            np.full(n, int(idx))
        val = _broadcast_to_threads(_eval(stmt.value, ctx), n)
        valid = ctx.active & (idx_b >= 0) & (idx_b < flat.size)
        np.add.at(flat, idx_b[valid], val[valid].astype(flat.dtype))
        return
    if isinstance(stmt, If):
        cond = np.asarray(_eval(stmt.cond, ctx))
        if cond.ndim == 0:
            if bool(cond):
                _exec_stmts(stmt.then, ctx)
            else:
                _exec_stmts(stmt.orelse, ctx)
            return
        cond = cond.astype(bool)
        then_mask = ctx.mask & cond
        else_mask = ctx.mask & ~cond
        if then_mask.any():
            sub = _EvalContext(ctx.env, ctx.buffers, ctx.builtins,
                               then_mask, ctx.returned, ctx.functions)
            _exec_guarded(stmt.then, sub)
            ctx.env = sub.env
        if stmt.orelse and else_mask.any():
            sub = _EvalContext(ctx.env, ctx.buffers, ctx.builtins,
                               else_mask, ctx.returned, ctx.functions)
            _exec_guarded(stmt.orelse, sub)
            ctx.env = sub.env
        return
    if isinstance(stmt, For):
        _exec_stmt(stmt.init, ctx)
        guard = 0
        while True:
            cond = np.asarray(_eval(stmt.cond, ctx))
            if cond.ndim != 0:
                raise KernelSyntaxError(
                    "for-loop bounds must be uniform across threads")
            if not bool(cond):
                break
            _exec_stmts(stmt.body, ctx)
            _exec_stmt(stmt.step, ctx)
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - runaway protection
                raise KernelSyntaxError("for-loop exceeded iteration cap")
        return
    if isinstance(stmt, While):
        # Divergent conditions supported: threads leave the loop as their
        # condition falsifies (the sub-context's mask shrinks), like real
        # SIMT re-convergence.
        sub = _EvalContext(ctx.env, ctx.buffers, ctx.builtins,
                           ctx.mask.copy(), ctx.returned, ctx.functions)
        guard = 0
        while True:
            cond = np.asarray(_eval(stmt.cond, sub))
            if cond.ndim == 0:
                if not bool(cond):
                    break
            else:
                sub.mask &= cond.astype(bool)
                if not sub.active.any():
                    break
            _exec_stmts(stmt.body, sub)
            guard += 1
            if guard > 1_000_000:  # pragma: no cover - runaway guard
                raise KernelSyntaxError("while-loop exceeded iteration cap")
        ctx.env = sub.env
        return
    if isinstance(stmt, Return):
        if stmt.value is not None:
            raise KernelSyntaxError(
                "__global__ kernels are void; 'return <expr>;' is only "
                "valid in __device__ functions")
        # The active threads return: silenced for the rest of the kernel
        # (the `returned` array is shared with every enclosing context).
        ctx.returned |= ctx.active
        return
    raise KernelSyntaxError(f"unsupported statement {stmt!r}")


def _exec_guarded(stmts: tuple, ctx: _EvalContext) -> None:
    try:
        _exec_stmts(stmts, ctx)
    except _ThreadReturn:
        pass


# --------------------------------------------------------------------------
# Public entry point
# --------------------------------------------------------------------------

def parse_kernel(source: str) -> KernelAst:
    """Parse + analyse a kernel source string."""
    ast = _Parser(tokenize(source)).parse_kernel()
    analyze(ast)
    return ast
