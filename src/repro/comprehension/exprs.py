"""The lifted expression language.

Python expressions inside a ``@parallelize`` bracket are lifted into the
node types defined here.  The language has three strata:

1. **Scalar expressions** — constants, references, attribute/index
   access, arithmetic, boolean logic, calls, conditionals, lambdas.
2. **Bag operator calls** — the DataBag API surface as first-class IR
   nodes (``MapCall``, ``FlatMapCall``, ``FilterCall``, ``FoldCall``,
   ``GroupByCall``, ``PlusCall``, ``MinusCall``, ``DistinctCall``,
   ``ReadCall``, ``WriteCall``, ``BagLiteral``, ``FetchCall``).
3. **Comprehensions** — defined in :mod:`repro.comprehension.ir`; they
   are also ``Expr`` subclasses so they can nest inside heads and
   predicates, which is what makes the unnesting rewrites expressible.

Every node supports:

* ``evaluate(env)`` — direct host-language semantics (the oracle);
* ``free_vars()`` — free variable set, respecting binders;
* ``substitute(mapping)`` — capture-avoiding substitution (binders
  shadow);
* generic traversal via :func:`walk` / :func:`transform`.

Nodes are immutable; transformations build new trees.
"""

from __future__ import annotations

import dataclasses
import keyword
import math
import operator
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterator, Mapping

from repro.algebra.fold import FoldAlgebra
from repro.core.databag import DataBag
from repro.errors import ComprehensionError


class Env:
    """A chained evaluation environment (innermost scope first)."""

    __slots__ = ("_scopes",)

    def __init__(self, *scopes: Mapping[str, Any]) -> None:
        self._scopes: tuple[Mapping[str, Any], ...] = scopes or ({},)

    def lookup(self, name: str) -> Any:
        """Resolve ``name`` in the innermost scope that binds it."""
        for scope in self._scopes:
            if name in scope:
                return scope[name]
        raise ComprehensionError(f"unbound variable {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(name in scope for scope in self._scopes)

    def child(self, bindings: Mapping[str, Any]) -> "Env":
        """A new environment with ``bindings`` as the innermost scope."""
        return Env(bindings, *self._scopes)

    @staticmethod
    def of(mapping: Mapping[str, Any] | "Env" | None) -> "Env":
        if mapping is None:
            return Env({})
        if isinstance(mapping, Env):
            return mapping
        return Env(mapping)


@dataclass(frozen=True)
class Expr:
    """Base class for all IR expression nodes."""

    # -- generic structure --------------------------------------------

    def children(self) -> Iterator["Expr"]:
        """Yield direct sub-expressions (generic, field-driven)."""
        for value in self._field_values():
            yield from _exprs_in(value)

    def _field_values(self) -> Iterator[Any]:
        for f in fields(self):
            yield getattr(self, f.name)

    def rebuild(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """Rebuild this node with ``fn`` applied to each direct child."""
        changes: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            new_value = _map_exprs(value, fn)
            if new_value is not value:
                changes[f.name] = new_value
        if not changes:
            return self
        return dataclasses.replace(self, **changes)

    # -- binding structure ---------------------------------------------

    def bound_vars(self) -> frozenset[str]:
        """Variables this node binds in (some of) its children."""
        return frozenset()

    def free_vars(self) -> frozenset[str]:
        """Free variables of this expression."""
        inner: frozenset[str] = frozenset()
        for child in self.children():
            inner |= child.free_vars()
        return inner - self.bound_vars()

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Capture-avoiding substitution of free references.

        Bound names shadow: entries of ``mapping`` whose key this node
        binds are not propagated into the children.
        """
        live = {
            k: v for k, v in mapping.items() if k not in self.bound_vars()
        }
        if not live:
            return self
        return self.rebuild(lambda c: c.substitute(live))

    # -- semantics -------------------------------------------------------

    def evaluate(self, env: Env) -> Any:
        """Evaluate with host-language semantics against ``env``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement evaluate"
        )

    def is_bag_typed(self) -> bool:
        """Whether this expression denotes a DataBag value."""
        return False


def _exprs_in(value: Any) -> Iterator[Expr]:
    if isinstance(value, Expr):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _exprs_in(item)
    elif isinstance(value, AlgebraSpec):
        for item in value.args:
            yield from _exprs_in(item)


def _map_exprs(value: Any, fn: Callable[[Expr], Expr]) -> Any:
    if isinstance(value, Expr):
        return fn(value)
    if isinstance(value, tuple):
        mapped = tuple(_map_exprs(item, fn) for item in value)
        return mapped if any(
            m is not o for m, o in zip(mapped, value)
        ) else value
    if isinstance(value, AlgebraSpec):
        new_args = tuple(_map_exprs(a, fn) for a in value.args)
        if all(n is o for n, o in zip(new_args, value.args)):
            return value
        return dataclasses.replace(value, args=new_args)
    return value


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all nodes below it, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def transform(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up transformation: apply ``fn`` to every rebuilt node."""
    rebuilt = expr.rebuild(lambda c: transform(c, fn))
    return fn(rebuilt)


def free_vars(expr: Expr) -> frozenset[str]:
    """Module-level alias for :meth:`Expr.free_vars`."""
    return expr.free_vars()


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Module-level alias for :meth:`Expr.substitute`."""
    return expr.substitute(mapping)


def evaluate(expr: Expr, env: Mapping[str, Any] | Env | None = None) -> Any:
    """Evaluate with host-language semantics against ``env``."""
    return expr.evaluate(Env.of(env))


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const(Expr):
    """A literal or an opaque host value (including host callables)."""

    value: Any

    def evaluate(self, env: Env) -> Any:
        return self.value

    def __repr__(self) -> str:
        name = getattr(self.value, "__name__", None)
        return f"Const({name or self.value!r})"


@dataclass(frozen=True)
class Ref(Expr):
    """A variable reference, resolved in the environment."""

    name: str

    def free_vars(self) -> frozenset[str]:
        return frozenset((self.name,))

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def evaluate(self, env: Env) -> Any:
        return env.lookup(self.name)


@dataclass(frozen=True)
class Attr(Expr):
    """Attribute access ``obj.name``."""

    obj: Expr
    name: str

    def evaluate(self, env: Env) -> Any:
        return getattr(self.obj.evaluate(env), self.name)


@dataclass(frozen=True)
class Index(Expr):
    """Subscript access ``obj[index]``."""

    obj: Expr
    index: Expr

    def evaluate(self, env: Env) -> Any:
        return self.obj.evaluate(env)[self.index.evaluate(env)]


@dataclass(frozen=True)
class TupleExpr(Expr):
    """Tuple construction ``(a, b, ...)``."""

    items: tuple[Expr, ...]

    def evaluate(self, env: Env) -> tuple:
        return tuple(item.evaluate(env) for item in self.items)


@dataclass(frozen=True)
class ListExpr(Expr):
    """List construction ``[a, b, ...]``."""

    items: tuple[Expr, ...]

    def evaluate(self, env: Env) -> list:
        return [item.evaluate(env) for item in self.items]


_BIN_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
    "**": operator.pow,
}

_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda a, b: a in b,
    "not in": lambda a, b: a not in b,
}


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic binary operation."""

    op: str
    left: Expr
    right: Expr

    def evaluate(self, env: Env) -> Any:
        return _BIN_OPS[self.op](
            self.left.evaluate(env), self.right.evaluate(env)
        )


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operation: ``-x`` or ``not x``."""

    op: str
    operand: Expr

    def evaluate(self, env: Env) -> Any:
        value = self.operand.evaluate(env)
        if self.op == "-":
            return -value
        if self.op == "not":
            return not value
        raise ComprehensionError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class Compare(Expr):
    """Comparison ``left <op> right``."""

    op: str
    left: Expr
    right: Expr

    def evaluate(self, env: Env) -> bool:
        return _CMP_OPS[self.op](
            self.left.evaluate(env), self.right.evaluate(env)
        )


@dataclass(frozen=True)
class BoolOp(Expr):
    """Short-circuiting ``and`` / ``or`` over two or more operands."""

    op: str  # "and" | "or"
    operands: tuple[Expr, ...]

    def evaluate(self, env: Env) -> Any:
        if self.op == "and":
            result: Any = True
            for part in self.operands:
                result = part.evaluate(env)
                if not result:
                    return result
            return result
        if self.op == "or":
            result = False
            for part in self.operands:
                result = part.evaluate(env)
                if result:
                    return result
            return result
        raise ComprehensionError(f"unknown boolean operator {self.op!r}")


@dataclass(frozen=True)
class IfElse(Expr):
    """Conditional expression ``then if cond else orelse``."""

    cond: Expr
    then: Expr
    orelse: Expr

    def evaluate(self, env: Env) -> Any:
        if self.cond.evaluate(env):
            return self.then.evaluate(env)
        return self.orelse.evaluate(env)


@dataclass(frozen=True)
class Call(Expr):
    """A call of a host function/constructor: ``func(*args, **kwargs)``."""

    func: Expr
    args: tuple[Expr, ...] = ()
    kwargs: tuple[tuple[str, Expr], ...] = ()

    def evaluate(self, env: Env) -> Any:
        fn = self.func.evaluate(env)
        args = [a.evaluate(env) for a in self.args]
        kwargs: dict[str, Any] = {}
        for k, v in self.kwargs:
            if k == "**":
                # A lifted ``**mapping`` expansion: splice the mapping
                # in place, preserving Python's call-site ordering.
                kwargs.update(v.evaluate(env))
            else:
                kwargs[k] = v.evaluate(env)
        return fn(*args, **kwargs)


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """A variant of ``base`` not occurring in ``avoid``."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


@dataclass(frozen=True)
class Lambda(Expr):
    """An anonymous function with lifted body."""

    params: tuple[str, ...]
    body: Expr

    def bound_vars(self) -> frozenset[str]:
        return frozenset(self.params)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        live = {k: v for k, v in mapping.items() if k not in self.params}
        if not live:
            return self
        # Alpha-rename any parameter that a substituted value would
        # capture.
        incoming: frozenset[str] = frozenset()
        for value in live.values():
            incoming |= value.free_vars()
        params, body = self.params, self.body
        if incoming & frozenset(params):
            renames: dict[str, Expr] = {}
            new_params: list[str] = []
            taken = set(incoming) | set(params) | body.free_vars()
            for p in params:
                if p in incoming:
                    new_p = fresh_name(p, taken)
                    taken.add(new_p)
                    renames[p] = Ref(new_p)
                    new_params.append(new_p)
                else:
                    new_params.append(p)
            body = body.substitute(renames)
            params = tuple(new_params)
        return Lambda(params, body.substitute(live))

    def evaluate(self, env: Env) -> Callable:
        params, body = self.params, self.body

        def closure(*values: Any) -> Any:
            if len(values) != len(params):
                raise ComprehensionError(
                    f"lambda expects {len(params)} arguments, "
                    f"got {len(values)}"
                )
            return body.evaluate(env.child(dict(zip(params, values))))

        return closure


# ---------------------------------------------------------------------------
# Native compilation of scalar expressions
#
# The tree-walking ``evaluate`` above is the semantic oracle, but it is
# far too slow for the per-element hot path of the simulated engines: a
# UDF applied to a million records re-walks its AST a million times.
# ``compile_scalar`` renders the scalar subset of the language as Python
# source and compiles it with ``compile()`` into a plain function, so
# the hot path runs at host speed.  Anything outside the subset (bag
# operators, comprehensions) — or a free name that cannot be resolved
# eagerly — makes compilation return ``None`` and callers fall back to
# the interpreting closure; semantics are identical either way.
# ---------------------------------------------------------------------------


class NotCompilable(Exception):
    """An expression outside the natively compilable scalar subset."""


#: operators whose IR spelling is also their Python spelling
_PY_BIN = frozenset(_BIN_OPS)
_PY_CMP = frozenset(_CMP_OPS)
_CONST_PREFIX = "_cv"


def _is_plain_name(name: str) -> bool:
    return name.isidentifier() and not keyword.iskeyword(name)


class NativeCodegen:
    """Renders scalar ``Expr`` trees as Python source fragments.

    Host values (constants, resolved free names) are interned into
    ``globals_`` — the namespace the generated code is compiled
    against.  One codegen instance may serve several expressions (the
    chain kernel builder relies on this to share one namespace), so
    interned constants get collision-free ``_cv<N>`` names and free
    names are checked for conflicting bindings.
    """

    def __init__(self) -> None:
        self.globals_: dict[str, Any] = {}
        self._const_names: dict[int, str] = {}

    # -- host-value interning ---------------------------------------------

    def intern_const(self, value: Any) -> str:
        """Expose a host constant under a fresh ``_cv{N}`` global name."""
        name = self._const_names.get(id(value))
        if name is None:
            name = f"{_CONST_PREFIX}{len(self._const_names)}"
            self._const_names[id(value)] = name
            self.globals_[name] = value
        return name

    def bind_free(self, name: str, value: Any) -> None:
        """Bind a free name into the namespace; reject conflicts."""
        if not _is_plain_name(name) or name.startswith(_CONST_PREFIX):
            raise NotCompilable(name)
        if name in self.globals_ and self.globals_[name] is not value:
            raise NotCompilable(f"conflicting binding for {name!r}")
        self.globals_[name] = value

    # -- source emission --------------------------------------------------

    def emit(self, expr: Expr, bound: Mapping[str, str], resolve) -> str:
        """Python source for ``expr``.

        ``bound`` maps bound variable names to the local names they
        carry in the generated code; ``resolve(name)`` supplies the
        value of a free name (raising ``KeyError``/``ComprehensionError``
        when unbound aborts compilation).
        """
        if isinstance(expr, Const):
            value = expr.value
            # Literal-render the common immutable scalars (non-finite
            # floats have no literal spelling); intern the rest.
            if value is None or isinstance(value, (bool, int, str)):
                return repr(value)
            if isinstance(value, float) and math.isfinite(value):
                return repr(value)
            return self.intern_const(value)
        if isinstance(expr, Ref):
            target = bound.get(expr.name)
            if target is not None:
                return target
            try:
                value = resolve(expr.name)
            except (KeyError, ComprehensionError):
                raise NotCompilable(expr.name)
            self.bind_free(expr.name, value)
            return expr.name
        if isinstance(expr, Attr):
            if not _is_plain_name(expr.name):
                raise NotCompilable(expr.name)
            return f"({self.emit(expr.obj, bound, resolve)}).{expr.name}"
        if isinstance(expr, Index):
            obj = self.emit(expr.obj, bound, resolve)
            index = self.emit(expr.index, bound, resolve)
            return f"({obj})[{index}]"
        if isinstance(expr, TupleExpr):
            items = [self.emit(i, bound, resolve) for i in expr.items]
            inner = ", ".join(items) + ("," if len(items) == 1 else "")
            return f"({inner})"
        if isinstance(expr, ListExpr):
            items = [self.emit(i, bound, resolve) for i in expr.items]
            return f"[{', '.join(items)}]"
        if isinstance(expr, BinOp):
            if expr.op not in _PY_BIN:
                raise NotCompilable(expr.op)
            left = self.emit(expr.left, bound, resolve)
            right = self.emit(expr.right, bound, resolve)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, UnaryOp):
            if expr.op not in ("-", "not"):
                raise NotCompilable(expr.op)
            operand = self.emit(expr.operand, bound, resolve)
            return f"({expr.op} {operand})"
        if isinstance(expr, Compare):
            if expr.op not in _PY_CMP:
                raise NotCompilable(expr.op)
            left = self.emit(expr.left, bound, resolve)
            right = self.emit(expr.right, bound, resolve)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, BoolOp):
            if expr.op not in ("and", "or") or not expr.operands:
                raise NotCompilable(expr.op)
            parts = [
                self.emit(p, bound, resolve) for p in expr.operands
            ]
            return f"({f' {expr.op} '.join(parts)})"
        if isinstance(expr, IfElse):
            then = self.emit(expr.then, bound, resolve)
            cond = self.emit(expr.cond, bound, resolve)
            orelse = self.emit(expr.orelse, bound, resolve)
            return f"({then} if {cond} else {orelse})"
        if isinstance(expr, Call):
            func = self.emit(expr.func, bound, resolve)
            parts = [self.emit(a, bound, resolve) for a in expr.args]
            for k, v in expr.kwargs:
                if not _is_plain_name(k):
                    raise NotCompilable(k)
                parts.append(f"{k}={self.emit(v, bound, resolve)}")
            return f"({func})({', '.join(parts)})"
        if isinstance(expr, Lambda):
            for p in expr.params:
                if not _is_plain_name(p) or p.startswith(_CONST_PREFIX):
                    raise NotCompilable(p)
            inner = dict(bound)
            inner.update({p: p for p in expr.params})
            body = self.emit(expr.body, inner, resolve)
            return f"(lambda {', '.join(expr.params)}: {body})"
        raise NotCompilable(type(expr).__name__)


def compile_scalar(
    params: tuple[str, ...],
    body: Expr,
    env: "Env | Mapping[str, Any] | None",
) -> Callable | None:
    """Compile ``lambda params: body`` into a plain Python function.

    Free names are resolved *eagerly* from ``env`` and closed over via
    the compiled function's globals.  Returns ``None`` when the body
    falls outside the scalar subset or a free name is unbound — the
    caller keeps the interpreting closure in that case.
    """
    env = Env.of(env)
    codegen = NativeCodegen()
    try:
        for p in params:
            if not _is_plain_name(p) or p.startswith(_CONST_PREFIX):
                return None
        bound = {p: p for p in params}
        src = codegen.emit(body, bound, env.lookup)
    except NotCompilable:
        return None
    return compile_scalar_source(params, src, codegen.globals_)


def compile_scalar_source(
    params: tuple[str, ...], body_src: str, namespace: dict[str, Any]
) -> Callable:
    """``compile()`` an already-rendered body over ``namespace``."""
    source = f"lambda {', '.join(params)}: {body_src}"
    code = compile(source, "<scalarfn>", "eval")
    return eval(code, namespace)  # noqa: S307 - compiler-generated source


# ---------------------------------------------------------------------------
# Fold algebra specifications
# ---------------------------------------------------------------------------


def _as_zero_factory(value: Any) -> Callable[[], Any]:
    """Interpret a fold zero argument: 0-ary callables act as factories."""
    if callable(value):
        return value
    return lambda: value


def _build_fold(zero: Any, sng: Callable, uni: Callable) -> FoldAlgebra:
    return FoldAlgebra(
        zero=_as_zero_factory(zero), singleton=sng, union=uni, name="fold"
    )


#: alias name -> (argument count, algebra builder over evaluated args)
FOLD_ALIASES: dict[str, tuple[int, Callable[..., FoldAlgebra]]] = {
    "fold": (3, _build_fold),
    "sum": (
        0,
        lambda: FoldAlgebra(
            lambda: 0, lambda x: x, lambda a, b: a + b, name="sum"
        ),
    ),
    "product": (
        0,
        lambda: FoldAlgebra(
            lambda: 1, lambda x: x, lambda a, b: a * b, name="product"
        ),
    ),
    "count": (
        0,
        lambda: FoldAlgebra(
            lambda: 0, lambda _x: 1, lambda a, b: a + b, name="count"
        ),
    ),
    "is_empty": (
        0,
        lambda: FoldAlgebra(
            lambda: True,
            lambda _x: False,
            lambda a, b: a and b,
            name="is_empty",
        ),
    ),
    "non_empty": (
        0,
        lambda: FoldAlgebra(
            lambda: False,
            lambda _x: True,
            lambda a, b: a or b,
            name="non_empty",
        ),
    ),
    "min": (
        0,
        lambda: FoldAlgebra(
            lambda: None,
            lambda x: x,
            lambda a, b: b if a is None else a if b is None else min(a, b),
            name="min",
        ),
    ),
    "max": (
        0,
        lambda: FoldAlgebra(
            lambda: None,
            lambda x: x,
            lambda a, b: b if a is None else a if b is None else max(a, b),
            name="max",
        ),
    ),
    "exists": (
        1,
        lambda p: FoldAlgebra(
            lambda: False,
            lambda x: bool(p(x)),
            lambda a, b: a or b,
            name="exists",
        ),
    ),
    "forall": (
        1,
        lambda p: FoldAlgebra(
            lambda: True,
            lambda x: bool(p(x)),
            lambda a, b: a and b,
            name="forall",
        ),
    ),
    "min_by": (
        1,
        lambda key: FoldAlgebra(
            lambda: None,
            lambda x: x,
            lambda a, b: (
                b
                if a is None
                else a
                if b is None
                else (a if key(a) <= key(b) else b)
            ),
            name="min_by",
        ),
    ),
    "max_by": (
        1,
        lambda key: FoldAlgebra(
            lambda: None,
            lambda x: x,
            lambda a, b: (
                b
                if a is None
                else a
                if b is None
                else (a if key(a) >= key(b) else b)
            ),
            name="max_by",
        ),
    ),
}


@dataclass(frozen=True)
class AlgebraSpec:
    """A symbolic fold algebra: an alias name plus lifted arguments.

    ``alias`` selects an entry of :data:`FOLD_ALIASES`; ``args`` are the
    lifted argument expressions (e.g. the key function of a ``min_by``).
    The concrete :class:`FoldAlgebra` is produced at execution time via
    :meth:`make_algebra`, after the arguments are evaluated in scope —
    compile-time rewrites (banana split) never need the concrete
    functions, only the spec.

    ``head`` and ``guards``, when present, record a map/filter pipeline
    fused *into* the fold by normalization: the effective singleton
    becomes ``s(head(x)) if all guards else zero`` — legal because the
    well-definedness equations make the zero a unit.
    """

    alias: str
    args: tuple[Expr, ...] = ()
    head: Expr | None = None
    guards: tuple[Expr, ...] = ()
    var: str | None = None

    def __post_init__(self) -> None:
        if self.alias not in FOLD_ALIASES:
            raise ComprehensionError(f"unknown fold alias {self.alias!r}")
        arity = FOLD_ALIASES[self.alias][0]
        if len(self.args) != arity:
            raise ComprehensionError(
                f"fold alias {self.alias!r} expects {arity} arguments, "
                f"got {len(self.args)}"
            )

    @property
    def name(self) -> str:
        return self.alias

    def free_vars(self) -> frozenset[str]:
        """Free variables of the argument and fused-pipeline exprs."""
        out: frozenset[str] = frozenset()
        for arg in self.args:
            out |= arg.free_vars()
        bound = frozenset((self.var,)) if self.var else frozenset()
        if self.head is not None:
            out |= self.head.free_vars() - bound
        for g in self.guards:
            out |= g.free_vars() - bound
        return out

    def substitute(self, mapping: Mapping[str, Expr]) -> "AlgebraSpec":
        """Substitute free references (the fused var shadows)."""
        live_inner = {
            k: v for k, v in mapping.items() if k != self.var
        }
        return dataclasses.replace(
            self,
            args=tuple(a.substitute(mapping) for a in self.args),
            head=(
                self.head.substitute(live_inner)
                if self.head is not None
                else None
            ),
            guards=tuple(g.substitute(live_inner) for g in self.guards),
        )

    def make_algebra(self, env: Env) -> FoldAlgebra:
        """Evaluate the spec into a concrete :class:`FoldAlgebra`."""
        _arity, builder = FOLD_ALIASES[self.alias]
        base = builder(*(a.evaluate(env) for a in self.args))
        if self.head is None and not self.guards:
            return base
        return dataclasses.replace(
            base, singleton=self.fused_singleton(base, env)
        )

    def fused_singleton(
        self, base: FoldAlgebra, env: Env
    ) -> Callable[[Any], Any]:
        """The interpreted ``s(head(x)) if all guards else zero``."""
        var = self.var or "_x"
        head, guards = self.head, self.guards

        def singleton(x: Any) -> Any:
            inner = env.child({var: x})
            if any(not g.evaluate(inner) for g in guards):
                return base.zero()
            value = head.evaluate(inner) if head is not None else x
            return base.singleton(value)

        return singleton

    def fused_with(
        self, var: str, head: Expr | None, guards: tuple[Expr, ...]
    ) -> "AlgebraSpec":
        """Record a comprehension body fused into this fold's singleton."""
        if self.head is not None or self.guards:
            raise ComprehensionError(
                "algebra spec already carries a fused pipeline"
            )
        return dataclasses.replace(
            self, var=var, head=head, guards=guards
        )


# ---------------------------------------------------------------------------
# Generated fold code
# ---------------------------------------------------------------------------
#
# ``make_algebra`` is the semantic oracle for a fused fold, but its
# singleton tree-walks the fused head and guards through ``evaluate``
# with a fresh ``Env.child`` for every record.  ``compile_aggregation``
# and ``compile_fold`` instead render a whole spec list as one
# generated Python function (the approach of Giarrusso et al.: reify
# the query, then compile the reified form).  Heads and guards are
# inlined through ``NativeCodegen`` — the subset ``compile_scalar``
# compiles — and the zero, singleton and union of the built-in aliases
# are inlined as well.  For the specs ``sum(l.quantity)`` and ``count``
# the per-record sink of an aggregation reads::
#
#     def _ag_accumulate(_ag_x):
#         _ag_k = _ag_key(_ag_x)
#         _ag_e = _ag_get(_ag_k)
#         if _ag_e is None:
#             _ag_a = 0
#             _ag_s0 = (_ag_x).quantity
#             _ag_r0 = _ag_a + _ag_s0          # union(zero(), s)
#             ...
#             _ag_acc[_ag_k] = [_ag_r0, _ag_r1]
#             return
#         _ag_s0 = (_ag_x).quantity
#         _ag_a = _ag_e[0]
#         _ag_e[0] = _ag_a + _ag_s0
#         _ag_s1 = 1
#         _ag_a = _ag_e[1]
#         _ag_e[1] = _ag_a + _ag_s1
#
# Every step the interpreter takes is kept, in the same order: the
# first union per key is ``union(zero(), s)`` and a failed guard still
# unions the zero in, so results are bit-identical (``0 + -0.0`` is
# ``0.0`` on both sides).  A spec whose head or guard falls outside the
# subset calls its interpreted ``fused_singleton`` from inside the same
# function and is listed in ``FoldCode.fallbacks``.

#: every name the generated fold code defines starts with this prefix;
#: a free name that does too cannot share the namespace, so its spec
#: takes the interpreted singleton
_FOLD_PREFIX = "_ag_"

#: alias -> (zero, singleton of ``{v}``, union of ``{a}`` and ``{b}``),
#: spelled exactly like the :data:`FOLD_ALIASES` lambdas; ``{f}`` is
#: the alias's evaluated argument (a predicate or a key function)
_INLINE_FOLDS: dict[str, tuple[str, str, str]] = {
    "sum": ("0", "{v}", "{a} + {b}"),
    "product": ("1", "{v}", "{a} * {b}"),
    "count": ("0", "1", "{a} + {b}"),
    "is_empty": ("True", "False", "{a} and {b}"),
    "non_empty": ("False", "True", "{a} or {b}"),
    "min": (
        "None",
        "{v}",
        "{b} if {a} is None else {a} if {b} is None "
        "else _ag_min({a}, {b})",
    ),
    "max": (
        "None",
        "{v}",
        "{b} if {a} is None else {a} if {b} is None "
        "else _ag_max({a}, {b})",
    ),
    "exists": ("False", "_ag_bool({f}({v}))", "{a} or {b}"),
    "forall": ("True", "_ag_bool({f}({v}))", "{a} and {b}"),
    "min_by": (
        "None",
        "{v}",
        "{b} if {a} is None else {a} if {b} is None "
        "else ({a} if {f}({a}) <= {f}({b}) else {b})",
    ),
    "max_by": (
        "None",
        "{v}",
        "{b} if {a} is None else {a} if {b} is None "
        "else ({a} if {f}({a}) >= {f}({b}) else {b})",
    ),
}

#: any other alias (a user ``fold``) calls its algebra's own callables
_CALLED_FOLD = ("{z}()", "{s}({v})", "{u}({a}, {b})")


@dataclass(frozen=True)
class FoldCode:
    """Generated code for one ``aggBy`` spec list or one ``fold`` spec.

    For an aggregation, ``accumulator(acc, key)`` returns the per-record
    sink folding records into ``acc`` (key -> list of accumulators, in
    first-seen key order), and ``merge(pairs)`` merges ``(key,
    accumulators)`` pairs into such a dict.  For a fold, ``fold(xs)``
    is one partition's partial and ``merge(partials)`` combines the
    partials.  ``fallbacks`` lists ``(spec index, reason)`` for every
    spec that runs its interpreted singleton.
    """

    source: str
    fallbacks: tuple[tuple[int, str], ...]
    merge: Callable
    accumulator: Callable | None = None
    fold: Callable | None = None


def _check_lambda_params(node: Expr | None) -> None:
    """Reject lambdas whose parameters would shadow generated names."""
    for sub in walk(node) if node is not None else ():
        if isinstance(sub, Lambda):
            for p in sub.params:
                if p.startswith(_FOLD_PREFIX):
                    raise NotCompilable(p)


class _SpecSource:
    """Source fragments for one spec: zero, singleton lines, union."""

    def __init__(
        self, j: int, spec: AlgebraSpec, env: Env, codegen: NativeCodegen
    ) -> None:
        _arity, builder = FOLD_ALIASES[spec.alias]
        args = [a.evaluate(env) for a in spec.args]
        base = builder(*args)
        names = {
            "f": f"_ag_f{j}",
            "z": f"_ag_z{j}",
            "s": f"_ag_sg{j}",
            "u": f"_ag_u{j}",
        }
        namespace = codegen.globals_
        if args:
            namespace[names["f"]] = args[0]
        namespace[names["z"]] = base.zero
        namespace[names["s"]] = base.singleton
        namespace[names["u"]] = base.union
        zero, self._singleton, self._union = _INLINE_FOLDS.get(
            spec.alias, _CALLED_FOLD
        )
        self._names = names
        self._j = j
        self.zero = zero.format(**names)
        self.fallback: str | None = None
        self._head: str | None = None
        self._guards: list[str] = []
        if spec.head is None and not spec.guards:
            return
        bound = {spec.var or "_x": "_ag_x"}

        def resolve(name: str) -> Any:
            if name.startswith(_FOLD_PREFIX):
                raise KeyError(name)
            return env.lookup(name)

        try:
            for node in (spec.head, *spec.guards):
                _check_lambda_params(node)
            if spec.head is not None:
                self._head = codegen.emit(spec.head, bound, resolve)
            self._guards = [
                codegen.emit(g, bound, resolve) for g in spec.guards
            ]
        except NotCompilable as exc:
            self.fallback = f"not compilable: {exc}"
            namespace[f"_ag_fb{j}"] = spec.fused_singleton(base, env)

    def union(self, a: str, b: str) -> str:
        """Source of ``union(a, b)`` over two local names."""
        return self._union.format(a=a, b=b, **self._names)

    def singleton(self, target: str, depth: int) -> list[str]:
        """Statements binding ``target`` to the record's singleton."""
        ind = "    " * depth
        if self.fallback is not None:
            return [f"{ind}{target} = _ag_fb{self._j}(_ag_x)"]
        value = self._head if self._head is not None else "_ag_x"
        body = []
        if self._head is not None and "{v}" not in self._singleton:
            # The alias ignores the value, but the head still runs.
            body.append(self._head)
        body.append(
            f"{target} = "
            + self._singleton.format(v=value, **self._names)
        )
        if not self._guards:
            return [ind + line for line in body]
        lines = [f"{ind}if {' and '.join(self._guards)}:"]
        lines.extend(f"{ind}    {line}" for line in body)
        lines.append(f"{ind}else:")
        lines.append(f"{ind}    {target} = {self.zero}")
        return lines


def _spec_sources(
    specs: tuple[AlgebraSpec, ...], env: Env
) -> tuple[NativeCodegen, list[_SpecSource]]:
    codegen = NativeCodegen()
    codegen.globals_.update(
        _ag_min=min, _ag_max=max, _ag_bool=bool, _ag_list=list
    )
    return codegen, [
        _SpecSource(j, spec, env, codegen) for j, spec in enumerate(specs)
    ]


def _build_fold_code(
    lines: list[str],
    codegen: NativeCodegen,
    parts: list[_SpecSource],
    **functions: str,
) -> FoldCode:
    """Compile the generated source into a :class:`FoldCode`.

    ``functions`` maps each ``FoldCode`` field to the generated name it
    takes.  The functions are popped out of the namespace they were
    defined in, so no function -> globals -> function cycle is left for
    the garbage collector on every job.
    """
    source = "\n".join(lines)
    namespace = codegen.globals_
    code = compile(source, "<fold-code>", "exec")
    exec(code, namespace)  # noqa: S102 - compiler-generated source
    return FoldCode(
        source=source,
        fallbacks=tuple(
            (j, part.fallback)
            for j, part in enumerate(parts)
            if part.fallback is not None
        ),
        **{field: namespace.pop(name) for field, name in functions.items()},
    )


def compile_aggregation(
    specs: tuple[AlgebraSpec, ...], env: "Env | Mapping[str, Any] | None"
) -> FoldCode:
    """Generate the accumulate and merge functions of an ``aggBy``."""
    codegen, parts = _spec_sources(tuple(specs), Env.of(env))
    lines = [
        "def _ag_accumulator(_ag_acc, _ag_key):",
        "    _ag_get = _ag_acc.get",
        "    def _ag_accumulate(_ag_x):",
        "        _ag_k = _ag_key(_ag_x)",
        "        _ag_e = _ag_get(_ag_k)",
        "        if _ag_e is None:",
    ]
    # First record of a key: union(zero(), s), zero made first.
    for j, part in enumerate(parts):
        s = f"_ag_s{j}"
        lines.append(f"            _ag_a = {part.zero}")
        lines.extend(part.singleton(s, 3))
        lines.append(f"            _ag_r{j} = {part.union('_ag_a', s)}")
    firsts = ", ".join(f"_ag_r{j}" for j in range(len(parts)))
    lines.append(f"            _ag_acc[_ag_k] = [{firsts}]")
    lines.append("            return")
    for j, part in enumerate(parts):
        s = f"_ag_s{j}"
        lines.extend(part.singleton(s, 2))
        lines.append(f"        _ag_a = _ag_e[{j}]")
        lines.append(f"        _ag_e[{j}] = {part.union('_ag_a', s)}")
    lines.append("    return _ag_accumulate")
    lines.extend(
        [
            "def _ag_merge(_ag_pairs):",
            "    _ag_merged = {}",
            "    _ag_get = _ag_merged.get",
            "    for _ag_k, _ag_v in _ag_pairs:",
            "        _ag_e = _ag_get(_ag_k)",
            "        if _ag_e is None:",
            "            _ag_merged[_ag_k] = _ag_list(_ag_v)",
            "            continue",
        ]
    )
    for j, part in enumerate(parts):
        lines.append(f"        _ag_a = _ag_e[{j}]")
        lines.append(f"        _ag_b = _ag_v[{j}]")
        lines.append(f"        _ag_e[{j}] = {part.union('_ag_a', '_ag_b')}")
    lines.append("    return _ag_merged")
    return _build_fold_code(
        lines,
        codegen,
        parts,
        accumulator="_ag_accumulator",
        merge="_ag_merge",
    )


def compile_fold(
    spec: AlgebraSpec, env: "Env | Mapping[str, Any] | None"
) -> FoldCode:
    """Generate the per-partition and merge functions of a ``fold``."""
    codegen, parts = _spec_sources((spec,), Env.of(env))
    (part,) = parts
    lines = [
        "def _ag_fold(_ag_xs):",
        f"    _ag_r = {part.zero}",
        "    for _ag_x in _ag_xs:",
        *part.singleton("_ag_s0", 2),
        f"        _ag_r = {part.union('_ag_r', '_ag_s0')}",
        "    return _ag_r",
        "def _ag_merge(_ag_partials):",
        f"    _ag_r = {part.zero}",
        "    for _ag_b in _ag_partials:",
        f"        _ag_r = {part.union('_ag_r', '_ag_b')}",
        "    return _ag_r",
    ]
    return _build_fold_code(
        lines, codegen, parts, fold="_ag_fold", merge="_ag_merge"
    )


# ---------------------------------------------------------------------------
# Bag operator calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BagExpr(Expr):
    """Marker base for expressions that denote a DataBag value."""

    def is_bag_typed(self) -> bool:
        return True


def _as_databag(value: Any, context: str) -> DataBag:
    if isinstance(value, DataBag):
        return value
    if isinstance(value, (list, tuple, set, range)):
        return DataBag(value)
    raise ComprehensionError(
        f"{context} expects a DataBag, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class MapCall(BagExpr):
    """``source.map(fn)``."""

    source: Expr
    fn: Lambda

    def evaluate(self, env: Env) -> DataBag:
        bag = _as_databag(self.source.evaluate(env), "map")
        return bag.map(self.fn.evaluate(env))


@dataclass(frozen=True)
class FlatMapCall(BagExpr):
    """``source.flat_map(fn)``."""

    source: Expr
    fn: Lambda

    def evaluate(self, env: Env) -> DataBag:
        bag = _as_databag(self.source.evaluate(env), "flat_map")
        return bag.flat_map(self.fn.evaluate(env))


@dataclass(frozen=True)
class FilterCall(BagExpr):
    """``source.with_filter(p)``."""

    source: Expr
    fn: Lambda

    def evaluate(self, env: Env) -> DataBag:
        bag = _as_databag(self.source.evaluate(env), "with_filter")
        return bag.with_filter(self.fn.evaluate(env))


@dataclass(frozen=True)
class GroupByCall(BagExpr):
    """``source.group_by(key)``."""

    source: Expr
    key: Lambda

    def evaluate(self, env: Env) -> DataBag:
        bag = _as_databag(self.source.evaluate(env), "group_by")
        return bag.group_by(self.key.evaluate(env))


@dataclass(frozen=True)
class AggByCall(BagExpr):
    """``source.agg_by(key, spec_1, ..., spec_n)`` — the fused operator.

    Produced by fold-group fusion (never written by users): replaces a
    ``group_by`` whose group values are consumed exclusively by folds.
    Emits one ``AggResult(key, (a_1, ..., a_n))`` record per distinct
    key; on a parallel engine the aggregates are pre-computed on the
    mapper side so only partial aggregates cross the network.
    """

    source: Expr
    key: Lambda = None  # type: ignore[assignment]
    specs: tuple[AlgebraSpec, ...] = ()

    def free_vars(self) -> frozenset[str]:
        out = self.source.free_vars() | self.key.free_vars()
        for spec in self.specs:
            out |= spec.free_vars()
        return out

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        return AggByCall(
            source=self.source.substitute(mapping),
            key=self.key.substitute(mapping),  # type: ignore[arg-type]
            specs=tuple(s.substitute(mapping) for s in self.specs),
        )

    def evaluate(self, env: Env) -> DataBag:
        from repro.lowering.combinators import AggResult

        bag = _as_databag(self.source.evaluate(env), "agg_by")
        key_fn = self.key.evaluate(env)
        algebras = [spec.make_algebra(env) for spec in self.specs]
        acc: dict[Any, list[Any]] = {}
        for x in bag:
            k = key_fn(x)
            entry = acc.get(k)
            if entry is None:
                acc[k] = [
                    a.union(a.zero(), a.singleton(x)) for a in algebras
                ]
            else:
                for i, a in enumerate(algebras):
                    entry[i] = a.union(entry[i], a.singleton(x))
        return DataBag(
            AggResult(k, tuple(v)) for k, v in acc.items()
        )


@dataclass(frozen=True)
class FoldCall(Expr):
    """``source.fold(...)`` or any fold alias (``sum``, ``count``, ...).

    Scalar-typed: evaluates to the fold result, not a bag.
    """

    source: Expr
    spec: AlgebraSpec

    def free_vars(self) -> frozenset[str]:
        return self.source.free_vars() | self.spec.free_vars()

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return FoldCall(
            source=self.source.substitute(mapping),
            spec=self.spec.substitute(mapping),
        )

    def evaluate(self, env: Env) -> Any:
        bag = _as_databag(self.source.evaluate(env), self.spec.alias)
        return bag.fold_algebra(self.spec.make_algebra(env))


@dataclass(frozen=True)
class PlusCall(BagExpr):
    """Bag union ``left.plus(right)``."""

    left: Expr
    right: Expr

    def evaluate(self, env: Env) -> DataBag:
        return _as_databag(self.left.evaluate(env), "plus").plus(
            _as_databag(self.right.evaluate(env), "plus")
        )


@dataclass(frozen=True)
class MinusCall(BagExpr):
    """Bag difference ``left.minus(right)``."""

    left: Expr
    right: Expr

    def evaluate(self, env: Env) -> DataBag:
        return _as_databag(self.left.evaluate(env), "minus").minus(
            _as_databag(self.right.evaluate(env), "minus")
        )


@dataclass(frozen=True)
class DistinctCall(BagExpr):
    """Duplicate elimination ``source.distinct()``."""

    source: Expr

    def evaluate(self, env: Env) -> DataBag:
        return _as_databag(self.source.evaluate(env), "distinct").distinct()


@dataclass(frozen=True)
class ReadCall(BagExpr):
    """``emma.read(path, fmt)`` — a dataflow source."""

    path: Expr
    fmt: Expr

    def evaluate(self, env: Env) -> DataBag:
        from repro.core.io import (
            CsvFormat,
            JsonLinesFormat,
            read_csv,
            read_jsonl,
        )

        path = self.path.evaluate(env)
        # Local-mode runs resolve reads against the engine's simulated
        # DFS when the path is staged there (the driver interpreter
        # installs it under ``__dfs__``); real files otherwise.
        if "__dfs__" in env:
            dfs = env.lookup("__dfs__")
            if dfs.exists(path):
                return DataBag(dfs.get(path).records)
        fmt = self.fmt.evaluate(env)
        if isinstance(fmt, CsvFormat):
            return read_csv(path, fmt)
        if isinstance(fmt, JsonLinesFormat):
            return read_jsonl(path, fmt)
        raise ComprehensionError(
            f"unsupported input format {type(fmt).__name__}"
        )


@dataclass(frozen=True)
class WriteCall(Expr):
    """``emma.write(path, fmt, bag)`` — a dataflow sink (evaluates to None)."""

    path: Expr
    fmt: Expr
    source: Expr

    def evaluate(self, env: Env) -> None:
        from repro.core.io import (
            CsvFormat,
            JsonLinesFormat,
            write_csv,
            write_jsonl,
        )

        path = self.path.evaluate(env)
        bag = _as_databag(self.source.evaluate(env), "write")
        # Local-mode runs write to the engine's simulated DFS when one
        # is installed (see ReadCall), keeping all backends comparable.
        if "__dfs__" in env:
            env.lookup("__dfs__").put(path, bag.fetch())
            return
        fmt = self.fmt.evaluate(env)
        if isinstance(fmt, CsvFormat):
            write_csv(path, fmt, bag)
        elif isinstance(fmt, JsonLinesFormat):
            write_jsonl(path, fmt, bag)
        else:
            raise ComprehensionError(
                f"unsupported output format {type(fmt).__name__}"
            )


@dataclass(frozen=True)
class BagLiteral(BagExpr):
    """``DataBag(seq)`` — lift a driver sequence into a bag.

    This is the "driver to dataflow" edge of Figure 3b: on a parallel
    engine it becomes a ``parallelize`` of local data.
    """

    seq: Expr

    def evaluate(self, env: Env) -> DataBag:
        value = self.seq.evaluate(env)
        if isinstance(value, DataBag):
            return value
        return DataBag(value)


@dataclass(frozen=True)
class FetchCall(Expr):
    """``bag.fetch()`` — materialize on the driver (collect)."""

    source: Expr

    def evaluate(self, env: Env) -> list:
        return _as_databag(self.source.evaluate(env), "fetch").fetch()


# ---------------------------------------------------------------------------
# Stateful bags (paper §3.1, "Stateful Bags")
#
# Stateful conversion and point-wise updates are runtime primitives, not
# comprehended dataflows — the paper makes the DataBag <-> StatefulBag
# conversion explicit precisely so the compiler does not have to reason
# about in-place mutation.  The nodes below give them direct local
# semantics via repro.core.stateful; the parallel driver interpreter
# handles them with engine-level keyed state.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatefulCreate(Expr):
    """``stateful(bag)`` — convert a DataBag into keyed state."""

    source: Expr
    key: Expr | None = None

    def evaluate(self, env: Env) -> Any:
        from repro.core.stateful import StatefulBag

        bag = _as_databag(self.source.evaluate(env), "stateful")
        key = self.key.evaluate(env) if self.key is not None else None
        return StatefulBag(bag, key=key)


@dataclass(frozen=True)
class StatefulBagOf(BagExpr):
    """``state.bag()`` — a stateless snapshot of the current state."""

    state: Expr

    def evaluate(self, env: Env) -> DataBag:
        return self.state.evaluate(env).bag()


@dataclass(frozen=True)
class StatefulUpdate(Expr):
    """``state.update(u)`` — point-wise update; evaluates to the delta."""

    state: Expr
    update_fn: Expr

    def evaluate(self, env: Env) -> DataBag:
        return self.state.evaluate(env).update(
            self.update_fn.evaluate(env)
        )


@dataclass(frozen=True)
class StatefulUpdateWithMessages(Expr):
    """``state.update_with_messages(msgs, u)`` — keyed-message update."""

    state: Expr
    messages: Expr
    update_fn: Expr

    def evaluate(self, env: Env) -> DataBag:
        from repro.core.stateful import StatefulBag

        state = self.state.evaluate(env)
        messages = self.messages.evaluate(env)
        if isinstance(state, StatefulBag):
            messages = _as_databag(messages, "update_with_messages")
        # Distributed stateful bags accept deferred/handle messages and
        # shuffle them to the state partitions themselves.
        return state.update_with_messages(
            messages, self.update_fn.evaluate(env)
        )
