"""DETERM: serial-order, bit-for-bit determinism of observable output.

Repeated runs reproduce the same result *exactly* (golden digests pin
it), and ``load(save(x))`` is bit-for-bit; both die the moment an
output order rides on Python ``set`` iteration (hash-seed dependent
across processes) or on wall-clock/randomness.  Two rules:

* **DETERM001** -- iterating a set (a ``set``/``frozenset`` literal,
  constructor call, set operator expression, or a local/`self.`
  attribute assigned one) in an order-observable position: a ``for``
  loop or comprehension, or a direct ``list()``/``tuple()``/
  ``enumerate()``/``iter()`` materialization.  Wrap the set in
  ``sorted(...)`` to fix (the wrapped form is not flagged).
* **DETERM002** -- nondeterminism sources (``time``, ``random``,
  ``uuid``, ``secrets``, ``os.urandom``) in :mod:`repro.query`, which
  owns plan canonicalization and fingerprinting: a fingerprint that
  hashes the clock fingerprints nothing.

Membership tests, ``len``/``min``/``max``/``sum``/``any``/``all`` and
set algebra are order-insensitive and not flagged.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.base import Checker, Module, ScopedVisitor, dotted_name
from repro.analysis.lint.findings import Finding

_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
_NONDETERMINISTIC_MODULES = {"time", "random", "uuid", "secrets"}
_NONDETERMINISTIC_CALLS = {"os.urandom", "datetime.now", "datetime.utcnow"}


def _describe(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover -- unparse covers all real nodes
        text = type(node).__name__
    return text if len(text) <= 60 else text[:57] + "..."


class _SetBindings(ast.NodeVisitor):
    """Collect names and ``self.`` attributes bound to set expressions.

    Function-local names are keyed by their enclosing def; ``self.X``
    attributes by their enclosing class (any method counts -- an
    attribute initialized as a set in ``__init__`` is a set everywhere
    in the class).  Rebinding a name to a non-set (``x = sorted(x)``)
    removes it, last writer wins per scope -- a deliberate, simple
    approximation.
    """

    def __init__(self):
        self.locals: dict[tuple[str, str], bool] = {}
        self.attrs: dict[tuple[str, str], bool] = {}
        self._defs: list[str] = []
        self._classes: list[str] = []

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def _record(self, target: ast.AST, value: ast.AST | None) -> None:
        if value is None:
            return
        is_set = is_set_expr(value, None)
        if isinstance(target, ast.Name) and self._defs:
            self.locals[(".".join(self._defs), target.id)] = is_set
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._classes
        ):
            self.attrs[(self._classes[-1], target.attr)] = is_set

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record(node.target, node.value)
        self.generic_visit(node)


def is_set_expr(node: ast.AST, bindings: "_BoundLookup | None") -> bool:
    """Whether *node* evaluates to a set, as far as the lint can tell."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _SET_CONSTRUCTORS
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
        return is_set_expr(node.left, bindings) or is_set_expr(
            node.right, bindings
        )
    if bindings is not None:
        return bindings.is_set(node)
    return False


class _BoundLookup:
    """Resolve Name/self-attribute nodes against collected bindings."""

    def __init__(self, bindings: _SetBindings, defs: list[str], classes: list[str]):
        self._bindings = bindings
        self._defs = defs
        self._classes = classes

    def is_set(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and self._defs:
            return self._bindings.locals.get(
                (".".join(self._defs), node.id), False
            )
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self._classes
        ):
            return self._bindings.attrs.get(
                (self._classes[-1], node.attr), False
            )
        return False


class _DetermVisitor(ScopedVisitor):
    def __init__(self, module: Module, bindings: _SetBindings, in_query: bool):
        super().__init__(module)
        self._bindings = bindings
        self._in_query = in_query
        self._defs: list[str] = []
        self._classes: list[str] = []

    # Maintain def/class stacks in parallel with the qualname stack so
    # binding lookups resolve against the right scope.
    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        super().visit_FunctionDef(node)
        self._defs.pop()

    def visit_AsyncFunctionDef(self, node):
        self._defs.append(node.name)
        super().visit_AsyncFunctionDef(node)
        self._defs.pop()

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        super().visit_ClassDef(node)
        self._classes.pop()

    def _lookup(self) -> _BoundLookup:
        return _BoundLookup(self._bindings, self._defs, self._classes)

    def _flag_if_set(self, iterable: ast.AST, context: str) -> None:
        if is_set_expr(iterable, self._lookup()):
            self.report(
                "DETERM001",
                iterable,
                f"iteration over a set ({_describe(iterable)}) in {context}; "
                f"set order is hash-seed dependent -- wrap in sorted(...)",
                f"set-iter:{_describe(iterable)}",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_if_set(node.iter, "a for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._flag_if_set(generator.iter, "a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in {"list", "tuple", "enumerate", "iter"}
            and node.args
        ):
            self._flag_if_set(node.args[0], f"{node.func.id}()")
        if self._in_query:
            name = dotted_name(node.func)
            if name in _NONDETERMINISTIC_CALLS:
                self.report(
                    "DETERM002",
                    node,
                    f"{name}() is nondeterministic and must not reach "
                    f"plan canonicalization or fingerprints",
                    f"nondet-call:{name}",
                )
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        if self._in_query:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _NONDETERMINISTIC_MODULES:
                    self.report(
                        "DETERM002",
                        node,
                        f"import of nondeterminism source {alias.name!r} in "
                        f"repro.query (plan fingerprinting must be pure)",
                        f"nondet-import:{alias.name}",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._in_query and node.module:
            root = node.module.split(".")[0]
            if root in _NONDETERMINISTIC_MODULES:
                self.report(
                    "DETERM002",
                    node,
                    f"import from nondeterminism source {node.module!r} in "
                    f"repro.query (plan fingerprinting must be pure)",
                    f"nondet-import:{node.module}",
                )
        self.generic_visit(node)


class DetermChecker(Checker):
    """Unordered iteration and nondeterminism sources in output paths."""

    name = "determ"
    paths = ("repro/algebra/", "repro/query/", "repro/storage/", "repro/stream/")
    rules = {
        "DETERM001": "set iteration in an order-observable position",
        "DETERM002": "nondeterminism source reachable from fingerprinting",
    }

    def check(self, module: Module) -> list[Finding]:
        bindings = _SetBindings()
        bindings.visit(module.tree)
        visitor = _DetermVisitor(
            module, bindings, in_query="repro/query/" in module.posix
        )
        visitor.visit(module.tree)
        return visitor.findings
