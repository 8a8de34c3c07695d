"""CONC: thread-safety of shared library code.

Callers may drive the library from several threads at once (an
application can run integrations and queries concurrently), so any
module-level state the evidence kernel, algebra, query, integration, stream,
storage or telemetry layers touch is concurrent whether it planned to
be or not.  One rule:

* **CONC001** -- a module-level mutable global (a container literal or
  constructed instance) written from inside a function without holding a
  lock: attribute/subscript stores, augmented assignments (the classic
  lost-update ``STATS.counter += 1``) and known mutating method calls
  (``.append``/``.add``/``.update``/``.clear``/...).  Writes inside a
  ``with`` block whose context expression names a lock (a module-level
  ``threading.Lock()`` global, or any name containing ``lock``) are
  considered guarded; ``threading.local()`` instances are thread-private
  by construction and exempt.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.base import Checker, Module, ScopedVisitor, dotted_name
from repro.analysis.lint.findings import Finding

_LOCK_CONSTRUCTORS = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
}
_MUTATING_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}
def _call_tail(node: ast.AST) -> str | None:
    """The last identifier of a called Name/Attribute (``threading.Lock``
    -> ``Lock``), or ``None``."""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None:
            return name.split(".")[-1]
    return None


class _ModuleGlobals(ast.NodeVisitor):
    """Classify module-level names: mutable, lock, or thread-local."""

    def __init__(self, tree: ast.Module):
        self.mutable: set[str] = set()
        self.locks: set[str] = set()
        for statement in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value:
                targets, value = [statement.target], statement.value
            if value is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                self._classify(target.id, value)

    def _classify(self, name: str, value: ast.expr) -> None:
        tail = _call_tail(value)
        if tail in _LOCK_CONSTRUCTORS:
            self.locks.add(name)
            return
        if tail == "local":  # threading.local(): thread-private, safe
            return
        if isinstance(
            value,
            (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
        ) or isinstance(value, ast.Call):
            self.mutable.add(name)


def _root_name(node: ast.AST) -> str | None:
    """The base Name of an attribute/subscript chain (``X.a[0].b`` -> X)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _ConcVisitor(ScopedVisitor):
    def __init__(self, module: Module, globals_: _ModuleGlobals):
        super().__init__(module)
        self._globals = globals_
        self._guard_depth = 0

    def _is_lock_expr(self, node: ast.AST) -> bool:
        name = dotted_name(node)
        if name is None:
            return False
        if name.split(".")[-1] in self._globals.locks or name in self._globals.locks:
            return True
        return "lock" in name.lower()

    def visit_With(self, node: ast.With) -> None:
        guarded = any(
            self._is_lock_expr(item.context_expr)
            or (
                isinstance(item.context_expr, ast.Call)
                and self._is_lock_expr(item.context_expr.func)
            )
            for item in node.items
        )
        if guarded:
            self._guard_depth += 1
        self.generic_visit(node)
        if guarded:
            self._guard_depth -= 1

    def _flag(self, node: ast.AST, name: str, what: str) -> None:
        self.report(
            "CONC001",
            node,
            f"unsynchronized {what} of module-level mutable global "
            f"{name!r} from a function; guard with a lock "
            f"or use thread-local counters",
            f"global-write:{name}",
        )

    def _global_write_target(self, target: ast.AST) -> str | None:
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return None
        root = _root_name(target)
        if root is not None and root in self._globals.mutable:
            return root
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.in_function() and self._guard_depth == 0:
            for target in node.targets:
                root = self._global_write_target(target)
                if root is not None:
                    self._flag(node, root, "write")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.in_function() and self._guard_depth == 0:
            root = self._global_write_target(node.target)
            if root is not None:
                self._flag(node, root, "read-modify-write")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        if self.in_function() and self._guard_depth == 0:
            for target in node.targets:
                root = self._global_write_target(target)
                if root is not None:
                    self._flag(node, root, "delete")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.in_function()
            and self._guard_depth == 0
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
        ):
            root = _root_name(node.func.value)
            if root is not None and root in self._globals.mutable:
                self._flag(node, root, f".{node.func.attr}() mutation")
        self.generic_visit(node)


class ConcChecker(Checker):
    """Unsynchronized writes to module-level mutable globals."""

    name = "conc"
    paths = (
        "repro/ds/",
        "repro/query/",
        "repro/stream/",
        "repro/storage/",
        "repro/algebra/",
        "repro/integration/",
        "repro/obs/",
    )
    rules = {
        "CONC001": "unsynchronized write to a module-level mutable global",
    }

    def check(self, module: Module) -> list[Finding]:
        globals_ = _ModuleGlobals(module.tree)
        if not globals_.mutable:
            return []
        visitor = _ConcVisitor(module, globals_)
        visitor.visit(module.tree)
        return visitor.findings
