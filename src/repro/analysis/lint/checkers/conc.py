"""CONC: fork/thread-safety of executor-reachable code.

The physical layer (:mod:`repro.exec`) ships partition tasks to a warm
``fork`` process pool, and callers may drive it from several threads,
so any module a task can reach is concurrent code whether it planned to
be or not.  Three rules:

* **CONC001** -- a module-level mutable global (a container literal or
  constructed instance) written from inside a function without holding a
  lock: attribute/subscript stores, augmented assignments (the classic
  lost-update ``STATS.counter += 1``) and known mutating method calls
  (``.append``/``.add``/``.update``/``.clear``/...).  Writes inside a
  ``with`` block whose context expression names a lock (a module-level
  ``threading.Lock()`` global, or any name containing ``lock``) are
  considered guarded; ``threading.local()`` instances are thread-private
  by construction and exempt.
* **CONC002** -- a closure captured into a process-pool task while
  holding a fork-unsafe resource: a nested def/lambda that references an
  enclosing variable bound from ``open(...)``, ``sqlite3.connect(...)``
  or a ``threading`` lock (by assignment or as a ``with ... as`` target),
  passed to ``.submit``/``.map``/``.apply_async``/``.imap*`` -- or to
  the *long-lived* warm-pool dispatch ``.submit_batch``
  (:mod:`repro.exec.warmpool`), where the hazard is worse: the workers
  were forked long before the capture, so any handle state is stale in
  the worker by construction, not merely racy.  Keyword arguments are
  scanned as well as positional ones.  File offsets, sqlite connections
  and held locks do not survive ``fork`` -- the child inherits corrupt
  state.
* **CONC003** -- a closure capturing a **socket** (``socket.socket``,
  ``socket.create_connection``, ``socketpair``) shipped through an
  encoded batch dispatch: the warm pool's ``.submit_batch`` or the
  executor's three-operand ``.map(fn, common, items)``.  Those
  dispatches cross the warm pool's process boundary by pickling the
  task, and sockets do not pickle at all: the capture is a guaranteed
  runtime failure (or a silent inline fallback), not merely a race.
  Plain ``.submit`` and two-operand ``.map(fn, items)`` dispatches are
  deliberately out of scope: a thread pool shares the address space,
  where handing a socket to a task is legitimate.
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
#: Pool-dispatch method names.  ``submit_batch`` is the warm persistent
#: pool's entry point (repro.exec.warmpool): its submissions outlive any
#: batch, so a captured handle is stale in the long-ago-forked worker by
#: construction.
_POOL_DISPATCH = {
    "submit",
    "map",
    "apply",
    "apply_async",
    "imap",
    "imap_unordered",
    "submit_batch",
}
_FORK_UNSAFE_CONSTRUCTORS = {"open", "sqlite3.connect", "connect"}
#: Socket constructors (CONC003).  ``socket.socket`` and a bare
#: ``socket(...)`` both end in ``socket``; ``create_connection`` and
#: ``socketpair`` are the stdlib's other two ways to mint one.
_SOCKET_CONSTRUCTORS = {"socket", "create_connection", "socketpair"}


def _is_wire_dispatch(call: ast.Call) -> bool:
    """Whether *call* pickles its task across the warm pool's process
    boundary -- where a captured socket is a guaranteed failure rather
    than a race: ``submit_batch``, and ``map`` in its three-operand
    ``(fn, common, items)`` executor form."""
    if call.func.attr == "submit_batch":
        return True
    return call.func.attr == "map" and (
        len(call.args) == 3
        or any(keyword.arg == "common" for keyword in call.keywords)
    )


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
            f"{name!r} from executor-reachable code; guard with a lock "
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


class _ForkCaptureVisitor(ScopedVisitor):
    """CONC002: per-function scan for fork-unsafe closure captures."""

    def visit_FunctionDef(self, node):
        self._scan_function(node)
        super().visit_FunctionDef(node)

    def visit_AsyncFunctionDef(self, node):
        self._scan_function(node)
        super().visit_AsyncFunctionDef(node)

    @staticmethod
    def _scope_nodes(func: ast.AST):
        """Walk *func*'s own scope: stop at nested def/lambda boundaries."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _risky_origin(value: ast.AST) -> str | None:
        """The constructor name when *value* builds a fork-unsafe handle."""
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        tail = name.split(".")[-1] if name else None
        if (
            name in _FORK_UNSAFE_CONSTRUCTORS
            or tail in _FORK_UNSAFE_CONSTRUCTORS
            or tail in _LOCK_CONSTRUCTORS
        ):
            return name or tail or "?"
        return None

    @staticmethod
    def _socket_origin(value: ast.AST) -> str | None:
        """The constructor name when *value* builds a socket (CONC003)."""
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        tail = name.split(".")[-1] if name else None
        if tail in _SOCKET_CONSTRUCTORS:
            return name or tail or "?"
        return None

    def _scan_function(self, func: ast.AST) -> None:
        scope = list(self._scope_nodes(func))
        risky: dict[str, str] = {}
        sockets: dict[str, str] = {}
        for statement in scope:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    socket_origin = self._socket_origin(statement.value)
                    if socket_origin is not None:
                        sockets[target.id] = socket_origin
                        continue
                    origin = self._risky_origin(statement.value)
                    if origin is not None:
                        risky[target.id] = origin
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                # `with open(...) as handle:` binds the same fork-unsafe
                # resource as an assignment would.
                for item in statement.items:
                    if not isinstance(item.optional_vars, ast.Name):
                        continue
                    socket_origin = self._socket_origin(item.context_expr)
                    if socket_origin is not None:
                        sockets[item.optional_vars.id] = socket_origin
                        continue
                    origin = self._risky_origin(item.context_expr)
                    if origin is not None:
                        risky[item.optional_vars.id] = origin
        if not risky and not sockets:
            return
        tainted = {**risky, **sockets}
        closures: dict[str, tuple[ast.AST, set[str]]] = {}
        for inner in scope:
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                captured = {
                    leaf.id
                    for leaf in ast.walk(inner)
                    if isinstance(leaf, ast.Name) and leaf.id in tainted
                }
                if captured:
                    closures[inner.name] = (inner, captured)
        for call in scope:
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in _POOL_DISPATCH
            ):
                continue
            operands = list(call.args) + [
                keyword.value for keyword in call.keywords
            ]
            for arg in operands:
                if isinstance(arg, ast.Name) and arg.id in closures:
                    _inner, captured = closures[arg.id]
                    self._report_capture(call, arg.id, captured, risky, sockets)
                elif isinstance(arg, ast.Lambda):
                    captured = {
                        leaf.id
                        for leaf in ast.walk(arg)
                        if isinstance(leaf, ast.Name) and leaf.id in tainted
                    }
                    if captured:
                        self._report_capture(
                            call, "<lambda>", captured, risky, sockets
                        )

    def _report_capture(
        self,
        call: ast.Call,
        closure_name: str,
        captured: set[str],
        risky: dict[str, str],
        sockets: dict[str, str],
    ) -> None:
        """One dispatch of one closure: emit CONC002 and/or CONC003."""
        label = (
            f"closure {closure_name!r}" if closure_name != "<lambda>"
            else "lambda"
        )
        fork_unsafe = sorted(name for name in captured if name in risky)
        if fork_unsafe:
            resources = ", ".join(
                f"{name} (from {risky[name]})" for name in fork_unsafe
            )
            self.report(
                "CONC002",
                call,
                f"{label} captures fork-unsafe resource(s) {resources} "
                f"and is dispatched to a worker pool; pass paths/keys "
                f"and reopen in the task instead",
                f"fork-capture:{closure_name}",
            )
        captured_sockets = sorted(name for name in captured if name in sockets)
        if captured_sockets and _is_wire_dispatch(call):
            resources = ", ".join(
                f"{name} (from {sockets[name]})" for name in captured_sockets
            )
            self.report(
                "CONC003",
                call,
                f"{label} captures socket(s) {resources} and is shipped "
                f"through .{call.func.attr}(), which pickles the task "
                f"across a process boundary; sockets never "
                f"survive that hop -- pass the address and connect "
                f"inside the task instead",
                f"socket-capture:{closure_name}",
            )


class ConcChecker(Checker):
    """Unsynchronized global writes and fork-unsafe pool captures."""

    name = "conc"
    paths = (
        "repro/ds/",
        "repro/exec/",
        "repro/stream/",
        "repro/storage/",
        "repro/algebra/",
        "repro/integration/",
        "repro/obs/",
    )
    rules = {
        "CONC001": "unsynchronized write to a module-level mutable global",
        "CONC002": "fork-unsafe resource captured into a pool task",
        "CONC003": "socket captured into a wire-shipped batch task",
    }

    def check(self, module: Module) -> list[Finding]:
        globals_ = _ModuleGlobals(module.tree)
        findings: list[Finding] = []
        if globals_.mutable:
            visitor = _ConcVisitor(module, globals_)
            visitor.visit(module.tree)
            findings.extend(visitor.findings)
        captures = _ForkCaptureVisitor(module)
        captures.visit(module.tree)
        findings.extend(captures.findings)
        return findings
