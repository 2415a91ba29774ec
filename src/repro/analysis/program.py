"""Whole-program model: symbols, conservative call edges, lock identities.

The per-module rules see one AST at a time; the failure modes that
matter at serving scale — a lock-order cycle spanning ``service`` and
``fleet``, a blocking call reached *transitively* from an ``async def``
handler — only exist across modules.  :class:`ProgramGraph` is the
shared substrate for rules that need the whole picture:

* **module resolution** — every scanned :class:`ModuleUnit` indexed by
  its dotted name, imports resolved through the same alias machinery
  the per-module rules use;
* **symbol table** — every module-level function and every method gets
  a stable qualified name (``repro.service.server.PlanService.submit``);
* **conservative call edges** — resolved lexically, with a lightweight
  type-inference pass (parameter annotations, ``self.attr = Param``
  captures, direct instantiations) so ``self.service.submit(...)``
  resolves through the annotated constructor parameter.  A call that
  cannot be resolved produces *no* edge — the graph under-approximates
  reachability, which is the right polarity for "is this blocking call
  reachable" (no false paths) and documented for ``lockorder`` (a cycle
  reported is real code, a cycle through an unresolvable indirection is
  missed);
* **deferred edges** — a callable handed to ``run_in_executor`` /
  ``asyncio.to_thread`` / ``Thread(target=...)`` / pool ``submit`` runs
  on another thread: the edge is recorded but marked *deferred*, and
  both concurrency rules skip deferred edges (locks held at the call
  site are not held where the callee runs, and the event loop is not
  blocked by work it shipped to an executor);
* **lock identities** — every lock-like attribute (``self._lock`` and
  friends, module-level ``_LOCK = threading.Lock()``) gets a stable
  program-wide identity, ``module.Class.attr`` or ``module.NAME``, so
  acquisition sites in different modules agree on what they acquired.

Everything here is pure data derived from the parsed trees — building a
program never imports or executes the analyzed code.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.analysis.engine import ModuleUnit
from repro.analysis.rules.common import dotted_name, import_aliases

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
}

_DEFERRING_CALLABLES = {
    # asyncio: the callable runs on an executor thread, not the loop.
    "run_in_executor",
    "to_thread",
    "call_soon_threadsafe",
    # threads / pools: the callable runs on another thread or process.
    "Thread",
    "Timer",
    "submit",
    "apply_async",
    "map_async",
    "starmap_async",
}

_BLOCKING_DOTTED = {
    # Dotted callables that block the calling thread outright.
    "time.sleep",
    "socket.create_connection",
    "subprocess.run",
    "subprocess.check_call",
    "subprocess.check_output",
    "urllib.request.urlopen",
}

_SOCKET_BLOCKING_METHODS = {
    "accept",
    "connect",
    "recv",
    "recvfrom",
    "send",
    "sendall",
    "sendto",
}

_STDLIB_INSTANCE_TYPES = {
    # Constructor dotted name -> the type identity methods resolve against.
    "queue.Queue": "queue.Queue",
    "queue.SimpleQueue": "queue.Queue",
    "queue.LifoQueue": "queue.Queue",
    "queue.PriorityQueue": "queue.Queue",
    "threading.Event": "threading.Event",
    "threading.Condition": "threading.Condition",
    "threading.Lock": "threading.Lock",
    "threading.RLock": "threading.Lock",
    "threading.Semaphore": "threading.Lock",
    "threading.BoundedSemaphore": "threading.Lock",
    "socket.socket": "socket.socket",
}


@dataclass(frozen=True)
class FunctionSymbol:
    """One addressable function or method in the scanned program."""

    qualname: str
    """``module.func`` or ``module.Class.method``."""

    module_name: str
    class_name: str | None
    path: str
    line: int
    is_async: bool


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: *caller* invokes *callee*."""

    caller: str
    callee: str
    path: str
    line: int
    deferred: bool = False
    """True when the callee was handed to an executor/thread/pool and
    therefore runs outside the caller's thread (and lock context)."""


@dataclass(frozen=True)
class LockAcquisition:
    """One ``with``-block acquisition of an identified lock."""

    lock_id: str
    path: str
    line: int
    held: tuple[str, ...]
    """Lock ids already held (same function, lexically enclosing)."""


@dataclass(frozen=True)
class BlockingCall:
    """One call site that blocks the calling thread (sleep, queue get,
    lock acquire, socket/file I/O)."""

    op: str
    """Human-readable operation identity (``time.sleep``,
    ``queue.Queue.get``, ``repro.x.C._lock.acquire``)."""

    path: str
    line: int


@dataclass
class FunctionFacts:
    """Per-function facts the concurrency rules consume."""

    symbol: FunctionSymbol
    acquisitions: list[LockAcquisition] = field(default_factory=list)
    calls: list[CallEdge] = field(default_factory=list)
    calls_under_lock: list[tuple[tuple[str, ...], CallEdge]] = field(
        default_factory=list
    )
    blocking_calls: list[BlockingCall] = field(default_factory=list)


class _ModuleIndex:
    """Pass-1 product for one module: classes, functions, aliases."""

    def __init__(self, module: ModuleUnit) -> None:
        self.module = module
        self.aliases = import_aliases(module.tree)
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node


class ProgramGraph:
    """The whole scanned program, as data: symbols, calls, locks.

    Build with :meth:`build`; query with :meth:`callees`,
    :meth:`facts_for`, :attr:`functions`.  All iteration orders are
    deterministic (sorted module and symbol names), so rule output is
    stable across runs.
    """

    def __init__(self) -> None:
        self.modules: dict[str, ModuleUnit] = {}
        self.functions: dict[str, FunctionSymbol] = {}
        self.facts: dict[str, FunctionFacts] = {}
        self.class_attr_types: dict[str, dict[str, str]] = {}
        self.class_bases: dict[str, tuple[str, ...]] = {}
        self.lock_ids: set[str] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, modules: Iterable[ModuleUnit]) -> "ProgramGraph":
        """Index *modules* and resolve call edges between them."""
        program = cls()
        indexes: dict[str, _ModuleIndex] = {}
        for module in sorted(modules, key=lambda unit: unit.module_name):
            # Last writer wins on duplicate names; scanned trees are
            # disjoint in practice (one file per dotted module).
            indexes[module.module_name] = _ModuleIndex(module)
            program.modules[module.module_name] = module
        for name in sorted(indexes):
            program._index_symbols(indexes[name])
        for name in sorted(indexes):
            program._infer_class_attr_types(indexes[name])
        for name in sorted(indexes):
            program._extract_facts(indexes[name])
        return program

    def _index_symbols(self, index: _ModuleIndex) -> None:
        module = index.module
        for name, node in index.functions.items():
            qualname = f"{module.module_name}.{name}"
            self.functions[qualname] = FunctionSymbol(
                qualname=qualname,
                module_name=module.module_name,
                class_name=None,
                path=module.path,
                line=node.lineno,
                is_async=isinstance(node, ast.AsyncFunctionDef),
            )
        for class_name, class_node in index.classes.items():
            class_qual = f"{module.module_name}.{class_name}"
            bases: list[str] = []
            for base in class_node.bases:
                base_name = dotted_name(base, index.aliases)
                if base_name is not None:
                    bases.append(self._canonical_class(base_name, index))
            self.class_bases[class_qual] = tuple(bases)
            for node in class_node.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{class_qual}.{node.name}"
                    self.functions[qualname] = FunctionSymbol(
                        qualname=qualname,
                        module_name=module.module_name,
                        class_name=class_name,
                        path=module.path,
                        line=node.lineno,
                        is_async=isinstance(node, ast.AsyncFunctionDef),
                    )

    def _canonical_class(self, dotted: str, index: _ModuleIndex) -> str:
        """Map a resolved dotted name onto a known class qualname.

        A locally-defined base (``class Sub(Base)``) is module-qualified;
        anything else already came through the import aliases fully
        qualified.
        """
        if dotted.split(".", 1)[0] in index.classes:
            return f"{index.module.module_name}.{dotted}"
        return dotted

    # ------------------------------------------------------------------
    # Type inference (deliberately shallow)
    # ------------------------------------------------------------------
    def _resolve_class(self, dotted: str | None, index: _ModuleIndex) -> str | None:
        """A dotted reference that names a class, canonicalized, or None."""
        if dotted is None:
            return None
        if dotted in _STDLIB_INSTANCE_TYPES:
            return _STDLIB_INSTANCE_TYPES[dotted]
        head, _, rest = dotted.partition(".")
        if not rest and head in index.classes:
            return f"{index.module.module_name}.{head}"
        # Fully-qualified reference to a class in another scanned module:
        # `repro.service.server.PlanService` splits as module + class.
        module_name, _, class_name = dotted.rpartition(".")
        if module_name in self.modules and class_name:
            candidate = f"{module_name}.{class_name}"
            if candidate in self.class_bases:
                return candidate
        return None

    def _annotation_type(
        self, annotation: ast.expr | None, index: _ModuleIndex
    ) -> str | None:
        """Class named by a parameter/attribute annotation, or None."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            return self._annotation_type(
                annotation.left, index
            ) or self._annotation_type(annotation.right, index)
        if isinstance(annotation, ast.Subscript):
            base = dotted_name(annotation.value, index.aliases)
            if base is not None and base.rsplit(".", 1)[-1] == "Optional":
                return self._annotation_type(annotation.slice, index)
            return None
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            return self._resolve_class(dotted_name(annotation, index.aliases), index)
        return None

    def _param_types(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, index: _ModuleIndex
    ) -> dict[str, str]:
        types: dict[str, str] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            inferred = self._annotation_type(arg.annotation, index)
            if inferred is not None:
                types[arg.arg] = inferred
        return types

    def _expr_type(
        self, expr: ast.expr, env: Mapping[str, str], index: _ModuleIndex
    ) -> str | None:
        """Instance type of *expr* under *env*, or None when unknown."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._expr_type(expr.value, env, index)
            if base is not None:
                attr_type = self._class_attr_type(base, expr.attr)
                if attr_type is not None:
                    return attr_type
            return None
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, (ast.Name, ast.Attribute)):
                return self._resolve_class(
                    dotted_name(expr.func, index.aliases), index
                )
            return None
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                inferred = self._expr_type(value, env, index)
                if inferred is not None:
                    return inferred
            return None
        if isinstance(expr, ast.Await):
            return self._expr_type(expr.value, env, index)
        return None

    def _class_attr_type(self, class_qual: str, attr: str) -> str | None:
        seen: set[str] = set()
        stack = [class_qual]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            attr_type = self.class_attr_types.get(current, {}).get(attr)
            if attr_type is not None:
                return attr_type
            stack.extend(self.class_bases.get(current, ()))
        return None

    def _infer_class_attr_types(self, index: _ModuleIndex) -> None:
        """Record ``self.attr`` instance types and lock identities."""
        module = index.module
        for class_name, class_node in index.classes.items():
            class_qual = f"{module.module_name}.{class_name}"
            attr_types = self.class_attr_types.setdefault(class_qual, {})
            for method in class_node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                env = self._param_types(method, index)
                for node in ast.walk(method):
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    value = node.value
                    for target in targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        if (
                            isinstance(node, ast.AnnAssign)
                            and node.annotation is not None
                        ):
                            annotated = self._annotation_type(node.annotation, index)
                            if annotated is not None:
                                attr_types.setdefault(target.attr, annotated)
                        if value is None:
                            continue
                        if self._is_lock_factory_call(value, index):
                            self.lock_ids.add(f"{class_qual}.{target.attr}")
                        inferred = self._expr_type(value, env, index)
                        if inferred is not None:
                            attr_types.setdefault(target.attr, inferred)
        # Module-level locks: `_REGISTRY_LOCK = threading.Lock()`.
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if self._is_lock_factory_call(node.value, index):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.lock_ids.add(f"{module.module_name}.{target.id}")

    def _is_lock_factory_call(self, expr: ast.expr, index: _ModuleIndex) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        if not isinstance(expr.func, (ast.Name, ast.Attribute)):
            return False
        return dotted_name(expr.func, index.aliases) in _LOCK_FACTORIES

    # ------------------------------------------------------------------
    # Fact extraction: acquisitions + call edges per function
    # ------------------------------------------------------------------
    def _extract_facts(self, index: _ModuleIndex) -> None:
        module = index.module
        for name, node in sorted(index.functions.items()):
            qualname = f"{module.module_name}.{name}"
            self.facts[qualname] = self._function_facts(
                qualname, node, None, index
            )
        for class_name, class_node in sorted(index.classes.items()):
            class_qual = f"{module.module_name}.{class_name}"
            for method in class_node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{class_qual}.{method.name}"
                    self.facts[qualname] = self._function_facts(
                        qualname, method, class_qual, index
                    )

    def _function_facts(
        self,
        qualname: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_qual: str | None,
        index: _ModuleIndex,
    ) -> FunctionFacts:
        facts = FunctionFacts(symbol=self.functions[qualname])
        env = dict(self._param_types(node, index))
        if class_qual is not None:
            env["self"] = class_qual
        # Pre-pass: direct local instantiations (`cache = PlanCache(...)`).
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and target.id not in env:
                    inferred = self._expr_type(stmt.value, env, index)
                    if inferred is not None:
                        env[target.id] = inferred
        scanner = _FactScanner(self, facts, env, index, class_qual)
        scanner.scan_block(node.body, ())
        return facts

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def facts_for(self, qualname: str) -> FunctionFacts | None:
        return self.facts.get(qualname)

    def callees(self, qualname: str) -> list[CallEdge]:
        facts = self.facts.get(qualname)
        return list(facts.calls) if facts is not None else []

    def async_functions(self) -> list[FunctionSymbol]:
        return [
            self.functions[name]
            for name in sorted(self.functions)
            if self.functions[name].is_async
        ]

    def resolve_method(self, class_qual: str, method: str) -> str | None:
        """``class.method`` resolved through the (scanned) base chain."""
        seen: set[str] = set()
        stack = [class_qual]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            candidate = f"{current}.{method}"
            if candidate in self.functions:
                return candidate
            stack.extend(self.class_bases.get(current, ()))
        return None

    def lock_identity(
        self, expr: ast.expr, env: Mapping[str, str], index: _ModuleIndex
    ) -> str | None:
        """Stable identity of the lock *expr* acquires, or None.

        ``self._lock`` maps to ``module.Class._lock`` (through the
        inferred type of ``self``), ``other.attr_lock`` through the
        inferred type of ``other``, and a bare name to a module-level
        lock id when one was registered.
        """
        if isinstance(expr, ast.Name):
            candidate = f"{index.module.module_name}.{expr.id}"
            return candidate if candidate in self.lock_ids else None
        if isinstance(expr, ast.Attribute):
            base = self._expr_type(expr.value, env, index)
            if base is None:
                return None
            seen: set[str] = set()
            stack = [base]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                candidate = f"{current}.{expr.attr}"
                if candidate in self.lock_ids:
                    return candidate
                stack.extend(self.class_bases.get(current, ()))
            return None
        return None


class _FactScanner:
    """Statement walker recording acquisitions and call edges."""

    def __init__(
        self,
        program: ProgramGraph,
        facts: FunctionFacts,
        env: Mapping[str, str],
        index: _ModuleIndex,
        class_qual: str | None,
    ) -> None:
        self.program = program
        self.facts = facts
        self.env = env
        self.index = index
        self.class_qual = class_qual

    def scan_block(self, body: Sequence[ast.stmt], held: tuple[str, ...]) -> None:
        for node in body:
            self._scan_statement(node, held)

    def _scan_statement(self, node: ast.stmt, held: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested def runs later, possibly on another thread; its
            # body is not part of this function's synchronous behaviour.
            return
        if isinstance(node, ast.With):
            acquired: list[str] = []
            for item in node.items:
                self._scan_expression(item.context_expr, held)
                lock_id = self.program.lock_identity(
                    item.context_expr, self.env, self.index
                )
                if lock_id is not None:
                    self.facts.acquisitions.append(
                        LockAcquisition(
                            lock_id=lock_id,
                            path=self.index.module.path,
                            line=item.context_expr.lineno,
                            held=held + tuple(acquired),
                        )
                    )
                    acquired.append(lock_id)
            self.scan_block(node.body, held + tuple(acquired))
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._scan_statement(child, held)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                self.scan_block(child.body, held)
            elif isinstance(child, ast.expr):
                self._scan_expression(child, held)

    def _scan_expression(self, expr: ast.expr, held: tuple[str, ...]) -> None:
        # Hand-rolled walk so lambda bodies are skipped: a lambda runs
        # later, not at this call site (mirrors the nested-def policy).
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Call):
                self._record_call(node, held)
            stack.extend(ast.iter_child_nodes(node))

    def _record_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        blocking = self._blocking_op(node)
        if blocking is not None:
            self.facts.blocking_calls.append(
                BlockingCall(
                    op=blocking, path=self.index.module.path, line=node.lineno
                )
            )
        callee = self._resolve_callee(node.func)
        if callee is not None:
            edge = CallEdge(
                caller=self.facts.symbol.qualname,
                callee=callee,
                path=self.index.module.path,
                line=node.lineno,
            )
            self.facts.calls.append(edge)
            if held:
                self.facts.calls_under_lock.append((held, edge))
        terminal = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else node.func.id
            if isinstance(node.func, ast.Name)
            else None
        )
        if terminal in _DEFERRING_CALLABLES:
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                deferred = self._resolve_callee(arg)
                if deferred is not None:
                    self.facts.calls.append(
                        CallEdge(
                            caller=self.facts.symbol.qualname,
                            callee=deferred,
                            path=self.index.module.path,
                            line=node.lineno,
                            deferred=True,
                        )
                    )

    def _blocking_op(self, node: ast.Call) -> str | None:
        """Identity of the thread-blocking operation *node* performs.

        Under-approximates on purpose: only operations whose receiver
        type (or dotted name) is known for sure are reported, so every
        hit is real.  ``block=False`` queue calls are exempt — they
        raise instead of waiting.
        """
        func = node.func
        index = self.index
        if isinstance(func, ast.Name):
            if func.id == "open" and "open" not in index.aliases:
                if f"{index.module.module_name}.open" not in self.program.functions:
                    return "open"
            dotted = index.aliases.get(func.id)
            if dotted in _BLOCKING_DOTTED:
                return dotted
            return None
        if not isinstance(func, ast.Attribute):
            return None
        dotted = dotted_name(func, index.aliases)
        if dotted in _BLOCKING_DOTTED:
            return dotted
        if func.attr == "acquire":
            lock_id = self.program.lock_identity(func.value, self.env, index)
            if lock_id is not None and not self._nonblocking_kwargs(node):
                return f"{lock_id}.acquire"
            return None
        receiver = self.program._expr_type(func.value, self.env, index)
        if receiver == "queue.Queue" and func.attr in {"get", "put", "join"}:
            if not self._nonblocking_kwargs(node):
                return f"queue.Queue.{func.attr}"
            return None
        if receiver == "threading.Event" and func.attr == "wait":
            return "threading.Event.wait"
        if receiver == "socket.socket" and func.attr in _SOCKET_BLOCKING_METHODS:
            return f"socket.socket.{func.attr}"
        # `pool.apply_async(...).get()` / `executor.submit(...).result()`:
        # the async handle is consumed synchronously at the call site.
        if isinstance(func.value, ast.Call) and isinstance(
            func.value.func, ast.Attribute
        ):
            inner = func.value.func.attr
            if func.attr == "get" and inner in {
                "apply_async",
                "map_async",
                "starmap_async",
            }:
                return f"pool.{inner}().get"
            if func.attr == "result" and inner == "submit":
                return "Future.result"
        return None

    @staticmethod
    def _nonblocking_kwargs(node: ast.Call) -> bool:
        """True for ``block=False`` / ``blocking=False`` call forms."""
        for keyword in node.keywords:
            if keyword.arg in {"block", "blocking"} and (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
            ):
                return True
        if node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and first.value is False:
                return True
        return False

    def _resolve_callee(self, func: ast.expr) -> str | None:
        """Qualified name of the function *func* refers to, or None."""
        program = self.program
        index = self.index
        if isinstance(func, ast.Name):
            local = f"{index.module.module_name}.{func.id}"
            if local in program.functions:
                return local
            dotted = index.aliases.get(func.id)
            if dotted is not None:
                return self._resolve_dotted(dotted)
            if func.id in index.classes:
                return program.resolve_method(local, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            receiver_type = program._expr_type(func.value, self.env, index)
            if receiver_type is not None:
                resolved = program.resolve_method(receiver_type, func.attr)
                if resolved is not None:
                    return resolved
            dotted = dotted_name(func, index.aliases)
            if dotted is not None:
                return self._resolve_dotted(dotted)
            return None
        return None

    def _resolve_dotted(self, dotted: str) -> str | None:
        program = self.program
        if dotted in program.functions:
            return dotted
        as_class = program._resolve_class(dotted, self.index)
        if as_class is not None:
            return program.resolve_method(as_class, "__init__")
        # `module.Class.method` referenced fully qualified.
        head, _, method = dotted.rpartition(".")
        as_class = program._resolve_class(head, self.index) if head else None
        if as_class is not None:
            return program.resolve_method(as_class, method)
        return None


def build_program(modules: Iterable[ModuleUnit]) -> ProgramGraph:
    """Convenience alias for :meth:`ProgramGraph.build`."""
    return ProgramGraph.build(modules)


__all__ = [
    "BlockingCall",
    "CallEdge",
    "FunctionFacts",
    "FunctionSymbol",
    "LockAcquisition",
    "ProgramGraph",
    "build_program",
]
