"""``repro-lint``: AST rules over the codebase's recurring bug shapes.

Each rule encodes a defect class this repository has actually shipped
(or nearly shipped) and that generic linters do not know about — raw
device calls that bypass the resilient-retry layer, stencil readbacks
without a staleness check, exception handlers that would swallow
injected :class:`~repro.errors.GpuError` faults, float equality on the
substrate's fixed-point encodings, and the deprecated string device
form.  Pure stdlib (:mod:`ast`), so the gate runs anywhere the tests
run.

Findings on a line ending with ``# repro-lint: disable=<name>[,...]``
are suppressed for the named rules on that line; when the marker sits
on a comment-only line, it covers the following line instead.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re


@dataclasses.dataclass(frozen=True)
class LintRule:
    """One lint rule: a code, a slug usable in suppressions, a summary."""

    code: str
    name: str
    summary: str


RAW_DEVICE = LintRule(
    "L201",
    "raw-device",
    "a layer above the engines constructs a Device or issues mutating "
    "device calls, bypassing ResilientExecutor retry/fallback",
)

UNCHECKED_STENCIL_READ = LintRule(
    "L202",
    "unchecked-stencil-read",
    "a function reads the stencil buffer back without consulting "
    "stencil_generation, so it can consume a stale selection mask",
)

BARE_EXCEPT = LintRule(
    "L203",
    "bare-except",
    "a bare or blanket except swallows GpuError, hiding injected "
    "faults from the resilience layer",
)

FLOAT_EQ = LintRule(
    "L204",
    "float-eq",
    "float equality comparison; fixed-point and bias-encoded values "
    "must compare via integers or tolerances",
)

STRING_DEVICE = LintRule(
    "L205",
    "string-device",
    "device= passed as a string literal; use the repro.sql.Device "
    "enum (the string form has been removed and raises SqlPlanError)",
)

UNSCHEDULED_STENCIL_WRITE = LintRule(
    "L206",
    "unscheduled-stencil-write",
    "a layer outside repro.gpu / repro.core writes device stencil or "
    "depth state directly, bypassing the context scheduler's "
    "checkpoint/restore isolation",
)

DIRECT_INTERPRETER = LintRule(
    "L207",
    "direct-interpreter",
    "ProgramInterpreter used outside repro.gpu; fragment programs run "
    "through the device (which picks the JIT or interpreter backend), "
    "not by interpreting directly",
)

UNLOCKED_POOL_CAPTURE = LintRule(
    "L208",
    "unlocked-pool-capture",
    "a callable submitted to a thread pool mutates captured engine/"
    "device/tracer state without holding a lock; pool threads race on "
    "the shared object",
)

OFF_SHARD_ENGINE = LintRule(
    "L209",
    "off-shard-engine",
    "a pool-submitted callable reaches into the shard table or the "
    "parent engine instead of using its own shard argument; per-shard "
    "state is only safe on its owning worker thread",
)

#: Every rule ``repro-lint`` can fire, in code order.
LINT_RULES: tuple[LintRule, ...] = (
    RAW_DEVICE,
    UNCHECKED_STENCIL_READ,
    BARE_EXCEPT,
    FLOAT_EQ,
    STRING_DEVICE,
    UNSCHEDULED_STENCIL_WRITE,
    DIRECT_INTERPRETER,
    UNLOCKED_POOL_CAPTURE,
    OFF_SHARD_ENGINE,
)


@dataclasses.dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: LintRule
    message: str

    def render_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule.code} {self.rule.name}: {self.message}"
        )


#: Layers (directories or modules directly under ``repro``) that must
#: reach the device through an engine + ResilientExecutor, never raw.
_ENGINE_ONLY_LAYERS = {
    "sql", "bench", "data", "cpu", "trace", "analysis", "olap.py",
    "streams.py",
}

#: The only layers allowed to mutate device stencil/depth state
#: directly: the substrate itself and the engines the
#: ContextScheduler multiplexes.  Everything else (service, faults,
#: plan, streams, ...) must go through an engine so switches
#: checkpoint/restore correctly.
_SCHEDULER_LAYERS = {"gpu", "core"}

#: Device methods that write stencil or depth buffer state (the state
#: virtual contexts checkpoint and restore on every switch).
_STENCIL_WRITE_METHODS = {
    "clear",
    "clear_stencil",
    "clear_depth",
    "render_quad",
}

#: Device methods that mutate pipeline state or issue work; reading
#: ``.device.stats`` / ``.device.tracer`` from reporting layers is fine.
_MUTATING_DEVICE_METHODS = {
    "render_quad",
    "render_textured_quad",
    "clear",
    "clear_stencil",
    "clear_depth",
    "begin_query",
    "end_query",
    "abort_query",
    "read_stencil",
    "upload_texels",
    "copy_color_to_texture",
    "bind_texture",
}

#: Attribute names that mark a chain as shared concurrency-sensitive
#: state (the objects the dynamic sanitizer tracks): mutating one of
#: these from a pool thread without a lock is the L208 shape.
_SHARED_STATE_ATTRS = {
    "tracer", "stats", "events", "spans", "counters",
    "device", "engine", "_degraded",
}

#: Container methods that mutate their receiver in place.
_MUTATING_CONTAINER_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
}

#: Names that identify a lock held by a ``with`` block (substring
#: match on the last attribute / name of the context expression).
_LOCK_NAME_HINTS = ("lock", "mutex", "cond", "_mu")

#: Names under which the shard table travels (indexing it from a pool
#: worker is the L209 shape).
_SHARD_TABLE_NAMES = {"shards", "_shards"}

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)"
)


def _suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule names disabled on that line.

    A marker on a comment-only line suppresses the *next* line, so the
    justification can sit above the code it excuses.
    """
    table: dict[int, set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        names = {
            name.strip()
            for name in match.group(1).split(",")
            if name.strip()
        }
        target = number
        if line.lstrip().startswith("#"):
            target = number + 1
        table.setdefault(target, set()).update(names)
    return table


def _repro_layer(path: str) -> str | None:
    """The component directly under the ``repro`` package this file
    belongs to (``"sql"``, ``"olap.py"``, ...), or ``None`` when the
    file is not inside the package."""
    parts = pathlib.PurePath(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro" and index + 1 < len(parts):
            return parts[index + 1]
    return None


def _device_receiver(target: ast.expr) -> bool:
    """True when ``target`` looks like a device handle (``device`` or
    ``<expr>.device``)."""
    return (
        isinstance(target, ast.Attribute) and target.attr == "device"
    ) or (
        isinstance(target, ast.Name) and target.id == "device"
    )


def _chain_parts(expr: ast.expr) -> tuple[str | None, list[str]]:
    """Decompose an attribute chain into ``(root name, attribute
    names)``; the root is ``None`` when the chain is anchored on a
    call, subscript, or other non-name expression."""
    attrs: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    attrs.reverse()
    if isinstance(node, ast.Name):
        return node.id, attrs
    return None, attrs


def _is_lock_context(expr: ast.expr) -> bool:
    """True when a ``with`` context expression names a lock: its
    terminal name contains ``lock`` / ``mutex`` / ``cond`` / ``_mu``
    (``self._lock``, ``tracker.mutex``, ``cond`` ...), possibly behind
    a call like ``lock.acquire_timeout(...)``."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        terminal = expr.attr
    elif isinstance(expr, ast.Name):
        terminal = expr.id
    else:
        return False
    lowered = terminal.lower()
    return any(hint in lowered for hint in _LOCK_NAME_HINTS)


def _callable_locals(fn: ast.AST) -> set[str]:
    """Parameter and locally-bound names of a function or lambda —
    everything *not* in this set that the body touches is captured
    from the enclosing (submitting) scope."""
    names: set[str] = set()
    args = fn.args
    for arg in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
    ):
        names.add(arg.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                names.add(node.name)
    return names


class _Visitor(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        engine_only: bool,
        scheduler_guard: bool = False,
        interpreter_guard: bool = False,
        local_defs: dict[str, ast.AST] | None = None,
    ):
        self.path = path
        self.engine_only = engine_only
        #: True when this layer may not write stencil/depth state (L206).
        self.scheduler_guard = scheduler_guard
        #: True when this layer may not construct the fragment-program
        #: interpreter directly (L207).
        self.interpreter_guard = interpreter_guard
        #: Function definitions in this module by name, for resolving
        #: ``pool.submit(worker)`` to the callable's body (L208/L209).
        self.local_defs = local_defs if local_defs is not None else {}
        self.findings: list[LintFinding] = []
        #: Stack of per-function [saw_read_stencil_node, saw_generation]
        self._functions: list[list] = []

    def _flag(
        self, node: ast.AST, rule: LintRule, message: str
    ) -> None:
        self.findings.append(LintFinding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        ))

    # -- L202: per-function stencil read bookkeeping -------------------

    def _visit_function(self, node) -> None:
        self._functions.append([None, False])
        self.generic_visit(node)
        read_node, checked = self._functions.pop()
        if read_node is not None and not checked:
            self._flag(
                read_node,
                UNCHECKED_STENCIL_READ,
                f"{node.name}() calls read_stencil() without checking "
                "stencil_generation for staleness",
            )

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "stencil_generation" and self._functions:
            self._functions[-1][1] = True
        self.generic_visit(node)

    # -- calls: L201 instantiation/mutation, L202 reads, L205 kwargs ---

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "read_stencil" and self._functions:
                if self._functions[-1][0] is None:
                    self._functions[-1][0] = node
            if self.engine_only:
                self._check_raw_device_call(node, func)
            if (
                self.scheduler_guard
                and func.attr in _STENCIL_WRITE_METHODS
                and _device_receiver(func.value)
            ):
                self._flag(
                    node,
                    UNSCHEDULED_STENCIL_WRITE,
                    f"direct stencil/depth write .{func.attr}() outside "
                    "repro.gpu / repro.core bypasses the context "
                    "scheduler; route through a GpuEngine",
                )
        if (
            self.engine_only
            and isinstance(func, ast.Name)
            and func.id == "Device"
        ):
            self._flag(
                node,
                RAW_DEVICE,
                "Device() constructed outside the engine layer; route "
                "through GpuEngine so ResilientExecutor applies",
            )
        if self.interpreter_guard and (
            (
                isinstance(func, ast.Name)
                and func.id == "ProgramInterpreter"
            )
            or (
                isinstance(func, ast.Attribute)
                and func.attr == "ProgramInterpreter"
            )
        ):
            self._flag(
                node,
                DIRECT_INTERPRETER,
                "ProgramInterpreter() constructed outside repro.gpu; "
                "run programs through the device so the JIT / "
                "interpreter backend selection applies",
            )
        for keyword in node.keywords:
            if keyword.arg == "device" and isinstance(
                keyword.value, ast.Constant
            ) and isinstance(keyword.value.value, str):
                self._flag(
                    keyword.value,
                    STRING_DEVICE,
                    f"device={keyword.value.value!r}; pass "
                    "Device.GPU / Device.CPU / Device.AUTO instead",
                )
        self._check_pool_submit(node)
        self.generic_visit(node)

    # -- L208/L209: callables handed to a thread pool ------------------

    def _check_pool_submit(self, node: ast.Call) -> None:
        """On ``<pool>.submit(fn, ...)``, scan ``fn``'s body for
        unlocked mutation of captured shared state (L208) and
        off-shard access (L209)."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "submit"):
            return
        receiver = func.value
        terminal = (
            receiver.attr if isinstance(receiver, ast.Attribute)
            else receiver.id if isinstance(receiver, ast.Name)
            else ""
        ).lower()
        if "pool" not in terminal and "executor" not in terminal:
            return
        if not node.args:
            return
        target = node.args[0]
        fn: ast.AST | None = None
        bound = False
        if isinstance(target, ast.Lambda):
            fn = target
        elif isinstance(target, ast.Name):
            fn = self.local_defs.get(target.id)
        elif isinstance(target, ast.Attribute):
            # submit(self._worker, ...): a bound method whose receiver
            # is the shared instance, not a per-task argument.
            fn = self.local_defs.get(target.attr)
            bound = True
        if fn is None:
            return
        label = getattr(fn, "name", "<lambda>")
        local = _callable_locals(fn)
        if bound and fn.args.args:
            local.discard(fn.args.args[0].arg)
        if isinstance(fn, ast.Lambda):
            self._check_pool_expr(fn.body, label, local, locked=False)
        else:
            self._walk_pool_body(fn.body, label, local, locked=False)

    def _walk_pool_body(
        self, stmts, label: str, local: set[str], locked: bool
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                held = locked or any(
                    _is_lock_context(item.context_expr)
                    for item in stmt.items
                )
                self._walk_pool_body(stmt.body, label, local, held)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._check_pool_stmt(stmt, label, local, locked)
            for field, value in ast.iter_fields(stmt):
                if not (isinstance(value, list) and value):
                    continue
                if isinstance(value[0], ast.stmt):
                    self._walk_pool_body(value, label, local, locked)
                elif isinstance(value[0], ast.ExceptHandler):
                    for handler in value:
                        self._walk_pool_body(
                            handler.body, label, local, locked
                        )

    def _check_pool_stmt(
        self, stmt, label: str, local: set[str], locked: bool
    ) -> None:
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    self._check_pool_store(target, label, local, locked)
        # Direct child expressions only — nested statement blocks are
        # walked by _walk_pool_body, so headers (If.test, For.iter)
        # get checked here without double-visiting bodies.
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                self._check_pool_expr(value, label, local, locked)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        self._check_pool_expr(item, label, local, locked)

    def _check_pool_expr(
        self, expr: ast.expr, label: str, local: set[str], locked: bool
    ) -> None:
        for node in ast.walk(expr):
            if (
                not locked
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_CONTAINER_METHODS
            ):
                root, attrs = _chain_parts(node.func.value)
                if self._captured_shared(root, attrs, local):
                    self._flag(
                        node,
                        UNLOCKED_POOL_CAPTURE,
                        f"{label}() runs on a pool thread and calls "
                        f".{node.func.attr}() on captured shared state "
                        "without holding a lock",
                    )
            if isinstance(node, ast.expr):
                self._check_off_shard(node, label, local)

    def _check_pool_store(
        self, target: ast.Attribute, label: str, local: set[str],
        locked: bool,
    ) -> None:
        if locked:
            return
        root, attrs = _chain_parts(target)
        if self._captured_shared(root, attrs, local):
            self._flag(
                target,
                UNLOCKED_POOL_CAPTURE,
                f"{label}() runs on a pool thread and writes "
                f"{'.'.join([root, *attrs])} — captured shared state — "
                "without holding a lock",
            )

    @staticmethod
    def _captured_shared(
        root: str | None, attrs: list[str], local: set[str]
    ) -> bool:
        """A chain is a shared-state hazard when it is rooted at a
        *captured* name (not a parameter or local of the submitted
        callable) and mentions a concurrency-sensitive attribute."""
        if root is None or root in local:
            return False
        sensitive = root in _SHARED_STATE_ATTRS or bool(
            set(attrs) & _SHARED_STATE_ATTRS
        )
        return sensitive

    def _check_off_shard(
        self, node: ast.expr, label: str, local: set[str]
    ) -> None:
        if isinstance(node, ast.Subscript):
            value = node.value
            terminal = (
                value.attr if isinstance(value, ast.Attribute)
                else value.id if isinstance(value, ast.Name)
                else ""
            )
            if terminal in _SHARD_TABLE_NAMES:
                self._flag(
                    node,
                    OFF_SHARD_ENGINE,
                    f"{label}() indexes the shard table from a pool "
                    "thread; a worker must only touch the shard it "
                    "was given",
                )
        elif isinstance(node, ast.Attribute) and node.attr == "parent":
            self._flag(
                node,
                OFF_SHARD_ENGINE,
                f"{label}() reaches the parent engine via .parent "
                "from a pool thread; per-shard work must stay on "
                "its own shard's state",
            )

    def _check_raw_device_call(
        self, node: ast.Call, func: ast.Attribute
    ) -> None:
        if func.attr not in _MUTATING_DEVICE_METHODS:
            return
        if _device_receiver(func.value):
            self._flag(
                node,
                RAW_DEVICE,
                f"raw device call .{func.attr}() outside the engine "
                "layer bypasses ResilientExecutor retry/fallback",
            )

    # -- L206: generation counters belong to the scheduler -------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.scheduler_guard:
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in (
                        "stencil_generation", "depth_generation"
                    )
                    and _device_receiver(target.value)
                ):
                    self._flag(
                        node,
                        UNSCHEDULED_STENCIL_WRITE,
                        f"assignment to device.{target.attr} outside "
                        "repro.gpu / repro.core; only the context "
                        "scheduler may set generation counters",
                    )
        self.generic_visit(node)

    # -- L203: blanket exception handlers ------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                node,
                BARE_EXCEPT,
                "bare except swallows GpuError (and KeyboardInterrupt)",
            )
        elif (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
            and not any(
                isinstance(child, ast.Raise)
                for child in ast.walk(node)
            )
        ):
            self._flag(
                node,
                BARE_EXCEPT,
                f"except {node.type.id} without re-raise swallows "
                "GpuError, hiding injected faults",
            )
        self.generic_visit(node)

    # -- L204: float equality ------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op in node.ops:
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, float)
                for operand in operands
            ):
                self._flag(
                    node,
                    FLOAT_EQ,
                    "float equality on encoded values; compare the "
                    "integer encoding or use a tolerance",
                )
                break
        self.generic_visit(node)


def lint_source(
    source: str, path: str = "<string>"
) -> list[LintFinding]:
    """Lint one module's source text."""
    layer = _repro_layer(path)
    tree = ast.parse(source, filename=path)
    local_defs: dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # First definition wins on name collisions; good enough
            # for resolving pool.submit(worker) to its body.
            local_defs.setdefault(node.name, node)
    visitor = _Visitor(
        path,
        engine_only=layer in _ENGINE_ONLY_LAYERS,
        scheduler_guard=(
            layer is not None and layer not in _SCHEDULER_LAYERS
        ),
        interpreter_guard=layer is not None and layer != "gpu",
        local_defs=local_defs,
    )
    visitor.visit(tree)
    disabled = _suppressions(source)
    return sorted(
        (
            finding
            for finding in visitor.findings
            if finding.rule.name not in disabled.get(finding.line, ())
        ),
        key=lambda finding: (finding.line, finding.col),
    )


def lint_paths(paths: list[str]) -> list[LintFinding]:
    """Lint every ``*.py`` file under ``paths`` (files or directories)."""
    files: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[LintFinding] = []
    for file in files:
        findings.extend(
            lint_source(file.read_text(), path=str(file))
        )
    return findings
