"""Whole-program extraction: legacy Python source → program model.

The paper's §4 ("Supporting legacy software") claims a static analysis
*"can infer dependencies and cuts a program into segments"*, with
developers providing *"hints on where application semantics transition"*.
This module is the inference half: it parses one legacy Python file —
**AST only, never imported or executed** — and recovers

* **stores** — module-level mutable globals (dict/list/set literals or
  constructor calls), the program's standing data;
* **functions** — per-function summaries: params, direct calls, which
  stores they read and mutate, loop depth, and the ``udc:`` directive
  hints carried in their docstrings;
* **roles** — *drivers* (uncalled orchestration functions, plus the
  module top level when it calls into the program), *tasks* (functions a
  driver calls), and *helpers* (functions only tasks call, inlined into
  their callers);
* **flows** — the data-flow graph: task→task edges from def-use chains
  inside driver bodies, store→task read edges, task→store write edges,
  each sized in bytes.

The developer-hint channel is deliberately AST-visible: a directive line
``udc: key=value ... flag`` inside a function docstring, or the same
string as a module-level variable *annotation*::

    patient_records: "udc: sensitivity=phi size_gb=50 record_bytes=64kb" = {}

    def detect_objects(image):
        \"\"\"CNN inference over the preprocessed image.

        udc: work=40 devices=gpu output_bytes=64kb state_bytes=32mb
        \"\"\"

Anything outside the supported subset raises
:class:`ProgramAnalysisError` naming the construct and line, so the
``udc modularize`` CLI can fail with an actionable message instead of
emitting a wrong definition.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Binding",
    "FlowEdge",
    "FunctionSummary",
    "ProgramAnalysisError",
    "ProgramModel",
    "StoreSummary",
    "extract_program",
    "parse_directives",
]

#: labels accepted by the ``sensitivity=`` / ``source=`` directives
SENSITIVITY_LABELS = ("public", "anonymized", "phi")

#: store methods that only observe state
_READ_METHODS = frozenset({"get", "items", "keys", "values", "count", "index", "copy"})
#: store methods that mutate state
_WRITE_METHODS = frozenset({
    "append", "add", "update", "setdefault", "pop", "popitem", "extend",
    "insert", "remove", "discard", "clear", "appendleft",
})
#: constructor calls whose module-level result is a store
_STORE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter",
})

_BYTE_SUFFIXES = {"kb": 1 << 10, "mb": 1 << 20, "gb": 1 << 30}


class ProgramAnalysisError(Exception):
    """The source uses a construct outside the supported subset (or a
    malformed ``udc:`` directive); the message names file line numbers."""


def _parse_bytes(raw: str, context: str) -> int:
    token = raw.strip().lower()
    for suffix, scale in _BYTE_SUFFIXES.items():
        if token.endswith(suffix):
            try:
                return int(float(token[: -len(suffix)]) * scale)
            except ValueError:
                break
    try:
        return int(token)
    except ValueError:
        raise ProgramAnalysisError(
            f"{context}: cannot parse byte size {raw!r} "
            f"(want an int, optionally suffixed kb/mb/gb)"
        ) from None


def parse_directives(text: Optional[str], context: str) -> Dict[str, object]:
    """Parse every ``udc:`` directive line out of a docstring/annotation.

    Returns a flat dict of directive keys.  Repeatable keys (``read=``,
    ``write=``) accumulate into a dict.  Unknown keys are an error — a
    typo in a hint must not silently become a default.
    """
    out: Dict[str, object] = {}
    if not text:
        return out
    for line in text.splitlines():
        line = line.strip()
        if not line.lower().startswith("udc:"):
            continue
        for token in line[len("udc:"):].split():
            key, sep, value = token.partition("=")
            key = key.lower()
            if not sep:
                if key in ("sanitizer", "hot"):
                    out[key] = True
                    continue
                raise ProgramAnalysisError(
                    f"{context}: unknown directive flag {key!r}")
            if key == "work":
                out[key] = float(value)
            elif key == "devices":
                out[key] = tuple(d.strip().lower() for d in value.split(",")
                                 if d.strip())
            elif key in ("output_bytes", "state_bytes", "record_bytes"):
                out[key] = _parse_bytes(value, context)
            elif key in ("max_parallelism", "size_gb"):
                out[key] = float(value)
            elif key in ("sensitivity", "source"):
                label = value.strip().lower()
                if label not in SENSITIVITY_LABELS:
                    raise ProgramAnalysisError(
                        f"{context}: {key}= must be one of "
                        f"{'/'.join(SENSITIVITY_LABELS)}, got {value!r}")
                out[key] = label
            elif key in ("read", "write"):
                store, colon, nbytes = value.partition(":")
                if not colon:
                    raise ProgramAnalysisError(
                        f"{context}: {key}= wants <store>:<bytes>, "
                        f"got {value!r}")
                table = out.setdefault(key, {})
                assert isinstance(table, dict)
                table[store] = _parse_bytes(nbytes, context)
            else:
                raise ProgramAnalysisError(
                    f"{context}: unknown directive key {key!r}")
    return out


@dataclass(frozen=True)
class StoreSummary:
    """One module-level mutable global — standing data of the program."""

    name: str
    lineno: int
    size_gb: float = 1.0
    record_bytes: int = 4096
    hot: bool = False
    #: declared label (directive); None means unlabeled (public) until
    #: the taint pass possibly raises it from inflows
    sensitivity: Optional[str] = None


@dataclass(frozen=True)
class Binding:
    """Where one argument of a task invocation comes from.

    ``kind`` is ``"task"`` (output of another task), ``"input"`` (a
    driver parameter — the run's external input), ``"store"`` (a global
    passed by reference), or ``"const"`` (a literal).
    """

    param: str
    kind: str
    ref: object = None


@dataclass
class FunctionSummary:
    """Everything extraction knows about one function."""

    name: str
    lineno: int
    params: Tuple[str, ...] = ()
    calls: Tuple[str, ...] = ()          # direct callees, in call order
    reads: Tuple[str, ...] = ()          # store names (sorted)
    writes: Tuple[str, ...] = ()         # store names (sorted)
    loop_depth: int = 0
    returns_value: bool = False
    # -- directive-carried hints (with defaults) --------------------------
    work: float = 0.0                    # 0 = derive from loop depth
    devices: Tuple[str, ...] = ("cpu",)
    output_bytes: int = 1024
    state_bytes: int = 1024
    max_parallelism: Optional[float] = None
    sanitizer: bool = False
    source_label: Optional[str] = None   # produces labeled data ex nihilo
    read_bytes: Dict[str, int] = field(default_factory=dict)
    write_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def effective_work(self) -> float:
        """Directive work, else a loop-nesting estimate (4x per level)."""
        if self.work > 0:
            return self.work
        return float(min(4 ** self.loop_depth, 64))


@dataclass(frozen=True)
class FlowEdge:
    """One data-flow edge, in bytes per run.

    ``kind`` is ``"flow"`` (task→task), ``"read"`` (store→task), or
    ``"write"`` (task→store).
    """

    src: str
    dst: str
    bytes: int
    kind: str


@dataclass
class ProgramModel:
    """The extracted whole-program view the later passes consume."""

    name: str
    stores: Dict[str, StoreSummary] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    drivers: Tuple[str, ...] = ()
    tasks: Tuple[str, ...] = ()          # driver-called units, post-inlining
    helpers: Tuple[str, ...] = ()        # inlined into their callers
    dead: Tuple[str, ...] = ()           # never reached from a driver
    flows: Tuple[FlowEdge, ...] = ()
    #: task -> argument bindings, for re-wiring execution after the cut
    bindings: Dict[str, Tuple[Binding, ...]] = field(default_factory=dict)
    #: driver parameter names == the program's external input interface
    input_params: Tuple[str, ...] = ()


# --------------------------------------------------------------- function AST


class _FunctionVisitor(ast.NodeVisitor):
    """Collect calls, store accesses, and loop depth from one body."""

    def __init__(self, store_names, function_names):
        self._stores = store_names
        self._functions = function_names
        self.calls: List[str] = []
        self.reads: set = set()
        self.writes: set = set()
        self.loop_depth = 0
        self.returns_value = False
        self._depth = 0

    # -- loops ------------------------------------------------------------
    def _loop(self, node):
        self._depth += 1
        self.loop_depth = max(self.loop_depth, self._depth)
        self.generic_visit(node)
        self._depth -= 1

    visit_For = _loop
    visit_While = _loop

    def visit_Return(self, node: ast.Return):
        if node.value is not None:
            self.returns_value = True
        self.generic_visit(node)

    # -- store accesses ----------------------------------------------------
    def visit_Name(self, node: ast.Name):
        if node.id in self._stores:
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self.writes.add(node.id)
            else:
                self.reads.add(node.id)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript):
        target = node.value
        if isinstance(target, ast.Name) and target.id in self._stores:
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self.writes.add(target.id)
            else:
                self.reads.add(target.id)
            self.visit(node.slice)
            return
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign):
        target = node.target
        if isinstance(target, ast.Name) and target.id in self._stores:
            self.writes.add(target.id)
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------
    def visit_Call(self, node: ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in self._functions:
            self.calls.append(func.id)
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in self._stores:
            if func.attr in _WRITE_METHODS:
                self.writes.add(func.value.id)
            else:
                self.reads.add(func.value.id)
            # The receiver Name is classified above; visiting it again
            # would re-count every mutating call as a read too.
            for arg in node.args:
                self.visit(arg)
            for keyword in node.keywords:
                self.visit(keyword.value)
            return
        self.generic_visit(node)


def _summarize_function(node, store_names, function_names) -> FunctionSummary:
    params = tuple(a.arg for a in node.args.args)
    directives = parse_directives(
        ast.get_docstring(node), f"{node.name}() line {node.lineno}")
    visitor = _FunctionVisitor(store_names, function_names)
    for stmt in node.body:
        visitor.visit(stmt)
    sanitizer = bool(directives.get("sanitizer", False))
    for deco in node.decorator_list:
        tail = deco
        while isinstance(tail, ast.Attribute):
            tail = tail.attr if isinstance(tail.attr, str) else tail.value
        deco_name = tail if isinstance(tail, str) else (
            tail.id if isinstance(tail, ast.Name) else "")
        if deco_name.endswith("sanitizer"):
            sanitizer = True
    read_over = dict(directives.get("read", {}))
    write_over = dict(directives.get("write", {}))
    return FunctionSummary(
        name=node.name,
        lineno=node.lineno,
        params=params,
        calls=tuple(visitor.calls),
        reads=tuple(sorted(visitor.reads | set(read_over))),
        writes=tuple(sorted(visitor.writes | set(write_over))),
        loop_depth=visitor.loop_depth,
        returns_value=visitor.returns_value,
        work=float(directives.get("work", 0.0)),
        devices=tuple(directives.get("devices", ("cpu",))),
        output_bytes=int(directives.get("output_bytes", 1024)),
        state_bytes=int(directives.get("state_bytes", 1024)),
        max_parallelism=directives.get("max_parallelism"),
        sanitizer=sanitizer,
        source_label=directives.get("source"),
        read_bytes=read_over,
        write_bytes=write_over,
    )


# ----------------------------------------------------------------- driver AST


class _DriverWalk:
    """Def-use over one driver body: which call result feeds which call.

    The supported driver subset is deliberately small — straight-line
    orchestration: ``x = task(...)``, bare ``task(...)`` statements,
    ``return``/``pass``, and nothing else.  Conditionals and loops in a
    driver would make the task graph input-dependent, which a static
    definition cannot express.
    """

    def __init__(self, model_functions, store_names, driver_name,
                 driver_params):
        self._functions = model_functions
        self._stores = store_names
        self._name = driver_name
        #: var name -> Binding-shaped (kind, ref)
        self._env: Dict[str, Tuple[str, object]] = {
            p: ("input", p) for p in driver_params
        }
        self.invocations: List[Tuple[str, Tuple[Binding, ...]]] = []

    def _err(self, node, what: str):
        raise ProgramAnalysisError(
            f"driver {self._name}() line {node.lineno}: {what}")

    def _resolve(self, expr, node) -> Tuple[str, object]:
        if isinstance(expr, ast.Name):
            if expr.id in self._stores:
                return ("store", expr.id)
            if expr.id in self._env:
                binding = self._env[expr.id]
                if binding is None:
                    self._err(node, f"argument {expr.id!r} has an "
                                    f"unanalyzable value")
                return binding
            self._err(node, f"argument {expr.id!r} is not a parameter, "
                            f"store, or earlier task result")
        if isinstance(expr, ast.Constant):
            return ("const", expr.value)
        if isinstance(expr, ast.Call):
            callee = self._register_call(expr)
            return ("task", callee)
        self._err(node, f"unsupported argument expression "
                        f"{ast.dump(expr)[:60]}")
        raise AssertionError  # unreachable; _err always raises

    def _register_call(self, call: ast.Call) -> str:
        func = call.func
        if not isinstance(func, ast.Name) or func.id not in self._functions:
            self._err(call, "drivers may only call module-level functions "
                            "defined in this file")
        callee = func.id
        summary = self._functions[callee]
        bindings: List[Binding] = []
        if len(call.args) > len(summary.params):
            self._err(call, f"{callee}() takes {len(summary.params)} "
                            f"parameter(s), got {len(call.args)} positional")
        for index, arg in enumerate(call.args):
            kind, ref = self._resolve(arg, call)
            bindings.append(Binding(summary.params[index], kind, ref))
        for kw in call.keywords:
            if kw.arg is None or kw.arg not in summary.params:
                self._err(call, f"{callee}() has no parameter {kw.arg!r}")
            kind, ref = self._resolve(kw.value, call)
            bindings.append(Binding(kw.arg, kind, ref))
        self.invocations.append((callee, tuple(bindings)))
        return callee

    def walk(self, body) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                if len(stmt.targets) != 1 \
                        or not isinstance(stmt.targets[0], ast.Name):
                    self._err(stmt, "only single-name assignment targets "
                                    "are supported in drivers")
                target = stmt.targets[0].id
                value = stmt.value
                if isinstance(value, ast.Call):
                    func = value.func
                    if isinstance(func, ast.Name) \
                            and func.id in self._functions:
                        callee = self._register_call(value)
                        self._env[target] = ("task", callee)
                    else:
                        self._env[target] = None  # opaque (e.g. len(...))
                elif isinstance(value, (ast.Constant, ast.Name)):
                    try:
                        self._env[target] = self._resolve(value, stmt)
                    except ProgramAnalysisError:
                        self._env[target] = None
                else:
                    self._env[target] = None
            elif isinstance(stmt, ast.Expr):
                if isinstance(stmt.value, ast.Call):
                    func = stmt.value.func
                    if isinstance(func, ast.Name) \
                            and func.id in self._functions:
                        self._register_call(stmt.value)
                    # foreign calls (print, logging) are orchestration
                    # noise, not data flow — ignored.
                elif isinstance(stmt.value, ast.Constant):
                    pass  # docstring
                else:
                    self._err(stmt, "unsupported expression statement")
            elif isinstance(stmt, (ast.Return, ast.Pass)):
                continue
            else:
                self._err(stmt, f"unsupported statement "
                                f"{type(stmt).__name__} in a driver body "
                                f"(drivers must be straight-line "
                                f"orchestration)")


# ------------------------------------------------------------- store scanning


def _scan_stores(tree: ast.Module) -> Dict[str, StoreSummary]:
    stores: Dict[str, StoreSummary] = {}

    def is_store_value(value) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else "")
            return name in _STORE_CONSTRUCTORS
        return False

    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = node.annotation
            text = annotation.value \
                if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str) else ""
            directives = parse_directives(
                text, f"store {node.target.id} line {node.lineno}")
            if directives or (node.value is not None
                              and is_store_value(node.value)):
                stores[node.target.id] = StoreSummary(
                    name=node.target.id,
                    lineno=node.lineno,
                    size_gb=float(directives.get("size_gb", 1.0)),
                    record_bytes=int(directives.get("record_bytes", 4096)),
                    hot=bool(directives.get("hot", False)),
                    sensitivity=directives.get("sensitivity"),
                )
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and is_store_value(node.value):
            name = node.targets[0].id
            stores[name] = StoreSummary(name=name, lineno=node.lineno)
    return stores


# ---------------------------------------------------------------- whole file


def extract_program(source: str, name: str = "legacy-app") -> ProgramModel:
    """Parse one legacy file into a :class:`ProgramModel`.

    Raises :class:`ProgramAnalysisError` on out-of-subset constructs,
    with the offending function and line in the message.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise ProgramAnalysisError(
            f"{name}: not valid Python — {exc.msg} (line {exc.lineno})"
        ) from None

    stores = _scan_stores(tree)
    fn_nodes = {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef)}
    functions = {
        fname: _summarize_function(node, set(stores), set(fn_nodes))
        for fname, node in fn_nodes.items()
    }
    for fname, summary in functions.items():
        unknown = (set(summary.read_bytes) | set(summary.write_bytes)) \
            - set(stores)
        if unknown:
            raise ProgramAnalysisError(
                f"{fname}() read=/write= directives name unknown "
                f"store(s) {sorted(unknown)}")

    # -- roles ------------------------------------------------------------
    callers: Dict[str, set] = {fname: set() for fname in functions}
    for fname, summary in functions.items():
        for callee in summary.calls:
            callers[callee].add(fname)

    drivers = [fname for fname, node in fn_nodes.items()
               if not callers[fname] and functions[fname].calls]
    driver_set = set(drivers)

    # The module top level can be a driver too (scripts without main()).
    toplevel_stmts = [
        node for node in tree.body
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Import, ast.ImportFrom,
                                 ast.Assign, ast.AnnAssign))
    ]
    has_toplevel_calls = any(
        isinstance(n, (ast.Expr, ast.If)) for n in toplevel_stmts
    )

    tasks = sorted({callee for d in drivers
                    for callee in functions[d].calls})
    for task in tasks:
        extra = callers[task] - driver_set
        if extra:
            raise ProgramAnalysisError(
                f"{task}() is called both by driver(s) and by "
                f"{sorted(extra)} — a driver-called function may not "
                f"also be a helper")

    if not drivers:
        detail = ("the module top level calls functions, which is not yet "
                  "supported; wrap the orchestration in a main()"
                  if has_toplevel_calls else
                  "no function orchestrates the others")
        raise ProgramAnalysisError(
            f"{name}: no driver found ({detail})")

    # -- helper inlining ---------------------------------------------------
    task_set = set(tasks)

    def close_helpers(task: str) -> set:
        seen: set = set()
        frontier = [c for c in functions[task].calls]
        while frontier:
            helper = frontier.pop()
            if helper in seen or helper in driver_set:
                continue
            if helper in task_set and helper != task:
                raise ProgramAnalysisError(
                    f"{task}() calls {helper}(), which a driver also "
                    f"calls — task-to-task calls must go through the "
                    f"driver")
            seen.add(helper)
            frontier.extend(functions[helper].calls)
        return seen

    helper_names: set = set()
    inlined: Dict[str, FunctionSummary] = {}
    for task in tasks:
        closure = close_helpers(task)
        helper_names |= closure
        summary = functions[task]
        if not closure:
            inlined[task] = summary
            continue
        reads = set(summary.reads)
        writes = set(summary.writes)
        work = summary.effective_work
        sanitizer = summary.sanitizer
        source = summary.source_label
        read_bytes = dict(summary.read_bytes)
        write_bytes = dict(summary.write_bytes)
        for helper in sorted(closure):
            h = functions[helper]
            reads |= set(h.reads)
            writes |= set(h.writes)
            work += h.effective_work
            sanitizer = sanitizer or h.sanitizer
            if h.source_label is not None:
                source = _max_label(source, h.source_label)
            for store, nbytes in h.read_bytes.items():
                read_bytes[store] = max(read_bytes.get(store, 0), nbytes)
            for store, nbytes in h.write_bytes.items():
                write_bytes[store] = max(write_bytes.get(store, 0), nbytes)
        inlined[task] = FunctionSummary(
            name=task, lineno=summary.lineno, params=summary.params,
            calls=summary.calls, reads=tuple(sorted(reads)),
            writes=tuple(sorted(writes)), loop_depth=summary.loop_depth,
            returns_value=summary.returns_value, work=work,
            devices=summary.devices, output_bytes=summary.output_bytes,
            state_bytes=summary.state_bytes,
            max_parallelism=summary.max_parallelism, sanitizer=sanitizer,
            source_label=source, read_bytes=read_bytes,
            write_bytes=write_bytes,
        )

    dead = sorted(set(functions) - task_set - driver_set - helper_names)

    # -- driver def-use → invocations -------------------------------------
    input_params: List[str] = []
    invocations: Dict[str, Tuple[Binding, ...]] = {}
    for driver in sorted(drivers, key=lambda d: fn_nodes[d].lineno):
        dsum = functions[driver]
        for param in dsum.params:
            if param not in input_params:
                input_params.append(param)
        walk = _DriverWalk(functions, set(stores), driver, dsum.params)
        walk.walk(fn_nodes[driver].body)
        for callee, bindings in walk.invocations:
            if callee in invocations:
                raise ProgramAnalysisError(
                    f"{callee}() is invoked more than once across the "
                    f"driver(s) — each task must run exactly once per "
                    f"submission")
            invocations[callee] = bindings

    # -- flows -------------------------------------------------------------
    flows: List[FlowEdge] = []
    for task in tasks:
        summary = inlined[task]
        for binding in invocations.get(task, ()):
            if binding.kind == "task":
                producer = inlined[str(binding.ref)]
                flows.append(FlowEdge(str(binding.ref), task,
                                      producer.output_bytes, "flow"))
        for store in summary.reads:
            nbytes = summary.read_bytes.get(
                store, stores[store].record_bytes)
            flows.append(FlowEdge(store, task, nbytes, "read"))
        for store in summary.writes:
            nbytes = summary.write_bytes.get(store, summary.output_bytes)
            flows.append(FlowEdge(task, store, nbytes, "write"))

    deduped: Dict[Tuple[str, str, str], int] = {}
    for edge in flows:
        key = (edge.src, edge.dst, edge.kind)
        deduped[key] = max(deduped.get(key, 0), edge.bytes)
    flow_tuple = tuple(
        FlowEdge(src, dst, deduped[(src, dst, kind)], kind)
        for (src, dst, kind) in sorted(deduped)
    )

    touched = {e.src for e in flow_tuple} | {e.dst for e in flow_tuple}
    for task in tasks:
        if task not in touched:
            raise ProgramAnalysisError(
                f"{task}() neither accesses a store nor exchanges data "
                f"with another task — it is detached from the data flow "
                f"(a definition for it would only warn)")
    # Untouched stores are standing data no task uses; emitting them
    # would only draw the analyzer's UDC032 warning.  Drop them.
    stores = {name: store for name, store in stores.items()
              if name in touched}

    model = ProgramModel(
        name=name,
        stores=stores,
        functions={**functions, **inlined},
        drivers=tuple(sorted(drivers)),
        tasks=tuple(tasks),
        helpers=tuple(sorted(helper_names)),
        dead=tuple(dead),
        flows=flow_tuple,
        bindings=invocations,
        input_params=tuple(input_params),
    )
    _check_task_dag(model)
    return model


_LABEL_RANK = {None: -1, "public": 0, "anonymized": 1, "phi": 2}


def _max_label(a: Optional[str], b: Optional[str]) -> Optional[str]:
    return a if _LABEL_RANK[a] >= _LABEL_RANK[b] else b


def _check_task_dag(model: ProgramModel) -> None:
    """Direct task→task flows must be acyclic (driver order makes this
    nearly automatic, but keyword-arg self-feeding would slip through)."""
    adjacency: Dict[str, List[str]] = {t: [] for t in model.tasks}
    for edge in model.flows:
        if edge.kind == "flow":
            adjacency[edge.src].append(edge.dst)
    state: Dict[str, int] = {}

    def visit(node: str):
        state[node] = 1
        for nxt in adjacency[node]:
            if state.get(nxt) == 1:
                raise ProgramAnalysisError(
                    f"task flow cycle through {nxt}()")
            if state.get(nxt) is None:
                visit(nxt)
        state[node] = 2

    for task in model.tasks:
        if state.get(task) is None:
            visit(task)
