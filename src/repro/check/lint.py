"""Layer 3: repo-specific AST lint (``repro.check.lint``).

General-purpose linters cannot know which of this repo's functions must
be deterministic or which types must stay picklable; these rules can:

* ``lint/wallclock-in-hot-path`` -- no wall-clock reads inside the
  collection hot path (driver, daemon, hash tables, journal, database)
  or inside any ``*merge*`` function: sample collection and shard
  reduction must be pure functions of their inputs so runs and merges
  are reproducible;
* ``lint/unseeded-random`` -- no module-level :mod:`random` calls
  anywhere in the package (seeded ``random.Random(seed)`` instances are
  the sanctioned source of pseudo-randomness);
* ``lint/unordered-set-iteration`` -- iterating a ``set`` in a module
  that produces serialized output must go through ``sorted``: set order
  varies with hash seeding, which silently breaks byte-identical
  serialization;
* ``lint/mutable-default-arg`` -- the classic shared-mutable-default
  hazard, anywhere;
* ``lint/mutable-picklable-field`` -- picklable work-spec dataclasses
  (``ShardSpec``, ``FaultPlan``, ``FaultSpec``...) must not declare
  mutable class-level defaults: instances cross process boundaries and
  a shared default is a race waiting to happen;
* ``lint/unguarded-hook`` -- a function taking an ``obs``/``faults``/
  ``injector`` hook defaulting to ``None`` must normalize it through
  the NULL-object pattern (``obs = obs or NULL_OBS``) before
  dereferencing it;
* ``lint/unguarded-ctx-write`` -- context-table writes (an
  ``.intern(...)`` call on a receiver whose dotted name mentions
  ``ctx``) must sit lexically inside an ``if <...> is not NULL_CTX:``
  guard: the context register of a ctx-less process is the reserved
  ``<other>`` id and must never be interned as a class of its own;
* ``lint/unseeded-backoff`` -- retry/backoff logic (any function whose
  name mentions ``retry`` or ``backoff``) must be replayable: no
  direct wall-clock reads or ``time.sleep`` calls (inject the sleeper
  so tests and chaos replays can capture the schedule) and no
  zero-argument ``random.Random()`` jitter (an OS-entropy seed makes
  the backoff schedule -- and every fleet-level loss account downstream
  of it -- unreproducible);
* ``lint/swallowed-exception`` -- no silently swallowed errors: a bare
  ``except:`` is flagged outright, and an ``except <type>:`` whose
  body is nothing but ``pass``/``...`` discards a failure the caller
  will never hear about.  Handle it, log it through the obs hook, or
  suppress the specific line with an ignore comment (below).

Suppress a finding with a ``# dcpicheck: ignore`` or
``# dcpicheck: ignore[rule-name]`` comment on the offending line; the
rule name takes the bare form (``unseeded-random``) or the full id.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.findings import ERROR, Finding

#: Modules (package-relative posix paths) that form the collection /
#: merge hot path: wall-clock reads here break determinism.
HOT_PATH_MODULES: Tuple[str, ...] = (
    "collect/driver.py",
    "collect/daemon.py",
    "collect/hashtable.py",
    "collect/journal.py",
    "collect/database.py",
    "collect/prng.py",
)

#: Modules whose output is serialized: set iteration order leaks into
#: bytes on disk here.
SERIALIZING_MODULES: Tuple[str, ...] = (
    "collect/database.py",
    "collect/bundle.py",
    "collect/journal.py",
    "alpha/serialize.py",
    "obs/trace.py",
    "obs/report.py",
    "obs/schema.py",
    "tools/benchrunner.py",
    "faults/audit.py",
    "check/findings.py",
)

#: Types that cross process boundaries via pickle.
PICKLABLE_TYPES: Tuple[str, ...] = (
    "ShardSpec", "ShardResult", "FaultPlan", "FaultSpec",
)

#: Hook parameters that must be NULL-object guarded, with the accepted
#: guard names.
HOOK_PARAMS: Dict[str, Tuple[str, ...]] = {
    "obs": ("NULL_OBS", "make_obs"),
    "faults": ("NULL_INJECTOR", "make_faults"),
    "injector": ("NULL_INJECTOR", "make_faults"),
}

_WALLCLOCK_CALLS: Set[Tuple[str, str]] = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "process_time"), ("time", "process_time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}

_SEEDED_RANDOM_FACTORIES = ("Random", "SystemRandom")

_IGNORE_RE = re.compile(
    r"#\s*dcpicheck:\s*ignore(?:\[([a-z0-9/-]+)\])?")


def _suppressions(source: str) -> Dict[int, Optional[str]]:
    """Map line number -> suppressed rule (None = all rules)."""
    out: Dict[int, Optional[str]] = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        match = _IGNORE_RE.search(line)
        if match:
            rule = match.group(1)
            if rule and "/" in rule:
                rule = rule.split("/", 1)[1]
            out[lineno] = rule
    return out


def _mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray")
    return False


def _dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` rendered as a string, or None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_set_expr(node: ast.expr, set_vars: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return (_is_set_expr(node.left, set_vars)
                or _is_set_expr(node.right, set_vars))
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath
        self.findings: List[Finding] = []
        self.suppressions = _suppressions(source)
        self.hot_module = relpath in HOT_PATH_MODULES
        self.serializing = relpath in SERIALIZING_MODULES
        self._func_stack: List[str] = []
        self._class_stack: List[ast.ClassDef] = []
        self._set_vars: List[Set[str]] = [set()]
        #: lexical depth of enclosing ``is not NULL_CTX`` guards.
        self._ctx_guard = 0

    # -- helpers ----------------------------------------------------------

    def _report(self, rule: str, lineno: int, message: str,
                detail: str = "") -> None:
        suppressed = self.suppressions.get(lineno)
        bare = rule.split("/", 1)[1]
        if lineno in self.suppressions and suppressed in (None, bare,
                                                          rule):
            return
        self.findings.append(Finding(
            rule, ERROR, "%s:%d" % (self.relpath, lineno), message,
            detail))

    def _in_merge_function(self) -> bool:
        return any("merge" in name for name in self._func_stack)

    def _in_backoff_function(self) -> bool:
        return any("retry" in name.lower() or "backoff" in name.lower()
                   for name in self._func_stack)

    # -- function-level rules ---------------------------------------------

    def _visit_function(self, node: ast.AST) -> None:
        args = node.args  # type: ignore[attr-defined]
        all_args = list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs)
        defaults = list(args.defaults) + list(args.kw_defaults)
        # Align defaults with the tail of the positional args.
        pos = list(args.posonlyargs) + list(args.args)
        pos_defaults = args.defaults
        pairs: List[Tuple[ast.arg, Optional[ast.expr]]] = []
        offset = len(pos) - len(pos_defaults)
        for index, arg in enumerate(pos):
            default = (pos_defaults[index - offset]
                       if index >= offset else None)
            pairs.append((arg, default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            pairs.append((arg, default))
        del all_args, defaults

        for arg, default in pairs:
            if default is not None and _mutable_default(default):
                self._report(
                    "lint/mutable-default-arg", default.lineno,
                    "parameter %r of %s() has a mutable default"
                    % (arg.arg, node.name))  # type: ignore[attr-defined]

        self._check_hook_guards(node, pairs)

        self._func_stack.append(node.name)  # type: ignore[attr-defined]
        self._set_vars.append(set())
        self.generic_visit(node)
        self._set_vars.pop()
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _check_hook_guards(
            self, node: ast.AST,
            pairs: Sequence[Tuple[ast.arg, Optional[ast.expr]]]) -> None:
        for arg, default in pairs:
            hooks = HOOK_PARAMS.get(arg.arg)
            if hooks is None or default is None:
                continue
            if not (isinstance(default, ast.Constant)
                    and default.value is None):
                continue
            if self._hook_guarded(node, arg.arg, hooks):
                continue
            use = self._unguarded_hook_use(node, arg.arg)
            if use is not None:
                self._report(
                    "lint/unguarded-hook", use,
                    "%s() dereferences optional hook %r without a "
                    "NULL-object guard"
                    % (node.name, arg.arg),  # type: ignore[attr-defined]
                    detail="normalize with '%s = %s or %s' before use"
                           % (arg.arg, arg.arg, hooks[0]))

    @staticmethod
    def _hook_guarded(node: ast.AST, name: str,
                      guards: Tuple[str, ...]) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                targets = [t.id for t in child.targets
                           if isinstance(t, ast.Name)]
                if name in targets:
                    text = ast.dump(child.value)
                    if any(guard in text for guard in guards):
                        return True
                    # Re-binding through another call (e.g. a config
                    # normalizer) also counts as a guard.
                    if isinstance(child.value, ast.Call):
                        return True
        return False

    @staticmethod
    def _unguarded_hook_use(node: ast.AST, name: str) -> Optional[int]:
        """First line dereferencing *name* outside an if-guard on it."""

        def mentions(expr: ast.AST) -> bool:
            return any(isinstance(n, ast.Name) and n.id == name
                       for n in ast.walk(expr))

        def scan(stmts: Iterable[ast.stmt]) -> Optional[int]:
            for stmt in stmts:
                if isinstance(stmt, ast.If) and mentions(stmt.test):
                    continue  # uses under an explicit None-check are ok
                for child in ast.walk(stmt):
                    if (isinstance(child, ast.Attribute)
                            and isinstance(child.value, ast.Name)
                            and child.value.id == name):
                        return child.lineno
            return None

        return scan(node.body)  # type: ignore[attr-defined]

    # -- class-level rules -------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node)
        if self._is_picklable_spec(node):
            for stmt in node.body:
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.AnnAssign):
                    value = stmt.value
                elif isinstance(stmt, ast.Assign):
                    value = stmt.value
                if value is not None and _mutable_default(value):
                    self._report(
                        "lint/mutable-picklable-field", value.lineno,
                        "picklable type %s declares a mutable "
                        "class-level default" % node.name,
                        detail="use a dataclasses.field(default_factory="
                               "...) or an immutable default")
        self.generic_visit(node)
        self._class_stack.pop()

    @staticmethod
    def _is_picklable_spec(node: ast.ClassDef) -> bool:
        if node.name in PICKLABLE_TYPES:
            return True
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                for kw in deco.keywords:
                    if (kw.arg == "frozen"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True):
                        return True
        return False

    # -- statement / expression rules --------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self._set_vars[-1]):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_vars[-1].add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_vars[-1].discard(target.id)
        self.generic_visit(node)

    @staticmethod
    def _is_null_ctx_guard(test: ast.expr) -> bool:
        """Does *test* contain an ``... is not NULL_CTX`` comparison?"""

        def is_null_ctx(expr: ast.expr) -> bool:
            return (isinstance(expr, ast.Name)
                    and expr.id == "NULL_CTX") or (
                isinstance(expr, ast.Attribute)
                and expr.attr == "NULL_CTX")

        for child in ast.walk(test):
            if isinstance(child, ast.Compare):
                operands = [child.left] + list(child.comparators)
                if (any(isinstance(op, ast.IsNot) for op in child.ops)
                        and any(is_null_ctx(op) for op in operands)):
                    return True
        return False

    def visit_If(self, node: ast.If) -> None:
        guarded = self._is_null_ctx_guard(node.test)
        self.visit(node.test)
        if guarded:
            self._ctx_guard += 1
        for stmt in node.body:
            self.visit(stmt)
        if guarded:
            self._ctx_guard -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "intern"
                and self._ctx_guard == 0):
            receiver = _dotted_name(func.value)
            if receiver is not None and "ctx" in receiver.lower():
                self._report(
                    "lint/unguarded-ctx-write", node.lineno,
                    "%s.intern() outside an 'is not NULL_CTX' guard"
                    % receiver,
                    detail="interning the null context mints a bogus "
                           "class id; guard the write with "
                           "'if <ctx> is not NULL_CTX:'")
        if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name):
            owner, method = func.value.id, func.attr
            if (owner, method) in _WALLCLOCK_CALLS and (
                    self.hot_module or self._in_merge_function()):
                self._report(
                    "lint/wallclock-in-hot-path", node.lineno,
                    "%s.%s() read in a determinism-critical path"
                    % (owner, method),
                    detail="collection and merge results must be pure "
                           "functions of their inputs")
            if owner == "random" and method not in \
                    _SEEDED_RANDOM_FACTORIES:
                self._report(
                    "lint/unseeded-random", node.lineno,
                    "module-level random.%s() call; use a seeded "
                    "random.Random instance" % method)
            if self._in_backoff_function():
                if ((owner, method) in _WALLCLOCK_CALLS
                        or (owner, method) == ("time", "sleep")):
                    self._report(
                        "lint/unseeded-backoff", node.lineno,
                        "%s.%s() inside retry/backoff logic"
                        % (owner, method),
                        detail="derive delays from a seeded schedule "
                               "and inject the sleeper so the backoff "
                               "is replayable")
                if (owner == "random" and method == "Random"
                        and not node.args and not node.keywords):
                    self._report(
                        "lint/unseeded-backoff", node.lineno,
                        "zero-argument random.Random() inside "
                        "retry/backoff logic",
                        detail="an OS-entropy seed makes the jitter "
                               "schedule unreproducible; pass an "
                               "explicit seed")
        self.generic_visit(node)

    def _check_iteration(self, node: ast.AST, iterable: ast.expr) -> None:
        if not self.serializing:
            return
        if _is_set_expr(iterable, self._set_vars[-1]):
            self._report(
                "lint/unordered-set-iteration", iterable.lineno,
                "iterating a set in a module that serializes output; "
                "wrap the iterable in sorted()")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension_generators(
            self, generators: Sequence[ast.comprehension]) -> None:
        for gen in generators:
            self._check_iteration(gen, gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    # -- lint/swallowed-exception -------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "lint/swallowed-exception", node.lineno,
                "bare except: catches everything, including "
                "KeyboardInterrupt and typos; name the exception")
        elif all(isinstance(stmt, ast.Pass)
                 or (isinstance(stmt, ast.Expr)
                     and isinstance(stmt.value, ast.Constant)
                     and stmt.value.value is Ellipsis)
                 for stmt in node.body):
            self._report(
                "lint/swallowed-exception", node.lineno,
                "except-and-pass silently discards the failure; "
                "handle it, report it via the obs hook, or suppress "
                "this line with an ignore comment")
        self.generic_visit(node)


def lint_source(source: str, relpath: str) -> List[Finding]:
    """Lint one module's *source*; *relpath* is package-relative."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return [Finding(
            "lint/syntax-error", ERROR,
            "%s:%d" % (relpath, exc.lineno or 0),
            "module does not parse: %s" % exc.msg)]
    linter = _Linter(relpath.replace(os.sep, "/"), source)
    linter.visit(tree)
    return linter.findings


def lint_paths(root: str) -> List[Finding]:
    """Lint every ``.py`` file under *root* (the ``repro`` package)."""
    findings: List[Finding] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relpath = os.path.relpath(path, root)
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            findings.extend(lint_source(source, relpath))
    return findings
