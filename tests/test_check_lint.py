"""Layer-3 (AST lint) tests: every rule fires on a seeded violation,
stays quiet on the sanctioned idiom, and the committed source is clean.
"""

import ast
import pathlib
import re
import textwrap

from repro.check.lint import (HOT_PATH_MODULES, SERIALIZING_MODULES,
                              lint_paths, lint_source)
from repro.check.runner import CheckConfig


def lint(source, relpath="core/somewhere.py"):
    return lint_source(textwrap.dedent(source), relpath)


def rules(findings):
    return sorted({f.rule for f in findings})


class TestWallclock:
    HOT = HOT_PATH_MODULES[0]

    def test_wallclock_in_hot_module_fires(self):
        findings = lint("""
            import time

            def drain():
                return time.time()
            """, self.HOT)
        assert rules(findings) == ["lint/wallclock-in-hot-path"]

    def test_wallclock_in_merge_function_fires_anywhere(self):
        findings = lint("""
            import time

            def merge_shards(shards):
                started = time.perf_counter()
                return shards, started
            """)
        assert rules(findings) == ["lint/wallclock-in-hot-path"]

    def test_wallclock_elsewhere_is_fine(self):
        findings = lint("""
            import time

            def report():
                return time.time()
            """)
        assert findings == []


class TestUnseededRandom:
    def test_module_level_random_fires(self):
        findings = lint("""
            import random

            def jitter():
                return random.random()
            """)
        assert rules(findings) == ["lint/unseeded-random"]

    def test_seeded_instance_is_fine(self):
        findings = lint("""
            import random

            def make_prng(seed):
                return random.Random(seed)
            """)
        assert findings == []


class TestSetIteration:
    SER = SERIALIZING_MODULES[0]

    def test_set_iteration_in_serializing_module_fires(self):
        findings = lint("""
            def dump(xs):
                s = set(xs)
                return [encode(x) for x in s]
            """, self.SER)
        assert rules(findings) == ["lint/unordered-set-iteration"]

    def test_sorted_set_is_fine(self):
        findings = lint("""
            def dump(xs):
                s = set(xs)
                return [encode(x) for x in sorted(s)]
            """, self.SER)
        assert findings == []

    def test_set_iteration_elsewhere_is_fine(self):
        findings = lint("""
            def count(xs):
                total = 0
                for x in set(xs):
                    total += 1
                return total
            """)
        assert findings == []


class TestMutableDefault:
    def test_list_default_fires(self):
        findings = lint("""
            def record(value, sink=[]):
                sink.append(value)
                return sink
            """)
        assert rules(findings) == ["lint/mutable-default-arg"]

    def test_none_default_is_fine(self):
        findings = lint("""
            def record(value, sink=None):
                sink = sink if sink is not None else []
                sink.append(value)
                return sink
            """)
        assert findings == []


class TestPicklableField:
    def test_mutable_field_on_picklable_type_fires(self):
        findings = lint("""
            class ShardSpec:
                offsets = []
            """)
        assert rules(findings) == ["lint/mutable-picklable-field"]

    def test_frozen_dataclass_with_mutable_default_fires(self):
        findings = lint("""
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class Row:
                items = {}
            """)
        assert rules(findings) == ["lint/mutable-picklable-field"]

    def test_immutable_defaults_are_fine(self):
        findings = lint("""
            class ShardSpec:
                offsets = ()
                label = "x"
            """)
        assert findings == []


class TestHookGuard:
    def test_unguarded_obs_hook_fires(self):
        findings = lint("""
            def run(workload, obs=None):
                obs.counter("runs").inc()
                return workload
            """)
        assert rules(findings) == ["lint/unguarded-hook"]

    def test_null_object_guard_is_fine(self):
        findings = lint("""
            def run(workload, obs=None):
                obs = obs or NULL_OBS
                obs.counter("runs").inc()
                return workload
            """)
        assert findings == []

    def test_explicit_if_check_is_fine(self):
        findings = lint("""
            def run(workload, faults=None):
                if faults is not None:
                    faults.check("run")
                return workload
            """)
        assert findings == []


class TestCtxWriteGuard:
    def test_unguarded_intern_fires(self):
        findings = lint("""
            def publish(self, ctx):
                return self.ctx_table.intern(ctx)
            """)
        assert rules(findings) == ["lint/unguarded-ctx-write"]

    def test_guarded_intern_is_fine(self):
        findings = lint("""
            def publish(self, ctx):
                if ctx is not NULL_CTX:
                    return self.ctx_table.intern(ctx)
                return OTHER_ID
            """)
        assert findings == []

    def test_guard_attribute_form_is_fine(self):
        findings = lint("""
            def publish(self, proc):
                if proc.ctx is not context.NULL_CTX:
                    return self.ctx_table.intern(proc.ctx)
                return OTHER_ID
            """)
        assert findings == []

    def test_else_branch_is_not_guarded(self):
        findings = lint("""
            def publish(self, ctx):
                if ctx is not NULL_CTX:
                    pass
                else:
                    return self.ctx_table.intern(ctx)
            """)
        assert rules(findings) == ["lint/unguarded-ctx-write"]

    def test_wrong_comparison_fires(self):
        findings = lint("""
            def publish(self, ctx):
                if ctx is NULL_CTX:
                    return self.ctx_table.intern(ctx)
            """)
        assert rules(findings) == ["lint/unguarded-ctx-write"]

    def test_non_ctx_receiver_is_ignored(self):
        findings = lint("""
            def dedupe(self, name):
                return self.string_pool.intern(name)
            """)
        assert findings == []

    def test_named_ignore_suppresses_early_return_style(self):
        findings = lint("""
            def publish(self, ctx):
                if ctx is NULL_CTX:
                    return OTHER_ID
                return self.ctx_table.intern(ctx)  # dcpicheck: ignore[unguarded-ctx-write]
            """)
        assert findings == []


class TestUnseededBackoff:
    def test_sleep_in_retry_function_fires(self):
        findings = lint("""
            import time

            def ingest_with_retry(self, handle):
                time.sleep(0.01)
            """)
        assert rules(findings) == ["lint/unseeded-backoff"]

    def test_wallclock_in_backoff_function_fires(self):
        findings = lint("""
            import time

            def backoff_schedule(self):
                return time.monotonic()
            """)
        assert rules(findings) == ["lint/unseeded-backoff"]

    def test_entropy_seeded_jitter_in_backoff_fires(self):
        findings = lint("""
            import random

            def next_backoff(attempt):
                rng = random.Random()
                return 2 ** attempt * rng.random()
            """)
        assert rules(findings) == ["lint/unseeded-backoff"]

    def test_seeded_schedule_with_injected_sleeper_is_fine(self):
        findings = lint("""
            import random

            def backoff_schedule(self):
                rng = random.Random(self.seed)
                return [2 ** a * (0.5 + 0.5 * rng.random())
                        for a in range(self.attempts)]

            def acquire_with_retry(self):
                for delay in self.backoff_schedule():
                    self._sleep(delay / 1000.0)
            """)
        assert findings == []

    def test_sleep_outside_backoff_logic_is_fine(self):
        findings = lint("""
            import time

            def wait_for_worker():
                time.sleep(0.1)
            """)
        assert findings == []

    def test_named_ignore_suppresses(self):
        findings = lint("""
            import time

            def poll_with_retry(self):
                time.sleep(0.01)  # dcpicheck: ignore[unseeded-backoff]
            """)
        assert findings == []


class TestSwallowedException:
    def test_except_pass_fires(self):
        findings = lint("""
            def cleanup(path):
                try:
                    remove(path)
                except OSError:
                    pass
            """)
        assert rules(findings) == ["lint/swallowed-exception"]

    def test_bare_except_fires(self):
        findings = lint("""
            def run(step):
                try:
                    step()
                except:
                    log("step failed")
            """)
        assert rules(findings) == ["lint/swallowed-exception"]

    def test_except_ellipsis_body_fires(self):
        findings = lint("""
            def probe(target):
                try:
                    target.ping()
                except ConnectionError:
                    ...
            """)
        assert rules(findings) == ["lint/swallowed-exception"]

    def test_handled_exception_is_fine(self):
        findings = lint("""
            def load(path, default):
                try:
                    return read(path)
                except OSError:
                    return default
            """)
        assert findings == []

    def test_named_ignore_suppresses(self):
        findings = lint("""
            def gc(path):
                try:
                    remove(path)
                except OSError:  # dcpicheck: ignore[swallowed-exception]
                    pass
            """)
        assert findings == []


class TestSuppression:
    def test_bare_ignore_suppresses(self):
        findings = lint("""
            import random

            def jitter():
                return random.random()  # dcpicheck: ignore
            """)
        assert findings == []

    def test_named_ignore_suppresses_that_rule(self):
        findings = lint("""
            import random

            def jitter():
                return random.random()  # dcpicheck: ignore[unseeded-random]
            """)
        assert findings == []

    def test_wrong_rule_name_does_not_suppress(self):
        findings = lint("""
            import random

            def jitter():
                return random.random()  # dcpicheck: ignore[dead-write]
            """)
        assert rules(findings) == ["lint/unseeded-random"]


class TestSyntaxError:
    def test_unparseable_module_is_reported(self):
        findings = lint_source("def broken(:\n", "x.py")
        assert rules(findings) == ["lint/syntax-error"]


class TestRepoIsClean:
    def test_package_source_has_no_findings(self):
        root = CheckConfig().resolved_src_root()
        assert lint_paths(root) == []

    def test_package_source_has_no_compat_paths(self):
        """The names of the fallbacks deleted so far (the hand-copied
        semantics templates, the pre-obs stats shims, the scheduler
        shim, the second fleet layout) must not come back."""
        banned = re.compile(
            r"getattr\(_sem|_INLINE_|legacy_|_Shim|shards == 1")
        root = pathlib.Path(CheckConfig().resolved_src_root())
        assert [str(path) for path in sorted(root.rglob("*.py"))
                if banned.search(path.read_text())] == []

    def test_module_lists_name_package_files(self):
        """A renamed or deleted module must not drop silently out of
        its rule's scope."""
        root = pathlib.Path(CheckConfig().resolved_src_root())
        listed = HOT_PATH_MODULES + SERIALIZING_MODULES
        assert [rel for rel in listed if not (root / rel).is_file()] == []

    def test_every_config_field_is_read(self):
        """Every field of the run configs is read by code outside its
        class, or by a method of the class that such code calls: a
        setting that nothing reads must not come back unnoticed.
        Attributes are matched by name, so a read of another object's
        field of the same name also counts."""
        root = pathlib.Path(CheckConfig().resolved_src_root())
        configs = {"collect/session.py": "SessionConfig",
                   "core/analyze.py": "AnalysisConfig",
                   "check/runner.py": "CheckConfig"}

        def loads(nodes):
            return {node.attr for top in nodes for node in ast.walk(top)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)}

        outside = set()
        classes = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            name = configs.get(path.relative_to(root).as_posix())
            found = [node for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == name]
            classes.extend(found)
            outside |= loads(node for node in tree.body
                             if node not in found)
        assert sorted(c.name for c in classes) == sorted(configs.values())
        unread = []
        for cls in classes:
            read = set(outside)
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef)
                        and method.name in outside):
                    read |= loads([method])
            unread.extend("%s.%s" % (cls.name, stmt.target.id)
                          for stmt in cls.body
                          if isinstance(stmt, ast.AnnAssign)
                          and stmt.target.id not in read)
        assert unread == []
