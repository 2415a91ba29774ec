"""Tests for the ``repro.analysis`` static-analysis battery.

Each rule family is exercised with at least one seeded violation
(including an ``id()``-keyed-cache fixture mirroring the historical
planner bug and cross-module deadlock / blocking-in-async fixtures for
the whole-program rules), suppression semantics and their audit are
covered, the CLI's exit codes, parallelism, baseline, and JSON/SARIF
schemas are checked, and — the gate itself — the shipped tree must come
back clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisReport,
    all_rules,
    analyze_paths,
    analyze_source,
    analyze_sources,
    select_rules,
)
from repro.analysis.cli import main as lint_main

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _scan(source: str, module_name: str = "repro.core.fixture") -> list:
    return analyze_source(textwrap.dedent(source), module_name=module_name)


def _scan_many(sources: dict[str, str]) -> list:
    return analyze_sources(
        {name: textwrap.dedent(source) for name, source in sources.items()}
    )


def _rule_ids(findings) -> set[str]:
    return {finding.rule_id for finding in findings}


class TestDeterminismRules:
    def test_global_random_call_flagged(self):
        findings = _scan(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert "determinism/unseeded-random" in _rule_ids(findings)

    def test_unseeded_default_rng_flagged_seeded_allowed(self):
        findings = _scan(
            """
            import numpy as np

            bad = np.random.default_rng()
            good = np.random.default_rng(7)
            """
        )
        unseeded = [
            f for f in findings if f.rule_id == "determinism/unseeded-random"
        ]
        assert len(unseeded) == 1

    def test_legacy_numpy_global_api_flagged(self):
        findings = _scan(
            """
            import numpy as np

            noise = np.random.rand(8)
            """
        )
        assert "determinism/unseeded-random" in _rule_ids(findings)

    def test_wall_clock_flagged_measurement_clock_allowed(self):
        findings = _scan(
            """
            import time

            stamp = time.time()
            elapsed = time.perf_counter()
            """
        )
        wall = [f for f in findings if f.rule_id == "determinism/wall-clock"]
        assert len(wall) == 1

    def test_id_keyed_cache_fixture_mirroring_planner_bug(self):
        # The exact shape of the historical planner bug: an id()-keyed
        # memo plus an ("id", id(...)) fallback cache key.
        findings = _scan(
            """
            def plan_system(call_graphs):
                key_memo = {}
                for graph in call_graphs:
                    cache_key = key_memo.get(id(graph))
                    if cache_key is None:
                        cache_key = ("id", id(graph))
                        key_memo[id(graph)] = cache_key
            """
        )
        id_findings = [
            f for f in findings if f.rule_id == "determinism/id-keyed-state"
        ]
        assert len(id_findings) == 3
        assert "fingerprint" in id_findings[0].hint

    def test_rules_scoped_to_planning_packages(self):
        source = """
        import random

        def jitter():
            return random.random()
        """
        assert _scan(source, module_name="repro.experiments.fixture") == []


class TestLockRules:
    def test_unguarded_write_to_guarded_attribute(self):
        findings = _scan(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                def inc(self):
                    with self._lock:
                        self._value += 1

                def reset(self):
                    self._value = 0
            """,
            module_name="repro.service.fixture",
        )
        unguarded = [
            f for f in findings if f.rule_id == "locks/unguarded-attribute"
        ]
        assert len(unguarded) == 1
        assert "_value" in unguarded[0].message

    def test_write_in_except_block_is_not_invisible(self):
        findings = _scan(
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._errors = 0

                def record(self):
                    with self._lock:
                        self._errors += 1

                def run(self, task):
                    try:
                        task()
                    except ValueError:
                        self._errors += 1
            """,
            module_name="repro.service.fixture",
        )
        assert "locks/unguarded-attribute" in _rule_ids(findings)

    def test_init_and_guarded_writes_pass(self):
        findings = _scan(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                def inc(self):
                    with self._lock:
                        self._value += 1
            """,
            module_name="repro.service.fixture",
        )
        assert findings == []

    def test_inconsistent_lock_order_flagged(self):
        findings = _scan(
            """
            class Transfer:
                def debit(self):
                    with self._accounts_lock:
                        with self._audit_lock:
                            pass

                def credit(self):
                    with self._audit_lock:
                        with self._accounts_lock:
                            pass
            """,
            module_name="repro.service.fixture",
        )
        order = [f for f in findings if f.rule_id == "locks/lock-order"]
        assert len(order) == 1

    def test_consistent_lock_order_passes(self):
        findings = _scan(
            """
            class Transfer:
                def debit(self):
                    with self._accounts_lock:
                        with self._audit_lock:
                            pass

                def credit(self):
                    with self._accounts_lock:
                        with self._audit_lock:
                            pass
            """,
            module_name="repro.service.fixture",
        )
        assert [f for f in findings if f.rule_id == "locks/lock-order"] == []


class TestExceptionRules:
    def test_bare_except_always_flagged(self):
        findings = _scan(
            """
            def swallow(task):
                try:
                    task()
                except:
                    pass
            """,
            module_name="repro.service.fixture",
        )
        assert "exceptions/silent-broad-except" in _rule_ids(findings)

    def test_silent_broad_except_flagged_twice(self):
        # No rationale comment AND no re-raise/recording: two findings.
        findings = _scan(
            """
            def swallow(task):
                try:
                    task()
                except Exception:
                    pass
            """,
            module_name="repro.service.fixture",
        )
        broad = [
            f for f in findings if f.rule_id == "exceptions/silent-broad-except"
        ]
        assert len(broad) == 2

    def test_rationale_plus_metric_passes(self):
        findings = _scan(
            """
            def guarded(task, metrics):
                try:
                    task()
                # Broad by contract: callbacks are user-supplied and any
                # failure must be counted, not propagated.
                except Exception:
                    metrics.counter("task_errors").inc()
            """,
            module_name="repro.service.fixture",
        )
        assert findings == []

    def test_rationale_plus_reraise_passes(self):
        findings = _scan(
            """
            def guarded(task):
                try:
                    task()
                # Broad on purpose: annotate and propagate.
                except Exception as exc:
                    raise RuntimeError("task failed") from exc
            """,
            module_name="repro.service.fixture",
        )
        assert findings == []


class TestSuppressions:
    def test_suppression_with_reason_silences_finding(self):
        findings = _scan(
            """
            import time

            stamp = time.time()  # repro: allow[determinism/wall-clock] log timestamps are cosmetic here
            """
        )
        assert findings == []

    def test_family_wide_suppression_matches(self):
        findings = _scan(
            """
            import time

            stamp = time.time()  # repro: allow[determinism] fixture exercises family match
            """
        )
        assert findings == []

    def test_suppression_without_reason_is_audited(self):
        findings = _scan(
            """
            import time

            stamp = time.time()  # repro: allow[determinism/wall-clock]
            """
        )
        assert "analysis/suppression-missing-reason" in _rule_ids(findings)

    def test_unused_suppression_is_audited(self):
        findings = _scan(
            """
            x = 1  # repro: allow[determinism/wall-clock] nothing here actually violates
            """
        )
        assert _rule_ids(findings) == {"analysis/unused-suppression"}

    def test_suppression_on_preceding_line_covers_next_line(self):
        findings = _scan(
            """
            import time

            # repro: allow[determinism/wall-clock] covered from the line above
            stamp = time.time()
            """
        )
        assert findings == []

    def test_multi_rule_suppression_silences_both_rules(self):
        findings = _scan(
            """
            import random
            import time

            # repro: allow[determinism/wall-clock,determinism/unseeded-random] one clause list, two rules
            stamp = (time.time(), random.random())
            """
        )
        assert findings == []

    def test_multi_rule_suppression_with_one_unused_clause_warns(self):
        findings = _scan(
            """
            import time

            stamp = time.time()  # repro: allow[determinism/wall-clock,determinism/unseeded-random] second clause never fires
            """
        )
        assert _rule_ids(findings) == {"analysis/unused-suppression"}

    def test_stacked_suppression_comments_cover_next_statement(self):
        findings = _scan(
            """
            import random
            import time

            # repro: allow[determinism/wall-clock] stacked comment one
            # repro: allow[determinism/unseeded-random] stacked comment two
            stamp = (time.time(), random.random())
            """
        )
        assert findings == []

    def test_unused_suppression_is_warning_severity(self):
        findings = _scan(
            """
            x = 1  # repro: allow[determinism/wall-clock] nothing here actually violates
            """
        )
        assert [f.severity for f in findings] == ["warning"]
        assert findings[0].render().startswith(findings[0].path)
        assert "warning: " in findings[0].render()


class TestEngine:
    def test_parse_error_reported_not_raised(self):
        findings = analyze_source("def broken(:\n", path="broken.py")
        assert _rule_ids(findings) == {"analysis/parse-error"}
        assert not findings[0].suppressible

    def test_select_rules_by_family_and_id(self):
        family = select_rules(["determinism"])
        assert {rule.rule_id.split("/")[0] for rule in family} == {"determinism"}
        exact = select_rules(["locks/lock-order"])
        assert [rule.rule_id for rule in exact] == ["locks/lock-order"]

    def test_select_rules_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="unknown rule selector"):
            select_rules(["nonsense"])

    def test_rule_battery_has_all_families(self):
        families = {rule.rule_id.split("/")[0] for rule in all_rules()}
        expected = {"determinism", "locks", "exceptions", "lockorder", "asyncsafety"}
        assert expected <= families

    def test_shipped_tree_is_clean(self):
        report = analyze_paths([REPO_SRC])
        assert isinstance(report, AnalysisReport)
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.clean, f"repro-lint found:\n{rendered}"
        assert report.files_scanned > 100
        unexplained = [s for s in report.suppressions if not s.reason]
        assert unexplained == []


class TestCli:
    def test_clean_tree_exits_zero_strict(self, capsys):
        assert lint_main(["--strict", str(REPO_SRC / "utils")]) == 0
        out = capsys.readouterr().out
        assert "repro-lint: clean" in out

    def test_findings_exit_one_only_under_strict(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "fixture.py").write_text("import time\nstamp = time.time()\n")
        assert lint_main([str(bad)]) == 0
        assert lint_main(["--strict", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "determinism/wall-clock" in out

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["/nonexistent/nowhere"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--rules", "bogus", str(REPO_SRC / "utils")]) == 2
        assert "unknown rule selector" in capsys.readouterr().err

    def test_json_output_and_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "lint-report.json"
        code = lint_main(
            ["--format", "json", "--json-out", str(artifact), str(REPO_SRC / "utils")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(artifact.read_text())
        assert payload["version"] == 2
        assert payload["files_scanned"] > 0
        assert payload["findings"] == []
        assert payload["baselined"] == []
        assert set(payload["timing"]) == {"seconds"}
        assert payload["timing"]["seconds"] >= 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("determinism/", "locks/", "exceptions/", "lockorder/", "asyncsafety/"):
            assert family in out

    def test_repro_cli_lint_subcommand(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--strict", str(REPO_SRC / "utils")]) == 0
        assert "repro-lint: clean" in capsys.readouterr().out


# Two modules whose lock orders conflict only when analysed together:
# fix_a takes registry then store; fix_b (through a typed parameter)
# takes store then — via a helper call — registry.
_DEADLOCK_MOD_A = """
import threading


class Registry:
    def __init__(self):
        self.lock = threading.Lock()


class Store:
    def __init__(self, registry: Registry):
        self.lock = threading.Lock()
        self.registry = registry

    def forward(self):
        with self.registry.lock:
            with self.lock:
                pass
"""

_DEADLOCK_MOD_B = """
from repro.core.fix_a import Store


def drain(store: Store):
    with store.lock:
        touch_registry(store)


def touch_registry(store: Store):
    with store.registry.lock:
        pass
"""


class TestGlobalLockOrderRule:
    def test_cross_module_cycle_reported_with_witness_path(self):
        findings = _scan_many(
            {"repro.core.fix_a": _DEADLOCK_MOD_A, "repro.core.fix_b": _DEADLOCK_MOD_B}
        )
        cycles = [f for f in findings if f.rule_id == "lockorder/cycle"]
        assert len(cycles) == 1
        message = cycles[0].message
        assert "potential deadlock: lock-order cycle" in message
        # Both conflicting acquisition sites are cited with file:line...
        assert "repro/core/fix_a.py:" in message
        assert "repro/core/fix_b.py:" in message
        # ...and the cross-module order goes through the call chain.
        assert "repro.core.fix_b.drain -> repro.core.fix_b.touch_registry" in message

    def test_each_module_alone_is_clean(self):
        assert _scan_many({"repro.core.fix_a": _DEADLOCK_MOD_A}) == []

    def test_consistent_order_across_modules_is_clean(self):
        consistent = _DEADLOCK_MOD_B.replace(
            "    with store.lock:\n        touch_registry(store)",
            "    with store.registry.lock:\n        with store.lock:\n            pass",
        )
        findings = _scan_many(
            {"repro.core.fix_a": _DEADLOCK_MOD_A, "repro.core.fix_b": consistent}
        )
        assert [f for f in findings if f.rule_id == "lockorder/cycle"] == []

    def test_untyped_parameter_stays_silent(self):
        # Under-approximation: without the annotation the callee cannot
        # be tied to Store, so no edge — and no false positive.
        untyped = _DEADLOCK_MOD_B.replace(": Store", "")
        findings = _scan_many(
            {"repro.core.fix_a": _DEADLOCK_MOD_A, "repro.core.fix_b": untyped}
        )
        assert [f for f in findings if f.rule_id == "lockorder/cycle"] == []


_ASYNC_MOD = """
import time


class Handler:
    async def route(self):
        self.work()

    def work(self):
        time.sleep(0.5)
"""


class TestBlockingInAsyncRule:
    def test_transitive_blocking_call_reported_with_chain(self):
        findings = _scan(_ASYNC_MOD, module_name="repro.core.fix_async")
        blocking = [f for f in findings if f.rule_id == "asyncsafety/blocking-call"]
        assert len(blocking) == 1
        message = blocking[0].message
        assert "async function repro.core.fix_async.Handler.route" in message
        assert "time.sleep" in message
        assert (
            "call chain repro.core.fix_async.Handler.route"
            " -> repro.core.fix_async.Handler.work" in message
        )
        # Anchored at the call edge inside the async function, so the
        # suppression lives where the decision is made.
        assert blocking[0].line == 7

    def test_direct_blocking_call_reported_at_site(self):
        findings = _scan(
            """
            import time

            async def tick():
                time.sleep(0.1)
            """,
            module_name="repro.core.fix_async",
        )
        blocking = [f for f in findings if f.rule_id == "asyncsafety/blocking-call"]
        assert len(blocking) == 1
        assert "blocks the event loop with time.sleep" in blocking[0].message

    def test_run_in_executor_exempts_the_callee(self):
        findings = _scan(
            """
            import asyncio
            import time


            def work():
                time.sleep(0.5)


            async def route():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, work)
            """,
            module_name="repro.core.fix_async",
        )
        assert [f for f in findings if f.rule_id == "asyncsafety/blocking-call"] == []

    def test_cross_module_reach_is_reported(self):
        helper = """
        import time


        def crunch():
            time.sleep(1.0)
        """
        entry = """
        from repro.core.fix_help import crunch


        async def route():
            crunch()
        """
        findings = _scan_many(
            {"repro.core.fix_help": helper, "repro.core.fix_entry": entry}
        )
        blocking = [f for f in findings if f.rule_id == "asyncsafety/blocking-call"]
        assert len(blocking) == 1
        assert blocking[0].path == "repro/core/fix_entry.py"
        assert "repro.core.fix_help.crunch" in blocking[0].message

    def test_finding_is_suppressible_at_the_call_edge(self):
        findings = _scan(
            """
            import time


            class Handler:
                async def route(self):
                    # repro: allow[asyncsafety/blocking-call] startup-only path, loop not serving yet
                    self.work()

                def work(self):
                    time.sleep(0.5)
            """,
            module_name="repro.core.fix_async",
        )
        assert [f for f in findings if f.rule_id == "asyncsafety/blocking-call"] == []


class TestParallelAndBaseline:
    @staticmethod
    def _seed_tree(root: Path) -> Path:
        pkg = root / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "one.py").write_text("import time\nstamp = time.time()\n")
        (pkg / "two.py").write_text("import random\nroll = random.random()\n")
        (pkg / "three.py").write_text("value = 3\n")
        return root

    def test_cli_reports_differ_only_in_timing(self, tmp_path, capsys):
        tree = self._seed_tree(tmp_path / "src")
        payloads = []
        for run in ("first", "second"):
            artifact = tmp_path / f"report-{run}.json"
            code = lint_main(["--format", "json", "--json-out", str(artifact), str(tree)])
            assert code == 0
            capsys.readouterr()
            payloads.append(json.loads(artifact.read_text()))
        for payload in payloads:
            timing = payload.pop("timing")
            assert set(timing) == {"seconds"}
            assert timing["seconds"] >= 0
        assert payloads[0] == payloads[1]
        assert len(payloads[0]["findings"]) == 2

    def test_baseline_round_trip_gates_only_new_findings(self, tmp_path, capsys):
        tree = self._seed_tree(tmp_path / "src")
        baseline = tmp_path / "baseline.json"
        assert lint_main(["--write-baseline", str(baseline), str(tree)]) == 0
        capsys.readouterr()

        # Known findings are recorded, not reported: strict passes.
        artifact = tmp_path / "report.json"
        code = lint_main(
            [
                "--strict",
                "--format",
                "json",
                "--baseline",
                str(baseline),
                "--json-out",
                str(artifact),
                str(tree),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["findings"] == []
        assert {entry["rule"] for entry in payload["baselined"]} == {
            "determinism/wall-clock",
            "determinism/unseeded-random",
        }

        # A fresh violation is NOT covered by the baseline.
        (tree / "repro" / "core" / "four.py").write_text("import time\nnow = time.time()\n")
        assert lint_main(["--strict", "--baseline", str(baseline), str(tree)]) == 1
        assert "four.py" in capsys.readouterr().out

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        tree = self._seed_tree(tmp_path / "src")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{\"version\": 99}\n")
        assert lint_main(["--baseline", str(baseline), str(tree)]) == 2
        assert "baseline" in capsys.readouterr().err


class TestSarifOutput:
    def test_sarif_artifact_structure(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "fixture.py").write_text("import time\nstamp = time.time()\n")
        sarif_path = tmp_path / "lint-report.sarif"
        assert lint_main(["--sarif", str(sarif_path), str(bad)]) == 0
        capsys.readouterr()

        document = json.loads(sarif_path.read_text())
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "determinism/wall-clock" in rule_ids
        results = run["results"]
        assert len(results) == 1
        result = results[0]
        assert result["ruleId"] == "determinism/wall-clock"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("fixture.py")
        assert location["region"]["startLine"] == 2
