"""The determinism/protocol linter: every rule, pragma and CLI path.

Each rule gets a *paired* fixture: one snippet that must fire and one
near-miss that must not.  The near-misses encode the repo idioms the rules
were calibrated against (namespaced RNG seeds, sorted set iteration,
timers built on ``Timer``), so a refactor that over-tightens a rule breaks
here before it breaks the tree.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import RULES, lint_source
from repro.lint.engine import PragmaError, parse_pragmas, unjustified_pragmas
from repro.lint.__main__ import main as lint_main


def rules_fired(source: str, path: str = "mod.py"):
    return [f.rule for f in lint_source(textwrap.dedent(source), path) if not f.suppressed]


# ----------------------------------------------------------------------
# D-rules: paired firing / near-miss fixtures
# ----------------------------------------------------------------------
class TestD101ModuleRandom:
    def test_fires_on_module_level_draw(self):
        assert "D101" in rules_fired(
            """
            import random
            def jitter():
                return random.random() * 5.0
            """
        )

    def test_fires_on_global_seed(self):
        assert "D101" in rules_fired(
            """
            import random
            random.seed(42)
            """
        )

    def test_near_miss_instance_draw(self):
        # Drawing from a *seeded instance* is the sanctioned idiom.
        assert "D101" not in rules_fired(
            """
            import random
            rng = random.Random("driver:7:c1")
            def jitter():
                return rng.random() * 5.0
            """
        )


class TestD102WallClock:
    def test_fires_on_time_time(self):
        assert "D102" in rules_fired(
            """
            import time
            def stamp():
                return time.time()
            """
        )

    def test_fires_on_datetime_now_and_uuid4(self):
        fired = rules_fired(
            """
            import uuid
            from datetime import datetime
            def ids():
                return datetime.now(), uuid.uuid4()
            """
        )
        assert fired.count("D102") == 2

    def test_near_miss_sim_now(self):
        # ``sim.now`` and attribute names merely *containing* ``now``/``time``
        # are not wall-clock reads.
        assert "D102" not in rules_fired(
            """
            def stamp(sim, clock):
                return sim.now + clock.now()
            """
        )


class TestD103SeedDiscipline:
    def test_fires_on_bare_variable_seed(self):
        assert "D103" in rules_fired(
            """
            import random
            def make(seed):
                return random.Random(seed)
            """
        )

    def test_fires_on_unseeded_random(self):
        assert "D103" in rules_fired(
            """
            import random
            rng = random.Random()
            """
        )

    def test_fires_on_fstring_without_namespace(self):
        assert "D103" in rules_fired(
            """
            import random
            def make(seed):
                return random.Random(f"{seed}")
            """
        )

    def test_near_miss_namespaced_and_literal(self):
        fired = rules_fired(
            """
            import random
            def make(seed, name, tag):
                a = random.Random(f"chaos:{seed}:{name}")
                b = random.Random(7)
                c = random.Random("driver:7:c9")
                d = random.Random(f"{tag}:{name}")  # composed namespace
                return a, b, c, d
            """
        )
        assert "D103" not in fired


class TestD104SetIteration:
    def test_fires_on_set_iteration_into_sends(self):
        assert "D104" in rules_fired(
            """
            def broadcast(self, peers):
                for peer in set(peers):
                    self.node.send(peer, "ping")
            """
        )

    def test_fires_on_set_iteration_arming_timers(self):
        fired = rules_fired(
            """
            def arm(self, watched, timers):
                for subchannel in set(watched):
                    self.node.after(50.0, self._check, subchannel)
                for subchannel in set(watched):
                    timers[subchannel].start()
            """
        )
        assert fired.count("D104") == 2

    def test_fires_on_self_attr_set(self):
        assert "D104" in rules_fired(
            """
            class Replica:
                def __init__(self):
                    self.pending = set()
                def flush(self, out):
                    for key in self.pending:
                        out.append(key)
            """
        )

    def test_fires_on_materialising_comprehension(self):
        assert "D104" in rules_fired(
            """
            def order(votes):
                return [v for v in {"a", "b"} | votes]
            """
        )

    def test_near_miss_sorted_and_order_free(self):
        fired = rules_fired(
            """
            def broadcast(self, peers, quorum):
                for peer in sorted(set(peers)):
                    self.node.send(peer, "ping")
                present = sum(1 for p in set(peers) if p in quorum)
                for peer in set(peers):
                    pass  # no order-sensitive sink in this body
                return present
            """
        )
        assert "D104" not in fired


class TestD105IdOrdering:
    def test_fires_on_id_key(self):
        assert "D105" in rules_fired(
            """
            def dedup(messages, book):
                book[id(messages[0])] = True
            """
        )

    def test_near_miss_method_named_id(self):
        assert "D105" not in rules_fired(
            """
            def dedup(catalog, item):
                return catalog.id(item)
            """
        )


class TestD106FloatTimeEquality:
    def test_fires_on_time_arithmetic_equality(self):
        assert "D106" in rules_fired(
            """
            def due(self, start_ms, delay):
                return start_ms + delay == self.sim.now
            """
        )

    def test_near_miss_inequality_and_plain_counters(self):
        fired = rules_fired(
            """
            def due(self, start_ms, delay, count, extra, total):
                late = start_ms + delay <= self.sim.now
                full = count + extra == total
                return late and full
            """
        )
        assert "D106" not in fired


# ----------------------------------------------------------------------
# P-rules
# ----------------------------------------------------------------------
_RAW_TIMERS = """
    class Replica:
        def arm(self, epoch):
            # Even with a hand-rolled epoch: the guard belongs to Timer.
            self._timer = self.node._set_timeout(100.0, self._on_timeout, epoch)
            self.sim.schedule(5.0, self.node.run_task, self._on_timeout)
            self.sim.post_at(9.0, self.node.run_task, self._on_timeout)
    """


class TestP201EpochTimers:
    def test_fires_on_a_node_timer_outside_timer(self):
        fired = rules_fired(_RAW_TIMERS, path="src/repro/consensus/pbft/replica.py")
        assert fired.count("P201") == 3

    def test_near_miss_timer(self):
        # The one idiom: a Timer the component owns, or node.after for a
        # one-shot; plain scheduling of anything but a CPU task is fine.
        assert "P201" not in rules_fired(
            """
            class Replica:
                def __init__(self, node):
                    self._view_timer = Timer(node, self._on_timeout)
                def arm(self):
                    self._view_timer.start(100.0)
                    self.retry = self.node.after(50.0, self._on_timeout)
                    self.sim.schedule(5.0, self.engine.undo, "window")
            """,
            path="src/repro/consensus/pbft/replica.py",
        )

    def test_near_miss_simulator_and_tests(self):
        # The simulator builds Timer; tests drive the CPU on purpose.
        for path in ("src/repro/sim/node.py", "tests/test_pbft.py"):
            assert "P201" not in rules_fired(_RAW_TIMERS, path=path)


class TestP202SetattrBoundary:
    def test_fires_outside_primitives(self):
        assert "P202" in rules_fired(
            """
            def tamper(message):
                object.__setattr__(message, "value", "evil")
            """,
            path="src/repro/consensus/pbft/replica.py",
        )

    def test_near_miss_inside_primitives(self):
        assert "P202" not in rules_fired(
            """
            def memoise(message):
                object.__setattr__(message, "_cached", 1)
            """,
            path="src/repro/crypto/primitives.py",
        )


class TestP203CrossNodeReach:
    def test_fires_on_reach_through(self):
        assert "P203" in rules_fired(
            """
            class Replica:
                def _on_request(self, src, message):
                    src.store["k"] = message.value  # reaches into the sender
            """
        )

    def test_near_miss_identity_reads_and_non_handlers(self):
        fired = rules_fired(
            """
            class Replica:
                def _on_request(self, src, message):
                    self.last_sender = src.name
                    self.region = src.site
                def helper(self, src, message):
                    return src.store  # not a handler: outside the contract
            """
        )
        assert "P203" not in fired


class TestP204MessagePathRebinding:
    def test_fires_on_send_and_deliver_assignment_everywhere(self):
        source = """
            def spy(network, node, log):
                original = network.{attr}
                network.{attr} = lambda *args: (log.append(args), original(*args))
                node.nic.{attr}, spare = log.append, None
                node.{attr}: object = log.append
            """
        for attr in ("send", "deliver"):
            for path in ("src/repro/metrics/trace.py", "tests/test_irmc.py"):
                fired = rules_fired(source.format(attr=attr), path=path)
                assert fired.count("P204") == 3

    def test_near_miss_local_name_and_on_message(self):
        assert "P204" not in rules_fired(
            """
            def wire(network, node, inbox):
                send = network.send
                send(node, node, "ping")
                node.on_message = lambda src, message: inbox.append(message)
                network.taps.append(lambda src, dst, message: inbox.append(message))
            """
        )


# ----------------------------------------------------------------------
# Pragmas, CLI
# ----------------------------------------------------------------------
class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        findings = lint_source(
            "import time\n"
            "t = time.time()  # lint: allow[D102] -- wall-clock CLI report\n"
        )
        assert [f.rule for f in findings] == ["D102"]
        assert findings[0].suppressed
        assert findings[0].suppressed_by.justification == "wall-clock CLI report"

    def test_comment_block_above_suppresses(self):
        findings = lint_source(
            "import time\n"
            "# lint: allow[D102] -- two-line justification, the pragma\n"
            "# sits at the top of the comment block\n"
            "t = time.time()\n"
        )
        assert findings[0].suppressed

    def test_pragma_does_not_leak_past_code(self):
        findings = lint_source(
            "import time\n"
            "a = time.time()  # lint: allow[D102] -- only this line\n"
            "b = time.time()\n"
        )
        assert [f.suppressed for f in findings] == [True, False]

    def test_allow_file_covers_module(self):
        findings = lint_source(
            "# lint: allow-file[D102] -- this module measures wall time\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert all(f.suppressed for f in findings) and len(findings) == 2

    def test_unknown_rule_rejected(self):
        with pytest.raises(PragmaError):
            parse_pragmas("x = 1  # lint: allow[D999] -- no such rule\n")

    def test_docstring_mention_is_not_a_pragma(self):
        assert parse_pragmas('"""docs: write # lint: allow[D101] -- like so"""\n') == []

    def test_unjustified_pragma_detected(self):
        pragmas = unjustified_pragmas("import time  # lint: allow[D102]\n")
        assert len(pragmas) == 1 and pragmas[0].justification is None


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(textwrap.dedent(text))
        return path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self._write(tmp_path, "good.py", 'import random\nrng = random.Random("a:1")\n')
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_finding_exits_one_with_rule_file_line_and_hint(self, tmp_path, capsys):
        bad = self._write(tmp_path, "bad.py", "import time\nt = time.time()\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:2:5: D102" in out and "[hint:" in out

    def test_strict_rejects_unjustified_pragma(self, tmp_path, capsys):
        self._write(
            tmp_path, "mod.py", "import time\nt = time.time()  # lint: allow[D102]\n"
        )
        assert lint_main([str(tmp_path)]) == 0
        assert lint_main(["--strict", str(tmp_path)]) == 1
        assert "has no '-- justification'" in capsys.readouterr().out

    def test_every_rule_is_documented(self):
        for rule in RULES.values():
            assert rule.summary and rule.hint


class TestRepositoryIsClean:
    def test_tree_lints_clean_in_strict_mode(self):
        """The committed tree must stay at zero unsuppressed findings."""
        repo = Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--strict",
             "src", "tests", "benchmarks"],
            cwd=repo,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_mypy_island_if_available(self):
        """The sim+crypto strictness island typechecks (skips without mypy)."""
        if shutil.which("mypy") is None:
            pytest.skip("mypy not installed in this environment")
        repo = Path(__file__).resolve().parent.parent
        result = subprocess.run(
            ["mypy", "--config-file", "mypy.ini"],
            cwd=repo,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
