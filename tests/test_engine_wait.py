"""``Simulator.wait`` — the one way to block — and the rule that keeps it so:
nothing in ``src/repro`` outside the engine steps a simulator itself."""

import ast
from pathlib import Path

import repro
from repro.net.engine import Simulator


class TestWait:
    def test_true_when_the_predicate_flips(self):
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: log.append(t))
        assert sim.wait(lambda: len(log) == 2) is True
        assert log == [1.0, 2.0]
        assert sim.now == 2.0
        assert sim.pending() == 1  # the event after the flip did not run

    def test_already_true_runs_nothing(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.wait(lambda: True) is True
        assert sim.now == 0.0 and sim.events_processed == 0

    def test_false_on_a_dry_queue(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.wait(lambda: False) is False
        assert sim.now == 1.0 and sim.pending() == 0

    def test_false_when_next_event_is_past_the_deadline(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("in"))
        sim.schedule(5.0, lambda: log.append("out"))
        assert sim.wait(lambda: False, deadline=2.0) is False
        assert log == ["in"]
        # unlike run_until, the clock stays at the last event executed
        assert sim.now == 1.0
        assert sim.pending() == 1

    def test_event_at_exactly_the_deadline_runs(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("edge"))
        assert sim.wait(lambda: bool(log), deadline=2.0) is True
        assert sim.now == 2.0

    def test_nested_wait_inside_a_handler(self):
        sim = Simulator()
        log = []

        def handler():
            # a blocking call made from inside an event, as fetch does
            sim.schedule(0.5, lambda: log.append("reply"))
            sim.schedule(0.25, lambda: log.append("other"))
            assert sim.wait(lambda: "reply" in log) is True
            log.append("handled")

        sim.schedule(1.0, handler)
        sim.schedule(9.0, lambda: log.append("late"))
        # the inner wait already ran the event the outer predicate wanted
        assert sim.wait(lambda: "other" in log) is True
        assert log == ["other", "reply", "handled"]
        assert sim.now == 1.5
        assert sim.events_processed == 3

    def test_cancelled_head_entry_is_skipped(self):
        sim = Simulator()
        log = []
        head = sim.schedule(1.0, lambda: log.append("dead"))
        sim.schedule(4.0, lambda: log.append("live"))
        sim.cancel(head)
        # the cancelled head must not count as an event inside the deadline
        assert sim.wait(lambda: False, deadline=2.0) is False
        assert sim.now == 0.0 and log == []
        assert sim.wait(lambda: bool(log)) is True
        assert log == ["live"]
        assert sim.cancelled_drained == 1


def _simulator_step_calls(tree: ast.AST):
    """``<anything>.step()`` calls, minus a Petri net stepping itself
    (``self.step()`` in ``core/timed.py`` fires transitions, not events)."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "step"
            and not (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            )
        ):
            yield node


def test_no_simulator_step_outside_the_engine():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "net" / "engine.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.relative_to(root)}:{node.lineno}"
            for node in _simulator_step_calls(tree)
        ]
    assert offenders == [], (
        "block with Simulator.wait(done, deadline=...) instead of a "
        f"private step() loop: {offenders}"
    )
