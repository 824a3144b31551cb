"""``python -m repro nets check`` and the ``python -m repro`` argument parsing."""

import json

import pytest

import repro.__main__ as cli
from repro.core.extended import build_control_net, build_floor_net
from repro.core.netcheck import TABLE, NetRow, check, floor_row, run
from repro.core.petri import PetriNet

#: net -> (states, edges), measured when the check landed
PINNED = {
    "control": (4, 7),
    "floor-2": (8, 14),
    "floor-3": (20, 48),
    "floor-4": (48, 144),
    "lecture-ocpn": (138, 265),
    "lecture-xocpn-lazy": (854, 1957),
    "lecture-xocpn-prefetch": (2663, 7303),
}


def records(out):
    return [json.loads(line) for line in out.splitlines()]


class TestRealTable:
    def test_every_net_passes_with_pinned_state_counts(self, capsys):
        assert cli.main(["nets", "check"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        got = {r["net"]: (r["states"], r["edges"]) for r in records(captured.out)}
        assert got == PINNED

    def test_records_carry_every_verdict(self, capsys):
        run(TABLE)
        by_net = {r["net"]: r for r in records(capsys.readouterr().out)}
        assert all(r["ok"] and r["bound"] == 1 for r in by_net.values())
        assert by_net["control"]["dead"] == [{"stopped": 1}]
        assert by_net["floor-3"]["dead"] == []
        assert by_net["lecture-xocpn-lazy"]["dead"] == [{"CH_net": 1, "P_done": 1}]
        assert by_net["control"]["invariants"] == ["idle+playing+paused+stopped=1"]
        assert len(by_net["floor-4"]["invariants"]) == 5


def floor_keeping_token():
    """``build_floor_net(["u0", "u1"])`` with a ``release_u0`` that does not
    return the floor token: u1 then waits forever."""
    net = build_floor_net(["u0", "u1"])
    broken = PetriNet("floor-control")
    for place in net.places:
        broken.add_place(place.name, tokens=net.initial_marking[place.name])
    for transition in net.transitions:
        broken.add_transition(transition.name)
        for place, weight in net.inputs(transition.name).items():
            broken.add_arc(place, transition.name, weight=weight)
        for place, weight in net.outputs(transition.name).items():
            if (transition.name, place) != ("release_u0", "floor"):
                broken.add_arc(transition.name, place, weight=weight)
    return broken


def double_floor():
    """A one-shot transition that puts two tokens into ``floor``."""
    net = build_floor_net(["u0", "u1"])
    net.add_place("boot", tokens=1)
    net.add_transition("t_boot")
    net.add_arc("boot", "t_boot")
    net.add_arc("t_boot", "floor", weight=2)
    return net


def control_with_dead_rewind():
    """The control net plus a rewind transition no marking enables."""
    net = build_control_net()
    net.add_place("rewinding")
    net.add_transition("t_rewind")
    net.add_arc("rewinding", "t_rewind")
    net.add_arc("paused", "t_rewind")
    net.add_arc("t_rewind", "playing")
    return net


FLOOR_2 = floor_row(["u0", "u1"])
CONTROL = TABLE[0]

MUTANTS = {
    "undeclared-dead-marking": (
        NetRow("floor-2", floor_keeping_token,
               invariants=FLOOR_2.invariants[1:]),
        "floor-2: undeclared dead marking",
    ),
    "unsafe-place": (
        NetRow("floor-2", double_floor),
        "floor-2: unsafe: a place holds 3 tokens",
    ),
    "broken-invariant": (
        NetRow("floor-2", FLOOR_2.build,
               invariants=[({"floor": 1, "holding_u0": 1}, 1)]),
        "floor-2: not a P-invariant: floor+holding_u0=1",
    ),
    "invariant-total": (
        NetRow("control", CONTROL.build, CONTROL.dead,
               [(CONTROL.invariants[0][0], 2)]),
        "control: initial marking breaks idle+playing+paused+stopped=2",
    ),
    "dead-transition": (
        NetRow("control", control_with_dead_rewind, CONTROL.dead, CONTROL.invariants),
        "control: dead transitions ['t_rewind']",
    ),
}


class TestMutants:
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_fails_naming_net_and_property(self, mutant, capsys):
        row, message = MUTANTS[mutant]
        assert run([CONTROL, row]) == 1
        captured = capsys.readouterr()
        assert f"nets check: {message}" in captured.err
        first, second = records(captured.out)
        assert first["ok"] and not second["ok"]

    def test_each_mutant_fails_only_its_property(self):
        for mutant in ("unsafe-place", "broken-invariant", "dead-transition"):
            row, message = MUTANTS[mutant]
            _, failures = check(row)
            assert [f"{row.name}: {f}" for f in failures] == [message]


class TestMain:
    @pytest.fixture
    def demo_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "demo", lambda: calls.append(1) or 0)
        return calls

    @pytest.mark.parametrize("argv", [["--help"], ["nets"], ["nets", "chek"]])
    def test_unknown_arguments_print_usage(self, argv, demo_calls, capsys):
        assert cli.main(argv) == 2
        assert demo_calls == []
        assert capsys.readouterr().err.startswith("usage: python -m repro")

    def test_no_arguments_run_the_demo(self, demo_calls):
        # the demo itself runs end to end in test_examples' test_module_demo
        assert cli.main([]) == 0
        assert demo_calls == [1]
