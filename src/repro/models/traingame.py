"""The train-crossing timed game (paper Figs. 2 and 3).

Instead of hand-writing the gate controller of Fig. 1(b), the paper
synthesizes one with UPPAAL-TIGA: the *environment* decides when trains
arrive and how long crossing takes (the dashed, uncontrollable edges of
Fig. 2), while the *controller* decides when to stop and restart trains
through the unconstrained automaton of Fig. 3 (all edges controllable).

The synthesis objective is safety — never two trains on the bridge —
and, as a liveness demonstration, the reachability objective "an
approaching train eventually crosses".

Constants can be scaled down to keep the discrete-time arena small for
the larger instances: ``scale=k`` replaces every bound ``c`` by
``max(1, c // k)``.  The floor division does not keep the ratios
between bounds (with ``scale=2``, 5 becomes 2 and 3 becomes 1), so a
scaled game is a different game, not the same one on a coarser time
grid, and its verdicts need not match the unscaled game's.  The tests
check the verdicts of the bundled sizes and scales.
"""

from __future__ import annotations

from ..ta.network import Network
from ..ta.syntax import Automaton, clk


def _scaled(value, scale):
    return max(1, value // scale)


def make_game_train(train_id, scale=1):
    """The timed game train of Fig. 2 (uncontrollable dynamics, with the
    stop/go receptions ownable by the controller)."""
    s = lambda v: _scaled(v, scale)
    train = Automaton(f"GTrain{train_id}", clocks=["x"])
    train.add_location("Safe")
    train.add_location("Appr", invariant=[clk("x", "<=", s(20))])
    train.add_location("Stop")
    train.add_location("Start", invariant=[clk("x", "<=", s(30))])
    train.add_location("Cross", invariant=[clk("x", "<=", s(5))])
    train.initial_location = "Safe"

    # Environment: the train decides to approach, to enter the bridge,
    # and when to leave.
    train.add_edge("Safe", "Appr", sync=(f"appr_{train_id}", "!"),
                   resets=[("x", 0)], controllable=False)
    train.add_edge("Appr", "Cross", guard=[clk("x", ">=", s(10))],
                   resets=[("x", 0)], controllable=False)
    train.add_edge("Start", "Cross", guard=[clk("x", ">=", s(7))],
                   resets=[("x", 0)], controllable=False)
    train.add_edge("Cross", "Safe", guard=[clk("x", ">=", s(3))],
                   sync=(f"leave_{train_id}", "!"), resets=[("x", 0)],
                   controllable=False)
    # Controller-owned: the train obeys stop and go commands.
    train.add_edge("Appr", "Stop", guard=[clk("x", "<=", s(10))],
                   sync=(f"stop_{train_id}", "?"), resets=[("x", 0)],
                   controllable=True)
    train.add_edge("Stop", "Start", sync=(f"go_{train_id}", "?"),
                   resets=[("x", 0)], controllable=True)
    return train


def make_unconstrained_controller(n_trains):
    """The single-location controller template of Fig. 3.

    It may send stop/go commands (controllable) at any moment and must
    accept the trains' appr/leave notifications (uncontrollable).
    """
    controller = Automaton("Controller")
    controller.add_location("C")
    for e in range(n_trains):
        controller.add_edge("C", "C", sync=(f"appr_{e}", "?"),
                            controllable=False)
        controller.add_edge("C", "C", sync=(f"leave_{e}", "?"),
                            controllable=False)
        controller.add_edge("C", "C", sync=(f"stop_{e}", "!"),
                            controllable=True)
        controller.add_edge("C", "C", sync=(f"go_{e}", "!"),
                            controllable=True)
    return controller


def make_traingame(n_trains=2, scale=1):
    """The full game network: trains (Fig. 2) + controller (Fig. 3)."""
    network = Network(f"traingame-{n_trains}")
    for t in range(n_trains):
        for channel in ("appr", "stop", "go", "leave"):
            network.add_channel(f"{channel}_{t}")
    for t in range(n_trains):
        network.add_process(f"Train({t})", make_game_train(t, scale))
    network.add_process("Controller",
                        make_unconstrained_controller(n_trains))
    return network.freeze()


def safety_predicate(n_trains):
    """At most one train on the bridge."""
    def predicate(names, _valuation, _clocks):
        return sum(1 for n in names[:n_trains] if n == "Cross") <= 1
    return predicate


def crossing_predicate(train_id):
    """The given train is on the bridge (reachability objective)."""
    def predicate(names, _valuation, _clocks):
        return names[train_id] == "Cross"
    return predicate
