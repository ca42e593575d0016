"""Probabilistic timed automata and the digital-clocks translation."""

from .pta import PTA, Branch, PTANetwork, ProbEdge
from .digital import DigitalMDP, build_digital_mdp, digital_semantics
from .overapprox import overapproximate_automaton, overapproximate_network
from .simulate import DigitalSimulator, SimulationRun
from .por import check_confluent, independent, transition_footprint

__all__ = [
    "PTA", "Branch", "PTANetwork", "ProbEdge",
    "DigitalMDP", "build_digital_mdp", "digital_semantics",
    "overapproximate_automaton", "overapproximate_network",
    "DigitalSimulator", "SimulationRun",
    "check_confluent", "independent", "transition_footprint",
]
