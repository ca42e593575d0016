#!/usr/bin/env python3
"""The Bounded Retransmission Protocol through all three MODEST-style
backends (the paper's Table I workflow, Section III).

Step 1 (mctau): a fast nonprobabilistic pass over the overapproximated
model for debugging — invariants TA1/TA2 and reachability PA/PB.
Step 2 (mcpta): exact probabilities via digital clocks + value
iteration.
Step 3 (modes): discrete-event simulation under an explicit scheduler.

Run:  python examples/brp_analysis.py [N MAX TD]
"""

import sys

from repro.core import ResultTable
from repro.mc import And, DataPred, EF, LocationIs, Verifier
from repro.mdp import expected_total_reward, reachability_probability
from repro.models import brp
from repro.modest import Emax, Pmax, modes
from repro.pta import build_digital_mdp, overapproximate_network


def main(n=16, max_retrans=2, td=1, runs=2000):
    network = brp.make_brp(n, max_retrans, td)
    print(f"model: {network!r}\n")

    # -- mctau: quick nonprobabilistic check --------------------------------
    ta = overapproximate_network(network)
    verifier = Verifier(ta)
    ta1 = not verifier.check(
        EF(DataPred(lambda env: env["premature"]))).holds
    ta2 = not verifier.check(EF(And(
        LocationIs("Sender", "s_ok"),
        DataPred(lambda env: env["r_count"] < n)))).holds
    print(f"mctau  TA1 (no premature timeout)   : {ta1}")
    print(f"mctau  TA2 (no bogus success)       : {ta2}")

    # -- mcpta: exact probabilistic model checking --------------------------
    digital = build_digital_mdp(network)
    print(f"\nmcpta  digital-clocks MDP           : "
          f"{digital.mdp.num_states} states")
    p1 = reachability_probability(
        digital.mdp, digital.states_where(brp.not_success),
        maximize=True)[0]
    p2 = reachability_probability(
        digital.mdp, digital.states_where(brp.uncertainty),
        maximize=True)[0]
    emax = expected_total_reward(
        digital.mdp, digital.states_where(brp.reported),
        maximize=True)[0]
    print(f"mcpta  P1 (transfer fails)          : {p1:.4e}")
    print(f"mcpta  P2 (sender uncertain)        : {p2:.4e}")
    print(f"mcpta  Emax (expected time)         : {emax:.3f}")

    # -- modes: simulation ----------------------------------------------------
    sim = modes(network, [Pmax("P1", brp.not_success),
                          Emax("Emax", brp.reported)],
                runs=runs, rng=7, policy="max-delay")
    failures, times = sim["P1"], sim["Emax"]
    print(f"\nmodes  {runs} runs: failures={failures.successes}, "
          f"time mu={times.mean:.3f} sigma={times.std:.3f}")

    table = ResultTable("property", "mcpta (exact)", "modes (estimate)",
                        title=f"\nBRP (N,MAX,TD)=({n},{max_retrans},{td})")
    table.add_row("P1", p1, failures.mean)
    table.add_row("Emax", emax, times.mean)
    table.print()


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:4]]
    main(*args)
