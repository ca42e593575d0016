"""The paper's case studies as ready-made models.

Import a case study's own module (``from repro.models.traingate import
make_traingate``); the package imports none of them, so running one
case study never loads the layers the others build on.

* :mod:`~repro.models.traingate` — Fig. 1: trains + FIFO gate controller;
* :mod:`~repro.models.gate_impl` — Python gate controllers and mutants
  for online testing against the train-gate specification;
* :mod:`~repro.models.traingame` — Figs. 2-3: the timed game version;
* :mod:`~repro.models.brp` — Table I: the bounded retransmission protocol
  (PTA), and :mod:`~repro.models.brp_modest` — the same in MODEST source;
* :mod:`~repro.models.firewire` — the IEEE 1394 root contention PTA;
* :mod:`~repro.models.fischer` — Fischer's mutual exclusion protocol;
* :mod:`~repro.models.dala` — Fig. 6: the DALA rover functional level in BIP;
* :mod:`~repro.models.busspec` — Section V: testing specifications
  (FIFO software bus, timed coffee machine);
* :mod:`~repro.models.wcet` — a METAMOC-style WCET loop model.
"""
