"""Flow hierarchies — how ChameleMon classifies every packet's flow.

The flow classifier assigns each packet to one of three hierarchies based on
the flow's current estimated size and the thresholds ``T_l`` / ``T_h``:

* **HH candidate** — estimated size ≥ ``T_h``; encoded in the HH encoder
  (upstream) / the HL encoder (downstream).
* **HL candidate** — ``T_l`` ≤ size < ``T_h``; encoded in the HL encoders.
* **LL candidate** — size < ``T_l``; further split by flow-level sampling into
  sampled LL candidates (encoded in the LL encoders) and non-sampled LL
  candidates (not encoded at all).
"""

from __future__ import annotations

import enum


class FlowHierarchy(enum.Enum):
    """The four per-packet hierarchies of the ChameleMon data plane."""

    HH_CANDIDATE = "hh"
    HL_CANDIDATE = "hl"
    SAMPLED_LL = "sampled_ll"
    NON_SAMPLED_LL = "non_sampled_ll"
