"""Record the link_eval reference values for the default seed.

    python3 bench/record_reference.py

Writes ``bench/link_eval_reference.json``: for each of the first
``REFERENCE_OPS`` link_eval ops at seed 0, the library's link value (link
ops) or the benchmark's own value of the base word (Markov ops).  Each value
is recorded only after it agreed with the other route, and the checks of
later runs compare against it, so a change to either route shows.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    w = workloads.WORKLOADS["link_eval"]
    seed = workloads.DEFAULT_SEED
    values = []
    for i in range(workloads.REFERENCE_OPS):
        inp = w.make_input(seed, i)
        out = w.run(inp)
        e = out["e"]
        own, tol = workloads.own_link_value(e.R, e.mu, e.x, e.y, inp["word"].letters,
                                              inp["strands"])
        value = out["value"] if inp["kind"] == "link" else own
        if abs(value - own) > tol:
            raise SystemExit(f"op {i}: library and own values disagree")
        values.append([value.real, value.imag])
    with open(workloads.LINK_REFERENCE, "w") as fh:
        json.dump({"seed": seed, "values": values}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(values)} values to {workloads.LINK_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
