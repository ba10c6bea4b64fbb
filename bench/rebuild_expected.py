"""Rebuild bench/expected.json by bounded model search.

    python3 bench/rebuild_expected.py

Uses only the reference evaluator, never `dmt`.  The file lists, for
every input a run can draw, the formulas that have no model within the
bound and the queries that have no countermodel within the bound:

* decide: every pool formula f and its negation ~f, over atoms p, q, r
  and modalities a, b, in all models with at most 2 worlds (49,184).
* oracle: every core formula of size at most 6, over atom p and
  modality a, in all models with at most 3 worlds (78,020).
* entail: every drawn query over the power-plant KB.  The models with at
  most 2 worlds over atoms c, h, p and modalities f, m in which the KB
  holds globally are found once; a query has a countermodel when it
  fails at some world of one of them.

A closed tableau or an Entailed verdict is accepted only for an input
listed here.  Takes several minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import formulas as F
import reference as R

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

DECIDE_BOUND = 2
ORACLE_BOUND = 3
ENTAIL_BOUND = 2


def no_model(candidates, models):
    """The renderings of the candidates that hold nowhere in `models`."""
    out = []
    for f in candidates:
        if not any(R.extension(m, f) for m in models):
            out.append(F.render(f))
    return sorted(out)


def main():
    start = time.perf_counter()
    decide_models = list(R.models(F.DECIDE_ATOMS, F.DECIDE_MODALITIES,
                                  DECIDE_BOUND))
    pool = F.decide_pool()
    decide = no_model(pool + [F.neg(f) for f in pool], decide_models)
    del decide_models
    print(f"decide: {len(decide)} without a model "
          f"({time.perf_counter() - start:.0f} s)", file=sys.stderr)

    oracle_models = list(R.models(("p",), ("a",), ORACLE_BOUND))
    oracle = no_model(F.core_corpus(), oracle_models)
    del oracle_models
    print(f"oracle: {len(oracle)} without a model "
          f"({time.perf_counter() - start:.0f} s)", file=sys.stderr)

    kb_models = [m for m in R.models(F.KB_ATOMS, F.KB_MODALITIES,
                                     ENTAIL_BOUND)
                 if all(R.globally(m, g) for g in F.POWERPLANT_KB)]
    entailed = [F.render(q) for q in F.entail_pool()
                if all(R.globally(m, q) for m in kb_models)]
    print(f"entail: {len(entailed)} without a countermodel among "
          f"{len(kb_models)} KB models "
          f"({time.perf_counter() - start:.0f} s)", file=sys.stderr)

    data = {
        "decide": {"max_worlds": DECIDE_BOUND, "no_model": decide},
        "oracle": {"max_worlds": ORACLE_BOUND, "no_model": oracle},
        "entail": {"max_worlds": ENTAIL_BOUND, "kb_models": len(kb_models),
                   "no_countermodel": sorted(entailed)},
    }
    with open(EXPECTED, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
