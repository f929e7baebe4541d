"""Fixed-seed experiment outputs pinned by the SHA-256 of their CSV text.

Each case runs :func:`flexarray.harness.run_experiment` in-process on a small
configuration and compares the digest of ``csv_text`` (config-hash line
included) with the one stored in ``tests/data/golden_csv.json``. A refactor
that is meant to leave results alone must keep every digest; a change that
moves results on purpose re-records them with ``python tests/test_golden.py``
and explains the difference.
"""

import hashlib
import json
from pathlib import Path

import pytest

from flexarray.harness import run_experiment

GOLDEN = Path(__file__).parent / "data" / "golden_csv.json"

_SUMRATE_BUDGETS = dict(trials=1, budget_1d=6, budget_3d=8)
_SUMRATE_SETUPS = {
    "omni-rotate-k4": dict(model="rotate", k_users=4),
    "cosine2-bend-full": dict(model="bend", pattern="cosine", kappa=2.0, full_load=True),
}

CASES = {
    **{f"sumrate-{strategy}-{name}": dict(experiment="sumrate", strategy=strategy,
                                           **setup, **_SUMRATE_BUDGETS)
       for strategy in ("sfp", "jfp", "sjfp") for name, setup in _SUMRATE_SETUPS.items()},
    **{f"bo-trace-{objective}": dict(experiment="bo-trace", objective=objective, sector=2,
                                     model="fold", pattern="cosine", kappa=2.0, budget=8)
       for objective in ("single-sector", "sfp", "jfp", "sjfp")},
    "crb-sweep": dict(experiment="crb-sweep", model="all", draws=2, nh=4, nv=4,
                      grid_size=31, l_max=3),
    "power-sweep-rotate": dict(experiment="power-sweep", model="rotate"),
    "power-sweep-bend-mounted": dict(experiment="power-sweep", model="bend",
                                     pattern="cosine", kappa=2.0, mount=0.7),
    "geometry-bend-mounted": dict(experiment="geometry", model="bend", nh=4, nv=2,
                                  psi=0.8, mount=2.0),
    "pattern-cosine": dict(experiment="pattern", kind="cosine", kappa=1.5, grid=19),
}


def digest(case: str) -> str:
    return hashlib.sha256(run_experiment(CASES[case]).csv_text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixed_seed_csv_is_unchanged(case):
    assert digest(case) == json.loads(GOLDEN.read_text())[case]


def test_every_case_has_a_recorded_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":  # re-record the digests after an intended change of results
    GOLDEN.write_text(json.dumps({case: digest(case) for case in sorted(CASES)}, indent=1) + "\n")
