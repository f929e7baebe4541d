"""Fixed-seed experiment outputs pinned three ways.

Each case runs :func:`flexarray.harness.run_experiment` in-process on a small
configuration and splits its ``csv_text`` into the ``# key: value`` header
and the body (every line after it). ``tests/data/golden_csv.json`` holds, per
case, the SHA-256 of the body, the header's key set and its config hash;
``tests/data/golden_values.json`` holds every cell of the body.

- The body digest is compared with ``==``: a refactor that is meant to leave
  results alone keeps every digest.
- The header keys and the config hash are compared with ``==``, so a header
  line can be added without touching a body digest.
- The value record agrees within ``VALUE_RTOL`` relative for numeric cells and
  exactly for integer and text cells. A change that moves results by
  rounding re-records the digests and shows here that it stayed within the
  bound.

The digests pin this CPU's BLAS kernels as well as the code, since OpenBLAS
picks its kernels by CPU at run time and each kernel rounds its own way. So
one test reruns the value check and the pinned ``optimize`` traces of
``tests/test_bayesopt.py`` in a child process told to use OpenBLAS's Haswell
kernels: every trace point must be equal, and every value within
``VALUE_RTOL``. Another child process under those kernels checks that the
Fisher grams' block sums still equal the dense contraction bit for bit.

``python tests/test_golden.py --check`` prints the largest relative deviation
of each case from the value record. ``python tests/test_golden.py`` re-records
both files after an intended change of results; with ``--digests`` it
re-records only ``golden_csv.json``, for a change that moves results by
rounding and keeps the value record it is measured against. ``--case NAME
[NAME ...]`` limits any of these to the named cases (for instance a new one);
every other entry of both files stays byte for byte as it was.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flexarray.harness import run_experiment

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
GOLDEN = DATA / "golden_csv.json"
VALUES = DATA / "golden_values.json"
VALUE_RTOL = 1e-9  # the ZF guard admits cond(H) up to 1e6, which amplifies rounding

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
    "crb-sweep-cosine2": dict(experiment="crb-sweep", model="all", pattern="cosine", kappa=2.0,
                              draws=2, nh=4, nv=4, grid_size=31, l_max=3),
    "power-sweep-rotate": dict(experiment="power-sweep", model="rotate"),
    "power-sweep-bend-mounted": dict(experiment="power-sweep", model="bend",
                                     pattern="cosine", kappa=2.0, mount=0.7),
    "geometry-bend-mounted": dict(experiment="geometry", model="bend", nh=4, nv=2,
                                  psi=0.8, mount=2.0),
    "pattern-cosine": dict(experiment="pattern", kind="cosine", kappa=1.5, grid=19),
}


def split_csv(case: str) -> tuple:
    """(header as {key: value}, body text) of the case's CSV output."""
    lines = run_experiment(CASES[case]).csv_text.splitlines(keepends=True)
    n_header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    header = dict(line[2:].rstrip("\n").split(": ", 1) for line in lines[:n_header])
    return header, "".join(lines[n_header:])


def pin(header: dict, body: str) -> dict:
    return {"body_sha256": hashlib.sha256(body.encode()).hexdigest(),
            "header_keys": sorted(header), "config_hash": header["config-hash"]}


def cell(text: str):
    """An integer or text cell as it is; a numeric cell as a float."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def body_cells(body: str) -> list:
    return [[cell(text) for text in line.split(",")] for line in body.splitlines()]


def deviation(recorded, got) -> float:
    """Largest relative deviation of the float cells; inf when the shape,
    an integer cell, a text cell or the kind of a cell differs."""
    if len(recorded) != len(got) or any(len(a) != len(b) for a, b in zip(recorded, got)):
        return math.inf
    worst = 0.0
    for a, b in zip((x for row in recorded for x in row), (x for row in got for x in row)):
        if type(a) is not type(b):
            return math.inf
        if isinstance(a, float) and a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
        elif not isinstance(a, float) and a != b:
            return math.inf
    return worst


@pytest.fixture(scope="module")
def outputs():
    return {}


def output(outputs: dict, case: str) -> tuple:
    if case not in outputs:
        outputs[case] = split_csv(case)
    return outputs[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixed_seed_csv_is_unchanged(case, outputs):
    header, body = output(outputs, case)
    recorded = json.loads(GOLDEN.read_text())[case]
    assert pin(header, body)["body_sha256"] == recorded["body_sha256"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_header_keys_and_config_hash_are_unchanged(case, outputs):
    header, body = output(outputs, case)
    got, recorded = pin(header, body), json.loads(GOLDEN.read_text())[case]
    assert (got["header_keys"], got["config_hash"]) == (recorded["header_keys"],
                                                        recorded["config_hash"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_values_agree_with_the_record(case, outputs):
    _, body = output(outputs, case)
    recorded = json.loads(VALUES.read_text())[case]
    assert deviation(recorded, body_cells(body)) <= VALUE_RTOL


def test_every_case_has_a_recorded_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)
    assert sorted(json.loads(VALUES.read_text())) == sorted(CASES)


OTHER_KERNEL_RUN = """
import json
import test_bayesopt, test_golden
values = json.loads(test_golden.VALUES.read_text())
bodies = {case: test_golden.split_csv(case)[1] for case in test_golden.CASES}
scenario = test_bayesopt.full_load_drop()
print(json.dumps({
    "deviations": {case: test_golden.deviation(values[case], test_golden.body_cells(body))
                   for case, body in bodies.items()},
    "traces": {run[0]: test_bayesopt.pinned_trace(scenario, *run)
               for run in test_bayesopt.PINNED_RUNS}}))
"""


def openblas_with_avx2() -> bool:
    """numpy's BLAS is OpenBLAS and this CPU can run its Haswell (AVX2) kernels."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpuinfo = Path("/proc/cpuinfo")
    return ("openblas" in blas.get("name", "") and cpuinfo.exists()
            and "avx2" in cpuinfo.read_text().split())


@pytest.mark.skipif(not openblas_with_avx2(), reason="needs numpy's OpenBLAS and an AVX2 CPU")
def test_another_blas_kernel_makes_the_same_decisions():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join([str(TESTS), str(TESTS.parent / "src")])}
    child = subprocess.run([sys.executable, "-c", OTHER_KERNEL_RUN], env=env, check=True,
                           capture_output=True, text=True, timeout=600)
    got = json.loads(child.stdout)
    assert sorted(got["deviations"]) == sorted(CASES)
    assert max(got["deviations"].values()) <= VALUE_RTOL, got["deviations"]
    traces = json.loads((DATA / "optimize_traces.json").read_text())
    for strategy, rows in got["traces"].items():
        recorded = traces[strategy]
        assert [row[:-1] for row in rows] == [row[:-1] for row in recorded]
        assert all(math.isclose(row[-1], pinned[-1], rel_tol=VALUE_RTOL)
                   for row, pinned in zip(rows, recorded))


@pytest.mark.skipif(not openblas_with_avx2(), reason="needs numpy's OpenBLAS and an AVX2 CPU")
def test_another_blas_kernel_gives_the_block_sums_the_dense_bits():
    """The Fisher grams' block sums equal the dense BLAS contraction under the Haswell kernels
    too: each of its entries is a fixed sum of at most two terms, whatever the kernel."""
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join([str(TESTS), str(TESTS.parent / "src")])}
    child = subprocess.run([sys.executable, "-c", "import json, test_estimation; "
                            "print(json.dumps(test_estimation.block_sum_checks()))"],
                           env=env, check=True, capture_output=True, text=True, timeout=600)
    got = json.loads(child.stdout)
    assert len(got["planted"]) == 12 and got["crb-sweep"]
    assert all(got["planted"]) and all(got["crb-sweep"]), got


@pytest.fixture
def recorded_copies(tmp_path):
    """Copies of both record files in ``tmp_path`` and their original bytes."""
    copies = {path: tmp_path / path.name for path in (GOLDEN, VALUES)}
    for path, copy in copies.items():
        copy.write_bytes(path.read_bytes())
    return copies[GOLDEN], copies[VALUES], GOLDEN.read_bytes(), VALUES.read_bytes()


def test_recording_nothing_rewrites_both_files_byte_for_byte(recorded_copies):
    golden, values, golden_bytes, values_bytes = recorded_copies
    record({}, golden=golden, values=values)
    assert (golden.read_bytes(), values.read_bytes()) == (golden_bytes, values_bytes)


@pytest.mark.parametrize("digests_only", [False, True])
def test_recording_one_case_leaves_every_other_entry(recorded_copies, digests_only):
    golden, values, golden_bytes, values_bytes = recorded_copies
    header, body = {"config-hash": "0123"}, "x,y\n1,2.5\n"
    record({"pattern-cosine": (header, body)}, digests_only, golden=golden, values=values)
    pins, cells = json.loads(golden.read_text()), json.loads(values.read_text())
    assert pins.pop("pattern-cosine") == pin(header, body)
    old_pins = json.loads(golden_bytes)
    old_pins.pop("pattern-cosine")
    assert pins == old_pins
    if digests_only:
        assert values.read_bytes() == values_bytes
    else:
        assert cells["pattern-cosine"] == [["x", "y"], [1, 2.5]]
        record({"pattern-cosine": split_csv("pattern-cosine")}, golden=golden, values=values)
        assert (golden.read_bytes(), values.read_bytes()) == (golden_bytes, values_bytes)


def test_unknown_case_name_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--case", "pattern-cosine", "no-such-case"])
    assert exited.value.code != 0
    assert "no-such-case" in capsys.readouterr().err


def test_deviation_is_exact_for_integer_and_text_cells():
    assert deviation([[1, 0.5, "a"]], [[1, 0.5 * (1 + 1e-12), "a"]]) == pytest.approx(1e-12)
    for got in ([[2, 0.5, "a"]], [[1, 0.5, "b"]], [[1.0, 0.5, "a"]], [[1, 0.5]], []):
        assert deviation([[1, 0.5, "a"]], got) == math.inf


def record(outputs: dict, digests_only: bool = False, golden: Path = GOLDEN,
           values: Path = VALUES) -> None:
    """Re-record the cases of ``outputs`` ({case: (header, body)}) in both files, or in
    ``golden`` only with ``digests_only``; every other entry is written back as it was."""
    def rewrite(path: Path, entries: dict, **dump) -> None:
        old = json.loads(path.read_text()) if path.exists() else {}
        merged = {case: entries[case] if case in entries else old[case]
                  for case in sorted(CASES) if case in entries or case in old}
        path.write_text(json.dumps(merged, **dump) + "\n")

    rewrite(golden, {case: pin(*out) for case, out in outputs.items()}, indent=1)
    if not digests_only:
        rewrite(values, {case: body_cells(body) for case, (_, body) in outputs.items()})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Check or re-record the golden CSV pins.")
    parser.add_argument("--check", action="store_true",
                        help="print each case's largest deviation from the value record")
    parser.add_argument("--digests", action="store_true",
                        help="re-record golden_csv.json only and keep the value record")
    parser.add_argument("--case", nargs="+", choices=sorted(CASES), metavar="NAME",
                        help="only these cases (default: all)")
    args = parser.parse_args(argv)
    outputs = {case: split_csv(case) for case in sorted(args.case or CASES)}
    if args.check:
        recorded = json.loads(VALUES.read_text())
        for case, (_, body) in outputs.items():
            print(f"{case}: {deviation(recorded[case], body_cells(body)):.3g}")
    else:  # re-record after an intended change of results
        record(outputs, digests_only=args.digests)


if __name__ == "__main__":
    main()
