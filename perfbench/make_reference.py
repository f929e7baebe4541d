"""Write reference.json: the outputs of each workload that do not depend on
the GP search, for operations 0..REFERENCE_OPS-1 of the reference seed.

``run.py`` compares its reference panel (and, under ``--seed`` equal to the
reference seed, its timed operations) with these values to 1e-9 relative.
Regenerate only for a change that is meant to alter them, and say why.

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

import run

REFERENCE_OPS = 16


def main() -> int:
    os.environ.update({name: run.BLAS_THREADS for name in run.BLAS_ENV})
    sys.path.insert(0, str(run.SRC))
    import workloads

    references = {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        references[name] = {}
        for index in range(REFERENCE_OPS):
            op = workload.build(run.REFERENCE_SEED, index)
            output = workload.run(op)
            problems = workload.check(op, output)
            if problems:
                raise RuntimeError(f"{name} op {index}: {problems}")
            references[name][str(index)] = workload.reference_values(output)
        print(f"{name}: {REFERENCE_OPS} operations", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
