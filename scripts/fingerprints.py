"""SHA-256 of each benchmark workload's outputs, for checking that a
change keeps them bit for bit.

    python3 scripts/fingerprints.py [--seeds 0 1 2]

For every workload of bench/workloads.py and every seed, runs one round
(reset(), then each of its stages in order) and prints one line,
`workload seed sha256(repr(fingerprint()))`. Run it at two commits and
compare the lines: equal digests mean equal outputs on those inputs.
"""

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402


def digest(name, seed, work):
    workload = workloads.WORKLOADS[name](seed, work)
    workload.reset()
    for _, stage in workload.stages():
        stage()
    return hashlib.sha256(repr(workload.fingerprint()).encode("utf-8")).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                work = os.path.join(tmp, f"{name}-{seed}")
                print(f"{name} {seed} {digest(name, seed, work)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
