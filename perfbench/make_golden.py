"""Write golden.json: the digest of every op's stdout at the default seed.

    python3 perfbench/make_golden.py

Run it on the commit whose outputs are the reference.  Every richardson and
deodhar output, the seed-independent u = id listing included, must pass its
oracle before it is recorded.
"""

import json

from check import GOLDEN, ORACLES
from run import run_pass
from workloads import DEFAULT_SEED, WORKLOADS, Op

#: Oracle for each subcommand that has one.
BY_COMMAND = {"complexity": "richardson", "deodhar": "deodhar"}


def main() -> None:
    golden = {}
    for workload in WORKLOADS.values():
        ops = [Op(op.argv, BY_COMMAND.get(op.argv[0]))
               for op in workload.make_ops(DEFAULT_SEED)]
        result = run_pass(ops, [list(s) for s in workload.systems], False)
        for op, out in zip(ops, result["ops"]):
            if out["exit"] != 0:
                raise SystemExit(f"{op.key!r} exited with {out['exit']}")
            if op.check:
                ORACLES[op.check](op.argv, out["text"])
            golden[op.key] = {"exit": 0, "sha256": out["sha256"],
                              "bytes": out["bytes"]}
        print(f"{workload.name}: {len(ops)} ops")
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump({"seed": DEFAULT_SEED, "ops": golden}, f, indent=1,
                  sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
