"""Record the sha256 digests of the exact-tier CLI outputs into digests.json.

    python3 bench/record_digests.py

The exact-suite workload compares its ``scenario`` CSV, ``flat-verify`` CSV
and ``compare`` JSON (on the scenario's exact spectrum pair) with these
digests, for every argument the seed can pick at benchmark and smoke-test
sizes.  Re-record only when machine output is meant to change.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from isogeo import scenario  # noqa: E402

from inputs import CLI_ORBIFOLDS, EXACT_QS, SIZES, TINY  # noqa: E402
from workloads import dump_text, read_bytes, run_cli  # noqa: E402


def main() -> None:
    workdir = os.path.join(HERE, "out", "digests")
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "out")
    digests = {}

    def record(key: str, argv: list) -> None:
        run_cli(argv + ["--out", out])
        digests[key] = hashlib.sha256(read_bytes(out)).hexdigest()

    for sizes in (SIZES["exact-suite"], TINY["exact-suite"]):
        n, m, cn = sizes["cli_n"], sizes["cli_max_norm"], sizes["cli_compare_n"]
        for q in EXACT_QS:
            record(f"scenario --q {q} --n {n}", ["scenario", "--q", str(q), "--n", str(n)])
            paths = [os.path.join(workdir, "first.json"), os.path.join(workdir, "second.json")]
            for spec, path in zip(scenario.to_spectra(scenario.build_scenario(q, cn)), paths):
                with open(path, "w") as fp:
                    fp.write(dump_text(spec))
            record(f"compare scenario --q {q} --n {cn} --format json",
                   ["compare", "--a", paths[0], "--b", paths[1], "--format", "json"])
        for family, orbifolds in CLI_ORBIFOLDS.items():
            for orbifold in orbifolds:
                argv = ["flat-verify", "--family", family, "--max-norm", str(m),
                        "--emit-spectrum", orbifold]
                record(" ".join(argv), argv)
    with open(os.path.join(HERE, "digests.json"), "w") as fp:
        json.dump(digests, fp, indent=1, sort_keys=True)
        fp.write("\n")


if __name__ == "__main__":
    main()
