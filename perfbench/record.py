"""Write reference.json: exact closed-form values for every N the
closed_form workload can draw, computed by the code under `src/`.

    python3 perfbench/record.py

The values were recorded once from the commit that introduced the benchmark,
for the N where no cheap independent reference exists.  Before writing, each
value is checked against what independent routes reach: the by-direction
count for N <= 300 and the gcd-sum identity for r_N(0) up to N = 2000.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from commucount.count2 import (  # noqa: E402
    count_commuting_2x2,
    count_commuting_2x2_by_direction,
    gamma_split,
)
from commucount.divisor import r_zero  # noqa: E402

from check import r_zero_reference  # noqa: E402
from workloads import LARGE_N, REFERENCE_FILE, SMALL_N  # noqa: E402


def main() -> int:
    values = {}
    for n in sorted(set(SMALL_N) | set(LARGE_N)):
        count = count_commuting_2x2(n)
        split = gamma_split(n)
        rz = r_zero(n)
        if split.degenerate + split.nondegenerate != count:
            raise SystemExit(f"N={n}: split does not sum to the count")
        if n <= 300 and count != count_commuting_2x2_by_direction(n):
            raise SystemExit(f"N={n}: count disagrees with the by-direction route")
        if n <= 2000 and rz != r_zero_reference(n):
            raise SystemExit(f"N={n}: r_zero disagrees with the gcd-sum identity")
        values[str(n)] = {
            "count": str(count),
            "degenerate": str(split.degenerate),
            "nondegenerate": str(split.nondegenerate),
            "r_zero": str(rz),
        }
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"closed_form": values}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(values)} entries to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
