"""A fixed unit of work that run.py times in a fresh interpreter between
measured invocations, to factor out how fast the shared host is running.

    python3 bench/calibrate.py

It does in small what an invocation does: start an interpreter, build
rows, parse them as CSV, transpose them into columns, count categories,
group rows, select strata, dump JSON and hash it. The work never changes, so its wall
time moves only with the host: the CPU share, cache and memory bandwidth
that other tenants leave, and the cost of faulting in fresh pages.
"""

import csv
import hashlib
import io
import json
import math
import random
from collections import Counter

#: Rows of the CSV pass; rows of the object pass, which gathers rows in
#: shuffled order from a heap the size of a small table, so that it
#: stalls on cache misses the way the engine's column passes do.
CSV_ROWS = 8_000
OBJECT_ROWS = 25_000
SEED = 20260417


def csv_pass(rng: random.Random) -> str:
    text = "\n".join(
        f"a{rng.randrange(400):03d},{rng.choice(('female', 'male'))},"
        f"{rng.randrange(2)},{rng.randrange(2)},{rng.random():.6f}"
        for _ in range(CSV_ROWS)
    )
    rows = list(csv.reader(io.StringIO(text)))
    counts = [Counter(column) for column in zip(*rows)]
    groups: dict[str, list[list[str]]] = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    summary = {
        label: [len(members), sum(float(row[4]) for row in members)]
        for label, members in sorted(groups.items())
    }
    return json.dumps([summary, [sorted(c.items()) for c in counts]], indent=2)


def object_pass(rng: random.Random) -> str:
    rows = [
        [f"a{rng.randrange(400):03d}", rng.choice(("female", "male")), rng.random(), i]
        for i in range(OBJECT_ROWS)
    ]
    order = list(range(OBJECT_ROWS))
    rng.shuffle(order)
    groups: dict[str, list[list]] = {}
    for i in order:
        groups.setdefault(rows[i][0], []).append(rows[i])
    columns = [tuple(rows[i][k] for i in order) for k in range(4)]
    strata = {}
    for label, members in sorted(groups.items()):
        for gender in ("female", "male"):
            chosen = [row[2] for row in members if row[1] == gender]
            strata[f"{label}/{gender}"] = [len(chosen), math.fsum(chosen)]
    return json.dumps([strata, len(columns[0])])


def main() -> None:
    rng = random.Random(SEED)
    blob = csv_pass(rng) + object_pass(rng)
    print(hashlib.sha256(blob.encode()).hexdigest())


if __name__ == "__main__":
    main()
