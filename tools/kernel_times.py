#!/usr/bin/env python3
"""Time the keyed vector store (``VectorRows``) in-process: add, copy, search.

For each row kind and store size the table gives, in microseconds, the
median over ``--repeats`` timed batches of:

- ``add``: one ``add``, averaged over filling an empty store to the size;
- ``copy``: one ``copy`` of the filled store, after a first copy (the cost
  a warm ``AppIndex.build`` pays);
- ``search k=1`` and ``search k=3``: one ``search``, averaged over a fixed
  set of queries.

Row kinds:

- ``hashed``: the reference embedder's unit rows (``hashed-token-384``) of
  8-token texts over a 6,000-word vocabulary; each query is 4 tokens of one
  stored text, so it is sparse and hits.
- ``dense``: seeded Gaussian unit rows and queries at d = 384, the shape of
  a learned encoder's vectors (``HttpEmbedderBackend``).

The library is imported from ``PYTHONPATH``, so the same script times any
checkout. BLAS is pinned to one thread. Run from the repository root:

    PYTHONPATH=src python3 tools/kernel_times.py [--sizes 14 200 2000 5000] [--repeats 7]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from pocketrag.embedding import HashedTokenEmbedder, VectorRows, embed_row  # noqa: E402

DIMENSION = 384
QUERIES = 64


def hashed_case(count: int, seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Unit rows of ``count`` 8-token texts, and 4-token queries drawn from them."""
    rng = random.Random(seed)
    backend = HashedTokenEmbedder(DIMENSION)
    vocab = [f"w{i:04d}x" for i in range(6000)]
    texts = [rng.sample(vocab, 8) for _ in range(count)]
    rows = [embed_row(backend, " ".join(text)) for text in texts]
    queries = [embed_row(backend, " ".join(rng.sample(rng.choice(texts), 4))) for _ in range(QUERIES)]
    return rows, queries


def dense_case(count: int, seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``count`` seeded Gaussian unit rows, and as many Gaussian unit queries."""
    rng = np.random.default_rng(seed)
    units = [v / np.sqrt(v @ v) for v in rng.standard_normal((count + QUERIES, DIMENSION))]
    return units[:count], units[count:]


def median_us(run, per: int, repeats: int) -> float:
    """The median over ``repeats`` calls of ``run``, in µs per one of its ``per`` steps."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) / per * 1e6)
    return statistics.median(times)


def measure(rows: list[np.ndarray], queries: list[np.ndarray], repeats: int) -> dict[str, float]:
    keys = [f"key{i:05d}" for i in range(len(rows))]

    def fill() -> VectorRows:
        store = VectorRows(DIMENSION)
        for key, row in zip(keys, rows):
            store.add(key, row)
        return store

    times = {"add": median_us(fill, len(rows), repeats)}
    store = fill()
    store.copy()
    times["copy"] = median_us(store.copy, 1, repeats)
    for k in (1, 3):
        times[f"search k={k}"] = median_us(
            lambda: [store.search(query, k) for query in queries], len(queries), repeats
        )
    return times


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Time VectorRows add, copy and search.")
    parser.add_argument("--sizes", type=int, nargs="+", default=[14, 200, 2000, 5000])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    columns = ["add", "copy", "search k=1", "search k=3"]
    print(f"{'rows':8} {'n':>6} " + " ".join(f"{c:>11}" for c in columns) + "   (µs)")
    for kind, case in (("hashed", hashed_case), ("dense", dense_case)):
        for count in args.sizes:
            times = measure(*case(count, args.seed), args.repeats)
            print(f"{kind:8} {count:6} " + " ".join(f"{times[c]:11.2f}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
