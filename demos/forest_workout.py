"""The forest engine as a ground-truth generator and self-checker.

Replays an operation log through the union-by-rank engine, exports every
tree it built, and feeds each one to the recognizer; by construction they
all must be accepted.  Also shows the exhaustive small-tree enumerator and
the mutator used to manufacture near-miss negatives.
"""

import random
import time

from uftree import (
    brute_force_is_uf,
    enumerate_trees,
    export_trees,
    format_oplog,
    is_union_find_tree,
    mutate,
    random_oplog,
    random_uf_tree,
    replay,
    serialize_tree,
)


def main() -> None:
    log = [("makeset", 8), ("union", 0, 1), ("union", 2, 3), ("union", 0, 2),
           ("union", 4, 5), ("union", 6, 7), ("union", 4, 6), ("union", 0, 4),
           ("find", 7)]
    print("Op log:")
    print(format_oplog(log), end="")
    print()
    forest = replay(log)
    [exported] = export_trees(forest)
    print("The single resulting tree (element", exported.elements, "per node):")
    print(serialize_tree(exported.tree), end="")
    print("recognizer says:", is_union_find_tree(exported.tree).reason)
    print()

    print("Fuzzing 300 random logs; every exported tree must be accepted...")
    t0 = time.perf_counter()
    checked = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(1, 65)
        for e in export_trees(replay(random_oplog(n, rng.randrange(0, 257), seed))):
            assert is_union_find_tree(e.tree).accepted, (seed, e)
            checked += 1
    print(f"...{checked} trees accepted in {time.perf_counter() - t0:.2f}s")
    print()

    corpus = list(enumerate_trees(6))
    uf = sum(1 for t in corpus if brute_force_is_uf(t))
    print(f"Exhaustive corpus up to 6 nodes: {len(corpus)} trees, {uf} are Union-Find")
    print()

    base = random_uf_tree(12, seed=3, collapse_prob=0.3)
    twisted = mutate(base, seed=3)
    print("One seeded mutation of a valid tree:")
    print(serialize_tree(twisted), end="")
    print("still structurally valid, recognizer verdict:",
          is_union_find_tree(twisted).reason)


if __name__ == "__main__":
    main()
