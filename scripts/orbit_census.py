#!/usr/bin/env python3
"""Census of all closed-surface words over a small symbol set.

Enumerates every valid word (each symbol used exactly twice, any subset of
the given symbols), certifies each one's normalization, groups them by
normalized type, and then checks that a breadth-first orbit from one
representative per type reaches exactly the words of that type.  A word is
certified when its normalized type is the one its invariants give and its
trace replays to that type's canonical word letter for letter; every word
that is not is printed, and the script exits 1.  With three symbols this is
1055 cyclic words and runs in about a second; four symbols is 84,728 words,
whose certificates alone take about twenty seconds, and the orbit floods
are slow.

Usage:
    python scripts/orbit_census.py
    python scripts/orbit_census.py --symbols a,b --budget 50000 --skip-orbits
"""

import argparse
import sys
import time

from surfclass.moves import replay
from surfclass.normalize import normalize
from surfclass.orbit import enumerate_words, orbit_oracle
from surfclass.words import canonical_word, classify_by_invariants


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--symbols", default="a,b,c",
                        help="comma-separated symbol names (default a,b,c)")
    parser.add_argument("--budget", type=int, default=100_000,
                        help="orbit search node budget (default 100000)")
    parser.add_argument("--skip-orbits", action="store_true",
                        help="only count types, skip the orbit cross-check")
    args = parser.parse_args(argv)
    args.symbols = tuple(s.strip() for s in args.symbols.split(",") if s.strip())
    if not args.symbols:
        parser.error("need at least one symbol")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    universe = enumerate_words(args.symbols)
    by_type = {}
    uncertified = 0
    for w in universe:
        result = normalize(w)
        t = result.type
        want = classify_by_invariants(w)
        final = replay(result.trace)
        if t != want or final.letters != canonical_word(t).letters:
            print(f"  {w.render()!r}: normalized to {t}, invariants give {want}, "
                  f"trace ends on {final.render()!r}")
            uncertified += 1
        by_type.setdefault(t, set()).add(w)
    print(f"{len(universe)} cyclic words over {{{', '.join(args.symbols)}}}, "
          f"{len(by_type)} surface types, "
          f"{len(universe) - uncertified} certified "
          f"({time.perf_counter() - t0:.2f}s)")

    ok = uncertified == 0
    for t in sorted(by_type, key=str):
        slice_ = by_type[t]
        line = f"  {str(t):<18} {len(slice_):>5} words"
        if not args.skip_orbits:
            rep = min(slice_, key=lambda w: (len(w), w.render()))
            orb = orbit_oracle(rep, max_symbols=len(args.symbols), budget=args.budget)
            match = orb.exhausted and orb.words == frozenset(slice_)
            ok = ok and match
            line += (f"   orbit from {rep.render()!r}: "
                     f"{len(orb.words)} words, "
                     f"{'exhausted' if orb.exhausted else 'budget hit'}, "
                     f"{'MATCH' if match else 'MISMATCH'}")
        print(line)

    if not args.skip_orbits:
        print("orbit partition matches type classes" if ok
              else "orbit partition DISAGREES with type classes")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
