"""Set-up probe: time ``import esrsim`` plus ``load_scenario`` in a fresh interpreter.

Usage: ``python3 setup_probe.py SRC_DIR SCENARIO``. Prints the seconds taken,
then the median of three reference-kernel times measured right after (the
first kernel call, which pays numpy's lazy set-up, is not timed). Every CLI
call pays the set-up cost before its verb starts.
"""

import statistics
import sys
import time


def main(src: str, scenario: str) -> None:
    sys.path.insert(0, src)
    start = time.perf_counter()
    import esrsim
    esrsim.load_scenario(scenario)
    elapsed = time.perf_counter() - start

    import calibration
    calibration.kernel()
    print(repr(elapsed), repr(statistics.median(calibration.kernel() for _ in range(3))))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
