"""One-off timing of the acceptance builds, too long to serve as workloads.

    python3 perfbench/reference.py

Times ``standard_form`` on A1 at cutoff 6 and on A2 at cutoff 4 once each,
in one process on one thread, and checks that the ranks equal the graded
dimensions from the theta series.  Prints one line per build with the
speed-corrected time (as ``op_s`` in run.py) and the raw wall time.
"""

import os
import sys
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from speed import SpeedSampler  # noqa: E402
import voaforms.forms as fm  # noqa: E402
from voaforms.voa import EvenLattice, TruncatedVOA  # noqa: E402

BUILDS = (("A1", [[2]], 6), ("A2", [[2, 1], [1, 2]], 4))


def main():
    ok = True
    timer = SpeedSampler()
    for label, gram, cutoff in BUILDS:
        timer.start()
        J = fm.standard_form(TruncatedVOA(EvenLattice(gram), cutoff))
        wall, scaled = timer.stop()
        ranks = [J.rank(d) for d in range(cutoff + 1)]
        dims = oracles.graded_dimensions(gram, cutoff)
        ok = ok and ranks == dims
        print(f"standard_form {label} N={cutoff}: {scaled:.1f} s "
              f"(wall {wall:.1f} s), ranks {ranks}"
              f"{'' if ranks == dims else f' != dimensions {dims}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
