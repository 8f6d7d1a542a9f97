import os
import sys

from .cli import main

if __name__ == "__main__":
    # Only this launcher reads THETA_JORDAN_CORRUPT_MUL: it plants the cyclic
    # law (i + j) mod n, an abelian one every run must reject, for perfbench's
    # self-test.  These lines go once that test plants the law itself (the
    # benchmark item of ROADMAP.md).
    if os.environ.get("THETA_JORDAN_CORRUPT_MUL"):
        from .heis import ThetaGroup
        ThetaGroup._mul = lambda self, i, j: (i + j) % self.order
        ThetaGroup._inv = lambda self, i: -i % self.order
    sys.exit(main())
