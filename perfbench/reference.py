"""Fixed reference work that gauges the machine's speed, independent of geomint.

    python3 perfbench/reference.py

A fresh process imports numpy and runs a fixed mix of pure-Python float
arithmetic on tuples (as the so3 kernels do) and small numpy solves (as the
finite-difference Newton in odecore does).  It never imports geomint, so no
change to the program can move it; its wall and CPU time move only with the
machine.  ``run.py`` runs it between repetitions and scales the end-to-end
timings by it.
"""

import numpy as np

ITERATIONS = 80_000


def work(n: int) -> float:
    acc = 0.0
    v = (0.3, -0.2, 0.9)
    a = np.array([[4.0, 1.0, 0.0, 0.5], [1.0, 3.0, 0.2, 0.0], [0.0, 0.2, 5.0, 1.0], [0.5, 0.0, 1.0, 2.0]])
    b = np.ones(4)
    for i in range(n):
        x, y, z = v
        v = (0.99 * x + 0.01 * y * z, 0.99 * y - 0.01 * x * z, 0.99 * z + 0.01 * (x - y))
        acc += x * x + y * y + z * z
        if i % 8 == 0:
            e = np.zeros(4)
            e[i % 4] = 1e-6
            acc += float(np.max(np.abs(np.linalg.solve(a, b + e))))
    return acc


if __name__ == "__main__":
    print(repr(work(ITERATIONS)))
