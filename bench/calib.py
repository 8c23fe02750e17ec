"""Fixed reference work that measures how fast the machine is right now.

    python3 bench/calib.py

On a shared machine the speed of a process drifts by 20-30% over minutes,
and the drift is common to all interpreter-bound work. The benchmark runs
this child between workload runs and scales its timings by it (see
REF_S in run.py). It imports nothing from qgdrive, so no change to the
program can move it. The work mixes what the workloads do: start the
interpreter and import numpy, scalar float arithmetic in a Python loop
(like the IDM model), stepping a frozen dataclass with scalar draws from a
numpy Generator (like the episode integrator and its decision callbacks),
and many small numpy calls (like the per-grid-point circuit).
"""

import math
from dataclasses import dataclass

import numpy as np

LOOP = 35_000
STEPS = 20_000
SMALL_NUMPY = 1_000


@dataclass(frozen=True)
class State:
    s: float
    v: float


def step(state, a, dt):
    if state.v + a * dt < 0.0:
        a = -state.v / dt
    return State(state.s + state.v * dt + 0.5 * a * dt * dt, state.v + a * dt)


def main() -> float:
    acc = 0.0
    for i in range(LOOP):
        v = 18.0 + (i % 40) * 0.1
        gap = 20.0 + (i % 13)
        s_star = 2.0 + max(0.0, v * 1.5 + v * (v - 19.0) / (2.0 * math.sqrt(3.0)))
        acc += 1.5 * (1.0 - (v / 25.0) ** 4 - (s_star / gap) ** 2)
    rng = np.random.default_rng(0)
    state = State(0.0, 10.0)
    for _ in range(STEPS):
        state = step(state, float(rng.random()) - 0.5, 0.1)
    acc += state.s
    u = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=np.complex128)
    psi = np.full(4, 0.5, dtype=np.complex128)
    for _ in range(SMALL_NUMPY):
        p = np.abs(np.kron(u, u) @ psi) ** 2
        acc += float(p.sum())
    return acc


if __name__ == "__main__":
    main()
