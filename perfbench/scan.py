"""Sub-step cost scan: one engine step on the transverse-field Ising chain at
n = 2..10 qubits, in four mode/strategy pairs, with operators prebuilt.

``faithful_a`` and ``effective_a`` apply the single 2-site bond term xx(0,1);
the B-global modes apply every ising-local term in one deferred-measurement
step.  A size whose operators and joint state would need more than
``BYTE_BUDGET`` bytes is skipped, not run: faithful B-global at n = 3 alone
would embed 24 Kraus operators of 4096 x 4096 (about 6.4 GB).

The operators are prebuilt with the engine's own ``cswap_channel`` and
``embed_operator``, as ``engine.run`` prebuilds them for a sweep; a change
that removes those has to update this file.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from sbqs.engine import cswap_channel, step_strategy_a, step_strategy_b
from sbqs.experiment import uniform_state
from sbqs.hamiltonian import IsingParams, decompose_ising_local
from sbqs.linalg import RegisterLayout, embed_operator, qubit_layout

MODES = ("faithful_a", "effective_a", "effective_bglobal", "faithful_bglobal")
SIZES = tuple(range(2, 11))
BYTE_BUDGET = 96 * 2**20

#: Largest |delta| of a step; every term gets DELTA * weight / max |weight|.
DELTA = 0.01

#: Each size is timed over at least MIN_CALLS calls and MIN_SECONDS, after one
#: untimed call, and reported as the median call.
MIN_CALLS, MAX_CALLS, MIN_SECONDS = 3, 200, 0.05

_COMPLEX_BYTES = 16
_EIG_DROP = 1e-15  # the engine drops resource eigenvalues at or below this


def _decomposition(n: int):
    # a periodic chain needs n >= 3, so n = 2 is the open chain with one bond
    return decompose_ising_local(IsingParams(n, 1.0, 1.0, "periodic" if n >= 3 else "open"))


def bytes_needed(mode: str, n: int) -> int:
    """Bytes of the operators and states one step of ``mode`` holds at ``n`` qubits.

    Effective steps hold the embedded terms plus about five d x d work
    matrices; faithful steps hold the Kraus operators on control register and
    simulator plus about four joint-state matrices of the same size.
    """
    dec = _decomposition(n)
    d2 = (2**n) ** 2 * _COMPLEX_BYTES
    if mode == "effective_a":
        return (1 + 5) * d2
    if mode == "effective_bglobal":
        return (dec.ell + 5) * d2
    terms = dec.terms[:1] if mode == "faithful_a" else dec.terms
    joint = (2 ** len(terms)) ** 2 * d2
    kraus = sum(int(np.sum(np.linalg.eigvalsh(t.rho) > _EIG_DROP)) * 2 ** len(t.support)
                for t in terms)
    return (kraus + 4) * joint


def _step(mode: str, n: int):
    """A zero-argument call running one step of ``mode`` on ``n`` qubits."""
    dec = _decomposition(n)
    sigma = uniform_state(n)
    layout = qubit_layout(n)
    embs = [embed_operator(t.rho, layout, [f"q{s}" for s in t.support]) for t in dec.terms]
    deltas = [DELTA * t.weight / dec.h_max for t in dec.terms]
    faithful = mode.startswith("faithful")
    engine_mode = "faithful" if faithful else "effective"
    if mode.endswith("_a"):
        term = dec.terms[0]
        kraus = cswap_channel(term.rho, term.support, n) if faithful else None
        return lambda: step_strategy_a(sigma, term, deltas[0], mode=engine_mode,
                                       kraus=kraus, rho_emb=embs[0])
    embedded = None
    if faithful:
        ell = dec.ell
        big = RegisterLayout(tuple((f"c{i + 1}", 2) for i in range(ell)) + (("S", 2**n),))
        embedded = [
            [embed_operator(k, big, [f"c{i + 1}", "S"])
             for k in cswap_channel(t.rho, t.support, n)]
            for i, t in enumerate(dec.terms)
        ]
    terms = list(zip(dec.terms, deltas))
    return lambda: step_strategy_b(sigma, terms, measurement="global", mode=engine_mode,
                                   embedded_kraus=embedded, rho_embs=embs)


def step_us(mode: str, n: int) -> float:
    """Median microseconds of one step of ``mode`` at ``n`` qubits."""
    call = _step(mode, n)
    call()
    times = []
    begin = perf_counter()
    while len(times) < MAX_CALLS and (len(times) < MIN_CALLS
                                      or perf_counter() - begin < MIN_SECONDS):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def metric_name(mode: str, n: int) -> str:
    return f"engine.step_us.{mode}.n{n}"


def scan() -> tuple[dict[str, float], dict[str, int]]:
    """Timed sizes as {metric name: microseconds}; skipped ones as {name: bytes needed}."""
    timed, skipped = {}, {}
    for mode in MODES:
        for n in SIZES:
            need = bytes_needed(mode, n)
            if need > BYTE_BUDGET:
                skipped[metric_name(mode, n)] = need
            else:
                timed[metric_name(mode, n)] = step_us(mode, n)
    return timed, skipped
