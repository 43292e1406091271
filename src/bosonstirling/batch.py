"""Batch kernels of the Monte Carlo experiment: many trials per numpy call.

numpy's Philox is Philox4x64-10 (Salmon, Moraes, Dror and Shaw, SC'11):
the output block for counter c and key k is ten rounds of two 64×64→128
multiplications, and the generator increments its counter before each
block, so block b = 0, 1, ... of a fresh stream is a function of
(key, counter (b+1, 0, 0, 0)) alone.  Each 64-bit word is used as two
32-bit draws, low half first.  `integers(1, r, endpoint=True)` with
r < 2³² takes one 32-bit draw u per value by Lemire's multiply-shift
(Lemire, ACM TOMACS 29(1), 2019): value 1 + ⌊u·r/2³²⌋, unless
u·r mod 2³² < (2³² − r) mod r, when it discards u and draws again.

:func:`trial_words` computes the 32-bit draws of a block of trials at
once, :func:`scaled_draws` turns them into numpy's values for one range,
and :func:`batch_verdicts` decides the block's matrices in ``int64``.
Only the scaling depends on r, so a sweep over several ranges computes
each block's words once.
:mod:`bosonstirling.montecarlo` imports this module, and numpy with it,
at its first experiment, not at import, so the commands that run no
experiment load neither.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

_PHILOX_MUL = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_PHILOX_WEYL = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Array elements one block of trials may hold: a block's draws and its
#: verdict terms stay below this many, so memory does not grow with draws.
_BLOCK_ELEMENTS = 1 << 16


def _philox4x64_10(key: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Philox4x64-10 on every lane at once.

    `key` has shape (2, lanes) and `counter` (4, lanes), one row per word;
    the result has the counter's shape.  Each round maps the words
    (c0, c1, c2, c3) to
    (hi(M1·c2) ⊕ c1 ⊕ k0, lo(M1·c2), hi(M0·c0) ⊕ c3 ⊕ k1, lo(M0·c0)), and
    the key steps by the Weyl increments between rounds.  Both products of
    a round are taken in one pass over (c0, c2).  lo(a·b) is the product
    that uint64 arithmetic wraps mod 2⁶⁴; with a = a₁·2³² + a₀ and
    b = b₁·2³² + b₀, the high word is carried through 32-bit halves as

        t = ⌊a₀b₀/2³²⌋,  u = a₁b₀ + t,  v = a₀b₁ + (u mod 2³²),
        hi(a·b) = a₁b₁ + ⌊u/2³²⌋ + ⌊v/2³²⌋,

    where u and v stay below (2³²−1)² + 2³² − 1 < 2⁶⁴.
    """
    lanes = key.shape[1]
    mul = np.repeat(_PHILOX_MUL, lanes)
    a0, a1 = mul & _LOW32, mul >> _SHIFT32
    weyl = np.repeat(_PHILOX_WEYL, lanes)
    k = key.ravel()
    even = counter[0::2].ravel()  # c0 of every lane, then c2
    odd = counter[1::2].ravel()   # c1 of every lane, then c3
    for rnd in range(10):
        if rnd:
            k = k + weyl
        b0, b1 = even & _LOW32, even >> _SHIFT32
        u = a1 * b0
        u += (a0 * b0) >> _SHIFT32
        v = a0 * b1
        v += u & _LOW32
        hi = a1 * b1
        hi += u >> _SHIFT32
        hi += v >> _SHIFT32
        lo = mul * even
        even = np.concatenate((hi[lanes:], hi[:lanes]))
        even ^= odd
        even ^= k
        odd = np.concatenate((lo[lanes:], lo[:lanes]))
    out = np.empty_like(counter)
    out[0::2] = even.reshape(2, lanes)
    out[1::2] = odd.reshape(2, lanes)
    return out


def trial_words(seed: int, start: int, stop: int, count: int) -> np.ndarray:
    """The first `count` 32-bit draws of each of trials start..stop−1.

    Row t holds the 32-bit words, as ``uint64``, that
    ``trial_stream(seed, start + t)`` hands out first.  They depend on the
    key (seed, trial) and the counter alone, never on a range, so one call
    serves every range of a sweep.
    """
    blocks = -(-count // 8)
    trials = stop - start
    key = np.empty((2, trials * blocks), dtype=np.uint64)
    key[0] = seed
    key[1] = np.repeat(np.arange(start, stop, dtype=np.uint64), blocks)
    counter = np.zeros((4, trials * blocks), dtype=np.uint64)
    counter[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), trials)
    words = _philox4x64_10(key, counter).T
    # Little-endian 64-bit words read as 32-bit pairs put the low half first.
    halves = np.ascontiguousarray(words, dtype="<u8").view("<u4")
    return halves.reshape(trials, blocks * 8)[:, :count].astype(np.uint64)


def scaled_draws(words: np.ndarray, range_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's values in {1..range_r} of the rows of :func:`trial_words`.

    Row t of `values` equals ``trial_stream(seed, start + t).integers(1,
    range_r, size=count, endpoint=True)`` unless ``rejected[t]``: then
    numpy discarded a draw of that trial and drew again, which shifts its
    stream, and the row is not its result.  Needs 1 ≤ range_r < 2³².
    """
    scaled = words * np.uint64(range_r)
    values = (scaled >> _SHIFT32).astype(np.int64) + 1
    rejected = ((scaled & _LOW32) < (2**32 - range_r) % range_r).any(axis=1)
    return values, rejected


class _Stage(NamedTuple):
    """Gathered terms of some steps (k, i) of the division-free recurrence.

    A step (k, i) is coefficient i of c_0·(k+1)·c_{k+1} ≡ c_k·c_1, the form
    of :func:`~bosonstirling.substitution.recurrence_failure`'s step k
    times the unit c_0, which reads the matrix's entries alone; a matrix
    fails it at the same first step and row as the per-trial kernel.
    """

    coef: np.ndarray
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray

    def holds(self, m: np.ndarray) -> np.ndarray:
        """Per row of `m`, whether every step of the stage holds."""
        terms = m[:, self.left]
        terms *= m[:, self.right]
        terms *= self.coef
        return ~np.add.reduceat(terms, self.starts, axis=1).any(axis=1)


@lru_cache(maxsize=16)
def _verdict_plan(size: int) -> tuple[np.ndarray, tuple[_Stage, ...]]:
    """Gather indices of every recurrence term into a flattened size×size matrix.

    The segment of step (k, i) holds (k+1)·C(i,j)·M[j,0]·M[i−j,k+1] for
    j < i−k and −C(i,j)·M[j,k]·M[i−j,1] for k ≤ j < i, so the step holds
    exactly when its segment sums to zero.  That is coefficient i of
    c_0·(k+1)·c_{k+1} − c_k·c_1, the division-free form of the per-trial
    kernel's step, whose terms are products of two entries.  The kernel's
    own form reads φ's EGF entries Φ[m] = m!·φ_m, which grow like m!·rᵐ
    on these matrices: at r = 10, one of Φ[12..22] passes 2⁶³ in each of
    200 draws of size 30.  The products of two entries stay below r².  Step k = 1 is one stage and
    k ≥ 2 the other: a random matrix almost always fails at k = 1, whose
    n(n−1)−2 terms are few next to the O(n³) of all steps.  Returns the
    indices of the strict lower triangle in row-major order and the
    non-empty stages.
    """
    n = size - 1
    stages = []
    for ks in ([1], range(2, n - 1)):
        coef, left, right, starts = [], [], [], []
        for k in ks:
            for i in range(k + 2, n + 1):
                starts.append(len(coef))
                for j in range(i - k):
                    coef.append((k + 1) * comb(i, j))
                    left.append(j * size)
                    right.append((i - j) * size + k + 1)
                for j in range(k, i):
                    coef.append(-comb(i, j))
                    left.append(j * size + k)
                    right.append((i - j) * size + 1)
        if starts:
            stages.append(_Stage(
                np.array(coef, dtype=np.int64),
                np.array(left, dtype=np.intp),
                np.array(right, dtype=np.intp),
                np.array(starts, dtype=np.intp),
            ))
    triangle = [i * size + k for i in range(size) for k in range(i)]
    return np.array(triangle, dtype=np.intp), tuple(stages)


def fits_int64(size: int, range_r: int) -> bool:
    """Whether :func:`batch_verdicts` is exact at this size and range."""
    return size * 2**size * range_r**2 < 2**63


def batch_verdicts(size: int, values: np.ndarray) -> np.ndarray:
    """Substitution verdicts of the unipotent matrices whose strict lower
    triangles are the rows of `values`, entries in {1..r}.

    Every step (k, i) of the division-free recurrence
    c_0·(k+1)·c_{k+1} ≡ c_k·c_1 is one segment sum of gathered terms, in
    ``int64``: that form reads products of two entries, where the per-trial
    kernel :func:`~bosonstirling.substitution.recurrence_failure` checks
    (k+1)·c_{k+1} ≡ c_k·φ with φ's EGF entries, which outgrow ``int64``.
    Step k of the one is step k of the other times the unit c_0 (c_1 =
    c_0·φ), so a matrix fails both at the same first step and row, as that
    kernel's docstring proves, and the verdicts agree.  Step k = 1 is
    evaluated for every matrix and the steps k ≥ 2 for those that pass it;
    a matrix passes when all its segments vanish, which is the verdict of
    :func:`~bosonstirling.substitution.is_approximate_substitution`.

    Exact when ``fits_int64(size, r)``, that is n·2ⁿ·r² < 2⁶³ with n = size.
    Proof: every entry lies in {0, 1, ..., r}, so each product of two
    entries lies in [0, r²].  In the segment of (k, i), with i ≤ size−1 and
    k+1 ≤ size−2, the positive terms sum to at most
    (k+1)·Σ_j C(i,j)·r² ≤ (size−2)·2^(size−1)·r² and the negative terms to
    at least −2^(size−1)·r².  Any partial sum, in whatever order
    ``np.add.reduceat`` adds, and any single product on the way, lies
    between those two values, so its magnitude is below size·2^size·r² < 2⁶³
    and ``int64`` never wraps.
    """
    triangle, stages = _verdict_plan(size)
    m = np.zeros((len(values), size * size), dtype=np.int64)
    m[:, ::size + 1] = 1
    m[:, triangle] = values
    passed = np.ones(len(values), dtype=bool)
    # The rows still passing; at first every row, as a view rather than a copy.
    rest = slice(None)
    for stage in stages:
        passed[rest] = stage.holds(m[rest])
        rest = np.flatnonzero(passed)
    return passed


def trials_per_block(size: int) -> int:
    """Trials one block takes, so that its arrays stay below the element budget.

    A trial holds size² matrix entries.  Its 32-bit draws, rounded up to
    whole Philox blocks, number 8·⌈size(size−1)/16⌉, which is at most size²
    for size ≥ 3 and 8 at size 2; the terms of its step k = 1 number
    n(n−1)−2 < size² with n = size−1.  The later steps only see the few
    trials that pass that one.
    """
    return _BLOCK_ELEMENTS // max(8, size * size)
