"""The benchmark's workloads: seeded passes of (host, pattern, known answer).

A pass is a mix of cells fixed by the pass index, which repeats with a short
period; the seed chooses only the random graphs inside each cell and the
order of the queries, so every seed has the same composition.  A workload
yields its queries one at a time, so a pass is never held in memory whole.
Every host is re-checked by :mod:`reference` before it is used.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

import gen
import reference


class GeneratorError(RuntimeError):
    """A generator produced a graph that fails its own self-check."""


@dataclass(frozen=True)
class Query:
    cell: str
    host: gen.Host
    pattern: str
    expect: bool


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise GeneratorError(what)


def _rng(workload: str, seed: int, index: int, cell: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}:{cell}")


# ---------------------------------------------------------------------------
# small_mix: tiny random hosts against every sweep pattern


def small_mix(seed: int, index: int) -> Iterator[Query]:
    """One G(n, p) host queried against all 19 sweep patterns, with answers
    from the brute-force reference.  Passes cycle through 5 orders (5 to 9
    vertices) times 8 edge densities (0.25 to 0.7), so any 40 consecutive
    passes have the same mix."""
    n = 5 + index % 5
    p = 0.25 + 0.45 * ((index // 5) % 8 + 0.5) / 8
    host = gen.random_small(_rng("small_mix", seed, index, "host"), n, p)
    truth = reference.brute_verdicts(host)
    for name in gen.SWEEP_PATTERNS:
        yield Query(f"n{n}", host, name, truth[name])


# ---------------------------------------------------------------------------
# planted_yes and closed_no: fixed cells of (host kind, pattern, size)
#
# "Spread" cells run at evenly spaced sizes, so verdict times form a smooth
# mixture rather than clusters with gaps where a percentile could jump.
# "Single" cells run once per pass.  Sizes are chosen from timings of the
# package at the time of writing (1 s deadline, 2-vCPU machine); the ranges
# and their reasons are listed in bench/README.md.


def _sizes(lo: int, hi: int, count: int) -> list[int]:
    return [round(lo + (hi - lo) * i / (count - 1)) for i in range(count)]


def _spread(spread) -> list[tuple[str, str, int]]:
    return [(kind, name, n) for kind, name, lo, hi, count in spread for n in _sizes(lo, hi, count)]


def _shuffled(workload: str, seed: int, index: int, cells: list) -> list[tuple[int, tuple]]:
    """The cells with their list positions, in a seeded random order: the
    slow top sizes of a cell are spread over the pass instead of running back
    to back, where one slow spell of the machine would set the percentiles."""
    order = list(enumerate(cells))
    _rng(workload, seed, index, "order").shuffle(order)
    return order


BASES = ("sparse", "grid", "ktree", "cycle_twins")
# House and bull stop at 70 vertices: beyond that the time to the first
# witness is so heavy-tailed that verdict_p90_ms moved by more than its bound
# from seed to seed.
PLANTED_SPREAD = [
    (base, name, lo, hi, count)
    for name, lo, hi, count in (
        ("path_5", 20, 120, 60),
        ("cycle_5", 20, 120, 60),
        ("house", 20, 70, 44),
        ("bull", 20, 70, 44),
    )
    for base in BASES
]
# Witnesses that need the gem and full-house decompositions, complete-split
# rooted clique search or K4 recovery, at the smallest size: from 25 vertices
# up almost all of them time out, at 20 about half decide.
WITNESS = ("complete_4", "crown", "k5_minus", "gem", "full_house")
# Patterns dispatch refuses as unsupported: the refusal path.
REFUSED = ("complete_5", "k23", "w4", "prism", "k33")


def _planted_cells(index: int) -> list[tuple[str, str, int]]:
    """Every spread cell, and each witness and refused pattern once, on bases
    that rotate with the pass: any four consecutive passes hold each of them
    on every base."""
    rotated = [(BASES[(index + j) % len(BASES)], name, 20) for j, name in enumerate(WITNESS)]
    rotated += [(BASES[(index + j) % len(BASES)], name, 30) for j, name in enumerate(REFUSED)]
    return _spread(PLANTED_SPREAD) + rotated


def planted_yes(seed: int, index: int) -> Iterator[Query]:
    for i, (base, name, n) in _shuffled("planted_yes", seed, index, _planted_cells(index)):
        cell = f"{base}/{name}/n{n}"
        rng = _rng("planted_yes", seed, index, f"{i}:{cell}")
        host, bags = gen.planted(rng, name, base, n)
        _require(
            reference.model_ok(gen.pattern_host(name), host, bags),
            f"planted model invalid in {cell}",
        )
        yield Query(cell, host, name, True)


# Patterns with an induced cycle of length >= 4, hence absent from chordal hosts.
CHORDAL_NO = ("cycle_4", "cycle_5", "cycle_6", "house", "w4", "prism", "k23", "k33")
# Patterns with a K4 minor, hence absent from K4-minor-free hosts.
K4_MINOR_NO = ("complete_4", "complete_5", "k5_minus", "full_house", "w4", "prism", "k33")
# Non-planar patterns, hence absent from grids.
PLANAR_NO = ("complete_5", "k33")

# Chordal cells run in two bands of sizes: a light band, about 5 to 70 ms a
# query, that holds the median, and a heavy band at the top sizes, about 130
# to 430 ms, that holds the 90th percentile.  One broad spread of sizes, from 4
# to 400 ms, would put the median in a sparse part of the time distribution,
# where it moves by about 20% from seed to seed.  Single cells above the heavy band
# keep the searches that are too slow in decided_share.  bench/README.md
# gives the timings.
LIGHT = 66
HEAVY = 9
CLOSED_SPREAD = [
    (f"ktree{k}", name, lo, hi, LIGHT)
    for k, name, lo, hi in (
        (2, "cycle_4", 25, 52), (3, "cycle_4", 22, 40),
        (2, "cycle_5", 20, 35), (3, "cycle_5", 20, 30),
        (2, "cycle_6", 20, 30), (3, "cycle_6", 20, 27),
    )
] + [
    (f"ktree{k}", name, lo, hi, HEAVY)
    for k, name, lo, hi in (
        (2, "cycle_4", 100, 120), (3, "cycle_4", 75, 90),
        (2, "cycle_5", 58, 68), (3, "cycle_5", 48, 56),
        (2, "cycle_6", 48, 54), (3, "cycle_6", 42, 47),
        (2, "house", 25, 28), (3, "house", 22, 24),
    )
] + [
    (kind, name, 20, 120, 10)
    for kind in ("2tree", "sp")
    for name in ("complete_4", "full_house")
]
# 2-trees are both chordal and K4-minor-free, so w4, prism and k33 on a
# 2-tree stand for both closure arguments
CLOSED_SINGLE = [
    ("2tree", "w4", 60), ("2tree", "prism", 60), ("2tree", "k33", 60),
    ("ktree3", "k23", 60), ("sp", "complete_5", 60), ("2tree", "k5_minus", 40),
    ("grid", "complete_5", 60), ("grid", "k33", 60),
    ("ktree3", "cycle_5", 120), ("ktree3", "cycle_6", 120), ("ktree2", "house", 120),
]


def _check_closure() -> None:
    """Each closed_no pattern really lies outside its host class."""
    for kind, name, *_ in CLOSED_SPREAD + CLOSED_SINGLE:
        pattern = gen.pattern_host(name)
        if kind.startswith("ktree"):
            _require(name in CHORDAL_NO and not reference.is_chordal(pattern), f"{name} is chordal")
        elif kind in ("2tree", "sp"):
            _require(
                name in K4_MINOR_NO and not reference.reduces_series_parallel(pattern),
                f"{name} has no K4 minor",
            )
        else:
            k, edges = gen.PATTERNS[name]
            k5 = (k, len(edges)) == (5, 10)
            k33 = (k, len(edges)) == (6, 9) and all((a < 3) != (b < 3) for a, b in edges)
            _require(name in PLANAR_NO and (k5 or k33), f"{name} is not K5 or K33")


_check_closure()


def _closed_host(rng: random.Random, kind: str, n: int) -> gen.Host:
    if kind.startswith("ktree"):
        host = gen.ktree(rng, n, int(kind[-1]))
        _require(reference.is_chordal(host), f"{kind} on {n} vertices is not chordal")
    elif kind in ("2tree", "sp"):
        host = gen.ktree(rng, n, 2) if kind == "2tree" else gen.series_parallel(rng, n)
        _require(reference.reduces_series_parallel(host), f"{kind} on {n} vertices has a K4 minor")
        _require(kind == "sp" or reference.is_chordal(host), f"2-tree on {n} vertices is not chordal")
    else:
        host, coords = gen.grid(rng, n)
        _require(reference.is_grid_layout(host, coords), f"grid on {n} vertices is not a grid")
    return host


def closed_no(seed: int, index: int) -> Iterator[Query]:
    cells = _spread(CLOSED_SPREAD) + CLOSED_SINGLE
    for i, (kind, name, n) in _shuffled("closed_no", seed, index, cells):
        cell = f"{kind}/{name}/n{n}"
        host = _closed_host(_rng("closed_no", seed, index, f"{i}:{cell}"), kind, n)
        yield Query(cell, host, name, False)


WORKLOADS = {"small_mix": small_mix, "planted_yes": planted_yes, "closed_no": closed_no}
