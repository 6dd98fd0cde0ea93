"""Fresh-process probes: set-up time and the ``imc`` command end to end.

Each probe launches one child at a time and waits for it before the next.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

_SETUP = r"""
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import indminor
host = indminor.Graph.from_edges(3, [(0, 1), (1, 2)])
answer = indminor.dispatch(host, indminor.Graph.from_edges(2, [(0, 1)]))
print(time.perf_counter() - start, answer.contains)
"""


def _run(cmd: list[str], env=None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)


def setup_seconds(src: Path, repeats: int) -> float:
    """Median, over fresh interpreters, of the time to import ``indminor``
    and answer "is K2 an induced minor of P3?" (one warm-up child first)."""
    samples = []
    for i in range(repeats + 1):
        proc = _run([sys.executable, "-E", "-c", _SETUP, str(src)])
        fields = proc.stdout.split()
        if proc.returncode != 0 or fields[1:] != ["True"]:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        if i:
            samples.append(float(fields[0]))
    return statistics.median(samples)


def imc_ms(src: Path, workdir: Path, host, pattern: str, expect: bool, repeats: int) -> float:
    """Median wall time of ``python -m indminor.cli`` (the ``imc`` entry
    point) deciding ``pattern`` in ``host``; each output is checked."""
    graph = workdir / "imc_host.txt"
    edges = host.edges()
    graph.write_text(f"{host.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "indminor.cli", "--pattern", pattern, "--graph", str(graph)]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = _run(cmd, env)
        samples.append((time.perf_counter() - start) * 1000)
        if proc.returncode != 0 or json.loads(proc.stdout)["contains"] is not expect:
            raise RuntimeError(f"imc probe failed: {proc.stderr.strip()[-300:]}")
    return statistics.median(samples)
