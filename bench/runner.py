"""Runs sessions and writes the JSON record of one invocation.

A *session* is one workload, one seed, one set-up: an untraced phase
whose observations give the end-to-end metrics, followed, when traced,
by a phase with the layer wrappers installed whose spans give the
per-layer metrics.  The difference between the two phases is the
tracing overhead.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from bench.compare import RECORD_KIND, RECORD_SCHEMA
from bench.inproc import run_inproc
from bench.metrics import ROOT
from bench.serve import run_serve
from bench.workloads import WORKLOADS, smoke

def run_session(
    name: str, seed: int, seconds: float, traced: bool, is_smoke: bool
) -> Dict[str, Any]:
    """One session; ``seconds`` is split evenly between the phases."""
    workload = WORKLOADS[name]
    if is_smoke:
        workload = smoke(workload)
    phases = (
        [(False, seconds / 2.0), (True, seconds / 2.0)]
        if traced
        else [(False, float(seconds))]
    )
    if workload.kind == "serve":
        run = run_serve(workload, seed, phases)
    else:
        run = run_inproc(workload, seed, phases)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "seconds": seconds,
        "smoke": is_smoke,
        "params": workload.params(),
        **run,
    }


def _git() -> Dict[str, Optional[Any]]:
    """Commit and dirty flag of the checkout, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()

    try:
        return {
            "sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def write_record(
    runs: List[Dict[str, Any]], out_dir: Path, is_smoke: bool, argv: List[str]
) -> Path:
    """Write the invocation's record under ``out_dir``; returns its path."""
    now = datetime.datetime.now(datetime.timezone.utc)
    record = {
        "kind": RECORD_KIND,
        "schema": RECORD_SCHEMA,
        "created": now.isoformat(timespec="seconds"),
        "smoke": is_smoke,
        "git": _git(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "argv": argv,
        "runs": runs,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"record-{now.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
