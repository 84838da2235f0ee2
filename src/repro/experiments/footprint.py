"""Deployment footprint experiment (F6 / section 4 of the paper).

The paper reports a 1.2 MB system footprint (proxy + Gateway Provider +
Connection Provider + MANET SLP, about 20 shared libraries) against the
iPAQ h5000's 32 MB flash, of which the OS consumes 25 MB, plus ~1 MB for
the Minisip VoIP application. We reproduce the *shape* of that budget:
source footprint per component, live in-memory footprint of one running
node stack, and the flash-budget check.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro
from repro.core.stack import SiphocStack
from repro.experiments.tables import Table
from repro.netsim.medium import WirelessMedium
from repro.netsim.node import Node
from repro.netsim.packet import manet_ip
from repro.netsim.simulator import Simulator
from repro.netsim.stats import Stats

#: Paper's numbers (bytes), for the comparison column.
PAPER_SYSTEM_FOOTPRINT = int(1.2 * 1024 * 1024)
PAPER_VOIP_APP_FOOTPRINT = 1 * 1024 * 1024
IPAQ_FLASH = 32 * 1024 * 1024
IPAQ_OS = 25 * 1024 * 1024

#: Which source packages implement which paper component.
COMPONENT_PACKAGES = {
    "SIPHoc proxy": ["core/proxy.py", "sip"],
    "MANET SLP": ["core/manet_slp.py", "core/handlers.py", "core/extension.py", "slp"],
    "Gateway Provider": ["core/gateway.py", "core/tunnel.py"],
    "Connection Provider": ["core/connection.py"],
    "VoIP application": ["core/softphone.py", "rtp"],
    "Routing daemons": ["routing"],
}


def _package_root() -> str:
    return os.path.dirname(os.path.abspath(repro.__file__))


def _source_stats(relative_paths: list[str]) -> tuple[int, int, int]:
    """(files, non-blank LoC, bytes) for the given paths under repro/."""
    root = _package_root()
    files = 0
    loc = 0
    size = 0
    for relative in relative_paths:
        path = os.path.join(root, relative)
        candidates: list[str] = []
        if os.path.isfile(path):
            candidates.append(path)
        elif os.path.isdir(path):
            for dirpath, _, filenames in os.walk(path):
                candidates.extend(
                    os.path.join(dirpath, name)
                    for name in filenames
                    if name.endswith(".py")
                )
        for candidate in candidates:
            files += 1
            size += os.path.getsize(candidate)
            with open(candidate, encoding="utf-8") as handle:
                loc += sum(1 for line in handle if line.strip())
    return files, loc, size


def _running_stack_memory() -> int:
    """Peak memory of one running node stack (bytes), read in a fresh interpreter.

    Read in a process that has already run a scenario, the peak falls with
    every earlier run (by a third after an F3 table), because the
    process-wide decode and header memos and the interpreter's free lists
    already hold part of what the stack allocates. A new interpreter reads
    the same peak every time.
    """
    src = os.path.dirname(_package_root())
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"from {__name__} import _stack_peak; print(_stack_peak())"],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        text=True,
        timeout=120,
    )
    return int(result.stdout)


def _stack_peak() -> int:
    """Peak traced memory (bytes) while one node stack starts, adds a
    phone and runs for 2 s, in this process."""
    import tracemalloc

    tracemalloc.start()
    sim = Simulator(seed=1)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats)
    node = Node(sim, 0, manet_ip(0), stats=stats)
    node.join_medium(medium)
    stack = SiphocStack(node, routing="aodv")
    stack.start()
    stack.add_phone(username="alice")
    sim.run(2.0)
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    stack.stop()
    return peak


def footprint_table() -> Table:
    """F6: per-component source footprint and the iPAQ flash budget."""
    table = Table(
        title="F6: deployment footprint (section 4)",
        columns=["component", "files", "loc", "source_kb"],
    )
    total_size = 0
    for component, paths in COMPONENT_PACKAGES.items():
        files, loc, size = _source_stats(paths)
        total_size += size
        table.add_row(component, files, loc, size / 1024)
    system_total = total_size
    memory = _running_stack_memory()
    table.add_note(
        f"source total: {system_total / 1024:.0f} KB"
        f" (paper's C implementation: {PAPER_SYSTEM_FOOTPRINT / 1024:.0f} KB)"
    )
    table.add_note(
        f"running one-node stack peak memory: {memory / 1024:.0f} KB"
    )
    free_flash = IPAQ_FLASH - IPAQ_OS
    fits = system_total + PAPER_VOIP_APP_FOOTPRINT < free_flash
    table.add_note(
        f"iPAQ flash budget: {free_flash / (1024 * 1024):.0f} MB free after OS;"
        f" system + VoIP app fit: {fits}"
    )
    return table


def module_inventory_table() -> Table:
    """Companion table: LoC of every top-level package of the library."""
    table = Table(
        title="library inventory (LoC per package)",
        columns=["package", "files", "loc", "kb"],
    )
    root = _package_root()
    entries = sorted(
        name
        for name in os.listdir(root)
        if os.path.isdir(os.path.join(root, name)) and not name.startswith("__")
    )
    for name in entries:
        files, loc, size = _source_stats([name])
        table.add_row(name, files, loc, size / 1024)
    return table
