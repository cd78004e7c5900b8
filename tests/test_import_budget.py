"""Each process imports only the modules its work runs.

A batch search never starts a process pool, an RL agent, a baseline
optimizer, the experiment runners or the service, so a fresh interpreter
that runs one must not have imported them: the interpreter's start-up is
most of a short job's set-up time (docs/PERFORMANCE.md, "Cold start").
Every check runs in a fresh interpreter, so no earlier test can have
loaded a module first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

#: Modules a batch search must not import.  A name covers its submodules.
BATCH_FORBIDDEN = (
    "multiprocessing",
    "repro.core.parallel",
    "repro.optimizers.rl",
    "repro.optimizers.stdga",
    "repro.optimizers.de",
    "repro.optimizers.cmaes",
    "repro.optimizers.pso",
    "repro.optimizers.tbpsa",
    "repro.optimizers.random_search",
    "repro.optimizers.heuristics",
    "repro.optimizers.hyperparams",
    "repro.optimizers.warmstart",
    "repro.analysis",
    "repro.experiments",
    "repro.service",
    "repro.tools.lint.engine",
)

#: Modules the mapping service must not import to answer a hit or a miss.
SERVICE_FORBIDDEN = (
    "multiprocessing", "repro.core.parallel", "repro.optimizers.rl", "repro.analysis", "repro.tools.lint.engine",
)

#: The steps of ``perfbench/setup_probe.py``, then one small batch search.
#: Listing the registry's names imports none of their modules.
BATCH_SEARCH = """
import repro.optimizers
assert "stdga" in repro.optimizers.OPTIMIZER_REGISTRY
assert len(list(repro.optimizers.OPTIMIZER_REGISTRY)) > len(repro.optimizers.list_optimizers())
from repro.accelerator import build_setting
from repro.core.framework import M3E
from repro.workloads.benchmark import TaskType, build_task_workload

platform = build_setting("S2", 16.0)
group = build_task_workload(
    TaskType.MIX, group_size=12, num_groups=1, seed=0,
    num_sub_accelerators=platform.num_sub_accelerators,
)[0]
explorer = M3E(platform, sampling_budget=300)
explorer.analyze(group)
result = explorer.search(group, optimizer="magma", seed=0)
assert result.samples_used == 300
"""

#: A service over a SQLite store answers one miss, then the same request as
#: a hit.  It lists what was loaded before the first request and after both.
SERVICE_REQUESTS = """
import sys
from repro.service import MappingService, create_server
from repro.service.service import MappingRequest

service = MappingService(store="sqlite:" + STORE, scale="tiny", workers=1)
server = create_server(service, host="127.0.0.1", port=0, quiet=True)
before = sorted(sys.modules)
request = MappingRequest(task="vision", setting="S2", seed=0)
miss = service.submit(request)
assert service.wait(miss.job_id, timeout=120) and miss.state == "done", miss.error
hit = service.submit(request)
assert hit.cached and hit.state == "done"
service.result_text(hit)
server.server_close()
service.close()
"""


def _run(script: str) -> dict:
    """Run *script* in a fresh interpreter; return its ``OUT`` dict."""
    wrapped = script + "\nimport json\nprint(json.dumps(OUT))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    completed = subprocess.run(
        [sys.executable, "-c", wrapped], capture_output=True, text=True, env=env, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _loaded(modules, forbidden):
    return sorted(
        name for name in modules
        if any(name == root or name.startswith(root + ".") for root in forbidden)
    )


def test_a_batch_search_imports_no_pool_baseline_or_service():
    out = _run(BATCH_SEARCH + "import sys\nOUT = {'modules': sorted(sys.modules)}\n")
    assert _loaded(out["modules"], BATCH_FORBIDDEN) == []
    # MAGMA itself is loaded with the package, before the first search.
    assert "repro.optimizers.magma" in out["modules"]


def test_the_service_answers_a_hit_and_a_miss_without_rl_analysis_or_pool(tmp_path):
    store = str(tmp_path / "solutions.sqlite3")
    out = _run(
        f"STORE = {store!r}\n" + SERVICE_REQUESTS
        + "OUT = {'before': before, 'after': sorted(sys.modules)}\n"
    )
    assert _loaded(out["after"], SERVICE_FORBIDDEN) == []
    # Every module a request runs is imported before the server listens.
    requested = sorted(set(out["after"]) - set(out["before"]))
    assert [name for name in requested if name.startswith("repro")] == []


@pytest.mark.parametrize("argv", [["search", "--help"], ["serve", "--help"]], ids=["search", "serve"])
def test_the_cli_builds_its_parser_without_the_lint_engine(argv):
    """Every ``repro-magma`` command builds the full parser, ``lint``
    included; only running ``lint`` may compile the engine."""
    out = _run(
        "import contextlib, io, sys\n"
        "from repro.cli import build_parser\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        f"    build_parser().parse_args({argv!r})\n"
        "before = 'repro.tools.lint.engine' in sys.modules\n"
        "from repro.tools.lint import lint_source\n"
        "OUT = {'before': before, 'after': 'repro.tools.lint.engine' in sys.modules}\n"
    )
    assert out == {"before": False, "after": True}


def test_a_parallel_explorer_loads_the_pool_when_built():
    """The pool's import lands in the explorer's construction, not in the
    first (timed) search."""
    out = _run(
        "import sys\n"
        "from repro.accelerator import build_setting\n"
        "from repro.core.evalconfig import EvalConfig\n"
        "from repro.core.framework import M3E\n"
        "before = 'repro.core.parallel' in sys.modules\n"
        "M3E(build_setting('S2', 16.0), eval_config=EvalConfig(backend='parallel', workers=1))\n"
        "OUT = {'before': before, 'after': 'repro.core.parallel' in sys.modules}\n"
    )
    assert out == {"before": False, "after": True}


#: For each name in ``PACKAGE.__all__``: the object the package gives must be
#: the one its home module holds.  A class or function's home is its
#: ``__module__``; a constant's homes are the package's loaded submodules
#: that define the name.
PUBLIC_NAMES = """
import importlib, sys, types

package = importlib.import_module(PACKAGE)
problems = []
for name in package.__all__:
    value = getattr(package, name)
    if getattr(package, name) is not value:
        problems.append(name)
    if isinstance(value, types.ModuleType):
        same = sys.modules.get(value.__name__) is value
    elif hasattr(value, "__qualname__"):
        home = importlib.import_module(value.__module__)
        same = getattr(home, value.__qualname__, None) is value
    else:
        homes = [
            module for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith(PACKAGE + ".") and name in vars(module)
        ]
        same = bool(homes) and all(vars(home)[name] is value for home in homes)
    if not same or name not in dir(package):
        problems.append(name)
OUT = {"problems": problems, "count": len(package.__all__)}
"""


@pytest.mark.parametrize(
    "package", ["repro", "repro.core", "repro.optimizers", "repro.experiments", "repro.tools.lint"]
)
def test_every_public_name_resolves_to_its_home_object(package):
    """``from package import name`` works for every name in ``__all__``,
    loaded with the package or on first use, and gives the very object its
    home module holds."""
    out = _run(f"PACKAGE = {package!r}\n" + PUBLIC_NAMES)
    assert out["problems"] == []
    assert out["count"] > 0
