"""Import-closure gate: nothing under ``src/repro`` loads SciPy.

Importing the package, building a ``grout serve`` service, running the
paper's Fig. 7 workloads (MV, CG, MLE), verifying ``bs`` and ``img``,
running a kernel-C kernel that calls ``normcdf`` and ``erf``, and
settling ``bs`` and ``img`` requests on a service must all leave SciPy
unloaded: their special function and stencils come from
:mod:`repro.numerics`, on NumPy alone.  Each case starts a fresh
interpreter with ``PYTHONPATH=src`` and checks module names only, never
times.  The same probe checks that ``repro.obs``, both runtimes and
their JSON run reports leave ``repro.bench`` unloaded.  A last check
keeps ``pyproject.toml``'s runtime dependencies equal to the third-party
packages ``src/repro`` imports.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Prints which modules of ``{package}`` the child holds, as JSON, on
#: its last line.
_REPORT = """
import json as _json, sys as _sys
print(_json.dumps(sorted(m for m in _sys.modules
                         if (m + ".").startswith("{package}."))))
"""


def _modules_after(code: str, package: str = "scipy") -> list[str]:
    """Run ``code`` in a fresh interpreter; the ``package`` modules it
    holds afterwards (SciPy's by default)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c",
         textwrap.dedent(code) + _REPORT.format(package=package)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_entry_points_and_a_service_leave_scipy_unloaded():
    loaded = _modules_after("""
        import repro, repro.workloads, repro.cli, repro.polyglot
        from repro.serve import GroutService
        GroutService().close()
    """)
    assert loaded == [], f"SciPy loaded at import: {loaded[:5]}"


def test_fig7_workloads_run_without_scipy():
    loaded = _modules_after("""
        from repro.bench.harness import run_grout, run_single_node
        from repro.gpu.specs import GIB
        for name in ("mv", "cg", "mle"):
            for run in (run_single_node, run_grout):
                res = run(name, 2 * GIB, check=True)
                assert res.completed and res.verified, (name, run)
    """)
    assert loaded == [], f"a Fig. 7 run loaded SciPy: {loaded[:5]}"


def test_bs_img_kernelc_and_served_requests_run_without_scipy():
    loaded = _modules_after("""
        import math
        import numpy as np
        from repro.bench.harness import run_grout
        from repro.gpu.specs import GIB
        from repro.polyglot import KernelInterpreter, parse_kernel
        from repro.serve import GroutService
        for name in ("bs", "img"):
            res = run_grout(name, GIB // 4, check=True)
            assert res.completed and res.verified, name
        x = np.linspace(-3.0, 3.0, 64)
        cdf, err = np.zeros_like(x), np.zeros_like(x)
        KernelInterpreter(parse_kernel('''
            __global__ void cdf(const double* x, double* cdf, double* err,
                                int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) {
                    cdf[i] = normcdf(x[i]);
                    err[i] = erf(x[i]);
                }
            }
        ''')).run((2,), (32,), (x, cdf, err, 64))
        want = [0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x]
        assert np.allclose(cdf, want, rtol=0.0, atol=1e-12)
        assert np.allclose(err, [math.erf(v) for v in x], rtol=0.0,
                           atol=1e-14)
        service = GroutService()
        tickets = [service.submit({"workload": name, "gb": 0.125,
                                   "tenant": "t"}) for name in ("bs", "img")]
        while not all(t.finalized for t in tickets):
            service.pump()
        for ticket in tickets:
            assert ticket.report["completed"] and ticket.report["verified"]
        service.close()
    """)
    assert loaded == [], (
        f"bs, img, kernel C or a service loaded SciPy: {loaded[:5]}")


def test_obs_and_both_runtimes_leave_repro_bench_unloaded():
    """Importing ``repro.bench`` costs every runtime-building process
    tens of milliseconds; ``repro.obs``, both runtimes and their JSON
    run reports need none of it."""
    loaded = _modules_after("""
        import repro.obs
        from repro.core.config import RuntimeConfig
        for mode in ("grout", "grcuda"):
            runtime = RuntimeConfig(mode=mode,
                                    policy="round-robin").build_runtime()
            repro.obs.json_run_report(runtime)
            runtime.shutdown()
    """, package="repro.bench")
    assert loaded == [], f"repro.bench loaded: {loaded[:5]}"


def _declared_dependencies() -> set[str]:
    # A regex, not tomllib: tomllib is missing on Python 3.10.
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text,
                      re.MULTILINE | re.DOTALL)
    assert block is not None, "pyproject.toml lists no dependencies"
    return {name.lower().replace("-", "_") for name in
            re.findall(r"""["']([A-Za-z0-9_.-]+)""", block.group(1))}


def _third_party_imports() -> dict[str, str]:
    """Top-level third-party module -> one file under src/repro using it."""
    found: dict[str, str] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def test_declared_dependencies_match_imports():
    declared = _declared_dependencies()
    imported = _third_party_imports()
    unused = sorted(declared - set(imported))
    undeclared = {m: f for m, f in imported.items() if m not in declared}
    assert not unused, f"declared but never imported under src/repro: {unused}"
    assert not undeclared, f"imported but not declared: {undeclared}"
