"""Every benchmark call runs and passes its own gate, at the tiny size.

``perfbench/workloads.py`` is read here, not imported, so the test writes
nothing under ``perfbench/``.  Its ``Op`` dataclass needs its module in
``sys.modules``, so the source is executed into a registered module.  A
CLI or payload change that would make a benchmark call fail, or fail its
check, fails this test.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from depmeasures import cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
        module.load_oracles(str(ROOT / "tests"))
        yield module
    finally:
        del sys.modules[module.__name__]


def test_every_tiny_workload_passes_its_gate(workloads, tmp_path):
    ran = 0
    for name in sorted(workloads.WORKLOADS):
        work = tmp_path / name
        work.mkdir()
        docs = {}
        for op in workloads.build(name, 7, str(work), tiny=True):
            if op.probe:
                continue
            out = work / f"{op.name}.json"
            assert cli.run(op.argv + ["--out", str(out)]) == 0, f"{name}: {op.name} failed"
            docs[op.name] = json.loads(out.read_text(encoding="utf-8"))
            assert op.check(docs[op.name], docs) == [], f"{name}: {op.name}"
            ran += 1
    assert ran > 0
