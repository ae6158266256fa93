"""Start-up: importing mvtool, the first registry lookup, parsing
descriptors and the checks that the scalar engine or the product route
answers load neither numpy nor the kernels; the first vector-engine table
loads both, and its report is the one of a process that loaded numpy
first.  Set-up parses one registry sequent.  Each case runs in a fresh
interpreter, since the test process itself has loaded numpy and parsed
every registry sequent long before."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mvtool
from helpers import README_DESCRIPTORS

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(mvtool.__file__).resolve().parent.parent

# The FULL_SUITE_CONFIGS of test_acceptance that no vector table answers.
NUMPY_FREE_CONFIGS = [
    dict(command="check", model="C", sequent="gamma_3", bound=64, seed=11),
    dict(command="check", model="L(2)", sequent="xi", bound=3, seed=11),
    dict(command="check-family", model="Prod(C,C)",
         sequents=["P.1", "P.2", "P.3", "beta"], bound=5, seed=11),
    dict(command="ant-check", group="Lex(Z,Z)", unit="(1,0)", bound=6,
         seed=11),
    dict(command="registry-list", seed=11),
]

CHI_4 = dict(command="check", model="Sigma(Z^2)", sequent="chi_4", bound=16,
             seed=11)

WATCHED = ("numpy", "mvtool.kernels")

PRELUDE = """
import json, sys
def loaded():
    return [m for m in %r if m in sys.modules]
def report(config):
    from mvtool import cli
    code, out = cli.run(cli.RunConfig(**config))
    out.pop("elapsed_ms")
    return [code, json.dumps(out, sort_keys=True)]
""" % (WATCHED,)

COLD = PRELUDE + """
phases = {}
import mvtool, mvtool.cli
phases["import"] = loaded()
mvtool.lookup("MV.1")
phases["lookup"] = loaded()
sys.path.insert(0, %r)
import workloads
descriptors = set(%r)
for items in workloads.WORKLOADS.values():
    descriptors.update(workloads.descriptors(items))
for d in sorted(descriptors):
    mvtool.parse_model(d)
phases["parse_model"] = loaded()
phases["descriptors"] = len(descriptors)
phases["parsed"] = sorted(mvtool.registry._PARSED)
for config in %r:
    report(config)
phases["scalar checks"] = loaded()
phases["chi_4"] = report(%r)
phases["after chi_4"] = loaded()
print(json.dumps(phases))
""" % (str(ROOT / "perfbench"), README_DESCRIPTORS, NUMPY_FREE_CONFIGS, CHI_4)

WARM = PRELUDE + """
import numpy
import mvtool.vector
print(json.dumps({"chi_4": report(%r)}))
""" % (CHI_4,)


def _run(script):
    env = {k: v for k, v in os.environ.items() if k != "MVTOOL_MAX_CARRIER"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_start_up_loads_no_numpy_until_a_vector_table():
    cold = _run(COLD)
    for phase in ("import", "lookup", "parse_model", "scalar checks"):
        assert cold[phase] == [], phase
    # The four workloads add descriptors beyond the README's.
    assert cold["descriptors"] > len(README_DESCRIPTORS)
    # Set-up parses the one registry sequent it looks up.
    assert cold["parsed"] == ["MV.1"]
    assert cold["after chi_4"] == list(WATCHED)
    warm = _run(WARM)
    assert cold["chi_4"] == warm["chi_4"]
    assert cold["chi_4"][0] == 0


def test_import_loads_no_dataclasses_inspect_or_numpy():
    # The records derive from a base that generates no code, so neither
    # import needs dataclasses (nor the inspect it imports).
    unwanted = ("dataclasses", "inspect", "numpy")
    loaded = _run("""
import json, sys
def loaded():
    return [m for m in %r if m in sys.modules]
import mvtool
package = loaded()
import mvtool.cli
print(json.dumps([package, loaded()]))
""" % (unwanted,))
    assert loaded == [[], []]
