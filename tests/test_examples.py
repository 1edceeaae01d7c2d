"""Every script under ``examples/`` runs to completion.

Each example starts in a fresh interpreter (working directory a temporary
folder, so files an example writes land there) and must exit 0.  Scripts
in ``PINNED_OUTPUT`` must also print exactly their pinned text.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: Script name -> its exact expected stdout.
PINNED_OUTPUT = {"mobility_maintenance.py": """\
static-backbone maintenance, n=50, d=10, 12 ticks (averages per tick)

 speed |   link   head   member   gateway  heads re-
       |  churn  flips reassign  turnover signalling
----------------------------------------------------
   0.5 |    5.8    0.1      0.9       2.3        3.0
     2 |   22.6    1.9      3.2       8.7        7.3
     5 |   51.1    5.7      6.3      15.2        7.2
    10 |  105.2    6.4     11.0      17.2        6.2

Every re-signalling head re-runs the CH_HOP exchange and a GATEWAY flood;
the dynamic backbone avoids all of it by selecting gateways per broadcast.

exact incremental message accounting (messages per tick, vs full rebuild):

 speed |  hello   decl  chhop  gatew  total  rebuild  saved
   0.5 |    9.9    1.0   10.5    9.7   31.1    212.8    85%
     2 |   30.1    5.2   34.2   26.6   96.0    213.2    55%
     5 |   42.5   12.0   56.0   32.2  142.7    212.5    33%
    10 |   48.4   17.4   65.1   26.9  157.8    208.8    24%
"""}


def run_example(script: Path, tmp_path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("script", sorted(EXAMPLES.glob("*.py")),
                         ids=lambda p: p.name)
def test_example_exits_cleanly(script, tmp_path):
    done = run_example(script, tmp_path)
    assert done.returncode == 0, done.stderr
    if script.name in PINNED_OUTPUT:
        assert done.stdout == PINNED_OUTPUT[script.name]
