import collections
import os
import subprocess
import sys
from pathlib import Path

import coordsim


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in collections.Counter(coordsim.__all__).items()
                if count > 1]
    assert repeated == []
    assert [name for name in coordsim.__all__ if not hasattr(coordsim, name)] == []
    namespace = {}
    exec("from coordsim import *", namespace)
    assert set(coordsim.__all__) <= set(namespace)


def test_region_names_resolve_on_first_use():
    # `import coordsim` leaves the solver (and scipy.optimize) unloaded
    script = ("import sys\n"
              "import coordsim\n"
              "assert 'coordsim.region' not in sys.modules\n"
              "query, curve = coordsim.RegionQuery, coordsim.rate_delta_curve\n"
              "region = sys.modules['coordsim.region']\n"
              "assert coordsim.region is region\n"
              "assert query is region.RegionQuery and curve is region.rate_delta_curve\n"
              "assert not hasattr(coordsim, 'no_such_name')\n")
    src = str(Path(coordsim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
