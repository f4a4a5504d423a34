"""Time one cold set-up of adradar in this fresh interpreter and print it as JSON.

Set-up is what every user pays before the first trial: importing the
package (numpy and scipy included), ``build_scene(Scenario())``, which
designs the wide beam, and ``build_preamble()``.  With ``--trace`` the layer
wrappers are installed after the import, so the beam design's span is
recorded too.  ``run.py`` starts this script with PYTHONPATH pointing at the
checkout's ``src``.

    python3 perfbench/setup_probe.py [--trace]
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import adradar  # noqa: E402

traced = "--trace" in sys.argv[1:]
if traced:
    from tracer import Tracer, summarize

    with Tracer() as tracer:
        adradar.build_scene(adradar.Scenario())
        adradar.build_preamble()
    beam = summarize(tracer.spans)["phasedarray.design_wide_beam"]
    out = {"design_wide_beam_calls": beam["calls"],
           "design_wide_beam_self_s": beam["self_s"]}
else:
    adradar.build_scene(adradar.Scenario())
    adradar.build_preamble()
    out = {}
out["setup_s"] = perf_counter() - start
out["adradar_file"] = adradar.__file__
print(json.dumps(out))
