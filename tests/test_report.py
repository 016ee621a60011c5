import json

import numpy as np

from hfrac.report import VerificationReport


def test_report_round_trips_through_json():
    # numpy scalars, arrays and complex inputs all reach plain JSON
    rep = VerificationReport(suite="demo", inputs={"k": np.int64(3), "grid": np.arange(3.0),
                                                   "z": 1.0 + 2.0j})
    rep.add("err", 1e-3, route="spectral", tolerance=1e-2)
    rep.require("finite", True)
    rep.add("scale", 2.5, route="exact")
    d = json.loads(rep.finish().to_json())
    assert d["suite"] == "demo"
    assert d["inputs"] == {"k": 3, "grid": [0.0, 1.0, 2.0], "z": {"re": 1.0, "im": 2.0}}
    assert d["measurements"] == [
        {"name": "err", "value": 1e-3, "route": "spectral", "tolerance": 1e-2, "passed": True},
        {"name": "finite", "value": 1.0, "route": "", "tolerance": None, "passed": True},
        {"name": "scale", "value": 2.5, "route": "exact", "tolerance": None, "passed": None},
    ]
    assert d["passed"] is True
    rep.add("over", 1.0, tolerance=0.5)
    assert json.loads(rep.to_json())["passed"] is False
