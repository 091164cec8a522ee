"""The committed value corpus (``corpus.py``, ``corpus.json``): every output keeps its bits."""

import math

import corpus


def test_outputs_match_the_committed_corpus():
    record = corpus.recorded()
    current = corpus.outputs()
    assert current.keys() == record["outputs"].keys()
    if corpus.same_platform(record):  # bit for bit: every hex string and every digest
        changed = [key for key, old in record["outputs"].items() if current[key] != old]
    else:  # another numpy or machine may sum in another order: each value and summary within 1e-12
        changed = [key for key, old in record["outputs"].items() if not corpus.close(old, current[key])]
    assert not changed, {key: corpus.ulps(record["outputs"][key], current[key]) for key in changed[:20]}


def test_ulps_and_closeness_of_stored_outputs():
    one, above, below = (float.hex(x) for x in (1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)))
    assert corpus.ulps(one, above) == corpus.ulps(below, one) == 1 and corpus.ulps(below, above) == 2
    tiny = float.hex(5e-324)
    assert corpus.ulps(tiny, float.hex(-5e-324)) == 2 and corpus.ulps(float.hex(0.0), float.hex(-0.0)) == 0
    assert corpus.ulps("undefined", "undefined") == 0 and corpus.ulps("undefined", one) == math.inf
    assert corpus.close(one, above) and not corpus.close(one, float.hex(1.0 + 1e-11))
    assert not corpus.close("undefined", one) and corpus.close("undefined", "undefined")
    array = corpus._array([1.0, 2.0, 3.0])
    assert corpus.ulps(array, {**array, "max": float.hex(math.nextafter(3.0, 4.0))}) == 1
    assert corpus.close(array, {**array, "sha256": "0" * 64})  # digests are compared only bit for bit
