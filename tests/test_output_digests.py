"""Every training output bit is recorded: the 10-arm digest file replays.

`make_output_digests.py` wrote ``output_digests.json``; a change that moves
a training bit on purpose writes it anew with ``--bit-change "<reason>"``.
"""

import json

import pytest

from make_output_digests import DIGEST_FILE, digests, fingerprint


def test_training_outputs_match_the_recorded_digests():
    want = json.loads(DIGEST_FILE.read_text())
    here = fingerprint()
    if here != want["fingerprint"]:
        differ = {k: (here.get(k), v) for k, v in want["fingerprint"].items() if here.get(k) != v}
        pytest.skip(f"digests were recorded in another environment; (here, recorded): {differ}")
    got = digests()
    assert set(got) == set(want["arms"]), "the set of valid arms changed"
    for arm, files in want["arms"].items():
        for name, digest in files.items():
            assert got[arm][name] == digest, f"{name} of arm '{arm}' differs from the recorded digest"
