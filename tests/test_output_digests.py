"""Every output bit is recorded: the 10-arm training digests and the CLI
chain's file and detection digests replay.

`make_output_digests.py` wrote ``output_digests.json``; a change that moves
an output bit on purpose writes it anew with ``--bit-change "<reason>"``.
"""

import json

import pytest

from make_output_digests import DIGEST_FILE, chain_digests, digests, fingerprint


@pytest.fixture(scope="module")
def want():
    """The recorded digests; skips where they were taken in another environment."""
    want = json.loads(DIGEST_FILE.read_text())
    here = fingerprint()
    if here != want["fingerprint"]:
        differ = {k: (here.get(k), v) for k, v in want["fingerprint"].items() if here.get(k) != v}
        pytest.skip(f"digests were recorded in another environment; (here, recorded): {differ}")
    return want


def test_training_outputs_match_the_recorded_digests(want):
    got = digests()
    assert set(got) == set(want["arms"]), "the set of valid arms changed"
    for arm, files in want["arms"].items():
        for name, digest in files.items():
            assert got[arm][name] == digest, f"{name} of arm '{arm}' differs from the recorded digest"


def test_cli_chain_outputs_match_the_recorded_digests(want):
    got = chain_digests()
    assert set(got["files"]) == set(want["chain"]["files"]), "the chain wrote another set of files"
    for name, digest in want["chain"]["files"].items():
        assert got["files"][name] == digest, f"{name} differs from the recorded digest"
    assert got["num_detections"] == want["chain"]["num_detections"]
    assert got["detections"] == want["chain"]["detections"], "evaluate_detector's detections differ"
