"""Every exact answer of the committed families against its recorded digest (see ``exactness.py``)."""

import json

import pytest

from exactness import DIGESTS_PATH, FAMILIES, digest


@pytest.mark.parametrize("family", FAMILIES)
def test_family_digest_is_the_recorded_one(family):
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert digest(FAMILIES[family]()) == recorded[family]
