"""Reports stay byte-identical to the pinned digests (see make_report_digests)."""

import json

import pytest

from make_report_digests import DIGESTS, pool_keys, report_digests

_PINNED = json.loads(DIGESTS.read_text())


def test_digest_pool_is_pinned():
    assert sorted(_PINNED) == sorted(pool_keys())


@pytest.mark.parametrize("key", pool_keys())
def test_reports_match_pinned_digests(key):
    assert report_digests(key) == _PINNED[key]
