"""Suite digests at their defaults: the behaviour contract.

A digest covers every check id, claim, verdict and certificate of a
suite run.  A change that moves one of these must say which and why.
Worker processes merge results back in construction order, so --jobs
never moves a digest.
"""

import pytest

from nervecheck.suites import SUITES, run_suite

DIGESTS = {
    "adjoint-lambda":
        "6cad4418f8cce9642dad270e51fe0d4eab335a39be8cc70b4d025a63d5c6ad1d",
    "base-change":
        "eb70fdebf3644ad1c4ee8ed4b15534f42e355c07cdda0482b084dba1257885d5",
    "lemma-admissible":
        "6237c20660c5bc3134a3f38008268f62c2b114b7f451446a75cf75bba55c1a60",
    "lemma-close":
        "70c1424428f4fde35099773f5a1e1c099b2a692cf913ff67ac62a6cfe9fa8eb2",
    "lemma-colimit":
        "04f25787359547136f4f572b64e94041def10151132bee43c8fe37e76e878a4b",
    "lemma-distant":
        "a72c9b81615e2b67e117368f3eb0ccc41fc00ca1e9e1a3a31c576de4ccb45930",
    "nerve-comparison":
        "11e49595de81cb4788d25ab90a29e4f4212f0ec07c4afde1038120bdf26eb0ca",
    "oracle-flag-necklace":
        "7df0214494c7f3054d5f4cf61151bc58ab8c0d618ff04b725cdc6a9a9022f5af",
    "reduced-lifting":
        "4dbc9de7900cc25192040567526b723dbb303fce0ef9c264a00a50e72b67e1b7",
    "straightening-fragment":
        "5d84ca4902cf3534475046d7f2b7f120eb5b55835de2ced56c5d9a4cd2f06de9",
    "theorem-contractible":
        "4d85c2def389276f4ef874cbf96c8afa093d264ee820450875f9e120f6938c7e",
}


def test_every_suite_is_pinned():
    assert set(DIGESTS) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_default_digest(suite):
    for jobs in (1, 2):
        assert run_suite(suite, jobs=jobs).digest() == DIGESTS[suite], jobs
