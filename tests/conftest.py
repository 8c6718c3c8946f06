import itertools

import pytest
from hypothesis import settings

from xorsim import node
from xorsim.coding import Scheme, cope_can_code, excode_can_code
from xorsim.packet import NativePacket

# the config fuzzers, loader-library agreement and stand-in properties of
# test_cli.py, the ill-typed scenario, addressed-once (with its check of
# what each mix send carries and addresses) and retirement properties of
# test_simulator.py, and the one-broadcast property of test_node.py scale
# with the profile's max_examples: CI runs them again with
# --hypothesis-profile=config-fuzz, ten times the default 100
settings.register_profile("config-fuzz", max_examples=1000)


@pytest.fixture
def watch_scans(monkeypatch):
    """watch_scans(probe) wraps the partner scan where nodes look it up.

    After each scan, probe(node, p, q, cope_ok, excode_ok) is called on every
    cross-flow candidate the scan examined: each queued native not destined
    to the relay, up to and including the returned index, in queue order.
    """

    def install(probe):
        scan = node.find_partner

        def watched(p, queue, scheme, self_id, reports):
            idx = scan(p, queue, scheme, self_id, reports)
            if scheme is not Scheme.NON_CODING:
                examined = len(queue) if idx is None else idx + 1
                for q in itertools.islice(queue, examined):
                    if isinstance(q, NativePacket) and q.dst != self_id and q.uid.flow != p.uid.flow:
                        probe(self_id, p, q, cope_can_code(p, q, reports), excode_can_code(p, q))
            return idx

        monkeypatch.setattr(node, "find_partner", watched)

    return install
