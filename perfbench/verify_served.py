"""Check every served certificate after the timed window.

A served body must be a ``repro-certificate/1`` document about the
instance that was requested, pass the independent checker, and state the
same interval as a cold in-process solve of that instance.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core import fallback
from repro.verify.checker import check_certificate
from repro.verify.serialize import CERTIFICATE_FORMAT, network_from_spec

_FIELDS = ("quantity", "lower", "upper", "lower_evidence", "upper_evidence")


def wrong_answers(requests: list) -> list[str]:
    """One line per wrong served answer; failed requests are not answers."""
    wrong: list[str] = []
    expected: dict[str, tuple[int, int]] = {}
    checked: set[str] = set()
    for req in requests:
        if req.error or req.body in checked:
            continue
        checked.add(req.body)
        data = json.loads(req.body)
        if data.get("format") != CERTIFICATE_FORMAT:
            wrong.append(f"served body is not {CERTIFICATE_FORMAT}: {data.get('format')!r}")
            continue
        asked = network_from_spec(req.spec)
        net = network_from_spec(data["network"])
        if net.edge_digest != asked.edge_digest:
            wrong.append(f"asked for {asked.name}, served a certificate about {net.name}")
            continue
        fields = {k: data.get(k) for k in _FIELDS}
        bits = data.get("witness")
        fields["witness_side"] = None if bits is None else np.array(
            [c == "1" for c in bits], dtype=bool)
        report = check_certificate(net, fields)
        if not report.ok:
            wrong.append(f"{net.name}: served certificate rejected: {report.problems}")
        if net.edge_digest not in expected:
            cert = fallback.solve_with_fallback(net)
            expected[net.edge_digest] = (int(cert.lower), int(cert.upper))
        got = (fields["lower"], fields["upper"])
        if got != expected[net.edge_digest]:
            wrong.append(f"{net.name}: served {list(got)}, in-process solve gives "
                         f"{list(expected[net.edge_digest])}")
    return wrong
