"""The census: every isomorphism class of graphs with at most 4 vertices and
5 edges, one row each, frozen by its sha256.

A row is the vertex count, the canonical edges (source>target over the
vertex indices), classify's verdict and failure kind, and the rank of the
bracket pass at n = 2 over Q, mod 3 and mod 5.  A change that moves a
verdict or a rank moves the digest, and lists each changed class.
"""

import hashlib

from helpers import census_classes, census_line

CLASSES = 1400
DIGEST = "8de03ef15e10d21234a027032fb36295cf9ec8463c11fa4b796e2f7cca95e5df"


def test_census_table_is_frozen():
    classes = census_classes()
    assert len(classes) == CLASSES
    lines = [census_line(n, edges) for n, edges in classes]
    for line in lines:
        rank_q, rank_3, rank_5 = map(int, line.split()[-3:])
        # vectors independent mod p are independent over Q
        assert rank_3 <= rank_q and rank_5 <= rank_q, line
    table = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(table.encode()).hexdigest() == DIGEST
