"""Outputs recorded at the seed commit, which later commits must reproduce."""

# sha256 of `lpakit classify --corpus corpus --json --truncate N` stdout.
CORPUS_SHA256 = {
    4: "baf19874338db122dbd499bf3bb1d249557c3cb2202be6385b8e420572b3371e",
    5: "d7a23b67cc07698c6b97bd424078ff76d5b53a581b3b5ce87956be9ca1e0263c",
}

# classify verdicts per generated family: (simple, almost simple, failure kind).
VERDICTS = {
    "path": (True, True, None),
    "cycle_exits": (False, False, "core_not_simple"),
    "random_sparse": (False, False, "core_not_simple"),
    "balloon_stack": (False, True, None),
}

# sha256 of the seed-independent sample of products, str(x * y) one per line.
SAMPLE_DIGEST = "b0e143bf089701809a0aa93a0b8011d8e82c7a7047e304f4e49dbab889a675f0"

# verify_cycle_iso(d): (relation checks, product checks).
CYCLE_CHECKS = {
    1: (12, 49), 2: (28, 196), 3: (48, 441),
    4: (72, 784), 5: (100, 1225), 6: (132, 1764),
}
