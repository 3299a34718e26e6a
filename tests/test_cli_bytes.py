"""`tests/cli_bytes.py`, the fingerprint of the command line's output."""

import hashlib

from cli_bytes import ARGVS, ROOT, fingerprints

EMPTY = hashlib.sha256(b"").hexdigest()[:12]


def test_fingerprints_run_argvs_on_the_built_inputs():
    argvs = [["--json", "assignments", "sq.space"],
             ["build", "polytope", "--file", "seg_broken.json"],
             ["cohomology", "sq.space", "--degree", "1", "--relative", "nowhere"]]
    assert all(argv in ARGVS for argv in argvs)
    lines = [line.split(" ", 3) for line in fingerprints(ROOT / "src", argvs)]
    assert [(code, argv) for code, _, _, argv in lines] == [
        ("0", "--json assignments sq.space"),
        ("1", "build polytope --file seg_broken.json"),
        ("3", "cohomology sq.space --degree 1 --relative nowhere")]
    (_, out0, err0, _), (_, out1, err1, _), (_, out3, err3, _) = lines
    assert out0 != EMPTY and err0 == EMPTY
    assert out1 == out3 == EMPTY and EMPTY != err1 != err3 != EMPTY
