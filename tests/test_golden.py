"""Golden reports: every CLI command on fixed inputs, byte for byte.

The inputs live in ``golden/`` next to this file; ``golden/transcript.txt``
holds, per command, its exit code, its stdout, its stderr and every file it
wrote.  The commands run in process through ``cli.main``.

Regenerate the transcript, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
TRANSCRIPT = os.path.join(GOLDEN, "transcript.txt")

# H3, C3^2, E5 = 3^{1+4}, H3 x C3 on y_k = x_1 + ... + x_k, the trivial
# group, and the extraspecial group of order 3^7.
INPUTS = ("h3.grp", "c3sq.grp", "e5.grp", "h3xc3.grp", "trivial.grp", "e3_7.grp")
KINDS = ("direct", "nilpotent2", "central", "amalgam")


def _commands():
    """(argv, names of the files the command writes), in run order."""
    out = []
    for name in INPUTS:
        for command in ("inspect", "capable", "epicentre", "rp-check", "decompose"):
            out.append(([command, name], ()))
    for base in ("h3", "c3sq"):
        for mode in ("capable", "noncapable"):
            stem = f"{base}.{mode}"
            files = (f"{stem}.grp", f"{stem}.map", f"{stem}.report")
            out.append(
                (["extend", "--mode", mode, f"{base}.grp", "-o", files[0], "--map", files[1], "--report", files[2]], files)
            )
            out.append((["verify-embed", f"{base}.grp", files[0], "--map", files[1]], ()))
            for command in ("rp-check", "decompose"):
                out.append(([command, files[0]], ()))
    # (kind, left, right, identified): two copies of H3, two abelian
    # factors, and two factors with m = 1 but different ranks.
    products = [(kind, "h3", "h3", kind in ("central", "amalgam")) for kind in KINDS]
    products += [(kind, "c3sq", "c3sq", False) for kind in KINDS]
    products += [(kind, "e5", "h3xc3", True) for kind in ("central", "amalgam")]
    for kind, left, right, identified in products:
        stem = kind if left == right == "h3" else f"{kind}.{left}.{right}"
        files = (f"{stem}.grp", f"{stem}.a.map", f"{stem}.b.map")
        ident = ["--identify", "h3_id.txt"] if identified else []
        out.append(
            (["product", "--kind", kind, f"{left}.grp", f"{right}.grp", *ident, "-o", files[0], "--map-a", files[1], "--map-b", files[2]], files)
        )
        out.append((["verify-embed", f"{left}.grp", files[0], "--map", files[1]], ()))
        out.append((["verify-embed", f"{right}.grp", files[0], "--map", files[2]], ()))
        out.append((["capable", files[0]], ()))
    # The amalgam refuses a trivial factor and writes nothing.
    out.append((["product", "--kind", "amalgam", "h3.grp", "trivial.grp", "-o", "amalgam.trivial.grp"], ()))
    out.append((["selftest"], ()))
    return out


def transcript(workdir) -> str:
    """Run every command on copies of the inputs in workdir."""
    from nilp2.cli import main

    for name in INPUTS + ("h3_id.txt",):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as src:
            text = src.read()
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as dst:
            dst.write(text)
    names = {name for argv, _ in _commands() for name in argv if "." in name}
    sections = []
    for argv, written in _commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([os.path.join(workdir, a) if a in names else a for a in argv])
        sections.append(f"==> nilp2 {' '.join(argv)} [exit {code}]\n{stdout.getvalue()}")
        if stderr.getvalue():
            sections.append(f"--> stderr\n{stderr.getvalue()}")
        for name in written:
            with open(os.path.join(workdir, name), encoding="utf-8") as fh:
                sections.append(f"--> {name}\n{fh.read()}")
    return "".join(sections)


def test_reports_match_the_golden_transcript(tmp_path):
    with open(TRANSCRIPT, encoding="utf-8") as fh:
        expected = fh.read()
    assert transcript(str(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        text = transcript(workdir)
    with open(TRANSCRIPT, "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(f"wrote {TRANSCRIPT}\n")
