"""Golden CLI outputs: stdout and exit codes of fixed commands, byte for byte.

The expected values were recorded from the CLI and change only when an
output format changes on purpose.  The perfbench/data factorization files
are only read; each file's transcript (fingerprint, pi1, then homs on the
simplified presentation) is compared as one sha256.
"""

import hashlib
from pathlib import Path

import pytest

from braidfact.cli import main

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"

NF_GOLDEN = [
    (("nf", "3", "1 2 1"), "inf=1 factors=\n"),
    (("nf", "3", "1 2 1 2 1 2"), "inf=2 factors=\n"),
    (("nf", "3", "-1"), "inf=-1 factors=1 2\n"),
    (("nf", "4", "1 -2 3 -1 2 2"), "inf=-1 factors=1 2 3 2;2 3 2;2\n"),
    (("nf", "5", "4 3 -2 1 1 -4"), "inf=-1 factors=1 2 4 3 2 1;3 4 2 3 1;1\n"),
    (("nf", "1", ""), "inf=0 factors=\n"),
    (("nf", "--format", "structured", "3", "-1"), "inf=-1\nfactors=1 2\n"),
    (
        ("nf", "--format", "structured", "4", "1 -2 3 -1 2 2"),
        "inf=-1\nfactors=1 2 3 2;2 3 2;2\n",
    ),
]

TRANSCRIPT_SHA256 = {
    "conic.fact": "8fe109cebc5a129f58b985748433990182cca0565554a63ed66fc856a0071df8",
    "conic_line.fact": "893c02e5b1988de45f1cb8183d90c7bd50ebe0a7981d78bbb5d07403106b2862",
    "cubic_cusp.fact": "f71eed449e4fc0647fd121a5d855bd98ada89bb3eff07bafba89fd08654e7abd",
    "cubic_smooth.fact": "39e9d5314b79fb77af224bd2e4804fb76e065501a2d1c4f0783a84f28dd11294",
    "quartic_three_cusp.fact": "74485d3dcd97fbf8dbb136be8d9b0a8f119c5c341a5a639cc19cb7471a211b4d",
    "quartic_two_cusp.fact": "0dbee060806dd19763ee9f4e33c32268c65771c8bf454ed89292510939639a43",
}


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,out", NF_GOLDEN)
def test_nf_golden(capsys, argv, out):
    assert _run(capsys, *argv) == (0, out)


def transcript(capsys, path: Path, workdir: Path) -> str:
    """fingerprint --conj-budget 300, pi1 --simplify 100 and homs 2..5 on
    the simplified presentation (default, then --all --epi), each command's
    stdout followed by its exit code."""
    parts = []

    def record(label, *argv):
        code, out = _run(capsys, *argv)
        parts.append(f"$ {label}\n{out}exit={code}\n")
        return out

    record("fingerprint", "fingerprint", str(path), "--conj-budget", "300")
    presentation = workdir / (path.stem + ".pres")
    presentation.write_text(record("pi1", "pi1", str(path), "--simplify", "100"))
    for n in range(2, 6):
        record(f"homs {n}", "homs", str(presentation), str(n))
        record(f"homs {n} --all --epi", "homs", str(presentation), str(n), "--all", "--epi")
    return "".join(parts)


def test_data_files_are_the_recorded_ones():
    assert sorted(p.name for p in DATA.glob("*.fact")) == sorted(TRANSCRIPT_SHA256)


@pytest.mark.parametrize("name", sorted(TRANSCRIPT_SHA256))
def test_factorization_transcript_golden(capsys, tmp_path, name):
    text = transcript(capsys, DATA / name, tmp_path)
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSCRIPT_SHA256[name], text
