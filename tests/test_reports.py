"""Byte pins for the reports that criterion 4 does not cover.

Criterion 4 pins each corpus `verify --suite all` report at grid 0,1/2,1
(through bench/refs.py).  These pin the same command at the grids 0,1 and
0,1/3,2/3,1, and each `h-ideals` report: (exit code, sha256 of stdout).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from gammah.cli import main

STRUCTURES = Path(__file__).resolve().parents[1] / "structures"

# (grid, stem of structures/<stem>.json) -> (exit code, sha256 of stdout).
# Exit 1 on Z2, Z3, Z4 and Z2xZ2 is the documented S4-prime refutation.
VERIFY = {
    ("0,1", "b"): (0, "76d13183adc1c832424462a121b325b92a247e9dd1fa20ba0425bd2be763bfc0"),
    ("0,1", "mat_b_2x1"): (0, "8b1f57949fb1d164fae7873120b1385bc99ff409fe98f1cd9448a2eb0eb52548"),
    ("0,1", "z2"): (1, "5957b9e604995c06548067af7b566aa260228341b54c3719e9a80bb70f2b1cbb"),
    ("0,1", "z2xz2"): (1, "d0ef3a2f5d846dd0ae5868199d78a59004bb4a06ab6b4628ba96729415bf171e"),
    ("0,1", "z3"): (1, "f1458b86c629615213797d25be170391818d515f08309506f6ce9666e36763e0"),
    ("0,1", "z4"): (1, "312ab9a6fe1e05b633c0c5473d2343006f9507693632dafac1350ca3071bcb12"),
    ("0,1/3,2/3,1", "b"): (0, "dbb3f1cf1eb5b3a737e132e2aa68aa3298d57480e3de1c88f79144a145aa699d"),
    ("0,1/3,2/3,1", "mat_b_2x1"): (0, "06d218e4afa3a4c2549544a343f8c02fe29bd6fa0f4dec8cef3709aa1f89a133"),
    ("0,1/3,2/3,1", "z2"): (1, "a5298aeeafe2a9f8be1a969b189b5657ecfbb18518aaddec39f383936324e257"),
    ("0,1/3,2/3,1", "z2xz2"): (1, "15630b8749d7e00c7113aa24afd681e435c184950d9887fcc15099cb35d75ef4"),
    ("0,1/3,2/3,1", "z3"): (1, "c543cb0c0174b4fe9314f5694c07c1c0c61d9f4947bc408395100b975314e3b0"),
    ("0,1/3,2/3,1", "z4"): (1, "b30fbf8b933dd278e204111d548da524aad4a7f7a1052a3838119d31866c42dd"),
}

# stem -> (exit code, sha256 of stdout) of `gammah h-ideals`.
H_IDEALS = {
    "b": (0, "9d869b07d3b63b4f33190bf419c4ac698c5b7c464f7dc3ef50a1b4251c3bea6b"),
    "mat_b_2x1": (0, "d393facfe69b0ced69684fa7daa9c695b3e392b6c77d3c59e51ffd7e7a50c1ec"),
    "z2": (0, "b2a1aa3f5a961e92782c885d5e54e8478acff8f630a98008656ce896c5e2c8db"),
    "z2xz2": (0, "8fae2fc0424a39221471e35feb5d0b82871aa96a6f7347da6d5b992d247ffb2b"),
    "z3": (0, "26d8c740c704699f67943dc404866c60e2d5e41beadd79ae15a394e3beadd3e9"),
    "z4": (0, "0100542016b23479410af856e3868e4567abfb875b747eba1bd55503af6b3304"),
}


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("grid, stem", list(VERIFY), ids=lambda v: v)
def test_verify_report_bytes(capsys, grid, stem):
    path = str(STRUCTURES / f"{stem}.json")
    assert _run(capsys, "verify", path, "--suite", "all", "--grid", grid) == VERIFY[grid, stem]


@pytest.mark.parametrize("stem", list(H_IDEALS))
def test_h_ideals_report_bytes(capsys, stem):
    assert _run(capsys, "h-ideals", str(STRUCTURES / f"{stem}.json")) == H_IDEALS[stem]
