"""The package's records are NamedTuples, and importing the package and
its command line loads only what they compute with."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from ltk import catalog, homology, transfer
from ltk import lambda_algebra as la
from ltk.divided_power import PrimitivityEvidence
from ltk.f2core import BitMatrix

SRC = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))

# modules that none of the package's computations use: dataclasses and
# what it imports, and importlib.resources with pathlib
UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize",
          "importlib.resources", "pathlib")


class TestImportGraph:
    def test_package_and_cli_load_no_unused_module(self):
        # -S: no site, so no .pth file preloads any of them on any host
        probe = ("import sys; import ltk, ltk.cli; "
                 f"print(' '.join(m for m in {UNUSED!r} if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []


class TestRecords:
    def test_bit_matrix_checks_its_payload(self):
        with pytest.raises(ValueError, match="outside the declared width"):
            BitMatrix(1, 3, (1 << 3,))
        with pytest.raises(ValueError, match="outside the declared width"):
            BitMatrix(1, 3, (-1,))
        with pytest.raises(ValueError, match="row count"):
            BitMatrix(2, 3, (1,))
        m = BitMatrix(2, 3, (0b011, 0b110))
        assert (m.rows, m.cols, m.data) == (2, 3, (0b011, 0b110))
        assert type(m.transpose()) is BitMatrix
        with pytest.raises(AttributeError):
            m.rows = 3
        with pytest.raises(AttributeError):
            m.extra = 1  # no instance dict

    def test_primitivity_evidence_is_true_iff_it_holds(self):
        assert not PrimitivityEvidence(False, ())
        assert not PrimitivityEvidence(False, ((1, frozenset({(1,)})),))
        assert PrimitivityEvidence(True, ())

    def test_catalog_entry_is_read_only(self):
        e = catalog.entry("h0")
        assert (e.name, e.kind, e.bidegree) == ("h0", catalog.LAMBDA, (1, 0))
        with pytest.raises(AttributeError):
            e.name = "h1"

    def test_detection_reports_compare_field_by_field(self):
        # the certificate of h0d0, its factors in composition order
        u, target = catalog.entry("u14"), la.product(catalog.entry("d0").element,
                                                     catalog.entry("h0").element)
        a = transfer.verify_detection(u, target, expected_dim=1, target_name="h0d0")
        b = transfer.verify_detection(u, target, expected_dim=1, target_name="h0d0")
        assert a == b and a is not b
        assert a.verdict == "verified"
        with pytest.raises(AttributeError):
            a.verdict = "falsified"
        assert a != a._replace(target_name="other")

    def test_slice_fields(self):
        sl = homology.slice_at(2, 5)
        assert sl.basis == la.admissible_basis(2, 5)
        assert sl.prev_basis == la.admissible_basis(1, 6)
        assert sl.next_basis == la.admissible_basis(3, 4)
        with pytest.raises(AttributeError):
            sl.basis = ()
