"""Tests for the shared binary container codec and the files built on it."""

import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradspace.cli import read_jacobian, read_subspace, write_jacobian, write_subspace
from gradspace.core import ActiveSubspace
from gradspace.surrogate import RbfSurrogate, load, save
from gradspace.util import read_container, write_container

# SHA-256 of each format written from the fixed arrays below, so they pin the
# on-disk layout byte for byte. JACOBIAN_SHA was taken before the three writers
# shared one codec; SUBSPACE_SHA and RBF_SHA were re-taken when GSUB0002 dropped
# the complement basis and GRBF0002 the unread metadata
SUBSPACE_SHA = "50e0d257eded43e1635332e2e86a6a010b7323e6a5072c9df467649851efd500"
JACOBIAN_SHA = "84f3ffa1fdf108d0745e38d868c3c00382bb2dbfd2e6b351b6ff6c940363729e"
RBF_SHA = "31eedf9942811ebc410e6feb9d32986a4454494317c60ddab97712623f546c45"


def _fixed_subspace() -> ActiveSubspace:
    V = np.eye(4)
    V[:2, :2] = [[0.6, -0.8], [0.8, 0.6]]
    return ActiveSubspace(V[:, :2], np.array([4.0, 2.5, 0.5, 0.125]))


def _fixed_rbf() -> RbfSurrogate:
    return RbfSurrogate(
        centers=np.arange(6, dtype=float).reshape(3, 2) / 4.0,
        weights=np.array([1.5, -0.25, 0.75]),
        poly_coeffs=np.array([0.5, -1.0, 2.0]),
        shape=1.25,
        regularization=1e-10,
    )


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestFormatBytes:
    def test_subspace_bytes(self, tmp_path):
        path = tmp_path / "subspace.bin"
        write_subspace(path, _fixed_subspace())
        assert _sha(path) == SUBSPACE_SHA

    def test_jacobian_bytes(self, tmp_path):
        path = tmp_path / "jacobian.bin"
        write_jacobian(path, np.arange(12, dtype=float).reshape(3, 4) / 8.0 - 0.5)
        assert _sha(path) == JACOBIAN_SHA

    def test_rbf_bytes(self, tmp_path):
        path = tmp_path / "rbf_model.bin"
        save(_fixed_rbf(), path)
        assert _sha(path) == RBF_SHA


class TestContainer:
    # every float64 bit pattern, NaN, infinities and -0.0 among them, and
    # every shape, empty and zero-dimensional ones among them
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        arrays=st.lists(
            hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, min_side=0, max_side=5)),
            max_size=4,
        )
    )
    def test_round_trip(self, tmp_path, arrays):
        path = tmp_path / "c.bin"
        header = {"version": 1, "shapes": [list(a.shape) for a in arrays]}
        write_container(path, b"TEST0001", header, arrays)
        header2, arrays2 = read_container(
            path, b"TEST0001", "test", lambda h: [tuple(s) for s in h["shapes"]]
        )
        assert header2 == header
        assert len(arrays2) == len(arrays)
        for a, a2 in zip(arrays, arrays2):
            assert a2.shape == a.shape
            assert a2.tobytes() == a.tobytes()  # bitwise: NaN payloads and signed zeros
            assert a2.flags.writeable  # copies, not views of the file buffer

    def test_bad_magic_names_path(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, b"TEST0001", {}, [])
        with pytest.raises(ValueError, match="bad magic.*c.bin"):
            read_container(path, b"OTHR0001", "test", lambda h: [])

    @pytest.mark.parametrize("keep", [12, 20, -8])
    def test_truncated_file_names_path(self, tmp_path, keep):
        # cut inside the header length, the header, and the array data
        path = tmp_path / "c.bin"
        write_container(path, b"TEST0001", {"n": 3}, [np.ones(3)])
        raw = path.read_bytes()
        path.write_bytes(raw[:keep])
        with pytest.raises(ValueError, match=f"truncated test file {re.escape(str(path))}"):
            read_container(path, b"TEST0001", "test", lambda h: [(h["n"],)])

    @pytest.mark.parametrize(
        "header",
        [{"d": -1, "k": 1}, {"d": 2, "k": 2}, {"d": 1.5, "k": 4}, {}],
        ids=["negative-shape", "trailing-bytes", "non-integer-shape", "missing-key"],
    )
    def test_malformed_file_names_path(self, tmp_path, header):
        # six floats under a header whose shapes do not account for exactly six
        path = tmp_path / "jacobian.bin"
        write_container(path, b"GJAC0001", {**header, "version": 1}, [np.arange(6.0)])
        with pytest.raises(ValueError, match=f"bad gradient-matrix file {re.escape(str(path))}"):
            read_jacobian(path)

    @pytest.mark.parametrize(
        "blob", [b"{x}", b"[]", b"\xff\xfe"], ids=["not-json", "not-an-object", "not-utf8"]
    )
    def test_unreadable_header_names_path(self, tmp_path, blob):
        path = tmp_path / "jacobian.bin"
        path.write_bytes(b"GJAC0001" + struct.pack("<Q", len(blob)) + blob + np.arange(6.0).tobytes())
        with pytest.raises(ValueError, match=f"bad gradient-matrix file {re.escape(str(path))}"):
            read_jacobian(path)

    def test_truncated_formats_raise_value_error(self, tmp_path):
        writers = {
            "subspace.bin": (lambda p: write_subspace(p, _fixed_subspace()), read_subspace),
            "jacobian.bin": (lambda p: write_jacobian(p, np.ones((3, 4))), read_jacobian),
            "rbf_model.bin": (lambda p: save(_fixed_rbf(), p), load),
        }
        for name, (write, read) in writers.items():
            path = tmp_path / name
            write(path)
            path.write_bytes(path.read_bytes()[:-1])
            with pytest.raises(ValueError, match=f"truncated .*{name}"):
                read(path)
