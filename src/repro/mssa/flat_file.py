"""The flat file custode (section 5.2).

Stores regular files, with the data physically held in a byte segment
custode below (the custode is itself a distrusted client of the BSC,
holding exactly one UseAcl certificate for its container — the shared-
ACL design means "each VAC need store only one role membership
certificate for use at the level below", section 5.5).

Rights: read / write / append / delete.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import StorageError
from repro.mssa.acl import Acl
from repro.mssa.byte_segment import ByteSegmentCustode
from repro.mssa.custode import Custode
from repro.mssa.ids import FileId


class FlatFileCustode(Custode):
    ALPHABET = "rwad"
    FULL_RIGHTS = frozenset(ALPHABET)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._below: Optional[ByteSegmentCustode] = None
        self._below_cert = None
        self._below_acl: Optional[FileId] = None
        self.below_calls = 0

    # -- wiring -------------------------------------------------------------

    def wire_below(self, below: ByteSegmentCustode, login_cert) -> None:
        """Connect to the byte segment custode: create our private
        container ACL there and obtain the single certificate we use for
        every downward call."""
        below_acl = below.create_acl(
            Acl.parse(f"custode:{self.name}=+rw", alphabet=below.ALPHABET),
            container=f"{self.name}-meta",
        )
        self._below = below
        self._below_acl = below_acl
        self._below_cert = below.enter_use_acl(self.identity, below_acl, login_cert)

    def _segment_for(self, fid: FileId) -> FileId:
        record = self._record(fid)
        segment = record.content
        if segment is None:
            if self._below is None:
                raise StorageError(f"custode {self.name!r} has no byte segment custode")
            assert self._below_acl is not None
            segment = self._below.create_segment(self._below_acl)
            record.content = segment
        return segment

    # -- interface ----------------------------------------------------------------

    def create(self, acl_id: FileId, data: bytes = b"", container: str = "default") -> FileId:
        fid = self.create_file(None, acl_id, container=container)
        if data:
            segment = self._segment_for(fid)
            assert self._below is not None
            self.below_calls += 1
            self._below.write_segment(self._below_cert, segment, data)
        return fid

    def read(self, cert, fid: FileId) -> bytes:
        record = self.check_access(cert, fid, "r")
        self.ops += 1
        if record.content is None:
            return b""
        assert self._below is not None
        self.below_calls += 1
        return self._below.read_segment(self._below_cert, record.content)

    def write(self, cert, fid: FileId, data: bytes) -> None:
        """Replace the file's contents."""
        self.check_access(cert, fid, "w")
        self.ops += 1
        segment = self._segment_for(fid)
        assert self._below is not None
        self.below_calls += 1
        self._below.write_segment(self._below_cert, segment, data, truncate=True)

    def append(self, cert, fid: FileId, data: bytes) -> None:
        self.check_access(cert, fid, "a")
        self.ops += 1
        segment = self._segment_for(fid)
        assert self._below is not None
        self.below_calls += 2
        length = self._below.segment_length(self._below_cert, segment)
        self._below.write_segment(self._below_cert, segment, data, offset=length)

    def delete(self, cert, fid: FileId) -> None:
        record = self.check_access(cert, fid, "d")
        self.ops += 1
        # drops the per-ACL index entry and accounting; cached decisions
        # for the file miss from now on
        self._forget_file(record)

    def size(self, cert, fid: FileId) -> int:
        record = self.check_access(cert, fid, "r")
        self.ops += 1
        if record.content is None:
            return 0
        assert self._below is not None
        self.below_calls += 1
        return self._below.segment_length(self._below_cert, record.content)
