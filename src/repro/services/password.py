"""The central password service (section 3.4.3).

"Internally, the password service stores a set of secrets associated with
a number of keys."  After a discourse with the client (here: presenting
the password), the service issues a ``Passwd(userid, purpose)``
certificate.  This is a *bootstrapping* service: its policy is not
expressed in RDL (section 4.12 — a service may issue certificates for any
reason; RDL is simply the usual case).

Passwords are stored salted and hashed; comparison is constant-time.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from repro.core.credentials import RecordState
from repro.core.identifiers import ClientId
from repro.core.service import OasisService
from repro.core.types import ObjectType
from repro.errors import EntryDenied


class PasswordService(OasisService):
    """Issues ``Passwd(u, purpose)`` certificates after password checks.

    The RDL role exists so that other services can reference
    ``Pw.Passwd(u, p)`` in their rolefiles; entry to it is only ever
    granted through :meth:`authenticate`, never by bare request (the
    rolefile has no entry statement for it).
    """

    RDL = """
def Passwd(u, p)  u: userid  p: string
"""

    def __init__(self, name: str = "Pw", **kwargs):
        super().__init__(name, **kwargs)
        self.export_type(ObjectType(f"{name}.userid"), "userid")
        self.add_rolefile("main", self.RDL)
        self._passwords: dict[bytes, tuple[bytes, bytes]] = {}
        self.failed_attempts = 0

    def set_password(self, user: str, password: str) -> None:
        """Administratively set (or reset) a user's password."""
        salt = os.urandom(16)
        digest = self._hash(password, salt)
        key = self.parsename("userid", user).identity
        self._passwords[key] = (salt, digest)

    def remove_user(self, user: str) -> None:
        key = self.parsename("userid", user).identity
        self._passwords.pop(key, None)

    def authenticate(
        self, client: ClientId, user: str, password: str, purpose: str = "Login"
    ):
        """The client discourse: verify the password and issue a
        certificate stating the client has been authenticated."""
        uid = self.parsename("userid", user)
        stored = self._passwords.get(uid.identity)
        if stored is None:
            self.failed_attempts += 1
            raise EntryDenied(f"unknown user {user!r}")
        salt, digest = stored
        if not hmac.compare_digest(self._hash(password, salt), digest):
            self.failed_attempts += 1
            raise EntryDenied("bad password")
        # issue directly: one fresh record backs the certificate so it can
        # be revoked individually (e.g. on password change)
        state = self._rolefile_state("main")
        record = self.credentials.create_source(
            state=RecordState.TRUE, direct_use=True
        )
        return self._issue(
            client, frozenset({"Passwd"}), (uid, purpose), record, state, "main"
        )

    def change_password(self, user: str, old: str, new: str) -> None:
        """Change a password; outstanding Passwd certificates for the user
        are *not* revoked here (login sessions survive a password change,
        as in most real systems — revoke explicitly if policy demands)."""
        uid = self.parsename("userid", user)
        stored = self._passwords.get(uid.identity)
        if stored is None:
            raise EntryDenied(f"unknown user {user!r}")
        salt, digest = stored
        if not hmac.compare_digest(self._hash(old, salt), digest):
            self.failed_attempts += 1
            raise EntryDenied("bad password")
        self.set_password(user, new)

    @staticmethod
    def _hash(password: str, salt: bytes) -> bytes:
        return hashlib.pbkdf2_hmac("sha256", password.encode("utf-8"), salt, 20_000)
