"""Cached authorisation against the cold path, as its own oracle.

Every cache on the authorisation path (validity, signature, custode
decisions, remote-ACL images, credential and storage follower replicas)
may only ever repeat what the uncached path would answer now.  One
seeded operation sequence therefore runs twice over identical worlds:
once normally, and once with every cache cleared before each operation.
The grant/deny outcome of every operation must be identical.

The sequence is made of episodes: warm accesses (reads through a
:class:`StorageFleet` with followers, including files governed by a
remote ACL; validations through a :class:`CredentialShard` with a
follower), one change aimed at what they use (logoff, exit, admission,
``modify_acl``, ``set_acl_of``, deletion, rolefile removal or restore,
restart, clock advance, issuer suspicion or recovery), then the same
accesses again — the window a stale cache entry would show in.
"""

import random

import pytest

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import LocalLinkage
from repro.core.sharding import CredentialShard, StorageFleet, StorageShard
from repro.core.types import ObjectType
from repro.errors import OasisError
from repro.mssa.acl import Acl
from repro.mssa.byte_segment import ByteSegmentCustode
from repro.mssa.flat_file import FlatFileCustode
from repro.mssa.ids import FileId
from repro.runtime.clock import ManualClock

LOGIN_RDL = "def LoggedOn(u, h)  u: userid  h: string\nLoggedOn(u, h) <- "
GUEST_RDL = "def Guest(g)  g: string\nGuest(g) <- "
OPEN = "@staff=+r admin=+rwad"
CLOSED = "admin=+rwad"
USERS = ("u0", "u1", "u2", "u3", "admin")

# the change between an episode's warm and repeated accesses -> weight
CHANGES = {
    "logoff": 4, "exit_use": 3, "modify_acl": 3, "regroup": 3, "delete": 1,
    "remove_rolefile": 2, "restore_rolefile": 2, "remove_guests": 2,
    "restore_guests": 2, "restart": 2, "advance": 3, "suspect": 1,
    "recover": 2, "admit": 4, "admit_guest": 3,
}
ACCESSES = ("read", "read_data", "validate", "steal", "validate_guest")


def generate(seed: int, length: int) -> list[tuple]:
    """The operation sequence.  Operands are raw integers resolved
    against whatever exists when the operation runs (identically in both
    runs); the operations of one episode share them, so its change hits
    the session, file, ACL or rolefile its accesses use."""
    rng = random.Random(f"cache-differential:{seed}")
    names = list(CHANGES)
    weights = [CHANGES[name] for name in names]
    ops = [("admit", n, n) for n in range(8)] + [("admit_guest", 0, 0)]
    while len(ops) < length:
        x, y = rng.randrange(1000), rng.randrange(1000)
        if rng.random() < 0.3:
            ops.append(("admit", x, y))      # keep live sessions coming
        warm = [(name, x, y) for name in ACCESSES for _ in range(2)]
        change = (rng.choices(names, weights)[0], x, y)
        ops += warm + [change] + [(name, x, y) for name in ACCESSES]
    return ops


class World:
    def __init__(self):
        self.clock = ManualClock()
        registry = ServiceRegistry()
        linkage = LocalLinkage()
        self.login = OasisService(
            "Login", registry=registry, linkage=linkage, clock=self.clock,
            cert_lifetime=60.0,
        )
        self.login.export_type(ObjectType("Login.userid"), "userid")
        self.login.add_rolefile("main", LOGIN_RDL)
        self.login.add_rolefile("guests", GUEST_RDL)
        self.credentials = CredentialShard(self.login, followers=1)

        def make(cls, name):
            return cls(name, registry=registry, linkage=linkage, clock=self.clock,
                       user_groups=lambda u: {"staff"} if u.startswith("u") else set())

        self.host = HostOS("ws")
        self.clients = {user: self.host.create_domain().client_id for user in USERS}
        self.bsc = make(ByteSegmentCustode, "bsc")
        self.ffc1 = make(FlatFileCustode, "ffc1")
        self.ffc2 = make(FlatFileCustode, "ffc2")
        self.custodes = (self.ffc1, self.ffc2, self.bsc)
        for ffc in (self.ffc1, self.ffc2):
            ffc.wire_below(self.bsc, self.login.enter_role(
                ffc.identity, "LoggedOn", (f"custode:{ffc.name}", ffc.identity.host)
            ))
        self.storage = StorageFleet(
            [StorageShard(self.ffc1, followers=1), StorageShard(self.ffc2, followers=1)]
        )
        meta = self.ffc1.create_acl(Acl.parse("custode:ffc2=+r admin=+rwad"))
        a0 = self.ffc1.create_acl(Acl.parse(OPEN), protecting_acl_id=meta)
        a1 = self.ffc1.create_acl(Acl.parse(OPEN))
        a2 = self.ffc2.create_acl(Acl.parse(OPEN))
        self.meta_of = {a0: meta, a1: a1, a2: a2}     # where 'w' on the ACL is checked
        self.owner = {a0: self.ffc1, a1: self.ffc1, a2: self.ffc2}
        # (custode, ACL) pairs a principal may enter UseAcl at; a0 is
        # remote for ffc2, so ffc2 reads it through its remote-ACL store
        self.places = [(self.ffc1, a0), (self.ffc1, a1), (self.ffc2, a2), (self.ffc2, a0)]
        self.files = []      # (custode, the ACL it was created under, fid)
        for custode, acl in self.places * 2:
            fid = custode.create(acl, f"data {len(self.files)}".encode())
            self.files.append((custode, acl, fid))
        self.sessions = []   # (user, login cert, custode, use cert)
        self.guests = []

    def services(self):
        return [self.login] + [custode.service for custode in self.custodes]

    def clear_every_cache(self):
        for service in self.services():
            service.clear_validation_caches()
        for custode in self.custodes:
            custode.clear_storage_caches()

    def admin_cert(self, custode, acl):
        login_cert = self.login.enter_role(self.clients["admin"], "LoggedOn", ("admin", "ws"))
        return custode.enter_use_acl(self.clients["admin"], acl, login_cert)

    def run(self, op):
        """One operation; returns what the caller observed."""
        name, x, y = op
        if name == "admit":
            user = USERS[x % len(USERS)]
            custode, acl = self.places[y % len(self.places)]
            login_cert = self.login.enter_role(self.clients[user], "LoggedOn", (user, "ws"))
            use_cert = custode.enter_use_acl(self.clients[user], acl, login_cert)
            self.sessions.append((user, login_cert, custode, use_cert))
            return "granted"
        if name == "admit_guest":
            cert = self.login.enter_role(
                self.clients["u0"], "Guest", (f"g{x}",), rolefile_id="guests"
            )
            self.guests.append(cert)
            return "granted"
        if name == "validate_guest":
            if not self.guests:
                return "skip"
            self.credentials.validate(self.guests[-1 - x % min(len(self.guests), 3)])
            return "granted"
        if name == "remove_guests":
            self.login.remove_rolefile("guests")
            return "done"
        if name == "restore_guests":
            self.login.add_rolefile("guests", GUEST_RDL)
            return "done"
        if name == "restart":
            self.services()[x % 4].restart()
            return "done"
        if name == "advance":
            self.clock.advance(x % 20)
            return "done"
        if name in ("suspect", "recover"):
            table = self.custodes[x % 2].service.credentials
            if name == "suspect":
                table.mark_service_unknown("Login")
            else:   # surrogates back to issuer truth
                table.set_states([
                    (record.ref, self.login.credentials.state_of(record.external_ref))
                    for record in table.externals_of("Login")
                ])
            return "done"
        if not self.sessions:
            return "skip"
        # mostly one of the latest sessions, and mostly a file created
        # under its ACL at its custode (still the same file after a
        # regroup or delete, so the episode's repeat sees the change)
        recent = len(self.sessions) if x % 5 == 0 else min(len(self.sessions), 6)
        user, login_cert, custode, use_cert = self.sessions[-1 - x % recent]
        mine = [
            (owner, fid) for owner, acl, fid in self.files
            if owner is custode and str(acl) == use_cert.rolefile_id
        ]
        anywhere = [(owner, fid) for owner, _acl, fid in self.files]
        file_custode, fid = mine[y % len(mine)] if y % 4 else anywhere[y % len(anywhere)]
        if name == "read":
            # sometimes a right no ACL here grants staff: denials are never cached
            self.storage.check_access(use_cert, fid, "w" if y % 7 == 0 else "r")
            return "granted"
        if name == "read_data":
            return file_custode.read(use_cert, fid)
        if name == "validate":
            self.credentials.validate(login_cert, claimed_client=self.clients[user])
            return "granted"
        if name == "steal":     # presented by another user's client
            thief = USERS[(USERS.index(user) + 1) % len(USERS)]
            self.credentials.validate(login_cert, claimed_client=self.clients[thief])
            return "granted"
        if name == "logoff":
            self.login.exit_role(login_cert)
            return "done"
        if name == "exit_use":
            custode.service.exit_role(use_cert)
            return "done"
        if name == "remove_rolefile":
            custode.service.remove_rolefile(use_cert.rolefile_id)
            return "done"
        if name == "restore_rolefile":
            if use_cert.rolefile_id not in custode.service._rolefiles:
                acl = FileId.parse(use_cert.rolefile_id)
                custode.service.add_rolefile(str(acl), custode._rolefile_source(acl))
            return "done"
        acl = file_custode._record(fid).acl_id
        if name == "modify_acl":
            owner = self.owner[acl]
            cert = self.admin_cert(owner, self.meta_of[acl])
            owner.modify_acl(cert, acl, Acl.parse(OPEN if y % 2 else CLOSED))
            return "done"
        cert = self.admin_cert(file_custode, acl)
        if name == "delete":
            file_custode.delete(cert, fid)
            return "done"
        assert name == "regroup"
        choices = [acl for owner, acl in self.places if owner is file_custode]
        file_custode.set_acl_of(cert, fid, choices[y % len(choices)])
        return "done"


def outcomes(ops, cold: bool):
    world = World()
    observed = []
    for op in ops:
        if cold:
            world.clear_every_cache()
        try:
            observed.append((op[0], world.run(op)))
        except OasisError as exc:
            observed.append((op[0], type(exc).__name__))
    return world, observed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cached_outcomes_equal_cold_outcomes(seed):
    ops = generate(seed, 600)
    warm_world, warm = outcomes(ops, cold=False)
    _, cold = outcomes(ops, cold=True)
    for index, (got, want) in enumerate(zip(warm, cold)):
        assert got == want, f"op {index} {ops[index]}: cached {got}, cold path {want}"
    # the run exercised every cache and both kinds of outcome
    replicas = [r for shard in warm_world.storage.shards.values() for r in shard.replicas]
    assert sum(r.stats.warm_hits for r in replicas) > 0
    assert warm_world.credentials.replicas[0].stats.warm_hits > 0
    assert sum(c.storage.decision_hits for c in warm_world.custodes) > 0
    assert warm_world.login.stats.validity_cache_hits > 0
    assert warm_world.ffc2.storage.surrogate_hits > 0
    kinds = {result for _name, result in warm}
    assert "granted" in kinds
    assert {"RevokedError", "AccessDenied", "MisuseError", "FraudError"} <= kinds
