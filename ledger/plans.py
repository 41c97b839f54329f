"""Seeded operation plans for the ledger's three workloads.

Every planned operation fixes its kind, user, payload, target choice and
the status it must receive.  The plans are built here, from ``--seed``
alone: field names, bounds, users and the SKU catalogue are written out
below rather than read from the program, so no change under ``src/``
can alter the inputs a run sends.

Targets are *choices*, not record ids: ``("recent", r)`` is the r-th
most recently acknowledged record of the collection and ``("any", u)``
picks index ``u * n >> 32`` of the ``n`` acknowledged records.  The
client (:mod:`ledger.drive`) resolves them against the ids the gateway
actually returned.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Optional

# -- operation kinds -----------------------------------------------------

VIEW = "view"
LIST = "list"
CREATE = "create"
UPDATE = "update"
BATCH = "batch"
SCORECARD = "scorecard"

#: The end-to-end latency class each kind reports under.
CLASS_OF = {
    VIEW: "view",
    LIST: "list",
    CREATE: "write",
    UPDATE: "write",
    BATCH: "batch",
    SCORECARD: "scorecard",
}

# -- EasyChair (the paper's case study) -----------------------------------

REVIEW_PATH = "/add-all-data-as-result-of-review"
REVIEW_FORM = "Add all data as result of review form"
REVIEW_ENTITY = "Add all data as result of review"
REVIEW_BOUNDS = {
    "overall_evaluation": (-3, 3),
    "reviewer_confidence": (1, 5),
    "originality": (1, 5),
    "significance": (1, 5),
    "presentation": (1, 5),
}
REVIEW_TEXT_FIELDS = (
    "first_name", "last_name", "email_address", "detailed_comments",
    "confidential_comments_for_pc",
)
REVIEW_USERS = (
    ("chair", 2, ("chair",)),
    ("pc_member_1", 1, ("pc",)),
    ("pc_member_2", 1, ("pc",)),
    ("author_1", 0, ("author",)),
    ("outsider", 0, ()),
)
CLEARED = ("chair", "pc_member_1", "pc_member_2")
UNCLEARED = ("author_1", "outsider")

FIRST_NAMES = ("Ada", "Alan", "Barbara", "Edsger", "Grace", "Niklaus",
               "Frances", "Tony", "Leslie", "Donald", "Margaret", "John")
LAST_NAMES = ("Lovelace", "Turing", "Liskov", "Dijkstra", "Hopper",
              "Wirth", "Allen", "Hoare", "Lamport", "Knuth", "Hamilton")
COMMENTS = (
    "Sound methodology; results reproduce.",
    "The evaluation misses a baseline.",
    "Clear writing, modest novelty.",
    "Related work is incomplete.",
    "Strong contribution to DQ requirements.",
    "Proofs need more detail.",
)
PC_COMMENTS = (
    "Accept; minor revisions only.",
    "Weak reject unless the rebuttal convinces.",
    "Champion this paper.",
    "Borderline; defer to the meta-reviewer.",
)

# -- the web shop (BI import) ---------------------------------------------

CUSTOMER_PATH = "/manage-customer-data"
CUSTOMER_FORM = "Manage customer data form"
CUSTOMER_ENTITY = "Manage customer data"
ORDER_PATH = "/manage-order-data"
ORDER_FORM = "Manage order data form"
ORDER_ENTITY = "Manage order data"
ORDER_BOUNDS = {"quantity": (1, 100), "unit_price_cents": (1, 500_000)}
SHOP_USERS = (
    ("clerk", 1, ("sales",)),
    ("analyst", 1, ("bi",)),
    ("integration_bot", 1, ("etl",)),
    ("visitor", 0, ()),
)
TRUSTED_CHANNELS = ("webshop", "store", "phone")

#: A fixed catalogue (independent of the run seed): 240 SKUs, one price
#: each, so ``unit_price_cents`` takes at most 240 in-bounds values plus
#: the two fixed defect values — far under the 4,096-value threshold
#: past which streaming telemetry stops tracking a field exactly.
SKU_CATALOGUE = tuple(
    (f"SKU-{index:04d}", random.Random(7919 * index + 1).randint(99, 99_999))
    for index in range(240)
)

# -- workload shapes ------------------------------------------------------

#: Records the "recent" choices draw from (the hot set).
REVIEW_HOT = 24
SHOP_HOT = 64
#: Preloaded records per workload (before any planned operation).
REVIEW_READ_PRELOAD = 200
REVIEW_REPLICATED_PRELOAD = 1000
SHOP_PRELOAD_ORDERS = 2000
SHOP_PRELOAD_CUSTOMERS = 600
#: Rows per ``submit_many`` batch on the web shop.
ORDER_BATCH_ROWS = 24
CUSTOMER_BATCH_ROWS = 16
#: Every N-th shop-ingest operation is a live scorecard.
SHOP_SCORECARD_EVERY = 50

WORKLOADS = ("review-read", "shop-ingest", "review-replicated")


class Op:
    """One planned operation."""

    __slots__ = ("kind", "path", "form", "user", "payload", "target",
                 "stale", "expect")

    def __init__(self, kind, path, user, expect, payload=None, target=None,
                 stale=False, form=None):
        self.kind = kind
        self.path = path
        self.form = form
        self.user = user
        self.payload = payload
        self.target = target
        self.stale = stale
        self.expect = expect

    def as_record(self) -> list:
        """A JSON-ready rendering (what the digest hashes)."""
        return [self.kind, self.path, self.form, self.user, self.payload,
                list(self.target) if self.target else None, self.stale,
                list(self.expect) if isinstance(self.expect, tuple)
                else self.expect]


# -- payloads ------------------------------------------------------------


def review(rng: random.Random) -> dict:
    first = rng.choice(FIRST_NAMES)
    last = rng.choice(LAST_NAMES)
    record = {
        "first_name": first,
        "last_name": last,
        "email_address": f"{first.lower()}.{last.lower()}@example.org",
        "detailed_comments": rng.choice(COMMENTS),
        "confidential_comments_for_pc": rng.choice(PC_COMMENTS),
    }
    for name, (lower, upper) in REVIEW_BOUNDS.items():
        record[name] = rng.randint(lower, upper)
    return record


def defective_review(rng: random.Random) -> dict:
    """A review failing Completeness (a field left empty) or Precision
    (a score outside its bounds)."""
    record = review(rng)
    if rng.random() < 0.5:
        record[rng.choice(REVIEW_TEXT_FIELDS)] = ""
    else:
        name = rng.choice(sorted(REVIEW_BOUNDS))
        lower, upper = REVIEW_BOUNDS[name]
        record[name] = rng.choice((lower - 1 - rng.randint(0, 3),
                                   upper + 1 + rng.randint(0, 3)))
    return record


def review_update(rng: random.Random, defective: bool) -> dict:
    change = {
        "overall_evaluation": rng.randint(-3, 3),
        "reviewer_confidence": rng.randint(1, 5),
    }
    if defective:
        change["overall_evaluation"] = rng.choice((-9, -4, 4, 9))
    return change


def order(rng: random.Random, serial: int) -> dict:
    sku, price = rng.choice(SKU_CATALOGUE)
    quantity = rng.randint(1, 12)
    return {
        "order_id": f"O-{serial:07d}",
        "customer_id": f"C-{rng.randint(1, 5000):05d}",
        "sku": sku,
        "quantity": quantity,
        "unit_price_cents": price,
        "total_cents": quantity * price,
        "channel": rng.choice(TRUSTED_CHANNELS),
    }


def defective_order(rng: random.Random, serial: int) -> dict:
    """An order failing one of Completeness, Precision, Credibility or
    Consistency (fixed defect values keep the bounded fields' distinct
    counts small)."""
    record = order(rng, serial)
    defect = rng.randrange(4)
    if defect == 0:
        record[rng.choice(("sku", "customer_id", "channel"))] = ""
    elif defect == 1:
        if rng.random() < 0.5:
            record["quantity"] = rng.choice((0, 250))
        else:
            record["unit_price_cents"] = rng.choice((0, 750_000))
        record["total_cents"] = record["quantity"] * record["unit_price_cents"]
    elif defect == 2:
        record["channel"] = rng.choice(("fax", "unknown"))
    else:
        record["total_cents"] += 1
    return record


def order_update(rng: random.Random, defective: bool) -> dict:
    sku, price = rng.choice(SKU_CATALOGUE)
    quantity = rng.randint(1, 12)
    change = {
        "sku": sku,
        "quantity": quantity,
        "unit_price_cents": price,
        "total_cents": quantity * price,
    }
    if defective:
        change["total_cents"] += 1 + rng.randint(0, 9)
    return change


def customer(rng: random.Random, serial: int) -> dict:
    first = rng.choice(FIRST_NAMES)
    last = rng.choice(LAST_NAMES)
    return {
        "customer_id": f"C-{serial:05d}",
        "full_name": f"{first} {last}",
        "email": f"{first.lower()}{serial}@shop.example.com",
        "postcode": f"{rng.randint(0, 99_999):05d}",
        "channel": rng.choice(TRUSTED_CHANNELS),
        "profile_age_days": rng.randint(0, 365),
    }


def defective_customer(rng: random.Random, serial: int) -> dict:
    """A customer failing Accuracy (email or postcode format) or
    Currentness (a stale profile)."""
    record = customer(rng, serial)
    defect = rng.randrange(3)
    if defect == 0:
        record["email"] = record["email"].replace("@", " at ")
    elif defect == 1:
        record["postcode"] = rng.choice(("ABCDE", "123", "9999999"))
    else:
        record["profile_age_days"] = rng.choice((400, 730, 1500))
    return record


def customer_update(rng: random.Random, defective: bool) -> dict:
    change = {
        "postcode": f"{rng.randint(0, 99_999):05d}",
        "profile_age_days": rng.randint(0, 365),
    }
    if defective:
        change["postcode"] = "ABCDE"
    return change


# -- plans ----------------------------------------------------------------


def _target(rng: random.Random, hot: int, hot_share: float) -> tuple:
    if rng.random() < hot_share:
        return ("recent", rng.randrange(hot))
    return ("any", rng.getrandbits(32))


class Plan:
    """A workload's preload and one lazily extended operation sequence.

    The preload depends on ``workload`` and ``seed`` only; ``stream``
    selects one of several independent operation sequences over it (a
    run gives each of its rounds its own).  ``ops`` grows in order from
    the stream's own generator, so operation ``i`` is the same however
    the plan was extended to reach it.
    """

    def __init__(self, workload: str, seed: int, stream: int = 0):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.stream = stream
        self.replica_reads = workload == "review-replicated"
        self._rng = random.Random(f"{workload}:{seed}:preload")
        self._serial = 0
        self.preload = self._build_preload()
        self._rng = random.Random(f"{workload}:{seed}:{stream}")
        self.ops: list[Op] = []

    # -- preload -------------------------------------------------------

    def _build_preload(self) -> list[tuple]:
        """``(form, path, user, payloads)`` chunks, every row valid."""
        rng = self._rng
        if self.workload == "shop-ingest":
            chunks = []
            for form, path, total, make in (
                (CUSTOMER_FORM, CUSTOMER_PATH, SHOP_PRELOAD_CUSTOMERS,
                 customer),
                (ORDER_FORM, ORDER_PATH, SHOP_PRELOAD_ORDERS, order),
            ):
                for start in range(0, total, 100):
                    rows = [make(rng, self._next_serial())
                            for _ in range(min(100, total - start))]
                    chunks.append((form, path, "integration_bot", rows))
            return chunks
        total = (REVIEW_REPLICATED_PRELOAD if self.replica_reads
                 else REVIEW_READ_PRELOAD)
        return [
            (REVIEW_FORM, REVIEW_PATH, "chair",
             [review(rng) for _ in range(min(100, total - start))])
            for start in range(0, total, 100)
        ]

    def _next_serial(self) -> int:
        self._serial += 1
        return self._serial

    # -- operations ----------------------------------------------------

    def extend(self, count: int) -> None:
        make = {
            "review-read": self._review_read_op,
            "shop-ingest": self._shop_op,
            "review-replicated": self._review_replicated_op,
        }[self.workload]
        for _ in range(count):
            self.ops.append(make(len(self.ops)))

    def op(self, index: int) -> Op:
        while index >= len(self.ops):
            self.extend(max(1024, len(self.ops) // 2))
        return self.ops[index]

    def _read_status(self) -> int:
        return 203 if self.replica_reads else 200

    def _review_view(self, hot_share: float, cleared_share: float) -> Op:
        rng = self._rng
        target = _target(rng, REVIEW_HOT, hot_share)
        if rng.random() < cleared_share:
            return Op(VIEW, REVIEW_PATH, rng.choice(CLEARED),
                      self._read_status(), target=target)
        return Op(VIEW, REVIEW_PATH, rng.choice(UNCLEARED), 403,
                  target=target)

    def _review_list(self, cleared_share: float) -> Op:
        rng = self._rng
        pool = CLEARED if rng.random() < cleared_share else UNCLEARED
        return Op(LIST, REVIEW_PATH, rng.choice(pool), self._read_status())

    def _review_write(self, create_share: float, hot_share: float) -> Op:
        rng = self._rng
        roll = rng.random()
        if rng.random() < create_share:
            if roll < 0.80:
                return Op(CREATE, REVIEW_PATH, rng.choice(CLEARED), 201,
                          payload=review(rng))
            if roll < 0.92:
                return Op(CREATE, REVIEW_PATH, rng.choice(CLEARED), 422,
                          payload=defective_review(rng))
            return Op(CREATE, REVIEW_PATH, rng.choice(UNCLEARED), 403,
                      payload=review(rng))
        target = _target(rng, REVIEW_HOT, hot_share)
        if roll < 0.75:
            return Op(UPDATE, REVIEW_PATH, rng.choice(CLEARED), 200,
                      payload=review_update(rng, False), target=target)
        if roll < 0.85:
            return Op(UPDATE, REVIEW_PATH, rng.choice(CLEARED), 422,
                      payload=review_update(rng, True), target=target)
        if roll < 0.92:
            return Op(UPDATE, REVIEW_PATH, rng.choice(UNCLEARED), 403,
                      payload=review_update(rng, False), target=target)
        return Op(UPDATE, REVIEW_PATH, rng.choice(CLEARED), 409,
                  payload=review_update(rng, False), target=target,
                  stale=True)

    def _review_read_op(self, index: int) -> Op:
        roll = self._rng.random()
        if roll < 0.63:
            return self._review_view(hot_share=0.8, cleared_share=0.75)
        if roll < 0.88:
            return self._review_list(cleared_share=0.75)
        return self._review_write(create_share=0.3, hot_share=0.6)

    def _review_replicated_op(self, index: int) -> Op:
        rng = self._rng
        roll = rng.random()
        if roll < 0.60:
            return self._review_view(hot_share=0.0, cleared_share=0.8)
        if roll < 0.93:
            return self._review_write(create_share=0.45, hot_share=0.0)
        if roll < 0.98:
            return self._review_list(cleared_share=0.8)
        return Op(SCORECARD, REVIEW_ENTITY, "", "lines",
                  payload=REVIEW_BOUNDS)

    def _shop_op(self, index: int) -> Op:
        rng = self._rng
        if index % SHOP_SCORECARD_EVERY == SHOP_SCORECARD_EVERY - 1:
            return Op(SCORECARD, ORDER_ENTITY, "", "lines",
                      payload=ORDER_BOUNDS)
        orders = rng.random() < 0.7
        path = ORDER_PATH if orders else CUSTOMER_PATH
        roll = rng.random()
        if roll < 0.25:
            size = ORDER_BATCH_ROWS if orders else CUSTOMER_BATCH_ROWS
            rows, statuses = [], []
            for _ in range(size):
                serial = self._next_serial()
                if rng.random() < 0.1:
                    rows.append(defective_order(rng, serial) if orders
                                else defective_customer(rng, serial))
                    statuses.append(422)
                else:
                    rows.append(order(rng, serial) if orders
                                else customer(rng, serial))
                    statuses.append(201)
            return Op(BATCH, path, "integration_bot", tuple(statuses),
                      payload=rows,
                      form=ORDER_FORM if orders else CUSTOMER_FORM)
        if roll < 0.50:
            serial = self._next_serial()
            if rng.random() < 0.1:
                payload = (defective_order(rng, serial) if orders
                           else defective_customer(rng, serial))
                return Op(CREATE, path, "clerk", 422, payload=payload)
            payload = (order(rng, serial) if orders
                       else customer(rng, serial))
            return Op(CREATE, path, "clerk", 201, payload=payload)
        if roll < 0.75:
            target = _target(rng, SHOP_HOT, 0.5)
            update = order_update if orders else customer_update
            kind = rng.random()
            if kind < 0.80:
                return Op(UPDATE, path, "clerk", 200,
                          payload=update(rng, False), target=target)
            if kind < 0.92:
                return Op(UPDATE, path, "clerk", 422,
                          payload=update(rng, True), target=target)
            return Op(UPDATE, path, "clerk", 409,
                      payload=update(rng, False), target=target, stale=True)
        return Op(VIEW, path, rng.choice(("analyst", "visitor")), 200,
                  target=_target(rng, SHOP_HOT, 0.5))


def digest(streams: list, count: int = 1000) -> str:
    """SHA-256 over the preload and the first ``count`` operations of
    every stream (plans of one workload and seed)."""
    hasher = hashlib.sha256()
    hasher.update(json.dumps(
        [[form, path, user, rows]
         for form, path, user, rows in streams[0].preload],
        sort_keys=True, separators=(",", ":"),
    ).encode())
    for plan in streams:
        plan.op(count - 1)
        for op in plan.ops[:count]:
            hasher.update(json.dumps(
                op.as_record(), sort_keys=True, separators=(",", ":")
            ).encode())
    return hasher.hexdigest()


def resolve(target: tuple, acked: list) -> Optional[int]:
    """The record id a target choice names among ``acked`` ids."""
    if not acked:
        return None
    how, value = target
    if how == "recent":
        return acked[-1 - min(value, len(acked) - 1)]
    return acked[(value * len(acked)) >> 32]
