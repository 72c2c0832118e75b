"""RMI, PGM and the sorted array, op by op, against digests of their earlier code.

The RMI and the PGM index share one delta layer (:mod:`repro.indexes.delta`):
shadowing, tombstones, the merge and the ``max_delta`` auto-retrain. Before
it, each kept its own copy (a merge-join loop in one, a dict and a sort in
the other), and the sorted array kept a key list beside its key buffer.

Each case here drives one index through a seeded op sequence: inserts of
new and stored keys, deletes of base-only, delta-only and missing keys,
gets that hit and miss, ranges, ``bulk_lookup`` with no, a true, a wrong
and a malformed ``ranks`` hint (and one with a missing key), and retrains
with and without an access sample. After every op it hashes the return
value or exception, every :class:`~repro.indexes.base.IndexStats` field,
``items()``, ``len``, ``size_bytes`` and ``delta_size``. The digests in
``DIGESTS`` were taken from the two-copy code. Keys are finite with both
zeros, or also ``±inf``; equal keys of different bits (``-0.0`` against
``0.0``) keep the base key's bits through a merge.

Deleting a key whose delta entry shadows a base key is left out: the
two-copy code brought the base value back, which
``TestDelete::test_delete_after_overwrite_removes_key`` in
``test_ordered_contract.py`` now rules out.

To print the digests of the tree on ``PYTHONPATH``:
``PYTHONPATH=src python -m tests.indexes.test_delta_oracle``.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import random

import numpy as np
import pytest

from repro.indexes import PGMIndex, RecursiveModelIndex, SortedArrayIndex

INF = float("inf")
FINITE = sorted({k * 0.75 + (k % 7) ** 2 for k in range(-60, 60)} | {0.0})
KEYSETS = {"finite": FINITE + [-0.0], "infinite": FINITE + [-0.0, INF, -INF]}
MAKERS = {
    "rmi": lambda max_delta: RecursiveModelIndex(fanout=8, max_delta=max_delta),
    "pgm": lambda max_delta: PGMIndex(epsilon=4, max_delta=max_delta),
    "sorted": lambda max_delta: SortedArrayIndex(),
}
OPS = (
    ["insert-new"] * 4 + ["insert-stored"] * 2 + ["delete-base", "delete-delta", "delete-missing"]
    + ["get-hit"] * 3 + ["get-miss", "range"] + ["bulk"] * 2 + ["retrain"]
)
LENGTH = 200


def _key(k) -> str:
    return float(k).hex()


def _run(kind: str, max_delta, keyset: str, seed: int) -> str:
    """The digest of one seeded op sequence on one index."""
    rng = random.Random(f"{kind}/{max_delta}/{keyset}/{seed}")
    pool = KEYSETS[keyset]
    index = MAKERS[kind](max_delta)
    digest = hashlib.sha256()
    loaded = [(rng.choice(pool), f"load{i}") for i in range(40)]
    live = set()
    delta = set()  # keys written since the last merge (RMI and PGM)

    def base():
        return set(index._keys.tolist()) if kind != "sorted" else set(live)

    def record(op, arg, outcome):
        digest.update(repr((op, arg, outcome, dataclasses.astuple(index.stats))).encode())
        pairs = [(_key(k), v) for k, v in index.items()]
        digest.update(repr((pairs, len(index), index.size_bytes())).encode())
        digest.update(repr(getattr(index, "delta_size", None)).encode())

    with np.errstate(all="ignore"):  # ±inf keys make NaN model fits
        index.bulk_load(loaded)
        live.update(k for k, _ in loaded)
        record("load", None, None)
        for step in range(LENGTH):
            op = rng.choice(OPS)
            retrains = index.stats.retrains
            stored_base = base() & live
            candidates = {
                "insert-new": [k for k in pool if k not in live],
                "insert-stored": sorted(live),
                "delete-base": sorted(stored_base - delta),
                "delete-delta": sorted(delta - base()),
                "delete-missing": [k for k in pool if k not in live],
                "get-hit": sorted(live),
                "get-miss": [k for k in pool if k not in live],
            }.get(op)
            if candidates is not None and not candidates:
                record(op, "skipped", None)
                continue
            key = rng.choice(candidates) if candidates is not None else None
            if op == "retrain" and kind == "sorted":
                op, key = "get-hit", rng.choice(sorted(live) or pool)
            try:
                if op.startswith("insert"):
                    outcome = index.insert(key, f"v{step}")
                    live.add(key)
                    if kind != "sorted":
                        delta.add(key)
                elif op.startswith("delete"):
                    outcome = index.delete(key)
                    live.discard(key)
                    delta.discard(key)
                elif op.startswith("get"):
                    outcome = index.get(key)
                elif op == "range":
                    low, high = sorted((rng.choice(pool), rng.choice(pool)))
                    key = (low, high)
                    outcome = [(_key(k), v) for k, v in index.range(low, high)]
                elif op == "bulk":
                    key, outcome = _bulk(index, rng, sorted(live), pool)
                elif kind == "rmi" and rng.random() < 0.5:
                    size = rng.choice([4, 16])
                    key = [rng.choice(pool) for _ in range(size)]
                    outcome = index.retrain(np.asarray(key, dtype=np.float64))
                else:
                    outcome = index.retrain()
            except Exception as exc:  # noqa: BLE001 - the exception is the outcome
                outcome = type(exc).__name__
            if index.stats.retrains != retrains:
                delta.clear()
            arg = key if not isinstance(key, float) else _key(key)
            record(op, repr(arg), outcome)
    return digest.hexdigest()


def _bulk(index, rng, stored, pool):
    """One ``bulk_lookup`` call: its hint kind and its (listed) outcome."""
    if not stored:
        return "empty", index.bulk_lookup(np.empty(0))
    probe = [rng.choice(stored) for _ in range(rng.choice([1, 5, 12]))]
    hint = rng.choice(["none", "true", "wrong", "float", "missing"])
    ranks = None
    if hint == "missing":
        probe.append(rng.choice(pool))
    elif hint != "none":
        ranks = np.asarray([bisect.bisect_left(stored, k) for k in probe])
        if hint == "wrong":
            ranks = (ranks + 1) % len(stored)
        elif hint == "float":
            ranks = ranks.astype(np.float64)
    out = index.bulk_lookup(np.asarray(probe, dtype=np.float64), ranks)
    listed = None if out is None else [col.tolist() for col in out]
    return (hint, [_key(k) for k in probe]), listed


CASES = [
    (kind, max_delta, keyset, seed)
    for kind in MAKERS
    for max_delta in ((None, 6) if kind != "sorted" else (None,))
    for keyset in KEYSETS
    for seed in range(3)
]


def _case_id(kind, max_delta, keyset, seed) -> str:
    return f"{kind}-delta{max_delta}-{keyset}-{seed}"


DIGESTS = {
    "rmi-deltaNone-finite-0": "220c553e29f8e802918dbcd2f90c982dc98367fcb69e80a0ad9098b2edcf574e",
    "rmi-deltaNone-finite-1": "b51869efb3fa4f7dc004a95e9f96d990f9d71bc5cd66c3b95694a634514ca4c9",
    "rmi-deltaNone-finite-2": "b8e0c0001cdea5efc578dd517b67143e853f00f95450505b6b0ddb32c6296dc1",
    "rmi-deltaNone-infinite-0": "98cc934d02bddd44d309a8942558be9f3bc759151ecc3bcea205e5b6c3b84ed1",
    "rmi-deltaNone-infinite-1": "a963418496e4b2849d5b578dec4801d301513adef11ec28cc1ca7f907d6bd15d",
    "rmi-deltaNone-infinite-2": "42293a3efd510aa56e61a80a2f0f36cb41f30684fb80e473ee844dff23651e85",
    "rmi-delta6-finite-0": "47cc8513136bb81292eb51e5852208130356bf1ef1a98697cfa9cef7934e09dd",
    "rmi-delta6-finite-1": "e1c17e696efdf0a114328acd959c5ccc1654fd1a5fffbd86fb607da34b94d3ce",
    "rmi-delta6-finite-2": "0fcb1b8e041c9d5cdf43d42df3e7e9617e1429a8260cf17da5f8164fc3c0e64d",
    "rmi-delta6-infinite-0": "27f515a5f71bc2f7117064977ae045d05338ce431c053c3e151595c39f021da0",
    "rmi-delta6-infinite-1": "24d97411fac2a2bd77e38a196fa9e7e74d59f0a12b519ccb84ef6e7741affe0d",
    "rmi-delta6-infinite-2": "c57ad923032f9b4b87e675462d943985e1d9d1d48e6a154e49fdf9f8c55a9602",
    "pgm-deltaNone-finite-0": "fdc8912a2383984308d001c3f70b2402da1cce2facd6a7431108a9740ad6396d",
    "pgm-deltaNone-finite-1": "c7b7ee471b5e58a1ca2b224f958b7a5068d6488fec42ab492194ca3610537262",
    "pgm-deltaNone-finite-2": "9356f645a942db84560342262a9073d37c23ec953b3126e1b55083a53582f518",
    "pgm-deltaNone-infinite-0": "5cb7332b18e8d9d38f3bafa3ee758aeca0f8c4cd44668891c035ff91ea824401",
    "pgm-deltaNone-infinite-1": "57284221444c69d3e63ead25aff1b37ef4d052ea7c4853cf0227ef57fbfd146c",
    "pgm-deltaNone-infinite-2": "24b7ba79336843506b224ab7f881be8048613f99de4ea6713f24db50e86989d8",
    "pgm-delta6-finite-0": "8c90b09329328abf099eea00b57dda99b837c89895798710632c12ce88e916ec",
    "pgm-delta6-finite-1": "3bdafb37aebb377b7854eccbce3de68735e6ca8d66a2edb24b3ee31e7f3189f4",
    "pgm-delta6-finite-2": "e01c1026d599eed239d6f3bb0d79b8017563618c15b8408424cc1fedbfa330bc",
    "pgm-delta6-infinite-0": "3d7ec67b3fb1683b6d02921b97b7964db042fe53af5059969e9e63720595a71e",
    "pgm-delta6-infinite-1": "c610b40e0ca9f303331bfce310e34f87d3247ffeb1b150b8187b4f298afc7392",
    "pgm-delta6-infinite-2": "0ece9b2dcfe5df4c16ff67886086f85ae7ac4e2caf4c1cdf970fea6e8552b740",
    "sorted-deltaNone-finite-0": "67d3fe2236f42bdf79125700a9d063c22815a7f207f45b2d437b3e12b4f1bafc",
    "sorted-deltaNone-finite-1": "6f1484cb053ff6c16ca78fadc8949f3b7381f5f841912cfaab187ceae1429246",
    "sorted-deltaNone-finite-2": "f630abba5098c796560e37db2054b3e55dc2d39e2f2dfcc38dcb23f5f81c82dd",
    "sorted-deltaNone-infinite-0": "b0f022f073ac7f5745d61866e8ab936442ce1eb3a7fbe1d5a4585f95abf1baa8",
    "sorted-deltaNone-infinite-1": "ddf79f7c26303ab911ddb9c8bef0d0b69e28ff09fb6d553bf6986b83ad952115",
    "sorted-deltaNone-infinite-2": "95b643d98a864ec67ea9e34fe5c1679b0b4781e87de447512b33a2d09d9643f4",
}


@pytest.mark.parametrize("case", CASES, ids=[_case_id(*case) for case in CASES])
def test_ops_match_the_two_copy_digests(case):
    assert _run(*case) == DIGESTS[_case_id(*case)]


@pytest.mark.parametrize("make", [MAKERS["rmi"], MAKERS["pgm"]], ids=["rmi", "pgm"])
@pytest.mark.parametrize("max_delta", [None, 1])
def test_a_merge_keeps_the_base_key_bits(make, max_delta):
    """``0.0`` overwrites a stored ``-0.0``: the merge keeps ``-0.0`` and
    the new value, whether ``retrain`` or an auto-retrain merges."""
    index = make(max_delta)
    index.bulk_load([(-0.0, "old"), (1.0, "one")])
    index.insert(0.0, "new")
    index.insert(2.0, "two")
    index.retrain()
    assert [(_key(k), v) for k, v in index.items()] == [
        (_key(-0.0), "new"), (_key(1.0), "one"), (_key(2.0), "two")
    ]
    assert index.delta_size == 0


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{_case_id(*case)}": "{_run(*case)}",')
