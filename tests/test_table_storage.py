"""Tests for the struct-of-arrays table storage API (repro.common.tables).

Covers three layers:

* bank semantics — field validation, scalar/vector access, fill/reset
  keeping column identity (hot paths cache ``col()`` references);
* a hypothesis property test driving random op sequences against a
  naive per-entry reference model and comparing full state;
* legacy spec documents — cache blobs, run journals and older clients
  still name a table storage backend in their JobSpec documents; those
  must decode to the same spec and digest.

(The sibling ``tests/test_storage.py`` covers the Table III *bit-budget*
accounting; this file is about the storage *layout*.)
"""

import json

import pytest

from repro.common.tables import Field, TableBank
from repro.exec import ResultCache, baseline_job, bebop_job, run_job
from repro.exec.cache import payload_checksum
from repro.exec.jobs import JobSpec, stats_to_dict
from repro.serve import protocol

FIELDS = (
    Field("tag", default=-1),
    Field("value", unsigned=True),
    Field("conf"),
    Field("vec", width=3, unsigned=True),
)


# ---------------------------------------------------------------------------
# Field / bank validation.
# ---------------------------------------------------------------------------

class TestValidation:
    def test_positive_entries_required(self):
        with pytest.raises(ValueError, match="positive entry count"):
            TableBank(0, FIELDS)

    def test_at_least_one_field(self):
        with pytest.raises(ValueError, match="at least one field"):
            TableBank(4, ())

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate field"):
            TableBank(4, (Field("a"), Field("a")))

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            TableBank(4, (Field("a", width=0),))

    def test_default_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            TableBank(4, (Field("a", default=-1, unsigned=True),))
        with pytest.raises(ValueError, match="out of range"):
            TableBank(4, (Field("a", default=1 << 63),))

    def test_unknown_field_name(self):
        bank = TableBank(4, FIELDS)
        with pytest.raises(ValueError, match="no field"):
            bank.col("nope")
        with pytest.raises(ValueError, match="no field"):
            bank.read("nope", 0)

    def test_scalar_vector_misuse(self):
        bank = TableBank(4, FIELDS)
        with pytest.raises(ValueError, match="vector"):
            bank.read("vec", 0)
        with pytest.raises(ValueError, match="vector"):
            bank.write("vec", 0, 1)
        with pytest.raises(ValueError, match="scalar"):
            bank.probe("vec", 0, 1)
        with pytest.raises(ValueError, match="width"):
            bank.write_vec("vec", 0, (1, 2))


# ---------------------------------------------------------------------------
# Bank semantics.
# ---------------------------------------------------------------------------

class TestBankOps:
    def test_defaults_and_scalar_rw(self):
        bank = TableBank(4, FIELDS)
        assert bank.read("tag", 0) == -1
        assert bank.read("value", 3) == 0
        bank.write("tag", 2, 77)
        bank.write("value", 2, (1 << 64) - 1)
        assert bank.read("tag", 2) == 77
        assert bank.read("value", 2) == (1 << 64) - 1

    def test_reads_return_plain_ints(self):
        bank = TableBank(2, FIELDS)
        bank.write("value", 1, 5)
        assert type(bank.read("value", 1)) is int
        assert all(type(v) is int for v in bank.read_vec("vec", 0))
        assert all(
            type(v) is int for col in bank.dump().values() for v in col
        )

    def test_vector_rw_flat_addressing(self):
        bank = TableBank(4, FIELDS)
        bank.write_vec("vec", 2, (10, 20, 30))
        assert bank.read_vec("vec", 2) == [10, 20, 30]
        col = bank.col("vec")
        assert int(col[2 * 3 + 1]) == 20   # entry * width + lane
        col[2 * 3 + 1] = 99
        assert bank.read_vec("vec", 2) == [10, 99, 30]

    def test_probe(self):
        bank = TableBank(4, FIELDS)
        assert bank.probe("tag", 1, -1)
        bank.write("tag", 1, 5)
        assert bank.probe("tag", 1, 5)
        assert not bank.probe("tag", 1, -1)

    def test_fill_and_bulk_reset_keep_column_identity(self):
        """Hot paths cache col() refs in __init__; resets mutate in place."""
        bank = TableBank(4, FIELDS)
        tag_col = bank.col("tag")
        vec_col = bank.col("vec")
        bank.write("tag", 0, 9)
        bank.write_vec("vec", 0, (1, 2, 3))
        bank.fill("tag", 4)
        assert bank.col("tag") is tag_col
        assert [int(v) for v in tag_col] == [4, 4, 4, 4]
        bank.bulk_reset()
        assert bank.col("tag") is tag_col
        assert bank.col("vec") is vec_col
        assert bank.read("tag", 0) == -1
        assert bank.read_vec("vec", 0) == [0, 0, 0]

    def test_dump_shape(self):
        bank = TableBank(2, FIELDS)
        state = bank.dump()
        assert sorted(state) == ["conf", "tag", "value", "vec"]
        assert len(state["vec"]) == 2 * 3
        assert state["tag"] == [-1, -1]


# ---------------------------------------------------------------------------
# Boundary conditions: last entry, vector lanes, 64-bit extremes.
# ---------------------------------------------------------------------------

class TestBoundaryOps:
    def test_last_entry_scalar_and_probe(self):
        bank = TableBank(4, FIELDS)
        last = bank.entries - 1
        assert bank.probe("tag", last, -1)
        bank.write("tag", last, 31)
        assert bank.read("tag", last) == 31
        assert bank.probe("tag", last, 31)
        assert not bank.probe("tag", last, -1)

    def test_last_entry_vector_lanes(self):
        """The final lane of the final entry is the last flat slot —
        an off-by-one in ``entry * width + lane`` addressing lands out of
        bounds or in a neighbour."""
        bank = TableBank(4, FIELDS)
        last = bank.entries - 1
        bank.write_vec("vec", last, (7, 8, 9))
        assert bank.read_vec("vec", last) == [7, 8, 9]
        col = bank.col("vec")
        assert int(col[last * 3 + 2]) == 9
        # The neighbouring entry is untouched.
        assert bank.read_vec("vec", last - 1) == [0, 0, 0]
        assert len(bank.dump()["vec"]) == bank.entries * 3

    def test_unsigned_64bit_extremes_round_trip(self):
        """Pre-masked unsigned values survive bit-exactly at the top of
        the range."""
        bank = TableBank(2, FIELDS)
        top = (1 << 64) - 1
        high = 1 << 63
        bank.write("value", 1, top)
        bank.write_vec("vec", 1, (top, high, 0))
        assert bank.read("value", 1) == top
        assert bank.read_vec("vec", 1) == [top, high, 0]
        assert bank.probe("value", 1, top)

    def test_signed_extremes_round_trip(self):
        bank = TableBank(2, FIELDS)
        lo, hi = -(1 << 63), (1 << 63) - 1
        bank.write("conf", 0, lo)
        bank.write("conf", 1, hi)
        assert bank.read("conf", 0) == lo
        assert bank.read("conf", 1) == hi


# ---------------------------------------------------------------------------
# dump() returns builtin ints in every width configuration (JSON safety).
# ---------------------------------------------------------------------------

def test_dump_returns_builtin_ints_in_every_width_config():
    """A dump is plain JSON-safe ints, copied out of the bank."""
    fields = (
        Field("tag", default=-1),
        Field("u1", unsigned=True),
        Field("w4", width=4),
        Field("uw3", width=3, unsigned=True),
    )
    bank = TableBank(3, fields)
    bank.write("u1", 2, (1 << 64) - 1)
    bank.write_vec("uw3", 2, (1 << 63, 5, 0))
    bank.write_vec("w4", 0, (-1, -(1 << 63), (1 << 63) - 1, 0))
    dumped = bank.dump()
    for name, col in dumped.items():
        assert all(type(v) is int for v in col), name
    json.dumps(dumped)
    dumped["u1"][2] = 0
    assert bank.read("u1", 2) == (1 << 64) - 1


# ---------------------------------------------------------------------------
# Property: a bank matches a naive per-entry model under any op mix.
# ---------------------------------------------------------------------------

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    _HAVE_HYPOTHESIS = False

ENTRIES = 4

if _HAVE_HYPOTHESIS:
    _SIGNED = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
    _UNSIGNED = st.integers(min_value=0, max_value=(1 << 64) - 1)
    _BY_FIELD = {
        "tag": _SIGNED,
        "conf": _SIGNED,
        "value": _UNSIGNED,
        "vec": _UNSIGNED,
    }

    @st.composite
    def _op(draw):
        kind = draw(st.sampled_from(("write", "write", "write_vec", "fill",
                                     "bulk_reset")))
        if kind == "write":
            name = draw(st.sampled_from(("tag", "value", "conf")))
            index = draw(st.integers(0, ENTRIES - 1))
            return ("write", name, index, draw(_BY_FIELD[name]))
        if kind == "write_vec":
            index = draw(st.integers(0, ENTRIES - 1))
            values = draw(st.tuples(_UNSIGNED, _UNSIGNED, _UNSIGNED))
            return ("write_vec", "vec", index, values)
        if kind == "fill":
            name = draw(st.sampled_from(("tag", "value", "conf", "vec")))
            return ("fill", name, draw(_BY_FIELD[name]))
        return ("bulk_reset",)

    @given(ops=st.lists(_op(), max_size=40))
    @settings(deadline=None, max_examples=150)
    def test_bank_matches_reference_model_under_random_ops(ops):
        """Flat ``entry * width + lane`` columns against one list of
        lanes per entry: reads, probes and dumps must agree."""
        width = {f.name: f.width for f in FIELDS}
        default = {f.name: f.default for f in FIELDS}

        def fresh():
            return {n: [[default[n]] * width[n] for _ in range(ENTRIES)]
                    for n in width}

        model = fresh()
        bank = TableBank(ENTRIES, FIELDS)
        cols = {n: bank.col(n) for n in width}
        for op in ops:
            if op[0] == "write":
                bank.write(op[1], op[2], op[3])
                model[op[1]][op[2]] = [op[3]]
            elif op[0] == "write_vec":
                bank.write_vec(op[1], op[2], op[3])
                model[op[1]][op[2]] = list(op[3])
            elif op[0] == "fill":
                bank.fill(op[1], op[2])
                model[op[1]] = [[op[2]] * width[op[1]]
                                for _ in range(ENTRIES)]
            else:
                bank.bulk_reset()
                model = fresh()
        assert bank.dump() == {
            n: [v for entry in model[n] for v in entry] for n in width
        }
        assert all(bank.col(n) is cols[n] for n in width)
        for name in ("tag", "value", "conf"):
            for i in range(ENTRIES):
                assert bank.read(name, i) == model[name][i][0]
                assert bank.probe(name, i, model[name][i][0])
        for i in range(ENTRIES):
            assert bank.read_vec("vec", i) == model["vec"][i]


# ---------------------------------------------------------------------------
# Legacy spec documents that still name a table storage backend.
# ---------------------------------------------------------------------------

#: Digests of these cells as computed before the storage-backend knob was
#: removed (the digest never covered the backend, so they must not move).
_LEGACY_DIGESTS = {
    "baseline": "20cd9cc91b0035d04c108900818ec6cea2df1cf656ca15bbccd1f0576836eaf8",
    "bebop": "e0b25a6252a2254fed960caeb269d9a87dd27e17770060f455f827e1f539ba57",
}


def test_legacy_backend_spec_documents_stay_valid(tmp_path):
    """Cache blobs, run journals and older clients send spec documents
    carrying ``"table_backend"``: they decode to the same spec, hash to
    the same digest as before, and a blob written with the legacy key is
    still a cache hit."""
    specs = {
        "baseline": baseline_job("swim", 2000, 500),
        "bebop": bebop_job("gcc"),
    }
    for name, spec in specs.items():
        assert spec.digest() == _LEGACY_DIGESTS[name]
        for backend in ("python", "numpy"):
            legacy = dict(spec.as_dict(), table_backend=backend)
            assert JobSpec.from_dict(legacy) == spec
            assert protocol.decode_submit(
                {"v": protocol.PROTOCOL_VERSION, "spec": legacy}
            ) == spec

    spec = specs["baseline"]
    stats = run_job(spec)
    cache = ResultCache(root=tmp_path)
    # The blob exactly as the cache wrote it while specs carried the key.
    payload = {
        "spec": dict(spec.as_dict(), table_backend="numpy"),
        "stats": stats_to_dict(stats),
    }
    path = cache.blob_path(spec.digest())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(payload, sha256=payload_checksum(payload))))
    assert cache.get(spec) == stats
    assert cache.hits == 1 and cache.misses == 0
    assert JobSpec.from_dict(cache.get_blob(spec.digest())["spec"]) == spec
