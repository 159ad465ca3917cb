"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions, methods and table properties of the
``padicfrac`` modules from outside: nothing in the package changes.  Each
call becomes a span; spans nest on one stack (the benchmark is single
threaded), and a span's self time is its duration minus the time its child
spans cover.  Aggregates are kept per span name, and a short record is kept
for every sized span (table builds, operator routes, samplers), from which
the seed table of layer numbers is read.

Modules bind names with ``from .x import y``, so patching only the defining
module would miss their calls: every attribute of every loaded ``padicfrac``
module that is the original object is rebound to the wrapper.  A wrapped
name the package no longer defines is recorded as absent.
"""

import importlib
import statistics
import sys
import time

# layer -> wrapped names; "Class.attr" names a method or property
FUNCTIONS = {
    "padic": [
        "Level.digits_in_ball",
        "Level.coset_representative",
        "enumerate_ball_quotient",
        "pairing_angle",
        "project_T",
    ],
    "tower": ["spectrum", "multiplicity_count", "resolve_tower"],
    "funcspace": ["fourier", "inverse_fourier"],
    "vladimirov": [
        "apply_spectral",
        "apply_hypersingular",
        "semigroup_apply",
        "eigenvalue_estimates",
    ],
    "measures": [
        "levy_integral",
        "levy_integral_spectral",
        "heat_coset_vector",
        "levy_quotient_vector",
    ],
    "process": ["build_jump_law", "mc_characteristic", "sample_endpoints"],
}

# cached tables: layer -> {wrapped name: tag of its entry in Level._cache}
TABLES = {
    "funcspace": {
        "BallQuotient.digit_matrix": "digits",
        "BallQuotient.val_pi_vector": "vals",
        "BallQuotient.character_matrix": "U",
        "BallQuotient.sub_table": "sub",
        "BallQuotient.neg_table": "neg",
    },
    "vladimirov": {"hypersingular_matrix": "hyp"},
}

# spans of these names keep a per-call record with the size they ran at
SIZED = {
    "vladimirov.apply_spectral",
    "vladimirov.apply_hypersingular",
    "process.sample_endpoints",
    "tower.multiplicity_count",
}


def _short(qualname):
    return qualname.rsplit(".", 1)[-1]


class Recorder:
    """Spans of one single-threaded run, aggregated as they close."""

    def __init__(self):
        self.stack = []  # open frames: [child seconds, digit expansions below]
        self.stats = {}  # span name -> {"calls", "total_s", "self_s"}
        self.tables = {}  # table name -> {"builds", "cold_s", "hits", "bytes"}
        self.layer_spans = {}
        self.records = []  # (name, label, size, seconds, built)
        self.counters = {
            "sub_table.expansions": 0,
            "sub_table.cosets": 0,
            "multiplicity_count.enumerated": 0,
            "sample_endpoints.paths": 0,
            "sample_endpoints.jumps": 0,
        }
        self.top_s = 0.0  # total duration of spans closed at depth zero
        self.absent = []
        self._seen = set()

    # -- spans -----------------------------------------------------------

    def _open(self):
        frame = [0.0, 0]
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name, layer, frame, t0):
        dt = time.perf_counter() - t0
        self.stack.pop()
        st = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += dt
        st["self_s"] += dt - frame[0]
        self.layer_spans[layer] = self.layer_spans.get(layer, 0) + 1
        if self.stack:
            parent = self.stack[-1]
            parent[0] += dt
            parent[1] += frame[1] + (name == "padic.digits_in_ball")
        else:
            self.top_s += dt
        return dt

    def add_span(self, name, layer, seconds):
        """Record a span timed elsewhere (the import of the command line)."""
        st = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += seconds
        st["self_s"] += seconds
        self.layer_spans[layer] = self.layer_spans.get(layer, 0) + 1

    def wrap(self, name, layer, fn):
        rec = self

        def traced(*args, **kwargs):
            frame, t0 = rec._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = rec._close(name, layer, frame, t0)
            if name in SIZED:
                rec._sized(name, args, out, dt)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _sized(self, name, args, out, dt):
        c = self.counters
        if name == "process.sample_endpoints":
            law, _t, n_paths = args[:3]
            c["sample_endpoints.paths"] += int(n_paths)
            c["sample_endpoints.jumps"] += int(out[1].sum())
            size = int(n_paths)
        elif name == "tower.multiplicity_count":
            level, N = args[:2]
            c["multiplicity_count.enumerated"] += bool(out[1])
            size = level.q ** int(N)
        else:
            size = args[0].size
        self.records.append((name, "", size, dt, False))

    def wrap_table(self, name, layer, tag, getter):
        """Wrap a table getter taking (quotient, *key).  A build is an
        access that finds the table missing from its level's cache; when
        the cache does not hold the table under the expected key, the first
        access per (quotient key, table, key) seen here counts instead."""
        rec = self

        def traced(quotient, *key):
            lookup = ("bq", tag, quotient.lo, quotient.s) + tuple(float(k) for k in key)
            cache = getattr(quotient.level, "_cache", {})
            present = lookup in cache
            frame, t0 = rec._open()
            try:
                out = getter(quotient, *key)
            finally:
                dt = rec._close(name, layer, frame, t0)
            if lookup in cache:
                built = not present
            else:
                seen = (quotient.key(), lookup)
                built = seen not in rec._seen
                rec._seen.add(seen)
            st = rec.tables.setdefault(
                name, {"builds": 0, "cold_s": 0.0, "hits": 0, "bytes": 0}
            )
            if built:
                st["builds"] += 1
                st["cold_s"] += dt
                st["bytes"] += int(getattr(out, "nbytes", 0))
                rec.records.append((name, repr(quotient.level), quotient.size, dt, True))
                if name == "funcspace.sub_table":
                    rec.counters["sub_table.expansions"] += frame[1]
                    rec.counters["sub_table.cosets"] += quotient.size
            else:
                st["hits"] += 1
            return out

        traced.__wrapped__ = getter
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed name in the loaded ``padicfrac`` modules."""
        for layer, names in FUNCTIONS.items():
            for qualname in names:
                self._install(layer, qualname, None)
        for layer, names in TABLES.items():
            for qualname, tag in names.items():
                self._install(layer, qualname, tag)

    def _install(self, layer, qualname, tag):
        module = importlib.import_module(f"padicfrac.{layer}")
        name = f"{layer}.{_short(qualname)}"
        owner, _, attr = qualname.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                self.absent.append(name)
                return
            if isinstance(original, property):
                getter = original.fget
                wrapped = (
                    self.wrap_table(name, layer, tag, getter)
                    if tag
                    else self.wrap(name, layer, getter)
                )
                setattr(cls, attr, property(wrapped, doc=original.__doc__))
            else:
                setattr(cls, attr, self.wrap(name, layer, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(name)
            return
        wrapped = (
            self.wrap_table(name, layer, tag, original)
            if tag
            else self.wrap(name, layer, original)
        )
        for modname, mod in list(sys.modules.items()):
            if modname == "padicfrac" or modname.startswith("padicfrac."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Flat per-layer metric values keyed by metric name."""
        out = {}
        for layer, names in FUNCTIONS.items():
            for qualname in names:
                name = f"{layer}.{_short(qualname)}"
                st = self.stats.get(name, {})
                out[f"{name}.calls"] = st.get("calls", 0)
                out[f"{name}.self_s"] = st.get("self_s", 0.0)
        hits = builds = 0
        for layer, names in TABLES.items():
            for qualname in names:
                name = f"{layer}.{_short(qualname)}"
                tb = self.tables.get(name, {})
                for stat in ("builds", "cold_s", "hits", "bytes"):
                    out[f"{name}.{stat}"] = tb.get(stat, 0)
                out[f"{name}.self_s"] = self.stats.get(name, {}).get("self_s", 0.0)
                if layer == "funcspace":
                    hits += tb.get("hits", 0)
                    builds += tb.get("builds", 0)
        c = self.counters
        out["funcspace.tables.hit_ratio"] = hits / (hits + builds) if hits + builds else 0.0
        out["funcspace.sub_table.expansions_per_coset"] = (
            c["sub_table.expansions"] / c["sub_table.cosets"] if c["sub_table.cosets"] else 0.0
        )
        out["tower.multiplicity_count.enumerated"] = c["multiplicity_count.enumerated"]
        out["process.sample_endpoints.paths"] = c["sample_endpoints.paths"]
        out["process.sample_endpoints.jumps"] = c["sample_endpoints.jumps"]
        for name, st in self.stats.items():
            if name.startswith("acceptance.") or name.startswith("cli."):
                out[f"{name}.s" if name.startswith("acceptance.") else name] = st["total_s"]
        return out

    def seed_rows(self):
        """The layer numbers quoted as seed values for later comparisons,
        for those that this run exercised."""
        rows = []

        def row(what, seed, values):
            if values:
                rows.append({
                    "what": what,
                    "seed": seed,
                    "median_s": statistics.median(values),
                    "samples": len(values),
                })

        def pick(name, size, built, label=None):
            return [
                dt for n, lab, sz, dt, b in self.records
                if n == name and sz == size and b == built
                and (label is None or lab.startswith(label))
            ]

        for size, seed in ((64, 0.20), (256, 2.23), (1024, 28.6)):
            row(f"sub_table, Q_2-e2, |G|={size}, cold", seed,
                pick("funcspace.sub_table", size, True, "Level(Q_2-e2;"))
        row("character_matrix, |G|=1024, cold", 0.084,
            pick("funcspace.character_matrix", 1024, True))
        row("apply_spectral, |G|=1024, warm", 0.00245,
            pick("vladimirov.apply_spectral", 1024, False))
        row("apply_hypersingular, |G|=1024, warm", 0.0017,
            pick("vladimirov.apply_hypersingular", 1024, False))
        row("sample_endpoints, 10^5 paths", 0.29,
            pick("process.sample_endpoints", 100_000, False))
        row("multiplicity_count, q^N=4096", 1.8,
            pick("tower.multiplicity_count", 4096, False))
        return rows

    def summary(self):
        return {
            "absent": sorted(self.absent),
            "layer_spans": dict(sorted(self.layer_spans.items())),
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
            "tables": {k: self.tables[k] for k in sorted(self.tables)},
            "bytes_note": "table bytes are computed from ndarray.nbytes, not measured",
            "seed_table": self.seed_rows(),
        }
