package main

import (
	"runtime"
	"time"

	"dytis"
)

// driftKeys sizes embedded-dynamic: at about 36 B/key the index grows from
// about 18 to 36 MiB during a round, far beyond the 4 MiB L2, so lookups
// and maintenance miss the cache.
const driftKeys = 1 << 20

// embeddedRound runs one embedded-dynamic round on a fresh index in the
// paper's default single-threaded mode: set-up preloads the first half of
// the keys one insert at a time, then one goroutine replays the drift
// stream directly against the index.
func embeddedRound(in *inputs, recs []*record, trace bool) (*round, error) {
	s := &in.streams[0]
	rec := recs[0]
	rec.reset()
	buf := make([]dytis.KV, 0, scanLen)

	runtime.GC()
	t0 := time.Now()
	idx := dytis.New()
	for _, k := range in.preload {
		idx.Insert(k, valueOf(k))
	}
	setup := time.Since(t0)
	defer idx.Close()

	before := idx.Stats()
	runtime.GC()
	// The clock is read once per op: an op's end is the next op's start.
	// Each op stores its answer before the read that ends it and books its
	// latency after, so the booking is charged to the next op.
	start := time.Now()
	t := start
	for i, o := range s.ops {
		switch o.kind {
		case opGet:
			rec.val[i], rec.found[i] = idx.Get(o.key)
		case opInsert:
			idx.Insert(o.key, valueOf(o.key))
		case opDelete:
			rec.found[i] = idx.Delete(o.key)
		case opScan:
			buf = idx.Scan(o.key, scanLen, buf[:0])
			keys, vals := rec.scanSlot()
			for j, p := range buf {
				keys[j], vals[j] = p.Key, p.Value
			}
			rec.endScan(len(buf))
		}
		now := time.Now()
		rec.lat[o.kind] = append(rec.lat[o.kind], int64(now.Sub(t)))
		t = now
	}
	wall := t.Sub(start)
	after := idx.Stats()

	r := &round{setup: setup, wall: wall, recs: recs, liveKeys: idx.Len(), memBytes: idx.MemoryFootprint()}
	if trace {
		r.ledger = coreLedger(rec, before, after)
	}
	final := make([]uint64, 0, r.liveKeys)
	finalVals := make([]uint64, 0, r.liveKeys)
	idx.ScanFunc(0, func(k, v uint64) bool {
		final = append(final, k)
		finalVals = append(finalVals, v)
		return true
	})
	return r, verifyDrift(in, rec, final, finalVals)
}

// coreLedger books the core layer's per-layer metrics of one embedded
// round: per-op latency medians measured around the direct calls, and the
// Algorithm-1 maintenance counts and time from the index's own Stats.
func coreLedger(rec *record, before, after dytis.Stats) map[string]float64 {
	var insertNS int64
	for _, d := range rec.lat[opInsert] {
		insertNS += d
	}
	l := maintLedger(before, after, len(rec.lat[opInsert]), insertNS)
	l["core.get_ns_p50"] = p50(rec.lat[opGet])
	l["core.insert_ns_p50"] = p50(rec.lat[opInsert])
	l["core.scan_ns_p50"] = p50(rec.lat[opScan])
	// The embedded index serves its caller directly.
	l["core.served_get_ns_p50"] = l["core.get_ns_p50"]
	return l
}

// maintLedger books the Algorithm-1 maintenance done between two Stats
// snapshots: counts per thousand inserts, directory doublings, and the
// share of insert time spent in maintenance.
func maintLedger(before, after dytis.Stats, inserts int, insertNS int64) map[string]float64 {
	kins := float64(inserts) / 1000
	maintNS := (after.SplitNS - before.SplitNS) + (after.RemapNS - before.RemapNS) +
		(after.ExpandNS - before.ExpandNS) + (after.DoubleNS - before.DoubleNS) +
		(after.ShrinkNS - before.ShrinkNS)
	return map[string]float64{
		"core.splits_per_kinsert":     ratio(float64(after.Splits-before.Splits), kins),
		"core.remaps_per_kinsert":     ratio(float64(after.Remaps-before.Remaps), kins),
		"core.expansions_per_kinsert": ratio(float64(after.Expansions-before.Expansions), kins),
		"core.doublings":              float64(after.Doublings - before.Doublings),
		"core.maint_share":            ratio(float64(maintNS), float64(insertNS)),
	}
}
