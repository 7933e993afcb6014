package main

import (
	"fmt"
	"sort"
)

// failure classes, counted against ops attempted.
const (
	failNone uint8 = iota
	failOverload
	failRouting
	failScanInterrupted
	failOther
	numFailClasses
)

var failNames = [numFailClasses]string{"", "overload", "routing", "scan_interrupted", "other"}

// record holds one goroutine's answers and latencies for one round. Every
// buffer is sized from the stream before the clock starts, so the timed
// loop only stores into it.
type record struct {
	lat    [numKinds][]int64 // ns per op, by kind, in issue order
	val    []uint64          // per op: the value a get returned
	found  []bool            // per op: get/delete found flag
	fail   []uint8           // per op: failure class
	scanAt []int32           // per scan: pairs returned
	scanK  []uint64          // per scan: scanLen key slots
	scanV  []uint64          // per scan: scanLen value slots
	scans  int               // scans recorded so far
}

func newRecord(s *stream) *record {
	r := &record{
		val:    make([]uint64, len(s.ops)),
		found:  make([]bool, len(s.ops)),
		fail:   make([]uint8, len(s.ops)),
		scanAt: make([]int32, s.counts[opScan]),
		scanK:  make([]uint64, s.counts[opScan]*scanLen),
		scanV:  make([]uint64, s.counts[opScan]*scanLen),
	}
	for k := range r.lat {
		r.lat[k] = make([]int64, 0, s.counts[k])
	}
	return r
}

// reset readies a record for the next round of the same stream.
func (r *record) reset() {
	for k := range r.lat {
		r.lat[k] = r.lat[k][:0]
	}
	clear(r.val)
	clear(r.found)
	clear(r.fail)
	r.scans = 0
}

// scanSlot returns the key and value slots of the next scan.
func (r *record) scanSlot() (keys, vals []uint64) {
	o := r.scans * scanLen
	return r.scanK[o : o+scanLen], r.scanV[o : o+scanLen]
}

// endScan books the next scan's pair count.
func (r *record) endScan(n int) {
	r.scanAt[r.scans] = int32(n)
	r.scans++
}

// failures counts failed ops by class.
func (r *record) failures() (n [numFailClasses]int) {
	for _, f := range r.fail {
		n[f]++
	}
	return n
}

// fenwick is a binary indexed tree of live flags over sorted key positions;
// it answers "next live key at or after a position" for the exact scan check.
type fenwick []int32

func (f fenwick) add(i int, d int32) {
	for i++; i < len(f); i += i & -i {
		f[i] += d
	}
}

// prefix returns the number of live positions below i.
func (f fenwick) prefix(i int) int {
	s := 0
	for ; i > 0; i -= i & -i {
		s += int(f[i])
	}
	return s
}

// kth returns the position of the k-th live entry (1-based), or -1.
func (f fenwick) kth(k int) int {
	pos, step := 0, 1
	for step*2 < len(f) {
		step *= 2
	}
	for ; step > 0; step /= 2 {
		if pos+step < len(f) && int(f[pos+step]) < k {
			pos += step
			k -= int(f[pos])
		}
	}
	if pos >= len(f)-1 {
		return -1
	}
	return pos
}

// verifyDrift checks a single-goroutine round exactly: it replays the stream
// against a reference live set and compares every get, delete and scan
// answer, then the index's final contents (final lists them in key order).
func verifyDrift(in *inputs, r *record, final []uint64, finalVals []uint64) error {
	s := &in.streams[0]
	all := make([]uint64, 0, len(in.preload)+s.counts[opInsert])
	all = append(all, in.preload...)
	for _, o := range s.ops {
		if o.kind == opInsert {
			all = append(all, o.key)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pos := func(k uint64) int { return sort.Search(len(all), func(i int) bool { return all[i] >= k }) }
	live := make(fenwick, len(all)+1)
	for _, k := range in.preload {
		live.add(pos(k), 1)
	}
	scan := 0
	for i, o := range s.ops {
		if r.fail[i] != failNone {
			return fmt.Errorf("op %d (%s %#x) failed on an embedded index", i, kindNames[o.kind], o.key)
		}
		switch o.kind {
		case opInsert:
			live.add(pos(o.key), 1)
		case opDelete:
			if !r.found[i] {
				return fmt.Errorf("op %d: delete of live key %#x reported not found", i, o.key)
			}
			live.add(pos(o.key), -1)
		case opGet:
			if !r.found[i] || r.val[i] != valueOf(o.key) {
				return fmt.Errorf("op %d: get %#x = (%#x, %v), want (%#x, true)", i, o.key, r.val[i], r.found[i], valueOf(o.key))
			}
		case opScan:
			keys, vals := r.scanK[scan*scanLen:], r.scanV[scan*scanLen:]
			n := int(r.scanAt[scan])
			scan++
			next := live.prefix(pos(o.key)) + 1
			for j := 0; j < scanLen; j++ {
				p := live.kth(next + j)
				if p < 0 {
					if n != j {
						return fmt.Errorf("op %d: scan from %#x returned %d pairs, want %d", i, o.key, n, j)
					}
					break
				}
				if j >= n || keys[j] != all[p] || vals[j] != valueOf(all[p]) {
					return fmt.Errorf("op %d: scan from %#x pair %d is wrong or missing (want key %#x)", i, o.key, j, all[p])
				}
			}
		}
	}
	want := make([]uint64, 0, len(final))
	for p := 1; ; p++ {
		i := live.kth(p)
		if i < 0 {
			break
		}
		want = append(want, all[i])
	}
	return checkFinal(final, finalVals, want, nil)
}

// verifyMixed checks concurrent streams whose goroutines own disjoint keys.
// Gets and deletes touch only owned keys, so their answers are exact. A scan
// may run beside other goroutines' writes, so it is checked against what
// holds under any interleaving: pairs ascend from its start key, every pair
// is a key some write or the preload made live with its value, and no key
// that stayed live all round is skipped. Keys whose write failed are
// excluded, since the write may or may not have applied. Finally every
// acked write must show in the index's final contents.
func verifyMixed(in *inputs, recs []*record, final, finalVals []uint64) error {
	uncertain := map[uint64]bool{}
	deleted := map[uint64]bool{}
	var ever []uint64
	ever = append(ever, in.preload...)
	for g := range in.streams {
		for i, o := range in.streams[g].ops {
			switch o.kind {
			case opInsert:
				ever = append(ever, o.key)
			case opDelete:
				deleted[o.key] = true
			default:
				continue
			}
			if recs[g].fail[i] != failNone {
				uncertain[o.key] = true
			}
		}
	}
	sort.Slice(ever, func(i, j int) bool { return ever[i] < ever[j] })
	var stable []uint64 // preloaded and never written this round
	for _, k := range in.preload {
		if !deleted[k] {
			stable = append(stable, k)
		}
	}
	sort.Slice(stable, func(i, j int) bool { return stable[i] < stable[j] })
	isEver := func(k uint64) bool {
		i := sort.Search(len(ever), func(i int) bool { return ever[i] >= k })
		return i < len(ever) && ever[i] == k
	}

	for g := range in.streams {
		r, scan := recs[g], 0
		state := map[uint64]bool{} // owned keys written so far: live?
		for i, o := range in.streams[g].ops {
			failed := r.fail[i] != failNone
			switch o.kind {
			case opInsert:
				state[o.key] = true
			case opDelete:
				if !failed && !r.found[i] {
					return fmt.Errorf("goroutine %d op %d: delete of live key %#x reported not found", g, i, o.key)
				}
				state[o.key] = false
			case opGet:
				if failed || uncertain[o.key] {
					continue
				}
				want, written := state[o.key]
				if !written {
					want = true // preloaded
				}
				if r.found[i] != want || (want && r.val[i] != valueOf(o.key)) {
					return fmt.Errorf("goroutine %d op %d: get %#x = (%#x, %v), want found=%v", g, i, o.key, r.val[i], r.found[i], want)
				}
			case opScan:
				n := int(r.scanAt[scan])
				keys, vals := r.scanK[scan*scanLen:scan*scanLen+n], r.scanV[scan*scanLen:scan*scanLen+n]
				scan++
				if failed {
					continue
				}
				if err := checkScan(o.key, keys, vals, stable, isEver); err != nil {
					return fmt.Errorf("goroutine %d op %d: %w", g, i, err)
				}
			}
		}
	}

	want := make([]uint64, 0, len(final))
	for _, k := range ever {
		if !deleted[k] && !uncertain[k] {
			want = append(want, k)
		}
	}
	return checkFinal(final, finalVals, want, uncertain)
}

// checkScan checks one scan result that may have raced other writers.
func checkScan(start uint64, keys, vals []uint64, stable []uint64, isEver func(uint64) bool) error {
	for j, k := range keys {
		if k < start || (j > 0 && k <= keys[j-1]) {
			return fmt.Errorf("scan from %#x: pair %d key %#x out of order", start, j, k)
		}
		if !isEver(k) || vals[j] != valueOf(k) {
			return fmt.Errorf("scan from %#x: pair %d (%#x, %#x) was never written", start, j, k, vals[j])
		}
	}
	end := ^uint64(0) // a short scan must have reached the end of the data
	if len(keys) == scanLen {
		end = keys[len(keys)-1]
	}
	j := 0
	for i := sort.Search(len(stable), func(i int) bool { return stable[i] >= start }); i < len(stable) && stable[i] <= end; i++ {
		for j < len(keys) && keys[j] < stable[i] {
			j++
		}
		if j == len(keys) || keys[j] != stable[i] {
			return fmt.Errorf("scan from %#x skipped live key %#x", start, stable[i])
		}
	}
	return nil
}

// checkFinal compares the index's final contents, in key order, with the
// sorted expected live keys; keys in skip may be present or absent.
func checkFinal(final, finalVals, want []uint64, skip map[uint64]bool) error {
	i, j := 0, 0
	for i < len(final) || j < len(want) {
		switch {
		case j < len(want) && (i == len(final) || final[i] > want[j]):
			if !skip[want[j]] {
				return fmt.Errorf("acked write lost: key %#x missing from the final contents", want[j])
			}
			j++
		case i < len(final) && (j == len(want) || final[i] < want[j]):
			if !skip[final[i]] {
				return fmt.Errorf("key %#x present at the end but not live in the reference", final[i])
			}
			i++
		default:
			if finalVals[i] != valueOf(want[j]) {
				return fmt.Errorf("key %#x holds %#x at the end, want %#x", want[j], finalVals[i], valueOf(want[j]))
			}
			i++
			j++
		}
	}
	return nil
}
