package main

import (
	"math/rand"

	"dytis/internal/datasets"
	ycsb "dytis/internal/workload"
)

// opKind is one operation of a generated stream.
type opKind uint8

const (
	opGet opKind = iota
	opInsert
	opDelete
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "insert", "delete", "scan"}

// op is one generated operation. Values are never stored: every key is
// written at most once per round, with valueOf(key).
type op struct {
	key  uint64
	kind opKind
}

// scanLen is the pair budget of every short scan: the paper's workload-E
// range length, below one stream chunk (1024 pairs).
const scanLen = ycsb.ScanLen

// valueOf is the value every write stores under key, so any read can be
// checked without a lookup table.
func valueOf(key uint64) uint64 { return key*0x9E3779B97F4A7C15 ^ 0x5bd1e995 }

// mix is a workload's operation mix in parts per 100; inserts and deletes
// are the writes. Each served mix starts from one of the paper's YCSB mixes
// (internal/workload.MixFor); see the mixes in served.go.
type mix struct{ get, insert, del, scan int }

// stream is the load of one goroutine for one round: the ops in issue
// order and the per-kind counts the result buffers are sized by.
type stream struct {
	ops    []op
	counts [numKinds]int
}

// inputs is everything a round replays, generated from the seed before any
// clock starts. Every round of a run replays the same inputs on a fresh
// index, so the structure counters of a round repeat exactly.
type inputs struct {
	preload []uint64 // loaded during set-up, in dataset order
	streams []stream // one per load goroutine
}

// txKeys returns n keys of the TX (taxi-trip time) dataset in insertion
// order: medium skew and the highest key-distribution divergence of the
// paper's five, so inserting them in order is the drift the index adapts to.
func txKeys(n int, seed int64) []uint64 { return datasets.Taxi.Gen(n, seed) }

// genDrift builds embedded-dynamic's single stream. The first half of n TX
// keys is the preload; the timed phase inserts the second half in dataset
// order, each insert followed by one get of a random live key, with a short
// scan from a random live key after one insert in 16 and a delete of the
// oldest live key after one insert in 16. Reads (gets and scans) and writes
// (inserts and deletes) are thus equal in number, the balance of the paper's
// workload A.
func genDrift(n int, seed int64) inputs {
	keys := txKeys(n, seed)
	half := n / 2
	rng := rand.New(rand.NewSource(seed))
	s := stream{ops: make([]op, 0, half*9/4)}
	add := func(k opKind, key uint64) {
		s.ops = append(s.ops, op{key: key, kind: k})
		s.counts[k]++
	}
	oldest := 0 // keys[oldest:next] are live
	for next := half; next < n; next++ {
		add(opInsert, keys[next])
		live := next + 1 - oldest
		add(opGet, keys[oldest+rng.Intn(live)])
		if rng.Intn(16) == 0 {
			add(opScan, keys[oldest+rng.Intn(live)])
		}
		if rng.Intn(16) == 0 {
			add(opDelete, keys[oldest])
			oldest++
		}
	}
	return inputs{preload: keys[:half], streams: []stream{s}}
}

// genMixed builds g concurrent streams of perStream ops each, over a
// preload of the first preload keys of the TX set. Goroutine i owns the
// keys whose dataset position is i mod g, so the expected answer to every
// get, delete and final read depends only on its own stream, never on how
// the streams interleave: gets and scans start at a random live owned key,
// inserts take the next unused owned key in dataset order, and deletes
// remove the oldest live owned key.
func genMixed(preload, g, perStream int, m mix, seed int64) inputs {
	keys := txKeys(preload+g*perStream, seed)
	in := inputs{preload: keys[:preload], streams: make([]stream, g)}
	for i := range in.streams {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
		var live []uint64 // owned live keys, oldest first
		for p := i; p < preload; p += g {
			live = append(live, keys[p])
		}
		nextNew := preload + i
		s := stream{ops: make([]op, 0, perStream)}
		for len(s.ops) < perStream {
			r := rng.Intn(100)
			var o op
			switch {
			case r < m.get:
				o = op{kind: opGet, key: live[rng.Intn(len(live))]}
			case r < m.get+m.insert:
				o = op{kind: opInsert, key: keys[nextNew]}
				live = append(live, keys[nextNew])
				nextNew += g
			case r < m.get+m.insert+m.del:
				if len(live) < 2 {
					continue
				}
				o = op{kind: opDelete, key: live[0]}
				live = live[1:]
			default:
				o = op{kind: opScan, key: live[rng.Intn(len(live))]}
			}
			s.ops = append(s.ops, o)
			s.counts[o.kind]++
		}
		in.streams[i] = s
	}
	return in
}
