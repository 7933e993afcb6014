package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestStreamsArePureFunctionsOfTheSeed(t *testing.T) {
	a, b, c := genDrift(1<<12, 7), genDrift(1<<12, 7), genDrift(1<<12, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("genDrift differs between two calls with the same seed")
	}
	if reflect.DeepEqual(a.streams, c.streams) {
		t.Fatal("genDrift ignores its seed")
	}
	m := mix{get: 40, insert: 30, del: 20, scan: 10}
	x, y, z := genMixed(1000, 2, 500, m, 7), genMixed(1000, 2, 500, m, 7), genMixed(1000, 2, 500, m, 8)
	if !reflect.DeepEqual(x, y) {
		t.Fatal("genMixed differs between two calls with the same seed")
	}
	if reflect.DeepEqual(x.streams, z.streams) {
		t.Fatal("genMixed ignores its seed")
	}
}

func TestMixedStreamsOwnDisjointKeys(t *testing.T) {
	in := genMixed(1000, 2, 2000, mix{get: 40, insert: 30, del: 20, scan: 10}, 3)
	owner := map[uint64]int{}
	for g, s := range in.streams {
		for _, o := range s.ops {
			if o.kind == opScan {
				continue
			}
			if h, ok := owner[o.key]; ok && h != g {
				t.Fatalf("key %#x is used by goroutines %d and %d", o.key, h, g)
			}
			owner[o.key] = g
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n     int
		wantQ float64
		wantV int64
		ok    bool
	}{
		{n: 5, ok: false},
		{n: 21, wantQ: 0.5, wantV: 11, ok: true},
		{n: 999, wantQ: 0.9, wantV: 900, ok: true},
		{n: 1000, wantQ: 0.99, wantV: 990, ok: true},
		{n: 10_000, wantQ: 0.999, wantV: 9990, ok: true},
	} {
		q, v, n, ok := tailPercentile(samples(tc.n))
		if ok != tc.ok || n != tc.n || (ok && (q != tc.wantQ || v != tc.wantV)) {
			t.Errorf("tailPercentile(%d samples) = (p%g, %d, n=%d, %v), want (p%g, %d, n=%d, %v)",
				tc.n, q*100, v, n, ok, tc.wantQ*100, tc.wantV, tc.n, tc.ok)
		}
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it but was accepted")
	}
	if v, err := percentile(samples(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %d, %v; want 990", v, err)
	}
}

func TestEmbeddedCoreCountsRepeatExactly(t *testing.T) {
	in := genDrift(1<<16, 1)
	recs := []*record{newRecord(&in.streams[0])}
	counts := func() map[string]float64 {
		r, err := embeddedRound(&in, recs, true)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]float64{
			"core.splits_per_kinsert":     r.ledger["core.splits_per_kinsert"],
			"core.remaps_per_kinsert":     r.ledger["core.remaps_per_kinsert"],
			"core.expansions_per_kinsert": r.ledger["core.expansions_per_kinsert"],
			"core.doublings":              r.ledger["core.doublings"],
		}
	}
	a, b := counts(), counts()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("structure counts differ between two runs of one seed:\n%v\n%v", a, b)
	}
	if a["core.splits_per_kinsert"] == 0 {
		t.Fatalf("no splits in the timed phase: %v", a)
	}
}

func TestServedRoundsCheckOut(t *testing.T) {
	m := mix{get: 40, insert: 30, del: 20, scan: 10}
	in := genMixed(4000, 2, 1500, m, 5)
	for _, tc := range []struct {
		name  string
		round func(*inputs, []*record, bool, string) (*round, error)
	}{{"serve-mixed", serveRound}, {"cluster-durable", clusterRound}} {
		recs := []*record{newRecord(&in.streams[0]), newRecord(&in.streams[1])}
		for _, trace := range []bool{false, true} {
			r, err := tc.round(&in, recs, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", tc.name, trace, err)
			}
			if trace && r.ledger["proto.req_bytes_per_op"] == 0 {
				t.Errorf("%s: traced round counted no request bytes", tc.name)
			}
		}
	}
}

func TestChecksRejectWrongAnswers(t *testing.T) {
	final := []uint64{10, 20, 30}
	vals := []uint64{valueOf(10), valueOf(20), valueOf(30)}
	if err := checkFinal(final, vals, []uint64{10, 20, 30}, nil); err != nil {
		t.Fatal(err)
	}
	if checkFinal(final[:2], vals[:2], []uint64{10, 20, 30}, nil) == nil {
		t.Error("a lost write passed the final check")
	}
	if checkFinal(final, vals, []uint64{10, 30}, nil) == nil {
		t.Error("an unexpected key passed the final check")
	}
	if checkFinal(final, []uint64{vals[0], 1, vals[2]}, []uint64{10, 20, 30}, nil) == nil {
		t.Error("a wrong value passed the final check")
	}
	if checkFinal(final, vals, []uint64{10, 30}, map[uint64]bool{20: true}) != nil {
		t.Error("an uncertain key failed the final check")
	}

	stable := []uint64{10, 20, 30}
	ever := func(k uint64) bool { return k == 10 || k == 15 || k == 20 || k == 30 }
	if err := checkScan(12, []uint64{15, 20, 30}, []uint64{valueOf(15), valueOf(20), valueOf(30)}, stable, ever); err != nil {
		t.Fatal(err)
	}
	if checkScan(12, []uint64{15, 30}, []uint64{valueOf(15), valueOf(30)}, stable, ever) == nil {
		t.Error("a scan that skipped a live key passed")
	}
	if checkScan(12, []uint64{20, 15}, []uint64{valueOf(20), valueOf(15)}, stable, ever) == nil {
		t.Error("a descending scan passed")
	}
	if checkScan(12, []uint64{10, 20, 30}, []uint64{valueOf(10), valueOf(20), valueOf(30)}, stable, ever) == nil {
		t.Error("a scan starting before its key passed")
	}
}

// TestBenchmarkFileListsEveryMetric keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkFileListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []struct{ name, unit string }
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.code))
		}
		for i := range c.file {
			if c.file[i].Name != c.code[i].name || c.file[i].Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					i, c.file[i].Name, c.file[i].Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}
