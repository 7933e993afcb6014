// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed amount of work, checks every answer after the
// clock stops, and prints its metrics as one JSON object on the last line
// of standard output:
//
//	bash perfbench/run.sh --workload embedded-dynamic --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// repeats the run with the per-layer ledger switched on and reports the
// per-layer metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// round is the outcome of one fixed-work round: fresh set-up, timed
// closed-loop phase, answer check. Its records are the caller's, valid
// until the next round.
type round struct {
	setup, wall time.Duration
	recs        []*record
	liveKeys    int
	memBytes    int64
	ledger      map[string]float64 // traced runs only
}

// workload is one named benchmark input.
type workload struct {
	name string
	gen  func(seed int64) inputs
	run  func(in *inputs, recs []*record, trace bool, workdir string) (*round, error)
	// roundSeconds is the nominal wall-clock length of one round, set-up
	// and answer check included, on a 2-vCPU host; --seconds divided by it
	// gives the (odd) round count, so the work of a run depends only on its
	// arguments, never on speed.
	roundSeconds float64
	// gomaxprocs, when not 0, is the number of Ps the run uses. The served
	// workloads use one, so that a round trip between the load goroutine
	// and the in-process server never wakes a goroutine on another CPU: on
	// a shared 2-vCPU guest such a wake-up is the part of an op whose cost
	// moves most with the load of the host.
	gomaxprocs int
	// settings describes the configuration for the result header.
	settings map[string]any
}

var workloads = []workload{
	{
		name: "embedded-dynamic",
		gen:  func(seed int64) inputs { return genDrift(driftKeys, seed) },
		run: func(in *inputs, recs []*record, trace bool, _ string) (*round, error) {
			return embeddedRound(in, recs, trace)
		},
		roundSeconds: 1.9,
		settings: map[string]any{"dataset": "TX", "keys": driftKeys, "preload": driftKeys / 2, "mode": "single-threaded", "goroutines": 1,
			"scan_len": scanLen, "fsync": "none"},
	},
	{
		name: "serve-mixed",
		gen: func(seed int64) inputs {
			return genMixed(servedPreload, loadGoroutines, serveOpsPerGoroutine, serveMix, seed)
		},
		run:          serveRound,
		roundSeconds: 2.1,
		gomaxprocs:   1,
		settings: map[string]any{"dataset": "TX", "preload": servedPreload, "goroutines": loadGoroutines,
			"connections": loadGoroutines, "ops_per_goroutine": serveOpsPerGoroutine, "mix": serveMix.String(), "scan_len": scanLen, "fsync": "none"},
	},
	{
		name: "cluster-durable",
		gen: func(seed int64) inputs {
			return genMixed(servedPreload, loadGoroutines, clusterOpsPerGoroutine, clusterMix, seed)
		},
		run:          clusterRound,
		roundSeconds: 3.0,
		gomaxprocs:   1,
		settings: map[string]any{"dataset": "TX", "preload": servedPreload, "goroutines": loadGoroutines, "shards": 2,
			"connections_per_shard": loadGoroutines, "ops_per_goroutine": clusterOpsPerGoroutine, "mix": clusterMix.String(),
			"scan_len": scanLen, "scan_stream": "client default", "fsync": "interval", "checkpoint_bytes": ckptBytes},
	},
}

// Per-goroutine op counts of one served round.
const (
	serveOpsPerGoroutine   = 95_000
	clusterOpsPerGoroutine = 40_000
)

func (m mix) String() string {
	return fmt.Sprintf("get=%d insert=%d delete=%d scan=%d", m.get, m.insert, m.del, m.scan)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: embedded-dynamic, serve-mixed or cluster-durable")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 30, "nominal wall-clock seconds of the run; sets the fixed round count")
	trace := flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the durable workload's files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed N --seconds S --trace 0|1\n", names())
		os.Exit(2)
	}
	if w.gomaxprocs > 0 {
		runtime.GOMAXPROCS(w.gomaxprocs)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, detail, err := runWorkload(w, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		os.Exit(1)
	}
	detail["host"] = hostInfo()
	detail["settings"] = w.settings
	detail["seed"] = *seed
	detail["workload"] = w.name
	emit(map[string]any{"detail": detail})
	emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func names() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, "|")
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// warmups is the number of rounds a run starts with whose metrics are not
// booked: the first round also grows the heap and faults in its pages.
// Their answers are checked and their ops counted like any other round's.
const warmups = 1

// roundsFor returns the odd number of measured rounds for a run of the
// given seconds, after the warm-up rounds.
func roundsFor(w *workload, seconds int) int {
	n := int(math.Round(float64(seconds)/w.roundSeconds)) - warmups
	if n < 3 {
		n = 3
	}
	return n | 1
}

// runWorkload generates the inputs, runs every round and reports the
// median over rounds of each metric. The records are allocated once and
// reused, so every round starts from the same heap. A wrong answer makes
// the result incorrect; any other error aborts.
func runWorkload(w *workload, seed int64, seconds int, trace bool, workdir string) (result, map[string]any, error) {
	in := w.gen(seed)
	recs := make([]*record, len(in.streams))
	for g := range recs {
		recs[g] = newRecord(&in.streams[g])
	}
	res := result{Correct: true}
	byRound := map[string][]float64{}
	ledgers := map[string][]float64{}
	var fails [numFailClasses]int
	tails := map[string]any{}
	n := roundsFor(w, seconds)
	detail := map[string]any{}
	for i := -warmups; i < n; i++ {
		r, err := w.run(&in, recs, trace, workdir)
		if r == nil {
			return result{}, nil, err
		}
		if err != nil {
			res.Correct = false
			detail["wrong_answer"] = err.Error()
			fmt.Fprintf(os.Stderr, "%s: wrong answer: %v\n", w.name, err)
		}
		done := 0
		var lat [numKinds][]int64
		for _, rec := range recs {
			for k := range rec.lat {
				lat[k] = append(lat[k], rec.lat[k]...)
				done += len(rec.lat[k])
			}
			f := rec.failures()
			for c := range fails {
				fails[c] += f[c]
			}
			res.Attempted += len(rec.fail)
		}
		if i < 0 {
			if !res.Correct {
				break
			}
			continue
		}
		add := func(name string, v float64) { byRound[name] = append(byRound[name], v) }
		add("throughput_ops_s", float64(done)/r.wall.Seconds())
		add("setup_s", r.setup.Seconds())
		add("mem_bytes_per_key", ratio(float64(r.memBytes), float64(r.liveKeys)))
		for _, s := range []struct {
			name string
			lat  []int64
		}{{"get", lat[opGet]}, {"write", append(lat[opInsert], lat[opDelete]...)}, {"scan", lat[opScan]}} {
			sorted := sortSamples(s.lat)
			for _, q := range []struct {
				suffix string
				q      float64
			}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
				v, err := percentile(sorted, q.q)
				if err != nil {
					return result{}, nil, fmt.Errorf("round %d %s latency: %w", i, s.name, err)
				}
				add(s.name+"_"+q.suffix+"_us", float64(v)/1e3)
			}
			tq, tv, tn, _ := tailPercentile(sorted)
			tails[s.name] = map[string]any{"samples_per_round": tn, "tail_percentile": tq * 100}
			add(s.name+"_tail_us", float64(tv)/1e3)
		}
		for k, v := range r.ledger {
			ledgers[k] = append(ledgers[k], v)
		}
		if !res.Correct {
			break
		}
	}
	res.Failed = res.Attempted - fails[failNone]

	detail["rounds"] = len(byRound["setup_s"])
	detail["by_round"] = byRound
	detail["latency_samples"] = tails
	failDetail := map[string]int{}
	for c := failOverload; c < numFailClasses; c++ {
		failDetail[failNames[c]] = fails[c]
	}
	detail["failures"] = failDetail

	vals := map[string]float64{}
	if trace {
		for k, v := range ledgers {
			vals[k] = median(v)
		}
		vals["core.bytes_per_key"] = median(byRound["mem_bytes_per_key"])
		vals["trace.throughput_ops_s"] = median(byRound["throughput_ops_s"])
		res.Metrics = withUnits(perLayer, vals)
		return res, detail, nil
	}
	for k, v := range byRound {
		vals[k] = median(v)
	}
	vals["op_ok_ratio"] = ratio(float64(res.Attempted-res.Failed), float64(res.Attempted))
	res.Metrics = withUnits(endToEnd, vals)
	return res, detail, nil
}

// endToEnd lists every end-to-end metric with its unit. op_ok_ratio is the
// complement of the failed share, so that no end-to-end metric reads 0.
// Latency is reported at p90 only: on a shared host the p50 of a served
// op flips between two modes from run to run and the p99 follows host
// stalls, so both stay in the detail line (by_round), not in the result.
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops_s", "ops/s"},
	{"get_p90_us", "us"},
	{"write_p90_us", "us"},
	{"scan_p90_us", "us"},
	{"setup_s", "s"},
	{"mem_bytes_per_key", "B/key"},
	{"op_ok_ratio", "ratio"},
}

// withUnits reports every listed metric, with 0 for any not in vals.
func withUnits(list []struct{ name, unit string }, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// hostInfo records the host and toolchain next to every result.
func hostInfo() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
