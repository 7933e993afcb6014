package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dytis"
	"dytis/internal/proto"
)

// The per-layer ledger is measured from outside the program: around the
// public calls the benchmark makes, through conn wrappers handed to the
// client's dialer and the server's WrapConn, and from counters and
// histograms the program already exports. Server-side time cannot be linked
// to its request from outside, so server, cluster and core times are
// aggregated per layer and opcode (medians of each layer's own histogram),
// not per request. A layer a workload bypasses reads 0 on that workload.

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"core.get_ns_p50", "ns"},
	{"core.insert_ns_p50", "ns"},
	{"core.scan_ns_p50", "ns"},
	{"core.served_get_ns_p50", "ns"},
	{"core.splits_per_kinsert", "1/kinsert"},
	{"core.remaps_per_kinsert", "1/kinsert"},
	{"core.expansions_per_kinsert", "1/kinsert"},
	{"core.doublings", "count"},
	{"core.maint_share", "ratio"},
	{"core.bytes_per_key", "B/key"},
	{"proto.req_bytes_per_op", "B/op"},
	{"proto.resp_bytes_per_op", "B/op"},
	{"proto.client_writes_per_op", "1/op"},
	{"proto.encode_ns", "ns/op"},
	{"proto.decode_ns", "ns/op"},
	{"server.exec_us_p50.get", "us"},
	{"server.exec_us_p50.insert", "us"},
	{"server.exec_us_p50.scan", "us"},
	{"server.outside_us_p50", "us"},
	{"server.scan_chunks_per_scan", "1/scan"},
	{"server.writes_per_response", "1/resp"},
	{"server.overloads", "count"},
	{"cluster.node_overhead_ns_p50", "ns"},
	{"cluster.wrong_shard", "count"},
	{"client.scan_fanout", "shards/scan"},
	{"client.routing_errors", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.fsyncs_per_kwrite", "1/kwrite"},
	{"wal.fsync_us_mean", "us"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_ms_mean", "ms"},
	{"wal.disk_bytes_per_key", "B/key"},
	{"trace.throughput_ops_s", "ops/s"},
}

// countConn counts the bytes and write calls crossing one connection.
type countConn struct {
	net.Conn
	in, out, writes *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	c.writes.Add(1)
	return n, err
}

// tracer holds the conn counters of a traced served round: client side
// through client.WithDialer, server side through server.Config.WrapConn.
type tracer struct {
	cliIn, cliOut, cliWrites atomic.Int64
	srvIn, srvOut, srvWrites atomic.Int64
}

func (t *tracer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return countConn{Conn: c, in: &t.cliIn, out: &t.cliOut, writes: &t.cliWrites}, nil
}

func (t *tracer) wrapServer(c net.Conn) net.Conn {
	return countConn{Conn: c, in: &t.srvIn, out: &t.srvOut, writes: &t.srvWrites}
}

// counters is a snapshot of the cumulative counters a served round reads
// before and after its timed phase.
type counters struct {
	core dytis.Stats      // summed over shards
	n    map[string]int64 // named counters, summed over shards
}

func (sv *served) snapshot() counters {
	c := counters{n: map[string]int64{}}
	if t := sv.tr; t != nil {
		c.n["cli_in"], c.n["cli_out"] = t.cliIn.Load(), t.cliOut.Load()
		c.n["cli_writes"], c.n["srv_writes"] = t.cliWrites.Load(), t.srvWrites.Load()
	}
	for _, sh := range sv.shards {
		st := sh.index().Stats()
		c.core.Splits += st.Splits
		c.core.Remaps += st.Remaps
		c.core.Expansions += st.Expansions
		c.core.Doublings += st.Doublings
		c.core.SplitNS += st.SplitNS
		c.core.RemapNS += st.RemapNS
		c.core.ExpandNS += st.ExpandNS
		c.core.DoubleNS += st.DoubleNS
		c.core.ShrinkNS += st.ShrinkNS
		if sh.obs != nil {
			c.n["core_insert_ns"] += int64(sh.obs.OpHist(dytis.OpInsert).Sum())
		}
		m := sh.metrics
		c.n["scan_streams"] += m.ScanStreams()
		c.n["scan_chunks"] += m.ScanChunks()
		c.n["overloads"] += m.Overloads()
		c.n["wrong_shards"] += m.WrongShards()
		if w := sh.wal; w != nil {
			prom := walSeries(w)
			c.n["wal_bytes"] += w.Bytes()
			c.n["fsyncs"] += w.Fsyncs()
			c.n["checkpoints"] += w.Checkpoints()
			c.n["fsync_ns"] += prom["dytis_wal_fsync_nanoseconds_total"]
			c.n["checkpoint_ns"] += prom["dytis_wal_checkpoint_nanoseconds_total"]
		}
	}
	return c
}

// walSeries parses the WAL's Prometheus text, the only place it exports
// its fsync and checkpoint time totals.
func walSeries(w *dytis.WALMetrics) map[string]int64 {
	var b bytes.Buffer
	w.WritePrometheus(&b)
	out := map[string]int64{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// p50 is the median of a copy of samples (0 when empty).
func p50(samples []int64) float64 {
	s := sortSamples(append([]int64(nil), samples...))
	if len(s) == 0 {
		return 0
	}
	return float64(s[rankOf(0.5, len(s))])
}

// ledger books a traced served round's per-layer metrics.
func (sv *served) ledger(in *inputs, recs []*record, before, after counters) (map[string]float64, error) {
	var ops, scans, writes, userBytes float64
	inserts := 0
	var clientGets []int64
	fails := 0
	for _, r := range recs {
		for k := range r.lat {
			ops += float64(len(r.lat[k]))
		}
		scans += float64(len(r.lat[opScan]))
		inserts += len(r.lat[opInsert])
		writes += float64(len(r.lat[opInsert]) + len(r.lat[opDelete]))
		userBytes += float64(16*len(r.lat[opInsert]) + 8*len(r.lat[opDelete]))
		clientGets = append(clientGets, r.lat[opGet]...)
		fails += r.failures()[failRouting]
	}
	d := map[string]float64{}
	for k, v := range after.n {
		d[k] = float64(v - before.n[k])
	}
	l := maintLedger(before.core, after.core, inserts, int64(d["core_insert_ns"]))
	l["proto.req_bytes_per_op"] = ratio(d["cli_out"], ops)
	l["proto.resp_bytes_per_op"] = ratio(d["cli_in"], ops)
	l["proto.client_writes_per_op"] = ratio(d["cli_writes"], ops)
	l["server.scan_chunks_per_scan"] = ratio(d["scan_chunks"], d["scan_streams"])
	// Each point op is answered by one frame, each scan by its chunk frames
	// plus one end frame.
	l["server.writes_per_response"] = ratio(d["srv_writes"], ops-scans+d["scan_chunks"]+d["scan_streams"])
	l["server.overloads"] = d["overloads"]
	l["cluster.wrong_shard"] = d["wrong_shards"]
	l["client.routing_errors"] = float64(fails)
	l["client.scan_fanout"] = ratio(d["scan_streams"], scans)
	var err error
	if l["proto.encode_ns"], l["proto.decode_ns"], err = codecCost(&in.streams[0]); err != nil {
		return nil, err
	}

	var execGet, execIns, execScan, coreGet, coreScan, nodeOver []float64
	for _, sh := range sv.shards {
		eg := float64(sh.metrics.OpHist(proto.OpGet).Quantile(0.5))
		cg := float64(sh.obs.OpHist(dytis.OpGet).Quantile(0.5))
		execGet = append(execGet, eg)
		execIns = append(execIns, float64(sh.metrics.OpHist(proto.OpInsert).Quantile(0.5)))
		execScan = append(execScan, float64(sh.metrics.OpHist(proto.OpScanStart).Quantile(0.5)))
		coreGet = append(coreGet, cg)
		coreScan = append(coreScan, float64(sh.obs.OpHist(dytis.OpScan).Quantile(0.5)))
		nodeOver = append(nodeOver, eg-cg)
	}
	l["server.exec_us_p50.get"] = mean(execGet) / 1e3
	l["server.exec_us_p50.insert"] = mean(execIns) / 1e3
	l["server.exec_us_p50.scan"] = mean(execScan) / 1e3
	l["server.outside_us_p50"] = (p50(clientGets) - mean(execGet)) / 1e3
	// The observer's histograms cover the index's whole life. No get or scan
	// runs before the timed phase, but the preload's batch inserts would
	// outnumber the timed inserts in the insert histogram, so
	// core.insert_ns_p50 is reported on embedded-dynamic only.
	l["core.get_ns_p50"] = mean(coreGet)
	l["core.served_get_ns_p50"] = mean(coreGet)
	l["core.scan_ns_p50"] = mean(coreScan)

	if sv.shards[0].store == nil {
		return l, nil
	}
	l["cluster.node_overhead_ns_p50"] = mean(nodeOver)
	l["wal.bytes_per_user_byte"] = ratio(d["wal_bytes"], userBytes)
	l["wal.fsyncs_per_kwrite"] = ratio(d["fsyncs"], writes/1000)
	l["wal.fsync_us_mean"] = ratio(d["fsync_ns"], d["fsyncs"]) / 1e3
	l["wal.checkpoints"] = d["checkpoints"]
	l["wal.checkpoint_ms_mean"] = ratio(d["checkpoint_ns"], d["checkpoints"]) / 1e6
	var disk int64
	var live int
	for _, sh := range sv.shards {
		disk += dirBytes(sh.dir)
		live += sh.store.Len()
	}
	l["wal.disk_bytes_per_key"] = ratio(float64(disk), float64(live))
	return l, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// codecCost times the wire codec on one stream's own op mix: the request
// and response each op exchanges, encoded with AppendRequest/AppendResponse
// and decoded with DecodeRequest/DecodeResponse. A scan is its stream start
// and one chunk of scanLen pairs. It returns ns per op for encode and for
// decode, the best of three passes.
func codecCost(s *stream) (encNS, decNS float64, err error) {
	n := min(len(s.ops), 100_000)
	reqs := make([]proto.Request, n)
	resps := make([]proto.Response, n)
	pairs := make([]uint64, scanLen)
	for i, o := range s.ops[:n] {
		id := uint64(i + 1)
		switch o.kind {
		case opGet:
			reqs[i] = proto.Request{ID: id, Op: proto.OpGet, Key: o.key}
			resps[i] = proto.Response{ID: id, Op: proto.OpGet, Found: true, Val: valueOf(o.key)}
		case opInsert:
			reqs[i] = proto.Request{ID: id, Op: proto.OpInsert, Key: o.key, Val: valueOf(o.key)}
			resps[i] = proto.Response{ID: id, Op: proto.OpInsert}
		case opDelete:
			reqs[i] = proto.Request{ID: id, Op: proto.OpDelete, Key: o.key}
			resps[i] = proto.Response{ID: id, Op: proto.OpDelete, Found: true}
		case opScan:
			reqs[i] = proto.Request{ID: id, Op: proto.OpScanStart, Key: o.key, Max: 1024, ScanMax: scanLen, Credits: 8}
			resps[i] = proto.Response{ID: id, Op: proto.OpScanChunk, Keys: pairs, Vals: pairs}
		}
	}
	frames := make([][]byte, 2*n)
	encNS, decNS = -1, -1
	var req proto.Request
	var resp proto.Response
	for pass := 0; pass < 3; pass++ {
		buf := make([]byte, 0, 64*2*n)
		t := time.Now()
		for i := range reqs {
			start := len(buf)
			if buf, err = proto.AppendRequest(buf, &reqs[i]); err != nil {
				return 0, 0, fmt.Errorf("encoding request %d: %w", i, err)
			}
			frames[2*i] = buf[start:]
			start = len(buf)
			if buf, err = proto.AppendResponse(buf, &resps[i]); err != nil {
				return 0, 0, fmt.Errorf("encoding response %d: %w", i, err)
			}
			frames[2*i+1] = buf[start:]
		}
		enc := float64(time.Since(t)) / float64(n)
		t = time.Now()
		for i := 0; i < n; i++ {
			if err := proto.DecodeRequest(frames[2*i][4:], &req); err != nil {
				return 0, 0, fmt.Errorf("decoding request %d: %w", i, err)
			}
			if err := proto.DecodeResponse(frames[2*i+1][4:], &resp); err != nil {
				return 0, 0, fmt.Errorf("decoding response %d: %w", i, err)
			}
		}
		dec := float64(time.Since(t)) / float64(n)
		if encNS < 0 || enc < encNS {
			encNS = enc
		}
		if decNS < 0 || dec < decNS {
			decNS = dec
		}
	}
	return encNS, decNS, nil
}
