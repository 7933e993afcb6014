package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dytis"
	"dytis/client"
	"dytis/internal/cluster"
	"dytis/internal/server"
)

// Sizes of the served workloads. Both preload the first servedPreload TX
// keys; each of the loadGoroutines then replays its own fixed stream. One
// load goroutine on one P keeps a round trip on one CPU: with more callers
// than a shared 2-vCPU host has CPUs, the tail latencies measured how long
// each caller waited for a CPU more than what the program did.
const (
	servedPreload  = 200_000
	loadGoroutines = 1
	preloadBatch   = 4096
	// ckptBytes is the cluster-durable checkpoint trigger per shard: small
	// enough that every round's timed phase completes checkpoints (two to
	// three across the two shards), so their stall is in the measurement.
	ckptBytes = 192 << 10
)

// The served mixes start from the paper's YCSB mixes and add the ops the
// workload must also load at 5%, the minority share of workloads B, D' and E:
//   - serveMix is workload D' (read 95, insert 5) with 5 of the reads issued
//     as workload-E short scans.
//   - clusterMix is workload A (read 50, write 50). Its writes are a sliding
//     window: inserts of the next keys in TX order and deletes of the oldest
//     live keys are equally likely, so the live set keeps about its size
//     while its range drifts. 5 of its reads are short scans, as in serveMix.
var (
	serveMix   = mix{get: 90, insert: 5, del: 0, scan: 5}
	clusterMix = mix{get: 45, insert: 25, del: 25, scan: 5}
)

// kvOps is the part of the client surface the load loop drives; both
// client.Client and client.Cluster provide it.
type kvOps interface {
	Get(ctx context.Context, key uint64) (uint64, bool, error)
	Insert(ctx context.Context, key, value uint64) error
	Delete(ctx context.Context, key uint64) (bool, error)
}

// scanner is the iterator both ScanStream flavours return.
type scanner interface {
	Next() bool
	Key() uint64
	Value() uint64
	Err() error
	Close() error
}

// loader is one load goroutine's client: its point ops and its scans.
type loader struct {
	kv   kvOps
	scan func(ctx context.Context, start uint64, max int) scanner
}

// shard is one in-process server and what it serves.
type shard struct {
	idx     *dytis.Index
	store   *dytis.DurableStore
	wal     *dytis.WALMetrics
	dir     string
	node    *cluster.Node
	srv     *server.Server
	metrics *server.Metrics
	obs     *dytis.Observer
	served  chan error
	addr    string
}

// index is the shard's in-memory index.
func (s *shard) index() *dytis.Index {
	if s.store != nil {
		return s.store.Index()
	}
	return s.idx
}

// start listens on a loopback port and serves in a goroutine that stop
// waits for.
func (s *shard) start(cfg server.Config) error {
	s.metrics = &server.Metrics{}
	cfg.Metrics = s.metrics
	s.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return nil
}

// stop drains the server, waits for Serve to return, then closes the index
// or store and removes the store's directory.
func (s *shard) stop() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if s.served != nil {
			if err := <-s.served; !errors.Is(err, server.ErrServerClosed) {
				errs = append(errs, err)
			}
		}
	}
	if s.node != nil {
		errs = append(errs, s.node.Close())
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
		errs = append(errs, os.RemoveAll(s.dir))
	}
	if s.idx != nil {
		errs = append(errs, s.idx.Close())
	}
	return errors.Join(errs...)
}

// served is the shared round of the two served workloads: a set-up that
// ends with loaders ready and the preload applied, a timed phase of
// closed-loop goroutines, then the ledger and the answer check.
type served struct {
	shards  []*shard
	loaders []loader
	closers []func() error
	full    func(ctx context.Context) scanner // scans everything, for the final check
	tr      *tracer                           // nil when untraced
}

func (sv *served) close() error {
	var errs []error
	for _, c := range sv.closers {
		errs = append(errs, c())
	}
	for _, s := range sv.shards {
		errs = append(errs, s.stop())
	}
	return errors.Join(errs...)
}

// serveRound runs one serve-mixed round: one in-process server over
// loopback with a concurrent index, no WAL and no cluster, and one pooled
// client of one connection per load goroutine.
func serveRound(in *inputs, recs []*record, trace bool, _ string) (*round, error) {
	sv := &served{}
	if trace {
		sv.tr = &tracer{}
	}
	runtime.GC()
	t0 := time.Now()
	sh := &shard{}
	sv.shards = []*shard{sh}
	opts := []dytis.Option{dytis.WithConcurrent()}
	if trace {
		sh.obs = dytis.NewObserver()
		opts = append(opts, dytis.WithObserver(sh.obs))
	}
	sh.idx = dytis.New(opts...)
	cfg := server.Config{Index: sh.idx}
	if trace {
		cfg.WrapConn = sv.tr.wrapServer
	}
	if err := sh.start(cfg); err != nil {
		return nil, errors.Join(err, sv.close())
	}
	var first *client.Client
	for range in.streams {
		copts := []client.Option{client.WithPoolSize(1)}
		if trace {
			copts = append(copts, client.WithDialer(sv.tr.dial))
		}
		c, err := client.Dial(sh.addr, copts...)
		if err != nil {
			return nil, errors.Join(err, sv.close())
		}
		if first == nil {
			first = c
		}
		sv.closers = append(sv.closers, c.Close)
		sv.loaders = append(sv.loaders, loader{kv: c, scan: func(ctx context.Context, start uint64, max int) scanner {
			return c.ScanStream(ctx, start, max)
		}})
	}
	sv.full = func(ctx context.Context) scanner { return first.ScanStream(ctx, 0, 0) }
	if err := preload(first.InsertBatch, in.preload); err != nil {
		return nil, errors.Join(err, sv.close())
	}
	return sv.run(in, recs, time.Since(t0))
}

// clusterRound runs one cluster-durable round: two in-process shards, each
// a server, a cluster node and a WAL store under fsync=interval, split at
// the preload's median key, driven through routed clients.
func clusterRound(in *inputs, recs []*record, trace bool, workdir string) (*round, error) {
	sorted := append([]uint64(nil), in.preload...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	split := sorted[len(sorted)/2]
	dir, err := os.MkdirTemp(workdir, "cluster-durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	sv := &served{}
	if trace {
		sv.tr = &tracer{}
	}
	runtime.GC()
	t0 := time.Now()
	m := &cluster.Map{Epoch: 1}
	for i, r := range [][2]uint64{{0, split - 1}, {split, ^uint64(0)}} {
		sh := &shard{wal: &dytis.WALMetrics{}, dir: filepath.Join(dir, fmt.Sprintf("shard%d", i))}
		sv.shards = append(sv.shards, sh)
		opts := []dytis.Option{dytis.WithConcurrent()}
		if trace {
			sh.obs = dytis.NewObserver()
			opts = append(opts, dytis.WithObserver(sh.obs))
		}
		sh.store, err = dytis.OpenDurable(sh.dir, dytis.DurableConfig{
			Fsync:           dytis.FsyncInterval,
			CheckpointBytes: ckptBytes,
			Metrics:         sh.wal,
		}, opts...)
		if err != nil {
			return nil, errors.Join(err, sv.close())
		}
		if sh.node, err = cluster.NewNode(cluster.NodeConfig{Index: sh.store.Serving(), Lo: r[0], Hi: r[1]}); err != nil {
			return nil, errors.Join(err, sv.close())
		}
		cfg := server.Config{Index: sh.store.Serving(), Cluster: sh.node}
		if trace {
			cfg.WrapConn = sv.tr.wrapServer
		}
		if err := sh.start(cfg); err != nil {
			return nil, errors.Join(err, sv.close())
		}
		m.Shards = append(m.Shards, cluster.Shard{Lo: r[0], Hi: r[1], Addr: sh.addr})
	}
	if err := m.Validate(); err != nil {
		return nil, errors.Join(err, sv.close())
	}
	blob := m.Encode()
	for _, sh := range sv.shards {
		if err := installMap(sh.addr, m, blob); err != nil {
			return nil, errors.Join(err, sv.close())
		}
	}
	copts := []client.Option{client.WithPoolSize(1)}
	if trace {
		copts = append(copts, client.WithDialer(sv.tr.dial))
	}
	// Each load goroutine routes through its own client, so every shard
	// sees one connection per goroutine, as the server does in serve-mixed.
	var first *client.Cluster
	for range in.streams {
		cl, err := client.DialCluster([]string{sv.shards[0].addr}, copts...)
		if err != nil {
			return nil, errors.Join(err, sv.close())
		}
		if first == nil {
			first = cl
		}
		sv.closers = append(sv.closers, cl.Close)
		sv.loaders = append(sv.loaders, loader{kv: cl, scan: func(ctx context.Context, start uint64, max int) scanner {
			return cl.ScanStream(ctx, start, max)
		}})
	}
	sv.full = func(ctx context.Context) scanner { return first.ScanStream(ctx, 0, 0) }
	if err := preload(first.InsertBatch, in.preload); err != nil {
		return nil, errors.Join(err, sv.close())
	}
	return sv.run(in, recs, time.Since(t0))
}

// installMap hands one shard server the epoch-1 map, as dytis-ctl would.
func installMap(addr string, m *cluster.Map, blob []byte) error {
	c, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		return err
	}
	defer c.Close()
	for _, s := range m.Shards {
		if s.Addr == addr {
			return c.SetShardMap(context.Background(), s.Lo, s.Hi, blob)
		}
	}
	return fmt.Errorf("no shard of the map is served at %s", addr)
}

// preload loads keys through a client's batch insert, the public load path
// of a served index.
func preload(insertBatch func(ctx context.Context, keys, vals []uint64) error, keys []uint64) error {
	vals := make([]uint64, preloadBatch)
	for i := 0; i < len(keys); i += preloadBatch {
		chunk := keys[i:min(i+preloadBatch, len(keys))]
		for j, k := range chunk {
			vals[j] = valueOf(k)
		}
		if err := insertBatch(context.Background(), chunk, vals[:len(chunk)]); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// run times the closed-loop phase, then books the ledger, reads back the
// final contents and checks every answer; it always tears the round down.
// A wrong answer returns the round with the error; any other failure
// returns no round.
func (sv *served) run(in *inputs, recs []*record, setup time.Duration) (r *round, err error) {
	defer func() {
		if cerr := sv.close(); cerr != nil {
			r, err = nil, errors.Join(err, fmt.Errorf("teardown: %w", cerr))
		}
	}()
	for _, rec := range recs {
		rec.reset()
	}
	before := sv.snapshot()
	runtime.GC()
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for g := range in.streams {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			drive(ctx, sv.loaders[g], &in.streams[g], recs[g])
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	after := sv.snapshot()

	r = &round{setup: setup, wall: wall, recs: recs}
	for _, sh := range sv.shards {
		r.liveKeys += sh.index().Len()
		r.memBytes += sh.index().MemoryFootprint()
	}
	if sv.tr != nil {
		if r.ledger, err = sv.ledger(in, recs, before, after); err != nil {
			return nil, err
		}
	}

	var final, finalVals []uint64
	s := sv.full(ctx)
	for s.Next() {
		final, finalVals = append(final, s.Key()), append(finalVals, s.Value())
	}
	if err := errors.Join(s.Err(), s.Close()); err != nil {
		return nil, fmt.Errorf("reading back the final contents: %w", err)
	}
	return r, verifyMixed(in, recs, final, finalVals)
}

// drive replays one stream as a closed loop: each op waits for its reply.
// A failed op is classified and counted, never retried.
func drive(ctx context.Context, l loader, s *stream, rec *record) {
	for i, o := range s.ops {
		t := time.Now()
		var err error
		switch o.kind {
		case opGet:
			rec.val[i], rec.found[i], err = l.kv.Get(ctx, o.key)
		case opInsert:
			err = l.kv.Insert(ctx, o.key, valueOf(o.key))
		case opDelete:
			rec.found[i], err = l.kv.Delete(ctx, o.key)
		case opScan:
			keys, vals := rec.scanSlot()
			n := 0
			sc := l.scan(ctx, o.key, scanLen)
			for n < scanLen && sc.Next() {
				keys[n], vals[n] = sc.Key(), sc.Value()
				n++
			}
			err = errors.Join(sc.Err(), sc.Close())
			rec.endScan(n)
		}
		d := time.Since(t)
		if err != nil {
			rec.fail[i] = classify(err)
			continue
		}
		rec.lat[o.kind] = append(rec.lat[o.kind], int64(d))
	}
}

// classify maps a client error to its failure class.
func classify(err error) uint8 {
	switch {
	case errors.Is(err, client.ErrOverload):
		return failOverload
	case errors.Is(err, client.ErrRouting), errors.Is(err, client.ErrWrongShard):
		return failRouting
	case errors.Is(err, client.ErrScanInterrupted):
		return failScanInterrupted
	default:
		return failOther
	}
}
