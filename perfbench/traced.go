package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tierbase/internal/cache"
	"tierbase/internal/client"
	"tierbase/internal/cluster"
	"tierbase/internal/compress"
	"tierbase/internal/elastic"
	"tierbase/internal/engine"
	"tierbase/internal/lsm"
	"tierbase/internal/server"
	"tierbase/internal/wal"
	wl "tierbase/internal/workload"
)

// The traced run builds, in this process, the server.Config that
// cmd/tierbase-server builds from the flags the untraced run passes, and
// wraps four of its seams: the connection (Config.WrapConn), the storage
// tier (a cache.Storage decorator installed through Config.TieredFactory),
// the WAL (lsm.Options.WALFactory) and the value compressor
// (EngineOptions.Compressor). Each wrapper counts calls and bytes and
// records spans; the rest of the per-layer metrics come from the layers'
// public Stats() and INFO.

// Span layers.
const (
	layerConn    = iota // server: request bytes read -> reply written
	layerStorage        // cache -> storage tier call
	layerWAL            // WAL append (child of the storage call on its shard)
	layerEncode         // value compression
	layerDecode         // value decompression
	numLayers
)

var layerNames = [numLayers]string{"server.conn", "cache.storage", "wal.append", "compress.encode", "compress.decode"}

// maxSpans bounds the spans kept in memory; counts and busy time cover
// every call.
const maxSpans = 200_000

type span struct {
	id, parent int64
	layer      uint8
	shard      uint8
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory and per-layer totals.
type tracer struct {
	t0     time.Time
	keep   atomic.Bool // record spans (set for the measured phases only)
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	count  [numLayers]atomic.Int64
	busyNs [numLayers]atomic.Int64
	bytes  [numLayers]atomic.Int64 // conn: reply bytes; wal: appended bytes; encode: raw bytes in
	outB   atomic.Int64            // encode: compressed bytes out
	escape atomic.Int64            // encode: records the compressor stored verbatim

	replyWrites atomic.Int64 // writes to client connections
	linkBytes   atomic.Int64 // bytes the master wrote to replica links
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record adds one finished call to the layer totals and, while there is
// room, to the span log.
func (t *tracer) record(s span) {
	t.count[s.layer].Add(1)
	t.busyNs[s.layer].Add(s.end - s.start)
	if !t.keep.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// layerTimes returns, per layer, busy and self time in µs over the kept
// spans: self time is busy time less the time child spans cover.
func (t *tracer) layerTimes() (busy, self [numLayers]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := map[int64]int64{}
	for _, s := range t.spans {
		if s.parent != 0 {
			childNs[s.parent] += s.end - s.start
		}
	}
	for _, s := range t.spans {
		d := float64(s.end-s.start) / 1e3
		busy[s.layer] += d
		self[s.layer] += d - float64(childNs[s.id])/1e3
	}
	return busy, self
}

// writeSpans saves the kept spans, one per line: id parent layer shard
// start_ns end_ns.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d %d %s %d %d %d\n", s.id, s.parent, layerNames[s.layer], s.shard, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedConn times each request from its first bytes read to the reply
// write. A connection whose first command is SYNC is a replica's link: its
// bytes are counted as link bytes instead.
type tracedConn struct {
	net.Conn
	t     *tracer
	mu    sync.Mutex
	first bool
	link  bool
	busy  bool
	start int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		if c.first {
			c.first = false
			c.link = bytes.Contains(p[:n], []byte("SYNC"))
		}
		if !c.busy {
			c.busy, c.start = true, c.t.now()
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.link {
		c.t.linkBytes.Add(int64(n))
		return n, err
	}
	c.t.replyWrites.Add(1)
	c.t.bytes[layerConn].Add(int64(n))
	if c.busy {
		c.busy = false
		c.t.record(span{id: c.t.nextID.Add(1), layer: layerConn, start: c.start, end: c.t.now()})
	}
	return n, err
}

// tracedStorage decorates one shard's storage tier. active holds the span
// id of the call in progress, which the shard's WAL appends name as their
// parent.
type tracedStorage struct {
	inner  *cache.LSMStorage
	t      *tracer
	shard  uint8
	active atomic.Int64
}

func (s *tracedStorage) span(f func() error) error {
	id := s.t.nextID.Add(1)
	s.active.Store(id)
	start := s.t.now()
	err := f()
	s.active.CompareAndSwap(id, 0)
	s.t.record(span{id: id, layer: layerStorage, shard: s.shard, start: start, end: s.t.now()})
	return err
}

func (s *tracedStorage) Get(key string) (val []byte, ok bool, err error) {
	err = s.span(func() error { val, ok, err = s.inner.Get(key); return err })
	return val, ok, err
}

func (s *tracedStorage) Put(key string, val []byte) error {
	return s.span(func() error { return s.inner.Put(key, val) })
}

func (s *tracedStorage) Delete(key string) error {
	return s.span(func() error { return s.inner.Delete(key) })
}

func (s *tracedStorage) BatchGet(keys []string) (out map[string][]byte, err error) {
	err = s.span(func() error { out, err = s.inner.BatchGet(keys); return err })
	return out, err
}

func (s *tracedStorage) BatchPut(entries map[string][]byte) error {
	return s.span(func() error { return s.inner.BatchPut(entries) })
}

func (s *tracedStorage) BatchDelete(keys []string) error {
	return s.span(func() error { return s.inner.BatchDelete(keys) })
}

// FlushAll keeps the decorated storage a cache.StorageFlusher, as the
// LSM storage it wraps is.
func (s *tracedStorage) FlushAll() error {
	return s.span(s.inner.FlushAll)
}

// tracedWAL wraps the file WAL lsm.Open would build, keeping its Rotator
// methods so segments are still reclaimed.
type tracedWAL struct {
	*wal.Log
	t       *tracer
	shard   uint8
	storage *tracedStorage
}

func (w *tracedWAL) Append(p []byte) error {
	start := w.t.now()
	err := w.Log.Append(p)
	w.t.bytes[layerWAL].Add(int64(len(p)))
	w.t.record(span{id: w.t.nextID.Add(1), parent: w.storage.active.Load(), layer: layerWAL, shard: w.shard, start: start, end: w.t.now()})
	return err
}

// tracedCompressor times the engine's value compressor.
type tracedCompressor struct {
	compress.Compressor
	t *tracer
}

func (c *tracedCompressor) Compress(src []byte) []byte {
	start := c.t.now()
	out := c.Compressor.Compress(src)
	c.t.record(span{id: c.t.nextID.Add(1), layer: layerEncode, start: start, end: c.t.now()})
	c.t.bytes[layerEncode].Add(int64(len(src)))
	c.t.outB.Add(int64(len(out)))
	if compress.IsEscape(out) {
		c.t.escape.Add(1)
	}
	return out
}

func (c *tracedCompressor) Decompress(src []byte) ([]byte, error) {
	start := c.t.now()
	out, err := c.Compressor.Decompress(src)
	c.t.record(span{id: c.t.nextID.Add(1), layer: layerDecode, start: start, end: c.t.now()})
	return out, err
}

// tracedDeployment is the workload's deployment inside this process.
type tracedDeployment struct {
	topology
	t        *tracer
	master   *server.Server
	replica  *server.Server
	replAddr string
	coordSrv *cluster.CoordServer
	tiered   []*cache.Tiered
	dbs      []*lsm.DB
}

// serverConfig mirrors cmd/tierbase-server: the Config its flags build for
// spec, with the traced seams installed when t is set.
func (d *tracedDeployment) serverConfig(spec serverSpec, dir string, t *tracer) (server.Config, error) {
	engOpts := engine.Options{}
	if spec.compression != "" {
		c, err := compress.ByName(spec.compression, 0)
		if err != nil {
			return server.Config{}, err
		}
		if err := c.Train(wl.Sample(wl.DatasetByName(spec.trainOn), 500)); err != nil {
			return server.Config{}, err
		}
		engOpts.Compressor = c
		if t != nil {
			engOpts.Compressor = &tracedCompressor{Compressor: c, t: t}
		}
		engOpts.CompressMin = 16
	}
	cfg := server.Config{
		Addr:          "127.0.0.1:0",
		Shards:        spec.shards,
		EngineOptions: engOpts,
		Pool:          elastic.PoolOptions{MaxWorkers: 4},
	}
	if t != nil {
		cfg.WrapConn = func(nc net.Conn) net.Conn { return &tracedConn{Conn: nc, t: t, first: true} }
	}
	if !spec.tiered() {
		return cfg, nil
	}
	policy := cache.WriteThrough
	if spec.policy == "write-back" {
		policy = cache.WriteBack
	}
	cfg.TieredFactory = func(eng *engine.Engine) (*cache.Tiered, error) {
		shard := len(d.dbs)
		st := &tracedStorage{t: t, shard: uint8(shard)}
		db, err := lsm.Open(lsm.Options{
			Dir:           filepath.Join(dir, fmt.Sprintf("shard%03d", shard)),
			WALSyncPolicy: wal.SyncInterval,
			WALFactory: func(walDir string) (wal.Appender, error) {
				l, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncInterval})
				if err != nil {
					return nil, err
				}
				return &tracedWAL{Log: l, t: t, shard: uint8(shard), storage: st}, nil
			},
		})
		if err != nil {
			return nil, err
		}
		d.dbs = append(d.dbs, db)
		st.inner = cache.NewLSMStorage(db)
		tr, err := cache.New(cache.Options{
			Policy:             policy,
			Engine:             eng,
			Storage:            st,
			CacheCapacityBytes: spec.cacheBytes,
		})
		if err == nil {
			d.tiered = append(d.tiered, tr)
		}
		return tr, err
	}
	cfg.StorageStats = func() []lsm.Stats {
		out := make([]lsm.Stats, len(d.dbs))
		for i, db := range d.dbs {
			out[i] = db.Stats()
		}
		return out
	}
	return cfg, nil
}

func deployTraced(w *workload, t *tracer, dir string) (*tracedDeployment, error) {
	d := &tracedDeployment{t: t}
	cfg, err := d.serverConfig(w.server, dir, t)
	if err != nil {
		return nil, err
	}
	if w.server.tiered() {
		d.dir = dir
	}
	if w.replicated {
		coord := cluster.NewCoordinator()
		coord.HeartbeatTimeout = 2 * time.Second
		if d.coordSrv, err = cluster.StartCoordServer("127.0.0.1:0", coord, 500*time.Millisecond); err != nil {
			return nil, err
		}
		d.coord = d.coordSrv.Addr()
		cfg.Replication = server.ReplicationConfig{NodeID: "m1", CoordinatorAddr: d.coord, SemiSyncAcks: 1}
	}
	if d.master, err = server.Start(cfg); err != nil {
		d.close()
		return nil, err
	}
	d.addr = d.master.Addr()
	if !w.replicated {
		return d, nil
	}
	rcfg, err := (&tracedDeployment{}).serverConfig(w.server, "", nil)
	if err != nil {
		d.close()
		return nil, err
	}
	rcfg.Replication = server.ReplicationConfig{NodeID: "r1", MasterAddr: d.addr, CoordinatorAddr: d.coord}
	if d.replica, err = server.Start(rcfg); err != nil {
		d.close()
		return nil, err
	}
	d.replAddr = d.replica.Addr()
	if err := waitUntil(nil, 20*time.Second, "replica link up", func() bool {
		return infoField(d.replAddr, "replication", "master_link") == "up"
	}); err != nil {
		d.close()
		return nil, err
	}
	return d, waitUntil(nil, 20*time.Second, "master routed", func() bool {
		c, err := client.Dial(d.coord)
		if err != nil {
			return false
		}
		defer c.Close()
		v, _ := c.Do("CLUSTER", "TABLE")
		s, _ := v.(string)
		return strings.Contains(s, d.addr)
	})
}

// close drains the servers and closes the storage tier after them, as
// cmd/tierbase-server does on SIGTERM.
func (d *tracedDeployment) close() {
	if d.replica != nil {
		d.replica.Shutdown()
	}
	if d.master != nil {
		d.master.Shutdown()
	}
	for _, db := range d.dbs {
		db.Close()
	}
	if d.coordSrv != nil {
		d.coordSrv.Close()
	}
}

// counters is a snapshot of every layer counter the per-layer metrics
// difference across the measured phases.
type counters struct {
	ops, sets int64
	setBytes  int64
	gets      int64
	client    client.MuxStats
	tasks     int64
	boosts    int64
	cache     cache.Stats
	lsmHits   int64
	lsmMisses int64
	lsmWrite  int64
	compact   int64
	layer     [numLayers]int64
	busyNs    [numLayers]int64
	bytes     [numLayers]int64
	outB      int64
	escape    int64
	writes    int64
	link      int64
}

func (d *tracedDeployment) snapshot(r *runner) counters {
	c := counters{ops: r.attempted.Load(), sets: r.sets.Load(), setBytes: r.setBytes.Load(), gets: r.gets.Load()}
	for _, k := range r.conns {
		if mc, ok := k.(*client.Client); ok {
			s := mc.Stats()
			c.client.Requests += s.Requests
			c.client.WireCommands += s.WireCommands
			c.client.Flushes += s.Flushes
		}
	}
	for _, p := range d.master.Pools() {
		s := p.Stats()
		c.tasks += s.Executed
		c.boosts += s.Boosts
	}
	for _, tr := range d.tiered {
		s := tr.Stats()
		c.cache.Hits += s.Hits
		c.cache.Misses += s.Misses
		c.cache.Evictions += s.Evictions
		c.cache.Shared += s.Shared
		c.cache.Flushed += s.Flushed
		c.cache.Batches += s.Batches
		c.cache.BackpressureWaits += s.BackpressureWaits
	}
	for _, db := range d.dbs {
		s := db.Stats()
		c.lsmHits += s.CacheHits
		c.lsmMisses += s.CacheMisses
		c.lsmWrite += s.WriteBytes
		c.compact += s.Compactions
	}
	t := d.t
	for l := 0; l < numLayers; l++ {
		c.layer[l] = t.count[l].Load()
		c.busyNs[l] = t.busyNs[l].Load()
		c.bytes[l] = t.bytes[l].Load()
	}
	c.outB, c.escape = t.outB.Load(), t.escape.Load()
	c.writes, c.link = t.replyWrites.Load(), t.linkBytes.Load()
	return c
}

// sampler polls the gauges the per-layer metrics take a maximum of: the
// LSM's sealed-memtable backlog, the SST bytes written (each table file's
// size, once it is seen), and the replica's lag behind the master.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	immMax   int
	lagMax   int64
	sstBytes map[string]int64
}

func (d *tracedDeployment) startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), sstBytes: map[string]int64{}}
	known := map[string]bool{}
	if d.dir != "" {
		for _, f := range sstFiles(d.dir) {
			known[f.name] = true
		}
	}
	var master, replica *client.Client
	if d.replica != nil {
		master, _ = client.Dial(d.addr)
		replica, _ = client.Dial(d.replAddr)
	}
	go func() {
		defer close(s.done)
		defer func() {
			if master != nil {
				master.Close()
			}
			if replica != nil {
				replica.Close()
			}
		}()
		tk := time.NewTicker(50 * time.Millisecond)
		defer tk.Stop()
		for {
			for _, db := range d.dbs {
				s.immMax = max(s.immMax, db.Stats().Immutables)
			}
			if d.dir != "" {
				for _, f := range sstFiles(d.dir) {
					if !known[f.name] {
						s.sstBytes[f.name] = max(s.sstBytes[f.name], f.size)
					}
				}
			}
			if master != nil && replica != nil {
				seq, err1 := strconv.ParseInt(infoValue(master, "replication", "repl_seq"), 10, 64)
				applied, err2 := strconv.ParseInt(infoValue(replica, "replication", "last_applied_seq"), 10, 64)
				if err1 == nil && err2 == nil {
					s.lagMax = max(s.lagMax, seq-applied)
				}
			}
			select {
			case <-s.stop:
				return
			case <-tk.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

type sstFile struct {
	name string
	size int64
}

func sstFiles(dir string) []sstFile {
	var out []sstFile
	paths, _ := filepath.Glob(filepath.Join(dir, "*", "*.sst"))
	for _, p := range paths {
		if info, err := os.Stat(p); err == nil {
			out = append(out, sstFile{p, info.Size()})
		}
	}
	return out
}

// traced measures the workload twice on half the budget each: as child
// processes (the reference), then in-process with the seams wrapped. It
// reports the per-layer metrics of the traced half and, for each
// end-to-end metric, traced minus untraced.
func (b *bench) traced(budget time.Duration) result {
	w := b.w
	ref := b.untraced(1, budget/2)
	// The untraced half ran the generator with collection held off (see
	// main); the traced servers share this process, so give it the
	// default collector the tierbase-server binary runs with.
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)

	vs, err := newValueSource(w.values, b.seed)
	if err != nil {
		die(err)
	}
	t := newTracer()
	t0 := time.Now()
	d, err := deployTraced(w, t, filepath.Join(b.runDir, "traced"))
	if err != nil {
		die(err)
	}
	atExit(d.close)
	conns, err := d.dial()
	if err != nil {
		die(err)
	}
	r := newRunner(w, vs, keyStrings(w.keys), conns, b.seed)
	if err := r.prefill(); err != nil {
		die(err)
	}
	if w.server.tiered() {
		settle(d.addr, 10*time.Second)
	}
	r.warm(w.keys / 8)
	e := &e2e{setupS: time.Since(t0).Seconds(), userBytes: r.userBytes()}

	smp := d.startSampler()
	before := d.snapshot(r)
	t.keep.Store(true)
	// The traced servers share this process with the generator, so its
	// RSS stands in for theirs.
	b.measure(r, e, budget/2, func() (int64, error) { return peakRSS(os.Getpid()) })
	t.keep.Store(false)
	after := d.snapshot(r)
	smp.finish()
	var mem, disk int64
	for _, eng := range d.master.Shards() {
		mem += eng.MemUsed()
	}
	for _, db := range d.dbs {
		disk += db.Stats().DiskBytes
	}
	var resident, capacity int64
	for _, tr := range d.tiered {
		ts := tr.TieringStats()
		capacity += ts.CapacityBytes
		for _, st := range ts.Stripes {
			resident += st.ResidentBytes
		}
	}
	stall, _ := strconv.ParseFloat(infoField(d.addr, "replication", "max_write_stall_ns"), 64)
	cmdP99 := float64(d.master.Latency.P99()) / 1e3
	closeAll(conns)
	d.close()
	e.attempted, e.failed = r.attempted.Load(), r.failed.Load()
	e.report("traced")

	spanPath := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.spans", w.name, b.seed))
	if err := t.writeSpans(spanPath); err != nil {
		die(err)
	}
	busy, self := t.layerTimes()
	fmt.Printf("%-18s %10s %14s %14s   (spans in %s)\n", "layer", "count", "busy_us", "self_us", spanPath)
	for l := 0; l < numLayers; l++ {
		fmt.Printf("%-18s %10d %14.0f %14.0f\n", layerNames[l], after.layer[l]-before.layer[l], busy[l], self[l])
	}

	dc := func(f func(c counters) int64) float64 { return float64(f(after) - f(before)) }
	ops := dc(func(c counters) int64 { return c.ops })
	sets := dc(func(c counters) int64 { return c.sets })
	layerN := func(l int) float64 { return dc(func(c counters) int64 { return c.layer[l] }) }
	layerUS := func(l int) float64 { return dc(func(c counters) int64 { return c.busyNs[l] }) / 1e3 }
	hits, misses := dc(func(c counters) int64 { return c.cache.Hits }), dc(func(c counters) int64 { return c.cache.Misses })
	hitRatio := ratio(hits, hits+misses)
	if len(d.tiered) == 0 {
		// Cache-only: every GET is served from DRAM or is a failed check.
		gets := dc(func(c counters) int64 { return c.gets })
		hitRatio = ratio(gets-float64(r.misses.Load()), gets)
	}
	lsmHits, lsmMisses := dc(func(c counters) int64 { return c.lsmHits }), dc(func(c counters) int64 { return c.lsmMisses })
	var sst int64
	for _, n := range smp.sstBytes {
		sst += n
	}
	walBytes := dc(func(c counters) int64 { return c.bytes[layerWAL] })
	lsmWrite := dc(func(c counters) int64 { return c.lsmWrite })
	req := dc(func(c counters) int64 { return c.client.Requests })

	m := map[string]metric{
		"client.wire_cmds_per_op":          {ratio(dc(func(c counters) int64 { return c.client.WireCommands }), req), "ratio"},
		"client.ops_per_flush":             {ratio(req, dc(func(c counters) int64 { return c.client.Flushes })), "ratio"},
		"server.busy_us_per_op":            {ratio(layerUS(layerConn), ops), "us"},
		"server.reply_writes_per_op":       {ratio(dc(func(c counters) int64 { return c.writes }), ops), "ratio"},
		"server.cmd_p99_us":                {cmdP99, "us"},
		"elastic.tasks_per_op":             {ratio(dc(func(c counters) int64 { return c.tasks }), ops), "ratio"},
		"elastic.boosts":                   {dc(func(c counters) int64 { return c.boosts }), "count"},
		"engine.mem_bytes_per_user_byte":   {ratio(float64(mem), float64(e.userBytes)), "ratio"},
		"compress.ratio":                   {ratio(dc(func(c counters) int64 { return c.bytes[layerEncode] }), dc(func(c counters) int64 { return c.outB })), "ratio"},
		"compress.escape_frac":             {ratio(dc(func(c counters) int64 { return c.escape }), layerN(layerEncode)), "ratio"},
		"compress.encode_us":               {ratio(layerUS(layerEncode), layerN(layerEncode)), "us"},
		"compress.decode_us":               {ratio(layerUS(layerDecode), layerN(layerDecode)), "us"},
		"cache.hit_ratio":                  {hitRatio, "ratio"},
		"cache.evictions_per_op":           {ratio(dc(func(c counters) int64 { return c.cache.Evictions }), ops), "ratio"},
		"cache.miss_shared_frac":           {ratio(dc(func(c counters) int64 { return c.cache.Shared }), misses), "ratio"},
		"cache.budget_fill":                {ratio(float64(resident), float64(capacity)), "ratio"},
		"cache.storage_calls_per_op":       {ratio(layerN(layerStorage), ops), "ratio"},
		"cache.storage_us_per_op":          {ratio(layerUS(layerStorage), ops), "us"},
		"cache.flush_keys_per_batch":       {ratio(dc(func(c counters) int64 { return c.cache.Flushed }), dc(func(c counters) int64 { return c.cache.Batches })), "ratio"},
		"cache.backpressure_waits":         {dc(func(c counters) int64 { return c.cache.BackpressureWaits }), "count"},
		"lsm.block_cache_hit_ratio":        {ratio(lsmHits, lsmHits+lsmMisses), "ratio"},
		"lsm.write_amp":                    {ratio(walBytes+float64(sst), lsmWrite), "ratio"},
		"lsm.space_amp":                    {ratio(float64(disk), float64(e.userBytes)), "ratio"},
		"lsm.compactions":                  {dc(func(c counters) int64 { return c.compact }), "count"},
		"lsm.immutables_max":               {float64(smp.immMax), "count"},
		"wal.appends_per_write":            {ratio(layerN(layerWAL), sets), "ratio"},
		"wal.append_us":                    {ratio(layerUS(layerWAL), layerN(layerWAL)), "us"},
		"wal.bytes_per_user_byte":          {ratio(walBytes, dc(func(c counters) int64 { return c.setBytes })), "ratio"},
		"replication.lag_ops":              {float64(smp.lagMax), "count"},
		"replication.max_write_stall_us":   {stall / 1e3, "us"},
		"replication.link_bytes_per_write": {ratio(dc(func(c counters) int64 { return c.link }), sets), "ratio"},
		"bench.gen_late_p99_us":            {ref.lateP99, "us"},
		"bench.host_steal_frac":            {ref.stealFrac, "ratio"},
		"bench.stalled_rounds_frac":        {ref.stalledFrac, "ratio"},
		"bench.host_probe_us":              {ref.probeUS, "us"},
		"bench.rounds_kept":                {float64(ref.rounds), "count"},
		"disk_bytes_per_user_byte":         {ref.diskRatio, "ratio"},
	}
	refM, trM := ref.metrics(), e.metrics()
	for name, v := range refM {
		m["trace."+name+"_delta"] = metric{trM[name].Value - v.Value, v.Unit}
	}
	return result{
		Correct:   ref.correct() && e.failed == 0,
		Attempted: ref.attempted + e.attempted,
		Failed:    ref.failed + e.failed,
		Metrics:   m,
	}
}
