package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tierbase/internal/client"
	wl "tierbase/internal/workload"
)

// kv is the part of the repo's client the generator drives; *client.Client
// and *client.Routed both provide it.
type kv interface {
	Get(key string) (string, error)
	Set(key, val string) error
	MGet(keys ...string) (map[string]string, error)
	MSet(pairs map[string]string) error
	Close() error
}

// tick is the generator's pacing period. Requests are due on tick
// boundaries: the arrivals of independent users that fall in one tick are
// due together at its end, and the pacer wakes once per tick to send them.
// Sleeping once per request would cost a timer wake each, and a wake can
// overshoot by more than the service time being measured.
const tick = time.Millisecond

// op is one scheduled request.
type op struct {
	key    int32
	gen    uint32 // SET: generation written; GET: unused
	minGen uint32 // GET: lowest generation a reply may carry
	set    bool
	conn   uint8
}

// runner drives one deployment: it owns the key space, the per-key write
// history the reply checker needs, and the client connections.
type runner struct {
	w     *workload
	vs    *valueSource
	keys  []string
	conns []kv
	zipf  *wl.ScrambledZipfian
	rng   *rand.Rand

	issued []atomic.Uint32 // highest generation sent per key (0 = prefill)
	floor  []atomic.Uint32 // lowest generation the key may hold once its SETs are acked
	inSet  []atomic.Int32  // SETs in flight per key
	rr     int

	attempted atomic.Int64
	failed    atomic.Int64
	gets      atomic.Int64 // timed GETs
	misses    atomic.Int64 // timed GETs that found no value
	sets      atomic.Int64 // timed SETs
	setBytes  atomic.Int64 // key and value bytes of timed SETs
	failMu    sync.Mutex
	failures  map[string]int
}

func newRunner(w *workload, vs *valueSource, keys []string, conns []kv, seed int64) *runner {
	return &runner{
		w:        w,
		vs:       vs,
		keys:     keys,
		conns:    conns,
		zipf:     wl.NewScrambledZipfian(int64(len(keys)), w.theta),
		rng:      rand.New(rand.NewSource(seed)),
		issued:   make([]atomic.Uint32, len(keys)),
		floor:    make([]atomic.Uint32, len(keys)),
		inSet:    make([]atomic.Int32, len(keys)),
		failures: make(map[string]int),
	}
}

func keyStrings(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key:%07d", i)
	}
	return out
}

// fail records one failed request.
func (r *runner) fail(err error) {
	r.failed.Add(1)
	r.failMu.Lock()
	if r.failures[err.Error()] == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: request failed: %v\n", err)
	}
	r.failures[err.Error()]++
	r.failMu.Unlock()
}

// checkGet classifies a GET reply for key.
func (r *runner) checkGet(key int, v string, err error, minGen uint32) error {
	if errors.Is(err, client.Nil) {
		return errMiss
	}
	if err != nil {
		return err
	}
	return r.vs.check(key, []byte(v), minGen, r.issued[key].Load())
}

// userBytes is the logical size of the prefilled data set.
func (r *runner) userBytes() int64 {
	var n int64
	for k, s := range r.keys {
		n += int64(len(s) + len(r.vs.value(k, 0)))
	}
	return n
}

// prefill writes generation 0 of every key in MSET batches.
func (r *runner) prefill() error {
	const batch = 256
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * batch; lo < len(r.keys); lo += 4 * batch {
				pairs := make(map[string]string, batch)
				for k := lo; k < lo+batch && k < len(r.keys); k++ {
					pairs[r.keys[k]] = string(r.vs.value(k, 0))
				}
				if err := r.conns[w%len(r.conns)].MSet(pairs); err != nil {
					errs <- fmt.Errorf("prefill: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// readBack MGETs keys, one batch stream per connection, and checks each
// reply against the write history: with no SET in flight a key must hold
// a generation in [floor, issued].
func (r *runner) readBack(keys []int) {
	const batch = 200
	var wg sync.WaitGroup
	for c := range r.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for lo := c * batch; lo < len(keys); lo += len(r.conns) * batch {
				r.readBatch(r.conns[c], keys[lo:min(lo+batch, len(keys))])
			}
		}(c)
	}
	wg.Wait()
}

func (r *runner) readBatch(c kv, keys []int) {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = r.keys[k]
	}
	got, err := c.MGet(names...)
	for _, k := range keys {
		r.attempted.Add(1)
		if err != nil {
			r.fail(err)
			continue
		}
		v, ok := got[r.keys[k]]
		cerr := errMiss
		if ok {
			cerr = r.vs.check(k, []byte(v), r.floor[k].Load(), r.issued[k].Load())
		}
		if cerr != nil {
			r.fail(fmt.Errorf("read back %s: %w", r.keys[k], cerr))
		}
	}
}

// warm reads n keys drawn from the workload's key distribution, so the
// cache holds the hot set before timing starts.
func (r *runner) warm(n int) {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = int(r.zipf.Next(r.rng))
	}
	r.readBack(keys)
}

// draw picks one request: a key from the workload's distribution and GET
// or SET by its mix.
func (r *runner) draw() op {
	return op{key: int32(r.zipf.Next(r.rng)), set: r.rng.Float64() >= r.w.getFrac}
}

// schedule draws one phase's requests: Poisson arrivals at rate per
// second, grouped by the tick they fall in. ends[k] is the number of
// requests due by the end of tick k.
func (r *runner) schedule(rate float64, ticks int) (ops []op, ends []int) {
	perTick := rate * tick.Seconds()
	ops = make([]op, 0, int(perTick*float64(ticks)*1.1)+16)
	ends = make([]int, ticks)
	t := r.rng.ExpFloat64() / perTick
	for k := 0; k < ticks; k++ {
		for t < float64(k+1) {
			o := r.draw()
			o.conn = uint8(r.rr % len(r.conns))
			r.rr++
			ops = append(ops, o)
			t += r.rng.ExpFloat64() / perTick
		}
		ends[k] = len(ops)
	}
	return ops, ends
}

// issue readies o to be sent: a SET takes the key's next generation, and
// a GET sent while no SET of its key is in flight takes the lowest
// generation its reply may carry. Calls must not overlap.
func (r *runner) issue(o *op) {
	if o.set {
		o.gen = r.issued[o.key].Add(1)
		if r.inSet[o.key].Add(1) == 1 {
			r.floor[o.key].Store(o.gen)
		}
	} else if r.inSet[o.key].Load() == 0 {
		o.minGen = r.floor[o.key].Load()
	}
}

// abortTicks is how long the backlog must stay past a phase's bound before
// the phase stops sending.
const abortTicks = 20

// phaseOut is what one open-loop phase measured.
type phaseOut struct {
	get, set  []float64 // latency from due time, µs, by type; +Inf for a failed request
	late      []float64 // per request: when the last request of its tick was sent, minus the due time, µs
	attempted int
	failed    int
	aborted   bool
}

// phase runs the open loop at rate for d. It stops sending, and marks the
// phase aborted, once more than abortAt requests have been unanswered for
// abortTicks ticks in a row: a server that fell behind, not one stall.
func (r *runner) phase(rate float64, d time.Duration, abortAt int) phaseOut {
	ticks := int(d / tick)
	ops, ends := r.schedule(rate, ticks)
	lat := make([]float64, len(ops))
	failedBefore := r.failed.Load()
	var (
		wg   sync.WaitGroup
		done atomic.Int64
		out  phaseOut
	)
	sent, over := 0, 0
	start := time.Now().Add(tick)
	lockPacer()
	defer runtime.UnlockOSThread()
	for k := 0; k < ticks; k++ {
		due := start.Add(time.Duration(k) * tick)
		sleepUntil(due)
		k0 := sent
		for ; sent < ends[k]; sent++ {
			o := &ops[sent]
			r.issue(o)
			wg.Add(1)
			go func(o *op, due time.Time, out *float64) {
				defer wg.Done()
				defer done.Add(1)
				*out = math.Inf(1)
				if r.do(o) {
					*out = float64(time.Since(due)) / 1e3
				}
			}(o, due, &lat[sent])
		}
		// Run the new requests before the pacer's P parks in nanosleep:
		// the newest goroutine sits in that P's runnext slot, which other
		// Ps cannot steal at once.
		runtime.Gosched()
		late := float64(time.Since(due)) / 1e3
		for i := k0; i < sent; i++ {
			out.late = append(out.late, late)
		}
		if sent-int(done.Load()) > abortAt {
			over++
		} else {
			over = 0
		}
		if over >= abortTicks {
			out.aborted = true
			break
		}
	}
	waitOrDie(&wg, 30*time.Second)
	for i, o := range ops[:sent] {
		if o.set {
			out.set = append(out.set, lat[i])
		} else {
			out.get = append(out.get, lat[i])
		}
	}
	out.attempted = sent
	out.failed = int(r.failed.Load() - failedBefore)
	return out
}

// do sends o, checks the reply and records a failure; it reports whether
// the request succeeded.
func (r *runner) do(o *op) bool {
	c := r.conns[o.conn]
	key := int(o.key)
	var err error
	if o.set {
		val := r.vs.value(key, o.gen)
		r.sets.Add(1)
		r.setBytes.Add(int64(len(r.keys[key]) + len(val)))
		err = c.Set(r.keys[key], string(val))
		if err == nil {
			r.inSet[key].Add(-1)
		}
	} else {
		v, gerr := c.Get(r.keys[key])
		r.gets.Add(1)
		err = r.checkGet(key, v, gerr, o.minGen)
		if err == errMiss {
			r.misses.Add(1)
		}
	}
	r.attempted.Add(1)
	if err != nil {
		r.fail(fmt.Errorf("%s %s: %w", opName(o.set), r.keys[key], err))
		return false
	}
	return true
}

// satDepth is how many requests each connection has outstanding while
// the generator saturates the deployment.
const satDepth = 16

// satWarmup is how long a saturation phase runs before it starts
// counting answers, while its workers start.
const satWarmup = 20 * time.Millisecond

// saturate drives the deployment closed loop for d: satDepth workers per
// connection, each sending its next request, drawn as the workload's
// requests are, as soon as its last one is answered. The servers always
// have work queued and the generator never a backlog that grows. It
// returns the requests answered per second after satWarmup.
func (r *runner) saturate(d time.Duration) float64 {
	var (
		wg       sync.WaitGroup
		drawMu   sync.Mutex
		answered atomic.Int64
		stop     atomic.Bool
	)
	for w := 0; w < satDepth*len(r.conns); w++ {
		wg.Add(1)
		go func(conn uint8) {
			defer wg.Done()
			for !stop.Load() {
				drawMu.Lock()
				o := r.draw()
				o.conn = conn
				r.issue(&o)
				drawMu.Unlock()
				r.do(&o)
				answered.Add(1)
			}
		}(uint8(w % len(r.conns)))
	}
	lockPacer()
	start := time.Now().Add(satWarmup)
	sleepUntil(start)
	base := answered.Load()
	sleepUntil(start.Add(d - satWarmup))
	n := answered.Load() - base
	runtime.UnlockOSThread()
	stop.Store(true)
	waitOrDie(&wg, 30*time.Second)
	return float64(n) / (d - satWarmup).Seconds()
}

// waitOrDie waits for wg; a server that stops answering would otherwise
// hang the run, so past the bound the process reports and exits.
func waitOrDie(wg *sync.WaitGroup, bound time.Duration) {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(bound):
		die(fmt.Errorf("requests still unanswered after %v", bound))
	}
}

// lockPacer readies the calling goroutine to pace a phase: it locks it to
// its thread and sets the thread's timer slack to 1 µs, so sleepUntil's
// nanosleep wakes on time (the runtime's own timers round sub-millisecond
// sleeps up to the next millisecond). The caller unlocks the thread when
// the phase ends.
func lockPacer() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort: the default slack only adds lateness
}

func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

func opName(set bool) string {
	if set {
		return "SET"
	}
	return "GET"
}
