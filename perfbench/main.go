// Command perfbench is TierBase's end-to-end benchmark. It starts
// tierbase-server processes built from the tree, drives one workload at
// them from an open-loop generator through the repo's client, checks every
// reply, and prints the end-to-end metrics. With -trace 1 it also runs the
// same configuration in-process with its seams wrapped and prints the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
)

// lateLimitUS bounds the generator's own lateness (the median round's
// p99); past it the generator, not the server, shaped the latencies, and
// the run warns that its figures do not stand for the program.
const lateLimitUS = 10_000

// buildDir, relative to the checkout root the benchmark runs from, holds
// what run.sh builds and everything a run writes.
const buildDir = ".bench_build"

// setupRounds is how many times a run sets the deployment up; setup_s is
// their median.
const setupRounds = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// cleanups stop the child processes and servers and remove the run
// directory, newest first.
var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

func atExit(f func()) {
	cleanupMu.Lock()
	cleanups = append(cleanups, f)
	cleanupMu.Unlock()
}

func runCleanups() {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	cleanups = nil
}

// die stops every child process and exits without a result.
func die(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	runCleanups()
	os.Exit(1)
}

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Int64("seed", 1, "input seed: keys drawn, values, arrivals")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: per-layer metrics from a traced in-process run")
	flag.Parse()
	// The generator's live heap is small and it allocates per request, so
	// the default GC target would collect several times a second, each
	// cycle taking CPU from the pacer. Collect only near a fixed bound.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(256 << 20)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGPIPE)
	go func() { die(fmt.Errorf("stopped by %v", <-sig)) }()

	w, err := workloadByName(*name)
	if err != nil {
		die(err)
	}

	runDir := filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		die(err)
	}
	atExit(func() { os.RemoveAll(runDir) })
	budget := time.Duration(*seconds) * time.Second
	b := &bench{w: w, seed: *seed, binDir: filepath.Join(buildDir, "bin"), runDir: runDir}

	var res result
	if *trace == 1 {
		res = b.traced(budget)
	} else {
		e := b.untraced(setupRounds, budget)
		res = e.result()
	}
	runCleanups()
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		names = append(names, n)
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// A percentile that fell on failed requests (+Inf) or on no
			// samples is not a measurement: the run has no result.
			die(fmt.Errorf("%s is %v (attempted %d, failed %d)", n, m.Value, res.Attempted, res.Failed))
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

type bench struct {
	w      *workload
	seed   int64
	binDir string
	runDir string
}

// e2e is one measurement of the end-to-end metrics.
type e2e struct {
	setupS         float64
	getP50, getP99 float64
	setP50, setP99 float64
	nGet, nSet     int // requests the latencies are taken from (kept rounds)
	maxRate        float64
	rounds         int     // rounds the metrics come from, see keptRounds
	stalledFrac    float64 // share of rounds whose GET p99 is over twice the unscaled getP99
	probeUS        float64 // median time of the host speed probe over the rounds
	lateP99        float64 // generator lateness, median of the rounds' p99s
	stealFrac      float64 // share of the host's CPU time stolen from the VM while measuring
	aborted        bool    // a nominal-rate phase fell behind and stopped sending
	rssRatio       float64 // data server peak RSS at the end of the measured phases over user bytes
	diskRatio      float64 // tiered only
	userBytes      int64
	attempted      int64
	failed         int64
}

// correct: every request was answered and every reply checked out.
func (e *e2e) correct() bool {
	return e.failed == 0
}

// held: the generator held its schedule and the servers kept up with the
// nominal rate. When not, the figures are reported with a warning: a
// host that takes the VM's CPUs for minutes (its steal column reached 30-
// 40% for two minutes at a time where this was tuned) delays the
// generator as much as the servers, and says nothing about the program's
// output.
func (e *e2e) held() bool {
	return e.lateP99 <= lateLimitUS && !e.aborted
}

func (e *e2e) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":                 {e.setupS, "s"},
		"get_p50_us":              {e.getP50, "us"},
		"get_p99_us":              {e.getP99, "us"},
		"set_p50_us":              {e.setP50, "us"},
		"set_p99_us":              {e.setP99, "us"},
		"max_rate_ops":            {e.maxRate, "ops/s"},
		"rss_bytes_per_user_byte": {e.rssRatio, "ratio"},
	}
}

func (e *e2e) result() result {
	return result{Correct: e.correct(), Attempted: e.attempted, Failed: e.failed, Metrics: e.metrics()}
}

// report prints the measurement with its sample counts to stderr.
func (e *e2e) report(label string) {
	if !e.held() {
		fmt.Fprintf(os.Stderr, "%s: WARNING: the generator fell behind its schedule (lateness p99 %.0fus, backlog stop %v, host steal %.3f); the figures do not stand for the program\n",
			label, e.lateP99, e.aborted, e.stealFrac)
	}
	fmt.Fprintf(os.Stderr, "%s: setup %.3fs | GET p50 %.1fus p99 %.1fus (n=%d) | SET p50 %.1fus p99 %.1fus (n=%d) | %d rounds, %.2f stalled | host steal %.3f | gen late p99 %.0fus\n",
		label, e.setupS, e.getP50, e.getP99, e.nGet, e.setP50, e.setP99, e.nSet, e.rounds, e.stalledFrac, e.stealFrac, e.lateP99)
	fmt.Fprintf(os.Stderr, "%s: max_rate %.0f ops/s | rss/user %.3f | disk/user %.3f | attempted %d failed %d\n",
		label, e.maxRate, e.rssRatio, e.diskRatio, e.attempted, e.failed)
}

// roundLen is the length of one round of measure: a phase at the nominal
// rate for the latencies (three quarters), then a saturation phase for
// max_rate_ops. Alternating the two over the whole run means a stretch
// of host contention weighs on each metric alike.
const roundLen = 500 * time.Millisecond

// Rounds in which the host stole more than stealLimit of the VM's CPU
// time are left out, as long as a third of the rounds remain; otherwise
// the third it stole least in are kept. The steal column of /proc/stat
// counts time the hypervisor gave the VM's CPUs to other guests, which no
// load inside the VM raises, so a server that burns more CPU cannot get
// its own slow rounds left out.
const stealLimit = 0.02

// roundOut is what one round of measure measured.
type roundOut struct {
	getP50, getP99 float64
	setP50, setP99 float64
	rate           float64
	lateP99        float64
	nGet, nSet     int
	probeUS        float64 // host speed probe, timed just before the round
	steal          float64 // share of the VM's CPU time the host stole
}

// measure runs the timed rounds against a prepared runner within budget
// and sets the metrics from them.
func (b *bench) measure(r *runner, e *e2e, budget time.Duration, serverRSS func() (int64, error)) {
	w := b.w
	const pause = 5 * time.Millisecond // each phase waits for its own requests; this only parts them
	nominal := roundLen*3/4 - pause
	sat := roundLen/4 - pause
	// Past 100 ms of arrivals unanswered for 20 ticks the server has
	// fallen behind the nominal rate; the phase stops sending (see held).
	abortAt := 4 * (256 + int(w.nominal*0.1))
	rounds := make([]roundOut, max(4, int(budget/roundLen)))
	pr := newProber()
	steal0 := readCPUStat()
	for i := range rounds {
		rd := &rounds[i]
		time.Sleep(pause)
		c0 := readCPUStat()
		rd.probeUS = pr.time()
		p := r.phase(w.nominal, nominal, abortAt)
		time.Sleep(pause)
		rd.rate = r.saturate(sat)
		rd.steal = readCPUStat().stealSince(c0)
		rd.getP50, _ = percentile(p.get, 0.50)
		rd.getP99, _ = percentile(p.get, 0.99)
		rd.setP50, _ = percentile(p.set, 0.50)
		rd.setP99, _ = percentile(p.set, 0.99)
		rd.lateP99, _ = percentile(p.late, 0.99)
		rd.nGet, rd.nSet = len(p.get), len(p.set)
		e.aborted = e.aborted || p.aborted
		fmt.Fprintf(os.Stderr, "round %d: GET p50 %.1fus p99 %.1fus | SET p50 %.1fus p99 %.1fus | rate %.0f ops/s | gen late p99 %.0fus | probe %.0fus | steal %.3f\n",
			i, rd.getP50, rd.getP99, rd.setP50, rd.setP99, rd.rate, rd.lateP99, rd.probeUS, rd.steal)
	}
	e.stealFrac = readCPUStat().stealSince(steal0)
	rss, err := serverRSS()
	if err != nil {
		die(err)
	}
	e.rssRatio = float64(rss) / float64(e.userBytes)
	e.fromRounds(keptRounds(rounds))
}

// keptRounds returns, in the order they ran, the rounds the host stole
// at most stealLimit of the VM's CPU time in, or the third of the rounds
// it stole least in when fewer passed.
func keptRounds(rounds []roundOut) []roundOut {
	order := make([]int, len(rounds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rounds[order[a]].steal < rounds[order[b]].steal })
	n := 0
	for n < len(order) && (3*n < len(order) || rounds[order[n]].steal <= stealLimit) {
		n++
	}
	order = order[:n]
	sort.Ints(order)
	out := make([]roundOut, n)
	for i, j := range order {
		out[i] = rounds[j]
	}
	return out
}

// fromRounds sets the metrics from the kept rounds: the median round,
// except for a p99, which is the calmQuantile round. Latencies, the rate
// and the set-up time are then scaled from the host speed the probe saw
// (the rounds' median probe time, e.probeUS) to the reference speed
// (refProbeUS).
func (e *e2e) fromRounds(rounds []roundOut) {
	e.rounds = len(rounds)
	each := func(f func(rd roundOut) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, rd := range rounds {
			out[i] = f(rd)
		}
		return out
	}
	getP50, _ := percentile(each(func(rd roundOut) float64 { return rd.getP50 }), 0.5)
	setP50, _ := percentile(each(func(rd roundOut) float64 { return rd.setP50 }), 0.5)
	getP99, _ := percentile(each(func(rd roundOut) float64 { return rd.getP99 }), calmQuantile)
	setP99, _ := percentile(each(func(rd roundOut) float64 { return rd.setP99 }), calmQuantile)
	rate, _ := percentile(each(func(rd roundOut) float64 { return rd.rate }), 0.5)
	e.probeUS, _ = percentile(each(func(rd roundOut) float64 { return rd.probeUS }), 0.5)
	e.lateP99, _ = percentile(each(func(rd roundOut) float64 { return rd.lateP99 }), 0.5)
	stalled := 0
	for _, rd := range rounds {
		if rd.getP99 > 2*getP99 {
			stalled++
		}
		e.nGet += rd.nGet
		e.nSet += rd.nSet
	}
	e.stalledFrac = ratio(float64(stalled), float64(len(rounds)))
	fmt.Fprintf(os.Stderr, "measured: setup %.3fs | GET p50 %.1fus p99 %.1fus | SET p50 %.1fus p99 %.1fus | rate %.0f ops/s | probe %.0fus\n",
		e.setupS, getP50, getP99, setP50, setP99, rate, e.probeUS)
	speed := e.probeUS / refProbeUS // over 1: the host ran slower than the reference
	e.setupS /= speed
	e.getP50, e.getP99 = getP50/speed, getP99/speed
	e.setP50, e.setP99 = setP50/speed, setP99/speed
	e.maxRate = rate * speed
}

// untraced sets the workload's processes up rounds times (setup_s is the
// median), measures for budget, and checks durability on tiered
// workloads.
func (b *bench) untraced(rounds int, budget time.Duration) *e2e {
	w := b.w
	vs, err := newValueSource(w.values, b.seed)
	if err != nil {
		die(err)
	}
	keys := keyStrings(w.keys)
	e := &e2e{}
	var (
		d      *procDeployment
		r      *runner
		setups []float64
	)
	dataDir := filepath.Join(b.runDir, "data")
	for i := 0; i < rounds; i++ {
		if d != nil {
			closeAll(r.conns)
			if err := d.stop(syscall.SIGKILL); err != nil {
				die(err)
			}
			if err := os.RemoveAll(dataDir); err != nil {
				die(err)
			}
		}
		t0 := time.Now()
		d, err = deployProcs(w, b.binDir, b.runDir, dataDir)
		if err != nil {
			die(err)
		}
		dd := d
		atExit(func() { dd.stop(syscall.SIGKILL) })
		conns, err := d.dial()
		if err != nil {
			die(err)
		}
		r = newRunner(w, vs, keys, conns, b.seed)
		t1 := time.Now()
		if err := r.prefill(); err != nil {
			die(err)
		}
		if w.server.tiered() {
			settle(d.addr, 10*time.Second)
		}
		t2 := time.Now()
		r.warm(w.keys / 8)
		fmt.Fprintf(os.Stderr, "setup %d: start %.3fs prefill %.3fs warm %.3fs\n", i, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds())
		setups = append(setups, time.Since(t0).Seconds())
	}
	sort.Float64s(setups)
	e.setupS = setups[len(setups)/2]
	e.userBytes = r.userBytes()

	b.measure(r, e, budget, func() (int64, error) { return peakRSS(d.master.cmd.Process.Pid) })
	closeAll(r.conns)

	if w.server.tiered() {
		// Durability: drain with SIGTERM, restart on the same directory,
		// and read a seeded sample back at its last acked generation.
		if err := d.stop(syscall.SIGTERM); err != nil {
			die(err)
		}
		disk, err := dirBytes(d.dir)
		if err != nil {
			die(err)
		}
		e.diskRatio = float64(disk) / float64(e.userBytes)
		d2, err := deployProcs(w, b.binDir, b.runDir, dataDir)
		if err != nil {
			die(err)
		}
		atExit(func() { d2.stop(syscall.SIGKILL) })
		conns, err := d2.dial()
		if err != nil {
			die(err)
		}
		r.conns = conns
		r.readBack(durabilitySample(r, b.seed))
		closeAll(conns)
		d = d2
	}
	if err := d.stop(syscall.SIGTERM); err != nil {
		die(err)
	}
	e.attempted, e.failed = r.attempted.Load(), r.failed.Load()
	e.report("untraced")
	return e
}

// durabilitySample picks, by seed, up to 2000 keys written during the run
// and 500 of any key.
func durabilitySample(r *runner, seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var written []int
	for k := range r.keys {
		if r.issued[k].Load() > 0 {
			written = append(written, k)
		}
	}
	rng.Shuffle(len(written), func(i, j int) { written[i], written[j] = written[j], written[i] })
	out := written[:min(2000, len(written))]
	for i := 0; i < 500; i++ {
		out = append(out, rng.Intn(len(r.keys)))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
