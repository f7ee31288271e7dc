package main

import "time"

// The host's speed drifts: a fixed run of map updates took 1.5-2.7 ms
// from one minute to the next on an otherwise idle VM with no time stolen,
// and every workload's latencies and rates moved with it, by 15-25% over
// ten runs. Each run therefore times such a fixed run of work before
// every round, with the servers idle, and scales its times and rates
// to the speed at which the probe takes refProbeUS. The probe is the
// benchmark's own code and touches none of the repo's, so a change to the
// program moves the scaled figures as it moves the measured ones.

// refProbeUS is the probe's median time on the host the benchmark was
// tuned on (two vCPUs of a shared VM).
const refProbeUS = 2300

// probeUpdates is how many map updates one probe times.
const probeUpdates = 20000

// prober holds the probe's map: 64Ki entries of 16 bytes, a working set
// that does not fit a core's private caches, like the servers' tables.
type prober struct {
	m map[uint64]uint64
	x uint64
}

func newProber() *prober {
	p := &prober{m: make(map[uint64]uint64, 1<<16), x: 1}
	for i := uint64(0); i < 1<<16; i++ {
		p.m[i] = i
	}
	return p
}

// time runs the probe once and returns how long it took, µs.
func (p *prober) time() float64 {
	t0 := time.Now()
	x := p.x
	for i := 0; i < probeUpdates; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p.m[x>>48] += x
	}
	p.x = x
	return float64(time.Since(t0)) / 1e3
}
