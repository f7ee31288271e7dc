package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of samples
// and the sample count. It sorts samples in place. A failed request is
// recorded as +Inf, so it counts as missing every latency limit.
func percentile(samples []float64, q float64) (v float64, n int) {
	n = len(samples)
	if n == 0 {
		return math.NaN(), 0
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1], n
}

// calmQuantile is the quantile of the rounds' p99s reported as a p99.
// The generator and the servers share two vCPUs of a shared VM, so a
// round's p99 is set by whether a stall of some milliseconds fell in it:
// the host taking the CPUs, or a server's collector or compaction taking
// both from the generator. Most rounds of a run hold one, and how many
// swings from run to run, so a median round's p99 spread 0.4-2.2 of its
// median over seeds. The tenth percentile of the rounds is the tail of a
// round without such a stall, which spread about 0.1. A change that
// lengthens every request's tail moves it; a change that makes stalls
// longer or more frequent shows only once nine rounds in ten hold one.
const calmQuantile = 0.10
