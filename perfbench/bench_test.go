package main

import (
	"errors"
	"math"
	"slices"
	"testing"

	"tierbase/internal/compress"
	wl "tierbase/internal/workload"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 200..1, unsorted
	}
	if v, n := percentile(samples, 0.5); v != 100 || n != 200 {
		t.Fatalf("p50 = %v (n=%d), want 100 (n=200)", v, n)
	}
	if v, n := percentile(samples, 0.99); v != 198 || n != 200 {
		t.Fatalf("p99 = %v (n=%d), want 198 (n=200)", v, n)
	}
	if v, n := percentile(nil, 0.99); !math.IsNaN(v) || n != 0 {
		t.Fatalf("empty p99 = %v (n=%d), want NaN (n=0)", v, n)
	}
	// A failed request is +Inf and lands in the tail.
	withFail := []float64{1, 2, math.Inf(1)}
	if v, _ := percentile(withFail, 0.99); !math.IsInf(v, 1) {
		t.Fatalf("p99 with a failure = %v, want +Inf", v)
	}
}

func TestFromRoundsTakesMedianAndCalmTail(t *testing.T) {
	// Twenty rounds at the reference speed. Fifteen hold a stall that
	// sets their p99; the p99 is the tail of the calm ones. p50, rate and
	// lateness are the median round's, whatever the stalls.
	var rounds []roundOut
	for i := 0; i < 20; i++ {
		rd := roundOut{getP50: float64(300 + i), setP50: float64(400 + i), rate: float64(1000 * (i + 1)), lateP99: float64(i), probeUS: refProbeUS}
		rd.getP99, rd.setP99 = float64(600+10*i), float64(700+10*i)
		if i >= 5 {
			rd.getP99, rd.setP99 = 20_000, 30_000
		}
		rounds = append(rounds, rd)
	}
	var e e2e
	e.fromRounds(rounds)
	if e.getP99 != 610 || e.setP99 != 710 {
		t.Errorf("p99 GET %v SET %v, want 610 and 710", e.getP99, e.setP99)
	}
	if e.stalledFrac != 0.75 {
		t.Errorf("stalled rounds %v, want 0.75", e.stalledFrac)
	}
	if e.getP50 != 309 || e.setP50 != 409 || e.maxRate != 10_000 || e.lateP99 != 9 || e.rounds != 20 {
		t.Errorf("median round: GET p50 %v SET p50 %v rate %v late %v rounds %d", e.getP50, e.setP50, e.maxRate, e.lateP99, e.rounds)
	}
	// A change that lengthens every request's tail moves the p99 in full.
	for i := range rounds {
		rounds[i].getP99 *= 2
	}
	e.fromRounds(rounds)
	if e.getP99 != 1220 {
		t.Errorf("every tail twice as long: GET p99 %v, want 1220", e.getP99)
	}
}

func TestFromRoundsScalesToTheReferenceSpeed(t *testing.T) {
	// On a host where the probe takes twice the reference time, measured
	// latencies and set-up time halve and the measured rate doubles.
	rounds := []roundOut{{getP50: 400, getP99: 800, setP50: 500, setP99: 1000, rate: 10_000, probeUS: 2 * refProbeUS}}
	e := e2e{setupS: 3}
	e.fromRounds(rounds)
	if e.getP50 != 200 || e.getP99 != 400 || e.setP50 != 250 || e.setP99 != 500 || e.maxRate != 20_000 || e.setupS != 1.5 || e.probeUS != 2*refProbeUS {
		t.Errorf("scaled: GET %v/%v SET %v/%v rate %v setup %v probe %v", e.getP50, e.getP99, e.setP50, e.setP99, e.maxRate, e.setupS, e.probeUS)
	}
	if v := newProber().time(); v <= 0 {
		t.Errorf("probe took %v us", v)
	}
}

func TestKeptRoundsLeavesOutRoundsTheHostStoleFrom(t *testing.T) {
	steals := func(rs []roundOut) []float64 {
		var out []float64
		for _, r := range rs {
			out = append(out, r.steal)
		}
		return out
	}
	mk := func(s ...float64) []roundOut {
		rs := make([]roundOut, len(s))
		for i, v := range s {
			rs[i].steal = v
		}
		return rs
	}
	for _, c := range []struct{ in, want []float64 }{
		// Under the limit: kept, in the order they ran.
		{[]float64{0.01, 0.30, 0.00, 0.02, 0.25, 0.00}, []float64{0.01, 0.00, 0.02, 0.00}},
		// Fewer than a third under it: the third least stolen from.
		{[]float64{0.30, 0.05, 0.40, 0.00, 0.10, 0.20}, []float64{0.05, 0.00}},
		// A single round: kept.
		{[]float64{0.50}, []float64{0.50}},
	} {
		if got := steals(keptRounds(mk(c.in...))); !slices.Equal(got, c.want) {
			t.Errorf("keptRounds(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRunIsCorrectOnlyWithEveryReplyChecked(t *testing.T) {
	ok := e2e{attempted: 10, lateP99: lateLimitUS}
	if !ok.correct() || !ok.held() {
		t.Fatal("a clean run is not correct")
	}
	if bad := (e2e{attempted: 10, failed: 1}); bad.correct() {
		t.Error("a run with a failed request counted as correct")
	}
	// Falling behind is the measurement's failure, not the program's: the
	// run stays correct and says it did not hold its schedule.
	for name, e := range map[string]e2e{
		"late generator":  {attempted: 10, lateP99: lateLimitUS + 1},
		"growing backlog": {attempted: 10, aborted: true},
	} {
		if !e.correct() || e.held() {
			t.Errorf("%s: correct %v held %v, want true and false", name, e.correct(), e.held())
		}
	}
}

func TestCheckerRejectsAnotherKeysValue(t *testing.T) {
	for _, kind := range []string{"kv1", "kv2"} {
		vs, err := newValueSource(kind, 7)
		if err != nil {
			t.Fatal(err)
		}
		v := vs.value(42, 3)
		if err := vs.check(42, v, 0, 3); err != nil {
			t.Errorf("%s: own value rejected: %v", kind, err)
		}
		if err := vs.check(43, v, 0, 3); !errors.Is(err, errOtherKey) {
			t.Errorf("%s: another key's value: got %v, want errOtherKey", kind, err)
		}
		if err := vs.check(42, v, 0, 2); !errors.Is(err, errFuture) {
			t.Errorf("%s: unwritten generation: got %v, want errFuture", kind, err)
		}
		if err := vs.check(42, v, 4, 5); !errors.Is(err, errStale) {
			t.Errorf("%s: stale generation: got %v, want errStale", kind, err)
		}
		bad := append([]byte(nil), v...)
		bad[len(bad)-2] ^= 0x20
		if err := vs.check(42, bad, 0, 3); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: corrupted value: got %v, want errCorrupt", kind, err)
		}
	}
}

func TestValuesKeepTheirDatasetShape(t *testing.T) {
	vs, err := newValueSource("kv1", 1)
	if err != nil {
		t.Fatal(err)
	}
	pbc := compress.NewPBC()
	if err := pbc.Train(wl.Sample(wl.NewKV1(), 500)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		if out := pbc.Compress(vs.value(k, uint32(k))); compress.IsEscape(out) {
			t.Fatalf("kv1 value for key %d no longer matches the kv1 patterns", k)
		}
	}
}
