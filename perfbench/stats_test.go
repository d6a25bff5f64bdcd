package main

import (
	"math"
	"testing"
	"time"

	"dssp/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestMedianIsNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {101, 51}} {
		if got := newQuantiles(seq(tc.n)).median(); got != tc.want {
			t.Errorf("median of 1..%d = %v, want %v", tc.n, got, tc.want)
		}
	}
	if !math.IsNaN(newQuantiles(nil).median()) {
		t.Error("median of an empty sample should be NaN")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		// Enough samples: the nearest-rank p99 keeps its rank.
		{2000, 1980},
		{1000, 990}, // exactly ten samples beyond
		// Too few for p99: fall back to the rank with ten samples beyond.
		{500, 490},
		{100, 90},
		{11, 6}, // rank 0 has ten beyond, but the tail never drops below the median
		// Smaller than eleven: the median is the highest defensible rank.
		{5, 3},
	} {
		q := newQuantiles(seq(tc.n))
		got := q.tail(0.99)
		if got != tc.want {
			t.Errorf("n=%d: tail(0.99) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 11 {
			beyond := 0
			for _, v := range q {
				if v > got {
					beyond++
				}
			}
			if beyond < 10 && got > q.median() {
				t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
			}
		}
	}
}

func TestWindowDeltasFromRegistrySnapshots(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.HistogramVec("lat_seconds", "test", obs.LatencyBuckets, "phase").With("decode")
	c := reg.Counter("pushes_total", "test")
	frames := reg.CounterVec("frames_total", "test", "dir")

	// Traffic before the window must not count.
	h.Observe(10)
	c.Add(7)
	frames.With("sent").Add(100)
	before := snapshot(reg.Snapshot())

	h.Observe(1)
	h.Observe(3)
	c.Add(4)
	frames.With("sent").Add(5)
	frames.With("recv").Add(6)
	after := snapshot(reg.Snapshot())

	w := window{}
	w.add(before, after)
	if got := w.histMean("lat_seconds", `{phase="decode"}`); got != 2 {
		t.Errorf("windowed histogram mean = %v, want 2", got)
	}
	if got := w["pushes_total"]; got != 4 {
		t.Errorf("counter delta = %v, want 4", got)
	}
	if got := w.sumPrefix("frames_total{"); got != 11 {
		t.Errorf("family delta over labels = %v, want 11", got)
	}

	// A second window (another round, another server) accumulates.
	w.add(snapshot{}, snapshot{"lat_seconds_sum{phase=\"decode\"}": 8, "lat_seconds_count{phase=\"decode\"}": 1})
	if got := w.histMean("lat_seconds", `{phase="decode"}`); got != 4 {
		t.Errorf("mean over two windows = %v, want (1+3+8)/3 = 4", got)
	}
	if got := w.histMean("never_observed", ""); got != 0 {
		t.Errorf("mean of an empty histogram = %v, want 0", got)
	}
}

func TestBudgetCoverage(t *testing.T) {
	rec := &recorder{}
	// Two iterations of worker 0; the children leave 10ns of the first
	// iteration and none of the second uncovered.
	rec.spans = []span{
		{start: 0, end: 40, kind: spanPull},
		{start: 40, end: 90, kind: spanForward},
		{start: 0, end: 100, kind: spanIter},
		{start: 100, end: 200, iter: 1, kind: spanPushWait},
		{start: 100, end: 200, iter: 1, kind: spanIter},
		// Worker 1's spans must not leak into worker 0's budget.
		{start: 0, end: 1000, worker: 1, kind: spanPull},
	}
	lt := collect([]*recorder{rec}, 0)
	if got := lt.coverage(); got != 0.95 {
		t.Errorf("coverage = %v, want 190/200", got)
	}
	if got := lt.share(spanPull, spanPushWait); got != 0.7 {
		t.Errorf("pull+push-wait share = %v, want 140/200", got)
	}
	if got := (&layerTimes{}).coverage(); got != 0 {
		t.Errorf("coverage of nothing = %v, want 0", got)
	}
}

func TestTallyFailedShare(t *testing.T) {
	var tl tally
	tl.round(100, 100, 100, true) // clean
	tl.round(100, 97, 98, true)   // three iterations never released
	tl.round(100, 100, 100, false)
	if tl.attempted != 300 {
		t.Errorf("attempted = %d, want 300", tl.attempted)
	}
	// A failed check counts the whole round; otherwise only the
	// iterations both applied and released count as done.
	if tl.failed != 103 {
		t.Errorf("failed = %d, want 3 + 100", tl.failed)
	}
	if got := tl.share(); math.Abs(got-103.0/300) > 1e-12 {
		t.Errorf("share = %v, want 103/300", got)
	}
	if (tally{}).share() != 0 {
		t.Error("an empty tally should report a zero share")
	}
}

func TestSubnormalScan(t *testing.T) {
	var r recorder
	r.scanSubnormal([][]float32{{0, 1, 0x1p-127, -0x1p-130}, {0x1p-126, 1e-45}})
	if r.subnormal != 3 || r.scanned != 6 {
		t.Errorf("counted %d subnormal of %d, want 3 of 6", r.subnormal, r.scanned)
	}
}

func TestParseCPUTimes(t *testing.T) {
	c, err := parseCPUTimes("cpu  100 5 20 800 10 0 5 60 30 0\ncpu0 50 2 10 400 5 0 2 30 15 0\n")
	if err != nil {
		t.Fatal(err)
	}
	// guest (30) is already inside user time, so it is not added again.
	if c.total != 1000 || c.steal != 60 {
		t.Errorf("total %v steal %v, want 1000 and 60", c.total, c.steal)
	}
	later := cpuTimes{total: 1200, steal: 110}
	if got := stealShare(c, later); got != 0.25 {
		t.Errorf("steal share = %v, want 50/200", got)
	}
	if _, err := parseCPUTimes("cpu  100 5 20 800 10 0 5\n"); err == nil {
		t.Error("a cpu line without a steal counter should be refused")
	}
}

func TestLeastStolenKeepsRoundsUpToTheMedian(t *testing.T) {
	rounds := func(steal ...float64) []roundResult {
		var rs []roundResult
		for _, s := range steal {
			rs = append(rs, roundResult{steal: s})
		}
		return rs
	}
	for _, tc := range []struct {
		steal, want []float64
	}{
		{[]float64{0.3, 0.01, 0.2, 0, 0.05}, []float64{0.01, 0, 0.05}},
		{[]float64{0.3, 0.01, 0.2, 0}, []float64{0.01, 0}},
		// A quiet host: every round reads zero steal and every round counts.
		{[]float64{0, 0, 0, 0.1}, []float64{0, 0, 0}},
		{nil, nil},
	} {
		kept := leastStolen(rounds(tc.steal...))
		if len(kept) != len(tc.want) {
			t.Errorf("%v: kept %d rounds, want %v", tc.steal, len(kept), tc.want)
			continue
		}
		for i, want := range tc.want {
			if kept[i].steal != want {
				t.Errorf("%v: kept[%d].steal = %v, want %v", tc.steal, i, kept[i].steal, want)
			}
		}
	}
}

func TestUnstolenShare(t *testing.T) {
	for _, tc := range []struct{ cpu, stolen, want float64 }{
		{1.2, 0, 1},
		// 0.6 s of CPU run, 0.4 s stolen: the window ran at 60% speed.
		{0.6, 0.4, 0.6},
	} {
		if got := unstolenShare(tc.cpu, tc.stolen); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("unstolenShare(%v, %v) = %v, want %v", tc.cpu, tc.stolen, got, tc.want)
		}
	}
	if cpu := processCPU(); !(cpu > 0) {
		t.Errorf("processCPU() = %v, want the test's own CPU time", cpu)
	}
}

func TestCrossingInterpolatesBetweenEvaluations(t *testing.T) {
	t0 := time.Unix(100, 0)
	ev := func(ms int, acc float64) evaluation {
		return evaluation{at: t0.Add(time.Duration(ms) * time.Millisecond), acc: acc}
	}
	evals := []evaluation{ev(0, 0.1), ev(40, 0.6), ev(80, 0.8), ev(120, 0.75)}
	for _, tc := range []struct {
		target float64
		wantMs int
		ok     bool
	}{
		{0.7, 60, true},  // halfway from 0.6 to 0.8
		{0.8, 80, true},  // reached exactly at an evaluation
		{0.05, 0, true},  // the first evaluation already meets it
		{0.85, 0, false}, // never reached
	} {
		at, ok := crossing(evals, tc.target)
		off := at.Sub(t0.Add(time.Duration(tc.wantMs) * time.Millisecond))
		if ok != tc.ok || (ok && off.Abs() > time.Microsecond) {
			t.Errorf("target %v: crossing at %v (ok %v), want %d ms (ok %v)", tc.target, at.Sub(t0), ok, tc.wantMs, tc.ok)
		}
	}
}
