// Command perfbench is the repository's end-to-end benchmark: it stands
// the real parameter server up in-process over loopback TCP, trains one
// named workload through the public dssp.Serve / dssp.ServeRelay /
// dssp.RunWorker path for a fixed wall time, checks that training was
// correct, and prints one JSON result line.
//
//	go run . --workload bsp-flat --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced rounds. --trace 1
// reports the per-layer metrics from rounds driven by the benchmark's own
// worker loop, which times every layer call (see trace.go), together with
// the servers' own registries, and writes every span to
// .bench_build/spans-<workload>-<seed>.csv.gz under the working directory.
// perfbench/run.py builds and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name (hetero-dssp, bsp-flat, bsp-tree)")
		seed    = flag.Int64("seed", 1, "input seed: datasets and model initialisation derive from it")
		seconds = flag.Float64("seconds", 10, "wall time to measure for")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	// A round that never finishes (a deadlocked barrier) must not hang
	// the caller: give up well after the budget, without a result.
	time.AfterFunc(budget+90*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: timed out")
		os.Exit(1)
	})
	var res result
	switch *trace {
	case 0:
		res, err = endToEnd(w, *seed, budget)
	case 1:
		spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.csv.gz", w.name, *seed))
		res, err = perLayer(w, *seed, budget, spans)
	default:
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line JSON output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// put records one metric. A reading with no samples behind it (NaN, only
// possible when a round failed and the result is already incorrect) is
// reported as 0 so the result line stays valid JSON.
func (r *result) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// rounds trains rounds back to back, each on a fresh topology and a fresh
// seed drawn from seed, until budget has elapsed and at least four rounds
// have run. Round 0 is a warm-up: it is checked like every round but
// left out of the metrics, so lazy start-up (the tensor kernel pool,
// first-use allocations) is not timed. A full GC before each round keeps
// one round's garbage out of the next. planFor supplies round i's plan.
// Each round is logged to stderr.
func rounds(w workload, seed int64, budget time.Duration, planFor func(i int) roundPlan, tag string) ([]roundResult, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []roundResult
	start := time.Now()
	for len(out) < 4 || time.Since(start) < budget {
		runtime.GC()
		before, err := readCPUTimes()
		if err != nil {
			return nil, err
		}
		r := runRound(w, rng.Int63(), planFor(len(out)))
		after, err := readCPUTimes()
		if err != nil {
			return nil, err
		}
		r.steal = stealShare(before, after)
		r.warmup = len(out) == 0
		fmt.Fprintf(os.Stderr, "%s round %d: eval %v steal %.3f unstolen %.3f cores %.2f setup %.2fms %.0f it/s fast %.0f it/s tta %.3fs acc %.3f err %v\n",
			tag, len(out), r.evaluated, r.steal, r.unstolen(), ratio(r.cpu, r.window.Seconds()), r.setup.Seconds()*1e3, r.itersPerS, r.fastItersPerS, r.tta, r.finalAcc, r.err)
		out = append(out, r)
	}
	return out, nil
}

// verdict folds the rounds' correctness into the result fields.
func verdict(rs []roundResult) (res result, t tally) {
	res.Correct = true
	for _, r := range rs {
		t.round(r.planned, r.released, r.applied, r.err == nil)
		if r.err != nil {
			res.Correct = false
		}
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Metrics = map[string]metric{}
	return res, t
}

// measured splits the correct measured rounds by whether the server's
// model was evaluated on the schedule while they trained.
func measured(rs []roundResult) (evaluated, unevaluated []roundResult) {
	for _, r := range rs {
		switch {
		case r.err != nil || r.warmup:
		case r.evaluated:
			evaluated = append(evaluated, r)
		default:
			unevaluated = append(unevaluated, r)
		}
	}
	return evaluated, unevaluated
}

// medianOf is the median of f over rs; 0 when rs is empty (a run without
// correct rounds is marked incorrect anyway).
func medianOf(rs []roundResult, f func(roundResult) float64) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, f(r))
	}
	if len(xs) == 0 {
		return 0
	}
	return newQuantiles(xs).median()
}

// endToEnd measures the user-visible metrics over untraced RunWorker
// rounds. Rounds alternate between evaluated ones, which time
// time_to_acc_s, and unevaluated ones, which time the iteration rates.
// Timings are read from the least-stolen of the rounds they come from
// (leastStolen), and the rates and time_to_acc_s are scaled by each
// round's unstolen share to what CPUs nobody else shared would have read;
// final_acc, which steal cannot move, from every round.
func endToEnd(w workload, seed int64, budget time.Duration) (result, error) {
	rs, err := rounds(w, seed, budget, func(i int) roundPlan { return roundPlan{train: runWorker, evaluate: i%2 == 0} }, "e2e")
	if err != nil {
		return result{}, err
	}
	res, _ := verdict(rs)
	timed, rates := measured(rs)
	all := append(timed, rates...)
	timed, rates = leastStolen(timed), leastStolen(rates)
	put := res.put
	put("iters_per_s", "1/s", medianOf(rates, func(r roundResult) float64 { return r.itersPerS / r.unstolen() }))
	put("fast_iters_per_s", "1/s", medianOf(rates, func(r roundResult) float64 { return r.fastItersPerS / r.unstolen() }))
	put("time_to_acc_s", "s", medianOf(timed, func(r roundResult) float64 { return r.tta * r.unstolen() }))
	put("final_acc", "ratio", medianOf(all, func(r roundResult) float64 { return r.finalAcc }))
	put("setup_s", "s", medianOf(leastStolen(all), func(r roundResult) float64 { return r.setup.Seconds() }))
	rss, err := peakRSSMB()
	put("peak_rss_mb", "MB", rss)
	return res, err
}

// perLayer measures the per-layer metrics. Rounds cycle through three
// plans: an evaluated RunWorker round, which prices the evaluation
// schedule; an unevaluated RunWorker round; and an unevaluated round of the
// benchmark's traced worker loop. The last two see the same machine and
// the same load, so their iteration rates give the tracing overhead; the
// per-layer readings come from the traced rounds. As in endToEnd, each
// kind is read from its least-stolen rounds.
func perLayer(w workload, seed int64, budget time.Duration, spansPath string) (result, error) {
	all, err := rounds(w, seed, budget, func(i int) roundPlan {
		switch i % 3 {
		case 0:
			return roundPlan{train: runWorker, evaluate: true}
		case 1:
			return roundPlan{train: runWorker}
		}
		recs := make([]*recorder, workers)
		for id := range recs {
			recs[id] = &recorder{epoch: time.Now(), round: uint16(i)}
		}
		return roundPlan{train: tracedTrainer(recs), recs: recs}
	}, "trace")
	if err != nil {
		return result{}, err
	}
	res, t := verdict(all)

	evaluated, unevaluated := measured(all)
	var steal, unstolen []float64 // every measured round's, kept or not
	var plain, traced []roundResult
	for _, r := range evaluated {
		steal = append(steal, r.steal)
		unstolen = append(unstolen, r.unstolen())
	}
	for _, r := range unevaluated {
		steal = append(steal, r.steal)
		unstolen = append(unstolen, r.unstolen())
		if r.recs == nil {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
	}
	evaluated, plain, traced = leastStolen(evaluated), leastStolen(plain), leastStolen(traced)

	var evalMs []float64
	var evalTime, evalWindow time.Duration
	for _, r := range evaluated {
		for _, e := range r.evals {
			evalMs = append(evalMs, e.cost.Seconds()*1e3)
			evalTime += e.cost
		}
		evalWindow += r.window
	}
	var recs []*recorder
	root, relay := window{}, window{}
	for _, r := range traced {
		recs = append(recs, r.recs...)
		for k, v := range r.root {
			root[k] += v
		}
		for k, v := range r.relay {
			relay[k] += v
		}
	}
	lt := collect(recs, 0)
	both := collect(recs, -1)
	subnormal, scanned := 0, 0
	for _, r := range recs {
		subnormal += r.subnormal
		scanned += r.scanned
	}

	put := res.put
	us := func(k spanKind) quantiles { return newQuantiles(lt.us[k]) }
	put("nn.forward_us_p50", "us", us(spanForward).median())
	put("nn.forward_us_p99", "us", us(spanForward).tail(0.99))
	put("nn.backward_us_p50", "us", us(spanBackward).median())
	put("nn.backward_us_p99", "us", us(spanBackward).tail(0.99))
	put("nn.set_params_us_p50", "us", us(spanSetParams).median())
	put("nn.clone_grads_us_p50", "us", us(spanCloneGrads).median())
	put("nn.compute_share", "ratio", lt.share(spanSetParams, spanZeroGrads, spanForward, spanBackward, spanCloneGrads))
	put("nn.subnormal_grad_share", "ratio", ratio(float64(subnormal), float64(scanned)))
	put("data.next_us_p50", "us", us(spanNext).median())
	put("ps.client.pull_us_p50", "us", us(spanPull).median())
	put("ps.client.pull_us_p99", "us", us(spanPull).tail(0.99))
	put("ps.client.pull_share", "ratio", lt.share(spanPull))
	put("ps.client.push_wait_us_p50", "us", us(spanPushWait).median())
	put("ps.client.push_wait_us_p99", "us", us(spanPushWait).tail(0.99))
	put("ps.client.push_wait_share", "ratio", lt.share(spanPushWait))
	put("worker.iter_us_p50", "us", us(spanIter).median())
	put("worker.iter_us_p99", "us", us(spanIter).tail(0.99))
	put("worker.iters_traced", "count", float64(len(lt.us[spanIter])))
	put("worker.delay_share", "ratio", both.share(spanDelay))
	put("worker.budget_coverage", "ratio", lt.coverage())

	phase := func(p string) float64 { return root.histMean("dssp_push_phase_seconds", `{phase="`+p+`"}`) * 1e6 }
	put("ps.server.pull_us_mean", "us", root.histMean("dssp_pull_seconds", "")*1e6)
	put("ps.server.decode_us_mean", "us", phase("decode"))
	put("ps.server.guard_us_mean", "us", phase("guard"))
	put("ps.server.policy_us_mean", "us", phase("policy"))
	put("ps.server.release_lag_us_mean", "us", root.histMean("dssp_release_lag_seconds", "")*1e6)
	put("ps.store.apply_us_mean", "us", root.histMean("dssp_store_apply_seconds", "")*1e6)
	put("ps.store.clone_us_mean", "us", root.histMean("dssp_store_clone_seconds", "")*1e6)
	put("ps.store.apply_batch_mean", "count", root.histMean("dssp_store_apply_batch_size", ""))
	reuse := root["dssp_store_clone_reuse_total"]
	put("ps.store.clone_reuse_share", "ratio", ratio(reuse, reuse+root["dssp_store_clone_alloc_total"]))
	put("core.staleness_mean", "count", root.histMean("dssp_push_staleness", ""))

	iters := root["dssp_push_total"]
	put("transport.bytes_per_iter", "bytes", ratio(root.sumPrefix("dssp_transport_bytes_total{"), iters))
	put("transport.frames_per_iter", "count", ratio(root.sumPrefix("dssp_transport_frames_total{"), iters))
	put("transport.root_push_frames_per_iter", "count",
		ratio(root[`dssp_transport_frames_total{dir="recv",type="Push"}`], iters))

	forwarded := relay["dssp_relay_forwarded_pushes_total"]
	put("ps.relay.batching_factor", "count", ratio(relay["dssp_relay_child_pushes_total"], forwarded))
	put("ps.relay.watchdog_flush_share", "ratio", ratio(relay[`dssp_relay_flushes_total{reason="watchdog"}`], forwarded))

	plainRate := medianOf(plain, func(r roundResult) float64 { return r.itersPerS / r.unstolen() })
	tracedRate := medianOf(traced, func(r roundResult) float64 { return r.itersPerS / r.unstolen() })
	put("bench.trace_overhead", "ratio", ratio(plainRate, tracedRate)-1)
	put("bench.eval_ms_mean", "ms", mean(evalMs))
	put("bench.eval_core_share", "ratio", ratio(evalTime.Seconds(), evalWindow.Seconds()))
	put("bench.steal_share", "ratio", mean(steal))
	put("bench.unstolen_share", "ratio", newQuantiles(unstolen).median())
	put("process.cpu_us_per_iter", "us", medianOf(plain, func(r roundResult) float64 { return ratio(r.cpu*1e6, float64(r.windowIters)) }))
	put("failed_share", "ratio", t.share())

	var spans []*recorder
	for _, r := range all {
		spans = append(spans, r.recs...)
	}
	if err := writeSpans(spansPath, spans); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// mean is the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
