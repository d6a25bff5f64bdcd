package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantiles holds one sorted sample of durations (any unit) and answers the
// benchmark's two percentile questions about it.
type quantiles []float64

// newQuantiles copies and sorts xs.
func newQuantiles(xs []float64) quantiles {
	q := append(quantiles(nil), xs...)
	sort.Float64s(q)
	return q
}

// rank is the nearest-rank index of quantile p in a sample of n.
func rank(p float64, n int) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// median is the nearest-rank 50th percentile; NaN for an empty sample.
func (q quantiles) median() float64 {
	if len(q) == 0 {
		return math.NaN()
	}
	return q[rank(0.5, len(q))]
}

// tail is the p-th percentile under the rule "the highest percentile with
// at least ten samples beyond it": when the sample is too small for p to
// have ten samples above its rank, the rank drops to the highest one that
// does (n-11), never below the median.
func (q quantiles) tail(p float64) float64 {
	n := len(q)
	if n == 0 {
		return math.NaN()
	}
	med := rank(0.5, n)
	return q[max(min(rank(p, n), n-11), med)]
}

// snapshot is one flattened registry reading (obs.Registry.Snapshot):
// counters and gauges by name{labels}, histograms as _sum and _count.
type snapshot map[string]float64

// window accumulates registry deltas over the benchmark's timed windows,
// one window per training round, so counters and histogram sums from
// several short-lived servers add up to one reading.
type window map[string]float64

// add folds after-before into w. A key missing from before counts from 0.
func (w window) add(before, after snapshot) {
	for k, v := range after {
		w[k] += v - before[k]
	}
}

// sumPrefix adds every series whose key starts with prefix — all label
// children of one family, e.g. "dssp_transport_bytes_total{".
func (w window) sumPrefix(prefix string) float64 {
	total := 0.0
	for k, v := range w {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// histMean is a histogram's mean over the window: Δsum / Δcount for the
// family name with the given rendered labels ("" or `{phase="decode"}`).
// It is 0 when nothing was observed.
func (w window) histMean(name, labels string) float64 {
	return ratio(w[name+"_sum"+labels], w[name+"_count"+labels])
}

// ratio is num/den, 0 when den is 0 (a layer that did no work reads 0,
// never NaN, so the JSON result stays valid).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally counts training iterations for the result's attempted/failed
// fields. A round that fails any correctness check counts every iteration
// it attempted as failed; a clean round fails only the iterations that
// were not applied and released.
type tally struct {
	attempted int
	failed    int
}

// round adds one training round: planned iterations, the iterations the
// workers saw released (WorkerReport.Iterations summed) and the server
// applied (Server.Updates), and the round's correctness verdict.
func (t *tally) round(planned, released, applied int, ok bool) {
	t.attempted += planned
	if !ok {
		t.failed += planned
		return
	}
	done := min(released, applied, planned)
	t.failed += planned - done
}

// share is failed/attempted.
func (t tally) share() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// cpuTimes is one reading of the kernel's aggregate CPU time counters, in
// clock ticks: all of them, and steal, the time the hypervisor ran other
// guests while this machine's virtual CPUs wanted to run.
type cpuTimes struct{ total, steal float64 }

// parseCPUTimes reads the aggregate "cpu" line of /proc/stat. The first
// eight counters (user through steal) partition CPU time; the guest
// counters after them are already counted in user time.
func parseCPUTimes(stat string) (cpuTimes, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("no steal counter in %q", line)
	}
	var c cpuTimes
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("cpu counter %q: %w", s, err)
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c, nil
}

// readCPUTimes reads the machine's CPU time counters now.
func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseCPUTimes(string(b))
}

// stealShare is the share of the CPU time between two readings that the
// hypervisor stole.
func stealShare(before, after cpuTimes) float64 {
	return ratio(after.steal-before.steal, after.total-before.total)
}

// leastStolen keeps the rounds that lost no more CPU time to steal than
// the median round did: at least half of rs, and every round when the host
// is quiet (steal is counted in clock ticks, so quiet rounds all read 0).
// On a shared host steal comes in bursts of seconds, and a latency-bound
// round that loses a quarter of the CPU to it runs about 40% slower;
// measuring the least-stolen rounds reads the program rather than its
// neighbours.
func leastStolen(rs []roundResult) []roundResult {
	steal := make([]float64, len(rs))
	for i, r := range rs {
		steal[i] = r.steal
	}
	cut := newQuantiles(steal).median()
	var kept []roundResult
	for _, r := range rs {
		if r.steal <= cut {
			kept = append(kept, r)
		}
	}
	return kept
}

// processCPU is the CPU time, user and system, this process has used, in
// seconds. On a guest kernel with paravirtual steal accounting
// (CONFIG_PARAVIRT_TIME_ACCOUNTING) it leaves out the time the hypervisor
// stole while the process's threads were on a CPU.
func processCPU() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// unstolenShare is cpu / (cpu + stolen): of the CPU time a window's
// threads wanted, the share they ran rather than waited out while the
// hypervisor ran other guests. A hypervisor only steals from a virtual CPU
// that has work, and the benchmark process is the machine's only work, so
// stolen is time taken from the process. When the process's progress is
// paced by its CPU work, steal stretches the whole window by the inverse of
// this share: a window that ran at 0.6 of its CPU time takes 1/0.6 as long
// as on an unshared host. It is 1 when nothing was stolen.
func unstolenShare(cpu, stolen float64) float64 { return ratio(cpu, cpu+stolen) }
