package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"dssp"
	"dssp/internal/data"
	"dssp/internal/ps"
	"dssp/internal/transport"
)

// workers is the benchmark's process shape: one process, two worker
// goroutines, one TCP connection per worker (nproc = 2).
const workers = 2

// evalEvery is the period of the evaluation schedule that times
// time_to_acc_s. Each evaluation regenerates the held-out set and runs
// the model over it on the benchmark's cores, taking CPU from training, so
// only rounds that time time_to_acc_s run the schedule (see roundPlan).
const evalEvery = 40 * time.Millisecond

// workload is one benchmark load: a model, a synthetic dataset, a
// paradigm and a topology, trained in closed-loop rounds of a fixed epoch
// count. Only the seed varies between runs.
type workload struct {
	name    string
	model   dssp.Model
	classes int
	size    int // image side (CNN) or feature count (MLP)
	noise   float64
	// examples is the training-set size; the held-out split is a fifth.
	examples int
	batch    int
	epochs   int
	lr       float64
	sync     dssp.Sync
	// tree routes both workers through one fanout-2 relay.
	tree bool
	// slowDelay is worker 1's emulated extra compute per iteration.
	slowDelay time.Duration
	// slowEpochs, when set, is worker 1's epoch count. Sized so the slow
	// worker stops shortly after the fast one, it keeps a round from being
	// mostly the slow worker training alone, outside the timed window.
	slowEpochs int
	// target is the time_to_acc_s accuracy.
	target float64
	// floor is the lowest final_acc a correct round may reach.
	floor float64
}

var workloads = []workload{
	{
		// The paper's heterogeneous cluster: worker 1 is several times
		// slower than worker 0 and DSSP decides how long worker 0 is held.
		name: "hetero-dssp", model: dssp.ModelSmallCNN, classes: 10, size: 8, noise: 1,
		examples: 512, batch: 16, epochs: 16, lr: 0.004,
		sync:      dssp.DefaultDSSP(),
		slowDelay: 3 * time.Millisecond, slowEpochs: 6,
		target: 0.6, floor: 0.5,
	},
	{
		// Overhead-bound: a tiny MLP under BSP against one flat server.
		name: "bsp-flat", model: dssp.ModelSmallMLP, classes: 10, size: 16, noise: 1,
		examples: 2048, batch: 16, epochs: 16, lr: 0.002,
		sync:   dssp.Sync{Paradigm: dssp.BSP},
		target: 0.7, floor: 0.5,
	},
	{
		// The bsp-flat load routed through one fanout-2 relay.
		name: "bsp-tree", model: dssp.ModelSmallMLP, classes: 10, size: 16, noise: 1,
		examples: 2048, batch: 16, epochs: 16, lr: 0.002,
		sync:   dssp.Sync{Paradigm: dssp.BSP},
		tree:   true,
		target: 0.7, floor: 0.5,
	},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// dataset is the round's dataset configuration; every field is explicit so
// the benchmark's own worker loop rebuilds exactly what the server and
// RunWorker build from it.
func (w workload) dataset(seed int64) dssp.DatasetConfig {
	return dssp.DatasetConfig{
		Examples:     w.examples,
		TestExamples: w.examples / 5,
		Classes:      w.classes,
		ImageSize:    w.size,
		Noise:        w.noise,
		Seed:         seed,
	}
}

// trainSet generates the round's training split the way the program does
// for the two models the workloads use.
func (w workload) trainSet(seed int64) (*data.Dataset, error) {
	d := w.dataset(seed)
	flat := w.model == dssp.ModelSmallMLP
	channels := 3
	if flat {
		channels = 1
	}
	full, err := data.Synthetic(data.SyntheticConfig{
		Examples: d.Examples + d.TestExamples,
		Classes:  d.Classes,
		Channels: channels,
		Size:     d.ImageSize,
		Noise:    d.Noise,
		Flat:     flat,
		Seed:     d.Seed,
	})
	if err != nil {
		return nil, err
	}
	idx := make([]int, d.Examples)
	for i := range idx {
		idx[i] = i
	}
	return full.Subset(idx), nil
}

// epochsFor is worker id's epoch count.
func (w workload) epochsFor(id int) int {
	if id == 1 && w.slowEpochs > 0 {
		return w.slowEpochs
	}
	return w.epochs
}

// plannedIters is both workers' planned iteration count in one round.
func (w workload) plannedIters() int {
	shard := w.examples / workers
	n := 0
	for id := 0; id < workers; id++ {
		n += (shard + w.batch - 1) / w.batch * w.epochsFor(id)
	}
	return n
}

// delay is worker id's emulated extra compute.
func (w workload) delay(id int) time.Duration {
	if id == 1 {
		return w.slowDelay
	}
	return 0
}

// topology is one round's servers: the root, and on tree workloads the
// relay in front of it.
type topology struct {
	srv   *dssp.Server
	relay *dssp.RelayServer
	setup time.Duration
}

// bringUp starts the round's servers with their shipped defaults and
// returns once the topology accepts every worker: the root answers a
// layout request and, on tree workloads, its layout routes both workers
// to the relay. setup is measured over exactly that; nothing sleeps.
func bringUp(w workload, seed int64) (*topology, error) {
	start := time.Now()
	srv, err := dssp.Serve(dssp.ServerConfig{
		Addr:         "127.0.0.1:0",
		Workers:      workers,
		Sync:         w.sync,
		Model:        w.model,
		Dataset:      w.dataset(seed),
		LearningRate: w.lr,
		Seed:         seed,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	t := &topology{srv: srv}
	if w.tree {
		t.relay, err = dssp.ServeRelay(dssp.RelayConfig{Addr: "127.0.0.1:0", Parent: srv.Addr(), Fanout: workers})
		if err != nil {
			srv.Stop()
			return nil, fmt.Errorf("serve relay: %w", err)
		}
	}
	if err := t.awaitCoverage(w.tree, start.Add(10*time.Second)); err != nil {
		t.stop()
		return nil, err
	}
	t.setup = time.Since(start)
	return t, nil
}

// awaitCoverage polls the root's tree layout until it accepts every
// worker. Each poll is a full TCP round trip, so the loop needs no sleep.
func (t *topology) awaitCoverage(tree bool, deadline time.Time) error {
	for {
		layout, err := fetchLayout(t.srv.Addr())
		if err != nil {
			return err
		}
		if !tree || coversAll(layout) {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("relay never covered every worker")
		}
	}
}

// fetchLayout asks the root at addr for its aggregation-tree layout.
func fetchLayout(addr string) (ps.TreeLayout, error) {
	conn, err := transport.DialWire(addr, transport.WireBinary)
	if err != nil {
		return ps.TreeLayout{}, fmt.Errorf("dial root: %w", err)
	}
	defer conn.Close()
	return ps.FetchTreeLayout(conn)
}

// coversAll reports whether layout routes every worker to a relay.
func coversAll(layout ps.TreeLayout) bool {
	for id := 0; id < workers; id++ {
		if layout.Covering(id) == "" {
			return false
		}
	}
	return true
}

// snapshots reads the root's and (if any) the relay's registries.
func (t *topology) snapshots() (root, relay snapshot) {
	root = t.srv.Registry().Snapshot()
	if t.relay != nil {
		relay = t.relay.Registry().Snapshot()
	}
	return root, relay
}

// stop shuts the relay and the root down.
func (t *topology) stop() {
	if t.relay != nil {
		t.relay.Stop()
	}
	t.srv.Stop()
}

// outcome is one worker's end of a round, from RunWorker's report or the
// traced loop's equivalent.
type outcome struct {
	id         int
	iterations int
	finalLoss  float64
	duration   time.Duration
	returnedAt time.Time
	err        error
}

// trainer runs one worker against the topology to completion.
type trainer func(w workload, seed int64, id int, root string) outcome

// roundPlan is how one round trains: its trainer, and whether the server's
// model is evaluated on the schedule while the workers train. Evaluated
// rounds time time_to_acc_s; throughput is read from rounds without the
// evaluator competing for the cores.
type roundPlan struct {
	train    trainer
	evaluate bool
	// recs are a traced round's recorders, one per worker.
	recs []*recorder
}

// runWorker is the untraced trainer: the program's own dssp.RunWorker.
func runWorker(w workload, seed int64, id int, root string) outcome {
	rep, err := dssp.RunWorker(dssp.WorkerConfig{
		ServerAddr: root,
		Tree:       w.tree,
		WorkerID:   id,
		Workers:    workers,
		Model:      w.model,
		Dataset:    w.dataset(seed),
		BatchSize:  w.batch,
		Epochs:     w.epochsFor(id),
		Seed:       seed,
		Delay:      w.delay(id),
	})
	o := outcome{id: id, err: err}
	if err == nil {
		o.iterations, o.finalLoss, o.duration = rep.Iterations, rep.FinalLoss, rep.Duration
	}
	return o
}

// evaluation is one scheduled accuracy reading of the server's model.
type evaluation struct {
	at   time.Time // when the evaluation started
	acc  float64
	cost time.Duration
	err  error
}

// roundResult is everything one round measured.
type roundResult struct {
	evaluated bool
	recs      []*recorder
	// steal is the share of the machine's CPU time the hypervisor stole
	// while the round ran.
	steal float64
	// cpu is the CPU time the process used in the timed window and stolen
	// the CPU time the hypervisor stole from the machine in it, in
	// seconds; unstolen derives the round's steal correction from them.
	cpu, stolen float64
	// windowIters is the logical pushes applied in the timed window.
	windowIters int
	setup       time.Duration
	// window is the timed window: workers started to first worker return.
	window time.Duration
	// itersPerS is logical pushes applied per second while both workers
	// trained: Server.Updates() when the first worker returned, over that
	// worker's training time.
	itersPerS float64
	// fastItersPerS is worker 0's own iteration rate.
	fastItersPerS float64
	// tta is seconds from the first iteration to when the scheduled
	// evaluations saw the target reached (see crossing; NaN until an
	// evaluated round is checked).
	tta      float64
	finalAcc float64
	evals    []evaluation
	// planned, released and applied count iterations for the tally.
	planned, released, applied int
	// root and relay are the registry deltas over the timed window.
	root, relay window
	// err is the first correctness failure; nil for a correct round.
	err error
	// warmup marks a round that is checked but not measured.
	warmup bool
}

// runRound brings a topology up, trains both workers as plan says, checks
// the round and tears everything down.
func runRound(w workload, seed int64, plan roundPlan) roundResult {
	res := roundResult{
		evaluated: plan.evaluate,
		recs:      plan.recs,
		tta:       math.NaN(),
		planned:   w.plannedIters(),
		root:      window{},
		relay:     window{},
	}
	topo, err := bringUp(w, seed)
	if err != nil {
		res.err = fmt.Errorf("bring-up: %w", err)
		return res
	}
	defer topo.stop()
	res.setup = topo.setup

	stopEval := make(chan struct{})
	evalDone := make(chan []evaluation, 1)
	if plan.evaluate {
		phase := time.Duration(seed % int64(evalEvery))
		go func() { evalDone <- evaluateOnSchedule(topo.srv, phase, stopEval) }()
	} else {
		evalDone <- nil
	}

	rootBefore, relayBefore := topo.snapshots()
	machineBefore, err := readCPUTimes()
	if err != nil {
		res.err = err
		return res
	}
	cpuBefore := processCPU()
	windowStart := time.Now()
	done := make(chan outcome, workers)
	for id := 0; id < workers; id++ {
		go func() {
			o := plan.train(w, seed, id, topo.srv.Addr())
			o.returnedAt = time.Now()
			done <- o
		}()
	}
	outs := make([]outcome, workers)
	first := <-done
	updatesAtFirst := topo.srv.Updates()
	res.window = time.Since(windowStart)
	res.cpu = processCPU() - cpuBefore
	machineAfter, err := readCPUTimes()
	if err != nil {
		res.err = err
		return res
	}
	res.stolen = stealShare(machineBefore, machineAfter) * float64(runtime.NumCPU()) * res.window.Seconds()
	res.windowIters = updatesAtFirst
	rootAfter, relayAfter := topo.snapshots()
	// The timed window ends here: the schedule covers only the time both
	// workers train.
	close(stopEval)
	res.evals = <-evalDone
	outs[first.id] = first
	for range workers - 1 {
		o := <-done
		outs[o.id] = o
	}
	res.root.add(rootBefore, rootAfter)
	res.relay.add(relayBefore, relayAfter)

	for _, o := range outs {
		if o.err != nil {
			res.err = fmt.Errorf("worker %d: %w", o.id, o.err)
			return res
		}
		res.released += o.iterations
	}
	select {
	case <-topo.srv.Done():
	case <-time.After(10 * time.Second):
		res.err = errors.New("server never saw every worker finish")
		return res
	}
	res.applied = topo.srv.Updates()
	res.itersPerS = ratio(float64(updatesAtFirst), first.duration.Seconds())
	res.fastItersPerS = ratio(float64(outs[0].iterations), outs[0].duration.Seconds())
	res.finalAcc, err = topo.srv.Evaluate()
	if err != nil {
		res.err = fmt.Errorf("final evaluation: %w", err)
		return res
	}
	trainStart := first.returnedAt.Add(-first.duration)
	for _, o := range outs {
		if s := o.returnedAt.Add(-o.duration); s.Before(trainStart) {
			trainStart = s
		}
	}
	res.err = res.check(w, outs, topo, first.returnedAt, trainStart)
	return res
}

// check is the round's correctness gate. Only evaluated rounds can check
// that the target was reached while both workers trained.
func (res *roundResult) check(w workload, outs []outcome, topo *topology, firstReturn, trainStart time.Time) error {
	if res.applied != res.released {
		return fmt.Errorf("server applied %d updates, workers report %d iterations", res.applied, res.released)
	}
	for _, o := range outs {
		if math.IsNaN(o.finalLoss) || math.IsInf(o.finalLoss, 0) {
			return fmt.Errorf("worker %d final loss %v", o.id, o.finalLoss)
		}
	}
	if res.finalAcc < w.floor {
		return fmt.Errorf("final accuracy %.3f below the %.2f floor", res.finalAcc, w.floor)
	}
	for _, e := range res.evals {
		if e.err != nil {
			return fmt.Errorf("scheduled evaluation: %w", e.err)
		}
	}
	if res.evaluated {
		at, ok := crossing(res.evals, w.target)
		if !ok || !at.Before(firstReturn) {
			return fmt.Errorf("accuracy %.2f not reached while both workers trained", w.target)
		}
		res.tta = at.Sub(trainStart).Seconds()
	}
	if w.tree {
		// Under BSP with fanout 2 every barrier folds both workers into
		// one ×2 partial, so the root takes one partial per two pushes.
		m := topo.srv.Registry().Snapshot()
		partials, pushes := m["dssp_tree_partials_total"], m["dssp_push_total"]
		if math.Abs(2*partials-pushes) > 0.05*pushes+2 {
			return fmt.Errorf("root accepted %v partials for %v logical pushes, want about half", partials, pushes)
		}
	}
	return nil
}

// crossing is when the model's accuracy first reached target, interpolated
// linearly between the last evaluation below it and the first at or above
// it. The schedule evaluates a few times between the start and the target,
// so reading the first evaluation at or above the target alone would
// quantize time_to_acc_s to the schedule's period. ok is false when no
// evaluation reached target.
func crossing(evals []evaluation, target float64) (at time.Time, ok bool) {
	for i, e := range evals {
		if e.acc < target {
			continue
		}
		if i == 0 {
			return e.at, true
		}
		prev := evals[i-1]
		f := (target - prev.acc) / (e.acc - prev.acc)
		return prev.at.Add(time.Duration(f * float64(e.at.Sub(prev.at)))), true
	}
	return time.Time{}, false
}

// evaluateOnSchedule evaluates srv's model every evalEvery, starting after
// phase, until stop is closed. The phase varies from round to round, so the
// evaluations around the target fall at different points of the learning
// curve and the error of crossing's linear interpolation averages out over
// rounds.
func evaluateOnSchedule(srv *dssp.Server, phase time.Duration, stop <-chan struct{}) []evaluation {
	var evals []evaluation
	next := time.NewTimer(phase)
	defer next.Stop()
	for {
		select {
		case <-stop:
			return evals
		case <-next.C:
			next.Reset(evalEvery)
			at := time.Now()
			acc, err := srv.Evaluate()
			evals = append(evals, evaluation{at: at, acc: acc, cost: time.Since(at), err: err})
		}
	}
}

// unstolen is the share of the busy CPU time in the round's timed window
// that the process got to run (see unstolenShare). Dividing a rate by it,
// or multiplying a duration by it, gives the reading the round would have
// had on CPUs nobody else shared.
func (res roundResult) unstolen() float64 { return unstolenShare(res.cpu, res.stolen) }
