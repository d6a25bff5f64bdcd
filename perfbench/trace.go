package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dssp"
	"dssp/internal/compress"
	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/ps"
	"dssp/internal/transport"
)

// spanKind names one layer boundary the traced worker loop times.
type spanKind uint8

// The traced loop's spans, in RunWorker's call order. spanIter is the
// parent: one per (worker, iteration), covering the whole iteration; the
// others are its children.
const (
	spanIter spanKind = iota
	spanPull
	spanSetParams
	spanNext
	spanZeroGrads
	spanForward
	spanBackward
	spanDelay
	spanCloneGrads
	spanPushWait
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"worker.iteration", "ps.client.pull", "nn.set_params", "data.next", "nn.zero_grads",
	"nn.forward", "nn.backward", "worker.delay", "nn.clone_grads", "ps.client.push_wait",
}

// span is one timed call. Times are nanoseconds since the recorder's
// epoch; (round, worker, iter) identifies the parent iteration.
type span struct {
	start, end int64
	iter       int32
	round      uint16
	worker     uint8
	kind       spanKind
}

// recorder holds one worker's spans in memory for one round; each worker
// owns its recorder, so recording takes no lock.
type recorder struct {
	epoch time.Time
	round uint16
	spans []span
	// subnormal and scanned count sampled gradient entries.
	subnormal, scanned int
}

// now is the current offset from the recorder's epoch.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// record appends a span that ran from start to end. Callers read the clock
// right before and right after the call they time, so the recorder's own
// cost (this append and the clock reads) falls between spans, where budget
// coverage sees it as uncovered time.
func (r *recorder) record(kind spanKind, worker uint8, iter int32, start, end int64) {
	r.spans = append(r.spans, span{start: start, end: end, iter: iter, round: r.round, worker: worker, kind: kind})
}

// subnormalEvery is how often (in iterations) the traced loop scans its
// gradients for subnormal floats; the scan runs between iterations.
const subnormalEvery = 8

// scanSubnormal counts the subnormal entries in grads.
func (r *recorder) scanSubnormal(grads [][]float32) {
	for _, g := range grads {
		for _, v := range g {
			if v != 0 && math.Abs(float64(v)) < 0x1p-126 {
				r.subnormal++
			}
		}
		r.scanned += len(g)
	}
}

// tracedTrainer returns a trainer that runs the benchmark's own worker
// loop, recording worker id's spans into recs[id].
func tracedTrainer(recs []*recorder) trainer {
	return func(w workload, seed int64, id int, root string) outcome {
		o := outcome{id: id}
		o.iterations, o.finalLoss, o.duration, o.err = tracedWorker(w, seed, id, root, recs[id])
		return o
	}
}

// tracedWorker mirrors dssp.RunWorker's plain TCP path (no reconnect,
// adversary or cluster mode): the same data shard, batch order and replica
// seed, and the same public calls in the same order, each wrapped in a
// span.
func tracedWorker(w workload, seed int64, id int, root string, rec *recorder) (iters int, loss float64, dur time.Duration, err error) {
	train, err := w.trainSet(seed)
	if err != nil {
		return 0, 0, 0, err
	}
	shard, err := data.PartitionDataset(train, id, workers)
	if err != nil {
		return 0, 0, 0, err
	}
	iter, err := data.NewBatchIterator(shard, w.batch, seed+int64(id)*1009)
	if err != nil {
		return 0, 0, 0, err
	}
	addr := root
	if w.tree {
		layout, err := fetchLayout(root)
		if err != nil {
			return 0, 0, 0, err
		}
		if a := layout.Covering(id); a != "" {
			addr = a
		}
	}
	conn, err := transport.DialWire(addr, transport.WireBinary)
	if err != nil {
		return 0, 0, 0, err
	}
	client, err := ps.NewClientCompressed(conn, id, compress.Config{Codec: compress.Auto}.Normalized())
	if err != nil {
		conn.Close()
		return 0, 0, 0, err
	}
	defer client.Close()
	if err := client.Register(); err != nil {
		return 0, 0, 0, err
	}
	replica := modelSpec(w).Build(rand.New(rand.NewSource(seed)))

	worker := uint8(id)
	delay := w.delay(id)
	total := (shard.Len() + w.batch - 1) / w.batch * w.epochsFor(id)
	start := time.Now()
	// Each iteration runs from its own start to the next one's, so loop
	// overhead, the tracer's cost and the sampled scan all count against
	// the budget without belonging to any layer span.
	iterStart := rec.now()
	for it := 0; it < total; it++ {
		i := int32(it)
		s := rec.now()
		params, version, err := client.Pull()
		e := rec.now()
		if err != nil {
			return 0, 0, 0, err
		}
		rec.record(spanPull, worker, i, s, e)

		s = rec.now()
		err = replica.SetParams(params)
		e = rec.now()
		if err != nil {
			return 0, 0, 0, err
		}
		rec.record(spanSetParams, worker, i, s, e)

		s = rec.now()
		x, labels := iter.Next()
		e = rec.now()
		rec.record(spanNext, worker, i, s, e)

		s = rec.now()
		replica.ZeroGrads()
		e = rec.now()
		rec.record(spanZeroGrads, worker, i, s, e)

		s = rec.now()
		loss, _ = replica.Loss(x, labels, true)
		e = rec.now()
		rec.record(spanForward, worker, i, s, e)

		s = rec.now()
		replica.Backward()
		e = rec.now()
		rec.record(spanBackward, worker, i, s, e)

		if delay > 0 {
			s = rec.now()
			time.Sleep(delay)
			e = rec.now()
			rec.record(spanDelay, worker, i, s, e)
		}

		s = rec.now()
		grads := replica.CloneGrads()
		e = rec.now()
		rec.record(spanCloneGrads, worker, i, s, e)

		s = rec.now()
		err = client.PushAndWait(grads, version, it)
		e = rec.now()
		if err != nil {
			return 0, 0, 0, err
		}
		rec.record(spanPushWait, worker, i, s, e)

		if it%subnormalEvery == 0 {
			vals := make([][]float32, len(grads))
			for j, g := range grads {
				vals[j] = g.Data()
			}
			rec.scanSubnormal(vals)
		}
		iterEnd := rec.now()
		rec.record(spanIter, worker, i, iterStart, iterEnd)
		iterStart = iterEnd
	}
	if err := client.Done(); err != nil {
		return 0, 0, 0, err
	}
	return total, loss, time.Since(start), nil
}

// modelSpec maps the workload's model to the program's architecture, with
// the hidden width the dssp package uses for its MLP.
func modelSpec(w workload) nn.ModelSpec {
	if w.model == dssp.ModelSmallCNN {
		return nn.SpecSmallCNN(w.size, w.classes)
	}
	return nn.SpecSmallMLP(w.size, 32, w.classes)
}

// writeSpans writes every span as gzip-compressed CSV to path, one line
// per span, creating path's directory if needed. Times are nanoseconds
// since the first recorder's epoch.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	z, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	b := bufio.NewWriter(z)
	fmt.Fprintln(b, "round,worker,iteration,span,start_ns,end_ns")
	var line []byte
	for _, r := range recs {
		base := int64(r.epoch.Sub(recs[0].epoch))
		for _, s := range r.spans {
			line = strconv.AppendUint(line[:0], uint64(s.round), 10)
			line = append(line, ',')
			line = strconv.AppendUint(line, uint64(s.worker), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(s.iter), 10)
			line = append(line, ',')
			line = append(line, spanNames[s.kind]...)
			line = append(line, ',')
			line = strconv.AppendInt(line, base+s.start, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, base+s.end, 10)
			line = append(line, '\n')
			b.Write(line)
		}
	}
	if err := b.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := z.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes groups one worker's span durations (µs) by kind and sums the
// budget: iteration wall time and the time its child spans cover.
type layerTimes struct {
	us        [numSpanKinds][]float64
	total     [numSpanKinds]int64 // ns
	iterNanos int64
	childNano int64
}

// collect folds worker's spans from recs into a layerTimes; worker -1
// folds every worker's.
func collect(recs []*recorder, worker int) *layerTimes {
	lt := &layerTimes{}
	for _, r := range recs {
		for _, s := range r.spans {
			if worker >= 0 && int(s.worker) != worker {
				continue
			}
			d := s.end - s.start
			lt.us[s.kind] = append(lt.us[s.kind], float64(d)/1e3)
			lt.total[s.kind] += d
			if s.kind == spanIter {
				lt.iterNanos += d
			} else {
				lt.childNano += d
			}
		}
	}
	return lt
}

// coverage is the budget check: the summed child spans over the summed
// iteration wall time. 1 means the named layers account for every
// nanosecond of the loop.
func (lt *layerTimes) coverage() float64 {
	return ratio(float64(lt.childNano), float64(lt.iterNanos))
}

// share is kinds' summed time over the summed iteration wall time.
func (lt *layerTimes) share(kinds ...spanKind) float64 {
	var ns int64
	for _, k := range kinds {
		ns += lt.total[k]
	}
	return ratio(float64(ns), float64(lt.iterNanos))
}
