package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// usage is a point-in-time reading of process CPU and Go heap counters.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: getrusage: %v\n", err)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
	}
}

// cost accumulates usage deltas over one or more timed windows.
type cost struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func (c *cost) add(from, to usage) {
	c.cpu += to.cpu - from.cpu
	c.mallocs += to.mallocs - from.mallocs
	c.bytes += to.bytes - from.bytes
}

func (c *cost) merge(o cost) {
	c.cpu += o.cpu
	c.mallocs += o.mallocs
	c.bytes += o.bytes
}

// heapPeak samples HeapInuse until stopped and keeps the highest reading.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if m.HeapInuse > h.peak {
				h.peak = m.HeapInuse
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak in MB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// setupGroup is the number of consecutive set-ups averaged together.
const setupGroup = 8

// setupSeconds is the median over consecutive groups of setupGroup
// set-ups of each group's mean time. Single set-ups of one run fall in two
// modes about a millisecond apart (shared-window on a 2-vCPU VM: 2.2-2.5
// ms and 3.1-3.4 ms), in shares that differ from run to run, so a median
// of single set-ups jumps between the modes; a group's mean moves
// smoothly with the share of slow ones, and the median over groups drops
// the warm-up.
func setupSeconds(times []float64) float64 {
	var means []float64
	for lo := 0; lo < len(times); lo += setupGroup {
		g := times[lo:min(lo+setupGroup, len(times))]
		sum := 0.0
		for _, t := range g {
			sum += t
		}
		means = append(means, sum/float64(len(g)))
	}
	return median(means)
}

// commonMetrics builds the metrics every workload reports from its
// measured cost over tuples input tuples.
func commonMetrics(setup []float64, throughput float64, lat *latencies, c cost, tuples int64, peakMB float64) map[string]metric {
	n := float64(tuples)
	return map[string]metric{
		"setup_s":          {setupSeconds(setup), "s"},
		"throughput_tps":   {throughput, "tuples/s"},
		"latency_p50_ms":   {lat.p50(), "ms"},
		"cpu_s_per_mtuple": {c.cpu.Seconds() / n * 1e6, "s"},
		"allocs_per_tuple": {float64(c.mallocs) / n, "count"},
		"bytes_per_tuple":  {float64(c.bytes) / n, "B"},
		"peak_heap_mb":     {peakMB, "MB"},
	}
}

// pacer runs an open-loop schedule: wait blocks until a due time, and the
// lateness of every wake-up is kept so the report can say how far behind
// the generator ran.
type pacer struct {
	t0   time.Time
	late []float64 // ms, one per wake-up
}

func newPacer() *pacer { return &pacer{t0: time.Now()} }

// wait sleeps until due (an offset from t0) and returns the wake-up time.
func (p *pacer) wait(due time.Duration) time.Time {
	now := time.Now()
	if d := due - now.Sub(p.t0); d > 0 {
		time.Sleep(d)
		now = time.Now()
	}
	p.late = append(p.late, ms(now.Sub(p.t0)-due))
	return now
}

// genLateLimit is the generator lateness past which a run is flagged. A
// generator that keeps up still runs a few ms late after a stall of the
// host and then catches up: on a 2-vCPU VM the synchronous wire feeder at
// 10k rows/s shows a p99 of 5-22 ms, the in-process feeder 5-10 ms. One
// that cannot sustain its rate falls further behind with every row and
// passes 50 ms within a fraction of a second.
const genLateLimit = 50 * time.Millisecond

// lateP99 returns the 99th percentile lateness in ms, and warns on stderr
// when it exceeds genLateLimit: results timed from due times then mostly
// measure the generator, not the engine.
func (p *pacer) lateP99(name string) float64 {
	v := quantile(append([]float64(nil), p.late...), 0.99)
	if limit := genLateLimit; v > ms(limit) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: WARNING generator ran late: p99 %.3f ms exceeds %.3f ms; latency figures are suspect\n",
			name, v, ms(limit))
	}
	return v
}

// setupTimes runs setup n times and returns each duration; every instance
// but the last is torn down at once, the last is returned for use. Each
// set-up starts from a collected heap, so a GC cycle started by an earlier
// instance's garbage is not timed with it.
func setupTimes[T any](n int, setup func() (T, error), teardown func(T)) ([]float64, T, error) {
	var times []float64
	var inst T
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return nil, inst, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			teardown(v)
			continue
		}
		inst = v
	}
	return times, inst, nil
}

// spanRec keeps spans in memory for the traced run: name, start, end, the
// parent span and an id shared by every span of one input.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	start, end int64 // ns since the recorder started; end -1 while open
	parent     int   // index into spans, -1 for a root
	id         int64
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (r *spanRec) begin(name string, parent int, id int64) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: -1, parent: parent, id: id})
	return len(r.spans) - 1
}

func (r *spanRec) end(i int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// timed runs fn inside a root span named name and returns its duration.
func (r *spanRec) timed(name string, fn func()) time.Duration {
	sp := r.begin(name, -1, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(sp)
	return d
}

// selfTimes returns each closed span's self time in ns, grouped by name:
// its duration minus the part of it that its children cover.
func (r *spanRec) selfTimes() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string][]float64)
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		covered := int64(0)
		last := s.start
		for _, c := range children[i] { // children are recorded in start order
			cs, ce := r.spans[c].start, r.spans[c].end
			if ce < 0 {
				continue
			}
			if cs < last {
				cs = last
			}
			if ce > cs {
				covered += ce - cs
				last = ce
			}
		}
		out[s.name] = append(out[s.name], float64(s.end-s.start-covered))
	}
	return out
}

// write saves the spans as JSON lines, so a traced run can be inspected
// after it ends.
func (r *spanRec) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, s := range r.spans {
		fmt.Fprintf(f, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"id":%d}`+"\n",
			s.name, s.start, s.end, s.parent, s.id)
	}
	return f.Close()
}

// overheadPct compares CPU per input tuple of a traced run with an
// untraced one, in percent.
func overheadPct(plain cost, plainTuples int64, traced cost, tracedTuples int64) float64 {
	a := plain.cpu.Seconds() / float64(plainTuples)
	b := traced.cpu.Seconds() / float64(tracedTuples)
	return (b/a - 1) * 100
}
