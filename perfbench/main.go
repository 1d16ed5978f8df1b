// Command perfbench is the repository benchmark: it drives one named
// workload against the engine's default configuration, checks every result
// against an independent reference evaluation of the generated inputs, and
// prints one JSON object as the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from a separate traced run plus
// replays of the workload's inputs through each layer's public API.
// spec.json in this directory records each workload's shape and, per layer
// metric, which end-to-end metric it should move; BENCHMARK.json at the
// repository root holds each workload's why and the metric lists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds float64
}

// workload runs one named load. run measures untraced; traced returns the
// per-layer metrics of a separate traced run.
type workload struct {
	run    func(cfg config) (*output, error)
	traced func(cfg config) (*output, error)
}

var workloads = map[string]workload{
	"wire-ingest":   {run: runWire, traced: tracedWire},
	"join-saturate": {run: runJoin, traced: tracedJoin},
	"shared-window": {run: runShared, traced: tracedShared},
}

func main() {
	name := flag.String("workload", "", "workload name: wire-ingest, join-saturate or shared-window")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds}
	run := w.run
	if *trace == 1 {
		run = w.traced
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d results failed the reference check\n",
			*name, out.Failed, out.Attempted)
		os.Exit(1)
	}
}

// check accumulates the reference comparison of one run.
type check struct {
	attempted int64 // expected results
	failed    int64 // missing, extra or wrong results
	wrong     bool  // any mismatch at all
}

// compare records one query's outcome: the result count and
// order-independent digest it produced against the expected ones.
func (c *check) compare(what string, got, want multiset) {
	c.attempted += want.n
	if got == want {
		return
	}
	c.wrong = true
	switch {
	case got.n < want.n:
		c.failed += want.n - got.n
	case got.n > want.n:
		c.failed += got.n - want.n
	default:
		c.failed++ // same count, different rows: at least one is wrong
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: got %d rows (digest %x), want %d (digest %x)\n",
		what, got.n, got.sum, want.n, want.sum)
}

// fail records n results that failed outright (errors, silent drops).
func (c *check) fail(what string, n int64) {
	if n == 0 {
		return
	}
	c.wrong = true
	c.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d results failed\n", what, n)
}

// merge adds another run's outcome to this one.
func (c *check) merge(o check) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.wrong = c.wrong || o.wrong
}

func (c *check) output(metrics map[string]metric) *output {
	return &output{Correct: !c.wrong, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
}

// multiset is an order-independent digest of a result multiset: the row
// count and the wrapping sum of per-row hashes.
type multiset struct {
	n   int64
	sum uint64
}

func (m *multiset) add(vals ...int64) {
	m.n++
	m.sum += rowHash(vals...)
}

// rowHash hashes a row of integers with the splitmix64 finalizer.
func rowHash(vals ...int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= uint64(v)
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// quantile returns the q-quantile of xs (sorted in place), 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)-1))
	return xs[i]
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	return quantile(cp, 0.5)
}

// latencies collects result latencies in buckets of the measured window
// (one bucket per second of due time, or per trial), so the tail is
// reported as the median of per-bucket tails: one stall in one second moves
// one bucket, not the whole run's p99.
type latencies struct {
	buckets [][]float64 // milliseconds
}

func (l *latencies) add(bucket int, ms float64) {
	for len(l.buckets) <= bucket {
		l.buckets = append(l.buckets, nil)
	}
	l.buckets[bucket] = append(l.buckets[bucket], ms)
}

func (l *latencies) merge(o *latencies) {
	for b, xs := range o.buckets {
		for _, x := range xs {
			l.add(b, x)
		}
	}
}

func (l *latencies) count() int {
	n := 0
	for _, b := range l.buckets {
		n += len(b)
	}
	return n
}

// p50 is the median over every sample.
func (l *latencies) p50() float64 {
	var all []float64
	for _, b := range l.buckets {
		all = append(all, b...)
	}
	return quantile(all, 0.5)
}

// p99 is the median over buckets with at least 100 samples of each
// bucket's 99th percentile.
func (l *latencies) p99() float64 {
	var tails []float64
	for _, b := range l.buckets {
		if len(b) >= 100 {
			tails = append(tails, quantile(b, 0.99))
		}
	}
	return median(tails)
}

// report prints the sample count, which the JSON line has no field for.
func (l *latencies) report(name string) {
	n := 0
	for _, b := range l.buckets {
		if len(b) >= 100 {
			n++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d latency samples in %d buckets\n", name, l.count(), n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
