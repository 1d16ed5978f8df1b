package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/core"
	"telegraphcq/internal/server"
	"telegraphcq/internal/tuple"
)

// wire-ingest: over loopback TCP through server.Listen, one feeder client
// sends one FEED per row in an open loop at a fixed reference rate, then
// as fast as its synchronous replies allow. One subscriber connection holds
// 8 push-subscribed range selections, which share one CACQ class.
const (
	wireRefRate  = 10000 // rows per second in the reference step
	wireRefShare = 0.6   // share of the window at the reference rate
	wireHosts    = 100
	wireSetups   = 504
	// wireMaxRate bounds the rows pre-built for the flat-out step.
	wireMaxRate = 50000
	// wireBurst is the flat-out step's unit of work: rows sent back to
	// back, the last of them a sentinel every subscription matches.
	wireBurst = 2000
)

// wireBounds are the range selections' thresholds: host < c.
var wireBounds = []int64{5, 10, 15, 20, 25, 30, 35, 40}

type wireRow struct {
	host, gen int64
	csv       string
}

type wireInput struct {
	ref  []wireRow // reference step, gen = due time in µs
	fast []wireRow // flat-out step, gen continues past the reference step
}

// In the flat-out step every wireBurst-th row has host 0, which every
// selection matches: once each subscription has received it, its burst
// has been delivered (or dropped) in full.

func wireRows(seed int64, seconds float64) *wireInput {
	rng := rand.New(rand.NewSource(seed))
	in := &wireInput{}
	refDur := seconds * wireRefShare
	interval := time.Second / wireRefRate
	mk := func(gen int64) wireRow {
		host := rng.Int63n(wireHosts)
		return wireRow{host: host, gen: gen, csv: strconv.FormatInt(host, 10) + "," + strconv.FormatInt(gen, 10)}
	}
	for i := 0; i < int(refDur*wireRefRate); i++ {
		in.ref = append(in.ref, mk((time.Duration(i) * interval).Microseconds()))
	}
	base := time.Duration(refDur * float64(time.Second)).Microseconds()
	for i := 0; i < int((seconds-refDur)*wireMaxRate); i++ {
		r := mk(base + int64(i))
		if (i+1)%wireBurst == 0 {
			r.host = 0
			r.csv = "0," + strconv.FormatInt(r.gen, 10)
		}
		in.fast = append(in.fast, r)
	}
	return in
}

// wireSub records what one push subscription delivers.
type wireSub struct {
	mu      sync.Mutex
	rows    []string
	times   []time.Time
	n       atomic.Int64
	lastGen atomic.Int64 // gen of the newest row; rows arrive in gen order
	done    chan struct{}
}

func (s *wireSub) drain(ch <-chan string) {
	defer close(s.done)
	for row := range ch {
		now := time.Now()
		s.mu.Lock()
		s.rows = append(s.rows, row)
		s.times = append(s.times, now)
		s.mu.Unlock()
		s.n.Add(1)
		if i := strings.LastIndexByte(row, ','); i >= 0 {
			if g, err := strconv.ParseInt(row[i+1:], 10, 64); err == nil {
				s.lastGen.Store(g)
			}
		}
	}
}

// wireSetup is one listening server with its two client connections.
type wireSetup struct {
	eng    *core.Engine
	pm     *server.Postmaster
	feeder *server.Client
	subs   *server.Client
	recv   []*wireSub
}

func newWireSetup(rec *spanRec) (*wireSetup, error) {
	ws := &wireSetup{eng: core.NewEngine(core.Options{})}
	var err error
	if ws.pm, err = server.Listen(ws.eng, "127.0.0.1:0"); err != nil {
		ws.eng.Stop()
		return nil, err
	}
	if ws.feeder, err = server.Dial(ws.pm.Addr()); err == nil {
		ws.subs, err = server.Dial(ws.pm.Addr())
	}
	if err == nil {
		err = ws.feeder.CreateStream("P", "host INT, gen INT", "")
	}
	for _, c := range wireBounds {
		if err != nil {
			break
		}
		var qid int
		sp := -1
		if rec != nil {
			sp = rec.begin("core.register", -1, 0)
		}
		qid, err = ws.subs.Query(wireQuery(c))
		if sp >= 0 {
			rec.end(sp)
		}
		if err != nil {
			break
		}
		var ch <-chan string
		if ch, err = ws.subs.Subscribe(qid, 0); err != nil {
			break
		}
		sub := &wireSub{done: make(chan struct{})}
		go sub.drain(ch)
		ws.recv = append(ws.recv, sub)
	}
	if err != nil {
		ws.close()
		return nil, err
	}
	return ws, nil
}

// close ends both sessions, waits for the drains, then stops the server
// and the engine.
func (ws *wireSetup) close() {
	for _, c := range []*server.Client{ws.feeder, ws.subs} {
		if c != nil {
			c.Close()
		}
	}
	for _, s := range ws.recv {
		<-s.done
	}
	ws.pm.Close()
	ws.eng.Stop()
}

// wireRun is everything one measured window produced.
type wireRun struct {
	chk    check
	setup  []float64
	tps    float64
	lat    latencies
	cost   cost
	tuples int64
	peakMB float64
	late   float64
	// dropped counts flat-out results the push path dropped: overload
	// behaviour above the sustainable rate, reported but not a failure.
	dropped int64
	// burstRows and burstTime add up the flat-out bursts delivered in full
	// (a burst whose sentinel was dropped is left out of both).
	burstRows int
	burstTime time.Duration
}

// await waits until every subscription has received gen or timeout passes.
func (ws *wireSetup) await(gen int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, s := range ws.recv {
			if s.lastGen.Load() < gen {
				all = false
				break
			}
		}
		if all {
			return true
		}
		time.Sleep(50 * time.Microsecond)
	}
	return false
}

func wireMeasure(cfg config, h *hooks) (*wireRun, error) {
	rec := h.spans()
	run := &wireRun{}
	setup, ws, err := setupTimes(wireSetups,
		func() (*wireSetup, error) { return newWireSetup(rec) },
		func(ws *wireSetup) { ws.close() })
	if err != nil {
		return nil, err
	}
	defer ws.close()
	// Generated after the set-ups, so each starts from the same small heap
	// whatever the window's length.
	in := wireRows(cfg.seed, cfg.seconds)
	run.setup = setup
	h.started(ws.eng)
	// Expected result counts, by reference-step rows and by whole flat-out
	// bursts, so the window itself only feeds and waits.
	refWant := wireExpect(in.ref)
	var burstWant [][]multiset
	for lo := 0; lo+wireBurst <= len(in.fast); lo += wireBurst {
		burstWant = append(burstWant, wireExpect(in.fast[lo:lo+wireBurst]))
	}

	feed := func(r wireRow) error {
		if rec == nil {
			return ws.feeder.Feed("P", r.csv)
		}
		sp := rec.begin("server.feed", -1, r.gen)
		err := ws.feeder.Feed("P", r.csv)
		rec.end(sp)
		return err
	}
	// Start the window from a collected heap, so the set-ups' garbage is
	// not charged to it.
	runtime.GC()
	heap := startHeapPeak()
	before := readUsage()
	pace := newPacer()
	for _, r := range in.ref {
		pace.wait(time.Duration(r.gen) * time.Microsecond)
		if err := feed(r); err != nil {
			return nil, err
		}
	}
	// Flat out: bursts of wireBurst rows, each timed from its first FEED to
	// the receipt of its sentinel by every subscription. Throughput is the
	// rows of all bursts over their summed time, not a median of bursts:
	// burst rates fall in steps as the subscriptions' pull logs fill, and a
	// median would flip between steps from run to run.
	stop := pace.t0.Add(time.Duration(cfg.seconds * float64(time.Second)))
	sent := 0
	fastStart := time.Now()
	for sent+wireBurst <= len(in.fast) && time.Now().Before(stop) {
		start := time.Now()
		for end := sent + wireBurst; sent < end; sent++ {
			if err := feed(in.fast[sent]); err != nil {
				return nil, err
			}
		}
		if ws.await(in.fast[sent-1].gen, time.Second) {
			run.burstRows += wireBurst
			run.burstTime += time.Since(start)
		}
	}
	fastTime := time.Since(fastStart)
	want := make([]int64, len(wireBounds))
	for i := range want {
		want[i] = refWant[i].n
		for _, b := range burstWant[:sent/wireBurst] {
			want[i] += b[i].n
		}
	}
	// Rows the push path dropped never arrive; stop waiting once delivery
	// has been quiet for a while.
	deadline := time.Now().Add(30 * time.Second)
	quiet, lastN := time.Now(), ws.received()
	for !ws.complete(want) && time.Now().Before(deadline) && time.Since(quiet) < time.Second {
		time.Sleep(time.Millisecond)
		if n := ws.received(); n != lastN {
			quiet, lastN = time.Now(), n
		}
	}
	time.Sleep(10 * time.Millisecond) // late extras show as a surplus
	after := readUsage()
	run.cost.add(before, after)
	run.peakMB = heap.end()
	run.late = pace.lateP99("wire-ingest")
	h.inspect(ws.eng)
	run.tuples = int64(len(in.ref) + sent)
	run.dropped = ws.verify(in, refWant, sent, pace.t0, run)
	switch {
	case sent == 0:
		return nil, fmt.Errorf("window too short for one flat-out burst of %d rows", wireBurst)
	case run.burstRows == 0:
		// Every burst lost a sentinel: fall back to the rows sent over the
		// flat-out step's wall time.
		fmt.Fprintf(os.Stderr, "perfbench: wire-ingest: no flat-out burst was delivered in full; throughput is rows sent over the step's time\n")
		run.tps = float64(sent) / fastTime.Seconds()
	default:
		run.tps = float64(run.burstRows) / run.burstTime.Seconds()
	}
	return run, nil
}

// wireExpect evaluates the range selections over the rows sent.
func wireExpect(rows []wireRow) []multiset {
	want := make([]multiset, len(wireBounds))
	for _, r := range rows {
		for i, c := range wireBounds {
			if r.host < c {
				want[i].add(r.host, r.gen)
			}
		}
	}
	return want
}

func (ws *wireSetup) received() int64 {
	var n int64
	for _, s := range ws.recv {
		n += s.n.Load()
	}
	return n
}

func (ws *wireSetup) complete(want []int64) bool {
	for i, s := range ws.recv {
		if s.n.Load() < want[i] {
			return false
		}
	}
	return true
}

// verify parses every delivered row and checks each subscription: the
// reference-step rows must match the reference exactly; flat-out rows must
// each be an expected row, delivered at most once, and the ones missing are
// counted as dropped under overload. Latencies are kept for reference-step
// rows. It returns the number of flat-out results dropped.
func (ws *wireSetup) verify(in *wireInput, refWant []multiset, sent int, t0 time.Time, run *wireRun) int64 {
	var dropped int64
	refEnd := int64(-1)
	if len(in.ref) > 0 {
		refEnd = in.ref[len(in.ref)-1].gen
	}
	fastHost := make(map[int64]int64, sent)
	for _, r := range in.fast[:sent] {
		fastHost[r.gen] = r.host
	}
	for i, s := range ws.recv {
		c := wireBounds[i]
		what := fmt.Sprintf("subscription host < %d", c)
		s.mu.Lock()
		var refGot multiset
		var bad, fastGot int64
		seen := make(map[int64]bool)
		for j, row := range s.rows {
			host, gen, ok := parseWireRow(row)
			switch {
			case !ok:
				bad++
			case gen <= refEnd:
				refGot.add(host, gen)
				run.lat.add(int(gen/1e6), ms(s.times[j].Sub(t0.Add(time.Duration(gen)*time.Microsecond))))
			default:
				if h, sentRow := fastHost[gen]; !sentRow || h != host || host >= c || seen[gen] {
					bad++
					continue
				}
				seen[gen] = true
				fastGot++
			}
		}
		s.mu.Unlock()
		run.chk.compare(what+" at the reference rate", refGot, refWant[i])
		run.chk.fail(what+" wrong rows", bad)
		for _, r := range in.fast[:sent] {
			if r.host < c {
				dropped++
			}
		}
		dropped -= fastGot
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: wire-ingest: %d results dropped by the push path in the flat-out step\n", dropped)
	}
	return dropped
}

func parseWireRow(row string) (host, gen int64, ok bool) {
	a, b, found := strings.Cut(row, ",")
	if !found {
		return 0, 0, false
	}
	h, err1 := strconv.ParseInt(a, 10, 64)
	g, err2 := strconv.ParseInt(b, 10, 64)
	return h, g, err1 == nil && err2 == nil
}

func runWire(cfg config) (*output, error) {
	run, err := wireMeasure(cfg, nil)
	if err != nil {
		return nil, err
	}
	run.lat.report("wire-ingest")
	return run.chk.output(commonMetrics(run.setup, run.tps, &run.lat, run.cost, run.tuples, run.peakMB)), nil
}

// tracedWire runs the workload untraced, then traced, each for half the
// window; the tracing overhead compares their CPU per input row.
func tracedWire(cfg config) (*output, error) {
	half := config{seed: cfg.seed, seconds: cfg.seconds / 2}
	plain, err := wireMeasure(half, nil)
	if err != nil {
		return nil, err
	}
	h := newHooks()
	depth := sampleDepth(h.current.Load)
	traced, err := wireMeasure(half, h)
	depthMax := depth.end()
	if err != nil {
		return nil, err
	}
	lr := &layerRun{
		name: "wire-ingest", h: h, tuples: float64(traced.tuples), depthMax: depthMax,
		genLate:  traced.late,
		overhead: overheadPct(plain.cost, plain.tuples, traced.cost, traced.tuples),
		dropped:  float64(traced.dropped),
		replay:   wireReplayRows(cfg.seed),
	}
	m, err := layerReport(cfg.seed, lr)
	if err != nil {
		return nil, err
	}
	m["result.latency_p99_ms"] = metric{plain.lat.p99(), "ms"}
	traced.chk.merge(plain.chk)
	return traced.chk.output(m), nil
}

// wireReplayRows are wire-ingest's reference-step rows as tuples.
func wireReplayRows(seed int64) replayRows {
	queries := make([]string, len(wireBounds))
	for i, c := range wireBounds {
		queries[i] = wireQuery(c)
	}
	return replayRows{
		stream: "P",
		schema: intSchema("P", "host", "gen"),
		rows: func() []*tuple.Tuple {
			in := wireRows(seed, 4)
			out := make([]*tuple.Tuple, len(in.ref))
			for i, r := range in.ref {
				out[i] = tuple.New(tuple.Int(r.host), tuple.Int(r.gen))
			}
			return out
		},
		queries: queries,
	}
}

func wireQuery(c int64) string { return fmt.Sprintf("SELECT host, gen FROM P WHERE host < %d", c) }
