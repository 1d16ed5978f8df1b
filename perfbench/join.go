package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/core"
	"telegraphcq/internal/tuple"
)

// join-saturate: one goroutine feeds a fixed input as fast as back-pressure
// allows, in 512-row chunks, through a 2-way equijoin on 64 keys beside a
// 4-way star whose per-dimension fanout reverses at the midpoint. Each
// trial sets up a fresh engine and feeds the same input; trials repeat
// until the measured windows add up to --seconds.
const (
	joinKeys     = 64   // 2-way join keys
	starKeys     = 32   // star keys per phase
	joinChunk    = 512  // rows per FeedMany
	joinSChunks  = 128  // S chunks per trial
	joinFChunks  = 16   // F chunks per trial, one after every 8 S chunks
	starPhase2   = 1000 // key offset of the star's second phase
	joinQuery2   = `SELECT S.v, R.w, S.gen, R.gen FROM S, R WHERE S.k = R.k`
	joinQuery4   = `SELECT F.id, A.va, B.vb, C.vc, F.gen FROM F, A, B, C WHERE F.a = A.a AND F.b = B.b AND F.c = C.c`
	joinDeadline = 60 * time.Second
)

// starFanout is the number of rows per key in dimensions A, B, C during
// the first phase; the second phase reverses it.
var starFanout = [3]int{1, 2, 4}

// joinInput is one trial's pre-built input. Every row carries in its gen
// column the index of the chunk that feeds it; chunk 0 holds the build
// sides (R and the dimensions), fed first.
type joinInput struct {
	r, a, b, c []*tuple.Tuple
	chunks     []joinFeed // data chunks 1..n
	tuples     int64
}

type joinFeed struct {
	stream string
	rows   []*tuple.Tuple
}

// joinRows generates the trial input from the seed. It is called once per
// trial so no trial feeds tuples an earlier engine has touched.
func joinRows(seed int64) *joinInput {
	rng := rand.New(rand.NewSource(seed))
	in := &joinInput{}
	for k := 0; k < joinKeys; k++ {
		in.r = append(in.r, tuple.New(tuple.Int(int64(k)), tuple.Int(rng.Int63n(1e9)), tuple.Int(0)))
	}
	dims := []*[]*tuple.Tuple{&in.a, &in.b, &in.c}
	for phase := 0; phase < 2; phase++ {
		for d, dst := range dims {
			fan := starFanout[d]
			if phase == 1 {
				fan = starFanout[2-d]
			}
			for k := 0; k < starKeys; k++ {
				for i := 0; i < fan; i++ {
					key := int64(k + phase*starPhase2)
					*dst = append(*dst, tuple.New(tuple.Int(key), tuple.Int(rng.Int63n(1e9)), tuple.Int(0)))
				}
			}
		}
	}
	in.tuples = int64(len(in.r) + len(in.a) + len(in.b) + len(in.c))
	var sID, fID int64
	for s := 0; s < joinSChunks; s++ {
		gen := int64(len(in.chunks) + 1)
		rows := make([]*tuple.Tuple, joinChunk)
		for i := range rows {
			rows[i] = tuple.New(tuple.Int(rng.Int63n(joinKeys)), tuple.Int(sID), tuple.Int(gen))
			sID++
		}
		in.chunks = append(in.chunks, joinFeed{"S", rows})
		if (s+1)%(joinSChunks/joinFChunks) != 0 {
			continue
		}
		gen = int64(len(in.chunks) + 1)
		base := int64(0)
		if fID >= joinFChunks*joinChunk/2 {
			base = starPhase2
		}
		rows = make([]*tuple.Tuple, joinChunk)
		for i := range rows {
			rows[i] = tuple.New(tuple.Int(fID),
				tuple.Int(base+rng.Int63n(starKeys)), tuple.Int(base+rng.Int63n(starKeys)), tuple.Int(base+rng.Int63n(starKeys)),
				tuple.Int(gen))
			fID++
		}
		in.chunks = append(in.chunks, joinFeed{"F", rows})
	}
	in.tuples += joinSChunks*joinChunk + joinFChunks*joinChunk
	return in
}

// joinExpect evaluates both queries naively over the input: the 2-way
// result per S row and the 4-way product per fact row.
func joinExpect(in *joinInput) (q2, q4 multiset) {
	byKey := func(rows []*tuple.Tuple) map[int64][]*tuple.Tuple {
		m := make(map[int64][]*tuple.Tuple)
		for _, t := range rows {
			m[t.Vals[0].I] = append(m[t.Vals[0].I], t)
		}
		return m
	}
	r, a, b, c := byKey(in.r), byKey(in.a), byKey(in.b), byKey(in.c)
	for _, ch := range in.chunks {
		for _, t := range ch.rows {
			v := t.Vals
			if ch.stream == "S" {
				for _, rt := range r[v[0].I] {
					q2.add(v[1].I, rt.Vals[1].I, v[2].I, rt.Vals[2].I)
				}
				continue
			}
			for _, at := range a[v[1].I] {
				for _, bt := range b[v[2].I] {
					for _, ct := range c[v[3].I] {
						q4.add(v[0].I, at.Vals[1].I, bt.Vals[1].I, ct.Vals[1].I, v[4].I)
					}
				}
			}
		}
	}
	return q2, q4
}

// collector is an in-process client of one query: a sink that digests
// every result and times it against the feed time of its newest input.
type collector struct {
	mu     sync.Mutex
	got    multiset
	lat    latencies
	last   time.Time // receipt of the newest result
	n      atomic.Int64
	genCol []int                     // columns holding gen values
	due    func(gen int64) time.Time // due time of a gen value
	bucket func(gen int64) int       // latency bucket of a gen value, < 0 for none; nil for one bucket
	onID   func(id int64)            // optional: sees column 0 of each result
}

func (c *collector) sink(t *tuple.Tuple) {
	now := time.Now()
	gen := int64(-1)
	for _, col := range c.genCol {
		if g := t.Vals[col].AsInt(); g > gen {
			gen = g
		}
	}
	h := tupleHash(t)
	c.mu.Lock()
	c.got.n++
	c.got.sum += h
	b := 0
	if c.bucket != nil {
		b = c.bucket(gen)
	}
	if b >= 0 {
		c.lat.add(b, ms(now.Sub(c.due(gen))))
	}
	if c.onID != nil {
		c.onID(t.Vals[0].AsInt())
	}
	c.last = now
	c.mu.Unlock()
	c.n.Add(1)
}

// tupleHash is rowHash over a result's values, without allocating.
func tupleHash(t *tuple.Tuple) uint64 {
	var buf [8]int64
	vals := buf[:0]
	for _, v := range t.Vals {
		vals = append(vals, v.AsInt())
	}
	return rowHash(vals...)
}

// joinEngine is one trial's set-up engine.
type joinEngine struct {
	eng        *core.Engine
	q2, q4     *core.RunningQuery
	c2, c4     *collector
	feedStarts []time.Time // by gen (chunk index)
}

func newJoinEngine(rec *spanRec) (*joinEngine, error) {
	je := &joinEngine{eng: core.NewEngine(core.Options{})}
	mk := func(name string, cols ...string) error {
		tc := make([]tuple.Column, len(cols))
		for i, c := range cols {
			tc[i] = tuple.Column{Name: c, Kind: tuple.KindInt}
		}
		return je.eng.CreateStream(name, tuple.NewSchema(name, tc...), -1)
	}
	for _, s := range []struct {
		name string
		cols []string
	}{
		{"S", []string{"k", "v", "gen"}}, {"R", []string{"k", "w", "gen"}},
		{"F", []string{"id", "a", "b", "c", "gen"}},
		{"A", []string{"a", "va", "gen"}}, {"B", []string{"b", "vb", "gen"}}, {"C", []string{"c", "vc", "gen"}},
	} {
		if err := mk(s.name, s.cols...); err != nil {
			je.eng.Stop()
			return nil, err
		}
	}
	due := func(gen int64) time.Time { return je.feedStarts[gen] }
	je.c2 = &collector{genCol: []int{2, 3}, due: due}
	je.c4 = &collector{genCol: []int{4}, due: due}
	var err error
	if je.q2, err = register(je.eng, rec, joinQuery2); err == nil {
		je.q4, err = register(je.eng, rec, joinQuery4)
	}
	if err != nil {
		je.eng.Stop()
		return nil, err
	}
	je.q2.AddSink(je.c2.sink)
	je.q4.AddSink(je.c4.sink)
	return je, nil
}

// register calls Engine.Register, inside a span when tracing.
func register(eng *core.Engine, rec *spanRec, text string) (*core.RunningQuery, error) {
	if rec == nil {
		return eng.Register(text)
	}
	sp := rec.begin("core.register", -1, 0)
	q, err := eng.Register(text)
	rec.end(sp)
	return q, err
}

// joinTrial is the outcome of one trial's timed window.
type joinTrial struct {
	window   time.Duration // first feed to last expected result
	tps      float64
	lat      []float64
	cost     cost
	got2     multiset
	got4     multiset
	complete bool
}

// feed runs the timed window: build sides, then every data chunk, then a
// wait for the last expected result.
func (je *joinEngine) feed(in *joinInput, want2, want4 int64, rec *spanRec) (*joinTrial, error) {
	je.feedStarts = make([]time.Time, len(in.chunks)+1)
	tr := &joinTrial{}
	before := readUsage()
	start := time.Now()
	je.feedStarts[0] = start
	root := -1
	if rec != nil {
		root = rec.begin("harness.trial", -1, 0)
	}
	feed := func(stream string, rows []*tuple.Tuple, id int64) error {
		if rec == nil {
			return je.eng.FeedMany(stream, rows)
		}
		sp := rec.begin("core.feed", root, id)
		err := je.eng.FeedMany(stream, rows)
		rec.end(sp)
		return err
	}
	for _, b := range []struct {
		s    string
		rows []*tuple.Tuple
	}{{"R", in.r}, {"A", in.a}, {"B", in.b}, {"C", in.c}} {
		if err := feed(b.s, b.rows, 0); err != nil {
			return nil, err
		}
	}
	for i, ch := range in.chunks {
		je.feedStarts[i+1] = time.Now()
		if err := feed(ch.stream, ch.rows, int64(i+1)); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(joinDeadline)
	for (je.c2.n.Load() < want2 || je.c4.n.Load() < want4) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	// Late extras would show as a count above the expected one.
	time.Sleep(2 * time.Millisecond)
	if rec != nil {
		rec.end(root)
	}
	after := readUsage()
	tr.cost.add(before, after)
	je.c2.mu.Lock()
	je.c4.mu.Lock()
	defer je.c2.mu.Unlock()
	defer je.c4.mu.Unlock()
	last := je.c2.last
	if je.c4.last.After(last) {
		last = je.c4.last
	}
	tr.complete = je.c2.got.n >= want2 && je.c4.got.n >= want4
	tr.window = last.Sub(start)
	if !tr.complete {
		tr.window = joinDeadline
	}
	tr.tps = float64(in.tuples) / tr.window.Seconds()
	for _, c := range []*collector{je.c2, je.c4} {
		for _, b := range c.lat.buckets {
			tr.lat = append(tr.lat, b...)
		}
	}
	tr.got2, tr.got4 = je.c2.got, je.c4.got
	return tr, nil
}

// joinRun holds everything measured over a sequence of trials.
type joinRun struct {
	chk    check
	setup  []float64
	tps    []float64
	lat    latencies
	cost   cost
	tuples int64
	peakMB float64
}

// joinTrials runs trials until their timed windows cover seconds. traced
// selects, per trial index, whether that trial runs with the hooks; the
// traced trials' figures come back separately from the others.
func joinTrials(cfg config, h *hooks, traced func(i int) bool) (*joinRun, *joinRun, error) {
	plain, withTrace := &joinRun{}, &joinRun{}
	want2, want4 := joinExpect(joinRows(cfg.seed))
	heap := startHeapPeak()
	var measured time.Duration
	for i := 0; i < 3 || measured.Seconds() < cfg.seconds; i++ {
		run, th := plain, (*hooks)(nil)
		if traced(i) {
			run, th = withTrace, h
		}
		r := th.spans()
		in := joinRows(cfg.seed)
		// Each trial starts from a collected heap, so garbage from the
		// previous trial's engine is not charged to this one.
		runtime.GC()
		start := time.Now()
		je, err := newJoinEngine(r)
		if err != nil {
			return nil, nil, err
		}
		run.setup = append(run.setup, time.Since(start).Seconds())
		th.started(je.eng)
		tr, err := je.feed(in, want2.n, want4.n, r)
		if err != nil {
			je.eng.Stop()
			return nil, nil, err
		}
		th.inspect(je.eng)
		je.eng.Stop()
		measured += tr.window
		run.chk.compare(fmt.Sprintf("trial %d 2-way join", i), tr.got2, want2)
		run.chk.compare(fmt.Sprintf("trial %d 4-way star", i), tr.got4, want4)
		if !tr.complete {
			continue
		}
		run.tps = append(run.tps, tr.tps)
		for _, l := range tr.lat {
			run.lat.add(len(run.tps)-1, l)
		}
		run.cost.merge(tr.cost)
		run.tuples += in.tuples
	}
	plain.peakMB = heap.end()
	withTrace.peakMB = plain.peakMB
	return plain, withTrace, nil
}

func runJoin(cfg config) (*output, error) {
	run, _, err := joinTrials(cfg, nil, func(int) bool { return false })
	if err != nil {
		return nil, err
	}
	if run.tuples == 0 {
		return run.chk.output(nil), nil
	}
	run.lat.report("join-saturate")
	return run.chk.output(commonMetrics(run.setup, median(run.tps), &run.lat, run.cost, run.tuples, run.peakMB)), nil
}

// tracedJoin alternates untraced and traced trials, so the tracing
// overhead is the ratio of their median throughputs.
func tracedJoin(cfg config) (*output, error) {
	h := newHooks()
	depth := sampleDepth(h.current.Load)
	plain, traced, err := joinTrials(cfg, h, func(i int) bool { return i%2 == 1 })
	depthMax := depth.end()
	if err != nil {
		return nil, err
	}
	chk := plain.chk
	chk.merge(traced.chk)
	// Closed loop: the generator is never late, only held back; report how
	// long a chunk waited inside FeedMany.
	var waits []float64
	for _, d := range h.rec.selfTimes()["core.feed"] {
		waits = append(waits, d/1e6)
	}
	lr := &layerRun{
		name: "join-saturate", h: h, tuples: float64(traced.tuples), depthMax: depthMax,
		genLate:  quantile(waits, 0.99),
		overhead: (ratio(median(plain.tps), median(traced.tps)) - 1) * 100,
		replay:   joinReplayRows(cfg.seed),
	}
	m, err := layerReport(cfg.seed, lr)
	if err != nil {
		return nil, err
	}
	m["result.latency_p99_ms"] = metric{plain.lat.p99(), "ms"}
	return chk.output(m), nil
}

// joinReplayRows are the S rows of join-saturate.
func joinReplayRows(seed int64) replayRows {
	return replayRows{
		stream: "S",
		schema: intSchema("S", joinStreams["S"]...),
		rows: func() []*tuple.Tuple {
			var out []*tuple.Tuple
			for _, ch := range joinRows(seed).chunks {
				if ch.stream == "S" {
					out = append(out, ch.rows...)
				}
			}
			return out
		},
		queries: []string{joinQuery2, joinQuery4},
	}
}
