package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"telegraphcq/internal/core"
	"telegraphcq/internal/tuple"
)

// shared-window: an in-process open loop feeds packet stream P at a fixed
// rate beside a host stream H that announces one new host a second, through
// 256 point selections (one CACQ class of grouped filters), 16 P⋈H
// equijoins that differ in their H selection, 4 sliding-window aggregates,
// and query churn: every churn period one churned selection is
// deregistered and a fresh one registered. The open loop is cut into
// rounds, each followed by a burst of P rows fed flat out: the bursts
// measure the engine's capacity, which the fixed rate cannot show, and
// spread over the run they sample its GC cycles and the host's slow spells
// instead of meeting one or none.
const (
	sharedRate      = 2000 // P rows per second in the open loop
	sharedInterval  = time.Second / sharedRate
	sharedRounds    = 8 // each an open-loop stretch, then a flat-out burst
	sharedHosts     = 64
	sharedPorts     = 1024
	sharedStatic    = 256                    // point selections on ports 0..255
	sharedZones     = 16                     // join queries, one per H zone
	sharedChurnLive = 8                      // churned selections alive at a time
	sharedPeriod    = 100 * time.Millisecond // churn period, in open-loop time
	sharedHPeriod   = time.Second            // H row period, in open-loop time
	sharedSetups    = 96
	sharedWidth     = 1000 // rows per window instance
	sharedSlide     = 100
)

// sharedAggs are the four window aggregates; each reports MAX(gen) as its
// second column so its result latency is timed from the newest row.
var sharedAggs = []string{"COUNT(*)", "SUM(len)", "MIN(len)", "MAX(len)"}

// sharedEvent is one step of the open-loop schedule.
type sharedEvent struct {
	due    time.Duration
	stream string // "P" or "H"; "" for a churn step
	row    *tuple.Tuple
	port   int64 // churn: port of the fresh selection
}

// sharedShape is what set-up needs of a run's input, known from the seed
// and the window length before the rows are generated. The P rows fall
// into sharedRounds rounds of roundRows rows, the last taking the odd
// ones; each round feeds its first roundRows/2 rows in the open loop and
// the rest as one flat-out burst.
type sharedShape struct {
	rows      int // P rows
	roundRows int
	ports     []int64 // initial churned selections
}

// newSharedShape takes the first draws of the seed's generator.
func newSharedShape(rng *rand.Rand, seconds float64) sharedShape {
	// Whole window slides plus half a slide, so the last instance that
	// fires is unambiguous.
	s := sharedShape{rows: int(seconds*sharedRate)/sharedSlide*sharedSlide + sharedSlide/2}
	s.roundRows = s.rows / sharedRounds
	for i := 0; i < sharedChurnLive; i++ {
		s.ports = append(s.ports, sharedStatic+rng.Int63n(sharedPorts-sharedStatic))
	}
	return s
}

// round returns the round of P row i and whether the row is in its burst.
func (s sharedShape) round(i int) (r int, burst bool) {
	r = min(i/s.roundRows, sharedRounds-1)
	return r, i-r*s.roundRows >= s.roundRows/2
}

// burst returns the P index range [lo, hi) of round r's burst.
func (s sharedShape) burst(r int) (lo, hi int) {
	lo, hi = r*s.roundRows+s.roundRows/2, (r+1)*s.roundRows
	if r == sharedRounds-1 {
		hi = s.rows
	}
	return lo, hi
}

// sharedInput is a run's generated input. P row i has gen i*sharedInterval
// in µs: its due time on its round's schedule clock, which the feeder
// starts at the round's first row. Burst rows keep the pattern, but their
// gen values are not due times.
type sharedInput struct {
	sharedShape
	p      []*tuple.Tuple  // id, host, port, len, gen
	h      []*tuple.Tuple  // host, zone, gen
	events [][]sharedEvent // per round, its open-loop stretch
}

func sharedRows(seed int64, seconds float64) *sharedInput {
	rng := rand.New(rand.NewSource(seed))
	in := &sharedInput{sharedShape: newSharedShape(rng, seconds), events: make([][]sharedEvent, sharedRounds)}
	for k := 0; k < sharedHosts; k++ {
		t := tuple.New(tuple.Int(int64(k)), tuple.Int(int64(k%sharedZones)), tuple.Int(0))
		in.h = append(in.h, t)
		in.events[0] = append(in.events[0], sharedEvent{due: 0, stream: "H", row: t})
	}
	// Churn steps fall mid-period and H rows a quarter into each second of
	// open-loop time, which stands still during bursts; each goes out just
	// before the P row due at that time. Each H row announces a new host,
	// which P rows draw from afterwards: the fleet grows, and no H row
	// finds a backlog of P rows to join with at once.
	nextChurn, nextH := sharedPeriod/2, sharedHPeriod/4
	open := time.Duration(0)
	for i := 0; i < in.rows; i++ {
		due := time.Duration(i) * sharedInterval
		r, burst := in.round(i)
		if !burst {
			for ; nextH <= open; nextH += sharedHPeriod {
				t := tuple.New(tuple.Int(int64(len(in.h))), tuple.Int(rng.Int63n(sharedZones)), tuple.Int(due.Microseconds()))
				in.h = append(in.h, t)
				in.events[r] = append(in.events[r], sharedEvent{due: due, stream: "H", row: t})
			}
			for ; nextChurn <= open; nextChurn += sharedPeriod {
				in.events[r] = append(in.events[r], sharedEvent{due: due, port: sharedStatic + rng.Int63n(sharedPorts-sharedStatic)})
			}
			open += sharedInterval
		}
		t := tuple.New(tuple.Int(int64(i)), tuple.Int(rng.Int63n(int64(len(in.h)))), tuple.Int(rng.Int63n(sharedPorts)),
			tuple.Int(40+rng.Int63n(1460)), tuple.Int(due.Microseconds()))
		in.p = append(in.p, t)
		if !burst {
			in.events[r] = append(in.events[r], sharedEvent{due: due, stream: "P", row: t})
		}
	}
	return in
}

func selectionSQL(port int64) string {
	return fmt.Sprintf("SELECT id, gen FROM P WHERE port = %d", port)
}

func joinSQL(zone int) string {
	return fmt.Sprintf("SELECT P.id, H.host, P.gen, H.gen FROM P, H WHERE P.host = H.host AND H.zone = %d", zone)
}

// windowSQL slides a 1000-row window by 100 rows up to the last instance
// the input fills. The loop is bounded because a forever loop never lets
// Engine.Stop return: once its inputs close, the window runtime fires
// empty instances without end inside one step.
func windowSQL(agg string, rows int) string {
	return fmt.Sprintf("SELECT %s, MAX(gen) FROM P for (t = %d; t <= %d; t += %d) { WindowIs(P, t - %d, t); }",
		agg, sharedSlide, rows, sharedSlide, sharedWidth-1)
}

// churned is one churned selection's life: the P index range in which it
// must see every match, and the wider range it may see matches from.
type churned struct {
	port     int64
	q        *core.RunningQuery
	c        *collector
	mustLo   int64 // fed after registration
	mayLo    int64 // not yet processed by the class at registration
	mustHi   int64 // processed by the class before deregistration
	mayHi    int64 // fed before deregistration
	received []int64
}

type sharedEngine struct {
	eng     *core.Engine
	static  []*collector
	joins   []*collector
	windows []*collector
	churn   []*churned
	done    []*churned
	// processed is one past the highest P id any static selection has
	// received: the class handles P in arrival order, so every row below
	// it has been through the class's filters.
	processed atomic.Int64
	shape     sharedShape
	// roundT0[r] is the wall time, in Unix ns, at which round r's schedule
	// clock read 0: its open-loop rows are due at roundT0[r] + gen.
	roundT0 [sharedRounds]atomic.Int64
}

func (se *sharedEngine) due(gen int64) time.Time {
	r, _ := se.shape.round(int(gen / sharedInterval.Microseconds()))
	return time.Unix(0, se.roundT0[r].Load()).Add(time.Duration(gen) * time.Microsecond)
}

// bucket is a result's latency bucket: one per second of schedule time,
// none for a result of a burst, whose gen values are not due times.
func (se *sharedEngine) bucket(gen int64) int {
	if _, burst := se.shape.round(int(gen / sharedInterval.Microseconds())); burst {
		return -1
	}
	return int(gen / 1e6)
}

// tracked are the standing queries whose expected results are known per
// round: every static selection, join and window, in that order.
func (se *sharedEngine) tracked() []*collector {
	return append(append(append([]*collector(nil), se.static...), se.joins...), se.windows...)
}

func newSharedEngine(in sharedShape, rec *spanRec) (*sharedEngine, error) {
	se := &sharedEngine{eng: core.NewEngine(core.Options{}), shape: in}
	cols := func(names ...string) []tuple.Column {
		out := make([]tuple.Column, len(names))
		for i, n := range names {
			out[i] = tuple.Column{Name: n, Kind: tuple.KindInt}
		}
		return out
	}
	if err := se.eng.CreateStream("P", tuple.NewSchema("P", cols("id", "host", "port", "len", "gen")...), -1); err != nil {
		return nil, err
	}
	if err := se.eng.CreateStream("H", tuple.NewSchema("H", cols("host", "zone", "gen")...), -1); err != nil {
		return nil, err
	}
	add := func(text string, genCol ...int) (*core.RunningQuery, *collector, error) {
		q, err := register(se.eng, rec, text)
		if err != nil {
			return nil, nil, fmt.Errorf("register %q: %w", text, err)
		}
		c := &collector{genCol: genCol, due: se.due, bucket: se.bucket}
		q.AddSink(c.sink)
		return q, c, nil
	}
	for port := int64(0); port < sharedStatic; port++ {
		_, c, err := add(selectionSQL(port), 1)
		if err != nil {
			return nil, err
		}
		c.onID = se.observe
		se.static = append(se.static, c)
	}
	for z := 0; z < sharedZones; z++ {
		_, c, err := add(joinSQL(z), 2, 3)
		if err != nil {
			return nil, err
		}
		se.joins = append(se.joins, c)
	}
	for _, agg := range sharedAggs {
		_, c, err := add(windowSQL(agg, in.rows), 1)
		if err != nil {
			return nil, err
		}
		se.windows = append(se.windows, c)
	}
	for _, port := range in.ports {
		q, c, err := add(selectionSQL(port), 1)
		if err != nil {
			return nil, err
		}
		ch := &churned{port: port, q: q, c: c, mustLo: 0, mayLo: 0}
		c.onID = ch.record
		se.churn = append(se.churn, ch)
	}
	return se, nil
}

// observe advances the processed watermark from a static selection result.
func (se *sharedEngine) observe(id int64) {
	for {
		cur := se.processed.Load()
		if id+1 <= cur || se.processed.CompareAndSwap(cur, id+1) {
			return
		}
	}
}

func (ch *churned) record(id int64) { ch.received = append(ch.received, id) }

// sharedRun is everything one measured window produced.
type sharedRun struct {
	chk     check
	setup   []float64
	tps     float64
	lat     latencies
	cost    cost
	tuples  int64
	peakMB  float64
	genLate float64
}

// sharedMeasure sets the workload up, runs its rounds and checks every
// result. With hooks it records spans around each feed and churn call and
// reads the engine's counters after the window.
func sharedMeasure(cfg config, h *hooks) (*sharedRun, error) {
	rec := h.spans()
	run := &sharedRun{}
	// The set-ups run before the rows are generated, so each starts from
	// the same small heap whatever the window's length.
	shape := newSharedShape(rand.New(rand.NewSource(cfg.seed)), cfg.seconds)
	setup, se, err := setupTimes(sharedSetups,
		func() (*sharedEngine, error) { return newSharedEngine(shape, rec) },
		func(se *sharedEngine) { se.eng.Stop() })
	if err != nil {
		return nil, err
	}
	defer se.eng.Stop()
	in := sharedRows(cfg.seed, cfg.seconds)
	run.setup = setup
	h.started(se.eng)
	want := sharedExpect(in)

	// Start the window from a collected heap, so the set-ups' garbage is
	// not charged to it.
	runtime.GC()
	heap := startHeapPeak()
	before := readUsage()
	pace := newPacer()
	fedP := int64(0)
	// Rows due by the time the generator wakes go out in one FeedMany per
	// stream run, at most 64 rows each.
	batch := make([]*tuple.Tuple, 0, 64)
	stream := ""
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		var sp int
		if rec != nil {
			sp = rec.begin("core.feed", -1, batch[0].Vals[len(batch[0].Vals)-1].I)
		}
		err := se.eng.FeedMany(stream, batch)
		if rec != nil {
			rec.end(sp)
		}
		if stream == "P" {
			fedP += int64(len(batch))
		}
		batch = batch[:0]
		return err
	}
	var burstRates []float64
	for r, evs := range in.events {
		// The round's schedule clock reads its first row's due time now.
		pace.t0 = time.Now().Add(-time.Duration(r*in.roundRows) * sharedInterval)
		se.roundT0[r].Store(pace.t0.UnixNano())
		for i := 0; i < len(evs); {
			pace.wait(evs[i].due)
			now := time.Since(pace.t0)
			for ; i < len(evs) && evs[i].due <= now; i++ {
				ev := evs[i]
				if len(batch) > 0 && (ev.stream != stream || len(batch) == cap(batch)) {
					if err := flush(); err != nil {
						return nil, err
					}
				}
				if ev.stream != "" {
					stream = ev.stream
					batch = append(batch, ev.row)
				} else {
					if err := se.churnStep(ev.port, fedP, rec); err != nil {
						return nil, err
					}
				}
			}
			if err := flush(); err != nil {
				return nil, err
			}
		}
		// Flat out: the round's burst in FeedMany calls of cap(batch) rows,
		// as fast as back-pressure allows, timed from its first feed to the
		// newest result it gives. Throughput is the median over bursts of
		// their rates. Each burst starts from a collected heap, so its time
		// is the engine's work, not whichever GC cycle the open loop left
		// running; once the heap has grown past the first rounds, a burst
		// allocates less than the heap holds and no cycle falls in it. GC
		// shows in the CPU and allocation metrics instead.
		runtime.GC()
		lo, hi := in.burst(r)
		start := time.Now()
		stream = "P"
		for i := lo; i < hi; i += cap(batch) {
			batch = append(batch, in.p[i:min(i+cap(batch), hi)]...)
			if err := flush(); err != nil {
				return nil, err
			}
		}
		burstRates = append(burstRates, float64(hi-lo)/se.await(want.marks[r], 30*time.Second).Sub(start).Seconds())
	}
	time.Sleep(10 * time.Millisecond) // late extras show as a surplus
	after := readUsage()
	run.cost.add(before, after)
	run.peakMB = heap.end()
	run.genLate = pace.lateP99("shared-window")
	h.inspect(se.eng)
	run.tuples = int64(len(in.p) + len(in.h))
	se.verify(in, want, run)
	run.tps = median(burstRates)
	return run, nil
}

// churnStep deregisters the oldest churned selection and registers a fresh
// one on port, between two feeds of the single feeding goroutine.
func (se *sharedEngine) churnStep(port, fedP int64, rec *spanRec) error {
	old := se.churn[0]
	se.churn = se.churn[1:]
	old.mustHi = se.processed.Load()
	old.mayHi = fedP
	var sp int
	if rec != nil {
		sp = rec.begin("core.deregister", -1, fedP)
	}
	err := se.eng.Deregister(old.q.ID)
	if rec != nil {
		rec.end(sp)
	}
	if err != nil {
		return err
	}
	se.done = append(se.done, old)

	ch := &churned{port: port, mayLo: se.processed.Load(), mustLo: fedP}
	q, err := register(se.eng, rec, selectionSQL(port))
	if err != nil {
		return err
	}
	ch.q = q
	ch.c = &collector{genCol: []int{1}, due: se.due, bucket: se.bucket, onID: ch.record}
	q.AddSink(ch.c.sink)
	se.churn = append(se.churn, ch)
	return nil
}

// sharedWant holds the reference results of every standing query.
type sharedWant struct {
	static  []multiset
	joins   []multiset
	windows []multiset
	byPort  map[int64][]int64 // P ids per port, in order
	// marks[r] are the result counts of the tracked queries once round r's
	// burst has been processed.
	marks [][]int64
}

// sharedExpect evaluates every standing query naively over the input.
func sharedExpect(in *sharedInput) *sharedWant {
	w := &sharedWant{
		static:  make([]multiset, sharedStatic),
		joins:   make([]multiset, sharedZones),
		windows: make([]multiset, len(sharedAggs)),
		byPort:  make(map[int64][]int64),
	}
	for i, p := range in.p {
		id, port, gen := p.Vals[0].I, p.Vals[2].I, p.Vals[4].I
		w.byPort[port] = append(w.byPort[port], id)
		if port < sharedStatic {
			w.static[port].add(id, gen)
		}
		for _, h := range in.h {
			if h.Vals[0].I == p.Vals[1].I {
				w.joins[h.Vals[1].I].add(id, h.Vals[0].I, gen, h.Vals[2].I)
			}
		}
		if r := len(w.marks); r < sharedRounds {
			if _, hi := in.burst(r); i+1 == hi {
				var mark []int64
				for _, m := range append(append([]multiset(nil), w.static...), w.joins...) {
					mark = append(mark, m.n)
				}
				for range sharedAggs {
					// Instances t < hi: one ending on the burst's last row
					// might fire a step later.
					mark = append(mark, int64((hi-1)/sharedSlide))
				}
				w.marks = append(w.marks, mark)
			}
		}
	}
	// Instance t covers arrival positions t-999..t (1-based) and fires
	// once position t has arrived.
	for t := sharedSlide; t <= len(in.p); t += sharedSlide {
		lo := t - sharedWidth
		if lo < 0 {
			lo = 0
		}
		rows := in.p[lo:t]
		sum, mn, mx := int64(0), rows[0].Vals[3].I, rows[0].Vals[3].I
		for _, r := range rows {
			l := r.Vals[3].I
			sum += l
			mn, mx = min(mn, l), max(mx, l)
		}
		gen := rows[len(rows)-1].Vals[4].I
		for i, v := range []int64{int64(len(rows)), sum, mn, mx} {
			w.windows[i].add(v, gen)
		}
	}
	return w
}

// await waits until each tracked query has at least its count in mark and
// returns the receipt time of the newest result, or the time timeout ran
// out. Each query delivers in input order, so reaching a round's mark
// means every result of the round is in.
func (se *sharedEngine) await(mark []int64, timeout time.Duration) time.Time {
	tracked := se.tracked()
	deadline := time.Now().Add(timeout)
	for i := 0; i < len(tracked); {
		if tracked[i].n.Load() >= mark[i] {
			i++
			continue
		}
		if now := time.Now(); now.After(deadline) {
			return now // the reference check reports what is missing
		}
		time.Sleep(100 * time.Microsecond)
	}
	var last time.Time
	for _, c := range tracked {
		c.mu.Lock()
		if c.last.After(last) {
			last = c.last
		}
		c.mu.Unlock()
	}
	return last
}

// verify compares every query's results with the reference and merges the
// latencies.
func (se *sharedEngine) verify(in *sharedInput, w *sharedWant, run *sharedRun) {
	take := func(what string, c *collector, want multiset) {
		c.mu.Lock()
		defer c.mu.Unlock()
		run.chk.compare(what, c.got, want)
		run.lat.merge(&c.lat)
	}
	for i, c := range se.static {
		take(fmt.Sprintf("selection port=%d", i), c, w.static[i])
	}
	for i, c := range se.joins {
		take(fmt.Sprintf("join zone=%d", i), c, w.joins[i])
	}
	for i, c := range se.windows {
		take(fmt.Sprintf("window %s", sharedAggs[i]), c, w.windows[i])
	}
	n := int64(len(in.p))
	for _, ch := range se.churn {
		ch.mustHi, ch.mayHi = n, n
	}
	for _, ch := range append(se.done, se.churn...) {
		ch.c.mu.Lock()
		run.lat.merge(&ch.c.lat)
		got, received := ch.c.got, append([]int64(nil), ch.received...)
		ch.c.mu.Unlock()
		attempted, failed := ch.check(in, w.byPort[ch.port], got, received)
		run.chk.attempted += attempted
		run.chk.fail(fmt.Sprintf("churned selection port=%d", ch.port), failed)
	}
}

// check validates a churned selection: every row it got matches its
// predicate, arrived at most once and lies in [mayLo, mayHi); every match in
// [mustLo, mustHi) is present. It returns the number of certain matches
// (the results attempted) and of failed results.
func (ch *churned) check(in *sharedInput, ids []int64, got multiset, received []int64) (attempted, failed int64) {
	seen := make(map[int64]bool, len(received))
	var digest multiset
	for _, id := range received {
		if id < ch.mayLo || id >= ch.mayHi || in.p[id].Vals[2].I != ch.port || seen[id] {
			failed++
			continue
		}
		seen[id] = true
		digest.add(id, in.p[id].Vals[4].I)
	}
	if digest != got && failed == 0 {
		failed++ // a row whose gen does not match its id
	}
	for _, id := range ids {
		if id >= ch.mustLo && id < ch.mustHi {
			attempted++
			if !seen[id] {
				failed++
			}
		}
	}
	return attempted, failed
}

func runShared(cfg config) (*output, error) {
	run, err := sharedMeasure(cfg, nil)
	if err != nil {
		return nil, err
	}
	run.lat.report("shared-window")
	return run.chk.output(commonMetrics(run.setup, run.tps, &run.lat, run.cost, run.tuples, run.peakMB)), nil
}

// tracedShared runs the workload untraced, then traced, each for half the
// window; the tracing overhead compares their CPU per input tuple.
func tracedShared(cfg config) (*output, error) {
	half := config{seed: cfg.seed, seconds: cfg.seconds / 2}
	plain, err := sharedMeasure(half, nil)
	if err != nil {
		return nil, err
	}
	h := newHooks()
	depth := sampleDepth(h.current.Load)
	traced, err := sharedMeasure(half, h)
	depthMax := depth.end()
	if err != nil {
		return nil, err
	}
	lr := &layerRun{
		name: "shared-window", h: h, tuples: float64(traced.tuples), depthMax: depthMax,
		genLate:  traced.genLate,
		overhead: overheadPct(plain.cost, plain.tuples, traced.cost, traced.tuples),
		replay:   sharedReplayRows(cfg.seed),
	}
	m, err := layerReport(cfg.seed, lr)
	if err != nil {
		return nil, err
	}
	m["result.latency_p99_ms"] = metric{plain.lat.p99(), "ms"}
	traced.chk.merge(plain.chk)
	return traced.chk.output(m), nil
}

// sharedReplayRows are shared-window's P rows and its distinct query texts.
func sharedReplayRows(seed int64) replayRows {
	queries := []string{selectionSQL(0), joinSQL(0)}
	for _, agg := range sharedAggs {
		queries = append(queries, windowSQL(agg, 40000))
	}
	return replayRows{
		stream:  "P",
		schema:  intSchema("P", sharedStreams["P"]...),
		rows:    func() []*tuple.Tuple { return sharedRows(seed, 4).p },
		queries: queries,
	}
}
