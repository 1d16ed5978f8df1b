package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/cacq"
	"telegraphcq/internal/catalog"
	"telegraphcq/internal/core"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/gfilter"
	"telegraphcq/internal/ingress"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/server"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// The traced run measures each layer only from outside: spans around the
// benchmark's own calls into public functions, the engine's registry
// counters read after the window, and replays of generated inputs through
// each inner layer's public API, each replay inside its own spans. Replays of layers shaped by one workload
// (the star join, the 256 selections, the sliding windows) use that
// workload's generator with the run's seed; the others use the rows of the
// workload being traced.

// counters sums registry series by family across their labels.
type counters map[string]float64

func readCounters(eng *core.Engine) counters {
	c := counters{}
	for _, s := range eng.Metrics().Snapshot() {
		fam, _, _ := strings.Cut(s.Name, "{")
		c[fam] += s.Value
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowFire returns the mean over windowed queries of the fire-time p50
// and p99, in ms; ok is false without windowed queries.
func windowFire(eng *core.Engine) (p50, p99 float64, ok bool) {
	var n float64
	for _, s := range eng.Metrics().Snapshot() {
		switch {
		case strings.HasPrefix(s.Name, "tcq_window_fire_seconds_p50_seconds"):
			p50 += s.Value * 1e3
			n++
		case strings.HasPrefix(s.Name, "tcq_window_fire_seconds_p99_seconds"):
			p99 += s.Value * 1e3
		}
	}
	if n == 0 {
		return 0, 0, false
	}
	return p50 / n, p99 / n, true
}

// depthSampler polls the engine's queue-depth gauges during the traced
// window and keeps the highest reading.
type depthSampler struct {
	stop chan struct{}
	done chan struct{}
	max  float64
}

func sampleDepth(eng func() *core.Engine) *depthSampler {
	d := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
			}
			e := eng()
			if e == nil {
				continue
			}
			for _, s := range e.Metrics().Snapshot() {
				if (strings.HasPrefix(s.Name, "tcq_query_queue_depth") || strings.HasPrefix(s.Name, "tcq_ingress_queue_depth")) && s.Value > d.max {
					d.max = s.Value
				}
			}
		}
	}()
	return d
}

func (d *depthSampler) end() float64 {
	close(d.stop)
	<-d.done
	return d.max
}

// hooks connect a workload run to the traced report. A nil *hooks is the
// untraced run.
type hooks struct {
	rec     *spanRec
	current atomic.Pointer[core.Engine] // engine in use, for the depth sampler
	ctr     counters                    // summed over inspected engines
	fire50  float64
	fire99  float64
	windows bool
}

func newHooks() *hooks { return &hooks{rec: newSpanRec(), ctr: counters{}} }

// spans returns the span recorder, nil when untraced.
func (h *hooks) spans() *spanRec {
	if h == nil {
		return nil
	}
	return h.rec
}

func (h *hooks) started(eng *core.Engine) {
	if h != nil {
		h.current.Store(eng)
	}
}

// inspect reads an engine's counters after its window, before it stops.
func (h *hooks) inspect(eng *core.Engine) {
	if h == nil {
		return
	}
	h.current.Store(nil)
	for k, v := range readCounters(eng) {
		h.ctr[k] += v
	}
	if p50, p99, ok := windowFire(eng); ok {
		h.fire50, h.fire99, h.windows = p50, p99, true
	}
}

// layerRun is what the traced workload run hands to the layer report.
type layerRun struct {
	name     string
	h        *hooks
	tuples   float64
	depthMax float64
	genLate  float64
	overhead float64 // % cost of tracing, traced vs untraced
	dropped  float64 // results lost at the client under overload
	replay   replayRows
}

// replayRows are the traced workload's own rows for the shape-neutral
// replays: ingress, core feed, fjord and egress.
type replayRows struct {
	stream  string
	schema  *tuple.Schema
	rows    func() []*tuple.Tuple // fresh narrow rows
	queries []string
}

func spanQuantiles(rec *spanRec, name string, unit time.Duration) (p50, p99 float64) {
	xs := rec.selfTimes()[name]
	for i := range xs {
		xs[i] /= float64(unit)
	}
	return quantile(append([]float64(nil), xs...), 0.5), quantile(xs, 0.99)
}

// layerReport builds the per-layer metrics for a traced run, running every
// replay after the workload has stopped.
func layerReport(seed int64, lr *layerRun) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	rec := lr.h.rec
	// The workload's engines are stopped; collect their heap so the
	// replays do not pay for it.
	runtime.GC()

	// server: the wire workload times its own Client.Feed calls; the
	// in-process workloads replay their rows through a loopback server.
	rtt50, rtt99 := spanQuantiles(rec, "server.feed", time.Microsecond)
	if rtt50 == 0 {
		var err error
		if rtt50, rtt99, err = replayServer(rec, lr.replay); err != nil {
			return nil, err
		}
	}
	put("server.feed_rtt_p50_us", rtt50, "us")
	put("server.feed_rtt_p99_us", rtt99, "us")
	put("server.results_dropped", lr.dropped, "count")

	parse, format, err := replayIngress(rec, lr.replay)
	if err != nil {
		return nil, err
	}
	put("ingress.parse_ns_per_row", parse, "ns")
	put("ingress.format_ns_per_row", format, "ns")

	feed, err := replayCoreFeed(rec, lr.replay)
	if err != nil {
		return nil, err
	}
	put("core.feed_ns_per_tuple", feed, "ns")
	reg50, reg99 := spanQuantiles(rec, "core.register", time.Microsecond)
	put("core.register_p50_us", reg50, "us")
	put("core.register_p99_us", reg99, "us")

	put("fjord.queue_depth_max", lr.depthMax, "count")
	put("fjord.handoff_ns_per_tuple", replayFjord(rec, lr.replay), "ns")

	wake50, wake99 := replayExecutorWake(rec, seed)
	put("executor.wake_p50_us", wake50, "us")
	put("executor.wake_p99_us", wake99, "us")
	put("executor.idle_cpu_share", replayExecutorIdle(rec), "ratio")

	eddyNs, err := replayEddy(rec, seed)
	if err != nil {
		return nil, err
	}
	put("eddy.ns_per_tuple", eddyNs, "ns")
	put("eddy.visits_per_tuple", ratio(lr.h.ctr["tcq_eddy_visits_total"], lr.h.ctr["tcq_eddy_ingested_total"]), "count")

	build, probe, err := replaySteM(rec, seed)
	if err != nil {
		return nil, err
	}
	put("stem.build_ns_per_tuple", build, "ns")
	put("stem.probe_ns_per_tuple", probe, "ns")
	put("stem.matches_per_probe", ratio(lr.h.ctr["tcq_stem_matches_total"], lr.h.ctr["tcq_stem_probes_total"]), "count")

	gf, cq, err := replaySelections(rec, seed)
	if err != nil {
		return nil, err
	}
	put("gfilter.ns_per_tuple", gf, "ns")
	put("cacq.ns_per_tuple", cq, "ns")
	put("cacq.delivered_per_tuple", ratio(lr.h.ctr["tcq_cacq_delivered_total"], lr.tuples), "count")

	add, agg, fire50, fire99 := replayWindow(rec, seed)
	if lr.h.windows {
		fire50, fire99 = lr.h.fire50, lr.h.fire99
	}
	put("window.fire_p50_ms", fire50, "ms")
	put("window.fire_p99_ms", fire99, "ms")
	put("window.add_ns_per_tuple", add, "ns")
	put("ops.aggregate_ns_per_row", agg, "ns")

	put("egress.push_dropped", lr.h.ctr["tcq_egress_push_dropped_total"], "count")
	put("egress.publish_ns_per_row", replayEgress(rec, lr.replay), "ns")

	put("tuple.pool_hit_ratio", ratio(lr.h.ctr["tcq_tuple_pool_hits_total"], lr.h.ctr["tcq_tuple_pool_gets_total"]), "ratio")
	put("tuple.pool_gets_per_tuple", ratio(lr.h.ctr["tcq_tuple_pool_gets_total"], lr.tuples), "count")

	parseUs, err := replaySQL(rec, lr.replay.queries)
	if err != nil {
		return nil, err
	}
	put("sql.parse_us", parseUs, "us")

	put("harness.gen_late_p99_ms", lr.genLate, "ms")
	put("harness.trace_overhead_pct", lr.overhead, "%")

	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err == nil {
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", lr.name, seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	return m, nil
}

func perUnit(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// replayRowsMax bounds each replay's input, so the replays together take a
// few seconds whatever the workload's size.
const replayRowsMax = 16384

func capRows(rows []*tuple.Tuple) []*tuple.Tuple {
	if len(rows) > replayRowsMax {
		return rows[:replayRowsMax]
	}
	return rows
}

// replayServer feeds the workload's rows through a loopback server with no
// queries and returns the Client.Feed round trip p50/p99 in µs.
func replayServer(rec *spanRec, rr replayRows) (p50, p99 float64, err error) {
	eng := core.NewEngine(core.Options{})
	defer eng.Stop()
	if err := eng.CreateStream(rr.stream, rr.schema, -1); err != nil {
		return 0, 0, err
	}
	pm, err := server.Listen(eng, "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer pm.Close()
	c, err := server.Dial(pm.Addr())
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	rows := rr.rows()
	if len(rows) > 4000 {
		rows = rows[:4000]
	}
	var rtts []float64
	for _, t := range rows {
		line := ingress.FormatCSV(t)
		var ferr error
		d := rec.timed("replay.server.feed", func() { ferr = c.Feed(rr.stream, line) })
		if ferr != nil {
			return 0, 0, ferr
		}
		rtts = append(rtts, float64(d.Nanoseconds())/1e3)
	}
	return quantile(append([]float64(nil), rtts...), 0.5), quantile(rtts, 0.99), nil
}

// replayIngress formats the rows as CSV and parses them back.
func replayIngress(rec *spanRec, rr replayRows) (parse, format float64, err error) {
	rows := capRows(rr.rows())
	lines := make([]string, len(rows))
	fd := rec.timed("replay.ingress.format", func() {
		for i, t := range rows {
			lines[i] = ingress.FormatCSV(t)
		}
	})
	var perr error
	pd := rec.timed("replay.ingress.parse", func() {
		for _, l := range lines {
			if _, err := ingress.ParseCSV(rr.schema, l); err != nil {
				perr = err
				return
			}
		}
	})
	return perUnit(pd, len(lines)), perUnit(fd, len(rows)), perr
}

// replayCoreFeed feeds the rows into an engine with no queries, 64 rows
// per FeedMany.
func replayCoreFeed(rec *spanRec, rr replayRows) (float64, error) {
	eng := core.NewEngine(core.Options{})
	defer eng.Stop()
	if err := eng.CreateStream(rr.stream, rr.schema, -1); err != nil {
		return 0, err
	}
	rows := capRows(rr.rows())
	var ferr error
	d := rec.timed("replay.core.feed", func() {
		for lo := 0; lo < len(rows) && ferr == nil; lo += 64 {
			ferr = eng.FeedMany(rr.stream, rows[lo:min(lo+64, len(rows))])
		}
	})
	return perUnit(d, len(rows)), ferr
}

// replayFjord hands the rows from a producer to a consumer goroutine over
// a blocking fjord connection, 64 tuples per SendBatch/RecvBatch.
func replayFjord(rec *spanRec, rr replayRows) float64 {
	rows := capRows(rr.rows())
	conn := fjord.NewConn(fjord.Pull, 4096)
	done := make(chan int)
	go func() {
		buf := make([]*tuple.Tuple, 64)
		n := 0
		for n < len(rows) {
			k := conn.RecvBatch(buf)
			if k == 0 {
				break
			}
			n += k
		}
		done <- n
	}()
	d := rec.timed("replay.fjord.handoff", func() {
		for lo := 0; lo < len(rows); lo += 64 {
			conn.SendBatch(rows[lo:min(lo+64, len(rows))])
		}
		<-done
	})
	conn.Close()
	return perUnit(d, len(rows))
}

// replayExecutorWake measures how long after a flag is set an idle
// executor's DU observes it: the wake-up floor every result pays when the
// engine is idle between arrivals.
func replayExecutorWake(rec *spanRec, seed int64) (p50, p99 float64) {
	x := executor.New(1)
	defer x.Stop()
	var flag atomic.Int64 // set time in ns since t0, 0 when clear
	t0 := time.Now()
	seen := make(chan time.Duration, 1)
	x.Submit([]string{"wake-probe"}, &executor.FuncDU{DUName: "wake-probe", Fn: func() (bool, bool) {
		set := flag.Load()
		if set == 0 {
			return false, false
		}
		flag.Store(0)
		seen <- time.Since(t0) - time.Duration(set)
		return true, false
	}})
	rng := rand.New(rand.NewSource(seed))
	var wakes []float64
	for i := 0; i < 200; i++ {
		// Let the executor fall idle, at a random phase of its sleep.
		time.Sleep(time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond))))
		sp := rec.begin("replay.executor.wake", -1, int64(i))
		flag.Store(int64(time.Since(t0)))
		wakes = append(wakes, float64((<-seen).Nanoseconds())/1e3)
		rec.end(sp)
	}
	return quantile(append([]float64(nil), wakes...), 0.5), quantile(wakes, 0.99)
}

// replayExecutorIdle returns the CPU an engine-sized executor (two EOs,
// one idle DU each) burns while nothing arrives, as a share of one core.
func replayExecutorIdle(rec *spanRec) float64 {
	x := executor.New(2)
	for _, s := range []string{"idle-a", "idle-b"} {
		x.Submit([]string{s}, &executor.FuncDU{DUName: s, Fn: func() (bool, bool) { return false, false }})
	}
	time.Sleep(50 * time.Millisecond)
	before := readUsage()
	wall := rec.timed("replay.executor.idle", func() { time.Sleep(500 * time.Millisecond) })
	cpu := readUsage().cpu - before.cpu
	x.Stop()
	return cpu.Seconds() / wall.Seconds()
}

// bindPlan binds a query over a private catalog of integer-column streams.
func bindPlan(text string, streams map[string][]string) (*sql.Plan, error) {
	cat := catalog.New()
	for name, cols := range streams {
		if _, err := cat.CreateStream(name, intSchema(name, cols...), -1); err != nil {
			return nil, err
		}
	}
	return sql.ParseAndBind(text, cat)
}

func intSchema(name string, cols ...string) *tuple.Schema {
	tc := make([]tuple.Column, len(cols))
	for i, c := range cols {
		tc[i] = tuple.Column{Name: c, Kind: tuple.KindInt}
	}
	return tuple.NewSchema(name, tc...)
}

var joinStreams = map[string][]string{
	"S": {"k", "v", "gen"}, "R": {"k", "w", "gen"}, "F": {"id", "a", "b", "c", "gen"},
	"A": {"a", "va", "gen"}, "B": {"b", "vb", "gen"}, "C": {"c", "vc", "gen"},
}

// joinModules builds one SteM per join stream the way the engine's private
// eddy runtime does: each SteM indexed on its first equijoin column, with
// the predicates whose stored side it is.
func joinModules(plan *sql.Plan) ([]eddy.Module, map[int]*stem.SteM, map[int][]expr.JoinPredicate) {
	layout := plan.Layout
	var modules []eddy.Module
	stems := map[int]*stem.SteM{}
	predsOf := map[int][]expr.JoinPredicate{}
	for s := range layout.Schemas {
		keyCol := -1
		var preds []expr.JoinPredicate
		for _, j := range plan.Joins {
			switch s {
			case j.StreamA:
				preds = append(preds, expr.JoinPredicate{LeftCol: j.ColB, Op: j.Op.Flip(), RightCol: j.ColA})
				if keyCol < 0 {
					keyCol = j.ColA
				}
			case j.StreamB:
				preds = append(preds, expr.JoinPredicate{LeftCol: j.ColA, Op: j.Op, RightCol: j.ColB})
				if keyCol < 0 {
					keyCol = j.ColB
				}
			}
		}
		if preds == nil {
			continue
		}
		st := stem.New(layout.Schemas[s].Relation, tuple.SingleSource(s), layout, stem.WithIndex(keyCol))
		stems[s], predsOf[s] = st, preds
		modules = append(modules, ops.NewSteMModule(st, layout, preds))
	}
	return modules, stems, predsOf
}

// replayEddy routes the star's input through an eddy over its SteMs:
// dimensions build, then facts probe in 64-tuple batches.
func replayEddy(rec *spanRec, seed int64) (float64, error) {
	plan, err := bindPlan(joinQuery4, joinStreams)
	if err != nil {
		return 0, err
	}
	modules, _, _ := joinModules(plan)
	var out int64
	ed := eddy.New(plan.Footprint, eddy.NewLotteryPolicy(seed), func(*tuple.Tuple) { out++ }, modules...)
	in := joinRows(seed)
	pos := map[string]int{}
	for i, e := range plan.Entries {
		pos[e.Name] = i
	}
	var batches []*tuple.Batch
	add := func(stream string, rows []*tuple.Tuple) {
		for lo := 0; lo < len(rows); lo += 64 {
			b := tuple.NewBatch(64)
			for _, t := range rows[lo:min(lo+64, len(rows))] {
				b.Append(plan.Layout.Widen(pos[stream], t))
			}
			batches = append(batches, b)
		}
	}
	add("A", in.a)
	add("B", in.b)
	add("C", in.c)
	n := len(in.a) + len(in.b) + len(in.c)
	for _, ch := range in.chunks {
		if ch.stream == "F" {
			add("F", ch.rows)
			n += len(ch.rows)
		}
	}
	d := rec.timed("replay.eddy.ingest", func() {
		for _, b := range batches {
			ed.IngestBatch(b)
		}
	})
	if want := int64(joinFChunks * joinChunk * 8); out != want {
		return 0, fmt.Errorf("eddy replay: %d star results, want %d", out, want)
	}
	return perUnit(d, n), nil
}

// replaySteM builds the 2-way join's S rows into SteM(S), and probes
// SteM(R) with them, as the join-saturate query does per S tuple.
func replaySteM(rec *spanRec, seed int64) (build, probe float64, err error) {
	plan, err := bindPlan(joinQuery2, joinStreams)
	if err != nil {
		return 0, 0, err
	}
	_, stems, preds := joinModules(plan)
	in := joinRows(seed)
	sPos, rPos := 0, 1
	if plan.Entries[0].Name != "S" {
		sPos, rPos = 1, 0
	}
	var ss, rs []*tuple.Tuple
	for _, ch := range in.chunks {
		if ch.stream == "S" && len(ss) < replayRowsMax {
			for _, t := range ch.rows {
				ss = append(ss, plan.Layout.Widen(sPos, t))
			}
		}
	}
	for _, t := range in.r {
		rs = append(rs, plan.Layout.Widen(rPos, t))
	}
	if err := stems[rPos].BuildBatch(rs); err != nil {
		return 0, 0, err
	}
	var berr error
	bd := rec.timed("replay.stem.build", func() {
		for lo := 0; lo < len(ss) && berr == nil; lo += 64 {
			berr = stems[sPos].BuildBatch(ss[lo:min(lo+64, len(ss))])
		}
	})
	if berr != nil {
		return 0, 0, berr
	}
	// A probe from S carries S's join column; the predicates are the ones
	// stored with SteM(R).
	probeKey := preds[rPos][0].LeftCol
	out := make([]*tuple.Tuple, 0, 64)
	matches := 0
	pd := rec.timed("replay.stem.probe", func() {
		for lo := 0; lo < len(ss); lo += 64 {
			out = stems[rPos].ProbeBatch(ss[lo:min(lo+64, len(ss))], probeKey, preds[rPos], out[:0])
			matches += len(out)
		}
	})
	if matches != len(ss) {
		return 0, 0, fmt.Errorf("stem replay: %d matches, want %d", matches, len(ss))
	}
	return perUnit(bd, len(ss)), perUnit(pd, len(ss)), nil
}

var sharedStreams = map[string][]string{"P": {"id", "host", "port", "len", "gen"}, "H": {"host", "zone", "gen"}}

// replaySelections runs shared-window's P rows through the 256 point
// selections: once through a bare grouped filter, once through a CACQ
// engine holding them as one class.
func replaySelections(rec *spanRec, seed int64) (gf, cq float64, err error) {
	in := sharedRows(seed, 2)
	var plans []*sql.Plan
	for port := int64(0); port < sharedStatic; port++ {
		plan, err := bindPlan(selectionSQL(port), sharedStreams)
		if err != nil {
			return 0, 0, err
		}
		plans = append(plans, plan)
	}
	layout := plans[0].Layout
	sel := plans[0].Selections[0]
	g := gfilter.New(sel.Col, tuple.SingleSource(0))
	for q, p := range plans {
		g.Add(q, p.Selections[0])
	}
	mod := gfilter.NewModule("port", g)
	var batches []*tuple.Batch
	for lo := 0; lo < len(in.p); lo += 64 {
		b := tuple.NewBatch(64)
		for _, t := range in.p[lo:min(lo+64, len(in.p))] {
			w := layout.Widen(0, t)
			w.Queries = tuple.NewBitset(sharedStatic)
			w.Queries.SetAll(sharedStatic)
			b.Append(w)
		}
		batches = append(batches, b)
	}
	gd := rec.timed("replay.gfilter.process", func() {
		for _, b := range batches {
			mod.ProcessBatch(b)
		}
	})

	eng, err := cacq.New(layout, nil, eddy.NewLotteryPolicy(seed))
	if err != nil {
		return 0, 0, err
	}
	var delivered int64
	for _, p := range plans {
		if _, err := eng.AddQuery(p.Footprint, p.Selections, p.Project, func(*tuple.Tuple) { delivered++ }); err != nil {
			return 0, 0, err
		}
	}
	cd := rec.timed("replay.cacq.ingest", func() {
		for lo := 0; lo < len(in.p); lo += 64 {
			eng.IngestBatch(0, in.p[lo:min(lo+64, len(in.p))])
		}
	})
	var want int64
	for _, t := range in.p {
		if t.Vals[2].I < sharedStatic {
			want++
		}
	}
	if delivered != want {
		return 0, 0, fmt.Errorf("cacq replay: delivered %d, want %d", delivered, want)
	}
	return perUnit(gd, len(in.p)), perUnit(cd, len(in.p)), nil
}

// replayWindow slides shared-window's 1000-row window over its P rows:
// buffer appends, then per instance the window extraction and the
// aggregate, then eviction. Fire time is extraction plus aggregation.
func replayWindow(rec *spanRec, seed int64) (add, agg, fire50, fire99 float64) {
	in := sharedRows(seed, 4)
	rows := make([]*tuple.Tuple, len(in.p))
	for i, t := range in.p {
		c := t.Clone()
		c.Seq = int64(i + 1)
		rows[i] = c
	}
	buf := window.NewBuffer(window.Logical)
	a := ops.NewAggregator(nil, ops.AggSpec{Fn: ops.Count}, ops.AggSpec{Fn: ops.Max, Col: 4})
	var addD, aggD time.Duration
	var aggRows int
	var fires []float64
	next := 0
	for t := sharedSlide; t <= len(rows); t += sharedSlide {
		addD += rec.timed("replay.window.add", func() { buf.AddBatch(rows[next:t]) })
		next = t
		var inst []*tuple.Tuple
		fd := rec.timed("replay.window.instance", func() {
			inst = buf.Instance(window.Interval{Stream: "P", Left: int64(t - sharedWidth + 1), Right: int64(t)})
		})
		ad := rec.timed("replay.ops.aggregate", func() { a.Compute(inst) })
		aggD += ad
		aggRows += len(inst)
		fires = append(fires, ms(fd+ad))
		buf.Evict(int64(t - sharedWidth + sharedSlide))
	}
	return perUnit(addD, len(rows)), perUnit(aggD, aggRows),
		quantile(append([]float64(nil), fires...), 0.5), quantile(fires, 0.99)
}

// replayEgress publishes the rows to one push subscriber draining on its
// own goroutine, 64 rows per PublishBatch.
func replayEgress(rec *spanRec, rr replayRows) float64 {
	rows := capRows(rr.rows())
	pe := egress.NewPushEgress()
	id, ch := pe.Subscribe(1024)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range ch {
		}
	}()
	d := rec.timed("replay.egress.publish", func() {
		for lo := 0; lo < len(rows); lo += 64 {
			pe.PublishBatch(rows[lo:min(lo+64, len(rows))])
		}
	})
	pe.Unsubscribe(id)
	wg.Wait()
	return perUnit(d, len(rows))
}

// replaySQL parses each of the workload's query texts 20 times.
func replaySQL(rec *spanRec, queries []string) (float64, error) {
	var perr error
	n := 0
	d := rec.timed("replay.sql.parse", func() {
		for i := 0; i < 20; i++ {
			for _, q := range queries {
				if _, err := sql.Parse(q); err != nil {
					perr = err
				}
				n++
			}
		}
	})
	return perUnit(d, n) / 1e3, perr
}
