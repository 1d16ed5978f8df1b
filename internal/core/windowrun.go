package core

import (
	"fmt"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/ops"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// windowRuntime executes a windowed query with the paper's
// sequence-of-sets semantics (§4.1): for every for-loop instance it
// evaluates the query over each stream's declared window. Stream history
// needed by past or lagging windows is preloaded from the engine's
// spool/history, so newly registered queries can reach back in time
// (PSoup's "new queries over old data").
type windowRuntime struct {
	q      *RunningQuery
	loop   *window.Loop
	layout *tuple.Layout

	// winFor[pos] is the WindowIs declaration index for FROM position
	// pos, or -1 for static tables.
	winFor  []int
	buffers []*window.Buffer // per windowed position
	preSeq  []int64          // max preloaded Seq per position (dedup)
	maxTime []int64          // newest window-time seen per position
	drainer *batchDrain
	pool    *tuple.Pool

	selsFor [][]expr.Predicate // per-position single-stream selections
	agg     *ops.Aggregator
	proj    *ops.Project

	// incAgg is the landmark fast path (§4.1.2): with a fixed left end
	// the window only grows, so aggregates fold in each instance's delta
	// instead of rescanning the whole window, and folded tuples are
	// evicted immediately (no retention).
	incAgg  *ops.IncrementalAggregator
	incUpto int64

	// incJoin is the sliding two-stream join fast path: matches are
	// produced incrementally through SteMs as tuples arrive (the
	// symmetric-join dataflow of Fig. 2) and window instances select from
	// the materialized match buffer, instead of re-joining both windows
	// per instance.
	incJoin *incJoinState

	// fireLat samples the wall time to evaluate and emit one window
	// instance (the query's emission latency).
	fireLat *metrics.Histogram

	nextT    int64
	finished bool
}

const maxLoopInstances = 100000

func newWindowRuntime(q *RunningQuery) (runtime, error) {
	plan := q.Plan
	rt := &windowRuntime{
		q:       q,
		loop:    plan.Loop,
		layout:  plan.Layout,
		winFor:  make([]int, len(plan.Entries)),
		buffers: make([]*window.Buffer, len(plan.Entries)),
		preSeq:  make([]int64, len(plan.Entries)),
		maxTime: make([]int64, len(plan.Entries)),
		pool:    q.engine.recycler,
	}
	rt.fireLat = q.engine.reg.Histogram(
		fmt.Sprintf(`tcq_window_fire_seconds{query="%d"}`, q.ID), 256)

	// Map WindowIs declarations to FROM positions.
	for pos := range plan.Entries {
		rt.winFor[pos] = -1
		ref := plan.Query.From[pos]
		for wi, w := range plan.Loop.Windows {
			if w.Stream == ref.Ref() || w.Stream == ref.Name {
				rt.winFor[pos] = wi
			}
		}
		rt.maxTime[pos] = -1 << 62
	}

	// Partition selections by owning position.
	rt.selsFor = make([][]expr.Predicate, len(plan.Entries))
	for _, p := range plan.Selections {
		pos := plan.Layout.Owner(p.Col)
		rt.selsFor[pos] = append(rt.selsFor[pos], p)
	}

	if plan.HasAgg() {
		rt.agg = ops.NewAggregator(plan.GroupBy, plan.Aggs...)
		if len(plan.Entries) == 1 && plan.Loop.Classify() == window.ShapeLandmark &&
			plan.Loop.Step > 0 {
			rt.incAgg = ops.NewIncrementalAggregator(plan.GroupBy, plan.Aggs...)
			rt.incUpto = -1 << 62
		}
	} else if plan.Project != nil {
		rt.proj = ops.NewProject(plan.Project...)
	}

	// The incremental symmetric-join fast path replaces the per-instance
	// window buffers when the plan shape allows it.
	rt.incJoin = newIncJoin(rt)

	// Preload history for windowed streams.
	for pos, entry := range plan.Entries {
		if rt.winFor[pos] < 0 {
			continue
		}
		if rt.incJoin == nil {
			rt.buffers[pos] = window.NewBuffer(plan.TimeKind)
		}
		st, err := q.engine.stream(entry.Name)
		if err != nil {
			return nil, err
		}
		hist, err := st.historyRange(-1<<62, 1<<62)
		if err != nil {
			return nil, err
		}
		for _, t := range hist {
			rt.absorb(pos, t)
			if t.Seq > rt.preSeq[pos] {
				rt.preSeq[pos] = t.Seq
			}
			if k := rt.key(t); k > rt.maxTime[pos] {
				rt.maxTime[pos] = k
			}
		}
	}

	rt.nextT = plan.Loop.Init
	rt.drainer = newBatchDrain(q.inputs, rt.preSeq, rt.pool, q.engine.opts.BatchSize, 512)
	return rt, nil
}

// absorb routes one raw stream tuple into the runtime's state: the
// incremental join (builds + probes) or the position's window buffer.
func (rt *windowRuntime) absorb(pos int, t *tuple.Tuple) {
	if rt.incJoin != nil {
		rt.incJoin.ingest(pos, t)
		return
	}
	if rt.buffers[pos] != nil {
		rt.buffers[pos].Add(t)
	}
}

func (rt *windowRuntime) key(t *tuple.Tuple) int64 {
	if rt.q.Plan.TimeKind == window.Logical {
		return t.Seq
	}
	return t.TS
}

// intake is the drain sink: it advances the position's time high-water
// mark and routes windowed tuples into the runtime's state. Arriving
// subscriber clones that nothing retains — static-table positions, and
// the incremental join (which widens into its own rows) — return to the
// tuple pool; clones absorbed into a window buffer are retained and must
// not be recycled.
func (rt *windowRuntime) intake(pos int, ts []*tuple.Tuple) {
	for _, t := range ts {
		if k := rt.key(t); k > rt.maxTime[pos] {
			rt.maxTime[pos] = k
		}
	}
	if rt.winFor[pos] < 0 {
		rt.recycle(ts)
		return
	}
	if rt.incJoin != nil {
		for _, t := range ts {
			rt.incJoin.ingest(pos, t)
		}
		rt.recycle(ts)
		return
	}
	if rt.buffers[pos] != nil {
		rt.buffers[pos].AddBatch(ts)
	}
}

func (rt *windowRuntime) recycle(ts []*tuple.Tuple) {
	if rt.pool == nil {
		return
	}
	for _, t := range ts {
		rt.pool.Put(t)
	}
}

// canFire reports whether instance inst's windows are fully covered by the
// data seen so far (or the inputs have ended, in which case we fire with
// what we have).
func (rt *windowRuntime) canFire(inst window.Instance) bool {
	for pos, wi := range rt.winFor {
		if wi < 0 {
			continue
		}
		if rt.drainer.closed[pos] {
			continue
		}
		if rt.maxTime[pos] < inst.Windows[wi].Right {
			return false
		}
	}
	return true
}

// newestTime returns the newest window time seen on any windowed input.
func (rt *windowRuntime) newestTime() int64 {
	var newest int64 = -1 << 62
	for pos, wi := range rt.winFor {
		if wi >= 0 && rt.maxTime[pos] > newest {
			newest = rt.maxTime[pos]
		}
	}
	return newest
}

func (rt *windowRuntime) allClosed() bool {
	for pos, wi := range rt.winFor {
		if wi >= 0 && !rt.drainer.closed[pos] {
			return false
		}
	}
	return true
}

func (rt *windowRuntime) step() (bool, bool) {
	if rt.finished {
		return false, true
	}
	progressed, _ := rt.drainer.drain(rt.intake)

	if rt.loop.Step > 0 {
		// Forward loop: fire instances whose windows have filled.
		for rt.loop.Cond.Holds(rt.nextT) {
			if rt.allClosed() && rt.nextT > rt.newestTime() {
				// The inputs have ended and the loop has passed the
				// newest time any of them reached: no later instance
				// can see new data, and an unbounded loop would
				// otherwise fire empty instances forever.
				break
			}
			inst := rt.loop.At(rt.nextT)
			if !rt.canFire(inst) {
				return progressed, false
			}
			rt.fire(inst)
			rt.nextT += rt.loop.Step
			progressed = true
			rt.evict()
		}
		rt.finished = true
		return true, true
	}

	// Snapshot or backward loop: all instances are anchored at or below
	// Init; fire them all once data reaches the highest right edge (or
	// the inputs end).
	var need int64 = -1 << 62
	rt.loop.Instances(maxLoopInstances, func(inst window.Instance) bool {
		for _, iv := range inst.Windows {
			if iv.Right > need {
				need = iv.Right
			}
		}
		return true
	})
	ready := rt.allClosed()
	if !ready {
		ready = true
		for pos, wi := range rt.winFor {
			if wi >= 0 && !rt.drainer.closed[pos] && rt.maxTime[pos] < need {
				ready = false
			}
		}
	}
	if !ready {
		return progressed, false
	}
	rt.loop.Instances(maxLoopInstances, func(inst window.Instance) bool {
		rt.fire(inst)
		return true
	})
	rt.finished = true
	return true, true
}

// evict drops buffered tuples no future window instance can need.
func (rt *windowRuntime) evict() {
	if rt.loop.Step <= 0 || !rt.loop.Cond.Holds(rt.nextT) {
		return
	}
	inst := rt.loop.At(rt.nextT)
	if rt.incJoin != nil {
		rt.incJoin.evict(inst)
		return
	}
	for pos, wi := range rt.winFor {
		if wi < 0 || rt.buffers[pos] == nil {
			continue
		}
		rt.buffers[pos].Evict(inst.Windows[wi].Left)
	}
}

// rowsFor gathers, widens, and pre-filters the tuples of FROM position pos
// for one instance.
func (rt *windowRuntime) rowsFor(pos int, inst window.Instance) ([]*tuple.Tuple, error) {
	var raw []*tuple.Tuple
	if wi := rt.winFor[pos]; wi >= 0 {
		iv := inst.Windows[wi]
		raw = rt.buffers[pos].Range(iv.Left, iv.Right)
	} else {
		var err error
		raw, err = rt.q.engine.tableContents(rt.q.Plan.Entries[pos])
		if err != nil {
			return nil, err
		}
	}
	out := make([]*tuple.Tuple, 0, len(raw))
	for _, t := range raw {
		w := rt.layout.Widen(pos, t)
		ok := true
		for _, p := range rt.selsFor[pos] {
			if !p.Eval(w) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, w)
		}
	}
	return out, nil
}

// fire evaluates one window instance and emits its result set. Result
// tuples carry the instance's loop value in TS so clients can regroup the
// output sequence of sets.
func (rt *windowRuntime) fire(inst window.Instance) {
	clk := rt.q.engine.opts.Clock
	start := clk.Now()
	defer func() { rt.fireLat.Record(clk.Since(start)) }()
	if rt.incAgg != nil && rt.winFor[0] >= 0 {
		rt.fireLandmark(inst)
		return
	}
	var rows []*tuple.Tuple
	if rt.incJoin != nil {
		rows = rt.incJoin.rowsAt(inst)
	} else {
		perPos := make([][]*tuple.Tuple, len(rt.q.Plan.Entries))
		for pos := range perPos {
			prows, err := rt.rowsFor(pos, inst)
			if err != nil {
				// Storage errors surface as an empty instance; the
				// engine keeps running (fault containment per query).
				prows = nil
			}
			perPos[pos] = prows
		}
		rt.joinRec(perPos, 0, nil, &rows)
	}

	// ORDER BY / LIMIT shape the instance's result set (top-k per
	// window), evaluated before projection so any wide column can sort.
	if rt.q.Plan.OrderCol >= 0 {
		ops.SortTuples(rows, rt.q.Plan.OrderCol, !rt.q.Plan.OrderDesc)
	}
	if lim := rt.q.Plan.Limit; lim >= 0 && int64(len(rows)) > lim {
		rows = rows[:lim]
	}

	if rt.agg != nil {
		for _, out := range rt.agg.Compute(rows) {
			out.TS = inst.T
			rt.q.emit(out)
		}
		return
	}
	// DISTINCT has set semantics per window instance (§4.1: each
	// instance's output is a set), so the seen-set resets here.
	var dedup *ops.DupElim
	if rt.q.Plan.Distinct {
		dedup = ops.NewDupElim()
	}
	for _, r := range rows {
		out := r
		if rt.proj != nil {
			out = rt.proj.Apply(r)
		}
		if dedup != nil && !dedup.Accept(out) {
			continue
		}
		out.TS = inst.T
		rt.q.emit(out)
	}
}

// fireLandmark folds only the instance's delta into the incremental
// aggregator and emits a snapshot; folded tuples are evicted right away.
func (rt *windowRuntime) fireLandmark(inst window.Instance) {
	iv := inst.Windows[rt.winFor[0]]
	lo := iv.Left
	if rt.incUpto+1 > lo {
		lo = rt.incUpto + 1
	}
	for _, t := range rt.buffers[0].Range(lo, iv.Right) {
		w := rt.layout.Widen(0, t)
		ok := true
		for _, p := range rt.selsFor[0] {
			if !p.Eval(w) {
				ok = false
				break
			}
		}
		if ok {
			rt.incAgg.Add(w)
		}
	}
	rt.incUpto = iv.Right
	for _, out := range rt.incAgg.Snapshot() {
		out.TS = inst.T
		rt.q.emit(out)
	}
	rt.buffers[0].Evict(rt.incUpto + 1)
}

// joinRec nested-loop joins the per-position row sets, applying every join
// edge as soon as both of its streams are bound.
func (rt *windowRuntime) joinRec(perPos [][]*tuple.Tuple, pos int, acc *tuple.Tuple, out *[]*tuple.Tuple) {
	if pos == len(perPos) {
		if acc != nil {
			*out = append(*out, acc)
		}
		return
	}
	for _, r := range perPos[pos] {
		merged := r
		if acc != nil {
			merged = rt.layout.Merge(acc, r)
		}
		if !rt.joinEdgesHold(merged, pos) {
			continue
		}
		rt.joinRec(perPos, pos+1, merged, out)
	}
}

// joinEdgesHold verifies every join edge whose two streams are bound once
// position pos has just been added.
func (rt *windowRuntime) joinEdgesHold(row *tuple.Tuple, pos int) bool {
	for _, j := range rt.q.Plan.Joins {
		if j.StreamA > pos || j.StreamB > pos {
			continue // not yet bound
		}
		if j.StreamA != pos && j.StreamB != pos {
			continue // checked earlier in the recursion
		}
		if !j.Op.Apply(tuple.Compare(row.Vals[j.ColA], row.Vals[j.ColB])) {
			return false
		}
	}
	return true
}
