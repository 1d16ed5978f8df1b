package egress

import (
	"fmt"
	"reflect"
	"testing"

	"telegraphcq/internal/tuple"
)

// pullLog is the pull-egress surface the retention tests drive, satisfied
// by PullEgress and by shiftLog, the reference model below.
type pullLog interface {
	SetRecycler(*tuple.Pool)
	PublishOwned(*tuple.Tuple, bool)
	PublishBatch([]*tuple.Tuple, bool)
	PublishBlock(*tuple.Block, bool)
	Register() int
	RegisterAt(int64) int
	Fetch(int) ([]*tuple.Tuple, int64, error)
	Len() int
}

// shiftLog is the reference model for PullEgress retention: a plain slice
// that appends, then evicts its oldest entries by shifting the survivors
// down. It is deliberately O(retained) per publish; the ring must match
// its observable behaviour exactly.
type shiftLog struct {
	log       []pullEntry
	cap       int
	base      int64
	cursors   map[int]int64
	nextID    int
	pool      *tuple.Pool
	blockRows map[*tuple.Block]int32
}

func newShiftLog(capTuples int) *shiftLog {
	return &shiftLog{cap: capTuples, cursors: map[int]int64{}, blockRows: map[*tuple.Block]int32{}}
}

func (e *shiftLog) SetRecycler(p *tuple.Pool) { e.pool = p }

func (e *shiftLog) PublishOwned(t *tuple.Tuple, owned bool) {
	e.log = append(e.log, pullEntry{t: t, owned: owned && e.pool != nil})
	e.evict()
}

func (e *shiftLog) PublishBatch(ts []*tuple.Tuple, owned bool) {
	for _, t := range ts {
		e.log = append(e.log, pullEntry{t: t, owned: owned && e.pool != nil})
	}
	e.evict()
}

func (e *shiftLog) PublishBlock(b *tuple.Block, owned bool) {
	if owned {
		e.blockRows[b] = int32(b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		e.log = append(e.log, pullEntry{blk: b, row: int32(i), owned: owned})
	}
	e.evict()
}

func (e *shiftLog) evict() {
	over := len(e.log) - e.cap
	for i := 0; i < over; i++ {
		ent := e.log[i]
		switch {
		case ent.blk != nil:
			if ent.owned {
				if e.blockRows[ent.blk]--; e.blockRows[ent.blk] == 0 {
					delete(e.blockRows, ent.blk)
					ent.blk.Release()
				}
			}
		case ent.owned:
			e.pool.Put(ent.t)
		}
	}
	if over > 0 {
		e.log = append(e.log[:0], e.log[over:]...)
		e.base += int64(over)
	}
}

func (e *shiftLog) Register() int { return e.RegisterAt(e.base + int64(len(e.log))) }

func (e *shiftLog) RegisterAt(pos int64) int {
	if pos < e.base {
		pos = e.base
	}
	id := e.nextID
	e.nextID++
	e.cursors[id] = pos
	return id
}

func (e *shiftLog) Fetch(id int) ([]*tuple.Tuple, int64, error) {
	cur, ok := e.cursors[id]
	if !ok {
		return nil, 0, fmt.Errorf("unknown client %d", id)
	}
	var missed int64
	if cur < e.base {
		missed = e.base - cur
		cur = e.base
	}
	var out []*tuple.Tuple
	for i := int(cur - e.base); i < len(e.log); i++ {
		if b := e.log[i].blk; b != nil {
			out = append(out, b.Row(int(e.log[i].row)))
			continue
		}
		e.log[i].owned = false
		out = append(out, e.log[i].t)
	}
	e.cursors[id] = e.base + int64(len(e.log))
	return out, missed, nil
}

func (e *shiftLog) Len() int { return len(e.log) }

// retentionRun is one scripted session against a pull log: it returns a
// transcript of everything a client or the memory owners could observe.
type retentionRun struct {
	l      pullLog
	pool   *tuple.Pool
	arena  *tuple.Arena
	next   int64
	script []string
}

func newRetentionRun(l pullLog) *retentionRun {
	r := &retentionRun{l: l, pool: tuple.NewPool(), arena: tuple.NewArena()}
	l.SetRecycler(r.pool)
	return r
}

func (r *retentionRun) tuples(n int) []*tuple.Tuple {
	ts := make([]*tuple.Tuple, n)
	for i := range ts {
		r.next++
		ts[i] = mk(r.next)
	}
	return ts
}

func (r *retentionRun) publish(n int, owned bool) {
	for _, t := range r.tuples(n) {
		r.l.PublishOwned(t, owned)
	}
}

func (r *retentionRun) block(n int, owned bool) {
	b := r.arena.Get(1, n)
	for i := 0; i < n; i++ {
		r.next++
		b.AppendRow([]tuple.Value{tuple.Int(r.next)}, r.next, r.next, 1)
	}
	r.l.PublishBlock(b, owned)
}

func (r *retentionRun) fetch(id int) {
	got, missed, err := r.l.Fetch(id)
	vals := make([]int64, len(got))
	for i, t := range got {
		vals[i] = t.Vals[0].AsInt()
	}
	r.observe("fetch %d: %v missed=%d err=%v", id, vals, missed, err)
}

func (r *retentionRun) observe(format string, args ...any) {
	r.script = append(r.script, fmt.Sprintf(format, args...))
}

// state records retained length, pool returns and arena releases.
func (r *retentionRun) state() {
	_, _, releases := r.arena.Stats()
	r.observe("len=%d puts=%d releases=%d", r.l.Len(), r.pool.Stats().Puts, releases)
}

// TestPullRingMatchesShiftLog drives PullEgress and the shifting
// reference log through the same scripts and requires identical
// transcripts, then pins the expected figures of each script.
func TestPullRingMatchesShiftLog(t *testing.T) {
	cases := []struct {
		name string
		cap  int
		run  func(r *retentionRun)
		// want is the expected last state line (len, pool puts, block
		// releases) and wantFetch the expected last fetch line.
		want, wantFetch string
	}{
		{
			name: "fetch spans wrap seam",
			cap:  5,
			run: func(r *retentionRun) {
				id := r.l.RegisterAt(0)
				r.publish(3, false)
				r.fetch(id)
				r.publish(4, false) // 7 published: the log has wrapped
				r.fetch(id)
				late := r.l.RegisterAt(3) // oldest retained is 3
				r.publish(1, false)
				r.fetch(late)
				r.state()
			},
			want:      "len=5 puts=0 releases=0",
			wantFetch: "fetch 1: [4 5 6 7 8] missed=0 err=<nil>",
		},
		{
			name: "missed counts",
			cap:  3,
			run: func(r *retentionRun) {
				id := r.l.RegisterAt(0)
				r.publish(10, false)
				r.fetch(id)
				r.publish(5, false)
				r.fetch(id)
				r.fetch(id)
				r.state()
			},
			want:      "len=3 puts=0 releases=0",
			wantFetch: "fetch 0: [] missed=0 err=<nil>",
		},
		{
			name: "RegisterAt below base clamps",
			cap:  4,
			run: func(r *retentionRun) {
				r.publish(10, false)
				r.fetch(r.l.RegisterAt(2))
				r.fetch(r.l.RegisterAt(-5))
				r.fetch(r.l.RegisterAt(8))
				r.fetch(r.l.Register())
				r.publish(1, false)
				r.fetch(r.l.RegisterAt(0))
				r.state()
			},
			want:      "len=4 puts=0 releases=0",
			wantFetch: "fetch 4: [8 9 10 11] missed=0 err=<nil>",
		},
		{
			name: "batch longer than cap",
			cap:  4,
			run: func(r *retentionRun) {
				id := r.l.RegisterAt(0)
				r.l.PublishBatch(r.tuples(10), true)
				r.state()
				r.fetch(id)
				r.l.PublishBatch(r.tuples(9), true)
				r.state()
			},
			// 6 of the first batch age out inside the call; its last 4
			// were fetched (no longer owned); 5 of the second age out.
			want:      "len=4 puts=11 releases=0",
			wantFetch: "fetch 0: [7 8 9 10] missed=6 err=<nil>",
		},
		{
			name: "block longer than cap",
			cap:  4,
			run: func(r *retentionRun) {
				id := r.l.RegisterAt(0)
				r.block(10, true)
				r.state() // 4 rows retained: block still live
				r.fetch(id)
				r.publish(3, false)
				r.state() // 1 row retained
				r.publish(1, false)
				r.state() // last row gone: released once
				r.publish(6, false)
				r.state()
			},
			want:      "len=4 puts=0 releases=1",
			wantFetch: "fetch 0: [7 8 9 10] missed=6 err=<nil>",
		},
		{
			name: "owned tuple recycled exactly once",
			cap:  3,
			run: func(r *retentionRun) {
				id := r.l.RegisterAt(0)
				r.publish(2, true)
				r.fetch(id) // fetched: the client owns 1 and 2 now
				r.publish(4, true)
				r.state() // 1, 2 aged out unrecycled; 3 recycled
				r.publish(3, false)
				r.state() // 4, 5, 6 recycled
				r.publish(3, false)
				r.state() // unowned entries age out: nothing more
			},
			want:      "len=3 puts=4 releases=0",
			wantFetch: "fetch 0: [1 2] missed=0 err=<nil>",
		},
		{
			name: "block released once across the seam",
			cap:  5,
			run: func(r *retentionRun) {
				r.publish(3, false)
				r.block(4, true) // occupies ring slots 3, 4, 0, 1
				for i := 0; i < 7; i++ {
					r.publish(1, false)
					r.state()
				}
				r.fetch(r.l.RegisterAt(0))
			},
			want:      "len=5 puts=0 releases=1",
			wantFetch: "fetch 0: [10 11 12 13 14] missed=0 err=<nil>",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := newRetentionRun(NewPullEgress(c.cap))
			ref := newRetentionRun(newShiftLog(c.cap))
			c.run(got)
			c.run(ref)
			if !reflect.DeepEqual(got.script, ref.script) {
				t.Fatalf("ring transcript differs from the shifting log:\nring:  %q\nshift: %q", got.script, ref.script)
			}
			var lastState, lastFetch string
			for _, line := range got.script {
				if len(line) > 4 && line[:4] == "len=" {
					lastState = line
				} else {
					lastFetch = line
				}
			}
			if lastState != c.want {
				t.Errorf("state = %q, want %q (transcript %q)", lastState, c.want, got.script)
			}
			if lastFetch != c.wantFetch {
				t.Errorf("fetch = %q, want %q (transcript %q)", lastFetch, c.wantFetch, got.script)
			}
		})
	}
}

// BenchmarkPullEgressPublishFull publishes into a pull log whose
// retention is already full: each publish ages one entry out, so ns/op
// must not grow with the retention capacity.
func BenchmarkPullEgressPublishFull(b *testing.B) {
	for _, capTuples := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("cap=%d", capTuples), func(b *testing.B) {
			e := NewPullEgress(capTuples)
			t := mk(1)
			for i := 0; i < capTuples; i++ {
				e.Publish(t)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Publish(t)
			}
		})
	}
}
