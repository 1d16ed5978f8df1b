package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/ring"
	"telegraphcq/internal/tuple"
)

// TestHistoryKeepsNewestTuples: once a stream's in-memory history is
// full, new tuples displace the oldest, so a windowed query registered
// late preloads the most recent data rather than the stream's first
// tuples.
func TestHistoryKeepsNewestTuples(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	st, err := e.stream("ClosingStockPrices")
	if err != nil {
		t.Fatal(err)
	}
	const histCap = 8
	st.mu.Lock()
	st.history = ring.New[*tuple.Tuple](histCap)
	st.mu.Unlock()
	feedStocks(t, e, 1, 20) // 40 tuples: days 17..20 fit in the history
	q, err := e.Register(`SELECT closingPrice, timestamp FROM ClosingStockPrices
		WHERE stockSymbol = 'MSFT'
		for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 20); }`)
	if err != nil {
		t.Fatal(err)
	}
	q.Wait()
	res, err := q.Fetch(q.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	var days []int64
	for _, r := range res {
		days = append(days, int64(r.Vals[0].AsFloat()))
	}
	if fmt.Sprint(days) != "[17 18 19 20]" {
		t.Errorf("late snapshot saw MSFT days %v, want the newest [17 18 19 20]", days)
	}
}

// TestStopReturnsWithForeverWindow: an unbounded window loop whose inputs
// have all closed stops firing once it passes the newest time seen, so
// neither the query's DU nor Engine.Stop runs forever.
func TestStopReturnsWithForeverWindow(t *testing.T) {
	e := newStockEngine(t)
	q, err := e.Register(`SELECT COUNT(*) FROM ClosingStockPrices
		for (t = 100; ; t += 100) { WindowIs(ClosingStockPrices, t - 99, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	feedStocks(t, e, 1, 250)
	waitFor(t, "instances 100 and 200", func() bool { return q.Results() >= 2 })
	// Closing the inputs lets the DU step with every input closed before
	// the executor stops.
	if err := e.Deregister(q.ID); err != nil {
		t.Fatal(err)
	}
	chaos.Real().Sleep(20 * time.Millisecond)
	stopped := make(chan struct{})
	go func() {
		e.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-chaos.Real().After(10 * time.Second):
		t.Fatal("Engine.Stop did not return within 10s")
	}
	// Instances 100 and 200 fired while the stream ran; the loop had
	// passed the newest day (250) when the inputs closed.
	if n := q.Results(); n != 2 {
		t.Errorf("forever loop fired %d instances, want 2", n)
	}
}

// TestUnregisterMetricsIdempotent: a finishing windowed DU and
// Engine.Stop's deregistration may tear a query's metrics down at the
// same time; both must be safe (run under -race) and the series must be
// gone afterwards.
func TestUnregisterMetricsIdempotent(t *testing.T) {
	e := newStockEngine(t)
	defer e.Stop()
	q, err := e.Register(`SELECT COUNT(*) FROM ClosingStockPrices
		for (t = 5; ; t += 5) { WindowIs(ClosingStockPrices, t - 4, t); }`)
	if err != nil {
		t.Fatal(err)
	}
	lbl := fmt.Sprintf(`{query="%d"}`, q.ID)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.unregisterMetrics()
		}()
	}
	wg.Wait()
	for _, s := range e.Metrics().Snapshot() {
		if strings.HasPrefix(s.Name, "tcq_query_results_total") && strings.Contains(s.Name, lbl) {
			t.Errorf("series %s survived unregistration", s.Name)
		}
	}
	q.unregisterMetrics() // a later teardown finds nothing left to drop
}
