package monitor

import (
	"sync"
	"testing"
	"time"
)

// collector is a RowSink capturing rows.
type collector struct {
	mu   sync.Mutex
	rows [][]float64
}

func (c *collector) sink(row []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows = append(c.rows, append([]float64(nil), row...))
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rows)
}

func TestServerAssemblesRows(t *testing.T) {
	col := &collector{}
	srv, err := NewServer(3, col.sink)
	if err != nil {
		t.Fatal(err)
	}
	// Request 1's measurements arrive across two reports, out of order.
	_ = srv.Send(Report{AgentID: "a", Batch: []Measurement{
		{RequestID: 1, Column: 2, Value: 30},
		{RequestID: 1, Column: 0, Value: 10},
	}})
	if col.count() != 0 {
		t.Fatal("incomplete row should not emit")
	}
	_ = srv.Send(Report{AgentID: "b", Batch: []Measurement{
		{RequestID: 1, Column: 1, Value: 20},
	}})
	if col.count() != 1 {
		t.Fatalf("complete row should emit, got %d", col.count())
	}
	row := col.rows[0]
	if row[0] != 10 || row[1] != 20 || row[2] != 30 {
		t.Fatalf("row = %v", row)
	}
	if srv.Complete != 1 || srv.Pending() != 0 {
		t.Fatal("server counters wrong")
	}
}

func TestServerRejectsBadColumn(t *testing.T) {
	srv, _ := NewServer(2, func([]float64) {})
	if err := srv.Send(Report{Batch: []Measurement{{RequestID: 1, Column: 5, Value: 1}}}); err == nil {
		t.Fatal("out-of-range column should error")
	}
}

func TestServerEviction(t *testing.T) {
	srv, _ := NewServer(2, func([]float64) {})
	srv.MaxPartial = 3
	for i := int64(0); i < 10; i++ {
		_ = srv.Send(Report{Batch: []Measurement{{RequestID: i, Column: 0, Value: 1}}})
	}
	if srv.Pending() > 3 {
		t.Fatalf("pending %d exceeds MaxPartial", srv.Pending())
	}
	if srv.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", srv.Dropped)
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(0, func([]float64) {}); err == nil {
		t.Fatal("zero columns should error")
	}
	if _, err := NewServer(2, nil); err == nil {
		t.Fatal("nil sink should error")
	}
}

func TestAgentBatching(t *testing.T) {
	col := &collector{}
	srv, _ := NewServer(1, col.sink)
	agent, err := NewAgent("m1", 3, srv)
	if err != nil {
		t.Fatal(err)
	}
	p := agent.NewPoint(0)
	p.Observe(1, 1.5)
	p.Observe(2, 2.5)
	if col.count() != 0 {
		t.Fatal("batch should not flush before BatchSize")
	}
	p.Observe(3, 3.5)
	if col.count() != 3 {
		t.Fatalf("batch flush should deliver 3 single-column rows, got %d", col.count())
	}
}

func TestAgentFlush(t *testing.T) {
	col := &collector{}
	srv, _ := NewServer(1, col.sink)
	agent, _ := NewAgent("m1", 100, srv)
	agent.NewPoint(0).Observe(1, 9)
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if col.count() != 1 {
		t.Fatal("flush should deliver buffered measurements")
	}
	if err := agent.Flush(); err != nil {
		t.Fatal("empty flush should be a no-op")
	}
}

func TestAgentValidation(t *testing.T) {
	srv, _ := NewServer(1, func([]float64) {})
	if _, err := NewAgent("x", 0, srv); err == nil {
		t.Fatal("zero batch size should error")
	}
	if _, err := NewAgent("x", 1, nil); err == nil {
		t.Fatal("nil sender should error")
	}
}

func TestEndToEndPipeline(t *testing.T) {
	// Three agents, one per "machine", feeding one server: 100 requests,
	// each measured at two services plus D.
	col := &collector{}
	srv, _ := NewServer(3, col.sink)
	a1, _ := NewAgent("host1", 10, srv)
	a2, _ := NewAgent("host2", 7, srv)
	a3, _ := NewAgent("mgmt", 5, srv)
	p1 := a1.NewPoint(0)
	p2 := a2.NewPoint(1)
	pd := a3.NewPoint(2)
	for req := int64(0); req < 100; req++ {
		p1.Observe(req, float64(req))
		p2.Observe(req, float64(req)*2)
		pd.Observe(req, float64(req)*3)
	}
	_ = a1.Flush()
	_ = a2.Flush()
	_ = a3.Flush()
	if col.count() != 100 {
		t.Fatalf("assembled %d rows, want 100", col.count())
	}
	for _, row := range col.rows {
		if row[1] != 2*row[0] || row[2] != 3*row[0] {
			t.Fatalf("row cross-talk: %v", row)
		}
	}
}

func TestTCPTransport(t *testing.T) {
	col := &collector{}
	inner, _ := NewServer(2, col.sink)
	srv, err := ListenTCP("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sender, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	agent, _ := NewAgent("remote", 2, sender)
	p0 := agent.NewPoint(0)
	p1 := agent.NewPoint(1)
	p0.Observe(1, 10)
	p1.Observe(1, 20)
	// Wait for the async delivery.
	deadline := time.Now().Add(2 * time.Second)
	for col.count() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if col.count() != 1 {
		t.Fatalf("TCP pipeline delivered %d rows", col.count())
	}
	if col.rows[0][0] != 10 || col.rows[0][1] != 20 {
		t.Fatalf("row = %v", col.rows[0])
	}
}

func TestTCPServerCloseIdempotent(t *testing.T) {
	inner, _ := NewServer(1, func([]float64) {})
	srv, err := ListenTCP("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close should be nil")
	}
}

func TestTCPDialError(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port should error")
	}
}

func TestConcurrentAgents(t *testing.T) {
	col := &collector{}
	srv, _ := NewServer(2, col.sink)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			agent, _ := NewAgent("a", 5, srv)
			p0 := agent.NewPoint(0)
			p1 := agent.NewPoint(1)
			for i := 0; i < 50; i++ {
				req := int64(g*1000 + i)
				p0.Observe(req, 1)
				p1.Observe(req, 2)
			}
			_ = agent.Flush()
		}(g)
	}
	wg.Wait()
	if col.count() != 400 {
		t.Fatalf("assembled %d rows, want 400", col.count())
	}
}
