package monitor

import "testing"

// discardSender drops every report.
type discardSender struct{ reports int }

func (d *discardSender) Send(Report) error {
	d.reports++
	return nil
}

// TestAgentAddAllocBudget gates the agent's batching cost: a batch opens at
// its full BatchSize capacity, so filling and sending one is a single
// allocation however many measurements it holds.
func TestAgentAddAllocBudget(t *testing.T) {
	const batch = 25
	s := &discardSender{}
	agent, err := NewAgent("m1", batch, s)
	if err != nil {
		t.Fatal(err)
	}
	p := agent.NewPoint(0)
	id := int64(0)
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < batch; i++ {
			id++
			p.Observe(id, 0.5)
		}
	})
	if s.reports == 0 {
		t.Fatal("no batch was sent")
	}
	if avg > 1 {
		t.Fatalf("one %d-measurement batch makes %v allocations, budget 1", batch, avg)
	}
}
