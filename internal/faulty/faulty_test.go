package faulty

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"kertbn/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{Drop: 0.2, Stall: 0.1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Drop: 0.7, Stall: 0.7}).Validate(); err == nil {
		t.Fatal("probabilities summing past 1 accepted")
	}
	if err := (Config{Drop: -0.1}).Validate(); err == nil {
		t.Fatal("negative probability accepted")
	}
	if _, err := NewInjector(Config{Corrupt: 2}); err == nil {
		t.Fatal("NewInjector accepted invalid config")
	}
}

func TestPlanIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.2, Delay: 0.2, Truncate: 0.2, Corrupt: 0.2, Stall: 0.2}
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := NewInjector(cfg)
	for key := uint64(0); key < 200; key++ {
		for attempt := uint64(0); attempt < 3; attempt++ {
			a := in.Plan(key, attempt)
			b := in2.Plan(key, attempt)
			if a != b {
				t.Fatalf("plan(%d,%d) differs across identical injectors: %+v vs %+v", key, attempt, a, b)
			}
		}
	}
}

func TestPlanMixRoughlyMatchesProbabilities(t *testing.T) {
	in, err := NewInjector(Config{Seed: 7, Drop: 0.3, Stall: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	var drops, stalls, clean int
	for key := uint64(0); key < n; key++ {
		p := in.Plan(key, 0)
		switch {
		case p.Drop:
			drops++
		case p.StallAfter >= 0:
			stalls++
		case p.Clean():
			clean++
		default:
			t.Fatalf("unexpected fault kind in plan %+v", p)
		}
	}
	for name, got := range map[string]int{"drops": drops, "stalls": stalls} {
		frac := float64(got) / n
		if frac < 0.25 || frac > 0.35 {
			t.Fatalf("%s fraction %.3f far from configured 0.3", name, frac)
		}
	}
	if clean == 0 {
		t.Fatal("no clean connections at 60% fault rate")
	}
}

// pipePair returns the two ends of an in-memory connection.
func pipePair() (net.Conn, net.Conn) { return net.Pipe() }

func TestTruncateClosesMidStream(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	fc := Wrap(a, Plan{TruncateAfter: 5, CorruptAt: -1, StallAfter: -1})
	got := make([]byte, 16)
	done := make(chan int)
	go func() {
		n, _ := io.ReadFull(b, got[:5])
		done <- n
	}()
	n, err := fc.Write([]byte("0123456789"))
	if n != 5 {
		t.Fatalf("wrote %d bytes, want 5 before truncation", n)
	}
	if !errors.Is(err, errTruncated) {
		t.Fatalf("truncating write error = %v", err)
	}
	if rn := <-done; rn != 5 {
		t.Fatalf("peer read %d bytes, want 5", rn)
	}
	if _, err := fc.Write([]byte("x")); !errors.Is(err, errTruncated) {
		t.Fatalf("post-truncation write error = %v", err)
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	fc := Wrap(a, Plan{TruncateAfter: -1, CorruptAt: 3, StallAfter: -1})
	payload := []byte("hello world")
	go func() {
		fc.Write(payload)
		fc.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("read %d bytes, want %d", len(got), len(payload))
	}
	diffs := 0
	for i := range got {
		if got[i] != payload[i] {
			diffs++
			if i != 3 || got[i] != payload[i]^0x01 {
				t.Fatalf("byte %d corrupted to %#x, want single bit flip at offset 3", i, got[i])
			}
		}
	}
	if diffs != 1 {
		t.Fatalf("%d bytes corrupted, want exactly 1", diffs)
	}
	// The caller's view is a clean full write — corruption is silent.
}

func TestStallHonorsDeadline(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	fc := Wrap(a, Plan{TruncateAfter: -1, CorruptAt: -1, StallAfter: 0})
	fc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := fc.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read error = %v, want deadline exceeded", err)
	}
	if el := time.Since(start); el < 40*time.Millisecond || el > 2*time.Second {
		t.Fatalf("stalled read returned after %v, want ~50ms", el)
	}
}

func TestStallFreezesMidWrite(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	fc := Wrap(a, Plan{TruncateAfter: -1, CorruptAt: -1, StallAfter: 4})
	fc.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	got := make([]byte, 4)
	go io.ReadFull(b, got)
	// The buffer crosses the stall threshold: the prefix moves, then the
	// write freezes until the deadline — it must NOT succeed silently.
	n, err := fc.Write([]byte("0123456789"))
	if n != 4 {
		t.Fatalf("wrote %d bytes, want 4 before the stall", n)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("mid-write stall error = %v, want deadline exceeded", err)
	}
	if string(got) != "0123" {
		t.Fatalf("peer saw %q, want the 4-byte prefix", got)
	}
}

func TestStallUnblocksOnClose(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	fc := Wrap(a, Plan{TruncateAfter: -1, CorruptAt: -1, StallAfter: 0})
	errCh := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 1))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	fc.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read after close = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled read did not unblock on Close")
	}
}

func TestDelayDelaysFirstIO(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	fc := Wrap(a, Plan{Delay: 40 * time.Millisecond, TruncateAfter: -1, CorruptAt: -1, StallAfter: -1})
	go io.Copy(io.Discard, b)
	start := time.Now()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("first write returned after %v, want >= ~40ms delay", el)
	}
	// Second write is not delayed again.
	start = time.Now()
	if _, err := fc.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 20*time.Millisecond {
		t.Fatalf("second write delayed %v, delay must fire once", el)
	}
	fc.Close()
}

func TestDialDrop(t *testing.T) {
	in, err := NewInjector(Config{Seed: 3, Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Dial("tcp", "127.0.0.1:1", 0, 0, time.Second); err == nil {
		t.Fatal("drop-everything injector allowed a dial")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	// The nil-rng path returns the midpoint 3d/4 of the jitter interval
	// [d/2, d), keeping seeded and unseeded callers on the same envelope.
	if d := b.Delay(0, nil); d != 7500*time.Microsecond {
		t.Fatalf("attempt 0 delay %v, want 7.5ms (3/4 of 10ms ceiling)", d)
	}
	if d := b.Delay(10, nil); d != 60*time.Millisecond {
		t.Fatalf("deep attempt delay %v, want 60ms (3/4 of 80ms cap)", d)
	}
	for attempt := 0; attempt < 6; attempt++ {
		d1 := b.Delay(attempt, stats.NewRNG(9).Split(uint64(attempt)))
		d2 := b.Delay(attempt, stats.NewRNG(9).Split(uint64(attempt)))
		if d1 != d2 {
			t.Fatalf("jittered delay not deterministic: %v vs %v", d1, d2)
		}
		// Reconstruct the attempt's ceiling d = min(Base·2^k, Max) and
		// check both paths stay inside the documented [d/2, d) envelope.
		full := b.Base << uint(attempt)
		if full > b.Max {
			full = b.Max
		}
		if d1 < full/2 || d1 >= full {
			t.Fatalf("attempt %d jittered delay %v outside [%v, %v)", attempt, d1, full/2, full)
		}
		if mid := b.Delay(attempt, nil); mid < full/2 || mid >= full {
			t.Fatalf("attempt %d nil-rng delay %v outside [%v, %v)", attempt, mid, full/2, full)
		}
	}
	// Zero-value policy gets sane defaults (Base 10ms → midpoint 7.5ms).
	if d := (Backoff{}).Delay(0, nil); d != 7500*time.Microsecond {
		t.Fatalf("zero-value base delay %v, want 7.5ms", d)
	}
}

// The growth loop must survive attempt counts large enough that naive
// doubling would overflow time.Duration, and must clamp exactly at Max.
func TestBackoffGrowthBoundary(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 1<<62 - 1}
	for _, attempt := range []int{62, 63, 64, 200, 1 << 20} {
		d := b.Delay(attempt, nil)
		if d <= 0 {
			t.Fatalf("attempt %d: delay %v overflowed", attempt, d)
		}
		want := b.Max/2 + b.Max/4
		if d != want {
			t.Fatalf("attempt %d: delay %v, want clamped midpoint %v", attempt, d, want)
		}
		j := b.Delay(attempt, stats.NewRNG(1).Split(uint64(attempt)))
		if j < b.Max/2 || j >= b.Max {
			t.Fatalf("attempt %d: jittered delay %v outside [Max/2, Max)", attempt, j)
		}
	}
	// Exact-power-of-two landings: Base·2^k == Max must cap, not double past.
	c := Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond}
	steps := []time.Duration{
		7500 * time.Microsecond, // 3/4 · 10ms
		15 * time.Millisecond,   // 3/4 · 20ms
		30 * time.Millisecond,   // 3/4 · 40ms
		30 * time.Millisecond,   // capped
	}
	for attempt, want := range steps {
		if d := c.Delay(attempt, nil); d != want {
			t.Fatalf("attempt %d: delay %v, want %v", attempt, d, want)
		}
	}
}
