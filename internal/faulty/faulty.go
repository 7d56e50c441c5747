package faulty

import (
	"fmt"
	"net"
	"time"

	"kertbn/internal/obs"
	"kertbn/internal/stats"
)

func init() {
	obs.RegisterPrefix("faulty", "internal/faulty")
}

// Injected-fault metrics. faulty.conns counts every planned connection
// (clean or not); the per-kind counters count injected fault plans.
var (
	fConns     = obs.C("faulty.conns")
	fDrops     = obs.C("faulty.drops")
	fDelays    = obs.C("faulty.delays")
	fTruncates = obs.C("faulty.truncates")
	fCorrupts  = obs.C("faulty.corruptions")
	fStalls    = obs.C("faulty.stalls")
)

// Config sets the per-connection fault probabilities. At most one fault is
// injected per connection plan; the probabilities must sum to <= 1 (the
// remainder is the clean-connection probability).
type Config struct {
	// Seed roots the deterministic fault schedule. Every plan is a pure
	// function of (Seed, key, attempt), so runs replay bit-for-bit.
	Seed uint64
	// Drop is the probability the connection is refused outright.
	Drop float64
	// Delay is the probability the first I/O operation is delayed by a
	// uniform draw from [DelayMin, DelayMax].
	Delay float64
	// Truncate is the probability the connection closes mid-stream after a
	// small number of written bytes.
	Truncate float64
	// Corrupt is the probability one early byte of the write stream is
	// bit-flipped.
	Corrupt float64
	// Stall is the probability the connection stops making progress after a
	// small number of bytes: every subsequent Read/Write blocks until the
	// deadline (or forever, for deadline-free callers — the bug this
	// package exists to expose).
	Stall float64

	// DelayMin/DelayMax bound injected delays (defaults 1ms / 10ms).
	DelayMin, DelayMax time.Duration
	// MaxFaultOffset bounds the byte offset at which truncate/corrupt/stall
	// faults trigger (default 256), keeping them early enough to hit frame
	// headers and first payloads.
	MaxFaultOffset int
}

func (c Config) withDefaults() Config {
	if c.DelayMin <= 0 {
		c.DelayMin = time.Millisecond
	}
	if c.DelayMax < c.DelayMin {
		c.DelayMax = 10 * time.Millisecond
		if c.DelayMax < c.DelayMin {
			c.DelayMax = c.DelayMin
		}
	}
	if c.MaxFaultOffset <= 0 {
		c.MaxFaultOffset = 256
	}
	return c
}

// Active reports whether any fault probability is non-zero.
func (c Config) Active() bool {
	return c.Drop > 0 || c.Delay > 0 || c.Truncate > 0 || c.Corrupt > 0 || c.Stall > 0
}

// Validate rejects malformed probability mixes.
func (c Config) Validate() error {
	sum := 0.0
	for _, p := range []float64{c.Drop, c.Delay, c.Truncate, c.Corrupt, c.Stall} {
		if p < 0 || p > 1 {
			return fmt.Errorf("faulty: fault probability %g outside [0,1]", p)
		}
		sum += p
	}
	if sum > 1 {
		return fmt.Errorf("faulty: fault probabilities sum to %g > 1", sum)
	}
	return nil
}

// Plan is one connection's predetermined fault. Offsets below zero mean the
// fault is absent; at most one of the fault fields is set.
type Plan struct {
	Drop          bool
	Delay         time.Duration
	TruncateAfter int64 // close the connection after this many written bytes
	CorruptAt     int64 // bit-flip the write-stream byte at this offset
	StallAfter    int64 // stall all I/O once this many bytes moved
}

// Clean reports whether the plan injects nothing.
func (p Plan) Clean() bool {
	return !p.Drop && p.Delay == 0 && p.TruncateAfter < 0 && p.CorruptAt < 0 && p.StallAfter < 0
}

// Injector draws deterministic fault plans and applies them to connections.
type Injector struct {
	cfg Config
}

// NewInjector builds an injector; cfg.Validate errors are returned.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg.withDefaults()}, nil
}

// Plan returns the fault plan for the connection identified by key on the
// given retry attempt. It is a pure function of (Seed, key, attempt): the
// same identifiers always yield the same plan, independent of goroutine
// scheduling, which is what makes chaos runs replayable. Distinct attempts
// redraw, so a retried operation can hit a different (or no) fault.
func (in *Injector) Plan(key, attempt uint64) Plan {
	p := Plan{TruncateAfter: -1, CorruptAt: -1, StallAfter: -1}
	rng := stats.NewRNG(in.cfg.Seed).Split(key).Split(attempt)
	u := rng.Float64()
	off := func() int64 { return int64(rng.Intn(in.cfg.MaxFaultOffset)) }
	switch {
	case u < in.cfg.Drop:
		p.Drop = true
	case u < in.cfg.Drop+in.cfg.Delay:
		span := in.cfg.DelayMax - in.cfg.DelayMin
		p.Delay = in.cfg.DelayMin + time.Duration(rng.Float64()*float64(span))
	case u < in.cfg.Drop+in.cfg.Delay+in.cfg.Truncate:
		p.TruncateAfter = 1 + off()
	case u < in.cfg.Drop+in.cfg.Delay+in.cfg.Truncate+in.cfg.Corrupt:
		p.CorruptAt = off()
	case u < in.cfg.Drop+in.cfg.Delay+in.cfg.Truncate+in.cfg.Corrupt+in.cfg.Stall:
		p.StallAfter = off()
	}
	return p
}

// Wrap applies a plan to an established connection, counting the injected
// fault. Clean plans return the connection untouched; Drop plans close it
// and return a connection whose every operation fails.
func Wrap(c net.Conn, p Plan) net.Conn {
	fConns.Inc()
	switch {
	case p.Drop:
		fDrops.Inc()
		c.Close()
	case p.Delay > 0:
		fDelays.Inc()
	case p.TruncateAfter >= 0:
		fTruncates.Inc()
	case p.CorruptAt >= 0:
		fCorrupts.Inc()
	case p.StallAfter >= 0:
		fStalls.Inc()
	default:
		return c
	}
	return newConn(c, p)
}

// Dial establishes a (possibly faulty) connection for the operation
// identified by (key, attempt). Drop plans fail without touching the
// network — the remote-agent-down case.
func (in *Injector) Dial(network, addr string, key, attempt uint64, timeout time.Duration) (net.Conn, error) {
	p := in.Plan(key, attempt)
	if p.Drop {
		fConns.Inc()
		fDrops.Inc()
		return nil, fmt.Errorf("faulty: injected dial drop (key %d, attempt %d)", key, attempt)
	}
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return Wrap(c, p), nil
}
