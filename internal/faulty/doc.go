// Package faulty is the deterministic chaos layer under the distributed
// learning/monitoring transports: seed-driven fault injection for
// dialed net.Conns plus the exponential-backoff-with-jitter policy the
// retry paths share.
//
// The paper's decentralized parameter-learning scheme (Section 4.3, Fig. 5)
// assumes every monitoring agent is up, fast and lossless. An autonomic,
// self-managing deployment cannot: agents crash mid-learn, links stall, and
// frames arrive truncated or corrupted. This package makes those failure
// scenarios first-class AND replayable — every fault decision is a pure
// function of (seed, connection key, attempt) drawn through stats.RNG.Split,
// so a chaos run replays bit-for-bit regardless of goroutine scheduling.
//
// Fault taxonomy (at most one fault per connection plan):
//
//   - drop:     the dial (or accept) fails outright — agent down.
//   - delay:    the first I/O operation is delayed — slow link.
//   - truncate: the connection closes after N payload bytes — crash
//     mid-stream; the peer sees a partial frame.
//   - corrupt:  one byte of the write stream is bit-flipped — the wire
//     codec's checksum must catch it.
//   - stall:    after N bytes every Read/Write blocks until the deadline —
//     the failure mode that hangs deadline-free code forever.
//
// Metrics: faulty.conns, faulty.drops, faulty.delays, faulty.truncates,
// faulty.corruptions, faulty.stalls count injected faults in internal/obs.
package faulty
