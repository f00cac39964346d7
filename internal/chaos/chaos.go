// Package chaos is a deterministic fault-injection layer for byte-stream
// transports. A Transport wraps any io.ReadWriteCloser — typically the
// net.Conn under an openflow.Conn — and injects, from a seeded PRNG:
//
//   - latency on every read and write,
//   - connection resets with a partial (truncated) final write,
//   - duplicated whole frames on the write path,
//
// while a Dialer additionally injects dial failures. All decisions come from
// the seed, so a failing schedule replays exactly; shared fault budgets
// (MaxResets, MaxDialFails) bound the chaos so that retry loops under
// test are guaranteed to converge eventually.
//
// The package knows nothing about the protocol above it except, for
// duplicated frames, how to delimit frames: by the 8-byte header used by
// internal/openflow (total length, big-endian, at bytes 2..3).
package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedReset marks an operation killed by an injected connection
// reset. The transport is dead afterwards: every later read or write fails.
var ErrInjectedReset = errors.New("chaos: injected connection reset")

// ErrInjectedDialFailure marks a dial attempt refused by fault injection.
var ErrInjectedDialFailure = errors.New("chaos: injected dial failure")

// Config tunes a Transport (and, via Dialer, every transport it creates).
// The zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic decision. Two transports with the same
	// seed and the same operation sequence make the same decisions.
	Seed int64

	// Latency is slept before every Read and every Write; Jitter adds a
	// uniform [0, Jitter) amount on top, drawn from the seeded PRNG.
	Latency time.Duration
	Jitter  time.Duration

	// ResetProb is the per-Write probability of an injected connection
	// reset: a random strict prefix of the data reaches the peer, the
	// underlying transport is closed (unblocking any reader), and the write
	// — plus every later operation — fails with ErrInjectedReset.
	ResetProb float64
	// MaxResets bounds the number of injected resets (0 = unlimited). A
	// Dialer shares one budget across all transports it creates, so a retry
	// loop eventually gets a clean connection.
	MaxResets int

	// DupProb is the per-frame probability on the write path that a frame
	// arrives twice. Duplication requires buffering writes until whole
	// frames delimit, so it only engages when DupProb is nonzero.
	DupProb float64

	// DialFailProb is the per-Dial probability of ErrInjectedDialFailure;
	// MaxDialFails bounds the total injected failures (0 = unlimited).
	DialFailProb float64
	MaxDialFails int
}

// openflowFrameLen returns the length in bytes of the first complete frame in
// buf, or 0 if buf holds no complete frame yet. It delimits frames by the
// openflow wire header without importing the package: total length lives at
// bytes 2..3, big-endian.
func openflowFrameLen(buf []byte) int {
	const headerLen = 8
	if len(buf) < headerLen {
		return 0
	}
	n := int(binary.BigEndian.Uint16(buf[2:4]))
	if n < headerLen {
		// Malformed length: pass the bytes through untouched rather than
		// buffering forever.
		return len(buf)
	}
	if len(buf) < n {
		return 0
	}
	return n
}

// budget is a shared countdown for one fault class; nil means unlimited.
type budget struct {
	mu   sync.Mutex
	left int
}

func newBudget(max int) *budget {
	if max <= 0 {
		return nil
	}
	return &budget{left: max}
}

// take consumes one unit; it reports whether the fault may be injected.
func (b *budget) take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left <= 0 {
		return false
	}
	b.left--
	return true
}

// Transport is a fault-injecting io.ReadWriteCloser. It forwards the
// deadline setters of the wrapped transport when present, so connection
// deadlines keep working through the chaos layer.
type Transport struct {
	cfg Config

	resets *budget

	mu     sync.Mutex // guards rng, wbuf, broken
	rng    *rand.Rand
	wbuf   []byte
	broken bool

	rwc io.ReadWriteCloser
}

// NewTransport wraps rwc with the configured fault plan.
func NewTransport(rwc io.ReadWriteCloser, cfg Config) *Transport {
	return &Transport{
		cfg:    cfg,
		rwc:    rwc,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		resets: newBudget(cfg.MaxResets),
	}
}

// delay sleeps the configured latency plus seeded jitter.
func (t *Transport) delay() {
	d := t.cfg.Latency
	if t.cfg.Jitter > 0 {
		t.mu.Lock()
		d += time.Duration(t.rng.Int63n(int64(t.cfg.Jitter)))
		t.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Read injects latency, then reads from the wrapped transport. After an
// injected reset it fails immediately.
func (t *Transport) Read(p []byte) (int, error) {
	t.delay()
	t.mu.Lock()
	dead := t.broken
	t.mu.Unlock()
	if dead {
		return 0, ErrInjectedReset
	}
	return t.rwc.Read(p)
}

// Write injects latency and the configured write-path faults.
func (t *Transport) Write(p []byte) (int, error) {
	t.delay()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.broken {
		return 0, ErrInjectedReset
	}
	if t.cfg.ResetProb > 0 && t.rng.Float64() < t.cfg.ResetProb && t.resets.take() {
		// Partial write: a strict prefix escapes, then the transport dies.
		if n := t.rng.Intn(len(p) + 1); n > 0 && n < len(p) {
			_, _ = t.rwc.Write(p[:n])
		}
		t.broken = true
		_ = t.rwc.Close() // unblock the peer and any concurrent reader
		return 0, ErrInjectedReset
	}
	if t.cfg.DupProb <= 0 {
		return t.rwc.Write(p)
	}
	// Duplication: buffer until whole frames delimit, then decide per frame.
	t.wbuf = append(t.wbuf, p...)
	for {
		n := openflowFrameLen(t.wbuf)
		if n <= 0 || n > len(t.wbuf) {
			break
		}
		frame := t.wbuf[:n]
		copies := 1
		if t.rng.Float64() < t.cfg.DupProb {
			copies = 2
		}
		for ; copies > 0; copies-- {
			if _, err := t.rwc.Write(frame); err != nil {
				return 0, err
			}
		}
		t.wbuf = t.wbuf[:copy(t.wbuf, t.wbuf[n:])]
	}
	return len(p), nil
}

// Close closes the wrapped transport.
func (t *Transport) Close() error { return t.rwc.Close() }

// SetReadDeadline forwards to the wrapped transport when it supports
// deadlines and is a no-op otherwise.
func (t *Transport) SetReadDeadline(dl time.Time) error {
	if d, ok := t.rwc.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(dl)
	}
	return nil
}

// SetWriteDeadline forwards to the wrapped transport when it supports
// deadlines and is a no-op otherwise.
func (t *Transport) SetWriteDeadline(dl time.Time) error {
	if d, ok := t.rwc.(interface{ SetWriteDeadline(time.Time) error }); ok {
		return d.SetWriteDeadline(dl)
	}
	return nil
}

// Dialer opens TCP connections wrapped in fault-injecting transports. Fault
// budgets (MaxResets, MaxDialFails) are shared across every connection the
// dialer creates, and each connection derives its own PRNG stream from the
// dialer's seed and a dial sequence number, so a fixed seed replays the same
// schedule for the same dial order.
type Dialer struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
	seq int64

	dialFails, resets *budget
}

// NewDialer builds a dialer with the given fault plan.
func NewDialer(cfg Config) *Dialer {
	return &Dialer{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		dialFails: newBudget(cfg.MaxDialFails),
		resets:    newBudget(cfg.MaxResets),
	}
}

// Dial opens a TCP connection to addr within timeout (0 = no timeout) and
// wraps it. Injected failures return ErrInjectedDialFailure.
func (d *Dialer) Dial(addr string, timeout time.Duration) (*Transport, error) {
	d.mu.Lock()
	d.seq++
	seed := d.cfg.Seed + 0x9e3779b9*d.seq
	fail := d.cfg.DialFailProb > 0 && d.rng.Float64() < d.cfg.DialFailProb
	d.mu.Unlock()
	if fail && d.dialFails.take() {
		return nil, fmt.Errorf("%w: %s", ErrInjectedDialFailure, addr)
	}
	var (
		nc  net.Conn
		err error
	)
	if timeout > 0 {
		nc, err = net.DialTimeout("tcp", addr, timeout)
	} else {
		nc, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	cfg := d.cfg
	cfg.Seed = seed
	t := NewTransport(nc, cfg)
	// Share the dialer-wide budgets so chaos is bounded globally, not per
	// connection.
	t.resets = d.resets
	return t, nil
}
