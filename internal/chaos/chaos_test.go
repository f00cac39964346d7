package chaos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// frame builds one openflow-framed message of total length 8+len(body).
func frame(xid uint32, body []byte) []byte {
	b := make([]byte, 8+len(body))
	b[0] = 0x04
	b[1] = 0x01
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	binary.BigEndian.PutUint32(b[4:8], xid)
	copy(b[8:], body)
	return b
}

// recorder is an in-memory ReadWriteCloser capturing writes.
type recorder struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recorder) Read(p []byte) (int, error) { return 0, io.EOF }
func (r *recorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Write(p)
}
func (r *recorder) Close() error { return nil }
func (r *recorder) bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.buf.Bytes()...)
}

func TestDeterministicSchedule(t *testing.T) {
	// The same seed and write sequence must produce the same surviving byte
	// stream, twice in a row.
	run := func() []byte {
		rec := &recorder{}
		tr := NewTransport(rec, Config{Seed: 42, DupProb: 0.3})
		for i := 0; i < 50; i++ {
			if _, err := tr.Write(frame(uint32(i), []byte{byte(i)})); err != nil {
				t.Fatal(err)
			}
		}
		return rec.bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different schedules: %d vs %d bytes", len(a), len(b))
	}
	// And a different seed should (for this configuration) differ.
	rec := &recorder{}
	tr := NewTransport(rec, Config{Seed: 43, DupProb: 0.3})
	for i := 0; i < 50; i++ {
		if _, err := tr.Write(frame(uint32(i), []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(a, rec.bytes()) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestFrameDropAndDup: no setting drops a frame, so a frame passes once
// by default, and with DupProb 1 it arrives twice.
func TestFrameDropAndDup(t *testing.T) {
	rec := &recorder{}
	tr := NewTransport(rec, Config{})
	msg := frame(7, []byte("x"))
	if _, err := tr.Write(msg); err != nil {
		t.Fatal(err)
	}
	if got := rec.bytes(); !bytes.Equal(got, msg) {
		t.Fatalf("default config wrote %d bytes, want the frame once (%d)", len(got), len(msg))
	}

	rec = &recorder{}
	tr = NewTransport(rec, Config{DupProb: 1})
	if _, err := tr.Write(msg); err != nil {
		t.Fatal(err)
	}
	if got := rec.bytes(); !bytes.Equal(got, append(append([]byte(nil), msg...), msg...)) {
		t.Fatalf("DupProb=1 wrote %d bytes, want doubled frame (%d)", len(got), 2*len(msg))
	}
}

// TestFrameFaultsRespectBudgetsAndPartialWrites: two transports share one
// reset budget, as a Dialer's connections do. The first write spends it and
// leaks at most a strict prefix of its frame; on the second transport the
// reset no longer fires, and a frame fed in partial writes escapes, doubled,
// only once it is whole.
func TestFrameFaultsRespectBudgetsAndPartialWrites(t *testing.T) {
	cfg := Config{ResetProb: 1, MaxResets: 1, DupProb: 1}
	shared := newBudget(cfg.MaxResets)
	msg := frame(1, []byte("abc"))

	rec1 := &recorder{}
	tr1 := NewTransport(rec1, cfg)
	tr1.resets = shared
	if _, err := tr1.Write(msg); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("first write error = %v, want ErrInjectedReset", err)
	}
	if got := rec1.bytes(); len(got) >= len(msg) || !bytes.HasPrefix(msg, got) {
		t.Fatalf("reset leaked %x, want a strict prefix of %x", got, msg)
	}

	rec2 := &recorder{}
	tr2 := NewTransport(rec2, cfg)
	tr2.resets = shared
	if _, err := tr2.Write(msg[:5]); err != nil {
		t.Fatalf("write after the budget is spent: %v", err)
	}
	if len(rec2.bytes()) != 0 {
		t.Fatal("partial frame escaped the buffer")
	}
	if _, err := tr2.Write(msg[5:]); err != nil {
		t.Fatal(err)
	}
	if got := rec2.bytes(); !bytes.Equal(got, append(append([]byte(nil), msg...), msg...)) {
		t.Fatalf("DupProb=1 wrote %d bytes, want the doubled frame (%d)", len(got), 2*len(msg))
	}
}

func TestInjectedReset(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = b.Close() }()
	tr := NewTransport(a, Config{ResetProb: 1})

	// Drain the peer so a partial prefix write cannot block.
	go func() { _, _ = io.Copy(io.Discard, b) }()

	if _, err := tr.Write(frame(1, []byte("doomed"))); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write error = %v, want ErrInjectedReset", err)
	}
	// The transport is dead: reads and writes fail fast.
	if _, err := tr.Write([]byte("more")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("second write error = %v", err)
	}
	if _, err := tr.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("read error = %v", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	tr := NewTransport(a, Config{Latency: 30 * time.Millisecond})
	go func() { _, _ = b.Write([]byte("x")) }()
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := tr.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("read returned after %v, want >= 30ms", elapsed)
	}
}

func TestDeadlinesForwarded(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	tr := NewTransport(a, Config{})
	if err := tr.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := tr.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read error = %v, want timeout", err)
	}
}

func TestDialerFailuresAndBudget(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()

	d := NewDialer(Config{Seed: 1, DialFailProb: 1, MaxDialFails: 2})
	for i := 0; i < 2; i++ {
		if _, err := d.Dial(l.Addr().String(), time.Second); !errors.Is(err, ErrInjectedDialFailure) {
			t.Fatalf("dial %d error = %v, want injected failure", i, err)
		}
	}
	// Budget spent: the third dial succeeds.
	tr, err := d.Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial after budget: %v", err)
	}
	_ = tr.Close()
}
