package openflow

import (
	"testing"
	"time"
)

func echoProbe(t *testing.T, addr string) error {
	t.Helper()
	conn, err := DialTimeout(addr, time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	conn.SetIOTimeout(time.Second)
	return conn.Ping([]byte("probe"))
}

func TestEchoServerAnswersProbes(t *testing.T) {
	s, err := ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	for i := 0; i < 3; i++ {
		if err := echoProbe(t, s.Addr()); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if s.Pings() != 3 {
		t.Fatalf("pings = %d, want 3", s.Pings())
	}
}

func TestEchoServerToggleLiveness(t *testing.T) {
	s, err := ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if err := echoProbe(t, s.Addr()); err != nil {
		t.Fatalf("probe while alive: %v", err)
	}

	s.SetAlive(false)
	if err := echoProbe(t, s.Addr()); err == nil {
		t.Fatal("probe succeeded against a dead endpoint")
	}

	// The endpoint resumes on the same address.
	s.SetAlive(true)
	if err := echoProbe(t, s.Addr()); err != nil {
		t.Fatalf("probe after revival: %v", err)
	}
}

func TestEchoServerDownKillsOpenChannels(t *testing.T) {
	s, err := ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	conn, err := DialTimeout(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	conn.SetIOTimeout(time.Second)
	if err := conn.Ping([]byte("up")); err != nil {
		t.Fatal(err)
	}

	s.SetAlive(false)
	if err := conn.Ping([]byte("down")); err == nil {
		t.Fatal("ping on an open channel succeeded after the endpoint died")
	}
}

// TestEchoServerDeadEndpointAcceptsThenCloses pins what "dead" looks like on
// the wire, since detectors are written against it: the dial and its Hello
// exchange succeed, and the first read finds the channel closed.
func TestEchoServerDeadEndpointAcceptsThenCloses(t *testing.T) {
	s, err := ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	s.SetAlive(false)

	conn, err := DialTimeout(s.Addr(), time.Second)
	if err != nil {
		t.Fatalf("dial to a dead endpoint: %v; it keeps its port and completes the handshake", err)
	}
	defer func() { _ = conn.Close() }()
	conn.SetIOTimeout(time.Second)
	if msg, _, err := conn.Recv(); err == nil {
		t.Fatalf("read %v from a dead endpoint, want the channel closed", msg.MsgType())
	}
	if s.Pings() != 0 {
		t.Fatalf("a dead endpoint answered %d pings", s.Pings())
	}
}

// TestEchoServerCloseTwice: the second Close is a no-op that returns what the
// first did.
func TestEchoServerCloseTwice(t *testing.T) {
	s, err := ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := echoProbe(t, s.Addr()); err != nil {
		t.Fatal(err)
	}
	first := s.Close()
	if again := s.Close(); again != first {
		t.Fatalf("second Close returned %v, the first %v", again, first)
	}
	if err := echoProbe(t, s.Addr()); err == nil {
		t.Fatal("a closed endpoint still answers")
	}
}

// TestEchoServerSilentClientBlocksNoProbe: a client that connects and never
// says Hello costs its own channel only; probes behind it are answered.
func TestEchoServerSilentClientBlocksNoProbe(t *testing.T) {
	s, err := ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	checkSilentClientBlocksNoOne(t, s.Addr(), s.Close)
}
