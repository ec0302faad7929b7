package core

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// TestStallErrorWrapping: watchdog teardowns carry a typed error that
// matches the sentinel and names what stalled.
func TestStallErrorWrapping(t *testing.T) {
	base := &StallError{Kind: "write-stall", Stream: 7}
	if !errors.Is(base, ErrPeerStalled) {
		t.Fatal("StallError does not match ErrPeerStalled")
	}
	wrapped := fmt.Errorf("session: %w", base)
	var se *StallError
	if !errors.As(wrapped, &se) || se.Stream != 7 || se.Kind != "write-stall" {
		t.Fatalf("errors.As lost the stall detail: %#v", se)
	}
	if errors.Is(base, ErrServerOverloaded) || errors.Is(base, ErrLimitExceeded) {
		t.Fatal("stall must not alias other sentinels")
	}
}

// TestWriteStallTearsDown: a peer that accepts a stream and then never
// drains it pins the sender's replay buffer forever; with StallTimeout
// set, the sender detects the frozen cumulative ack and tears the
// session down with a typed error instead of leaking the buffers.
func TestWriteStallTearsDown(t *testing.T) {
	v4, v6 := fastLinks()
	// Tiny server receive budget: the server app never reads, so its
	// read loop parks almost immediately and stops acking.
	srvCfg := &Config{Limits: ResourceLimits{MaxStreamRecvBuffer: 8 << 10}}
	cliCfg := &Config{
		StallTimeout:       400 * time.Millisecond,
		StallCheckInterval: 50 * time.Millisecond,
	}
	e := dualStackEnv(t, v4, v6, cliCfg, srvCfg)
	cli, srv := e.connect(t, cliCfg)

	st, err := cli.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	go st.Write(make([]byte, 256<<10)) // blocks once the peer stops draining

	waitFor(t, 15*time.Second, func() bool {
		return errors.Is(cli.Err(), ErrPeerStalled)
	}, "watchdog never declared the stall")
	var se *StallError
	if !errors.As(cli.Err(), &se) {
		t.Fatalf("client error = %v, want *StallError", cli.Err())
	}
	if se.Kind != "write-stall" && se.Kind != "zero-window" {
		t.Fatalf("unexpected stall kind %q", se.Kind)
	}
	if n := cli.ctr.stalls.Load(); n != 1 {
		t.Fatalf("stall counter = %d, want 1", n)
	}
	srv.Close()
}

// TestNoStallOnHealthyTransfer: a transfer that keeps making ack
// progress — however slowly — must never trip the watchdog.
func TestNoStallOnHealthyTransfer(t *testing.T) {
	v4, v6 := fastLinks()
	cliCfg := &Config{
		StallTimeout:       500 * time.Millisecond,
		StallCheckInterval: 50 * time.Millisecond,
	}
	e := dualStackEnv(t, v4, v6, cliCfg, &Config{})
	cli, srv := e.connect(t, cliCfg)

	st, err := cli.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sst, err := srv.AcceptStream()
		if err != nil {
			return
		}
		buf := make([]byte, 4<<10)
		for {
			if _, err := sst.Read(buf); err != nil {
				return
			}
		}
	}()
	// Drip data for several stall windows; the reader drains everything,
	// acks advance, and the session must stay up.
	chunk := make([]byte, 8<<10)
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := st.Write(chunk); err != nil {
			t.Fatalf("write failed mid-transfer: %v (session err %v)", err, cli.Err())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cli.Closed() {
		t.Fatalf("watchdog killed a healthy transfer: %v", cli.Err())
	}
	st.Close()
	cli.Close()
	<-done
}

// fakeWindowConn is a net.Conn stub whose peer receive window is pinned
// at zero — the transport-level signature of a peer that stopped
// draining its kernel buffer.
type fakeWindowConn struct {
	closed chan struct{}
}

func newFakeWindowConn() *fakeWindowConn {
	return &fakeWindowConn{closed: make(chan struct{})}
}

func (c *fakeWindowConn) PeerWindow() int { return 0 }

func (c *fakeWindowConn) Read(b []byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *fakeWindowConn) Write(b []byte) (int, error) { return len(b), nil }

func (c *fakeWindowConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

func (c *fakeWindowConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *fakeWindowConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *fakeWindowConn) SetDeadline(t time.Time) error      { return nil }
func (c *fakeWindowConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *fakeWindowConn) SetWriteDeadline(t time.Time) error { return nil }

// TestZeroWindowStall: the zero-window arm fires on its own — here with
// acks disabled, so the write-stall arm is provably out of the picture —
// when the peer advertises a zero receive window for the whole timeout
// while data is waiting.
func TestZeroWindowStall(t *testing.T) {
	cfg := &Config{
		DisableAcks:        true,
		StallTimeout:       100 * time.Millisecond,
		StallCheckInterval: 10 * time.Millisecond,
	}
	s := newSession(RoleServer, cfg, nil)
	fw := newFakeWindowConn()
	pc := newPathConn(s, fw, nil)
	s.mu.Lock()
	s.conns[pc.id] = pc
	s.mu.Unlock()

	st, err := s.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	holdUnacked(st, 64) // data waiting for a peer that will never drain

	s.startStallWatchdog()
	waitFor(t, 5*time.Second, func() bool {
		return errors.Is(s.Err(), ErrPeerStalled)
	}, "zero-window stall never detected")
	var se *StallError
	if !errors.As(s.Err(), &se) || se.Kind != "zero-window" || se.Path != pc.id {
		t.Fatalf("error = %v, want zero-window on path %d", s.Err(), pc.id)
	}
	select {
	case <-fw.closed:
	default:
		t.Fatal("teardown did not close the stalled path's transport")
	}
}

// TestZeroWindowNeedsPendingData: a zero window with nothing to send is
// normal flow control, not a stall — the watchdog must not fire.
func TestZeroWindowNeedsPendingData(t *testing.T) {
	cfg := &Config{
		DisableAcks:        true,
		StallTimeout:       60 * time.Millisecond,
		StallCheckInterval: 10 * time.Millisecond,
	}
	s := newSession(RoleServer, cfg, nil)
	defer s.teardown(ErrSessionClosed)
	fw := newFakeWindowConn()
	pc := newPathConn(s, fw, nil)
	s.mu.Lock()
	s.conns[pc.id] = pc
	s.mu.Unlock()
	if _, err := s.NewStream(); err != nil { // no unacked data on it
		t.Fatal(err)
	}
	s.startStallWatchdog()
	time.Sleep(300 * time.Millisecond) // several timeouts worth
	if s.Closed() {
		t.Fatalf("watchdog fired with no data in flight: %v", s.Err())
	}
}

// holdUnacked puts n sent-but-unacked bytes into the stream's replay
// buffer without a path to send them on.
func holdUnacked(st *Stream, n int) {
	st.mu.Lock()
	st.sendOffset += uint64(st.replay.Write(make([]byte, n), replayBufferLimit))
	st.mu.Unlock()
}
