package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/record"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

// Graceful degradation (the paper's Table 1 claim, measured): when a
// middlebox strips or mangles TCPLS signals — the ClientHello extension,
// JOIN handshakes, a pinned 4-tuple — the session sheds the capability
// the interference killed instead of aborting. The ladder runs from
// "full TCPLS" through "single-path TCPLS" down to "plain TLS over one
// TCP connection", which is exactly what the hostile middle of the
// Internet already tolerates. Every rung down emits a typed
// session:degraded event carrying the detected cause.

// Capability is a bitmask of TCPLS features a session can shed under
// middlebox interference.
type Capability uint32

// Capabilities, from most to least commonly lost.
const (
	// CapMultipath is bandwidth aggregation over extra JOINed paths.
	CapMultipath Capability = 1 << iota
	// CapMigration is connection migration/failover rescue via JOIN.
	CapMigration
	// CapControlChannel is the TCPLS record-layer control channel
	// (encrypted TCP options, acks, address advertisements).
	CapControlChannel

	// CapAll is every TCPLS capability; losing all of them is plain TLS.
	CapAll = CapMultipath | CapMigration | CapControlChannel
)

// String renders the capability set for traces.
func (c Capability) String() string {
	if c == 0 {
		return "none"
	}
	var parts []string
	if c&CapMultipath != 0 {
		parts = append(parts, "multipath")
	}
	if c&CapMigration != 0 {
		parts = append(parts, "migration")
	}
	if c&CapControlChannel != 0 {
		parts = append(parts, "control")
	}
	return strings.Join(parts, "|")
}

// ErrCapabilityDisabled reports an operation refused because middlebox
// interference already forced the session to shed the capability.
var ErrCapabilityDisabled = errors.New("tcpls: capability disabled after middlebox interference")

// defaultJoinFailLimit is how many consecutive JOIN handshake failures
// (with a healthy primary) disable multipath when Config.JoinFailLimit
// is zero.
const defaultJoinFailLimit = 3

// defaultRevalidateTimeout bounds a path re-validation probe (virtual
// time) when Config.RevalidateTimeout is zero.
const defaultRevalidateTimeout = 500 * time.Millisecond

// plainStreamID is the single stream a degraded plain-TLS session
// carries: the client's first stream id, so both ends agree without any
// TCPLS framing on the wire.
const plainStreamID = 1

// DegradedCaps returns the capabilities the session has shed.
func (s *Session) DegradedCaps() Capability {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disabledCaps
}

// PlainMode reports whether the session fell back to plain TLS over a
// single TCP connection (no TCPLS framing on the wire).
func (s *Session) PlainMode() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plainMode
}

// capDisabled reports whether a capability has been shed.
func (s *Session) capDisabled(c Capability) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disabledCaps&c != 0
}

// disableCapability sheds capabilities, emitting the typed degrade
// event with the detected cause. Idempotent per capability.
func (s *Session) disableCapability(c Capability, cause string) {
	s.mu.Lock()
	fresh := c &^ s.disabledCaps
	if fresh == 0 {
		s.mu.Unlock()
		return
	}
	s.disabledCaps |= c
	now := s.disabledCaps
	s.mu.Unlock()
	s.ctr.capsDegraded.Add(1)
	s.emit(telemetry.Event{
		Kind: telemetry.EvSessionDegraded,
		A:    int64(now),
		S:    fmt.Sprintf("%s: %s", fresh, cause),
	})
	if cb := s.cfg.Callbacks.SessionDegraded; cb != nil {
		cb(now, cause)
	}
	// Degradation is an anomaly worth a flight-recorder artifact even
	// though the session keeps running.
	s.flightDump("degraded: " + cause)
}

// noteJoinFailure counts consecutive JOIN failures. Interference that
// kills JOIN handshakes while the primary stays healthy (a middlebox
// mangling secondary ClientHellos) must not be retried forever: past the
// limit the session sheds multipath and runs single-path.
func (s *Session) noteJoinFailure(cause error) {
	limit := s.cfg.JoinFailLimit
	if limit <= 0 {
		limit = defaultJoinFailLimit
	}
	s.mu.Lock()
	s.joinFails++
	n := s.joinFails
	s.mu.Unlock()
	if n >= limit && s.cfg.AllowDegraded && s.primaryPath() != nil {
		s.disableCapability(CapMultipath, fmt.Sprintf("%d consecutive join failures (%v)", n, cause))
	}
}

// noteJoinSuccess resets the consecutive-failure counter.
func (s *Session) noteJoinSuccess() {
	s.mu.Lock()
	s.joinFails = 0
	s.mu.Unlock()
}

// enterPlainMode marks the session degraded to plain TLS: every TCPLS
// capability is shed, and the (single) path carries raw application
// bytes instead of TCPLS records.
func (s *Session) enterPlainMode(cause string) {
	s.mu.Lock()
	s.plainMode = true
	s.mu.Unlock()
	s.disableCapability(CapAll, cause)
}

// adoptPlain registers an established plain-TLS connection as the
// session's single degraded path.
func (s *Session) adoptPlain(tcp net.Conn, tc *tls13.Conn, cause string) error {
	s.enterPlainMode(cause)
	pc := newPathConn(s, tcp, tc)
	pc.plain = true
	return s.registerPath(pc)
}

// fallbackPlainHandshake redials the last remote and runs a plain TLS
// handshake — no TCPLS extension for a middlebox to choke on. This is
// the client's reaction to a mangled/stripped primary handshake: the
// original TLS transcript was corrupted in flight, so only a fresh
// connection can succeed.
func (s *Session) fallbackPlainHandshake(cause string) error {
	s.mu.Lock()
	raddr := s.lastRemote
	s.mu.Unlock()
	if !raddr.IsValid() {
		return ErrNoAddresses
	}
	pol := s.cfg.Retry.withDefaults()
	tcp, err := s.dialer.Dial(netip.Addr{}, raddr, pol.DialTimeout)
	if err != nil {
		return fmt.Errorf("tcpls: plain fallback dial: %w", err)
	}
	tc := tls13.Client(tcp, s.cloneTLSConfig())
	tcp.SetDeadline(time.Now().Add(s.cfg.Clock.ScaleDuration(s.limits.HandshakeTimeout)))
	if err := tc.Handshake(); err != nil {
		tcp.Close()
		return fmt.Errorf("tcpls: plain fallback handshake: %w", err)
	}
	tcp.SetDeadline(time.Time{})
	s.emit(telemetry.Event{Kind: telemetry.EvSessionStart, S: "client-degraded"})
	return s.adoptPlain(tcp, tc, cause)
}

// writePlain is writeStream on the bare TLS connection: data becomes
// application bytes, the FIN a TLS half-close. A plain path has no ack
// machinery and no failover to replay for, so what the transport took is
// self-acked.
func (pc *pathConn) writePlain(st *Stream, off uint64, a, b []byte, fin bool) error {
	s := pc.session
	pc.writeMu.Lock()
	defer pc.writeMu.Unlock()
	for _, data := range [2][]byte{a, b} {
		if len(data) == 0 {
			continue
		}
		if _, err := pc.tls.Write(data); err != nil {
			return err
		}
		s.ctr.recordsSent.Add(1)
		s.ctr.bytesSent.Add(uint64(len(data)))
		s.touch()
		s.emitRecord(telemetry.EvRecordSent, pc, &record.StreamChunk{StreamID: st.id, Offset: off, Data: data})
		off += uint64(len(data))
		st.handleAck(off)
	}
	if fin {
		if err := pc.tls.CloseWrite(); err != nil {
			return err
		}
		st.handleAck(off + 1)
	}
	return nil
}

// plainReadLoop pumps raw TLS application bytes into the session's
// single stream, synthesizing offsets locally (TCP already delivers
// in-order on the one path). An orderly EOF becomes the stream FIN and
// leaves the write half usable — plain TLS half-close semantics.
func (pc *pathConn) plainReadLoop() {
	var offset uint64
	for {
		buf := bufpool.Get(DefaultRecordSize)
		n, err := pc.tls.Read(buf)
		if n > 0 {
			chunk := &record.StreamChunk{StreamID: plainStreamID, Offset: offset, Data: buf[:n]}
			offset += uint64(n)
			pc.session.dispatchChunk(pc, chunk, buf)
			pc.session.touch()
			pc.session.noteBlackoutEnd()
		} else {
			bufpool.Put(buf)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				pc.session.dispatchChunk(pc, &record.StreamChunk{
					StreamID: plainStreamID, Offset: offset, Fin: true,
				}, nil)
				return
			}
			pc.handleDeath(err)
			return
		}
	}
}

// --- path re-validation (NAT rebind detection) ---

// detectRebind inspects a newly joined path against the session's other
// live paths: the same peer host arriving from a different port means a
// NAT rebound the old mapping mid-session, and the old path is very
// likely a blackhole. Rather than letting its health silently decay
// through the full probe-failure budget, the old path gets an immediate
// re-validation probe with a hard deadline.
func (s *Session) detectRebind(newPC *pathConn) {
	newAddr, ok := remoteAddrPort(newPC)
	if !ok {
		return
	}
	for _, pc := range s.livePaths() {
		if pc == newPC || pc.plain {
			continue
		}
		old, ok := remoteAddrPort(pc)
		if !ok {
			continue
		}
		// Same host, different port: a rebound 4-tuple. A different host
		// is legitimate multipath (v4+v6), not a rebind.
		if old.Addr() == newAddr.Addr() && old.Port() != newAddr.Port() {
			s.revalidatePath(pc, fmt.Sprintf("4-tuple rebind %s -> %s", old, newAddr))
		}
	}
}

// revalidatePath sends one probe on a suspect path and degrades it if
// the probe goes unanswered within the re-validation timeout — a
// bounded, explicit liveness check instead of waiting for the health
// monitor's slower consecutive-failure budget.
func (s *Session) revalidatePath(pc *pathConn, cause string) {
	if pc.isClosed() || s.Closed() {
		return
	}
	seq := s.probeSeq.Add(1)
	pc.health.noteSent(seq, time.Now())
	s.emit(telemetry.Event{
		Kind: telemetry.EvPathRevalidate,
		Path: pc.id,
		A:    int64(seq),
		S:    cause,
	})
	go pc.writeControl(record.Ping{Seq: seq})
	timeout := s.cfg.RevalidateTimeout
	if timeout <= 0 {
		timeout = defaultRevalidateTimeout
	}
	s.cfg.Clock.AfterFunc(timeout, func() {
		if pc.isClosed() || s.Closed() {
			return
		}
		if pc.health.isOutstanding(seq) {
			// The rebound path never answered: it is a blackhole.
			s.degradePath(pc)
		}
	})
}

// remoteAddrPort extracts the peer's transport address when the
// underlying net.Addr carries one.
func remoteAddrPort(pc *pathConn) (netip.AddrPort, bool) {
	addr := pc.tcp.RemoteAddr()
	if addr == nil {
		return netip.AddrPort{}, false
	}
	if a, ok := addr.(interface{ AddrPort() netip.AddrPort }); ok {
		return a.AddrPort(), true
	}
	parsed, err := netip.ParseAddrPort(addr.String())
	if err != nil {
		return netip.AddrPort{}, false
	}
	return parsed, true
}
