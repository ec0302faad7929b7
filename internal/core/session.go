// Package core implements the TCPLS session: one encrypted session
// multiplexed over one or more TCP connections.
//
// It is the paper's §2 design rendered in Go: the TLS 1.3 handshake
// doubles as the TCPLS handshake (transport parameters ride a ClientHello
// extension, the server's CONNID/cookies/addresses ride
// EncryptedExtensions — Figure 2); the TLS record layer doubles as a
// secure control channel (TCP options, acknowledgments, address
// advertisements, eBPF programs — §2.2/§3); datastreams with their own
// crypto contexts are multiplexed over the session's TCP connections
// (§2.3); and the session survives the failure or migration of any
// individual TCP connection (§2.1, §3.2).
package core

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/record"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/timingwheel"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

// Role distinguishes the two ends of a session.
type Role int

// Session roles.
const (
	RoleClient Role = iota
	RoleServer
)

// Errors.
var (
	ErrSessionClosed = errors.New("tcpls: session closed")
	ErrNoConnection  = errors.New("tcpls: no live TCP connection")
	ErrNoCookies     = errors.New("tcpls: no join cookies left")
	ErrJoinRejected  = errors.New("tcpls: join rejected")
	ErrUnknownStream = errors.New("tcpls: unknown stream")
	ErrNoAddresses   = errors.New("tcpls: no addresses to connect to")
	// ErrPathUnhealthy reports that the health monitor declared a path
	// dead (consecutive unanswered probes) and failed it over proactively,
	// before the transport's own read loop noticed anything.
	ErrPathUnhealthy = errors.New("tcpls: path failed health probes")
)

// Dialer opens transport connections: satisfied by tcpnet stacks and by
// adapters over net.Dialer, so TCPLS runs identically on the emulated
// network and on real sockets.
type Dialer interface {
	Dial(laddr netip.Addr, raddr netip.AddrPort, timeout time.Duration) (net.Conn, error)
}

// Introspector is the cross-layer window into a TCP connection
// (tcpnet.Conn implements it). Code must treat it as optional: kernel
// sockets don't provide it.
type Introspector interface {
	// CWndInfo returns (cwnd, bytesInFlight, mss).
	CWndInfo() (int, int, int)
	// SetUserTimeout applies RFC 5482 locally ("performs the required
	// setsockopt", §3.1).
	SetUserTimeout(d time.Duration)
}

// SchedulingMode selects how stream data maps onto TCP connections
// (§2.4: HOL-blocking avoidance and bandwidth aggregation are exclusive).
type SchedulingMode int

// Scheduling modes.
const (
	// ModeSinglePath sends every stream on its attached connection.
	// Streams on different connections cannot block each other (the
	// "HOL-avoidance" mode).
	ModeSinglePath SchedulingMode = iota
	// ModeAggregate sprays every stream across all live connections for
	// bandwidth aggregation; a loss on one TCP connection can then stall
	// delivery of the whole stream (the HOL tradeoff of §2.1).
	ModeAggregate
)

// Callbacks deliver session events to the application, mirroring the
// "CB events" arrows of Figure 3. All callbacks are optional and are
// invoked from internal goroutines — they must not block.
type Callbacks struct {
	// ConnEstablished fires when a TCP connection finishes its TCPLS
	// handshake (initial or JOIN).
	ConnEstablished func(pathID uint32, local, remote net.Addr)
	// ConnClosed fires when a TCP connection dies or is closed; failed
	// reports whether it was an error (failover candidates) or orderly.
	ConnClosed func(pathID uint32, failed bool)
	// StreamOpened fires when the peer opens a stream.
	StreamOpened func(s *Stream)
	// TCPOption fires when a TCP option arrives over the secure channel
	// (after the session applied it, §3.1).
	TCPOption func(kind uint8, data []byte)
	// AddressAdvertised fires for each address learned over the secure
	// channel (§2.2).
	AddressAdvertised func(addr netip.AddrPort, primary bool)
	// CCInstalled fires after an eBPF congestion controller shipped by
	// the peer was verified and installed (§3(iii)).
	CCInstalled func(name string)
	// Join fires on servers when a client attaches a new connection.
	Join func(pathID uint32, remote net.Addr)
	// PathDegraded fires when the health monitor declares a path dead
	// (probe timeout) and fails it over proactively — before the
	// transport surfaced any error.
	PathDegraded func(pathID uint32, reason error)
	// SessionDegraded fires when middlebox interference forces the
	// session to shed capabilities (AllowDegraded); caps is the full set
	// now disabled, cause the detected trigger.
	SessionDegraded func(caps Capability, cause string)
	// SessionClosed fires once, when the session terminates.
	SessionClosed func(err error)
	// FlightDump fires when an anomaly (stall, shed, degradation, abort)
	// dumps the session's flight recorder. The dump is a snapshot; the
	// callback may retain it.
	FlightDump func(dump SessionDump)
}

// Config configures a TCPLS session endpoint.
type Config struct {
	// TLS carries certificates, roots, ALPN and resumption state. The
	// TCPLS extension plumbing is installed by this package.
	TLS *tls13.Config
	// Multipath advertises/accepts bandwidth aggregation (§2.4).
	Multipath bool
	// Mode selects the scheduling mode once multiple connections exist.
	Mode SchedulingMode
	// NumCookies is how many JOIN cookies the server issues (default 8).
	NumCookies int
	// AdvertiseAddresses are extra server endpoints announced in the
	// handshake (the dual-stack advertisement of §2.2).
	AdvertiseAddresses []netip.AddrPort
	// UserTimeout, when set on a client, is sent to the server over the
	// secure channel as a TCP User Timeout option (§3.1) and applied
	// locally where the transport allows.
	UserTimeout time.Duration
	// EnableAcks turns on TCPLS acknowledgments (default true via
	// DisableAcks=false); they drive the failover replay buffer (§2.1).
	DisableAcks bool
	// RecordSize fixes the stream-chunk size. Zero means cross-layer
	// sizing: match the chunk to the congestion window to avoid
	// fragmented records (§4.6) when the transport is introspectable,
	// else DefaultRecordSize.
	RecordSize int
	// Callbacks receive session events.
	Callbacks Callbacks
	// Clock scales protocol timers on emulated networks (optional).
	Clock Clock
	// HealthProbeInterval enables per-path health monitoring when > 0:
	// every interval (virtual time) the session sends a PING over each
	// live connection's secure channel and tracks RTT and unanswered
	// probes. A path with HealthFailAfter consecutive unanswered probes
	// is failed over proactively — detecting silent blackholes (stalled
	// middleboxes, dead links) long before TCP's retransmission timers
	// give up.
	HealthProbeInterval time.Duration
	// HealthFailAfter is how many consecutive unanswered probes mark a
	// path dead (default 3).
	HealthFailAfter int
	// Retry tunes the reconnection backoff (zero value = defaults:
	// 50ms base, 2s cap, ×2 growth, ±50% jitter, 8 attempts).
	Retry RetryPolicy
	// RetrySeed seeds backoff jitter for reproducible runs (0 = random).
	RetrySeed int64
	// Limits bounds the resources a peer can make this session consume
	// (paths, streams, buffered bytes, handshake time). Zero fields take
	// the package defaults.
	Limits ResourceLimits
	// AllowDegraded enables graceful degradation under middlebox
	// interference: a client whose TCPLS handshake is mangled in flight
	// falls back to plain TLS over one TCP connection, a server accepts
	// plain-TLS clients as degraded sessions, and repeated JOIN failures
	// shed multipath instead of retrying forever. Off by default: without
	// it, interference is a hard error.
	AllowDegraded bool
	// JoinFailLimit is how many consecutive JOIN failures (with a live
	// primary) disable multipath when AllowDegraded is set (default 3).
	JoinFailLimit int
	// RevalidateTimeout bounds a path re-validation probe after a
	// detected 4-tuple rebind (virtual time, default 500ms): an
	// unanswered probe degrades the path immediately.
	RevalidateTimeout time.Duration
	// Tracer receives structured session/path/stream/health events. A
	// nil tracer (or one with no sink) is disabled at zero cost.
	Tracer *telemetry.Tracer
	// Metrics, when set, receives the session's pull-mode vars under
	// session.<n>.* (and per-path gauges under session.<n>.path.<id>.*).
	Metrics *telemetry.Registry
	// Accounting, when set on a listener, enforces server-wide budgets:
	// admission control at accept/handshake/JOIN, global path and stream
	// caps, and prioritized load shedding under pressure. Sessions
	// inherit it from their listener; nil disables every check.
	Accounting *Accounting
	// StallTimeout enables the stall watchdog when > 0: a stream whose
	// unacked data sees no ack progress for this long (virtual time), or
	// a path whose peer advertises a zero receive window that long while
	// data is pending, ends the session with a typed *StallError and
	// reclaims its buffers. Off by default.
	StallTimeout time.Duration
	// StallCheckInterval is the watchdog sweep interval (default
	// StallTimeout/4).
	StallCheckInterval time.Duration
	// TraceSampleRate, when > 1, forwards full-fidelity trace events to
	// Tracer for only one session in N (chosen deterministically by the
	// process-wide session sequence number); the per-session flight
	// recorder still records every session. 0 or 1 traces every session.
	TraceSampleRate int
	// FlightRecorderSize is the per-session flight-recorder capacity in
	// events (0 = default 256; negative disables the recorder). The
	// recorder keeps the session's last N events at zero steady-state
	// allocation and dumps them on anomalies (stalls, sheds,
	// degradations, aborts) via Callbacks.FlightDump / FlightDumpDir.
	FlightRecorderSize int
	// FlightDumpDir, when set, receives one JSONL artifact per anomaly
	// dump (flight-s<seq>-<connid>.jsonl) alongside the FlightDump
	// callback.
	FlightDumpDir string
	// Shards is the listener's session-table shard count, rounded up to
	// a power of two (0 = 64). Each shard holds its slice of the conn-id
	// space under its own lock, so accept, JOIN and teardown contend
	// only when their ids share a shard.
	Shards int
	// AcceptWorkers is the listener's handshake worker-pool size (0 =
	// 32): accepted connections are batched into a queue and handshaken
	// by this fixed pool, instead of one goroutine per connection.
	AcceptWorkers int
	// AcceptBacklog is the depth of the queue between the accept loop
	// and the handshake workers (0 = 8×AcceptWorkers). A connection
	// arriving to a full queue is closed pre-TLS and counted as a
	// rejected_pre_tls overload rejection.
	AcceptBacklog int
	// onTeardown is the listener's teardown hook (session-table removal
	// and conn-id release); set by sessionConfig, never by callers.
	onTeardown func(*Session)
	// runtime is the listener's shared timer/event machinery; sessions
	// carrying one are swept by its timer loop instead of running their
	// own health-monitor and watchdog goroutines. Set by sessionConfig,
	// never by callers.
	runtime *serverRuntime
}

// Clock abstracts timer scaling; netsim.Network implements it. Timers
// land on a hierarchical timing wheel (the clock owner's, or the
// process-wide default), so arming one is allocation-free after the
// first use and firing costs no per-timer goroutine.
type Clock interface {
	AfterFunc(d time.Duration, f func()) *timingwheel.Timer
	ScaleDuration(d time.Duration) time.Duration
}

type realClock struct{}

func (realClock) AfterFunc(d time.Duration, f func()) *timingwheel.Timer {
	return timingwheel.Default().AfterFunc(d, f)
}
func (realClock) ScaleDuration(d time.Duration) time.Duration { return d }

// DefaultRecordSize is the stream chunk size when the transport offers
// no congestion-window introspection.
const DefaultRecordSize = 4096

// MaxRecordPayload bounds a stream chunk to what one TLS record holds.
const MaxRecordPayload = tls13.MaxPlaintext - record.StreamHeaderLen - 1

// ackInterval is how many received bytes trigger a TCPLS ack.
const ackInterval = 64 << 10

// replayBufferLimit bounds un-acked retained data per stream; Write
// blocks when the buffer is full (ack-driven flow control).
const replayBufferLimit = 4 << 20

// Session is one TCPLS session: a secure byte-stream multiplexer over a
// set of TCP connections.
type Session struct {
	role   Role
	cfg    *Config
	limits ResourceLimits // cfg.Limits with defaults applied
	seq    uint32         // process-wide session number (metrics namespace)
	ctr    sessionCounters

	mu       sync.Mutex
	conns    map[uint32]*pathConn
	primary  *pathConn
	nextPath uint32

	streams      map[uint32]*Stream
	nextStreamID uint32
	acceptCh     chan *Stream

	connID    uint32   // session identifier (Figure 2's CONNID)
	cookies   [][]byte // client: unused cookies received from the server
	joinKey   []byte   // HMAC key authenticating JOINs
	peerAddrs []record.Advertisement

	multipath bool // negotiated

	dialer     Dialer
	pendingTCP net.Conn   // dialed before Handshake (primary-to-be)
	preJoin    []net.Conn // dialed before Handshake (extra paths)
	lastRemote netip.AddrPort

	closed    bool
	closeErr  error
	closeOnce sync.Once
	closeCh   chan struct{} // closed in teardown; cancels backoffs/probes

	jitter       *jitterRNG    // reconnect backoff randomness
	reconnecting bool          // single-flight guard for Session.reconnect
	healthOnce   sync.Once     // starts the health monitor at most once
	watchdogOnce sync.Once     // starts the stall watchdog at most once
	probeSeq     atomic.Uint32 // next health-probe sequence number

	// server-wide accounting (nil when no Accounting is configured)
	acct         *Accounting
	acctAdmitted bool         // this session holds a server session slot (s.mu)
	acctStreams  int          // global stream slots held (s.mu)
	lastActive   atomic.Int64 // wall nanos of the last data record sent/received

	// latency instrumentation and flight recorder
	flight        *telemetry.FlightRecorder // last-N event ring (all sessions)
	traceSampled  bool                      // selected for full-fidelity tracing
	startWall     time.Time                 // construction time (flight clock fallback)
	blackoutStart atomic.Int64              // wall nanos of last data before an unplanned path loss

	// graceful degradation state (middlebox interference)
	disabledCaps Capability // capabilities shed so far
	plainMode    bool       // fell back to plain TLS (no TCPLS framing)
	joinFails    int        // consecutive JOIN failures

	// server-side bookkeeping
	issuedCookies map[string]bool // outstanding (unused) cookie set
}

func newSession(role Role, cfg *Config, dialer Dialer) *Session {
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	s := &Session{
		role:          role,
		cfg:           cfg,
		limits:        cfg.Limits.withDefaults(),
		seq:           sessionSeq.Add(1),
		conns:         make(map[uint32]*pathConn),
		streams:       make(map[uint32]*Stream),
		acceptCh:      make(chan *Stream, 64),
		dialer:        dialer,
		issuedCookies: make(map[string]bool),
		closeCh:       make(chan struct{}),
		jitter:        newJitterRNG(cfg.RetrySeed),
		acct:          cfg.Accounting,
	}
	s.startWall = time.Now()
	s.lastActive.Store(s.startWall.UnixNano())
	if cfg.FlightRecorderSize >= 0 {
		s.flight = telemetry.NewFlightRecorder(cfg.FlightRecorderSize)
	}
	s.traceSampled = cfg.TraceSampleRate <= 1 || s.seq%uint32(cfg.TraceSampleRate) == 0
	if role == RoleClient {
		s.nextStreamID = 1 // client-initiated streams are odd
	} else {
		s.nextStreamID = 2 // server-initiated streams are even
	}
	s.registerSessionMetrics()
	if reg := cfg.Metrics; reg != nil {
		reg.Counter("sessions.opened").Inc()
		reg.Gauge("sessions.live").Add(1)
	}
	return s
}

// Role returns which end of the session this is.
func (s *Session) Role() Role { return s.role }

// ConnID returns the session identifier assigned by the server.
func (s *Session) ConnID() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connID
}

// CookiesLeft reports how many unused JOIN cookies the client holds.
func (s *Session) CookiesLeft() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.role == RoleClient {
		return len(s.cookies)
	}
	return len(s.issuedCookies)
}

// PeerAddresses returns the addresses the peer advertised (encrypted
// ADD_ADDR semantics, §2.2/§4.1).
func (s *Session) PeerAddresses() []netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]netip.AddrPort, 0, len(s.peerAddrs))
	for _, a := range s.peerAddrs {
		out = append(out, netip.AddrPortFrom(a.Addr, a.Port))
	}
	return out
}

// Multipath reports whether bandwidth aggregation was negotiated.
func (s *Session) Multipath() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.multipath
}

// NumConns returns the number of live TCP connections in the session.
func (s *Session) NumConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, pc := range s.conns {
		if !pc.isClosed() {
			n++
		}
	}
	return n
}

// PathIDs lists the live path ids.
func (s *Session) PathIDs() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint32, 0, len(s.conns))
	for id, pc := range s.conns {
		if !pc.isClosed() {
			out = append(out, id)
		}
	}
	return out
}

// deriveJoinKey computes the session's JOIN authentication key from the
// primary connection's exporter interface.
func deriveJoinKey(tc *tls13.Conn, connID uint32) ([]byte, error) {
	var ctx [4]byte
	binary.BigEndian.PutUint32(ctx[:], connID)
	return tc.ExportSecret("tcpls join", ctx[:], 32)
}

// joinBinder authenticates a cookie for a JOIN: an on-path observer of
// the original handshake cannot compute it (§4.1's fix for MPTCP's
// plaintext keys).
func joinBinder(joinKey, cookie []byte) []byte {
	m := hmac.New(sha256.New, joinKey)
	m.Write([]byte("tcpls join binder"))
	m.Write(cookie)
	return m.Sum(nil)
}

func randomCookie() []byte {
	c := make([]byte, record.CookieLen)
	if _, err := rand.Read(c); err != nil {
		panic("tcpls: rand: " + err.Error())
	}
	return c
}

// registerPath adds a ready pathConn to the session and starts its read
// loop (and, on the first path, the health monitor). It fails — closing
// the path — if the session is gone or already at its path limit.
func (s *Session) registerPath(pc *pathConn) error {
	s.mu.Lock()
	if s.closed {
		// The session died while this path was handshaking: closing it
		// here is the only way its read loop won't leak.
		s.mu.Unlock()
		pc.close(ErrSessionClosed)
		return ErrSessionClosed
	}
	live := 0
	for _, c := range s.conns {
		if !c.isClosed() {
			live++
		}
	}
	if live >= s.limits.MaxPaths {
		err := &LimitError{Limit: "paths", Max: s.limits.MaxPaths}
		s.mu.Unlock()
		pc.close(err)
		return err
	}
	// Server-wide budget after the per-session one: a single peer at its
	// own cap never even touches the global ledger.
	if err := s.acct.acquirePath(); err != nil {
		s.mu.Unlock()
		pc.close(err)
		return err
	}
	pc.accounted = true // released by pc.close
	if s.primary == nil {
		s.primary = pc
	}
	s.conns[pc.id] = pc
	s.mu.Unlock()
	// Label the transport's own trace events with the TCPLS path id so
	// tcp:* and path:* events correlate on one timeline.
	if ts, ok := pc.tcp.(traceIDSetter); ok {
		ts.SetTraceID(pc.id)
	}
	joined := int64(0)
	if pc.joined {
		joined = 1
	}
	s.emit(telemetry.Event{
		Kind: telemetry.EvPathJoin,
		Path: pc.id,
		A:    joined,
		S:    pc.tcp.RemoteAddr().String(),
	})
	s.registerPathMetrics(pc)
	if pc.plain {
		// Degraded plain-TLS path: raw bytes, no control channel to
		// probe — the health monitor has nothing to say about it.
		go pc.plainReadLoop()
	} else {
		go pc.readLoop()
	}
	if rt := s.cfg.runtime; rt != nil {
		// Server sessions: the listener's shared timer loop drives health
		// probing and the stall watchdog for every enrolled session, so
		// the read loop above is this path's only steady-state goroutine.
		rt.enroll(s)
	} else {
		if !pc.plain {
			s.startHealthMonitor()
		}
		s.startStallWatchdog()
	}
	if cb := s.cfg.Callbacks.ConnEstablished; cb != nil {
		cb(pc.id, pc.tcp.LocalAddr(), pc.tcp.RemoteAddr())
	}
	return nil
}

func (s *Session) allocPathID() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextPath++
	return s.nextPath
}

// livePaths returns the live connections, primary first.
func (s *Session) livePaths() []*pathConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*pathConn
	if s.primary != nil && !s.primary.isClosed() {
		out = append(out, s.primary)
	}
	for _, pc := range s.conns {
		if pc != s.primary && !pc.isClosed() {
			out = append(out, pc)
		}
	}
	return out
}

// Path returns a live path by id.
func (s *Session) path(id uint32) *pathConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	pc := s.conns[id]
	if pc == nil || pc.isClosed() {
		return nil
	}
	return pc
}

// Close terminates the session: a SessionClose control record tells the
// peer this is a deliberate, authenticated termination (§2.1 "securely
// terminate"), then every TCP connection closes.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if pc := s.primaryPath(); pc != nil {
		pc.writeControl(record.SessionClose{})
	}
	s.teardown(nil)
	return nil
}

func (s *Session) primaryPath() *pathConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.primary != nil && !s.primary.isClosed() {
		return s.primary
	}
	for _, pc := range s.conns {
		if !pc.isClosed() {
			return pc
		}
	}
	return nil
}

// teardown closes everything; err is the cause (nil for orderly close).
func (s *Session) teardown(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.closeErr = err
	close(s.closeCh) // cancels in-flight backoffs and the health monitor
	conns := make([]*pathConn, 0, len(s.conns))
	for _, pc := range s.conns {
		conns = append(conns, pc)
	}
	streams := make([]*Stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	admitted := s.acctAdmitted
	s.acctAdmitted = false
	heldStreams := s.acctStreams
	s.acctStreams = 0
	s.mu.Unlock()
	s.acct.releaseStreams(heldStreams)
	if admitted {
		s.acct.releaseSession(s) // may reopen the admission gate
	}
	for _, pc := range conns {
		pc.close(nil)
	}
	termErr := err
	if termErr == nil {
		termErr = ErrSessionClosed
	}
	for _, st := range streams {
		st.terminate(termErr)
	}
	close(s.acceptCh)
	reason := "orderly"
	if err != nil {
		reason = err.Error()
	}
	s.emit(telemetry.Event{Kind: telemetry.EvSessionClose, S: reason})
	if err != nil {
		// Anomalous end (stall, shed, overload, abort): dump the flight
		// recorder while its ring still holds the events leading here.
		s.flightDump(reason)
	}
	s.rollupSessionMetrics()
	s.unregisterSessionMetrics()
	if rt := s.cfg.runtime; rt != nil {
		rt.unenroll(s) // stop shared sweeps (plain sessions enroll too)
	}
	if hook := s.cfg.onTeardown; hook != nil {
		hook(s) // listener bookkeeping: session-table and conn-id release
	}
	s.closeOnce.Do(func() {
		if cb := s.cfg.Callbacks.SessionClosed; cb != nil {
			cb(err)
		}
	})
}

// touch records data activity (a burst of stream records sent, a batch
// received) for idle classification by the shed pass. Control traffic — health pings,
// acks — deliberately does not count: a session kept "alive" only by
// its own probes is exactly the idle session shedding must reclaim.
func (s *Session) touch() {
	s.lastActive.Store(time.Now().UnixNano())
}

// stream returns the stream with the given id, or nil.
func (s *Session) stream(id uint32) *Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[id]
}

// Err returns the terminal session error, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

// Closed reports whether the session has terminated.
func (s *Session) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// waitForPath blocks until a live connection exists (returning it), the
// session closes, or the (virtual) timeout expires. Session close aborts
// the wait immediately rather than burning the rest of the poll budget.
func (s *Session) waitForPath(d time.Duration) *pathConn {
	deadline := time.Now().Add(s.cfg.Clock.ScaleDuration(d))
	for time.Now().Before(deadline) {
		if s.Closed() {
			return nil
		}
		if pc := s.primaryPath(); pc != nil {
			return pc
		}
		if !s.sleepCancelable(2 * time.Millisecond) {
			return nil
		}
	}
	return nil
}

func (s *Session) String() string {
	return fmt.Sprintf("tcpls session connid=%d conns=%d", s.ConnID(), s.NumConns())
}
