package core

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/record"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

// NewClient creates a client session (tcpls_new). Connections are added
// with Connect / ConnectHappyEyeballs, then Handshake runs TCPLS over
// the primary connection — the workflow of Figure 3.
func NewClient(cfg *Config, dialer Dialer) *Session {
	if cfg.TLS == nil {
		cfg.TLS = &tls13.Config{}
	}
	return newSession(RoleClient, cfg, dialer)
}

// Connect opens a TCP connection for the session (tcpls_connect). Before
// Handshake, the first Connect establishes the primary connection;
// afterwards each Connect performs a JOIN handshake (Figure 2) and adds
// a path. laddr may be the zero Addr to pick a source automatically.
func (s *Session) Connect(laddr netip.Addr, raddr netip.AddrPort, timeout time.Duration) (uint32, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrSessionClosed
	}
	if s.plainMode {
		// A degraded plain-TLS session has no JOIN: without it a new
		// connection could never be tied to this session.
		s.mu.Unlock()
		return 0, ErrCapabilityDisabled
	}
	handshaken := s.joinKey != nil
	pending := s.pendingTCP != nil
	s.mu.Unlock()

	dialStart := time.Now()
	tcp, err := s.dialer.Dial(laddr, raddr, timeout)
	if err != nil {
		return 0, err
	}
	// TCP-connect phase, split from the TLS/TCPLS phases so handshake
	// regressions separate transport latency from crypto latency.
	s.observePhase("connect_ns", dialStart)
	s.mu.Lock()
	s.lastRemote = raddr
	s.mu.Unlock()
	if !handshaken && !pending {
		s.mu.Lock()
		s.pendingTCP = tcp
		s.mu.Unlock()
		return 0, nil
	}
	if !handshaken {
		// A second pre-handshake connection (explicit multipath mesh):
		// queue it; it will JOIN right after the handshake.
		s.mu.Lock()
		s.preJoin = append(s.preJoin, tcp)
		s.mu.Unlock()
		return 0, nil
	}
	pc, err := s.join(tcp)
	if err != nil {
		tcp.Close()
		return 0, err
	}
	return pc.id, nil
}

// ConnectHappyEyeballs races connection attempts to the candidate
// addresses with the given stagger (50 ms in Figure 3), keeping the
// first to establish — RFC 8305's approach to broken address families.
func (s *Session) ConnectHappyEyeballs(raddrs []netip.AddrPort, stagger time.Duration, timeout time.Duration) (netip.AddrPort, error) {
	if len(raddrs) == 0 {
		return netip.AddrPort{}, ErrNoAddresses
	}
	if stagger <= 0 {
		stagger = 50 * time.Millisecond
	}
	type result struct {
		conn net.Conn
		addr netip.AddrPort
		err  error
	}
	results := make(chan result, len(raddrs))
	var wg sync.WaitGroup
	for i, ra := range raddrs {
		wg.Add(1)
		go func(delay time.Duration, ra netip.AddrPort) {
			defer wg.Done()
			if delay > 0 {
				time.Sleep(s.cfg.Clock.ScaleDuration(delay))
			}
			conn, err := s.dialer.Dial(netip.Addr{}, ra, timeout)
			results <- result{conn, ra, err}
		}(time.Duration(i)*stagger, ra)
	}
	go func() { wg.Wait(); close(results) }()

	var firstErr error
	for r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		// Winner: adopt it; close any latecomers.
		s.mu.Lock()
		if s.pendingTCP == nil && s.joinKey == nil {
			s.pendingTCP = r.conn
			s.lastRemote = r.addr
			s.mu.Unlock()
			go func() {
				for late := range results {
					if late.err == nil && late.conn != nil {
						late.conn.Close()
					}
				}
			}()
			return r.addr, nil
		}
		s.mu.Unlock()
		r.conn.Close()
	}
	if firstErr == nil {
		firstErr = ErrNoAddresses
	}
	return netip.AddrPort{}, firstErr
}

// Handshake performs the TCPLS handshake on the primary connection
// (tcpls_handshake): TLS 1.3 with the TCPLS extension; the server's
// EncryptedExtensions deliver the CONNID, the JOIN cookies α0..αn and
// any advertised addresses (Figure 2). Queued extra connections then
// JOIN automatically.
func (s *Session) Handshake() error {
	hsStart := time.Now()
	s.mu.Lock()
	tcp := s.pendingTCP
	s.pendingTCP = nil
	preJoin := s.preJoin
	s.preJoin = nil
	s.mu.Unlock()
	if tcp == nil {
		return ErrNoConnection
	}

	hello := &record.ClientHelloTCPLS{Version: record.Version, Multipath: s.cfg.Multipath}
	tlsCfg := s.cloneTLSConfig()
	tlsCfg.ExtraClientHello = append(tlsCfg.ExtraClientHello,
		tls13.Extension{Type: tls13.ExtTCPLS, Data: hello.Encode()})

	tc := tls13.Client(tcp, tlsCfg)
	// Bound the handshake: a stalled or byte-dribbling server must not
	// pin this goroutine (and its connection) open forever.
	tcp.SetDeadline(time.Now().Add(s.cfg.Clock.ScaleDuration(s.limits.HandshakeTimeout)))
	if err := tc.Handshake(); err != nil {
		tcp.Close()
		if s.cfg.AllowDegraded {
			// A middlebox that strips or mangles the TCPLS ClientHello
			// extension corrupts the TLS transcript; the only recovery is
			// a fresh connection without the extension — plain TLS.
			return s.fallbackPlainHandshake("handshake interference: " + err.Error())
		}
		return err
	}
	tcp.SetDeadline(time.Time{})
	s.observePhase("tls_handshake_ns", hsStart)
	tlsDone := time.Now()
	st := tc.ConnectionState()
	if st.PeerTCPLS == nil {
		if s.cfg.AllowDegraded {
			// The handshake completed but the server answered plain TLS
			// (extension stripped cleanly en route): keep the connection,
			// shed every TCPLS capability.
			return s.adoptPlain(tcp, tc, "tcpls not negotiated")
		}
		tcp.Close()
		return errors.New("tcpls: server did not negotiate TCPLS")
	}
	srv, err := record.DecodeServerTCPLS(st.PeerTCPLS)
	if err != nil {
		tcp.Close()
		return fmt.Errorf("tcpls: bad server extension: %w", err)
	}
	joinKey, err := deriveJoinKey(tc, srv.ConnID)
	if err != nil {
		tcp.Close()
		return err
	}

	s.mu.Lock()
	s.connID = srv.ConnID
	s.cookies = clampCookiePool(append(s.cookies, srv.Cookies...))
	s.peerAddrs = append(s.peerAddrs, srv.Addresses...)
	if n := s.limits.MaxPeerAddresses; len(s.peerAddrs) > n {
		s.peerAddrs = s.peerAddrs[:n]
	}
	s.joinKey = joinKey
	s.multipath = s.cfg.Multipath && srv.Multipath
	s.mu.Unlock()

	s.emit(telemetry.Event{
		Kind: telemetry.EvSessionStart,
		A:    int64(srv.ConnID),
		S:    "client",
	})
	pc := newPathConn(s, tcp, tc)
	if err := s.registerPath(pc); err != nil {
		return err
	}
	// The session is TCPLS-ready: extension decoded, join key derived,
	// path registered with its read loop running.
	s.observePhase("tcpls_ready_ns", tlsDone)
	s.observePhase("handshake_ns.client", hsStart)
	for _, a := range srv.Addresses {
		if cb := s.cfg.Callbacks.AddressAdvertised; cb != nil {
			cb(netip.AddrPortFrom(a.Addr, a.Port), a.Primary)
		}
	}

	// Apply the configured user timeout: locally, and to the peer over
	// the secure channel (§3.1).
	if s.cfg.UserTimeout > 0 {
		if in := pc.introspector(); in != nil {
			in.SetUserTimeout(s.cfg.UserTimeout)
		}
		pc.writeTCPOption(record.UserTimeoutOption(s.cfg.UserTimeout))
	}

	// Attach any pre-handshake extra connections (explicit multipath).
	for _, extra := range preJoin {
		if _, err := s.join(extra); err != nil {
			extra.Close()
		}
	}
	return nil
}

// join runs a JOIN handshake (Figure 2) on an established TCP
// connection and registers the new path.
func (s *Session) join(tcp net.Conn) (*pathConn, error) {
	joinStart := time.Now()
	// Check the path budget before burning a cookie: the server would
	// reject the JOIN anyway once we are at the limit.
	if s.NumConns() >= s.limits.MaxPaths {
		return nil, &LimitError{Limit: "paths", Max: s.limits.MaxPaths}
	}
	// Multipath shed after repeated interference: stop opening extra
	// paths. A JOIN with zero live connections is failover rescue, not
	// bandwidth aggregation, and stays allowed.
	if s.capDisabled(CapMultipath) && s.NumConns() >= 1 {
		return nil, ErrCapabilityDisabled
	}
	s.mu.Lock()
	if s.joinKey == nil {
		s.mu.Unlock()
		return nil, errors.New("tcpls: join before handshake")
	}
	if len(s.cookies) == 0 {
		s.mu.Unlock()
		return nil, ErrNoCookies
	}
	cookie := s.cookies[0]
	s.cookies = s.cookies[1:]
	join := &record.ClientHelloTCPLS{
		Version:   record.Version,
		Multipath: s.cfg.Multipath,
		Join: &record.JoinRequest{
			ConnID: s.connID,
			Cookie: cookie,
			Binder: joinBinder(s.joinKey, cookie),
		},
	}
	s.mu.Unlock()

	tlsCfg := s.cloneTLSConfig()
	tlsCfg.ExtraClientHello = append(tlsCfg.ExtraClientHello,
		tls13.Extension{Type: tls13.ExtTCPLS, Data: join.Encode()})
	tc := tls13.Client(tcp, tlsCfg)
	tcp.SetDeadline(time.Now().Add(s.cfg.Clock.ScaleDuration(s.limits.HandshakeTimeout)))
	if err := tc.Handshake(); err != nil {
		// Transport-level failure (the link died mid-JOIN): the cookie may
		// never have reached the server, so requeue it at the back of the
		// pool rather than burning it. If the server did consume it, the
		// retry is simply rejected and the next cookie is used — without
		// this, a fault burst can exhaust the pool and strand reconnect.
		s.mu.Lock()
		s.cookies = append(s.cookies, cookie)
		s.mu.Unlock()
		err = fmt.Errorf("%w: %v", ErrJoinRejected, err)
		s.noteJoinFailure(err)
		return nil, err
	}
	tcp.SetDeadline(time.Time{})
	st := tc.ConnectionState()
	srv, err := record.DecodeServerTCPLS(st.PeerTCPLS)
	if err != nil || srv.ConnID != s.ConnID() {
		s.noteJoinFailure(ErrJoinRejected)
		return nil, ErrJoinRejected
	}
	s.mu.Lock()
	s.cookies = clampCookiePool(append(s.cookies, srv.Cookies...)) // replenished cookies
	s.mu.Unlock()

	pc := newPathConn(s, tcp, tc)
	pc.joined = true
	if err := s.registerPath(pc); err != nil {
		return nil, err
	}
	s.observePhase("handshake_ns.join", joinStart)
	s.noteJoinSuccess()
	return pc, nil
}

// maxCookiePool bounds the client-side JOIN cookie pool: the server
// replenishes cookies on every JOIN, and a hostile server could other-
// wise grow the pool without bound.
const maxCookiePool = 64

func clampCookiePool(cookies [][]byte) [][]byte {
	if len(cookies) > maxCookiePool {
		cookies = cookies[:maxCookiePool]
	}
	return cookies
}

// cloneTLSConfig copies the user TLS config so per-connection extension
// plumbing does not race.
func (s *Session) cloneTLSConfig() *tls13.Config {
	src := s.cfg.TLS
	return &tls13.Config{
		ServerName:         src.ServerName,
		Certificate:        src.Certificate,
		RootCAs:            src.RootCAs,
		InsecureSkipVerify: src.InsecureSkipVerify,
		ALPN:               src.ALPN,
		CipherSuites:       src.CipherSuites,
		Session:            src.Session,
		NumTickets:         src.NumTickets,
		OnNewSession:       src.OnNewSession,
	}
}

// SendTCPOption ships a TCP option to the peer over the secure channel
// (tcpls_send_tcpoption, §3.1) on the primary connection.
func (s *Session) SendTCPOption(kind uint8, data []byte) error {
	pc := s.primaryPath()
	if pc == nil {
		return ErrNoConnection
	}
	return pc.writeTCPOption(&record.TCPOption{Kind: kind, Data: data})
}

// SendUserTimeout ships an RFC 5482 User Timeout option (§3.1).
func (s *Session) SendUserTimeout(d time.Duration) error {
	pc := s.primaryPath()
	if pc == nil {
		return ErrNoConnection
	}
	return pc.writeTCPOption(record.UserTimeoutOption(d))
}

// SendBPFCC ships an eBPF congestion-control program to the peer
// (§3(iii)); the receiver verifies and installs it.
func (s *Session) SendBPFCC(name string, bytecode []byte) error {
	pc := s.primaryPath()
	if pc == nil {
		return ErrNoConnection
	}
	return pc.writeControl(record.BPFCC{Name: name, Bytecode: bytecode})
}

// AdvertiseAddress announces an additional local endpoint over the
// secure channel (the encrypted ADD_ADDR of §4.1).
func (s *Session) AdvertiseAddress(ap netip.AddrPort, primary bool) error {
	pc := s.primaryPath()
	if pc == nil {
		return ErrNoConnection
	}
	return pc.writeControl(record.AddAddress{Addr: ap.Addr(), Port: ap.Port(), Primary: primary})
}

// Ping probes the given path (liveness): the answering Pong feeds the
// path's RTT estimate exactly like a monitor-initiated probe.
func (s *Session) Ping(pathID uint32) error {
	pc := s.path(pathID)
	if pc == nil {
		return ErrNoConnection
	}
	seq := s.probeSeq.Add(1)
	pc.health.noteSent(seq, time.Now())
	return pc.writeControl(record.Ping{Seq: seq})
}

// ClosePath gracefully closes one TCP connection: the migration step of
// Figure 4 ("secure closing of the v4 TCP connection"). Streams
// attached to it move to the session's remaining connections.
func (s *Session) ClosePath(pathID uint32) error {
	pc := s.path(pathID)
	if pc == nil {
		return ErrNoConnection
	}
	pc.writeControl(record.ConnClose{ConnID: pathID})
	streams := s.Streams()
	s.mu.Lock()
	isPrimary := s.primary == pc
	s.mu.Unlock()
	pc.close(nil)
	if isPrimary {
		s.mu.Lock()
		s.primary = nil
		for _, cand := range s.conns {
			if !cand.isClosed() {
				s.primary = cand
				break
			}
		}
		s.mu.Unlock()
	}
	// Re-home streams that were attached to the closed path.
	if next := s.primaryPath(); next != nil {
		for _, st := range streams {
			st.mu.Lock()
			moved := st.attached == pc
			if moved {
				st.attached = next
			}
			st.mu.Unlock()
			if moved {
				st.replayUnacked(next)
			}
		}
	}
	return nil
}
