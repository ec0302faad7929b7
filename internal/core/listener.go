package core

import (
	"crypto/hmac"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/record"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

// Listener accepts TCPLS sessions: every inbound TCP connection runs a
// TLS handshake; fresh handshakes become new sessions, JOIN handshakes
// (Figure 2) attach to existing sessions after cookie validation.
//
// The runtime is sharded and pooled for C50K-class session counts:
//
//   - The session/reservation table is split into power-of-two shards
//     keyed by conn id (shardMap), so the accept, JOIN and teardown
//     paths never take a listener-wide lock.
//   - The accept loop batches: it drains every already-established
//     connection per wakeup (transports exposing AcceptBatch), runs the
//     cheap pre-TLS admission gate inline, and queues survivors for a
//     fixed pool of handshake workers — a connection storm costs a
//     bounded number of goroutines, not one per SYN.
//   - Per-session timers (health probing, stall watchdogs) run on the
//     listener's shared serverRuntime, so a steady-state server session
//     costs exactly one goroutine per path.
type Listener struct {
	inner net.Listener
	cfg   *Config
	rt    *serverRuntime

	// tls is the parent of every connection's TLS config: cloning it at
	// creation draws the ticket key (if the configured one is zero) and
	// creates the 0-RTT anti-replay set, once, for the listener's
	// lifetime; the per-connection clones share both.
	tls *tls13.Config

	jitter        *jitterRNG    // accept-backoff randomness
	acceptRetries atomic.Uint64 // temporary Accept errors retried
	queueDrops    atomic.Uint64 // conns dropped pre-TLS at a full handshake queue

	table   *shardMap // sessions + in-flight conn-id reservations
	closed  atomic.Bool
	closeCh chan struct{} // closed in Close; cancels accept backoffs

	workers int           // handshake pool size
	pending chan net.Conn // admitted conns awaiting a handshake worker

	acceptMu      sync.Mutex // guards accepts against concurrent Close
	acceptsClosed bool
	accepts       chan *Session
	errs          chan error
}

// acceptBatchSize bounds one batch-drain of the transport's backlog.
const acceptBatchSize = 32

// Default accept-path pool sizes (Config.AcceptWorkers/AcceptBacklog).
const (
	defaultAcceptWorkers = 32
	defaultAcceptBacklog = 8 * defaultAcceptWorkers
)

// batchAccepter is the optional transport fast path (tcpnet.Listener
// implements it): drain up to len(dst) already-established connections
// without blocking, amortizing a scheduler wakeup over the whole burst.
type batchAccepter interface {
	AcceptBatch(dst []net.Conn) int
}

// NewListener wraps a transport listener (tcpnet or net) as a TCPLS
// listener and starts accepting.
func NewListener(inner net.Listener, cfg *Config) *Listener {
	if cfg.TLS == nil {
		cfg.TLS = &tls13.Config{}
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	workers := cfg.AcceptWorkers
	if workers <= 0 {
		workers = defaultAcceptWorkers
	}
	backlog := cfg.AcceptBacklog
	if backlog <= 0 {
		backlog = 8 * workers
	}
	l := &Listener{
		inner:   inner,
		cfg:     cfg,
		rt:      newServerRuntime(cfg),
		tls:     cfg.TLS.Clone(),
		jitter:  newJitterRNG(cfg.RetrySeed),
		table:   newShardMap(cfg.Shards),
		workers: workers,
		pending: make(chan net.Conn, backlog),
		accepts: make(chan *Session, backlog),
		errs:    make(chan error, 1),
		closeCh: make(chan struct{}),
	}
	if acct := cfg.Accounting; acct != nil {
		acct.attachTracer(cfg.Tracer)
		acct.RegisterMetrics(cfg.Metrics)
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Func("listener.accept_retries", func() int64 {
			return int64(l.acceptRetries.Load())
		})
		reg.Func("listener.queue_drops", func() int64 {
			return int64(l.queueDrops.Load())
		})
		reg.Func("listener.sessions", func() int64 {
			return int64(l.table.len())
		})
		reg.Func("listener.shard_max_sessions", func() int64 {
			maxN := 0
			for _, n := range l.table.shardCounts() {
				if n > maxN {
					maxN = n
				}
			}
			return int64(maxN)
		})
		l.rt.registerMetrics(reg)
	}
	for i := 0; i < workers; i++ {
		go l.handshakeWorker()
	}
	go l.acceptLoop()
	return l
}

// SteadyGoroutines reports the listener's constant goroutine overhead:
// the accept loop, the handshake worker pool, and the shared runtime's
// timer loop and event-loop workers. It is independent of the session
// count — each live session adds exactly one read-loop goroutine per
// path on top of this (the goroutine-budget regression tests assert
// the total exactly).
func (l *Listener) SteadyGoroutines() int {
	return 1 + l.workers + l.rt.steadyGoroutines()
}

// Accept returns the next new session (not JOINs — those attach to
// their session silently, firing the Join callback).
func (l *Listener) Accept() (*Session, error) {
	s, ok := <-l.accepts
	if !ok {
		select {
		case err := <-l.errs:
			return nil, err
		default:
			return nil, ErrSessionClosed
		}
	}
	return s, nil
}

// Close stops accepting; existing sessions keep running (and keep
// their shared timers: the runtime drains only after the last enrolled
// session ends).
func (l *Listener) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(l.closeCh)
	err := l.inner.Close()
	l.rt.shutdown()
	l.acceptMu.Lock()
	l.acceptsClosed = true
	close(l.accepts)
	l.acceptMu.Unlock()
	return err
}

// AcceptRetries reports how many temporary Accept errors the accept
// loop has backed off from and retried.
func (l *Listener) AcceptRetries() uint64 { return l.acceptRetries.Load() }

// QueueDrops reports connections closed pre-TLS because the handshake
// queue was full.
func (l *Listener) QueueDrops() uint64 { return l.queueDrops.Load() }

// Addr returns the transport listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Sessions snapshots the live sessions.
func (l *Listener) Sessions() []*Session { return l.table.snapshot() }

func (l *Listener) acceptLoop() {
	// The accept loop is the queue's only producer, so it alone may
	// close it: workers drain the residue and exit.
	defer close(l.pending)
	batcher, _ := l.inner.(batchAccepter)
	var batch [acceptBatchSize]net.Conn
	pol := l.cfg.Retry.withDefaults()
	attempt := 0
	for {
		conn, err := l.inner.Accept()
		if err != nil {
			if l.closed.Load() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				// EMFILE-class pressure: the process is out of descriptors
				// (or the transport is momentarily saturated). Spinning
				// would burn CPU exactly when the process is starved, and
				// exiting would turn a transient condition into a dead
				// listener — back off exponentially with jitter and retry
				// for as long as the condition lasts.
				l.acceptRetries.Add(1)
				d := l.jitter.backoff(pol, min(attempt, 8))
				attempt++
				t := time.NewTimer(l.cfg.Clock.ScaleDuration(d))
				select {
				case <-t.C:
				case <-l.closeCh:
					t.Stop()
					return
				}
				continue
			}
			select {
			case l.errs <- err:
			default:
			}
			l.Close()
			return
		}
		attempt = 0
		l.enqueue(conn)
		// Batch drain: a flock arriving between wakeups is admitted and
		// queued in one pass instead of one scheduler round-trip each.
		for batcher != nil {
			n := batcher.AcceptBatch(batch[:])
			for i := 0; i < n; i++ {
				l.enqueue(batch[i])
				batch[i] = nil
			}
			if n < len(batch) {
				break
			}
		}
	}
}

// enqueue runs the pre-TLS admission gate and hands the connection to
// the handshake pool. Runs on the accept loop, so everything here is
// cheap: a few atomic loads and a channel send. The accounting
// invariant conns_seen == handshakes_started + rejected_pre_tls is
// preserved on every path out — a connection that passes admitConn but
// never reaches beginHandshake must be counted rejected.
func (l *Listener) enqueue(conn net.Conn) {
	acct := l.cfg.Accounting
	// Overload admission before any TLS work or queueing: a rejected
	// connection costs the server a few atomic loads and the client a
	// closed TCP connection — never a key schedule.
	if err := acct.admitConn(); err != nil {
		conn.Close()
		return
	}
	if l.closed.Load() {
		acct.rejectQueued()
		conn.Close()
		return
	}
	select {
	case l.pending <- conn:
	default:
		// Handshake pool saturated and the queue full: shed the newest
		// arrival pre-TLS. The client sees a closed TCP connection and
		// retries against a less loaded moment; the server never spent
		// key-schedule work on it.
		l.queueDrops.Add(1)
		acct.rejectQueued()
		conn.Close()
	}
}

// handshakeWorker serves queued connections until the queue closes.
func (l *Listener) handshakeWorker() {
	for conn := range l.pending {
		if l.closed.Load() {
			// Drained after Close: the conn passed the gate but no
			// handshake will run — count it out (see enqueue).
			l.cfg.Accounting.rejectQueued()
			conn.Close()
			continue
		}
		l.handleConn(conn)
	}
}

// handshakeResult carries the decision made while inspecting the
// ClientHello into the post-handshake phase.
type handshakeResult struct {
	hello   *record.ClientHelloTCPLS
	session *Session // join target (nil for new sessions)
	reply   *record.ServerTCPLS
}

func (l *Listener) handleConn(conn net.Conn) {
	hsStart := time.Now()
	acct := l.cfg.Accounting
	if err := acct.beginHandshake(); err != nil {
		conn.Close()
		return
	}
	res := &handshakeResult{}
	// A conn id minted during the handshake stays reserved until the
	// session is registered; every failure path in between must release
	// it or the id space slowly leaks.
	defer func() {
		if res.reply != nil && res.session == nil {
			l.releaseConnID(res.reply.ConnID)
		}
	}()
	tlsCfg := l.serverTLSConfig(conn, res)
	tc := tls13.Server(conn, tlsCfg)
	// Slowloris guard: a client that connects and then stalls (or
	// dribbles bytes) mid-handshake is cut off after the handshake
	// timeout instead of pinning this worker forever.
	timeout := l.cfg.Limits.withDefaults().HandshakeTimeout
	conn.SetDeadline(time.Now().Add(l.cfg.Clock.ScaleDuration(timeout)))
	err := tc.Handshake()
	acct.endHandshake()
	if err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	observeLatency(l.cfg.Metrics, l.cfg.Clock, "sessions.tls_handshake_ns", hsStart)
	if res.hello == nil || res.reply == nil {
		// Plain TLS client (no TCPLS extension). When degraded operation
		// is allowed, serve it anyway as a single-path plain session —
		// the client may be a TCPLS peer whose extension a middlebox
		// stripped and which fell back. Otherwise it is not a session.
		if l.cfg.AllowDegraded {
			l.acceptPlain(conn, tc)
			return
		}
		conn.Close()
		return
	}

	if res.session != nil {
		// JOIN: attach the path to the existing session.
		s := res.session
		pc := newPathConn(s, conn, tc)
		pc.joined = true
		if err := s.registerPath(pc); err != nil {
			return // registerPath closed the path
		}
		s.observePhase("handshake_ns.join", hsStart)
		if cb := s.cfg.Callbacks.Join; cb != nil {
			cb(pc.id, conn.RemoteAddr())
		}
		// A JOIN from the same host on a new port usually means a NAT
		// rebound the old mapping: re-validate suspect siblings now
		// instead of letting their health decay slowly.
		s.detectRebind(pc)
		// Replay any unacked data: the join may be a failover rescue.
		s.replayAll(pc)
		return
	}

	// New session.
	cfg := l.sessionConfig()
	s := newSession(RoleServer, cfg, nil)
	s.connID = res.reply.ConnID
	s.multipath = res.reply.Multipath
	for _, c := range res.reply.Cookies {
		s.issuedCookies[string(c)] = true
	}
	if err := acct.admitSession(s); err != nil {
		// Lost the admission race: concurrent handshakes filled the
		// session budget after this connection passed the pre-TLS gate.
		conn.Close()
		s.teardown(err)
		return
	}
	joinKey, err := deriveJoinKey(tc, s.connID)
	if err != nil {
		conn.Close()
		s.teardown(err)
		return
	}
	s.joinKey = joinKey
	l.table.insert(s.connID, s) // the session table owns the id now
	if l.closed.Load() {
		conn.Close()
		s.teardown(ErrSessionClosed) // removeSession hook clears the table entry
		return
	}
	s.emit(telemetry.Event{
		Kind: telemetry.EvSessionStart,
		A:    int64(s.connID),
		S:    "server",
	})
	pc := newPathConn(s, conn, tc)
	if err := s.registerPath(pc); err != nil {
		s.teardown(err)
		return
	}
	s.observePhase("handshake_ns.server", hsStart)
	l.deliver(s)
}

// deliver hands a ready session to Accept; the mutex makes delivery
// and Close's channel-close mutually exclusive (no send-on-closed).
func (l *Listener) deliver(s *Session) {
	l.acceptMu.Lock()
	if l.acceptsClosed {
		l.acceptMu.Unlock()
		s.teardown(ErrSessionClosed)
		return
	}
	select {
	case l.accepts <- s:
		l.acceptMu.Unlock()
	default:
		l.acceptMu.Unlock()
		s.teardown(errors.New("tcpls: accept backlog full"))
	}
}

// acceptPlain registers a completed plain-TLS handshake as a degraded
// single-path session and hands it to Accept like any other.
func (l *Listener) acceptPlain(conn net.Conn, tc *tls13.Conn) {
	if l.closed.Load() {
		conn.Close()
		return
	}
	cfg := l.sessionConfig()
	s := newSession(RoleServer, cfg, nil)
	if err := l.cfg.Accounting.admitSession(s); err != nil {
		conn.Close()
		s.teardown(err)
		return
	}
	s.emit(telemetry.Event{Kind: telemetry.EvSessionStart, S: "server-degraded"})
	if err := s.adoptPlain(conn, tc, "peer spoke plain TLS"); err != nil {
		s.teardown(err)
		return
	}
	l.deliver(s)
}

// serverTLSConfig builds the per-connection TLS config with the TCPLS
// extension logic: ClientHello inspection (JOIN validation) and the
// EncryptedExtensions payload (CONNID, cookies, addresses).
func (l *Listener) serverTLSConfig(conn net.Conn, res *handshakeResult) *tls13.Config {
	cfg := l.tls.Clone()
	cfg.OnClientHello = func(info tls13.ClientHelloInfo) error {
		if info.TCPLS == nil {
			return nil // plain TLS; tolerated but not a session
		}
		hello, err := record.DecodeClientHelloTCPLS(info.TCPLS)
		if err != nil {
			return err
		}
		res.hello = hello
		if hello.Join == nil {
			return nil
		}
		// Figure 2 validation: the session must exist, the cookie must
		// be one we issued and still unused, and the binder must prove
		// possession of the session secret. The lookup touches exactly
		// one shard — JOIN storms never serialize the whole table — and
		// waits out the reservation window of a first handshake still
		// completing on a sibling worker.
		target := l.table.getLive(hello.Join.ConnID, time.Second)
		if target == nil {
			return ErrJoinRejected
		}
		// Reject before consuming the one-time cookie: a session at its
		// path budget keeps its cookies for legitimate failover rescues.
		// The server-wide path budget gets the same courtesy — a JOIN
		// refused for global overload must not burn the cookie it would
		// need once the pressure clears.
		if target.NumConns() >= target.limits.MaxPaths {
			return ErrJoinRejected
		}
		if acct := l.cfg.Accounting; !acct.hasPathCapacity() {
			return &OverloadError{Resource: "paths", Limit: int64(acct.budgets.MaxTotalPaths)}
		}
		target.mu.Lock()
		ok := target.issuedCookies[string(hello.Join.Cookie)]
		if ok {
			delete(target.issuedCookies, string(hello.Join.Cookie)) // one-time
		}
		joinKey := target.joinKey
		target.mu.Unlock()
		if !ok {
			return ErrJoinRejected
		}
		expect := joinBinder(joinKey, hello.Join.Cookie)
		if !hmac.Equal(expect, hello.Join.Binder) {
			return ErrJoinRejected
		}
		res.session = target
		return nil
	}
	cfg.EncryptedExtensions = func(info tls13.ClientHelloInfo) []tls13.Extension {
		if res.hello == nil {
			return nil
		}
		if res.session != nil {
			// JOIN reply: echo the CONNID and replenish cookies.
			fresh := [][]byte{randomCookie(), randomCookie()}
			res.session.mu.Lock()
			for _, c := range fresh {
				res.session.issuedCookies[string(c)] = true
			}
			res.session.mu.Unlock()
			res.reply = &record.ServerTCPLS{
				Version:   record.Version,
				ConnID:    res.session.connID,
				Cookies:   fresh,
				Multipath: res.session.multipath,
			}
			return []tls13.Extension{{Type: tls13.ExtTCPLS, Data: res.reply.Encode()}}
		}
		// New session: mint a CONNID and the cookie set; advertise the
		// configured addresses (the dual-stack case of §2.2).
		n := l.cfg.NumCookies
		if n == 0 {
			n = 8
		}
		if n > record.MaxHandshakeCookies {
			// A larger batch would be rejected by the peer's decoder.
			n = record.MaxHandshakeCookies
		}
		cookies := make([][]byte, n)
		for i := range cookies {
			cookies[i] = randomCookie()
		}
		var addrs []record.Advertisement
		for _, ap := range l.cfg.AdvertiseAddresses {
			addrs = append(addrs, record.Advertisement{Addr: ap.Addr(), Port: ap.Port()})
		}
		res.reply = &record.ServerTCPLS{
			Version:   record.Version,
			ConnID:    l.reserveConnID(),
			Cookies:   cookies,
			Addresses: addrs,
			Multipath: l.cfg.Multipath && res.hello.Multipath,
		}
		return []tls13.Extension{{Type: tls13.ExtTCPLS, Data: res.reply.Encode()}}
	}
	return cfg
}

// sessionConfig derives the per-session config from the listener's.
func (l *Listener) sessionConfig() *Config {
	cfg := *l.cfg
	cfg.onTeardown = l.removeSession
	cfg.runtime = l.rt
	return &cfg
}

// removeSession drops a dead session from the table — its conn id can
// then be reused and JOINs stop resolving to it. Installed as the
// session teardown hook; without it the table (and the id space) grows
// monotonically under connection churn.
func (l *Listener) removeSession(s *Session) {
	id := s.ConnID()
	if id == 0 {
		return // degraded plain session: never had a table entry
	}
	l.table.remove(id, s)
}

func newConnID() uint32 {
	c := randomCookie()
	return binary.BigEndian.Uint32(c[:4])
}

// pickConnID draws candidates from rnd until one is neither zero nor
// taken. A random uint32 birthday-collides well below the session
// counts a busy server holds, so minting without a liveness check
// would silently hijack an existing session's id.
func pickConnID(taken func(uint32) bool, rnd func() uint32) uint32 {
	for {
		id := rnd()
		if id != 0 && !taken(id) {
			return id
		}
	}
}

// reserveConnID mints a conn id that collides with neither the live
// session table nor another in-flight handshake, and holds it until
// the session registers (or releaseConnID on handshake failure).
func (l *Listener) reserveConnID() uint32 {
	return l.table.reserve(newConnID)
}

func (l *Listener) releaseConnID(id uint32) {
	l.table.release(id)
}

// replayAll resends every stream's unacked data on pc — the failover
// rescue path when a client reattaches after total connection loss.
func (s *Session) replayAll(pc *pathConn) {
	for _, st := range s.Streams() {
		st.replayUnacked(pc)
	}
}

// AdvertisedAddr is a helper constructing netip.AddrPort values.
func AdvertisedAddr(ip string, port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.MustParseAddr(ip), port)
}
