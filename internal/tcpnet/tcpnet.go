// Package tcpnet is a userspace TCP implementation running over the
// packet network in internal/netsim. It provides net.Conn / net.Listener
// semantics with a faithful protocol engine: three-way handshake,
// cumulative and selective acknowledgments, retransmission with RFC 6298
// RTO estimation and fast retransmit, receive-side reassembly, window
// scaling and flow control, FIN/RST teardown, the RFC 5482 user timeout,
// and pluggable congestion control (internal/cc, including eBPF-delivered
// controllers).
//
// It exists because the TCPLS paper's cross-layer features need a TCP the
// upper layer can see into and reach into: matching TLS record sizes to
// the congestion window (§4.6), installing a User Timeout received over
// the encrypted channel (§3.1), swapping the congestion controller for
// one shipped as eBPF bytecode (§3(iii)), and reacting to spurious resets
// (§2.1). Conn implements the Introspector interface consumed by the
// TCPLS session layer; code that runs over kernel TCP simply does without
// those extras.
package tcpnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/netsim"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/timingwheel"
	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

// Errors returned by connections and listeners.
var (
	// ErrReset reports that the connection was torn down by a RST
	// segment — possibly a spurious, middlebox-forged one (§2.1). The
	// TCPLS session layer matches on it to trigger failover.
	ErrReset = errors.New("tcpnet: connection reset")
	// ErrUserTimeout reports that unacknowledged data stayed outstanding
	// longer than the RFC 5482 user timeout.
	ErrUserTimeout = errors.New("tcpnet: user timeout")
	// ErrTimeout reports handshake retransmission exhaustion.
	ErrTimeout = errors.New("tcpnet: connection timed out")
	// ErrClosed reports use of a closed connection, listener or stack.
	ErrClosed = errors.New("tcpnet: closed")
	// ErrRefused reports a RST in response to our SYN.
	ErrRefused = errors.New("tcpnet: connection refused")
	// ErrAddrInUse reports a bind conflict.
	ErrAddrInUse = errors.New("tcpnet: address in use")
)

// Addr is the net.Addr implementation for the emulated network.
type Addr struct{ AP netip.AddrPort }

// Network implements net.Addr.
func (Addr) Network() string { return "tcpsim" }

// String implements net.Addr.
func (a Addr) String() string { return a.AP.String() }

// Stack is one host's TCP instance: it demultiplexes segments delivered
// by the netsim host to connections and listeners.
type Stack struct {
	host  *netsim.Host
	clock *netsim.Network

	// ctr aggregates protocol counters across every connection the
	// stack ever carried. Unlike the per-conn Stats (snapshot via
	// Conn.Info() under the conn mutex), these are plain atomics:
	// readable at any time, from any goroutine, without touching a
	// connection's lock — and they survive the connection itself.
	ctr     stackCounters
	connSeq atomic.Uint32

	// connectHist, when metrics are registered, records TCP connect
	// latency (SYN sent to ESTABLISHED) in virtual nanoseconds under
	// tcp.<name>.connect_ns.
	connectHist atomic.Pointer[telemetry.Histogram]

	mu        sync.Mutex
	conns     map[fourTuple]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	rng       *rand.Rand
	closed    bool

	// Config defaults applied to new connections.
	config Config
}

// stackCounters mirrors the per-conn Stats fields as stack-wide
// atomics, plus connection churn.
type stackCounters struct {
	segsSent, segsRcvd, bytesSent, bytesRcvd atomic.Uint64
	retransmits, fastRetransmits, timeouts   atomic.Uint64
	dupAcksRcvd, spuriousRsts                atomic.Uint64
	challengeAcks, rstsDropped               atomic.Uint64
	oooDrops, windowDrops, synDrops          atomic.Uint64
	connsOpened, connsClosed                 atomic.Uint64
}

// StackStats is a snapshot of the stack-wide aggregates, including the
// hostile-peer hardening counters (challenge ACKs and drops by cause).
type StackStats struct {
	SegsSent, SegsRcvd, BytesSent, BytesRcvd uint64
	Retransmits, FastRetransmits, Timeouts   uint64
	DupAcksRcvd, SpuriousRsts                uint64
	ChallengeAcks, RstsDropped               uint64
	OOODrops, WindowDrops, SYNDrops          uint64
	ConnsOpened, ConnsClosed                 uint64
}

// Stats snapshots the stack-wide counters.
func (s *Stack) Stats() StackStats {
	return StackStats{
		SegsSent:        s.ctr.segsSent.Load(),
		SegsRcvd:        s.ctr.segsRcvd.Load(),
		BytesSent:       s.ctr.bytesSent.Load(),
		BytesRcvd:       s.ctr.bytesRcvd.Load(),
		Retransmits:     s.ctr.retransmits.Load(),
		FastRetransmits: s.ctr.fastRetransmits.Load(),
		Timeouts:        s.ctr.timeouts.Load(),
		DupAcksRcvd:     s.ctr.dupAcksRcvd.Load(),
		SpuriousRsts:    s.ctr.spuriousRsts.Load(),
		ChallengeAcks:   s.ctr.challengeAcks.Load(),
		RstsDropped:     s.ctr.rstsDropped.Load(),
		OOODrops:        s.ctr.oooDrops.Load(),
		WindowDrops:     s.ctr.windowDrops.Load(),
		SYNDrops:        s.ctr.synDrops.Load(),
		ConnsOpened:     s.ctr.connsOpened.Load(),
		ConnsClosed:     s.ctr.connsClosed.Load(),
	}
}

// RegisterMetrics exposes the stack-wide counters as pull-style vars
// under tcp.<name>.* in the registry (name defaults to the host name).
// Called automatically by NewStack when Config.Metrics is set.
func (s *Stack) RegisterMetrics(reg *telemetry.Registry, name string) {
	if reg == nil {
		return
	}
	if name == "" {
		name = s.host.Name()
	}
	prefix := "tcp." + name + "."
	u := func(field string, v *atomic.Uint64) {
		reg.Func(prefix+field, func() int64 { return int64(v.Load()) })
	}
	u("segs_sent", &s.ctr.segsSent)
	u("segs_rcvd", &s.ctr.segsRcvd)
	u("bytes_sent", &s.ctr.bytesSent)
	u("bytes_rcvd", &s.ctr.bytesRcvd)
	u("retransmits", &s.ctr.retransmits)
	u("fast_retransmits", &s.ctr.fastRetransmits)
	u("timeouts", &s.ctr.timeouts)
	u("dup_acks_rcvd", &s.ctr.dupAcksRcvd)
	u("spurious_rsts", &s.ctr.spuriousRsts)
	u("challenge_acks", &s.ctr.challengeAcks)
	u("rsts_dropped", &s.ctr.rstsDropped)
	u("ooo_drops", &s.ctr.oooDrops)
	u("window_drops", &s.ctr.windowDrops)
	u("syn_backlog_drops", &s.ctr.synDrops)
	u("conns_opened", &s.ctr.connsOpened)
	u("conns_closed", &s.ctr.connsClosed)
	s.connectHist.Store(reg.Histogram(prefix + "connect_ns"))
}

// Config carries stack-wide defaults for new connections.
type Config struct {
	// MSS is the maximum segment size. Default 1400.
	MSS int
	// SendBuf / RecvBuf bound the socket buffers. Default 512 KiB.
	SendBuf int
	RecvBuf int
	// CongestionControl names the cc algorithm. Default "newreno".
	CongestionControl string
	// WindowScale is the wscale shift advertised. Default 8.
	WindowScale uint8
	// DisableSACK turns off selective acknowledgments.
	DisableSACK bool
	// SYNRetries bounds handshake retransmissions. Default 6.
	SYNRetries int
	// SYNBacklog caps half-open (SYN received, handshake incomplete)
	// connections per listener; SYNs beyond it are dropped, starving a
	// SYN flood instead of the host. Default 128.
	SYNBacklog int
	// MaxOOOSegments caps the out-of-order reassembly queue length per
	// connection, independent of its byte bound — the byte bound alone
	// lets a peer spraying one-byte fragments amplify per-segment
	// bookkeeping. Default RecvBuf/512 (at least 1024), which is far
	// above anything MSS-sized segments can legitimately reach.
	MaxOOOSegments int
	// Tracer receives structured protocol events (state changes,
	// retransmissions, cwnd updates, hardening drops). A nil tracer —
	// or one with no sink — is disabled at zero per-event cost.
	Tracer *telemetry.Tracer
	// Metrics, when set, receives the stack-wide counter registration
	// (under tcp.<MetricsName or host name>.*).
	Metrics *telemetry.Registry
	// MetricsName overrides the host name in registered metric names.
	MetricsName string
}

func (c *Config) fill() {
	if c.MSS == 0 {
		c.MSS = 1400
	}
	if c.SendBuf == 0 {
		c.SendBuf = 512 << 10
	}
	if c.RecvBuf == 0 {
		c.RecvBuf = 512 << 10
	}
	if c.CongestionControl == "" {
		c.CongestionControl = "newreno"
	}
	if c.WindowScale == 0 {
		c.WindowScale = 8
	}
	if c.WindowScale > wire.MaxWindowScale {
		c.WindowScale = wire.MaxWindowScale // RFC 7323 §2.3
	}
	if c.SYNRetries == 0 {
		c.SYNRetries = 6
	}
	if c.SYNBacklog == 0 {
		c.SYNBacklog = 128
	}
	if c.MaxOOOSegments == 0 {
		c.MaxOOOSegments = max(1024, c.RecvBuf/512)
	}
}

type fourTuple struct {
	local, remote netip.AddrPort
}

// NewStack attaches a TCP stack to a netsim host.
func NewStack(h *netsim.Host, config Config) *Stack {
	config.fill()
	s := &Stack{
		host:      h,
		clock:     h.Network(),
		conns:     make(map[fourTuple]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  49152,
		rng:       rand.New(rand.NewSource(stackSeed(h))),
		config:    config,
	}
	h.RegisterBatch(wire.ProtoTCP, s.input)
	if config.Metrics != nil {
		s.RegisterMetrics(config.Metrics, config.MetricsName)
	}
	return s
}

// stackSeed derives the seed of a stack's RNG (initial sequence numbers)
// from the network's seed and the host's name: two runs of a seeded
// scenario emit the same segments, and two hosts of one network do not
// share a sequence.
func stackSeed(h *netsim.Host) int64 {
	f := fnv.New64a()
	f.Write([]byte(h.Name()))
	return h.Network().Seed() ^ int64(f.Sum64())
}

// Host returns the underlying netsim host.
func (s *Stack) Host() *netsim.Host { return s.host }

// Close aborts every connection and closes every listener.
func (s *Stack) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*Conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	listeners := make([]*Listener, 0, len(s.listeners))
	for _, l := range s.listeners {
		listeners = append(listeners, l)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Abort()
	}
	for _, l := range listeners {
		l.Close()
	}
	return nil
}

func (s *Stack) allocPort() uint16 {
	// Caller holds s.mu.
	for i := 0; i < 1<<14; i++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 49152
		}
		if _, busy := s.listeners[p]; busy {
			continue
		}
		inUse := false
		for t := range s.conns {
			if t.local.Port() == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
	return 0
}

func (s *Stack) register(c *Conn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t := fourTuple{c.local, c.remote}
	if _, dup := s.conns[t]; dup {
		return ErrAddrInUse
	}
	s.conns[t] = c
	return nil
}

func (s *Stack) unregister(c *Conn) {
	s.mu.Lock()
	delete(s.conns, fourTuple{c.local, c.remote})
	s.mu.Unlock()
}

// input demultiplexes one delivered batch. It runs on netsim delivery
// goroutines. Consecutive packets of one flow form a run: the run's
// connection is looked up once and its segments are processed under one
// hold of the connection's lock. Each packet's payload buffer is pooled:
// exactly one outcome consumes it (the connection's receive path takes
// ownership of queued data); every other outcome returns it to the pool
// here. The packets themselves are the link's and are not retained.
func (s *Stack) input(pkts []*wire.Packet) {
	for len(pkts) > 0 {
		n := 1
		for n < len(pkts) && sameFlow(pkts[0], pkts[n]) {
			n++
		}
		s.inputRun(pkts[:n])
		pkts = pkts[n:]
	}
}

// sameFlow reports whether two packets carry the same addresses and
// ports, judged on the raw header: good enough to group a burst, and
// inputRun rechecks nothing it relies on (a corrupt segment is dropped
// by its checksum wherever it was grouped).
func sameFlow(a, b *wire.Packet) bool {
	return a.Src == b.Src && a.Dst == b.Dst && len(a.Payload) >= 4 && len(b.Payload) >= 4 &&
		[4]byte(a.Payload) == [4]byte(b.Payload)
}

// inputRun processes consecutive packets of one flow.
func (s *Stack) inputRun(pkts []*wire.Packet) {
	// Every packet of the run is decoded in place into this one segment,
	// on this stack frame: nothing below retains it. (Its option array,
	// unlike the segment, is heap-allocated — by the first packet that
	// carries options, then reused — because the payload it sits beside
	// does move into the receive queue, and escape analysis does not
	// tell a struct's fields apart.)
	var seg wire.Segment
	var c *Conn // the run's connection, locked, from the first segment it accepts
	release := func() {
		c.rxMore = false
		c.flushAck()
		c.mu.Unlock()
		c = nil
	}
	for i, p := range pkts {
		owner := p.Payload
		if seg.Unmarshal(p.Payload, p.Src, p.Dst, true) != nil {
			bufpool.Put(owner)
			continue // checksum or framing failure: drop silently like a NIC
		}
		if c == nil {
			if c = s.demux(p, &seg); c == nil {
				bufpool.Put(owner)
				continue
			}
			c.mu.Lock()
		}
		c.rxMore = i+1 < len(pkts)
		c.inputLocked(&seg, owner)
		if c.st == stateClosed {
			release() // torn down mid-run: what follows may be for a successor
		}
	}
	if c != nil {
		release()
	}
}

// demux finds the connection a segment belongs to. A segment for no
// connection is dealt with here — offered to a listener, answered with a
// RST or ignored — and nil is returned; in every case the caller still
// owns the payload buffer.
func (s *Stack) demux(p *wire.Packet, seg *wire.Segment) *Conn {
	local := netip.AddrPortFrom(p.Dst, seg.DstPort)
	remote := netip.AddrPortFrom(p.Src, seg.SrcPort)

	s.mu.Lock()
	c := s.conns[fourTuple{local, remote}]
	l := s.listeners[seg.DstPort]
	closed := s.closed
	s.mu.Unlock()
	switch {
	case closed:
		return nil
	case c != nil:
		return c
	case l != nil && seg.Flags.Has(wire.FlagSYN) && !seg.Flags.Has(wire.FlagACK):
		// SYN payloads are never queued; the buffer is done once the
		// handshake state (with deep-copied options) is set up.
		l.inputSYN(local, remote, seg)
	case seg.Flags.Has(wire.FlagRST):
		// RST to nobody: ignore.
	default:
		// No socket: answer with RST (unless it's an old ACK).
		s.sendRST(local, remote, seg)
	}
	return nil
}

func (s *Stack) sendRST(local, remote netip.AddrPort, in *wire.Segment) {
	rst := &wire.Segment{
		SrcPort: local.Port(), DstPort: remote.Port(),
		Flags: wire.FlagRST | wire.FlagACK,
		Ack:   in.Seq + uint32(len(in.Payload)),
	}
	if in.Flags.Has(wire.FlagSYN) {
		rst.Ack++
	}
	if in.Flags.Has(wire.FlagACK) {
		rst.Seq = in.Ack
	}
	s.sendSegment(local.Addr(), remote.Addr(), rst)
}

// marshalPacket serializes seg into a pooled buffer and wraps it in a
// packet, or reports false for a segment that cannot be marshalled.
// Ownership of the buffer follows the packet: once sent, the receiving
// stack (or a netsim drop site) returns it to the pool.
func marshalPacket(src, dst netip.Addr, seg *wire.Segment) (wire.Packet, bool) {
	hdrLen, err := seg.HeaderLen()
	if err != nil {
		return wire.Packet{}, false
	}
	buf := bufpool.Get(hdrLen + len(seg.Payload))
	if _, err := seg.MarshalInto(buf, src, dst); err != nil {
		bufpool.Put(buf)
		return wire.Packet{}, false
	}
	return wire.Packet{Src: src, Dst: dst, Proto: wire.ProtoTCP, TTL: 64, Payload: buf}, true
}

// sendSegment sends a segment no connection owns (a RST for a closed
// port).
func (s *Stack) sendSegment(src, dst netip.Addr, seg *wire.Segment) {
	if pkt, ok := marshalPacket(src, dst, seg); ok && s.host.Send(&pkt) != nil {
		bufpool.Put(pkt.Payload) // no route: the packet never entered the network
	}
}

// Listener accepts inbound connections on a local port.
type Listener struct {
	stack *Stack
	addr  netip.AddrPort

	mu      sync.Mutex
	backlog chan *Conn
	closed  bool

	// Half-open accounting (SYN-flood defense). Atomics, not l.mu:
	// conn teardown releases a slot while holding the conn lock, and
	// offer() takes conn locks while holding l.mu — a mutex here would
	// create a lock-order cycle.
	halfOpen atomic.Int32
	synDrops atomic.Uint64
}

// releaseHalfOpen returns a pending-handshake slot, called when a
// half-open connection either completes establishment or dies.
func (l *Listener) releaseHalfOpen() { l.halfOpen.Add(-1) }

// HalfOpen reports connections in the SYN-received state awaiting
// handshake completion.
func (l *Listener) HalfOpen() int { return int(l.halfOpen.Load()) }

// SYNDrops reports SYNs discarded because the pending-handshake backlog
// was full.
func (l *Listener) SYNDrops() uint64 { return l.synDrops.Load() }

// Listen binds a listener to the given port on addr. A zero addr accepts
// connections to any of the host's addresses.
func (s *Stack) Listen(addr netip.Addr, port uint16) (*Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, busy := s.listeners[port]; busy {
		return nil, ErrAddrInUse
	}
	l := &Listener{
		stack:   s,
		addr:    netip.AddrPortFrom(addr, port),
		backlog: make(chan *Conn, 128),
	}
	s.listeners[port] = l
	return l, nil
}

// Accept waits for the next established connection.
func (l *Listener) Accept() (net.Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// AcceptTCP is Accept returning the concrete type.
func (l *Listener) AcceptTCP() (*Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// AcceptBatch drains up to len(dst) already-established connections
// without blocking and reports how many it wrote. Callers that just
// woke from a blocking Accept use it to swallow a whole connection
// burst in one scheduler wakeup instead of one round-trip per conn.
func (l *Listener) AcceptBatch(dst []net.Conn) int {
	n := 0
	for n < len(dst) {
		select {
		case c, ok := <-l.backlog:
			if !ok {
				return n
			}
			dst[n] = c
			n++
		default:
			return n
		}
	}
	return n
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return Addr{l.addr} }

// Close implements net.Listener.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.backlog)
	l.mu.Unlock()
	l.stack.mu.Lock()
	delete(l.stack.listeners, l.addr.Port())
	l.stack.mu.Unlock()
	return nil
}

// inputSYN handles a SYN for this listener: create the half-open conn and
// answer SYN+ACK. If the conn already exists (retransmitted SYN) the
// stack demux routes it there instead.
func (l *Listener) inputSYN(local, remote netip.AddrPort, seg *wire.Segment) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	if l.addr.Addr().IsValid() && !l.addr.Addr().IsUnspecified() && local.Addr() != l.addr.Addr() {
		return // bound to a specific address
	}
	// Reserve a pending-handshake slot before allocating anything. Under
	// a SYN flood the backlog fills and further SYNs cost one atomic op
	// each — no conn state, no SYN+ACK, no timers. Legitimate clients
	// retransmit their SYN and get in once flooded entries time out.
	if l.halfOpen.Add(1) > int32(l.stack.config.SYNBacklog) {
		l.halfOpen.Add(-1)
		l.synDrops.Add(1)
		l.stack.ctr.synDrops.Add(1)
		l.stack.config.Tracer.Emit(telemetry.Event{
			Kind: telemetry.EvTCPDrop, A: int64(len(seg.Payload)), S: "syn-backlog",
		})
		return
	}
	c := newConn(l.stack, local, remote, false)
	if err := l.stack.register(c); err != nil {
		l.releaseHalfOpen()
		return
	}
	c.listener = l
	c.input(seg, nil) // owner stays with Stack.inputRun; SYN data is not queued
}

// offer queues an established connection for Accept; drops it if the
// backlog is full or the listener closed (the peer will retransmit or
// reset).
func (l *Listener) offer(c *Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		c.Abort()
		return
	}
	select {
	case l.backlog <- c:
	default:
		c.Abort()
	}
}

// Dial opens a connection from laddr to raddr. A zero laddr picks the
// host's first address of raddr's family; port 0 allocates an ephemeral
// port. Dial blocks until the handshake completes, the timeout elapses
// (0 means the stack's handshake retransmission limit) or the peer
// refuses.
func (s *Stack) Dial(laddr netip.Addr, raddr netip.AddrPort, timeout time.Duration) (*Conn, error) {
	if !laddr.IsValid() || laddr.IsUnspecified() {
		for _, a := range s.host.Addrs() {
			if a.Is4() == raddr.Addr().Is4() {
				laddr = a
				break
			}
		}
		if !laddr.IsValid() || laddr.IsUnspecified() {
			return nil, fmt.Errorf("tcpnet: no local address for %s", raddr)
		}
	}
	s.mu.Lock()
	port := s.allocPort()
	s.mu.Unlock()
	if port == 0 {
		return nil, ErrAddrInUse
	}
	c := newConn(s, netip.AddrPortFrom(laddr, port), raddr, true)
	if err := s.register(c); err != nil {
		return nil, err
	}
	connectStart := time.Now()
	c.startConnect()
	var timer *timingwheel.Timer
	if timeout > 0 {
		timer = s.clock.AfterFunc(timeout, func() {
			c.fail(ErrTimeout)
		})
	}
	<-c.established
	if timer != nil {
		timer.Stop()
	}
	c.mu.Lock()
	err := c.err
	st := c.st
	c.mu.Unlock()
	if st != stateEstablished && err != nil {
		return nil, err
	}
	if h := s.connectHist.Load(); h != nil {
		h.Observe(s.clock.VirtualSince(connectStart).Nanoseconds())
	}
	return c, nil
}

// Dialer adapts the stack to interfaces that expect net.Conn results
// (core.Dialer); Go method values cannot re-type *Conn to net.Conn.
type Dialer struct{ Stack *Stack }

// Dial implements the core.Dialer contract over this stack.
func (d Dialer) Dial(laddr netip.Addr, raddr netip.AddrPort, timeout time.Duration) (net.Conn, error) {
	c, err := d.Stack.Dial(laddr, raddr, timeout)
	if err != nil {
		return nil, err // avoid a typed-nil net.Conn
	}
	return c, nil
}
