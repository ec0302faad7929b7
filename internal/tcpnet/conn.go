package tcpnet

import (
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/bytering"
	"github.com/pluginized-protocols/gotcpls/internal/cc"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/timingwheel"
	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

// state is the TCP connection state (RFC 793 §3.2).
type state int

const (
	stateClosed state = iota
	stateListen
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateClosing
	stateLastAck
	stateTimeWait
)

var stateNames = [...]string{
	"Closed", "Listen", "SynSent", "SynRcvd", "Established", "FinWait1",
	"FinWait2", "CloseWait", "Closing", "LastAck", "TimeWait",
}

func (s state) String() string { return stateNames[s] }

// Sequence-number comparison modulo 2^32.
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// RTO bounds in virtual time (RFC 6298 with the common 200 ms floor).
const (
	minRTO     = 200 * time.Millisecond
	maxRTO     = 60 * time.Second
	initialRTO = 1 * time.Second
	timeWaitD  = 1 * time.Second // shortened 2*MSL, virtual
)

// oooSeg is one out-of-order segment awaiting reassembly. data aliases
// owner, the pooled packet buffer; whichever path removes the segment
// from the queue (drain, replacement, eviction) must return owner to the
// pool. A nil owner marks data the pool does not manage.
type oooSeg struct {
	seq   uint32
	data  []byte
	owner []byte
	fin   bool
}

// rxSeg is one in-order span queued for Read. data aliases owner (the
// pooled packet buffer); Read recycles owner once data is fully copied
// out at the API boundary — the only copy on the receive path.
type rxSeg struct {
	data  []byte
	owner []byte
}

// txEntry records when the segment ending at end was first transmitted.
// The log is cleared on any retransmission (Karn's algorithm), so every
// entry that survives until its ack yields a valid RTT sample.
type txEntry struct {
	end uint32
	at  time.Time // wall clock
}

// Conn is a userspace TCP connection. It implements net.Conn.
type Conn struct {
	stack    *Stack
	listener *Listener // non-nil on passively opened conns until offered

	mu        sync.Mutex
	readCond  *sync.Cond
	writeCond *sync.Cond

	local, remote netip.AddrPort
	active        bool
	st            state
	err           error
	established   chan struct{}
	estOnce       sync.Once

	// Send state.
	iss      uint32
	sndUna   uint32
	sndNxt   uint32
	sndMax   uint32        // highest sequence ever sent (for Karn after go-back-N)
	sndBuf   bytering.Ring // bytes [sndUna, sndUna+Len())
	sndWnd   int           // peer's advertised window, scaled
	sndScale uint8         // peer's window scale
	mss      int
	ctrl     cc.Controller

	closePending bool // Close/CloseWrite called: send FIN once drained
	finSent      bool
	finSeq       uint32 // sequence number of our FIN

	dupAcks     int
	inRecovery  bool
	recoveryEnd uint32
	rtxNext     uint32           // next candidate for SACK-driven recovery retransmit
	rtoRecover  uint32           // after an RTO, no fast recovery below this seq
	sacked      []wire.SACKBlock // peer-reported sacked ranges
	sackOK      bool

	// RTT estimation (virtual time).
	srtt, rttvar time.Duration
	rto          time.Duration
	rtoBackoff   int
	rttPending   bool
	rttSeq       uint32
	rttStart     time.Time // wall clock
	txLog        txLog     // per-segment send times for dense RTT samples

	// rtxTimer is an intrusive node on the stack's timing wheel,
	// embedded so the RTO/TLP/persist rearm cycle — the hottest timer
	// churn in the stack — never allocates. The three callbacks it is
	// armed with are bound to the connection once, here, for the same
	// reason: a method value allocates each time it is taken.
	rtxTimer  timingwheel.Timer
	rtoFn     func() // c.onRetransmitTimeout
	probeFn   func() // c.onProbeTimeout
	persistFn func() // c.onPersistTimeout
	rtxArmed  bool
	tlpFired  bool      // a tail-loss probe was sent for the current flight
	oldestTx  time.Time // wall time the oldest unacked byte was first sent
	userTO    time.Duration
	synTries  int
	persistQ  bool // retransmit timer armed in persist (zero-window) mode

	// Receive state.
	peerSYNOpts []wire.Option // options observed on the peer's SYN (§4.5 detection)
	irs         uint32
	rcvNxt      uint32
	rcvQ        []rxSeg // in-order data, one pooled buffer per segment
	rcvHead     int     // first unread entry of rcvQ; Read resets both when it catches up
	rcvQBytes   int     // total bytes queued in rcvQ[rcvHead:]
	ooo         []oooSeg
	rcvScale    uint8
	peerFin     bool // FIN consumed into the stream (EOF after rcvQ drains)
	lastAdvW    int

	// Burst delivery (DESIGN.md §14): while the stack feeds this
	// connection a run of segments that arrived together, rxMore says
	// another one follows, and an in-order data segment then leaves its
	// ACK and its reader wake-up to the run's last segment (ackDeferred)
	// instead of emitting one per segment.
	rxMore      bool
	ackDeferred bool

	// txPkts is the transmit scratch: segments are marshalled into pooled
	// buffers as they are built and queued here, then the whole burst
	// enters the network in one call. txPtrs is the same burst in the
	// shape Host.SendBatch takes. Both are reused across bursts (guarded
	// by c.mu); the network copies the headers before SendBatch returns.
	txPkts []wire.Packet
	txPtrs []*wire.Packet

	readDeadline  time.Time
	writeDeadline time.Time
	readDLTimer   timingwheel.Timer // wakes readers at the deadline (wall time)
	writeDLTimer  timingwheel.Timer

	timeWaitTimer timingwheel.Timer

	stats Stats

	// traceID labels this connection's telemetry events. It defaults to
	// a stack-local id in a reserved range; the TCPLS session layer
	// overrides it (SetTraceID) with the path id so TCP events line up
	// with path events in one trace.
	traceID uint32
}

// traceIDBase keeps default conn trace ids out of the small-integer
// space used by TCPLS path ids.
const traceIDBase = 1 << 30

// trace returns the stack's tracer; nil (disabled) is a valid result.
func (c *Conn) trace() *telemetry.Tracer { return c.stack.config.Tracer }

// setState transitions the RFC 793 state machine, tracing the change.
// Caller holds c.mu.
func (c *Conn) setState(s state) {
	if c.st == s {
		return
	}
	c.st = s
	c.trace().Emit(telemetry.Event{Kind: telemetry.EvTCPState, Path: c.traceID, S: stateNames[s]})
}

// SetTraceID relabels this connection's telemetry events — the
// cross-layer hook letting the TCPLS session layer stamp TCP events
// with the owning path's id.
func (c *Conn) SetTraceID(id uint32) {
	c.mu.Lock()
	c.traceID = id
	c.mu.Unlock()
}

// noteChallengeAck books an RFC 5961 challenge ACK in the per-conn and
// stack counters and the trace. Caller holds c.mu.
func (c *Conn) noteChallengeAck(seq uint32) {
	c.stats.ChallengeAcks++
	c.stack.ctr.challengeAcks.Add(1)
	c.trace().Emit(telemetry.Event{Kind: telemetry.EvTCPChallengeAck, Path: c.traceID, A: int64(seq)})
}

// noteDrop traces a hardening drop with its cause. Caller holds c.mu.
func (c *Conn) noteDrop(cause string, bytes int) {
	c.trace().Emit(telemetry.Event{Kind: telemetry.EvTCPDrop, Path: c.traceID, A: int64(bytes), S: cause})
}

// Stats counts protocol events for introspection and tests.
type Stats struct {
	SegsSent        uint64
	SegsRcvd        uint64
	BytesSent       uint64
	BytesRcvd       uint64
	Retransmits     uint64
	FastRetransmits uint64
	Timeouts        uint64
	DupAcksRcvd     uint64
	SpuriousRsts    uint64
	// ChallengeAcks counts RFC 5961 challenge ACKs sent in response to
	// suspicious RST/SYN/ACK segments (blind-injection attempts).
	ChallengeAcks uint64
	// RstsDropped counts RSTs discarded for being outside the receive
	// window entirely.
	RstsDropped uint64
	// OOODrops counts out-of-order segments discarded because buffering
	// them would exceed the receive buffer or the segment-count cap.
	OOODrops uint64
	// WindowDrops counts bytes-bearing segments truncated for arriving
	// beyond the advertised receive window (a compliant sender never
	// triggers this).
	WindowDrops uint64
}

// Info is a cross-layer snapshot of the connection — the introspection
// interface the TCPLS session layer builds on (record sizing per §4.6,
// state for failover decisions).
type Info struct {
	State             string
	CongestionControl string
	MSS               int
	CWnd              int
	Ssthresh          int
	BytesInFlight     int
	PeerWindow        int
	SendQueue         int
	RecvQueue         int
	SRTT              time.Duration
	RTTVar            time.Duration
	RTO               time.Duration
	SackedBytes       int
	InRecovery        bool
	Stats             Stats
}

func newConn(s *Stack, local, remote netip.AddrPort, active bool) *Conn {
	ctrl, err := cc.New(s.config.CongestionControl)
	if err != nil {
		ctrl = cc.NewNewReno()
	}
	c := &Conn{
		stack:       s,
		local:       local,
		remote:      remote,
		active:      active,
		established: make(chan struct{}),
		mss:         s.config.MSS,
		ctrl:        ctrl,
		rto:         initialRTO,
		sndWnd:      s.config.MSS, // until the peer tells us
	}
	c.readCond = sync.NewCond(&c.mu)
	c.writeCond = sync.NewCond(&c.mu)
	c.rtoFn, c.probeFn, c.persistFn = c.onRetransmitTimeout, c.onProbeTimeout, c.onPersistTimeout
	s.mu.Lock()
	c.iss = s.rng.Uint32()
	s.mu.Unlock()
	c.sndUna, c.sndNxt, c.sndMax = c.iss, c.iss, c.iss
	// Anchor the post-RTO fast-recovery guard at the ISS. Left at zero,
	// the seqLT(sndUna, rtoRecover) comparison is against an arbitrary
	// point in sequence space and suppresses fast retransmit entirely
	// for any connection whose ISS has the high bit set.
	c.rtoRecover = c.iss
	c.traceID = traceIDBase | s.connSeq.Add(1)
	s.ctr.connsOpened.Add(1)
	if !active {
		c.st = stateListen
	}
	c.ctrl.Init(c.mss)
	return c
}

// startConnect sends the initial SYN (active open).
func (c *Conn) startConnect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setState(stateSynSent)
	c.sendSYN(false)
	c.armRetransmit()
}

func (c *Conn) synOptions() []wire.Option {
	return []wire.Option{
		wire.MSSOption(uint16(c.stack.config.MSS)),
		wire.WindowScaleOption(c.stack.config.WindowScale),
		wire.SACKPermittedOption(),
	}
}

// sendSYN emits SYN or SYN+ACK. Caller holds c.mu.
func (c *Conn) sendSYN(ack bool) {
	w := min(c.recvWindow(), 65535) // unscaled in SYN
	c.lastAdvW = w                  // RFC 5961 in-window checks need it pre-data
	seg := wire.Segment{
		SrcPort: c.local.Port(), DstPort: c.remote.Port(),
		Seq:     c.iss,
		Flags:   wire.FlagSYN,
		Window:  uint16(w),
		Options: c.synOptions(),
	}
	if ack {
		seg.Flags |= wire.FlagACK
		seg.Ack = c.rcvNxt
	}
	c.sndNxt = c.iss + 1
	if seqLT(c.sndMax, c.sndNxt) {
		c.sndMax = c.sndNxt
	}
	c.transmit(&seg)
}

// input processes one inbound segment. owner, when non-nil, is the
// pooled packet buffer backing seg.Payload; ownership transfers here —
// the receive path either queues the payload (recycling the buffer when
// Read drains it) or returns it to the pool before dropping the segment.
func (c *Conn) input(seg *wire.Segment, owner []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inputLocked(seg, owner)
}

// inputLocked is input for a caller that holds c.mu.
func (c *Conn) inputLocked(seg *wire.Segment, owner []byte) {
	c.stats.SegsRcvd++
	c.stack.ctr.segsRcvd.Add(1)
	if !c.step(seg, owner) {
		bufpool.Put(owner)
	}
}

// step runs the state machine on one segment and reports whether
// ownership of the payload buffer moved into the receive path.
// Caller holds c.mu.
func (c *Conn) step(seg *wire.Segment, owner []byte) bool {
	switch c.st {
	case stateListen:
		// Freshly created by a listener: this segment is the peer's SYN.
		if !seg.Flags.Has(wire.FlagSYN) || seg.Flags.Has(wire.FlagACK|wire.FlagRST) {
			return false
		}
		c.irs = seg.Seq
		c.rcvNxt = seg.Seq + 1
		c.processSynOptions(seg)
		c.sndWnd = int(seg.Window) // unscaled in SYN
		c.setState(stateSynRcvd)
		c.sendSYN(true)
		c.armRetransmit()
		return false
	case stateClosed:
		return false
	case stateSynSent:
		c.inputSynSent(seg)
		return false
	case stateSynRcvd:
		if seg.Flags.Has(wire.FlagSYN) && !seg.Flags.Has(wire.FlagACK) {
			// Retransmitted SYN: repeat our SYN+ACK.
			c.processSynOptions(seg)
			c.sendSYN(true)
			return false
		}
	}

	if seg.Flags.Has(wire.FlagRST) {
		c.handleRST(seg)
		return false
	}
	if seg.Flags.Has(wire.FlagSYN) {
		// SYN on a synchronized connection (RFC 5961 §4): send a
		// challenge ACK and drop. If the peer genuinely restarted, the
		// ACK elicits a RST at the exact sequence handleRST accepts; a
		// blind injector gets nothing.
		c.noteChallengeAck(seg.Seq)
		c.sendAck()
		return false
	}
	if !seg.Flags.Has(wire.FlagACK) {
		return false
	}

	if !c.processAck(seg) {
		return false
	}
	consumed := false
	if len(seg.Payload) > 0 || seg.Flags.Has(wire.FlagFIN) {
		c.processData(seg, owner)
		consumed = true
	}
	c.maybeSendLocked()
	return consumed
}

// inputSynSent handles segments in SYN-SENT. Caller holds c.mu.
func (c *Conn) inputSynSent(seg *wire.Segment) {
	if seg.Flags.Has(wire.FlagRST) {
		if seg.Flags.Has(wire.FlagACK) && seg.Ack == c.sndNxt {
			c.failLocked(ErrRefused)
		}
		return
	}
	if !seg.Flags.Has(wire.FlagSYN) || !seg.Flags.Has(wire.FlagACK) || seg.Ack != c.sndNxt {
		return
	}
	c.irs = seg.Seq
	c.rcvNxt = seg.Seq + 1
	c.sndUna = seg.Ack
	c.processSynOptions(seg)
	c.sndWnd = int(seg.Window) // SYN windows are unscaled
	c.setState(stateEstablished)
	c.cancelRetransmit()
	c.rtoBackoff = 0
	c.sendAck()
	c.estOnce.Do(func() { close(c.established) })
	c.readCond.Broadcast()
	c.writeCond.Broadcast()
}

// processSynOptions applies MSS/WScale/SACK from the peer's SYN.
// Caller holds c.mu.
func (c *Conn) processSynOptions(seg *wire.Segment) {
	// Deep-copy: the option Data slices alias the packet buffer, which
	// returns to the pool when this segment is done, but peerSYNOpts
	// lives for the connection (§4.5 middlebox detection reads it later).
	c.peerSYNOpts = make([]wire.Option, len(seg.Options))
	for i, o := range seg.Options {
		c.peerSYNOpts[i] = wire.Option{Kind: o.Kind, Data: append([]byte(nil), o.Data...)}
	}
	sawScale := false
	for i := range seg.Options {
		o := &seg.Options[i]
		switch o.Kind {
		case wire.OptKindMSS:
			if v, ok := o.MSS(); ok && int(v) < c.mss {
				c.mss = int(v)
				c.ctrl.Init(c.mss)
			}
		case wire.OptKindWindowScale:
			if v, ok := o.WindowScale(); ok {
				if v > wire.MaxWindowScale {
					// RFC 7323 §2.3: shifts above 14 must be clamped, not
					// honored — an attacker-supplied 255 would otherwise
					// corrupt every window computation.
					v = wire.MaxWindowScale
				}
				c.sndScale = v
				sawScale = true
			}
		case wire.OptKindSACKPermitted:
			c.sackOK = true
		}
	}
	if sawScale {
		c.rcvScale = c.stack.config.WindowScale
	} else {
		// Peer did not negotiate scaling (or a middlebox stripped it):
		// neither side scales.
		c.rcvScale, c.sndScale = 0, 0
	}
}

// handleRST applies RFC 5961 §3.2 validation before honoring a reset:
// only a RST at exactly rcvNxt tears the connection down. A RST that
// lands elsewhere inside the receive window gets a challenge ACK — a
// blind off-path attacker must now hit one sequence number instead of
// any of the ~window many — and everything out of window is dropped.
// Caller holds c.mu.
func (c *Conn) handleRST(seg *wire.Segment) {
	if c.st == stateSynRcvd {
		// Not yet synchronized: the peer (or a stale duplicate) aborted
		// in response to our SYN+ACK. Require the exact expected sequence.
		if seg.Seq == c.rcvNxt {
			c.stats.SpuriousRsts++
			c.stack.ctr.spuriousRsts.Add(1)
			c.failLocked(ErrReset)
		} else {
			c.stats.RstsDropped++
			c.stack.ctr.rstsDropped.Add(1)
			c.noteDrop("rst-out-of-window", 0)
		}
		return
	}
	wnd := uint32(c.lastAdvW)
	switch {
	case seg.Seq == c.rcvNxt:
		c.stats.SpuriousRsts++
		c.stack.ctr.spuriousRsts.Add(1)
		c.failLocked(ErrReset)
	case wnd > 0 && seqLT(c.rcvNxt, seg.Seq) && seqLT(seg.Seq, c.rcvNxt+wnd):
		// In-window but not exact: challenge ACK. A legitimate peer that
		// really did reset answers our ACK with another RST, now at the
		// sequence the ACK told it; a forger learns nothing.
		c.noteChallengeAck(seg.Seq)
		c.sendAck()
	default:
		c.stats.RstsDropped++
		c.stack.ctr.rstsDropped.Add(1)
		c.noteDrop("rst-out-of-window", 0)
	}
}

// processAck advances the send side. It reports whether the segment is
// acceptable — a false return means the caller must not process its
// payload either (RFC 5961 §5 blind-data protection). Caller holds c.mu.
func (c *Conn) processAck(seg *wire.Segment) bool {
	if c.st == stateSynRcvd {
		if seg.Ack == c.sndNxt {
			c.setState(stateEstablished)
			c.cancelRetransmit()
			c.rtoBackoff = 0
			c.estOnce.Do(func() { close(c.established) })
			if c.listener != nil {
				l := c.listener
				c.listener = nil
				l.releaseHalfOpen()
				// Offer outside the lock: the listener may Abort us.
				go l.offer(c)
			}
		} else {
			return false
		}
	}

	if seqLT(c.sndMax, seg.Ack) {
		// Acknowledges data we never sent (RFC 5961 §5): a blind
		// injection signature. Challenge-ACK so a legitimate but
		// desynchronized peer can resynchronize, and drop the segment —
		// payload included — so injected data never reaches the stream.
		c.noteChallengeAck(seg.Seq)
		c.sendAck()
		return false
	}

	// Record SACK information.
	if opt := wire.FindOption(seg.Options, wire.OptKindSACK); opt != nil {
		if blocks, ok := opt.SACKBlocks(); ok {
			c.mergeSACK(blocks)
		}
	}

	ack := seg.Ack
	newWnd := int(seg.Window) << c.sndScale

	switch {
	case seqLT(c.sndUna, ack) && seqLEQ(ack, c.sndMax):
		// Note the comparison against sndMax, not sndNxt: after a
		// go-back-N timeout reset, acks for data sent before the reset
		// must still count.
		acked := int(ack - c.sndUna)
		finAcked := c.finSent && seqLT(c.finSeq, ack)
		dataAcked := acked
		if finAcked {
			dataAcked-- // the FIN's sequence slot
		}
		c.sndBuf.Discard(min(dataAcked, c.sndBuf.Len()))
		c.sndUna = ack
		if seqLT(c.sndNxt, c.sndUna) {
			c.sndNxt = c.sndUna // ack overtook a go-back-N reset point
		}
		c.pruneSACK()
		c.dupAcks = 0
		c.sndWnd = newWnd

		// One clock read serves both RTT samples and oldestTx below.
		now := time.Now()
		// RTT sample (Karn: only if the timed segment was never
		// retransmitted — rttPending is cleared on any retransmission).
		var rtt time.Duration
		if c.rttPending && seqLEQ(c.rttSeq, ack) {
			rtt = c.stack.clock.Virtual(now.Sub(c.rttStart))
			c.updateRTO(rtt)
			c.rttPending = false
		}
		// Dense per-segment samples from the transmit log feed the
		// congestion controller (HyStart needs per-ack delay signals).
		if at, ok := c.txLog.ackedThrough(ack); ok {
			rtt = c.stack.clock.Virtual(now.Sub(at))
		}

		if c.inRecovery {
			if seqLEQ(c.recoveryEnd, ack) {
				c.inRecovery = false
				c.ctrl.OnRecoveryExit()
			} else {
				// Partial ack: the byte at the new sndUna is a hole
				// (RFC 6582); retransmit it and keep the pipe full from
				// the SACK scoreboard.
				if seqLT(c.rtxNext, c.sndUna) {
					c.rtxNext = c.sndUna
				}
				c.sackRetransmit(4)
			}
		} else {
			c.ctrl.OnAck(acked, rtt, c.bytesInFlight())
		}
		c.trace().Emit(telemetry.Event{
			Kind: telemetry.EvTCPCwnd,
			Path: c.traceID,
			A:    int64(c.ctrl.CWnd()),
			B:    int64(c.ctrl.Ssthresh()),
			C:    int64(c.bytesInFlight()),
		})

		if c.bytesInFlight() == 0 && !c.finSent {
			c.cancelRetransmit()
		} else {
			c.armRetransmit() // restart for the next oldest segment
		}
		c.oldestTx = time.Time{}
		if c.bytesInFlight() > 0 {
			c.oldestTx = now
		}
		c.rtoBackoff = 0
		c.tlpFired = false
		c.writeCond.Broadcast()

		if finAcked {
			c.ourFinAcked()
		}

	case ack == c.sndUna:
		c.sndWnd = newWnd
		isDup := len(seg.Payload) == 0 && !seg.Flags.Has(wire.FlagSYN|wire.FlagFIN) &&
			c.bytesInFlight() > 0
		if isDup {
			c.dupAcks++
			c.stats.DupAcksRcvd++
			c.stack.ctr.dupAcksRcvd.Add(1)
			if c.dupAcks == 3 && !c.inRecovery && !seqLT(c.sndUna, c.rtoRecover) {
				// The rtoRecover guard (RFC 5681 §4.3 spirit) stops the
				// dupacks generated by go-back-N resends of delivered
				// data from re-crushing ssthresh after a timeout.
				c.enterFastRecovery()
			} else if c.inRecovery {
				c.ctrl.OnDupAck()
				c.sackRetransmit(4)
			}
		}
	default:
		// Old ACK: ignore the ack field, but the payload may still be
		// valid retransmitted data.
	}
	if c.sndWnd > 0 {
		c.writeCond.Broadcast()
	}
	return true
}

// ourFinAcked advances teardown after the peer acknowledged our FIN.
// Caller holds c.mu.
func (c *Conn) ourFinAcked() {
	switch c.st {
	case stateFinWait1:
		c.setState(stateFinWait2)
		c.cancelRetransmit()
	case stateClosing:
		c.enterTimeWait()
	case stateLastAck:
		c.teardown(nil)
	}
}

// processData handles the payload and FIN of a segment, consuming owner:
// it is either queued (aliased by the trimmed payload) or returned to the
// pool here. Caller holds c.mu.
func (c *Conn) processData(seg *wire.Segment, owner []byte) {
	seq := seg.Seq
	data := seg.Payload
	fin := seg.Flags.Has(wire.FlagFIN)

	// Trim data already received (the trimmed view still aliases owner).
	if seqLT(seq, c.rcvNxt) {
		skip := int(c.rcvNxt - seq)
		if skip >= len(data) {
			if !fin || seqLT(seq+uint32(len(data)), c.rcvNxt) {
				c.sendAck() // pure duplicate: re-ack
				bufpool.Put(owner)
				return
			}
			data = nil
			seq = c.rcvNxt
		} else {
			data = data[skip:]
			seq = c.rcvNxt
		}
	}

	// Enforce the receive buffer. Data beyond the window is dropped; the
	// ACK below tells the peer where we stand. Compliant senders respect
	// the advertised window, so count these.
	if avail := c.recvSpace(); len(data) > avail {
		c.stats.WindowDrops++
		c.stack.ctr.windowDrops.Add(1)
		c.noteDrop("window", len(data)-avail)
		data = data[:avail]
		fin = false
	}

	// Only the plainest segment may leave its ACK to a successor: whole,
	// exactly in order, no FIN, nothing waiting for reassembly, and a
	// window open wide enough that the peer is not waiting to hear of it.
	// Everything else tells the peer where we stand at once.
	plain := seg.Seq == c.rcvNxt && len(data) == len(seg.Payload) && len(data) > 0 &&
		!seg.Flags.Has(wire.FlagFIN) && len(c.ooo) == 0 && c.lastAdvW >= c.mss

	if seq == c.rcvNxt {
		c.ingest(data, fin, owner)
		c.drainOOO()
	} else if len(data) > 0 || fin {
		c.insertOOO(oooSeg{seq: seq, data: data, owner: owner, fin: fin})
	} else {
		bufpool.Put(owner)
	}
	if plain && c.rxMore {
		c.ackDeferred = true
		return
	}
	c.ackDeferred = false
	c.sendAck()
	c.readCond.Broadcast()
}

// flushAck sends the cumulative ACK and the reader wake-up a run of
// in-order segments deferred, if the run ended without a segment that
// did both (its last segment was dropped or carried no data).
// Caller holds c.mu.
func (c *Conn) flushAck() {
	if c.ackDeferred {
		c.ackDeferred = false
		if c.st != stateClosed { // a RST later in the run: nothing left to acknowledge for
			c.sendAck()
		}
		c.readCond.Broadcast()
	}
}

// ingest queues in-order data (and FIN) for Read. The data slice and its
// backing owner buffer transfer into rcvQ without a copy; a segment with
// no usable data releases owner. Caller holds c.mu.
func (c *Conn) ingest(data []byte, fin bool, owner []byte) {
	if len(data) > 0 {
		if len(c.rcvQ) == cap(c.rcvQ) && c.rcvHead > 0 {
			// Reclaim the entries Read has consumed before growing.
			n := copy(c.rcvQ, c.rcvQ[c.rcvHead:])
			clear(c.rcvQ[n:])
			c.rcvQ, c.rcvHead = c.rcvQ[:n], 0
		}
		c.rcvQ = append(c.rcvQ, rxSeg{data: data, owner: owner})
		c.rcvQBytes += len(data)
		c.rcvNxt += uint32(len(data))
		c.stats.BytesRcvd += uint64(len(data))
		c.stack.ctr.bytesRcvd.Add(uint64(len(data)))
	} else {
		bufpool.Put(owner)
	}
	if fin && !c.peerFin {
		c.peerFin = true
		c.rcvNxt++
		switch c.st {
		case stateEstablished:
			c.setState(stateCloseWait)
		case stateFinWait1:
			// Our FIN is unacked: simultaneous close.
			c.setState(stateClosing)
		case stateFinWait2:
			c.enterTimeWait()
		}
	}
}

// insertOOO buffers an out-of-order segment. Buffering is bounded two
// ways: total bytes held (in-order plus out-of-order) never exceed the
// receive buffer — i.e. the advertised window — and the segment count is
// capped so a peer spraying one-byte fragments cannot amplify the
// per-segment bookkeeping overhead. Overflow evicts the newcomer (the
// sender retransmits; nothing is owed to data we never acked).
// Caller holds c.mu.
func (c *Conn) insertOOO(s oooSeg) {
	total := c.rcvQBytes
	for _, o := range c.ooo {
		total += len(o.data)
	}
	if total+len(s.data) > c.stack.config.RecvBuf {
		c.stats.OOODrops++
		c.stack.ctr.oooDrops.Add(1)
		c.noteDrop("ooo-overflow", len(s.data))
		bufpool.Put(s.owner)
		return
	}
	for i, o := range c.ooo {
		if seqLT(s.seq, o.seq) {
			if len(c.ooo) >= c.stack.config.MaxOOOSegments {
				c.stats.OOODrops++
				c.stack.ctr.oooDrops.Add(1)
				c.noteDrop("ooo-overflow", len(s.data))
				bufpool.Put(s.owner)
				return
			}
			c.ooo = append(c.ooo[:i], append([]oooSeg{s}, c.ooo[i:]...)...)
			return
		}
		if s.seq == o.seq {
			if len(s.data) > len(o.data) {
				bufpool.Put(c.ooo[i].owner)
				c.ooo[i] = s
			} else {
				bufpool.Put(s.owner)
			}
			return
		}
	}
	if len(c.ooo) >= c.stack.config.MaxOOOSegments {
		c.stats.OOODrops++
		c.stack.ctr.oooDrops.Add(1)
		c.noteDrop("ooo-overflow", len(s.data))
		bufpool.Put(s.owner)
		return
	}
	c.ooo = append(c.ooo, s)
}

func (c *Conn) drainOOO() {
	for len(c.ooo) > 0 {
		o := c.ooo[0]
		if seqLT(c.rcvNxt, o.seq) {
			return
		}
		c.ooo[0] = oooSeg{}
		c.ooo = c.ooo[1:]
		if skip := int(c.rcvNxt - o.seq); skip < len(o.data) {
			c.ingest(o.data[skip:], o.fin, o.owner)
		} else if o.fin && seqLEQ(o.seq+uint32(len(o.data)), c.rcvNxt) {
			c.ingest(nil, true, o.owner)
		} else {
			bufpool.Put(o.owner) // fully overtaken by the in-order stream
		}
	}
}

// sackBlocks builds up to 3 SACK blocks from the out-of-order queue.
// Caller holds c.mu.
func (c *Conn) sackBlocks() []wire.SACKBlock {
	if !c.sackOK || len(c.ooo) == 0 {
		return nil
	}
	var blocks []wire.SACKBlock
	for _, o := range c.ooo {
		r := wire.SACKBlock{Left: o.seq, Right: o.seq + uint32(len(o.data))}
		if n := len(blocks); n > 0 && blocks[n-1].Right == r.Left {
			blocks[n-1].Right = r.Right
			continue
		}
		if len(blocks) == 3 {
			break
		}
		blocks = append(blocks, r)
	}
	return blocks
}

// maxSACKScoreboard bounds the scoreboard entry count. Legitimate SACK
// reports describe holes in ≤ the send window, but a hostile receiver
// can spray disjoint one-byte blocks; beyond this many entries the
// newest are discarded (SACK is advisory — the worst case is a
// retransmit we could have avoided).
const maxSACKScoreboard = 256

// mergeSACK folds peer-reported blocks into the scoreboard. Blocks
// outside (sndUna, sndMax] acknowledge data we never sent — a forgery
// or corruption signature — and are ignored rather than stored.
// Caller holds c.mu.
func (c *Conn) mergeSACK(blocks []wire.SACKBlock) {
	for _, b := range blocks {
		if seqLEQ(b.Right, c.sndUna) || !seqLT(b.Left, b.Right) ||
			seqLT(c.sndMax, b.Right) || len(c.sacked) >= maxSACKScoreboard {
			continue
		}
		c.sacked = append(c.sacked, b)
	}
	// Normalize: sort by Left and merge overlaps.
	for i := 1; i < len(c.sacked); i++ {
		for j := i; j > 0 && seqLT(c.sacked[j].Left, c.sacked[j-1].Left); j-- {
			c.sacked[j], c.sacked[j-1] = c.sacked[j-1], c.sacked[j]
		}
	}
	out := c.sacked[:0]
	for _, b := range c.sacked {
		if n := len(out); n > 0 && seqLEQ(b.Left, out[n-1].Right) {
			if seqLT(out[n-1].Right, b.Right) {
				out[n-1].Right = b.Right
			}
			continue
		}
		out = append(out, b)
	}
	c.sacked = out
}

// pruneSACK drops scoreboard entries at or below sndUna. Caller holds c.mu.
func (c *Conn) pruneSACK() {
	out := c.sacked[:0]
	for _, b := range c.sacked {
		if seqLT(c.sndUna, b.Right) {
			out = append(out, b)
		}
	}
	c.sacked = out
}

func (c *Conn) bytesInFlight() int {
	n := int(c.sndNxt - c.sndUna)
	if c.finSent && n > 0 {
		n-- // FIN occupies a sequence slot but no bytes
	}
	return n
}

func (c *Conn) recvSpace() int {
	used := c.rcvQBytes
	for _, o := range c.ooo {
		used += len(o.data)
	}
	if used >= c.stack.config.RecvBuf {
		return 0
	}
	return c.stack.config.RecvBuf - used
}

// recvWindow is the window to advertise, in unscaled bytes.
func (c *Conn) recvWindow() int { return c.recvSpace() }

func (c *Conn) windowField() uint16 {
	w := c.recvWindow() >> c.rcvScale
	if w > 65535 {
		w = 65535
	}
	c.lastAdvW = w << c.rcvScale
	return uint16(w)
}

// sendAck emits a pure ACK (with SACK blocks if any). Caller holds c.mu.
func (c *Conn) sendAck() {
	seg := wire.Segment{
		SrcPort: c.local.Port(), DstPort: c.remote.Port(),
		Seq: c.sndNxt, Ack: c.rcvNxt,
		Flags:  wire.FlagACK,
		Window: c.windowField(),
	}
	if blocks := c.sackBlocks(); blocks != nil {
		seg.Options = append(seg.Options, wire.SACKOption(blocks))
	}
	c.transmit(&seg)
}

// transmit sends one segment now. Caller holds c.mu.
func (c *Conn) transmit(seg *wire.Segment) {
	c.queueSegment(seg)
	c.flushSegments()
}

// queueSegment marshals seg into a pooled buffer and appends the packet
// to the pending burst; seg and its payload are free for reuse on return.
// Caller holds c.mu.
func (c *Conn) queueSegment(seg *wire.Segment) {
	if pkt, ok := marshalPacket(c.local.Addr(), c.remote.Addr(), seg); ok {
		c.txPkts = append(c.txPkts, pkt)
	}
}

// flushSegments hands the pending burst to the host in one call — one
// route lookup and one link-queue lock for a whole ACK-clocked flight.
// Caller holds c.mu.
func (c *Conn) flushSegments() {
	n := len(c.txPkts)
	if n == 0 {
		return
	}
	c.stats.SegsSent += uint64(n)
	c.stack.ctr.segsSent.Add(uint64(n))
	c.txPtrs = c.txPtrs[:0]
	for i := range c.txPkts {
		c.txPtrs = append(c.txPtrs, &c.txPkts[i])
	}
	if c.stack.host.SendBatch(c.txPtrs) != nil {
		for i := range c.txPkts {
			bufpool.Put(c.txPkts[i].Payload) // no route: the burst never entered the network
		}
	}
	clear(c.txPkts) // drop the payload references
	c.txPkts = c.txPkts[:0]
}

// failLocked terminates with err. Caller holds c.mu.
func (c *Conn) failLocked(err error) { c.teardown(err) }

// teardown finalizes the connection. Caller holds c.mu.
func (c *Conn) teardown(err error) {
	if c.st == stateClosed && c.err != nil {
		return
	}
	if c.st != stateClosed {
		c.stack.ctr.connsClosed.Add(1)
	}
	c.setState(stateClosed)
	if c.err == nil {
		c.err = err
	}
	// Out-of-order segments can never drain now; recycle their buffers.
	// rcvQ stays — already-received data remains readable after teardown.
	for i := range c.ooo {
		bufpool.Put(c.ooo[i].owner)
	}
	c.ooo = nil
	c.cancelRetransmit()
	c.timeWaitTimer.Stop()
	if c.listener != nil {
		// Died before establishment completed: give the half-open slot
		// back so a SYN flood cannot pin the backlog forever.
		c.listener.releaseHalfOpen()
		c.listener = nil
	}
	c.estOnce.Do(func() { close(c.established) })
	c.readCond.Broadcast()
	c.writeCond.Broadcast()
	c.stack.unregister(c)
}

// fail is the exported-path teardown with locking.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st == stateEstablished || c.st == stateClosed {
		return // dial timeout racing establishment
	}
	c.teardown(err)
}

func (c *Conn) enterTimeWait() {
	c.setState(stateTimeWait)
	c.cancelRetransmit()
	c.stack.clock.Schedule(&c.timeWaitTimer, timeWaitD, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.st == stateTimeWait {
			c.teardown(nil)
		}
	})
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return Addr{c.local} }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return Addr{c.remote} }

// LocalAddrPort returns the local address as a netip.AddrPort.
func (c *Conn) LocalAddrPort() netip.AddrPort { return c.local }

// RemoteAddrPort returns the remote address as a netip.AddrPort.
func (c *Conn) RemoteAddrPort() netip.AddrPort { return c.remote }

// State returns the connection state name (cross-layer introspection).
func (c *Conn) State() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.String()
}

// Info returns a cross-layer snapshot.
func (c *Conn) Info() Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Info{
		State:             c.st.String(),
		CongestionControl: c.ctrl.Name(),
		MSS:               c.mss,
		CWnd:              c.ctrl.CWnd(),
		Ssthresh:          c.ctrl.Ssthresh(),
		BytesInFlight:     c.bytesInFlight(),
		PeerWindow:        c.sndWnd,
		SendQueue:         c.sndBuf.Len(),
		RecvQueue:         c.rcvQBytes,
		SRTT:              c.srtt,
		RTTVar:            c.rttvar,
		RTO:               c.rto,
		SackedBytes:       c.sackedBytes(),
		InRecovery:        c.inRecovery,
		Stats:             c.stats,
	}
}

// PeerWindow returns the peer's currently advertised receive window.
// Zero means the peer has closed its window (persist territory) — the
// cross-layer signal the TCPLS stall watchdog reads to distinguish a
// slow-drain peer from a merely slow network.
func (c *Conn) PeerWindow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sndWnd
}

// CWndInfo returns (cwnd, bytesInFlight, mss) — the cross-layer
// introspection TCPLS uses to size records to the congestion window
// (§4.6 of the paper).
func (c *Conn) CWndInfo() (int, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrl.CWnd(), c.bytesInFlight(), c.mss
}

// SetUserTimeout installs the RFC 5482 user timeout: if unacknowledged
// data stays outstanding this long, the connection aborts with
// ErrUserTimeout. Zero disables. This is the local effect of the TCP_USER_
// TIMEOUT socket option — and the action the server takes when a TCPLS
// User Timeout option arrives over the encrypted channel (§3.1).
func (c *Conn) SetUserTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.userTO = d
}

// UserTimeout returns the configured user timeout.
func (c *Conn) UserTimeout() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.userTO
}

// SetCongestionControl swaps the congestion controller by registered
// name, live. The new controller starts from its initial window.
func (c *Conn) SetCongestionControl(name string) error {
	ctrl, err := cc.New(name)
	if err != nil {
		return err
	}
	c.SetCongestionControlImpl(ctrl)
	return nil
}

// SetCongestionControlImpl swaps in a concrete controller instance —
// the installation hook for eBPF-delivered controllers (§3(iii)).
func (c *Conn) SetCongestionControlImpl(ctrl cc.Controller) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctrl.Init(c.mss)
	c.ctrl = ctrl
	c.inRecovery = false
	c.dupAcks = 0
}

// PeerSYNOptions returns the TCP options observed on the peer's SYN, as
// they arrived — i.e. after any middlebox interference. Comparing them
// with what the peer claims to have sent (over the TCPLS secure channel)
// "immediately and reliably detects the presence of NAT, transparent
// proxies or other types of middleboxes" (§4.5 of the TCPLS paper).
func (c *Conn) PeerSYNOptions() []wire.Option {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.Option(nil), c.peerSYNOpts...)
}

// SYNOptions returns the options this endpoint sent on its own SYN —
// the "original header" a TCPLS client would copy into the encrypted
// channel for middlebox detection.
func (c *Conn) SYNOptions() []wire.Option { return c.synOptions() }

// CongestionControlName returns the active controller's name.
func (c *Conn) CongestionControlName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrl.Name()
}
